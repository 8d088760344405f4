"""The benchmark's workloads: inputs from a seed, one item, and its checks.

A workload turns the workload seed into inputs (`prepare`), runs one item
on input number i (`run_item`), reduces the item's output to canonical
JSON bytes for the determinism hash (`output_bytes`), and judges it
(`judge`). Program functions are always looked up as module attributes at
call time, so the traced pass sees the wrappers that `tracing` installs.

Every workload has a full size, the one the benchmark measures, and a
tiny size for warm-up and the smoke tests. `min_items` is the fewest
items a timed run may hold, and `repeat_items` how many of them the
untraced run re-runs for the determinism gate.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from blockdict import cli, harness, matrixio, rip, subspace
from blockdict.core import BlockStructure
from blockdict.equivalence import make_equivalent_dict


@dataclass(frozen=True)
class Verdict:
    """How one item's output fares against the workload's definition."""

    errored: bool  # raised, exited nonzero, or recorded stage errors
    valid: bool  # the output passes the workload's check
    success: bool  # the output carries the right verdict
    reason: str = ""


def input_count(workload, seconds: float) -> int:
    """Inputs set-up makes: enough for `seconds` at MAX_ITEMS_PER_S.

    Each workload's MAX_ITEMS_PER_S is several times its measured rate,
    so a run only ends on its clock unless the program gets that much
    faster; it then ends when the inputs run out, after fewer seconds.
    """
    return max(workload.min_items, math.ceil(seconds * workload.MAX_ITEMS_PER_S))


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class LearnWorkload:
    """Seeded `run_experiment` calls; item i uses experiment seed seed + i.

    Inputs are experiment configs, so set-up only builds them; dictionary
    generation, synthesis, learning and certification all happen inside
    the item, as they do for a user sweeping seeds.
    """

    MAX_ITEMS_PER_S = 50

    def __init__(self, name, *, K, alpha, s, P, N, iterations, noise_level,
                 min_items, repeat_items):
        self.name = name
        self.structure = BlockStructure(K=K, alpha=alpha, s=s)
        self.P, self.N = P, N
        self.iterations = iterations
        self.noise_level = noise_level
        self.min_items = min_items
        self.repeat_items = repeat_items

    def prepare(self, seed: int, n_items: int, workdir: str):
        return [
            harness.ExperimentConfig(
                structure=self.structure,
                ambient_dim=self.P,
                n_samples=self.N,
                seed=seed + i,
                noise_level=self.noise_level,
                learner_iterations=self.iterations,
            )
            for i in range(n_items)
        ]

    def inputs_bytes(self, inputs) -> bytes:
        return canonical_json([c.to_dict() for c in inputs])

    def run_item(self, inputs, i: int):
        return harness.run_experiment(inputs[i])

    def output_bytes(self, report) -> bytes:
        body = report.to_dict()
        body.pop("wall_clock_sec")
        return canonical_json(body)

    def judge(self, inputs, i: int, report) -> Verdict:
        if report.stage_errors:
            return Verdict(True, False, False, f"stage errors {report.stage_errors}")
        return judge_certificate(
            report.certificate, self.structure, inputs[i].certificate_tol
        )

    def counters(self, outputs) -> dict:
        return {
            "harness.learner_iterations": sum(
                len(r.trace["objectives"]) for r in outputs if r.trace
            ),
            "harness.reseeds": sum(
                len(r.trace["reseed_events"]) for r in outputs if r.trace
            ),
            "harness.generation_retries": sum(r.generation_retries for r in outputs),
        }


def judge_certificate(cert, structure: BlockStructure, tol: float) -> Verdict:
    """Whether an experiment's certificate is self-consistent, and says equivalent.

    An `equivalent` verdict needs its evidence: a permutation of 1..K,
    K finite invertible alpha x alpha transforms and a residual within
    tol. A `not-equivalent` verdict whose evidence would pass is wrong too.
    """
    if cert is None:
        return Verdict(True, False, False, "no certificate")
    status = cert["status"]
    if status not in ("equivalent", "not-equivalent", "ambiguous"):
        return Verdict(False, False, False, f"unknown status {status!r}")
    evidence = _certificate_evidence(cert, structure, tol)
    if (status == "equivalent") != evidence:
        return Verdict(False, False, False, f"status {status!r} contradicts its evidence")
    return Verdict(False, True, status == "equivalent")


def _certificate_evidence(cert, structure: BlockStructure, tol: float) -> bool:
    pi, blocks, residual = cert["pi"], cert["D_blocks"], cert["residual"]
    if pi is None or blocks is None or residual is None:
        return False
    if sorted(pi) != list(range(1, structure.K + 1)) or len(blocks) != structure.K:
        return False
    for blk in blocks:
        arr = np.asarray(blk, dtype=float)
        if arr.shape != (structure.alpha, structure.alpha) or not np.all(np.isfinite(arr)):
            return False
        svals = np.linalg.svd(arr, compute_uv=False)
        if svals[-1] <= 1e-8 * svals[0]:
            return False
    return residual <= tol


class CertifyWorkload:
    """`blockdict verify` on dictionary pairs written to text files in set-up.

    The pool holds `pool` pairs, each from its own dictionary with exact
    restricted isometry constant below 1 at level 2s. Even pairs are
    planted equivalents (random block permutation, block-diagonal factors
    with condition number at most 10); odd pairs have one block replaced.
    Item i verifies pair i mod pool with probe seed seed + i.
    """

    MAX_ITEMS_PER_S = 100

    def __init__(self, name, *, K, alpha, s, P, pool, min_items, repeat_items):
        self.name = name
        self.structure = BlockStructure(K=K, alpha=alpha, s=s)
        self.P = P
        self.pool = pool
        self.min_items = min_items
        self.repeat_items = repeat_items

    def prepare(self, seed: int, n_items: int, workdir: str):
        st = self.structure
        level = min(2 * st.s, st.K)
        rng = np.random.default_rng([seed, 1])
        candidate = seed
        pairs = []
        for k in range(self.pool):
            while True:
                A = harness.gen_dictionary(self.P, st, seed=candidate)
                candidate += 1
                if rip.rip_constant_exact(A, level).delta < 1.0:
                    break
            perm = harness.gen_block_permutation(st.K, seed=int(rng.integers(2**31)))
            diag = harness.gen_block_diagonal(st, seed=int(rng.integers(2**31)))
            B = make_equivalent_dict(A, perm, diag)
            planted = k % 2 == 0
            if not planted:
                block = int(rng.integers(1, st.K + 1))
                Q, _ = np.linalg.qr(rng.standard_normal((self.P, st.alpha)))
                B = B.with_block(block, Q)
            a_path = os.path.join(workdir, f"A{k}.txt")
            b_path = os.path.join(workdir, f"B{k}.txt")
            matrixio.write_matrix_text(a_path, A.data)
            matrixio.write_matrix_text(b_path, B.data)
            pairs.append((a_path, b_path, planted, list(perm.pi)))
        out_path = os.path.join(workdir, "verify.json")
        return [(*pairs[i % self.pool], seed + i, out_path) for i in range(n_items)]

    def inputs_bytes(self, inputs) -> bytes:
        chunks = []
        for a_path, b_path, planted, pi, _, _ in inputs[: self.pool]:
            for path in (a_path, b_path):
                with open(path, "rb") as fh:
                    chunks.append(fh.read())
            chunks.append(canonical_json([planted, pi]))
        return b"".join(chunks)

    def run_item(self, inputs, i: int):
        a_path, b_path, _, _, probe_seed, out_path = inputs[i]
        code = cli.main([
            "verify", a_path, b_path,
            "--alpha", str(self.structure.alpha),
            "--sparsity", str(self.structure.s),
            "--seed", str(probe_seed),
            "--out", out_path,
        ])
        if code != 0:
            return code, None
        with open(out_path, "r", encoding="utf-8") as fh:
            return code, json.load(fh)

    def output_bytes(self, output) -> bytes:
        return canonical_json(list(output))

    def judge(self, inputs, i: int, output) -> Verdict:
        code, report = output
        if code != 0:
            return Verdict(True, False, False, f"verify exited {code}")
        _, _, planted, pi, _, _ = inputs[i]
        conclusion = report["conclusion"]
        said_equivalent = conclusion["status"] == "equivalent"
        right = said_equivalent == planted and (not planted or conclusion["pi"] == pi)
        return Verdict(False, right, right, "" if right else
                       f"planted equivalent={planted}, verdict {conclusion['status']!r}")

    def counters(self, outputs) -> dict:
        return {}


class ScreenWorkload:
    """Dictionary screening: exact and sampled RIP constants plus Lemma 1.

    Set-up generates one dictionary per item from seeds seed, seed + 1, ...
    An item is right when the sampled bound does not exceed the exact
    constant, and Lemma 1 holds whenever that constant is below 1.
    """

    MAX_ITEMS_PER_S = 50

    def __init__(self, name, *, K, alpha, s, P, level, n_sampled, min_items,
                 repeat_items):
        self.name = name
        self.structure = BlockStructure(K=K, alpha=alpha, s=s)
        self.P = P
        self.level = level
        self.n_sampled = n_sampled
        self.min_items = min_items
        self.repeat_items = repeat_items

    def prepare(self, seed: int, n_items: int, workdir: str):
        return [
            (harness.gen_dictionary(self.P, self.structure, seed=seed + i), seed + i)
            for i in range(n_items)
        ]

    def inputs_bytes(self, inputs) -> bytes:
        return b"".join(A.data.tobytes() for A, _ in inputs)

    def run_item(self, inputs, i: int):
        A, item_seed = inputs[i]
        exact = rip.rip_constant_exact(A, self.level)
        sampled = rip.rip_lower_bound_sampled(A, self.level, self.n_sampled, item_seed)
        lemma1 = subspace.check_lemma1(A, self.structure.s)
        return exact.to_dict(), sampled.to_dict(), lemma1

    def output_bytes(self, output) -> bytes:
        return canonical_json(list(output))

    def judge(self, inputs, i: int, output) -> Verdict:
        exact, sampled, lemma1 = output
        bound_ok = sampled["delta"] <= exact["delta"]
        lemma_ok = lemma1 or exact["delta"] >= 1.0
        right = bound_ok and lemma_ok
        return Verdict(False, right, right, "" if right else
                       f"sampled {sampled['delta']} exact {exact['delta']} lemma1 {lemma1}")

    def counters(self, outputs) -> dict:
        return {}


# Full sizes are the ones the benchmark measures; see README.md for why.
FULL = {
    "learn-clean": LearnWorkload(
        "learn-clean", K=6, alpha=2, s=2, P=16, N=300, iterations=30,
        noise_level=0.0, min_items=50, repeat_items=1,
    ),
    "learn-noisy": LearnWorkload(
        "learn-noisy", K=6, alpha=2, s=2, P=16, N=300, iterations=30,
        noise_level=1e-3, min_items=1, repeat_items=0,  # repeated by --trace 1
    ),
    "certify": CertifyWorkload(
        "certify", K=6, alpha=2, s=2, P=16, pool=32, min_items=20, repeat_items=2,
    ),
    "screen": ScreenWorkload(
        "screen", K=12, alpha=2, s=2, P=48, level=4, n_sampled=200, min_items=20,
        repeat_items=2,
    ),
}

TINY = {
    "learn-clean": LearnWorkload(
        "learn-clean", K=4, alpha=2, s=1, P=12, N=40, iterations=5,
        noise_level=0.0, min_items=3, repeat_items=1,
    ),
    "learn-noisy": LearnWorkload(
        "learn-noisy", K=4, alpha=2, s=1, P=12, N=40, iterations=5,
        noise_level=1e-3, min_items=3, repeat_items=1,
    ),
    "certify": CertifyWorkload(
        "certify", K=4, alpha=2, s=1, P=8, pool=4, min_items=4, repeat_items=1,
    ),
    "screen": ScreenWorkload(
        "screen", K=6, alpha=2, s=2, P=40, level=4, n_sampled=10, min_items=3,
        repeat_items=1,
    ),
}
