#!/usr/bin/env python3
"""The blockdict benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload learn-clean --seed 1 --seconds 10 --trace 0

Run from the root of a blockdict checkout; the program is imported from
its `src/` directory and nowhere else. `--workload all` runs every
workload in one process. With `--trace 0` the last line of standard
output is a JSON object holding the end-to-end metrics; with `--trace 1`
a traced pass re-runs the same items and the last line holds the
per-layer metrics instead. The line before it is the full report of the
(last) workload: every metric, the correctness gate, the environment.
README.md in this directory says what each workload and metric is for.
"""

# BLAS threads are fixed before numpy is first imported, here or in a
# child process, so that timings do not depend on the core count.
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("learn-clean", "learn-noisy", "certify", "screen")

# Not used while this benchmark was written: confirm claimed gains on it.
HELD_OUT_SEED = 4242

SETUP_REPEATS = 5

END_TO_END = {  # name -> unit
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "success_frac": "fraction",
    "error_frac": "fraction",
}

# End-to-end metrics with a regression bound in BENCHMARK.json. The rest
# are reported, not bounded: see README.md for why.
BOUNDED = ("items_per_s", "setup_s", "peak_rss_mb")

# Public functions whose calls the traced run times, by layer label.
TRACED = (
    "coding.block_omp",
    "core.BlockSparseVec.from_values",
    "coding.exhaustive_code",
    "equivalence.construct_kappa",
    "equivalence.verify_theorem_instance",
    "equivalence.recover_equivalence",
    "equivalence.match_blocks",
    "harness.run_experiment",
    "harness.learn_dictionary",
    "harness.gen_dictionary",
    "rip.rip_constant_exact",
    "rip.rip_lower_bound_sampled",
    "rip.rip_constant_for_support",
    "subspace.orthonormal_basis",
    "subspace.spans_equal",
    "subspace.subspace_intersection",
    "subspace.check_lemma1",
    "cli.main",
    "matrixio.read_matrix_text",
)

PER_LAYER = {
    **{
        f"{label}.{field}": unit
        for label in TRACED
        for field, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
    },
    "equivalence.construct_kappa.violations": "count",
    "rip.accept_ratio": "fraction",
    "harness.learner_iterations": "count",
    "harness.reseeds": "count",
    "harness.generation_retries": "count",
    "trace.items": "count",
    "trace.overhead_frac": "fraction",
}


def import_program():
    """Import blockdict from this checkout's src/, or exit without a result."""
    init = os.path.join(SRC, "blockdict", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a blockdict checkout")
    sys.path.insert(0, SRC)
    import blockdict

    if os.path.abspath(blockdict.__file__) != init:
        raise SystemExit(f"error: imported blockdict from {blockdict.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


class Item:
    """One item's window, output hash and verdict; `output` kept for counters.

    `seconds` (reference speed) and `wall` are filled in by `time_items`
    once the pass's probe samples are all in.
    """

    def __init__(self, index, t0, t1, output, digest, verdict):
        self.index = index
        self.t0, self.t1 = t0, t1
        self.output = output
        self.digest = digest
        self.verdict = verdict
        self.seconds = self.wall = None


def run_items(workload, inputs, indices, *, seconds=math.inf, min_items=0, tracer=None):
    """Run items in order until `indices` or the clock runs out.

    The clock only stops the pass once min_items items are done. Each
    item's window covers the program call alone; hashing and judging follow.
    """
    from workloads import Verdict

    items = []
    t_pass = time.perf_counter()
    for i in indices:
        if len(items) >= min_items and time.perf_counter() - t_pass >= seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run_item(inputs, i)
            else:
                output = tracer.run_item(i, workload.run_item, inputs, i)
        except Exception as exc:  # an item that raises is counted, not fatal
            verdict = Verdict(True, False, False, f"{type(exc).__name__}: {exc}")
            items.append(Item(i, t0, time.perf_counter(), None, None, verdict))
            continue
        t1 = time.perf_counter()
        digest = hashlib.sha256(workload.output_bytes(output)).hexdigest()
        items.append(Item(i, t0, t1, output, digest, workload.judge(inputs, i, output)))
    return items


def time_items(probe, items) -> None:
    for it in items:
        it.wall = probe.own_seconds(it.t0, it.t1)
        it.seconds = probe.reference_seconds(it.t0, it.t1)


def tail(times: list[float]):
    """Highest whole percentile with at least 10 items beyond it, or None."""
    n = len(times)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(pct / 100 * n))  # nearest-rank percentile
    return {"value": sorted(times)[rank - 1], "unit": END_TO_END["item_s.tail"],
            "percentile": pct, "items": n}


def end_to_end(items, setup_s: float) -> dict:
    """name -> {"value", "unit"}; item_s.tail also carries its percentile."""
    times = [it.seconds for it in items]
    n = len(items)
    values = {
        "items_per_s": n / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_s.p50": statistics.median(times),
        "success_frac": sum(it.verdict.success for it in items) / n,
        "error_frac": sum(it.verdict.errored for it in items) / n,
    }
    out = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    slowest = tail(times)
    if slowest is not None:
        out["item_s.tail"] = slowest
    return out


def per_layer(tracer, stats, workload, traced, untraced) -> dict:
    out = {}
    for label in TRACED:
        s = stats.get(label, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"{label}.calls"] = s["calls"]
        out[f"{label}.self_s"] = s["self_s"]
        out[f"{label}.us_per_call"] = 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0
    rip_calls = out["rip.rip_constant_exact.calls"]
    out["equivalence.construct_kappa.violations"] = tracer.counts[
        "equivalence.construct_kappa.raised.HypothesisViolationError"
    ]
    out["rip.accept_ratio"] = tracer.counts["rip.accepted"] / rip_calls if rip_calls else 0.0
    out.update({"harness.learner_iterations": 0, "harness.reseeds": 0,
                "harness.generation_retries": 0})
    out.update(workload.counters([it.output for it in traced if it.output is not None]))
    out["trace.items"] = len(traced)
    out["trace.overhead_frac"] = (
        sum(it.seconds for it in traced) / sum(it.seconds for it in untraced) - 1
    )
    return out


def self_time_shares(stats, traced) -> dict:
    """Each traced layer's self time as a share of the traced items' windows."""
    total = sum(it.t1 - it.t0 for it in traced)
    return {label: stats[label]["self_s"] / total for label in sorted(stats)}


def setup(probe, workload, seed: int, n_items: int, workdir: str):
    """Import time plus input generation, each the median of SETUP_REPEATS.

    Returns (inputs, setup_s in reference seconds, setup_s on the wall
    clock, whether every repeat generated byte-identical inputs).
    """
    import speed

    imports_wall, imports = zip(*(speed.import_seconds(SRC) for _ in range(SETUP_REPEATS)))
    gens, gens_wall, digests, inputs = [], [], set(), None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, n_items, workdir)
        t1 = time.perf_counter()
        gens_wall.append(probe.own_seconds(t0, t1))
        gens.append(probe.reference_seconds(t0, t1))
        digests.add(hashlib.sha256(workload.inputs_bytes(inputs)).hexdigest())
    median = statistics.median
    return (inputs, median(imports) + median(gens),
            median(imports_wall) + median(gens_wall), len(digests) == 1)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One workload end to end; returns its report (see README.md)."""
    import speed
    import tracing
    import workloads

    workload = (workloads.TINY if size == "tiny" else workloads.FULL)[name]
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    probe = speed.SpeedProbe()
    try:
        with probe:
            inputs, setup_s, setup_wall, inputs_repeat = setup(
                probe, workload, seed, workloads.input_count(workload, seconds), workdir
            )
            warm = workloads.TINY[name]
            warm_dir = os.path.join(workdir, "warm-up")
            os.makedirs(warm_dir)
            run_items(warm, warm.prepare(seed, 1, warm_dir), [0])
            indices = range(len(inputs))
            if not trace:
                timed = run_items(workload, inputs, indices, seconds=seconds,
                                  min_items=workload.min_items)
                repeat = [it.index for it in timed[: workload.repeat_items]]
                second = run_items(workload, inputs, repeat)
            else:
                timed = run_items(workload, inputs, indices, seconds=seconds, min_items=1)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    second = run_items(workload, inputs, [it.index for it in timed],
                                       tracer=tracer)
                finally:
                    tracer.uninstall()
                tracer.save(os.path.join(OUT, f"spans-{name}-seed{seed}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    time_items(probe, timed + second)

    hashes_match = all(a.digest is not None and a.digest == b.digest
                       for a, b in zip(timed, second))
    failures = [f"item {it.index}: {it.verdict.reason}"
                for it in timed + second if not it.verdict.valid]
    failed = sum(it.verdict.errored for it in timed)
    wall_times = [it.wall for it in timed]
    report = {
        "workload": name,
        "size": size,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(timed),
        "failed": failed,
        "correct": not failures and hashes_match and inputs_repeat and failed == 0,
        "gate": {
            "invalid_items": failures[:5],
            "rechecked_items": len(second),
            "hashes_match": hashes_match,
            "inputs_repeat": inputs_repeat,
        },
        "outputs_sha256": hashlib.sha256(
            "".join(it.digest or "-" for it in timed).encode()
        ).hexdigest(),
        "end_to_end": end_to_end(timed, setup_s),
        "wall_clock": {
            "items_per_s": len(timed) / sum(wall_times),
            "setup_s": setup_wall,
            "item_s.p50": statistics.median(wall_times),
            "host_slowdown": probe.slowdown(),
        },
        "environment": environment(),
    }
    if trace:
        stats = tracer.aggregate()
        report["per_layer"] = per_layer(tracer, stats, workload, second, timed)
        report["self_time_shares"] = self_time_shares(stats, second)
    return report


def result_line(reports, trace: bool) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json names."""
    prefix = len(reports) > 1
    if trace:
        picked = [(r["workload"], name, {"value": r["per_layer"][name], "unit": unit})
                  for r in reports for name, unit in PER_LAYER.items()]
    else:
        picked = [(r["workload"], name, r["end_to_end"][name])
                  for r in reports for name in BOUNDED]
    metrics = {(f"{w}/{name}" if prefix else name): m for w, name, m in picked}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed pass runs once min_items are done")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke tests")
    p.add_argument("--out", help="also write every report to this JSON file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        reports.append(report)
        print(json.dumps(report), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"reports": reports}, fh, indent=1)
            fh.write("\n")
    result = result_line(reports, bool(args.trace))
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        sys.stderr.write("correctness gate failed; see the report lines\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
