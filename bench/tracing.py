"""Spans around calls into blockdict's public functions, from outside.

While a `Tracer` is installed, each public name listed in CALL_SITES is
rebound, in the module namespace whose code calls it, to a wrapper that
records a span: label, start, end, parent span and item id. Spans stay in
memory until `aggregate` reduces them to per-layer calls and self time
(a span's duration minus the durations of its child spans; calls run on
one thread, so children never overlap) and `save` writes them out.
Uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# calling module -> names it binds to public blockdict functions. A name is
# listed in the module whose code calls it; the benchmark's own calls go
# through the defining module (harness.run_experiment, cli.main, ...).
CALL_SITES = {
    "blockdict.harness": (
        "block_omp", "gen_dictionary", "learn_dictionary", "recover_equivalence",
        "rip_constant_exact", "rip_lower_bound_sampled", "run_experiment",
    ),
    "blockdict.equivalence": (
        "exhaustive_code", "orthonormal_basis", "spans_equal", "rip_constant_exact",
        "rip_lower_bound_sampled", "construct_kappa", "match_blocks",
        "recover_equivalence", "verify_theorem_instance",
    ),
    "blockdict.rip": (
        "rip_constant_for_support", "rip_constant_exact", "rip_lower_bound_sampled",
    ),
    # harness's cluster discovery imports these from here at call time
    "blockdict.subspace": (
        "orthonormal_basis", "spans_equal", "subspace_intersection", "check_lemma1",
    ),
    "blockdict.cli": ("main", "verify_theorem_instance", "read_matrix_text"),
}

# classmethods are rebound on their class, which every caller shares
CLASS_SITES = (("blockdict.core", "BlockSparseVec", "from_values"),)

ITEM = "bench.item"


def label_of(fn) -> str:
    """`coding.block_omp` for blockdict.coding.block_omp."""
    return f"{fn.__module__.removeprefix('blockdict.')}.{fn.__qualname__}"


class Tracer:
    """Span store plus the wrappers that feed it; install() / uninstall()."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_item = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def open(self, label_id: int) -> int:
        idx = len(self.start)
        self.name.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, label: str, fn):
        """`fn` wrapped so that every call records a span under `label`."""
        label_id = self._label_id(label)
        counts_accepted = label == "rip.rip_constant_exact"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(label_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.close(idx)
            if counts_accepted and result.delta < 1.0:
                self.counts["rip.accepted"] += 1
            return result

        return traced

    def run_item(self, i: int, fn, *args):
        """fn(*args) under an item span with id i."""
        self.current_item = i
        idx = self.open(self._label_id(ITEM))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.current_item = -1

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, names in CALL_SITES.items():
            module = importlib.import_module(mod_name)
            for name in names:
                fn = getattr(module, name)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.span(label_of(fn), fn)
                self._saved.append((module, name, fn))
                setattr(module, name, wrappers[id(fn)])
        for mod_name, cls_name, name in CLASS_SITES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[name]
            fn = original.__func__
            self._saved.append((cls, name, original))
            setattr(cls, name, classmethod(self.span(label_of(fn), fn)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """label -> {"calls", "self_s", "total_s"} over all recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        if np.any(dur < 0):
            raise RuntimeError("a span was left open; the per-layer times are invalid")
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n_labels = len(self.labels)
        calls = np.bincount(name, minlength=n_labels)
        self_s = np.bincount(name, weights=dur - child, minlength=n_labels)
        total_s = np.bincount(name, weights=dur, minlength=n_labels)
        return {
            label: {
                "calls": int(calls[k]),
                "self_s": float(self_s[k]),
                "total_s": float(total_s[k]),
            }
            for k, label in enumerate(self.labels)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
