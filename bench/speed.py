"""Host-speed probe: scales measured times to a reference core speed.

On a shared host the same item can take up to 1.8x longer for tens of
seconds at a time, because neighbours load the same cores; CPU time
swings as much as wall time. While a `SpeedProbe` is active, a SIGALRM
timer runs a fixed kernel of small numpy calls, like the ones blockdict
makes, every PERIOD_S seconds. The kernel's duration tracks the host's
speed. `own_seconds` removes the probe's own time from a measured
window, and `reference_seconds` scales that by REFERENCE_S over the
kernel's mean duration around the window.

Imports are scaled differently. A fresh interpreter's import time moved
with the import time of a fixed set of standard-library modules
(correlation 0.95 over 14 batches) but not with the kernel, so
`import_seconds` scales it by the stdlib import timed in the next fresh
interpreter.

The handler runs in the main thread between bytecodes, never inside a
numpy call, and touches no program state. In a traced pass its time
lands in the self time of whichever span it interrupts: being sampled
at even intervals, it adds about the same 1.3% to every layer.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time
from array import array

import numpy as np

PERIOD_S = 0.1
# the kernel's duration on an idle core of the 2.1 GHz Xeon in README.md
REFERENCE_S = 0.00125

STDLIB_IMPORT = (
    "import argparse, asyncio, decimal, email.mime.multipart, http.client, json, "
    "logging, tarfile, unittest, xml.dom.minidom"
)
# STDLIB_IMPORT's duration on the same idle core
STDLIB_IMPORT_S = 0.055


def _timed_import(statement: str, path: str) -> float:
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"{statement}; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code, path],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def import_seconds(src: str) -> tuple[float, float]:
    """`import numpy, blockdict` from `src` in a fresh interpreter.

    Returns (wall-clock seconds, reference seconds).
    """
    wall = _timed_import("import numpy, blockdict", src)
    return wall, wall * STDLIB_IMPORT_S / _timed_import(STDLIB_IMPORT, src)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._M = rng.standard_normal((16, 4))
        self._Y = rng.standard_normal((16, 8))
        self._G = self._M.T @ self._M
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(25):
            np.linalg.svd(self._M, compute_uv=False)
            np.linalg.lstsq(self._M, self._Y, rcond=None)
            np.linalg.eigvalsh(self._G)
            np.linalg.qr(self._M)
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.durations.append(self.kernel())
        self.starts.append(start)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_seconds(self, t0: float, t1: float) -> float:
        """The window [t0, t1] less the probe's samples inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.durations[lo:hi])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """`own_seconds(t0, t1)` at reference speed."""
        # samples from one period either side, so short windows get one too
        lo = bisect.bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect.bisect_left(self.starts, t1 + PERIOD_S)
        near = self.durations[lo:hi]
        if not near:  # the handler waited on a long numpy call: nearest sample
            idx = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = self.durations[idx : idx + 1]
        return self.own_seconds(t0, t1) * REFERENCE_S / (sum(near) / len(near))

    def slowdown(self) -> float:
        """Median kernel duration over REFERENCE_S, for the report."""
        return float(np.median(self.durations)) / REFERENCE_S
