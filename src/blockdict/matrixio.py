"""Plain-text matrix files shared by the CLI and the library.

Format: first line "rows cols" as two positive decimal integers, then exactly
`rows` lines each holding `cols` whitespace-separated floating-point values,
then only whitespace. UTF-8, LF line endings, no comments.
"""

from __future__ import annotations

import numpy as np


def write_matrix_text(path, M) -> None:
    """Write a 2-D array to `path` in the shared text format."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must all be finite")
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(repr(float(v)) for v in arr[r]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_text(path) -> np.ndarray:
    """Read a matrix written by `write_matrix_text`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: header must be 'rows cols', got {header!r}")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: header must hold two integers, got {header!r}")
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: dimensions must be positive, got {rows}x{cols}")
        data = np.empty((rows, cols))
        for r in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise ValueError(
                    f"{path}: row {r + 1} has {len(parts)} values, expected {cols}"
                )
            data[r] = [float(p) for p in parts]
        if fh.read().strip():
            raise ValueError(f"{path}: data past the declared {rows} rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: matrix entries must all be finite")
    return data
