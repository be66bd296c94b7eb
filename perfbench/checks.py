"""Independent checks of carpenter's outputs.

Nothing here calls carpenter: matrices are checked by their symmetry,
idempotence and diagonal; rows by their norms, the overlap of neighbours
and the disjointness of rows further apart.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# Max-norm limits, the same as carpenter's documented contracts: projections
# to 1e-9 (README criterion 1), streamed rows to 1e-11 and completed columns
# to 1e-12 (criterion 3).
MATRIX_TOL = 1e-9
ROW_TOL = 1e-11
COLUMN_TOL = 1e-12
_BLOCK = 256


def matrix_defects(P: np.ndarray, target, idx) -> dict[str, float]:
    """Max-norm symmetry, idempotence and diagonal defects of ``P``.

    ``idx`` lists the coordinates whose diagonal entry is final (all of them
    for a finite build); ``target`` gives their values. Idempotence is
    max|P @ P - P| over every entry, as in carpenter's own check: a probe
    with a few random vectors is cheaper, but its maximum scatters by a
    factor of three between inputs. The products are formed a block of rows
    at a time so the check adds little to the worker's peak memory.
    """
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"not a square matrix: shape {P.shape}")
    sym = idem = diag = 0.0
    for lo in range(0, P.shape[0], _BLOCK):
        rows = P[lo : lo + _BLOCK]
        D = rows @ P
        D -= rows
        idem = max(idem, float(np.max(np.abs(D, out=D))))
        D = rows - P[:, lo : lo + _BLOCK].T
        sym = max(sym, float(np.max(np.abs(D, out=D))))
    idx = np.asarray(idx, dtype=int)
    if idx.size:
        diag = float(np.max(np.abs(np.diagonal(P)[idx] - np.asarray(target, dtype=float)[idx])))
    return {"symmetry": sym, "idempotence": idem, "diagonal": diag}


def finite_build_defects(P, d) -> dict[str, float]:
    """Defects of a finite build against diagonal ``d``, plus the distance of
    the trace from the integer sum of ``d``."""
    out = matrix_defects(P, d, range(len(d)))
    out["trace"] = abs(float(np.trace(P)) - round(math.fsum(d)))
    return out


def row_defects(rows) -> float:
    """Largest deviation of the rows' Gram matrix from the identity.

    ``rows`` are (start, values) pairs in emission order with nondecreasing
    starts. Rows two or more apart must have disjoint supports, which makes
    their inner product exactly 0; only norms and neighbour overlaps are
    computed. A violated support condition returns infinity.
    """
    worst = 0.0
    prev = None
    for i, (start, vals) in enumerate(rows):
        v = np.asarray(vals, dtype=float)
        worst = max(worst, abs(float(v @ v) - 1.0))
        if prev is not None:
            pstart, pv = prev
            if start < pstart:
                return math.inf
            lo, hi = start, min(pstart + pv.size, start + v.size)
            if hi > lo:
                worst = max(worst, abs(float(pv[lo - pstart : hi - pstart] @ v[: hi - lo])))
        if i >= 2:
            s2, v2 = rows[i - 2]
            if s2 + len(v2) > start:
                return math.inf
        prev = (start, v)
    return worst


def nearest_gap(sorted_values: list[float], x: float) -> float:
    """Distance from ``x`` to the closest entry of ``sorted_values``."""
    j = bisect.bisect_left(sorted_values, x)
    near = sorted_values[max(j - 1, 0) : j + 1]
    return min(abs(x - y) for y in near)


def kadison_sums(prefix, tail_values, tail_rest) -> tuple[float, float]:
    """(a, b) for a prefix plus a tail given as its first explicit values and
    the sum ``tail_rest`` of every later value, all of which lie below 1/2."""
    vals = list(prefix) + list(tail_values)
    a = math.fsum([x for x in vals if x < 0.5] + [tail_rest])
    b = math.fsum(1.0 - x for x in vals if x >= 0.5)
    return a, b
