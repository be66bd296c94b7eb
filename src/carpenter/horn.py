"""Finite Schur-Horn construction: a symmetric matrix with prescribed
eigenvalues and prescribed diagonal (acceptance criterion 2; no build route
calls it).

``horn_build`` lands the targets, ascending, by targeted rotations of the
diagonal matrix of the eigenvalues (Chan and Li 1983; Dhillon, Heath, Sustik
and Tropp 2005): at most n - 1 ``moves.rotate_to`` calls, each between the
free coordinate with the smallest entry and a free one whose entry reaches
the target. The free block stays diagonal, so each target is reachable and
majorization survives each step; the last target takes what is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moves import Move, MovePlan, rotate_to

MAJORIZATION_TOL = 1e-10


@dataclass(frozen=True)
class MajorizationInput:
    """Eigenvalue/diagonal pair for the construction.

    ``lambdas``: positive values, ``diag``: nonnegative values with
    len(diag) >= len(lambdas). Both are sorted internally, so callers may pass
    either in any order; the output respects the caller's diagonal order.
    """

    lambdas: tuple[float, ...]
    diag: tuple[float, ...]

    def __init__(self, lambdas, diag):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in lambdas))
        object.__setattr__(self, "diag", tuple(float(x) for x in diag))

    def first_violation(self) -> str | None:
        """Description of the first failed majorization condition, or None."""
        lam = sorted(self.lambdas, reverse=True)
        d = sorted(self.diag, reverse=True)
        if not lam:
            return "no eigenvalues given"
        if len(d) < len(lam):
            return f"diagonal shorter ({len(d)}) than eigenvalue list ({len(lam)})"
        if not all(math.isfinite(x) for x in lam + d):
            return "eigenvalues and diagonal entries must be finite"
        if any(x <= 0.0 for x in lam):
            return "eigenvalues must be positive"
        if any(x < -1e-12 for x in d):
            return "diagonal entries must be nonnegative"
        run_d = run_l = 0.0
        for n in range(len(lam)):
            run_d += d[n]
            run_l += lam[n]
            if run_d > run_l + MAJORIZATION_TOL:
                return f"partial sum violated at n={n + 1}: {run_d} > {run_l}"
        total_d = math.fsum(d)
        total_l = math.fsum(lam)
        if abs(total_d - total_l) > MAJORIZATION_TOL:
            return f"total mismatch: sum(diag)={total_d} vs sum(lambdas)={total_l}"
        return None


def horn_build(inp: MajorizationInput, return_plan: bool = False):
    """Symmetric matrix with eigenvalues ``lambdas`` (plus zeros) and diagonal
    ``diag``, in the caller's diagonal order, exactly symmetric.

    With ``return_plan=True`` also returns the diagonal start matrix of the
    eigenvalues and the MovePlan of the rotations, both in the caller's
    coordinates: ``plan.replay(start)`` is the matrix bit for bit.
    """
    violation = inp.first_violation()
    if violation is not None:
        raise ValueError(f"majorization fails: {violation}")
    n = len(inp.diag)
    order = sorted(range(n), key=lambda k: inp.diag[k])  # targets ascending
    start = np.array([0.0] * (n - len(inp.lambdas)) + sorted(inp.lambdas))
    E = np.diag(start)
    free = start.copy()  # the diagonal of the free coordinates, +inf once fixed
    place = np.empty(n, dtype=np.intp)  # the caller's index of each coordinate
    moves = []
    for k in order[:-1]:
        # first_violation lets entries down to -1e-12 through: read them as 0.0
        t = max(inp.diag[k], 0.0)
        p = int(free.argmin())
        low = free[p]
        free[p] = np.inf
        place[p] = k
        if low >= t:
            continue
        above = np.where(free >= t, free, np.inf)
        q = int(above.argmin())
        # first_violation accepts a slack of MAJORIZATION_TOL, so t can sit
        # above every free entry: rotate p up to the largest, not past it
        if above[q] == np.inf:
            q = int(np.where(free < np.inf, free, -np.inf).argmax())
        moves.append(rotate_to(E, p, q, min(t, E.item(q, q))))
        free[q] = E.item(q, q)
    place[free.argmin()] = order[-1]
    at = np.empty(n, dtype=np.intp)  # the coordinate of each caller index
    at[place] = np.arange(n)
    S = E.take(at, axis=0).take(at, axis=1)
    if not return_plan:
        return S
    plan = MovePlan([Move(int(place[m.i]), int(place[m.j]), m.c, m.s) for m in moves])
    return S, np.diag(start[at]), plan
