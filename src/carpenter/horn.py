"""Finite Schur-Horn construction: a symmetric matrix with prescribed
eigenvalues and prescribed diagonal.

``horn_build`` peels off the smallest eigenvalue as a rank-one block supported
on a trailing segment of the (sorted) diagonal, compensates the head by
bumping diagonal mass across the cut, recurses on the head, and finally
repairs the bumped entries with spectrum-preserving two-coordinate rotations.
Peeling is an explicit loop rather than call-stack recursion so large inputs
do not hit the interpreter recursion limit.

The single-entry bump (all compensation placed on the last head entry) can
overshoot the head's majorization budget; see the note inside
``_plan_peels``. A single bump is repaired by a convex-mix rotation, known
when the peel is planned, so it is planned as a :class:`~carpenter.moves.Move`.
When the bump overshoots, the compensation is spread greedily over several
head entries instead, and the repair becomes a short chain of targeted
rotations (``moves.rotate_to``), whose angles depend on the matrix at repair
time. Both kinds of repair are recorded as Moves in one
:class:`~carpenter.moves.MovePlan`.
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


def _padded(lam_run, length: int) -> np.ndarray:
    """Eigenvalue running sums cut or held at their last value to ``length``
    entries: the running sums of the zero-padded eigenvalue list."""
    return lam_run[np.minimum(np.arange(length), len(lam_run) - 1)]


def _prefix_majorized(vals_desc, lam_run, tol: float) -> bool:
    """Partial-sum test of sorted values against eigenvalue running sums.

    ``cumsum`` adds left to right, so every partial sum has the bits of a
    Python running sum.
    """
    return not np.count_nonzero(vals_desc.cumsum() > _padded(lam_run, len(vals_desc)) + tol)


def _waterfall(head, lam_run, delta: float) -> np.ndarray:
    """Spread ``delta`` of extra diagonal mass over ``head`` (sorted desc).

    Fills front to back, keeping the result sorted and every prefix within the
    eigenvalue prefix sums (``lam_run``). The cap at position t is the smallest
    slack over position t and everything after it: later entries can only
    grow, so filling a local brim that a downstream prefix cannot afford would
    strand the surplus there. The last slack equals delta (totals match), so a
    full absorption exists whenever the head's own prefix slacks are
    nonnegative, which the peel recursion maintains.
    """
    slack = _padded(lam_run, len(head)) - head.cumsum()
    slack = np.minimum.accumulate(slack[::-1])[::-1]

    # An entry without room takes add = 0.0 and becomes dt + 0.0. The others
    # are filled one at a time, front to back: each fill changes the room of
    # the next entry and the running total absorbed.
    x = head + 0.0
    remaining = delta
    absorbed = 0.0
    t = 0
    while t < len(head) and remaining != 0.0:
        dt = float(head[t])
        room = float(slack[t]) - absorbed
        if t > 0:
            room = min(room, float(x[t - 1]) - dt)
        add = min(remaining, max(room, 0.0))
        x[t] = dt + add
        absorbed += add
        remaining -= add
        t += 1
        if add == 0.0 and remaining > 0.0 and t < len(head):
            # entries without room come in long runs: find the next entry
            # with room in one test (a NaN room counts as room)
            takes = ~(np.minimum(slack[t:] - absorbed, x[t - 1 : -1] - head[t:]) <= 0.0)
            t += int(takes.argmax()) if takes.any() else len(takes)
    if remaining > 1e-9 * max(1.0, delta):
        raise AssertionError(
            f"could not absorb bump of {delta} into head (left over: {remaining})"
        )
    x[-1] += remaining
    return x


def _plan_peels(lam_desc: list[float], vals: list[float], idx: list[int]):
    """Peel eigenvalues smallest-first, returning rank-one blocks and repairs.

    Each peel takes the largest trailing segment whose sum still reaches the
    current eigenvalue, shaves the segment's first entry by the overshoot
    ``delta``, and hands the head ``delta`` extra diagonal mass. Placing all
    of it on the last head entry (the classical choice) can break the head's
    own majorization: with diag = (0.8,)*5 against eigenvalues (1, 1, 1, 1)
    the bumped head (0.8, 0.8, 1.4) would need spectrum (1, 1, 1), which
    forces the identity matrix. The single bump is used whenever it stays
    majorized, repaired by one convex-mix Move; otherwise the mass is spread
    with ``_waterfall`` and repaired by one targeted rotation per touched
    entry, planned as an (i, j, target) triple.

    The values live in one array and each peel's scans are numpy calls.
    Every sum is a left-to-right running sum (``cumsum``), never numpy's
    pairwise ``sum``, so each bit matches a scalar loop.
    """
    blocks: list[tuple[np.ndarray, list[int]]] = []
    peel_repairs: list[list[Move | tuple[int, int, float]]] = []
    lam_run = np.cumsum(lam_desc)
    vals = np.asarray(vals, dtype=float)
    r = len(lam_desc)
    while r >= 2:
        lam_r = lam_desc[r - 1]
        m = len(vals)
        t = int(vals[::-1].cumsum().searchsorted(lam_r, side="left"))
        m0 = m - t  # 1-based index of the segment start
        m0 = max(r, min(m0, m))
        first = float(vals[m0 - 1])
        delta = math.fsum(vals[m0 - 1 :].tolist()) - lam_r
        delta = min(max(delta, 0.0), first)

        seg_vals = vals[m0 - 1 :].copy()
        seg_vals[0] = first - delta
        seg_idx = idx[m0 - 1 :]
        blocks.append((seg_vals, seg_idx))

        head_vals = vals[: m0 - 1]
        head_idx = idx[: m0 - 1]
        lam_run_head = lam_run[: r - 1]
        tol = 1e-12 * max(1.0, math.fsum(lam_desc[: r - 1]))
        last = float(head_vals[-1])
        bump = last + delta
        # the bump goes before the first earlier entry below it; the last
        # slot, which the bump replaces, stands in when there is none
        fits = head_vals >= bump
        fits[-1] = False
        pos = int(fits.argmin())
        candidate = head_vals.copy()
        candidate[pos + 1 :] = head_vals[pos:-1]
        candidate[pos] = bump
        if _prefix_majorized(candidate, lam_run_head, tol):
            if delta > 0.0:
                den = last - first + 2.0 * delta
                alpha = 1.0 if den <= 0.0 else min(1.0, max(0.0, (last - first + delta) / den))
                mix = Move(head_idx[-1], seg_idx[0], math.sqrt(alpha), -math.sqrt(1.0 - alpha))
                peel_repairs.append([mix])
            else:
                peel_repairs.append([])
            cand_idx = head_idx[:-1]
            cand_idx.insert(pos, head_idx[-1])
            vals, idx = candidate, cand_idx
        else:
            x = _waterfall(head_vals, lam_run_head, delta)
            touched = np.flatnonzero(x - head_vals > 1e-14).tolist()
            peel_repairs.append([(head_idx[t_], seg_idx[0], float(head_vals[t_])) for t_ in touched])
            vals, idx = x, head_idx
        r -= 1
    blocks.append((vals, idx))
    return blocks, peel_repairs


def horn_build(inp: MajorizationInput, return_plan: bool = False):
    """Symmetric matrix with eigenvalues ``lambdas`` (plus zeros) and diagonal
    ``diag``, in the caller's diagonal order.

    With ``return_plan=True`` also returns the pre-repair block-diagonal start
    matrix and the MovePlan of repairs, so the run can be replayed.
    """
    violation = inp.first_violation()
    if violation is not None:
        raise ValueError(f"majorization fails: {violation}")
    lam_desc = sorted(inp.lambdas, reverse=True)
    order = sorted(range(len(inp.diag)), key=lambda k: -inp.diag[k])
    vals = [inp.diag[k] for k in order]
    blocks, peel_repairs = _plan_peels(lam_desc, vals, order)

    n = len(inp.diag)
    S = np.zeros((n, n))
    for seg_vals, seg_idx in blocks:
        block = _rank_one_block(seg_vals)
        S[np.ix_(seg_idx, seg_idx)] = block

    start = np.array(S) if return_plan else None
    plan = MovePlan()
    for repairs in reversed(peel_repairs):
        for rec in repairs:
            if isinstance(rec, Move):
                rec.apply_inplace(S)
                plan.append(rec)
            else:
                plan.append(rotate_to(S, *rec))
    if return_plan:
        return S, start, plan
    return S


def _rank_one_block(seg_vals) -> np.ndarray:
    d = np.clip(np.asarray(seg_vals, dtype=float), 0.0, None)
    r = np.sqrt(d)
    block = np.outer(r, r)
    np.fill_diagonal(block, d)
    return block
