"""Finite Schur-Horn construction: a symmetric matrix with prescribed
eigenvalues and prescribed diagonal.

``horn_build`` peels off the smallest eigenvalue as a rank-one block supported
on a trailing segment of the (sorted) diagonal, compensates the head by
bumping diagonal mass across the cut, recurses on the head, and finally
repairs the bumped entries with spectrum-preserving two-coordinate rotations.
Peeling is an explicit loop rather than call-stack recursion so large inputs
do not hit the interpreter recursion limit. No build route calls
``horn_build``: finite projections come from ``builder.build_case1``, and
this module serves the general spectrum-plus-diagonal problem. So the planner
is the plain one, a few numpy passes over the whole head per peel, O(n * rank)
in all.

The build works on a factor W with S = W W^T, never on a dense start matrix.
Column k of W is the square root of the k-th peeled block's values on the
block's rows; a row of W has about four nonzeros, stored as a
``{column: value}`` map. A repair rotates two rows of W, at the cost of
their supports, and the dense S is formed once from W's column pair products
by the package's one pair kernel (``_gram``), exactly symmetric.

The single-entry bump (all compensation placed on the last head entry) can
overshoot the head's majorization budget; see the note inside
``_plan_peels``. A single bump is repaired by a convex-mix rotation, known
when the peel is planned, so it is planned as a :class:`~carpenter.moves.Move`.
When the bump overshoots, the compensation is spread greedily over several
head entries instead, and the repair becomes a short chain of targeted
rotations, whose angles depend on W at repair time. Both kinds of repair are
recorded as Moves in one :class:`~carpenter.moves.MovePlan`; replayed on the
rows of the start factor they give the final factor bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .moves import Move, MovePlan, _solve_rotation_angle, pair_products, pair_sum, rotate_rows_inplace

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


def _waterfall(head, lam_pad, delta: float) -> np.ndarray:
    """Spread ``delta`` >= 0 of extra mass over ``head`` (sorted desc, >= 0).

    Fills front to back, each entry at most up to the one before it, keeping
    every prefix within the eigenvalue prefix sums (``lam_pad``: the running
    sums of the zero-padded eigenvalue list, one per head entry). No entry
    shrinks; what the fill leaves over, at most 1e-9 * max(1, delta), goes
    on the last entry and can lift it above the one before it, so the result
    is sorted but for its last slot (1.0 then 1.0000000000000062 at the end
    of a fallback in the build of
    ``integer_sum_diagonal(default_rng([1, 200]), 200)``).

    The cap at position t is the smallest slack over position t and
    everything after it: later entries can only grow, so filling a local
    brim that a downstream prefix cannot afford would strand the surplus
    there. The last slack equals delta (totals match), so a full absorption
    exists whenever the head's own prefix slacks are nonnegative, which the
    peel recursion maintains.

    The slack is that of the exact prefix sums: Knuth's TwoSum takes the
    rounding error of each step of ``cumsum``, and the running error comes
    off the slack. A rounded prefix sum is off by up to its ulp, so entries
    filled to the brim would land near 1 instead of on it, later become
    segments short of their eigenvalue, and leave a defect that grows with n.
    """
    run = head.cumsum()
    prev = np.concatenate(([0.0], run[:-1]))
    bb = run - prev
    err = (prev - (run - bb)) + (head - bb)
    slack = (lam_pad - run) - err.cumsum()
    slack = np.minimum.accumulate(slack[::-1])[::-1]

    x = head + 0.0
    remaining = delta
    absorbed = 0.0
    for t, dt in enumerate(head.tolist()):
        if remaining == 0.0:
            break
        room = float(slack[t]) - absorbed
        if t > 0:
            room = min(room, float(x[t - 1]) - dt)
        add = min(remaining, max(room, 0.0))
        x[t] = dt + add
        absorbed += add
        remaining -= add
    if remaining > 1e-9 * max(1.0, delta):
        raise AssertionError(
            f"could not absorb bump of {delta} into head (left over: {remaining})"
        )
    x[-1] += remaining
    return x


def _prefix_majorized(vals_desc, lam_pad, tol: float) -> bool:
    """Partial-sum test of sorted values against ``lam_pad``, the running
    sums of the zero-padded eigenvalue list, one per value.

    ``cumsum`` adds left to right, so every partial sum has the bits of a
    Python running sum.
    """
    return not np.count_nonzero(vals_desc.cumsum() > lam_pad + tol)


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

    The values live in one array and each peel's scans are numpy calls over
    the whole head, so a plan costs O(n * rank). ``vals`` comes sorted
    descending and nonnegative (entries in [-1e-12, 0) are read as 0.0).
    Every sum is a left-to-right running sum (``cumsum``), never numpy's
    pairwise ``sum``, so each bit matches a scalar loop.
    """
    blocks: list[tuple[np.ndarray, list[int]]] = []
    peel_repairs: list[list[Move | tuple[int, int, float]]] = []
    # running sums of the eigenvalues zero-padded to one per value, taken
    # once; they never decrease (every eigenvalue is positive), so a peel
    # caps them at its head's last sum to pad the head's eigenvalue sums
    lam_run = np.cumsum(lam_desc + [0.0] * (len(vals) - len(lam_desc)))
    vals = np.asarray(vals, dtype=float)
    r = len(lam_desc)
    while r >= 2:
        lam_r = lam_desc[r - 1]
        m = len(vals)
        t = int(vals[::-1].cumsum().searchsorted(lam_r, side="left"))
        m0 = max(r, m - t)  # 1-based index of the segment start
        first = float(vals[m0 - 1])
        delta = math.fsum(vals[m0 - 1 :].tolist()) - lam_r
        delta = min(max(delta, 0.0), first)

        seg_vals = vals[m0 - 1 :].copy()
        seg_vals[0] = first - delta
        seg_idx = idx[m0 - 1 :]
        blocks.append((seg_vals, seg_idx))

        head_vals = vals[: m0 - 1]
        head_idx = idx[: m0 - 1]
        lam_pad = np.minimum(lam_run[: m0 - 1], lam_run[r - 2])
        tol = 1e-12 * max(1.0, lam_run[r - 2])
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
        if _prefix_majorized(candidate, lam_pad, tol):
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
            x = _waterfall(head_vals, lam_pad, delta)
            touched = np.flatnonzero(x - head_vals > 1e-14).tolist()
            peel_repairs.append([(head_idx[t_], seg_idx[0], float(head_vals[t_])) for t_ in touched])
            vals, idx = x, head_idx
        r -= 1
    blocks.append((vals, idx))
    return blocks, peel_repairs


def horn_build(inp: MajorizationInput, return_plan: bool = False):
    """Symmetric matrix with eigenvalues ``lambdas`` (plus zeros) and diagonal
    ``diag``, in the caller's diagonal order.

    The build keeps the factor W with S = W W^T: one column per peeled
    block, holding the square roots of the block's values on its rows, and
    every repair rotates two sparse rows of W. The dense S is formed once,
    at the end, by ``_gram``, so S == S.T entry for entry.

    With ``return_plan=True`` also returns the pre-repair block-diagonal start
    matrix W0 W0^T (formed the same way) and the MovePlan of repairs. The
    plan's Moves replayed on the rows of W0 (``moves.rotate_rows_inplace``)
    give the final W bit for bit; ``plan.replay(start)`` rotates the dense
    start instead and matches S to rounding.
    """
    violation = inp.first_violation()
    if violation is not None:
        raise ValueError(f"majorization fails: {violation}")
    W, peel_repairs = _start_factor(inp)
    n = len(W)
    start = _gram(W, n) if return_plan else None
    plan = _repair(W, peel_repairs)
    S = _gram(W, n)
    if return_plan:
        return S, start, plan
    return S


def _start_factor(inp: MajorizationInput):
    """Rows of the start factor W0, one ``{column: value}`` map per row, and
    the planned repairs. Column k of W0 is the square root of the k-th
    peeled block's values on its rows, so W0 W0^T is block diagonal with the
    rank-one blocks; the blocks are disjoint and each row has at most one
    nonzero. Every planned value is >= 0: a segment's first entry loses at
    most itself."""
    lam_desc = sorted(inp.lambdas, reverse=True)
    order = sorted(range(len(inp.diag)), key=lambda k: -inp.diag[k])
    # first_violation lets entries down to -1e-12 through: read them as 0.0
    vals = [max(inp.diag[k], 0.0) for k in order]
    blocks, peel_repairs = _plan_peels(lam_desc, vals, order)
    values = np.fromiter(chain.from_iterable(v for v, _ in blocks), dtype=float, count=len(order))
    roots = np.sqrt(values).tolist()
    rows = chain.from_iterable(seg_idx for _, seg_idx in blocks)
    cols = chain.from_iterable(repeat(col, len(seg_idx)) for col, (_, seg_idx) in enumerate(blocks))
    W: list[dict[int, float]] = [{} for _ in order]
    for i, col, x in zip(rows, cols, roots):
        if x:
            W[i][col] = x
    return W, peel_repairs


def _repair(W: list[dict[int, float]], peel_repairs) -> MovePlan:
    """Apply the planned repairs to the rows of W in place, last peel first,
    and return them as Moves. A targeted repair (i, j, target) reads the
    2x2 block of W W^T on (i, j) from the rows, with each sum over the
    shared columns in ascending order, as ``_gram`` adds them."""
    plan = MovePlan()
    for repairs in reversed(peel_repairs):
        for rec in repairs:
            if not isinstance(rec, Move):
                i, j, target = rec
                wi, wj = W[i], W[j]
                theta = _solve_rotation_angle(_dot(wi, wi), _dot(wj, wj), _dot(wi, wj), target)
                rec = Move(i, j, math.cos(theta), math.sin(theta))
            rotate_rows_inplace(W, rec.i, rec.j, rec.c, rec.s)
            plan.append(rec)
    return plan


def _dot(a: dict[int, float], b: dict[int, float]) -> float:
    """Sum of a[k] * b[k] over the shared columns k, ascending."""
    total = 0.0
    for k in sorted(a.keys() & b.keys()):
        total += a[k] * b[k]
    return total


def _gram(W: list[dict[int, float]], n: int) -> np.ndarray:
    """The dense n x n matrix W W^T: the ``pair_sum`` of the ``pair_products``
    of W's columns, k ascending, so every entry is a sequential sum over its
    shared columns in ascending order, and exactly symmetric."""
    rows = np.repeat(np.arange(n), np.fromiter(map(len, W), dtype=np.intp, count=n))
    cols = np.fromiter(chain.from_iterable(W), dtype=np.intp, count=rows.size)
    vals = np.fromiter(chain.from_iterable(map(dict.values, W)), dtype=float, count=rows.size)
    by_col = cols.argsort(kind="stable")
    return pair_sum(n, *pair_products(np.bincount(cols), rows[by_col], vals[by_col]))
