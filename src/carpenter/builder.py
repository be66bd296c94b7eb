"""Orchestration: decide feasibility, pick a construction route, assemble.

Finite diagonals with integer sum build exactly by one construction,
``build_case1``, the shape of the paper's Case-I proof: fit the sum to its
integer exactly, split at 1/2, shift the fractional mass across the split,
build each side as one finite spectral-tetris block, and restore the shifted
entries with rotations. Infinite diagonals split by verdict: with both
defect sums finite, constant 0/1 tails are materialized exactly and power
tails go through a reported approximate truncation, whose core takes the
same construction; with a divergent defect sum the streaming tetris
construction takes over, after partitioning the sequence into blocks whose
sums still diverge.

Matrices returned here are finite corners of the (possibly infinite)
projection, in original input coordinates: for exact infinite builds the
entries outside the corner are exactly 0, or exactly 1 on the diagonal under
a constant-1 tail; for truncated streaming builds the corner is a partial sum
of rank-one terms whose completed columns are already final. Both cases
assemble their blocks' rows by one ``_assemble``: a Case-I block on J1 and
a complemented case-II plan subtract their products and add 1.0 on the
diagonal. A matrix is kept as its sorted nonzeros (``SparseMatrix``), about
8 per row for a finite build; the dense array is formed only when
``BuildResult.matrix`` is read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .diagonal import (
    INTEGRALITY_TOL,
    ConstantTail,
    DiagonalSpec,
    KadisonReport,
    PowerTail,
    Verdict,
    classify,
    complement_spec,
    power_boundary,
)
from .moves import CLOSED_TOL, Move, MovePlan, OpsRequest, _restore_inplace, ops_shift, pair_entries
from .tetris import TetrisStream, row_products
from .verify import PROJECTION_TOL, SparseMatrix, VerificationReport, check_projection

_APPROX_CORE_CAP = 10_000


class InfeasibleDiagonalError(ValueError):
    """No projection has the requested diagonal; carries the witness report."""

    def __init__(self, report: KadisonReport):
        self.report = report
        super().__init__(
            "no projection has this diagonal: "
            f"a={report.a}, b={report.b}, a-b={report.a_minus_b} is not an integer"
        )


@dataclass(frozen=True)
class BuildOptions:
    mode: str = "exact"  # "exact" or "approximate"
    epsilon: float = 1e-6
    truncation_rows: int = 50

    def __post_init__(self):
        if self.mode not in ("exact", "approximate"):
            raise ValueError(f"mode must be 'exact' or 'approximate', got {self.mode!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.truncation_rows < 0:
            raise ValueError("truncation_rows must be nonnegative")


@dataclass
class BuildResult:
    """Outcome of a build.

    ``entries`` holds a finite corner in original input coordinates as its
    sorted nonzeros; ``matrix`` is that corner as a dense array, formed on
    first read and kept. For streamed verdicts ``streams`` holds the live
    block streams, ``completed_indices`` the input positions whose diagonal
    entries are final, and ``complemented`` says the streams realize 1-d
    with the matrix already flipped back. ``approximation_error`` bounds
    every diagonal entry's distance from the input on the approximate route.
    """

    kadison: KadisonReport
    entries: SparseMatrix | None = None
    report: VerificationReport | None = None
    approximation_error: float = 0.0
    streams: list[TetrisStream] | None = None
    block_heads: list[int] | None = None
    block_stride: int | None = None
    complemented: bool = False
    completed_indices: list[int] | None = None
    notices: list[str] = field(default_factory=list)

    @cached_property
    def matrix(self) -> np.ndarray | None:
        return None if self.entries is None else self.entries.toarray()


def _fit_to_sum(vals: list[float], target: int) -> float:
    """Move the entries of ``vals`` strictly inside (0, 1), in place, until
    their exact sum is the integer ``target``, and return the largest move.

    The residual r = target - sum(vals) is taken correctly rounded by
    ``math.fsum``, so it is 0.0 exactly when the sum is exact. It is spread
    over the m entries, largest first, each taking the running remainder
    divided by the entries left: each moves by about r/m (more when another
    clips at 0 or 1, whose share goes to the rest), what one entry's
    rounding leaves goes on to the next, and the last steps land on the
    entries with the finest ulp. Exact 0s and 1s stay exact. A tetris block
    whose exact sum is its row count closes at its last term.

    An entry v takes r / left only when that reaches half the gap to its
    neighbour, at least a quarter of ulp(v); until one does, r and the
    entries stay as they are. Along the walk |r / left| grows and ulp(v)
    shrinks, so the walk starts at the first entry where |r / left| reaches
    ulp(v) / 4, found by bisection: a residual of an ulp walks a few
    entries, not all m.
    """
    before = list(vals)
    inner = [i for i, v in enumerate(vals) if 0.0 < v < 1.0]
    r = -math.fsum([-target, *vals])
    while r:
        if not inner:
            raise ValueError(f"cannot fit the sum to {target}: {r} left over")
        start = r
        inner.sort(key=vals.__getitem__, reverse=True)
        m = len(inner)
        first = bisect_left(range(m), True, key=lambda k: abs(r / (m - k)) >= math.ulp(vals[inner[k]]) / 4)
        left = m - first
        for i in inner[first:]:
            v = vals[i]
            w = v + r / left
            if not 0.0 <= w <= 1.0:
                w = 0.0 if w < 0.0 else 1.0
            vals[i] = w
            r -= w - v
            left -= 1
        r = -math.fsum([-target, *vals])
        kept = [i for i in inner if 0.0 < vals[i] < 1.0]
        if r == start and len(kept) == len(inner):
            raise ValueError(f"cannot fit the sum to {target}: {r} left over")
        inner = kept
    return max((abs(v - b) for v, b in zip(vals, before)), default=0.0)


def _assemble(n: int, plus, minus, ones) -> SparseMatrix:
    """One ``pair_entries`` of the ``row_products`` triples in ``plus`` and,
    negated, in ``minus``, then 1.0 at (i, i) for each i in ``ones``, added
    last; so P == P^T bit for bit. Rounding is symmetric, so the negated
    products sum to exactly minus their sum, and I - Q comes out as
    0 - q + 1 does."""
    for _, _, w in minus:
        np.negative(w, out=w)
    ones = np.asarray(ones, dtype=np.intp)
    diagonal = (ones, ones, np.ones(ones.size))
    return pair_entries(n, *map(np.concatenate, zip(*plus, *minus, diagonal)))


def _restore(P: SparseMatrix, shifted, vals, j0, j1) -> tuple[SparseMatrix, MovePlan]:
    """``moves._restore_inplace`` on the rows and columns it rotates, which
    the deficits and surpluses fix before any rotation runs: the entries
    ``shifted`` moved off ``vals``, on J0 and J1. Its rotations mix those
    rows among themselves, so the rows keep to the columns they start with;
    the dense block on those indices and columns is gathered once, rotated,
    and put back, and the Moves are returned in P's indices. Entries
    outside the block are the zeros and the untouched entries they are on
    the dense P, so the result is the dense restore's bit for bit.

    A P with more than n^2 / 8 nonzeros (n below about 70, the rule by
    which the verifier too takes a matrix as dense) is restored dense:
    there the block is most of P, and the gather's array passes cost more
    than they save (on ``integer_sum_diagonal`` inputs, one BLAS thread,
    the gathered restore takes 40 to 60 us longer at n = 10 to 70, 5 to
    10 % of ``build_case1``, 30 us at n = 100 and none by n = 150)."""
    n = P.n
    if 8 * P.keys.size > n * n:
        E = P.toarray()
        plan = _restore_inplace(E, shifted, vals, j0, j1)
        return SparseMatrix.from_dense(E), plan
    rows, cols = P.coords()
    inner = np.abs(np.subtract(vals, shifted)) > CLOSED_TOL
    inner[cols[inner[rows]]] = True  # and every column of those rows
    index = np.flatnonzero(inner)
    E = P.block(index)
    low = np.zeros(n, dtype=bool)
    low[j0] = True
    low = low[index]
    at = index.tolist()
    plan = _restore_inplace(
        E,
        [shifted[k] for k in at],
        [vals[k] for k in at],
        np.flatnonzero(low).tolist(),
        np.flatnonzero(~low).tolist(),
    )
    return P.with_block(index, E), MovePlan([Move(at[mv.i], at[mv.j], mv.c, mv.s) for mv in plan.moves])


def build_case1(d) -> tuple[SparseMatrix, MovePlan]:
    """Projection with diagonal ``d``, a finite sequence in [0, 1] whose sum
    is within INTEGRALITY_TOL of an integer N, and the restoring rotations.

    The sum is fitted to N exactly (``_fit_to_sum``). The indices split at
    1/2 into J0 = {d < 1/2} and J1 = {d >= 1/2}; with a the exact sum over
    J0, eta = frac(a) is shifted off J0 (toward 0) and onto J1 (toward 1) by
    ``ops_shift``, which leaves J0 summing to floor(a) and 1 - d over J1 to
    N_B = |J1| - N + floor(a). Each side, fitted exactly once more, is one
    finite tetris block that closes at its last term: P' is the sum of v v^T
    over the rows of J0's block plus I - (the same over 1 - d on J1), formed
    from the rows' pair products, so P' == P'^T bit for bit. Rotations on
    I0 x I1 then restore the shifted entries (``_restore``); each is
    feasible because shifted(i) <= d(i) < 1/2 <= d(j) <= shifted(j). Exact
    0s and 1s stay decoupled, with exact 0 and 1 on the diagonal. P comes
    back as its sorted nonzeros; no n x n array is made.
    """
    vals = [float(x) for x in d]
    for x in vals:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"diagonal entry {x} outside [0, 1]")
    total = math.fsum(vals)
    rank = round(total)
    if abs(total - rank) > INTEGRALITY_TOL:
        raise ValueError(f"sum {total} is not an integer within {INTEGRALITY_TOL}")
    _fit_to_sum(vals, rank)
    j0 = [i for i, v in enumerate(vals) if v < 0.5]
    j1 = [i for i, v in enumerate(vals) if v >= 0.5]
    low = [vals[i] for i in j0]
    rows_a = math.floor(math.fsum(low))
    eta = math.fsum([-rows_a, *low])  # frac of the exact sum, correctly rounded
    if eta < 0.0:  # the sum lies just below the integer it rounds to
        rows_a -= 1
        eta += 1.0
    rows_b = len(j1) - rank + rows_a
    shifted = ops_shift(OpsRequest(vals, j0, j1, eta)) if eta else list(vals)
    low = [shifted[i] for i in j0]
    high = [1.0 - shifted[j] for j in j1]
    _fit_to_sum(low, rows_a)
    _fit_to_sum(high, rows_b)
    block_a = row_products(TetrisStream((i, v) for i, v in zip(j0, low) if v), rows_a)
    block_b = row_products(TetrisStream((j, v) for j, v in zip(j1, high) if v), rows_b)
    P = _assemble(len(vals), [block_a], [block_b], j1)
    for i, x in zip(j0, low):
        shifted[i] = x
    for j, x in zip(j1, high):
        shifted[j] = 1.0 - x
    return _restore(P, shifted, vals, j0, j1)


def _build_finite(vals: list[float], report: KadisonReport) -> BuildResult:
    P, _ = build_case1(vals)
    return BuildResult(kadison=report, entries=P, report=check_projection(P, vals))


def _build_power_approximate(
    spec: DiagonalSpec, report: KadisonReport, options: BuildOptions
) -> BuildResult:
    tail = spec.tail
    assert isinstance(tail, PowerTail)
    eps = options.epsilon
    cutoff = power_boundary(tail, eps)
    dim = len(spec.prefix) + cutoff
    if dim > _APPROX_CORE_CAP:
        raise ValueError(
            f"approximate core would need {dim} coordinates (cap {_APPROX_CORE_CAP}); "
            "increase epsilon"
        )
    vals = [float(x) for x in spec.materialize(dim)]
    zero_idx = [i for i, v in enumerate(vals) if v < eps]
    one_idx = [i for i, v in enumerate(vals) if v > 1.0 - eps]
    core = [v for v in vals if eps <= v <= 1.0 - eps]

    from scipy.special import zeta  # costs ~0.3 s, so only power tails pay it

    beyond = tail.c * float(zeta(tail.p, cutoff + 1))
    zeroed_mass = math.fsum(vals[i] for i in zero_idx) + beyond
    raised_gap = math.fsum(1.0 - vals[i] for i in one_idx)
    target = math.fsum(core) + zeroed_mass - raised_gap
    rank = round(target)
    if abs(target - rank) > 1e-6:
        raise ValueError(
            f"core target sum {target} is not close to an integer; "
            "the tail sums disagree with the feasibility verdict"
        )
    if not core and rank != 0:
        raise ValueError("no core entries left to carry the integer rank; decrease epsilon")
    # zeroed and raised entries are exact 0s and 1s, which the fit keeps
    fitted = [0.0 if v < eps else 1.0 if v > 1.0 - eps else v for v in vals]
    worst_spread = _fit_to_sum(fitted, rank + len(one_idx))
    out, _ = build_case1(fitted)

    # A core entry is off by its spread plus the exact build's own rounding,
    # which stays within PROJECTION_TOL; zeroed and raised entries are off by
    # exactly their value and co-value.
    err_candidates = [worst_spread + PROJECTION_TOL, tail.value(cutoff + 1)]
    err_candidates += [vals[i] for i in zero_idx]
    err_candidates += [1.0 - vals[i] for i in one_idx]
    err = max(err_candidates)
    rep = check_projection(out, vals, tol=err)
    return BuildResult(kadison=report, entries=out, report=rep, approximation_error=err)


@dataclass
class CaseTwoPlan:
    """Lazy block partition for a divergent diagonal: one stream per block,
    block j headed by the j-th entry above 1/2 (if any), remaining entries
    dealt round-robin with stride ``stride``. ``trivial_ones`` and
    ``trivial_zeros`` are input positions holding exact 1s and 0s, kept out
    of the streams."""

    streams: list[TetrisStream]
    heads: list[int]
    stride: int
    complemented: bool
    trivial_ones: list[int]
    trivial_zeros: list[int]


def _block_source(spec: DiagonalSpec, skip: frozenset[int], head, block: int, stride: int):
    if head is not None:
        yield head
    dealt = ((i, v) for i, v in enumerate(spec.values()) if i not in skip)
    yield from islice(dealt, block, None, stride)


def build_case2(spec: DiagonalSpec) -> CaseTwoPlan:
    """Partition a divergent diagonal into tetris-ready blocks.

    When the below-half sum diverges, every entry above 1/2 heads its own
    block and the rest are dealt cyclically, so each block keeps a divergent
    sum and satisfies the streaming hypotheses. Otherwise (a constant tail
    above 1/2) the blocks are dealt from 1 - d, and the plan is marked
    ``complemented``: its streams, heads and stride describe 1 - d, its
    trivial ones and zeros those of ``spec``.
    """
    verdict = classify(spec).verdict
    if verdict is not Verdict.CASE_II:
        raise ValueError(f"verdict mismatch: expected case_ii, got {verdict.value}")
    complemented = isinstance(spec.tail, ConstantTail) and spec.tail.c > 0.5
    if complemented:
        spec = complement_spec(spec)
    tail = spec.tail
    ones = [i for i, v in enumerate(spec.prefix) if v == 1.0]
    zeros = [i for i, v in enumerate(spec.prefix) if v == 0.0]
    heads = [(i, v) for i, v in enumerate(spec.prefix) if 0.5 < v < 1.0]
    if isinstance(tail, PowerTail):
        base = len(spec.prefix)
        i = 1
        while tail.value(i) >= 1.0:
            ones.append(base + i - 1)
            i += 1
        while tail.value(i) > 0.5:
            heads.append((base + i - 1, tail.value(i)))
            i += 1
    stride = max(1, len(heads))
    skip = frozenset(ones) | frozenset(zeros) | frozenset(i for i, _ in heads)
    streams = [
        TetrisStream(_block_source(spec, skip, heads[b] if b < len(heads) else None, b, stride))
        for b in range(stride)
    ]
    if complemented:
        ones, zeros = zeros, ones
    return CaseTwoPlan(
        streams=streams,
        heads=[i for i, _ in heads],
        stride=stride,
        complemented=complemented,
        trivial_ones=ones,
        trivial_zeros=zeros,
    )


def _build_case2_result(
    spec: DiagonalSpec, report: KadisonReport, options: BuildOptions
) -> BuildResult:
    plan = build_case2(spec)
    result = BuildResult(
        kadison=report,
        streams=plan.streams,
        block_heads=plan.heads,
        block_stride=plan.stride,
        complemented=plan.complemented,
        completed_indices=[],
    )
    R = options.truncation_rows
    if R == 0:
        return result

    blocks = []
    completed: set[int] = set()
    top = max(plan.trivial_ones + plan.trivial_zeros, default=-1)
    for stream in plan.streams:
        blocks.append(row_products(stream, R))
        completed.update(stream.permuted_labels(max(stream.k[R - 1] - 2, 0)))
        top = max(top, int(blocks[-1][0].max()))

    dim = top + 1
    if plan.complemented:
        result.entries = _assemble(dim, [], blocks, sorted(set(range(dim)).difference(plan.trivial_zeros)))
    else:
        result.entries = _assemble(dim, blocks, [], plan.trivial_ones)
    result.completed_indices = sorted(completed)
    return result


def build(spec, options: BuildOptions | None = None) -> BuildResult:
    """Decide feasibility and construct a projection with diagonal ``spec``.

    ``spec`` may be a DiagonalSpec or a finite iterable of values. Raises
    InfeasibleDiagonalError (with the witness sums) when no projection
    exists. See BuildResult for what comes back on each route.
    """
    if options is None:
        options = BuildOptions()
    if not isinstance(spec, DiagonalSpec):
        spec = DiagonalSpec(spec)
    report = classify(spec)
    if report.verdict is Verdict.INFEASIBLE:
        raise InfeasibleDiagonalError(report)
    if spec.is_finite:
        return _build_finite([float(x) for x in spec.prefix], report)
    if report.verdict is Verdict.CASE_II:
        return _build_case2_result(spec, report, options)

    tail = spec.tail
    if isinstance(tail, ConstantTail):
        if tail.c not in (0.0, 1.0):
            raise AssertionError("finite-sum verdict with a non-trivial constant tail")
        dim = len(spec.prefix) + options.truncation_rows
        return _build_finite([float(x) for x in spec.materialize(dim)], report)
    if options.mode != "approximate":
        raise ValueError(
            "a summable infinite tail cannot be materialized exactly; "
            "rerun with mode='approximate' (the error bound is reported)"
        )
    return _build_power_approximate(spec, report, options)
