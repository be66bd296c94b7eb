"""Orchestration: decide feasibility, pick a construction route, assemble.

Finite diagonals with integer sum build exactly, either by the summable /
cosummable shortcut or (on request) by the full shift-split-restore pipeline.
Infinite diagonals split by verdict: with both defect sums finite, constant
0/1 tails are materialized exactly and power tails go through a reported
approximate truncation; with a divergent defect sum the streaming tetris
construction takes over, after partitioning the sequence into blocks whose
sums still diverge.

Matrices returned here are finite corners of the (possibly infinite)
projection, in original input coordinates: for exact infinite builds the
entries outside the corner are exactly 0, or exactly 1 on the diagonal under
a constant-1 tail; for truncated streaming builds the corner is a partial sum
of rank-one terms whose completed columns are already final.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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
from .horn import MajorizationInput, horn_build
from .moves import MovePlan, OpsRequest, ops_restore, ops_shift
from .tetris import TetrisStream, projection_prefix
from .verify import PROJECTION_TOL, VerificationReport, check_projection

log = logging.getLogger(__name__)

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
    pipeline: str = "shortcut"  # "shortcut" or "full"

    def __post_init__(self):
        if self.mode not in ("exact", "approximate"):
            raise ValueError(f"mode must be 'exact' or 'approximate', got {self.mode!r}")
        if self.pipeline not in ("shortcut", "full"):
            raise ValueError(f"pipeline must be 'shortcut' or 'full', got {self.pipeline!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.truncation_rows < 0:
            raise ValueError("truncation_rows must be nonnegative")


@dataclass
class BuildResult:
    """Outcome of a build.

    ``matrix`` is a finite corner in original input coordinates. For
    streamed verdicts ``streams`` holds the live block streams,
    ``completed_indices`` the input positions whose diagonal entries are
    final, and ``complemented`` says the streams realize 1-d with the matrix
    already flipped back. ``approximation_error`` bounds every diagonal
    entry's distance from the input on the approximate route.
    """

    kadison: KadisonReport
    matrix: np.ndarray | None = None
    report: VerificationReport | None = None
    approximation_error: float = 0.0
    streams: list[TetrisStream] | None = None
    block_heads: list[int] | None = None
    block_stride: int | None = None
    complemented: bool = False
    completed_indices: list[int] | None = None
    notices: list[str] = field(default_factory=list)


def _nudge_to_sum(vals: list[float], target: float) -> float:
    """Adjust entries in place so fsum(vals) hits ``target`` exactly enough
    for downstream equality gates; entries stay in [0, 1]. Returns the largest
    single-entry change."""
    worst = 0.0
    for _ in range(4):
        r = target - math.fsum(vals)
        if abs(r) <= 1e-13:
            break
        for i in sorted(range(len(vals)), key=lambda t: vals[t], reverse=r < 0):
            if abs(r) <= 1e-13:
                break
            new = min(1.0, max(0.0, vals[i] + r))
            r -= new - vals[i]
            worst = max(worst, abs(new - vals[i]))
            vals[i] = new
    return worst


def _spread_to_sum(vals: list[float], target: float) -> float:
    """Like _nudge_to_sum but spreads the residual evenly, minimizing the
    per-entry deviation. Returns the largest total change of one entry over
    all passes."""
    before = list(vals)
    for _ in range(16):
        r = target - math.fsum(vals)
        if abs(r) <= 1e-12:
            break
        open_idx = [i for i in range(len(vals)) if (vals[i] < 1.0 if r > 0 else vals[i] > 0.0)]
        if not open_idx:
            raise ValueError(f"cannot absorb integrality residual {r} into the core")
        per = r / len(open_idx)
        for i in open_idx:
            vals[i] = min(1.0, max(0.0, vals[i] + per))
    else:
        if abs(target - math.fsum(vals)) > 1e-10:
            raise ValueError("integrality residual failed to converge")
    return max((abs(v - b) for v, b in zip(vals, before)), default=0.0)


def build_summable(d) -> np.ndarray:
    """Projection with diagonal ``d`` where sum(d) is an integer N: zeros are
    stripped and the rest realizes eigenvalues (1, ..., 1) of length N."""
    vals = [float(x) for x in d]
    for x in vals:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"diagonal entry {x} outside [0, 1]")
    total = math.fsum(vals)
    rank = round(total)
    if abs(total - rank) > INTEGRALITY_TOL:
        raise ValueError(f"sum {total} is not an integer within {INTEGRALITY_TOL}")
    n = len(vals)
    out = np.zeros((n, n))
    if rank == 0:
        return out
    core_idx = [i for i, v in enumerate(vals) if v != 0.0]
    core = [vals[i] for i in core_idx]
    _nudge_to_sum(core, float(rank))
    S = horn_build(MajorizationInput((1.0,) * rank, core))
    out[np.ix_(core_idx, core_idx)] = S
    return out


def build_cosummable(d) -> np.ndarray:
    """Projection with diagonal ``d`` where sum(1 - d) is an integer:
    the complement of a summable build on 1 - d."""
    vals = [float(x) for x in d]
    Q = build_summable([1.0 - v for v in vals])
    return np.eye(len(vals)) - Q


def complement(P: np.ndarray) -> np.ndarray:
    """I - P: swaps every diagonal entry d for 1 - d."""
    P = np.asarray(P, dtype=float)
    return np.eye(P.shape[0]) - P


def _shortcut(vals: list[float]) -> np.ndarray:
    if math.fsum(vals) <= len(vals) / 2.0:
        return build_summable(vals)
    return build_cosummable(vals)


def build_case1(d, notices: list[str] | None = None) -> tuple[np.ndarray, MovePlan]:
    """Finite build through the full shift-split-restore pipeline.

    Picks the smallest entry i1 of the upper half, a suffix J0' of the lower
    half summing below 1 - d[i1], and the first larger upper entry i2 whose
    value tops J0' up to at least 1. The overshoot eta0 is shifted out of a
    prefix I0 of J0' and onto i1, the sequence splits into a rank-one-sum
    block on J0' + {i2} (sum exactly 1) and a cosummable rest, and targeted
    rotations restore the shifted entries. Inputs without the needed
    structure (ties, too few large entries) fall back to the shortcut with a
    logged notice and an empty plan.
    """
    vals = [float(x) for x in d]
    total = math.fsum(vals)
    if abs(total - round(total)) > INTEGRALITY_TOL:
        raise ValueError(f"sum {total} is not an integer within {INTEGRALITY_TOL}")

    def fallback(reason: str) -> tuple[np.ndarray, MovePlan]:
        msg = f"pipeline preconditions unmet ({reason}); using the shortcut route"
        log.info(msg)
        if notices is not None:
            notices.append(msg)
        return _shortcut(vals), MovePlan()

    j0 = [i for i, v in enumerate(vals) if v < 0.5]
    j1 = [i for i, v in enumerate(vals) if v >= 0.5]
    if not j0 or len(j1) < 2:
        return fallback("need a nonempty lower half and at least two upper entries")
    i1 = min(j1, key=lambda i: (vals[i], i))
    cap = 1.0 - vals[i1]
    j0p: list[int] = []
    for i in reversed(j0):
        if math.fsum([vals[k] for k in j0p] + [vals[i]]) < cap:
            j0p.insert(0, i)
        else:
            break
    if not j0p:
        return fallback("no lower suffix fits under 1 - d[i1]")
    s0 = math.fsum(vals[i] for i in j0p)
    i2 = next(
        (i for i in j1 if vals[i] > vals[i1] and vals[i] + s0 >= 1.0 - 1e-12),
        None,
    )
    if i2 is None:
        return fallback("no strictly larger upper entry reaches 1 with the suffix")

    eta0 = max(0.0, math.fsum([vals[i] for i in j0p] + [vals[i2], -1.0]))
    if eta0 > 1e-15:
        i0: list[int] = []
        for i in j0p:
            i0.append(i)
            if math.fsum(vals[k] for k in i0) > eta0:
                break
        d_shift = ops_shift(OpsRequest(vals, i0, [i1], eta0))
    else:
        eta0 = 0.0
        i0 = []
        d_shift = list(vals)

    part1 = sorted(j0p + [i2])
    part2 = [i for i in range(len(vals)) if i not in set(part1)]
    p1 = build_summable([d_shift[i] for i in part1])
    p2 = build_cosummable([d_shift[i] for i in part2])
    E = np.zeros((len(vals), len(vals)))
    E[np.ix_(part1, part1)] = p1
    E[np.ix_(part2, part2)] = p2
    if eta0 > 0.0:
        return ops_restore(E, d_shift, vals, i0, [i1])
    return E, MovePlan()


def _build_finite(vals: list[float], report: KadisonReport, options: BuildOptions) -> BuildResult:
    n = len(vals)
    ones = [i for i, v in enumerate(vals) if v == 1.0]
    zeros = [i for i, v in enumerate(vals) if v == 0.0]
    core_idx = [i for i, v in enumerate(vals) if 0.0 < v < 1.0]
    notices: list[str] = []
    out = np.zeros((n, n))
    if core_idx:
        core = [vals[i] for i in core_idx]
        if options.pipeline == "full":
            M, _ = build_case1(core, notices)
        else:
            M = _shortcut(core)
        out[np.ix_(core_idx, core_idx)] = M
    for i in ones:
        out[i, i] = 1.0
    rep = check_projection(out, vals)
    return BuildResult(kadison=report, matrix=out, report=rep, notices=notices)


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
    core_idx = [i for i, v in enumerate(vals) if eps <= v <= 1.0 - eps]
    core = [vals[i] for i in core_idx]

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
    worst_spread = _spread_to_sum(core, float(rank)) if core else 0.0
    if not core and rank != 0:
        raise ValueError("no core entries left to carry the integer rank; decrease epsilon")

    out = np.zeros((dim, dim))
    if core:
        out[np.ix_(core_idx, core_idx)] = build_summable(core)
    for i in one_idx:
        out[i, i] = 1.0

    # A core entry is off by its spread plus the exact build's own rounding,
    # which stays within PROJECTION_TOL; zeroed and raised entries are off by
    # exactly their value and co-value.
    err_candidates = [worst_spread + PROJECTION_TOL, tail.value(cutoff + 1)]
    err_candidates += [vals[i] for i in zero_idx]
    err_candidates += [1.0 - vals[i] for i in one_idx]
    err = max(err_candidates)
    rep = check_projection(out, vals, tol=err)
    return BuildResult(kadison=report, matrix=out, report=rep, approximation_error=err)


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
    kadison: KadisonReport
    trivial_ones: list[int]
    trivial_zeros: list[int]


def _block_source(spec: DiagonalSpec, skip: frozenset[int], head, block: int, stride: int):
    if head is not None:
        yield head
    t = 0
    for i, v in enumerate(spec.values()):
        if i in skip:
            continue
        if t % stride == block:
            yield (i, v)
        t += 1


def build_case2(spec: DiagonalSpec) -> CaseTwoPlan:
    """Partition a divergent diagonal into tetris-ready blocks.

    When the below-half sum diverges, every entry above 1/2 heads its own
    block and the rest are dealt cyclically, so each block keeps a divergent
    sum and satisfies the streaming hypotheses. Otherwise the above-half
    defect diverges; the spec is complemented (1 - d), handled by the first
    branch, and the result is marked for complementation.
    """
    report = classify(spec)
    if report.verdict is not Verdict.CASE_II:
        raise ValueError(f"verdict mismatch: expected case_ii, got {report.verdict.value}")
    tail = spec.tail
    if isinstance(tail, ConstantTail) and tail.c > 0.5:
        inner = build_case2(complement_spec(spec))
        return CaseTwoPlan(
            streams=inner.streams,
            heads=inner.heads,
            stride=inner.stride,
            complemented=True,
            kadison=report,
            trivial_ones=inner.trivial_zeros,
            trivial_zeros=inner.trivial_ones,
        )

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
    return CaseTwoPlan(
        streams=streams,
        heads=[i for i, _ in heads],
        stride=stride,
        complemented=False,
        kadison=report,
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

    pieces = []
    completed: set[int] = set()
    top = max(plan.trivial_ones + plan.trivial_zeros, default=-1)
    for stream in plan.streams:
        M = projection_prefix(stream, R)
        touched = stream.permuted_labels(stream.k[R - 1])
        completed.update(stream.permuted_labels(max(stream.k[R - 1] - 2, 0)))
        order = sorted(touched)
        pieces.append((order, M))
        top = max(top, order[-1])

    dim = top + 1
    out = np.zeros((dim, dim))
    for order, M in pieces:
        out[np.ix_(order, order)] = M
    attach_ones = plan.trivial_zeros if plan.complemented else plan.trivial_ones
    for i in attach_ones:
        out[i, i] = 1.0
    if plan.complemented:
        out = np.eye(dim) - out
    result.matrix = out
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
        return _build_finite([float(x) for x in spec.prefix], report, options)
    if report.verdict is Verdict.CASE_II:
        return _build_case2_result(spec, report, options)

    tail = spec.tail
    if isinstance(tail, ConstantTail):
        if tail.c not in (0.0, 1.0):
            raise AssertionError("finite-sum verdict with a non-trivial constant tail")
        dim = len(spec.prefix) + options.truncation_rows
        return _build_finite([float(x) for x in spec.materialize(dim)], report, options)
    if options.mode != "approximate":
        raise ValueError(
            "a summable infinite tail cannot be materialized exactly; "
            "rerun with mode='approximate' (the error bound is reported)"
        )
    return _build_power_approximate(spec, report, options)
