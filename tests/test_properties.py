"""Property-based finite builds on hostile diagonals: ties, exact 1/2,
subnormals, 1 - 2^-53 and sums within 1e-9 of an integer; and case-II
corners against the assembly they replaced.

Examples are derandomized (the same on every run) and capped, and nothing is
stored between runs.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carpenter.builder
from carpenter import (
    BuildOptions,
    ConstantTail,
    DiagonalSpec,
    MajorizationInput,
    build,
    build_case2,
    check_projection,
    horn_build,
)
from carpenter.diagonal import INTEGRALITY_TOL

PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)

HOSTILE = [0.5, 0.25, 0.75, 1.0 / 3.0, 1.0 - 2.0**-53, 2.0**-53, 2.0**-1022, 5e-324, 0.0, 1.0]
entries = st.one_of(st.sampled_from(HOSTILE), st.floats(0.0, 1.0))


@st.composite
def integer_sum_diagonals(draw, max_size=40):
    """Entries in [0, 1] closed by one entry, ceil(s) - s, that brings the
    sum s of the others to an integer (up to the rounding of that entry)."""
    vals = draw(st.lists(entries, min_size=1, max_size=max_size - 1))
    s = math.fsum(vals)
    vals.insert(draw(st.integers(0, len(vals))), math.ceil(s) - s)
    return vals


@st.composite
def with_tiny_negatives(draw):
    """An integer-sum diagonal with one to three entries from [-1e-12, 0)
    inserted, which the majorization check lets through as nonnegative."""
    vals = draw(integer_sum_diagonals())
    for x in draw(st.lists(st.floats(-1e-12, 0.0, exclude_max=True), min_size=1, max_size=3)):
        vals.insert(draw(st.integers(0, len(vals))), x)
    return vals


@st.composite
def near_integer_diagonals(draw):
    """An integer-sum diagonal with one entry strictly inside (0, 1) moved by
    up to 9e-10, so the sum is off its integer by less than INTEGRALITY_TOL."""
    vals = draw(integer_sum_diagonals())
    inner = [i for i, v in enumerate(vals) if 1e-9 < v < 1.0 - 1e-9]
    if inner:
        i = draw(st.sampled_from(inner))
        vals[i] += draw(st.floats(-9e-10, 9e-10))
    return vals


def assert_exact_projection(P, d, report, spread=0.0):
    """P == P^T bit for bit, a passing report, and a diagonal within 1e-10
    of ``d`` beyond the ``spread`` a near-integer sum's fit moves it by."""
    assert np.array_equal(P, P.T)
    assert report.all_pass, report
    assert float(np.max(np.abs(np.diag(P) - np.asarray(d)))) <= 1e-10 + spread


@PROFILE
@given(integer_sum_diagonals())
def test_horn_build_on_hostile_diagonals(d):
    rank = round(math.fsum(d))
    if rank == 0:
        return
    S = horn_build(MajorizationInput((1.0,) * rank, d))
    assert_exact_projection(S, d, check_projection(S, d))


@PROFILE
@given(with_tiny_negatives())
def test_horn_build_on_tiny_negative_entries(d):
    rank = round(math.fsum(d))
    if rank == 0:
        return
    S = horn_build(MajorizationInput((1.0,) * rank, d))
    assert np.array_equal(S, S.T)
    assert check_projection(S, d).all_pass
    assert float(np.max(np.abs(np.diag(S) - np.asarray(d)))) <= 1e-11


@PROFILE
@given(near_integer_diagonals())
def test_build_on_hostile_diagonals(d):
    # The residual r is spread over the entries strictly inside (0, 1), |r|/m
    # each while none of the m clips at 0 or 1, more on the others when one
    # does; all move the same way, so none moves by more than |r|.
    r = abs(round(math.fsum(d)) - math.fsum(d))
    assert r <= INTEGRALITY_TOL
    res = build(d)
    assert_exact_projection(res.matrix, d, res.report, r)


# The finite route of build_case1: shift eta off J0 = {d < 1/2} onto
# J1 = {d >= 1/2}, one tetris block on each side, restore.

DYADIC_LOW = st.integers(0, 511).map(lambda k: k / 1024.0)  # [0, 1/2)
DYADIC_HIGH = st.integers(512, 1024).map(lambda k: k / 1024.0)  # [1/2, 1]


def closed(values):
    """``values`` in [0, 1/2] with entries of at most 1/4 appended until the
    sum, exact in dyadics, is an integer."""
    pad = math.ceil(sum(values)) - sum(values)
    while pad > 0.0:
        values.append(min(pad, 0.25))
        pad -= values[-1]
    return values


@st.composite
def split_diagonals(draw):
    """Dyadic entries below 1/2 summing to an integer, and entries at or
    above 1/2 whose co-values sum to an integer, so that eta = 0; then a
    transfer of delta (0, 2^-53 or 2^-52, either sign) from an entry of J1
    to one of J0, which puts eta within 2^-52 of 0 or of 1. Either side may
    be empty, hold exact 0s, 1s, halves or 1 - 2^-53, and its block may
    have no row (N_A = 0 or N_B = 0)."""
    low = closed(draw(st.lists(DYADIC_LOW, max_size=12)))
    co = closed([1.0 - x for x in draw(st.lists(st.one_of(DYADIC_HIGH, st.just(1.0 - 2.0**-53)), max_size=12))])
    high = [1.0 - x for x in co]
    delta = draw(st.sampled_from([0.0, 2.0**-53, -(2.0**-53), 2.0**-52, -(2.0**-52)]))
    i = [k for k, x in enumerate(low) if 0.0 <= x + delta < 0.5]
    j = [k for k, x in enumerate(high) if 0.5 <= x - delta <= 1.0]
    if delta and i and j:
        low[draw(st.sampled_from(i))] += delta
        high[draw(st.sampled_from(j))] -= delta
    return draw(st.permutations(low + high))


def dense_check(P, d):
    """Acceptance criterion 1's checks, on the dense matrix."""
    assert np.array_equal(P, P.T)
    assert float(np.max(np.abs(P @ P - P), initial=0.0)) <= 1e-9
    assert float(np.max(np.abs(np.diag(P) - np.asarray(d)), initial=0.0)) <= 1e-9
    assert abs(float(np.trace(P)) - round(math.fsum(d))) <= 1e-8


@PROFILE
@given(st.one_of(split_diagonals(), integer_sum_diagonals()))
@example([])
@example([0.0] * 5)
@example([1.0] * 5)
@example([0.0, 1.0, 0.0, 1.0])
@example([0.5] * 6)  # J0 empty, ties at 1/2
@example([0.25] * 8)  # J1 empty
@example([0.3, 0.7])  # N_A = N_B = 0
@example([0.3, 0.7, 0.5, 0.5])  # N_A = 0
@example([0.3, 0.7] + [0.25] * 4)  # N_B = 0
@example([0.5 + 2.0**-53, 0.5, 0.5, 0.5, 1.0 - 2.0**-53])  # a block row with one term by rounding
@example([0.25, 0.25, 0.25, 0.25 + 2.0**-52, 1.0 - 2.0**-52])  # eta = 2^-52
@example([0.25, 0.25, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53])  # eta = 1 - 2^-53
@example([1.0 - 2.0**-53, 2.0**-53])
def test_route_on_hostile_diagonals(d):
    starts = []

    def recording(E, *args):
        starts.append(E.copy())
        return restore(E, *args)

    restore = carpenter.builder._restore_inplace
    with mock.patch.object(carpenter.builder, "_restore_inplace", recording):
        res = build(d)
    assert len(starts) == 1 and np.array_equal(starts[0], starts[0].T)
    assert res.report.all_pass, res.report
    dense_check(res.matrix, d)


@st.composite
def case2_specs(draw):
    """A constant tail c on either side of 1/2 and a prefix of 2 or 3 heads
    above 1/2, fillers in [0, 1/2] and exact 0s and 1s, shuffled; for
    c > 1/2 every prefix entry x becomes 1 - x, so the plan, dealt from
    1 - d, sees the same kind of prefix."""
    heads = draw(st.lists(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=3))
    fill = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 0.5)), max_size=8))
    prefix = draw(st.permutations(heads + fill))
    c = draw(st.one_of(st.floats(0.1, 0.45), st.floats(0.55, 0.9)))
    if c > 0.5:
        prefix = [1.0 - x for x in prefix]
    return DiagonalSpec(tuple(prefix), ConstantTail(c))


def corner_by_outer_sums(spec, R):
    """The case-II corner as it was assembled before the pair kernel: each
    block's rows summed with np.outer, reordered by ascending label, placed
    on its labels, 1.0 on the trivial ones, and for a complemented plan
    0 - Q with 1.0 added on the diagonal."""
    plan = build_case2(spec)
    pieces = []
    top = max(plan.trivial_ones + plan.trivial_zeros, default=-1)
    for stream in plan.streams:
        rows = [stream.next_row() for _ in range(R)]
        k = stream.k[R - 1]
        M = np.zeros((k, k))
        for row in rows:
            sl = slice(row.start, row.start + len(row.values))
            M[sl, sl] += np.outer(row.values, row.values)
        labels = stream.permuted_labels(k)
        order = np.argsort(labels, kind="stable")
        pieces.append((sorted(labels), M[np.ix_(order, order)]))
        top = max(top, max(labels))
    dim = top + 1
    Q = np.zeros((dim, dim))
    for idx, M in pieces:
        Q[np.ix_(idx, idx)] = M
    ones = plan.trivial_zeros if plan.complemented else plan.trivial_ones
    Q[ones, ones] = 1.0
    if plan.complemented:
        Q = np.subtract(0.0, Q)
        Q.flat[:: dim + 1] += 1.0
    return Q


@PROFILE
@given(case2_specs(), st.integers(1, 40))
@example(DiagonalSpec((0.7, 0.8, 1.0, 0.3, 0.0), ConstantTail(0.4)), 12)
@example(DiagonalSpec((0.2, 0.1, 0.0, 0.6, 1.0), ConstantTail(0.9)), 12)
def test_case2_corner_matches_outer_sum_assembly(spec, R):
    P = build(spec, BuildOptions(truncation_rows=R)).matrix
    assert P.tobytes() == corner_by_outer_sums(spec, R).tobytes()
    assert np.array_equal(P, P.T)
