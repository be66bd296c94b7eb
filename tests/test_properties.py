"""Property-based finite builds on hostile diagonals: ties, exact 1/2,
subnormals, 1 - 2^-53 and sums within 1e-9 of an integer.

Examples are derandomized (the same on every run) and capped, and nothing is
stored between runs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from carpenter import BuildOptions, MajorizationInput, build, check_projection, horn_build
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
@given(near_integer_diagonals(), st.sampled_from(["shortcut", "full"]))
def test_build_on_hostile_diagonals(d, pipeline):
    # The residual r is spread over the entries strictly inside (0, 1), |r|/m
    # each while none of the m clips at 0 or 1, more on the others when one
    # does; all move the same way, so none moves by more than |r|.
    r = abs(round(math.fsum(d)) - math.fsum(d))
    assert r <= INTEGRALITY_TOL
    res = build(d, BuildOptions(pipeline=pipeline))
    assert_exact_projection(res.matrix, d, res.report, r)
