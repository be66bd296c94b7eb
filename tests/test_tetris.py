"""Streaming sparse-row construction for divergent diagonals."""

import hashlib
import itertools
import math
import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpenter import (
    BuildOptions,
    ConstantTail,
    DiagonalSpec,
    NeedsMoreTermsError,
    PowerTail,
    SparseRow,
    TetrisStream,
    build,
    build_case2,
    check_rows,
    completed_columns,
    projection_prefix,
)
from carpenter.builder import _fit_to_sum
from carpenter.tetris import _CHUNK, _SCALE, ROW_NORM_TOL, SOLVE_A_TOL, _exact, _row_need, _solve_a
from test_moves import dense_pair_sum


ORACLE = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def const_stream(c, head=None):
    prefix = () if head is None else (head,)
    return TetrisStream(DiagonalSpec(prefix, ConstantTail(c)))


def test_reorder_thresholds_constant_04():
    s = const_stream(0.4)
    s.next_row()
    s.next_row()
    assert s.m == [3, 5] and s.k == [3, 5]
    assert s.permuted_labels(5) == [0, 1, 2, 3, 4]  # ties keep source order


def test_reorder_exact_halves():
    s = const_stream(0.5)
    s.next_row()
    assert s.m == [2] and s.k == [2]


def test_reorder_moves_big_entry_to_block_front():
    # block (0, m1] holds (0.2, 0.5, 0.4); descending sort inside the block
    source = itertools.chain([(0, 0.2), (1, 0.5), (2, 0.4)], ((i, 0.45) for i in itertools.count(3)))
    stream = TetrisStream(source)
    stream.next_row()
    assert stream.m == [3] and stream.k == [3]
    assert stream.permuted_labels(3) == [1, 2, 0]


def test_solve_a_examples():
    assert _solve_a(0.6, 0.4, 0.4) == pytest.approx(0.3, abs=1e-15)
    assert _solve_a(0.8, 0.4, 0.4) == pytest.approx(0.4, abs=1e-15)
    assert _solve_a(0.5, 0.5, 0.5) == 0.5  # degenerate: convention a = sigma


def test_solve_a_rejects_out_of_range():
    with pytest.raises(ValueError):
        _solve_a(0.3, 0.4, 0.4)  # sigma below max(d1, d2)
    with pytest.raises(ValueError):
        _solve_a(0.9, 0.4, 0.4)  # sigma above d1 + d2


def test_solve_a_orthogonality_identity():
    # a row ending in (sqrt(a), -sqrt(sigma - a)) and the next row opening
    # with (sqrt(d1 - a), sqrt(d2 - sigma + a)) are orthogonal exactly when
    # a * (d1 - a) == (sigma - a) * (d2 - sigma + a); _solve_a picks that root
    for sigma, d1, d2 in [(0.6, 0.4, 0.4), (0.75, 0.5, 0.4), (0.31, 0.3, 0.02)]:
        a = _solve_a(sigma, d1, d2)
        b = d1 - a
        c = sigma - a
        e = d2 - c
        assert a >= -1e-12 and b >= -1e-12 and c >= -1e-12 and e >= -1e-12
        assert a * b == pytest.approx(c * e, abs=1e-12)


def test_sigma_examples():
    s = const_stream(0.4)
    s.next_row()
    s.next_row()
    assert s.sigma[0] == pytest.approx(0.6, abs=1e-15)
    assert s.sigma[1] == pytest.approx(0.8, abs=1e-15)
    s = const_stream(0.5)
    s.next_row()
    assert s.sigma == [1.0]


def test_first_row_constant_04():
    row = const_stream(0.4).next_row()
    assert row.n == 1 and row.support == (0, 2)
    expect = [math.sqrt(0.4), math.sqrt(0.3), -math.sqrt(0.3)]
    assert np.allclose(row.values, expect, atol=1e-15)
    assert math.fsum(v * v for v in row.values) == pytest.approx(1.0, abs=1e-12)


def test_second_row_constant_04():
    s = const_stream(0.4)
    s.next_row()
    row = s.next_row()
    assert row.support == (1, 4)
    expect = [math.sqrt(0.1), math.sqrt(0.1), math.sqrt(0.4), -math.sqrt(0.4)]
    assert np.allclose(row.values, expect, atol=1e-12)


def test_first_row_constant_05():
    row = const_stream(0.5).next_row()
    assert row.support == (0, 1)
    assert np.allclose(row.values, [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-15)


def test_completed_columns_constant_04():
    s = const_stream(0.4)
    count, norms = completed_columns(s)
    assert count == 0 and norms.size == 0
    s.next_row()
    s.next_row()
    count, norms = completed_columns(s)
    assert count == 3
    assert np.allclose(norms, 0.4, atol=1e-12)


def test_completed_columns_empty_for_halves():
    s = const_stream(0.5)
    s.next_row()
    count, norms = completed_columns(s)
    assert count == 0 and norms.size == 0


def test_projection_prefix_needs_a_fresh_stream():
    s = const_stream(0.4)
    s.next_row()
    with pytest.raises(ValueError):
        projection_prefix(s, 2)
    with pytest.raises(ValueError):
        projection_prefix(s, 0)


def test_projection_prefix_rejects_negative_rows():
    # -1 used to reach stream.k[-2] and raise IndexError
    with pytest.raises(ValueError, match="nonnegative"):
        projection_prefix(const_stream(0.4), -1)


def test_build_leaves_each_block_stream_at_the_next_row():
    spec = DiagonalSpec((0.7, 0.8, 1.0, 0.3, 0.0), ConstantTail(0.4))
    R = 12
    res = build(spec, BuildOptions(truncation_rows=R))
    fresh = build_case2(spec).streams
    assert len(res.streams) == len(fresh) == 2
    for stream, again in zip(res.streams, fresh):
        assert stream.rows_emitted == R
        for _ in range(R):
            again.next_row()
        assert stream.next_row().to_json_line() == again.next_row().to_json_line()


def test_stream_memory_per_row():
    # a stream keeps no emitted row; what it keeps per row (thresholds, the
    # permutation, labels, values and column masses, about 1,200 B for
    # c = 0.1) bounds the peak, against about 2,000 B when rows were kept
    tracemalloc.start()
    try:
        s = const_stream(0.1)
        for _ in range(20_000):
            s.next_row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_projection_prefix_small():
    P = projection_prefix(const_stream(0.4), 2)
    assert P.shape == (5, 5)
    # bit for bit the sum of each row's np.outer, on ascending label ranks
    s = const_stream(0.4)
    rows = [s.next_row() for _ in range(2)]
    labels = s.permuted_labels(s.k[1])
    rank = {label: r for r, label in enumerate(sorted(labels))}
    runs = [([rank[x] for x in labels[row.start : row.start + len(row.values)]], row.values) for row in rows]
    assert P.tobytes() == dense_pair_sum(5, runs).tobytes()
    assert np.allclose(np.diag(P)[:3], 0.4, atol=1e-12)
    assert np.array_equal(P, P.T)
    assert projection_prefix(const_stream(0.4), 0).shape == (0, 0)
    P1 = projection_prefix(const_stream(0.4), 1)
    assert np.trace(P1) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(P1)), [0.0, 0.0, 1.0], atol=1e-12)


def test_rows_orthonormal_families():
    for c in (0.1, 0.25, 0.4, 0.5):
        s = const_stream(c)
        rows = [s.next_row() for _ in range(60)]
        assert check_rows(rows) <= 1e-11
    for head in (0.7, 0.9):
        s = const_stream(0.4, head=head)
        rows = [s.next_row() for _ in range(60)]
        assert check_rows(rows) <= 1e-11


def test_head_entry_goes_first_and_column_completes():
    s = const_stream(0.4, head=0.9)
    P = projection_prefix(s, 30)
    count, norms = completed_columns(s)
    assert count >= 1
    # label 0 carries the 0.9 entry and is complete by now
    assert s.permuted_labels(1) == [0]
    assert norms[0] == pytest.approx(0.9, abs=1e-12)
    assert np.allclose(np.diag(P)[1:count], 0.4, atol=1e-12)


def test_threshold_sandwich_all_rows():
    for c, head in [(0.1, None), (0.5, None), (0.4, 0.7)]:
        s = const_stream(c, head=head)
        for _ in range(40):
            s.next_row()
        prev = 0
        for n, kn in enumerate(s.k, 1):
            assert prev + 2 <= kn <= s.m[n - 1]
            prev = s.m[n - 1]


def test_source_validation():
    with pytest.raises(ValueError):
        TetrisStream([(0, 0.4), (1, 0.8)]).next_row()  # later entry above 1/2
    # first entry may sit anywhere in [0, 1)
    s = TetrisStream(itertools.chain([(0, 0.95)], ((i, 0.3) for i in itertools.count(1))))
    s.next_row()


def test_source_validation_messages():
    def message(source):
        with pytest.raises(ValueError) as err:
            s = TetrisStream(source)
            while True:
                s.next_row()
        return str(err.value), s.rows_emitted

    assert message([(0, 1.0), (1, 0.4)]) == ("first entry 1.0 outside [0, 1)", 0)
    assert message([(0, math.nan), (1, 0.4)]) == ("first entry nan outside [0, 1)", 0)
    assert message([(0, 0.4), (1, 0.8)]) == ("entry 0.8 at position 1 outside [0, 1/2]", 0)

    def quarters(bad):
        # 0.25 everywhere except the entries of ``bad``; positions 1024 to
        # 2047 arrive in one 1024-term pull, once row 256 has used 1024 terms
        return ((i, bad.get(i, 0.25)) for i in itertools.count())

    # the first bad entry of a pull is named, wherever it sits in the pull,
    # and the rows before that pull are emitted
    assert message(quarters({1724: 0.75, 1900: -0.5})) == ("entry 0.75 at position 1724 outside [0, 1/2]", 256)
    assert message(quarters({1724: -0.5, 1900: 0.75})) == ("entry -0.5 at position 1724 outside [0, 1/2]", 256)
    # a NaN that neither min nor max of the pull sees
    assert message(quarters({1724: math.nan})) == ("entry nan at position 1724 outside [0, 1/2]", 256)
    assert message(quarters({1024: math.nan, 1724: 0.75})) == ("entry nan at position 1024 outside [0, 1/2]", 256)
    assert message(quarters({2047: math.inf})) == ("entry inf at position 2047 outside [0, 1/2]", 256)


def test_finite_source_exhausts():
    s = TetrisStream([(0, 0.4), (1, 0.4)])
    with pytest.raises(NeedsMoreTermsError) as err:
        s.next_row()
    assert str(err.value) == "source exhausted after 2 terms; partial sum cannot reach 1.0"
    s = TetrisStream([(i, 0.4) for i in range(7)])
    s.next_row()
    s.next_row()
    with pytest.raises(NeedsMoreTermsError) as err:
        s.next_row()
    assert str(err.value) == "source exhausted after 7 terms; partial sum cannot reach 3.0"


# The finite-source contract: a source whose exact sum is the integer N gives
# N rows, row N closes at the last nonzero term (k_N = that term's count),
# every touched column's mass equals its value, and row N + 1 raises.


def close_finite_source(values):
    """Stream every row of the finite source ``values``; returns the stream,
    the rows and the NeedsMoreTermsError of the row after the last."""
    stream = TetrisStream(enumerate(values))
    rows = [stream.next_row() for _ in range(round(math.fsum(values)))]
    with pytest.raises(NeedsMoreTermsError) as err:
        stream.next_row()
    return stream, rows, str(err.value)


def assert_block_closes(values, gram_tol=1e-14, mass_tol=2.0**-53):
    """The contract on ``values``, with row norms and overlaps within
    ``gram_tol`` and column masses within ``mass_tol``; returns the terms no row touches, whose sum lies below
    half an ulp of N: the rounded sum reaches N without them, as
    ``_row_need`` allows."""
    stream, rows, message = close_finite_source(values)
    n = len(rows)
    assert message == f"source exhausted after {len(values)} terms; partial sum cannot reach {float(n + 1)}"
    if n:
        assert check_rows(rows) <= gram_tol
    count, used = (stream.k[-1], stream.m[-1]) if n else (0, 0)
    assert n == 0 or stream.permuted_values(count)[-1] > 0.0
    untouched = stream.permuted_values(used)[count:] + values[used:]
    assert math.fsum(untouched) <= math.ulp(n) / 2
    masses = stream._col_mass[:count]
    assert len(masses) == count
    for mass, value in zip(masses, stream.permuted_values(count)):
        assert abs(mass - value) <= mass_tol, (mass, value)
    return untouched


@pytest.mark.parametrize(
    "values",
    [
        [0.375, 0.25, 0.125, 0.5, 0.3125, 0.4375],  # N = 2, dyadic
        [0.5] * 6,  # entries exactly 1/2
        [0.25] * 4 + [0.5, 0.125, 0.375, 0.0, 0.0],  # trailing zeros
        [0.0],  # a single entry, N = 0
        [0.0, 0.0, 0.0],  # N = 0
        [0.5, 0.5],  # N = 1 on two terms
        [0.75, 0.25],  # a first entry above 1/2
    ],
)
def test_finite_source_closes_at_its_last_term(values):
    assert not any(assert_block_closes(values))


def test_finite_source_row_two_needs_two_new_terms():
    # The rounded sum 2 - 2^-53 reaches row 2 one term past m_1 = 3 (the ulp
    # below 2 is twice that below 1); the row still takes two new terms, and
    # the block closes at its last term, with column masses within 1.5 ulps.
    values = [0.5 - 2.0**-54, 0.5 - 2.0**-54, 0.5, 0.5, 2.0**-53]
    assert not any(assert_block_closes(values, mass_tol=2.0**-52))


def test_finite_source_with_subnormals():
    # A trailing subnormal lies below what row N needs, so the block closes
    # on the terms before it and leaves its column untouched; fitted to the
    # integer, it becomes 0.
    values = [0.25, 0.25, 0.25, 0.25, 5e-324]
    stream, rows, message = close_finite_source(values)
    assert len(rows) == 1 and stream.k == [4]
    assert message == "source exhausted after 5 terms; partial sum cannot reach 2.0"
    _fit_to_sum(values, 1)
    assert values == [0.25, 0.25, 0.25, 0.25, 0.0]
    assert not any(assert_block_closes(values))


BLOCK_TERMS = [0.5, 0.25, 1.0 / 3.0, 0.5 - 2.0**-54, 2.0**-53, 2.0**-1022, 5e-324, 0.0]


@st.composite
def near_integer_blocks(draw):
    """Entries in [0, 1/2], hostile or arbitrary, closed by entries of at
    most 1/2 to a sum within rounding of an integer, then one entry raised
    by up to 1e-9: the fit then lowers entries, so none rises past 1/2 by
    more than rounding, as in a block of the finite route."""
    values = draw(st.lists(st.one_of(st.sampled_from(BLOCK_TERMS), st.floats(0.0, 0.5)), min_size=1, max_size=60))
    pad = math.ceil(math.fsum(values)) - math.fsum(values)
    while pad > 0.5:
        values.append(0.5)
        pad -= 0.5
    values.insert(draw(st.integers(0, len(values))), pad)
    i = draw(st.integers(0, len(values) - 1))
    values[i] = min(0.5, values[i] + draw(st.floats(0.0, 1e-9)))
    return values


@ORACLE
@given(near_integer_blocks())
def test_fitted_finite_sources_close(values):
    # whatever the fitter returns for such a block closes at its last term.
    # Rows and columns hold to the stream's own ROW_NORM_TOL: a term below
    # _SNAP_TOL may lose its root to the snap (column masses off by up to
    # 1.0e-13), and entries within 1e-10 of 1/2 leave Gram defects up to
    # 5.3e-13 (both measured over 3000 examples).
    target = round(math.fsum(values))
    _fit_to_sum(values, target)
    assert math.fsum([-target, *values]) == 0.0
    assert_block_closes(values, ROW_NORM_TOL, ROW_NORM_TOL)


def fit_to_sum_by_full_walk(vals, target):
    """``_fit_to_sum`` as it was before it skipped the entries that cannot
    move: every pass walks every entry left inside (0, 1)."""
    before = list(vals)
    inner = [i for i, v in enumerate(vals) if 0.0 < v < 1.0]
    r = -math.fsum([-target, *vals])
    while r:
        if not inner:
            raise ValueError(f"cannot fit the sum to {target}: {r} left over")
        start = r
        inner.sort(key=vals.__getitem__, reverse=True)
        left = len(inner)
        for i in inner:
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


FIT_TERMS = [0.0, 1.0, 0.5, 0.25, 0.75, 1 / 3, 2 / 3, 0.1, 2.0**-53, 1.0 - 2.0**-53, 0.5 - 2.0**-54, 5e-324]


@st.composite
def fit_inputs(draw):
    """Entries of [0, 1], many of them tied or exact 0s and 1s, and a target
    near their sum; then a few entries nudged by an ulp or two, so that the
    residual is often an ulp or a tie."""
    values = draw(st.lists(st.one_of(st.sampled_from(FIT_TERMS), st.floats(0.0, 1.0)), min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(values) - 1))
        step = draw(st.sampled_from([-2, -1, 1, 2]))
        v = values[i]
        for _ in range(abs(step)):
            v = math.nextafter(v, math.copysign(math.inf, step))
        values[i] = min(1.0, max(0.0, v))
    target = round(math.fsum(values)) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return values, target


@ORACLE
@given(fit_inputs())
def test_fit_to_sum_matches_the_full_walk(case):
    # skipping the entries whose quarter ulp exceeds r / left changes no bit:
    # the same entries, the same largest move, the same error
    values, target = case
    got, want = list(values), list(values)
    try:
        expected = fit_to_sum_by_full_walk(want, target)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            _fit_to_sum(got, target)
        return
    assert _fit_to_sum(got, target) == expected
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_fit_to_sum_puts_an_ulp_back_where_it_was_taken():
    # 1000 quarters, one of them an ulp low: r / left reaches a quarter ulp
    # of 1/4 only at the last two entries of the walk, and the low entry
    # takes the whole residual back
    values = [0.25] * 1000
    values[0] = math.nextafter(0.25, 0.0)
    got, want = list(values), list(values)
    assert _fit_to_sum(got, 250) == fit_to_sum_by_full_walk(want, 250) == 2.0**-55
    assert got == want == [0.25] * 1000


def row_need_by_rounding(target):
    """``_row_need`` as it was before its closed form: the least exact sum
    that rounds to ``target`` or above, from the midpoint below it, or the
    2**-41 cap, whichever needs more."""
    mid = (_exact(math.nextafter(target, 0.0)) + _exact(target)) // 2
    least = mid if mid / _SCALE >= target else mid + 1
    return max(least, _exact(target) - _exact(2.0**-41))


def test_row_need_closed_form_matches_the_rounding_rule():
    # every row count to 2^20, which crosses 4096, where the cap starts to
    # bind, and powers of two, one below and one above, to 2^62
    edges = [2**k + s for k in range(63) for s in (-1, 0, 1) if 2**k + s > 0]
    for n in itertools.chain(range(1, 2**20 + 1), edges):
        target = float(n)
        assert _row_need(target) == row_need_by_rounding(target), n


def test_sparse_row_serialization():
    row = SparseRow(3, 4, (0.5, -0.25, 0.125))
    line = row.to_json_line()
    again = SparseRow.from_json_line(line)
    assert again == row
    assert again.support == (4, 6)


def test_needs_more_terms_cap():
    s = TetrisStream(((i, 0.4) for i in itertools.count()), max_terms=10)
    with pytest.raises(NeedsMoreTermsError) as err:
        for _ in range(10):
            s.next_row()
    assert str(err.value) == (
        "needs 11 source terms (cap max_terms=10) while accumulating toward 5.0; is the sum divergent?"
    )
    assert s.rows_emitted == 4 and len(s._vals) == 10
    # the cap applies before the source is asked, so a source of exactly
    # max_terms terms reports the cap, not its exhaustion
    s = TetrisStream([(i, 0.25) for i in range(3)], max_terms=3)
    with pytest.raises(NeedsMoreTermsError) as err:
        s.next_row()
    assert str(err.value) == (
        "needs 4 source terms (cap max_terms=3) while accumulating toward 1.0; is the sum divergent?"
    )


def test_stream_holds_at_most_twice_the_terms_it_uses():
    # each pull takes as many terms as are held, at most _CHUNK, and only once
    # every held term is used
    s = const_stream(0.1)
    for _ in range(3000):
        s.next_row()
        m = s.m[-1]
        assert len(s._vals) <= max(1, min(2 * m, m + _CHUNK))
    assert s.m[-1] == 30_000


# sha256 over the rows' JSON lines (each followed by "\n"), recorded from the
# fsum-per-prefix implementation that the running exact sums replaced; the
# rows must stay bit-identical.
ROW_DIGESTS = {
    (0.1, None): "57d1404ce687c777d0451f39df169b574e1bd51ecc75eb144af8b23004aae9b5",
    (0.1, 0.7): "14632f7a8763e059ac75ad1f3e23d548c60c78178d2ea68836fa9e0ac2a98481",
    (0.1, 0.9): "d48f0a87c521f0f04f8b3f2a598b5635fd297b6b06c71dcc3354863e1ec1b830",
    (0.1, 0.73512): "78c657783bee524b4a9b0eab9f63b1dc4ba6770ba0afcea529856de19ade2361",
    (0.25, None): "e177c556012e32998356320a9bdf1ed4918929a9df50b032e3ae9741df12123e",
    (0.25, 0.7): "c066b5538cd88976ac51145faf3d129094cdf1ca1d68563b9d038013d47fda6e",
    (0.25, 0.9): "b33a3372934683dc22cd293e6988d636ff0bdada7320d8e8b4050e28c49cf402",
    (0.25, 0.73512): "85c79f0f560826b3d32f7ff85745e271051465f858d230426160e4c5374a5ebb",
    (0.4, None): "d04a239ff76cb9fcfc4269f714307ae6ccf5b802b1525c300d4f2b963b7ce0b0",
    (0.4, 0.7): "12c1f1ea1886eb1d8797d318556154261bebb698a3fc08ba2039d1ebc568cb9b",
    (0.4, 0.9): "4057d6b75079a5768d61d1f206abd5ffb88da2edebd20e8fd63da138f248b738",
    (0.4, 0.73512): "c630cc56086294dfde02f059192e89c29e11761784ab261e39969c26b9042b6d",
    (0.5, None): "3566e109273b94fa8809d007c566d572942a6bca58942000787c145af6bbcf87",
    (0.5, 0.7): "810d8d70ce1f88935a87bdd8408b6aaa7fb6dbaea1e8e1a880d396db0ed52318",
    (0.5, 0.9): "b1519b27a1c6edff75a2e239653a9124abec36734c120aa26e9dffaa14a3566f",
    (0.5, 0.73512): "ab5fd6cf735c0a71d82fecf233622d46ed4524b8bd3d5fa54bf1d85ab9afe9d3",
}
POWER_DIGEST = "4ee09fe3400db390a1da50b15e9ffa4f775e5e0de1d7639c9d209487cde9c7bd"


def rows_digest(stream, count):
    h = hashlib.sha256()
    for _ in range(count):
        h.update(stream.next_row().to_json_line().encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("c, head", list(ROW_DIGESTS))
def test_rows_bit_identical_constant_families(c, head):
    assert rows_digest(const_stream(c, head=head), 1000) == ROW_DIGESTS[c, head]


def test_rows_bit_identical_power_tail():
    stream = TetrisStream(DiagonalSpec((), PowerTail(0.3, 0.5)))
    assert rows_digest(stream, 100) == POWER_DIGEST


def test_threshold_compares_rounded_sum():
    # 0.7 + 3 * 0.1 is just below 1 exactly but rounds to 1.0, so four terms
    # reach 1; comparing the exact sum would take a fifth term
    s = const_stream(0.1, head=0.7)
    assert math.fsum([0.7, 0.1, 0.1, 0.1]) == 1.0
    s.next_row()
    assert s.sigma[0] == 0.20000000000000004
    assert s.k[0] == 4


@pytest.mark.parametrize("c, rows", [(1 / 3, 18100), (0.3, 27100)])
def test_long_streams_keep_sigma_within_bounds(c, rows):
    # With thresholds on the rounded sum alone, k_n could stop up to half an
    # ulp of n short, and sigma then passed d1 + d2 by more than SOLVE_A_TOL:
    # "sigma bounds violated" at row 18016 for c = 1/3 and 27024 for c = 0.3
    s = const_stream(c)
    emitted = [s.next_row() for _ in range(rows)]
    assert check_rows(emitted[-2000:]) <= 1e-12


def test_permuted_values_follow_permuted_labels():
    source = itertools.chain([(0, 0.2), (1, 0.5), (2, 0.4)], ((i, 0.45) for i in itertools.count(3)))
    s = TetrisStream(source)
    s.next_row()
    assert s.permuted_values(3) == [0.5, 0.4, 0.2]
    with pytest.raises(ValueError):
        s.permuted_values(len(s.pi) + 1)


@pytest.mark.parametrize("method", ["permuted_labels", "permuted_values"])
def test_permuted_columns_reject_negative_counts(method):
    # a negative slice bound used to drop columns off the end: after 3 rows
    # of c = 0.4, permuted_labels(-1) gave 7 of the 8 ordered labels
    s = const_stream(0.4)
    for _ in range(3):
        s.next_row()
    assert len(s.pi) == 8
    for count in (-1, -2, -8):
        with pytest.raises(ValueError, match="nonnegative"):
            getattr(s, method)(count)


def test_long_stream_constant_01():
    # 10^5 source terms: the per-prefix fsum scheme this replaced needed
    # minutes here. Past row ~3600 the drift of float 0.1 != 1/10 pushes the
    # opening radicands across the snap tolerance; rows must stay orthogonal.
    s = const_stream(0.1)
    rows = [s.next_row() for _ in range(10_000)]
    assert s.m[-1] == 100_000
    assert check_rows(rows) <= 1e-11
    count, norms = completed_columns(s)
    assert count == s.k[-1] - 2
    assert np.max(np.abs(norms - 0.1)) <= 1e-12
    prev = 0
    for n, kn in enumerate(s.k, 1):
        assert prev + 2 <= kn <= s.m[n - 1]
        prev = s.m[n - 1]


# The threshold walk as it was before the stream searched prefix sums by
# bisection: one exact running sum per ordering, advanced a term at a time,
# and a pull that validates term by term. Kept verbatim as the oracle the
# stream's m, k, sigma, a and pulls must match bit for bit.
class _RunningSum:
    """Exact prefix sums of a growing list, advanced one term at a time.

    Sums are integers in units of 2**-1074, in which every double and every
    sum of doubles is exact; dividing by ``_SCALE`` rounds correctly. The
    sums at the last three counts are kept, so a caller can read the sum
    two terms back.
    """

    __slots__ = ("vals", "count", "_last")

    def __init__(self, vals: list[float]):
        self.vals = vals
        self.count = 0
        self._last = [0, 0, 0]  # exact sums at count - 2, count - 1, count

    def advance(self) -> None:
        last = self._last
        last[0], last[1], last[2] = last[1], last[2], last[2] + _exact(self.vals[self.count])
        self.count += 1

    def at(self, count: int) -> int:
        """Exact sum of the first ``count`` terms; ``count`` may lag
        ``self.count`` by at most two."""
        return self._last[count - self.count + 2]


class ReferenceThresholds:
    def __init__(self, source, max_terms: int = 10_000_000):
        self._source = iter(source)
        self.max_terms = max_terms
        self._labels: list[int] = []
        self._vals: list[float] = []
        self.pi: list[int] = []
        self._perm_vals: list[float] = []
        self._src_sum = _RunningSum(self._vals)
        self._perm_sum = _RunningSum(self._perm_vals)
        self.m: list[int] = []
        self.k: list[int] = []
        self.sigma: list[float] = []
        self.a: list[float] = []

    def _pull(self, target: float) -> None:
        held = len(self._vals)
        if held >= self.max_terms:
            raise NeedsMoreTermsError(
                f"needs {held + 1} source terms (cap max_terms={self.max_terms}) "
                f"while accumulating toward {target}; is the sum divergent?"
            )
        for label, value in islice(self._source, min(max(held, 1), _CHUNK, self.max_terms - held)):
            v = float(value)
            pos = len(self._vals)
            if pos == 0:
                if not 0.0 <= v < 1.0:
                    raise ValueError(f"first entry {v} outside [0, 1)")
            elif not -SOLVE_A_TOL <= v <= 0.5 + SOLVE_A_TOL:
                raise ValueError(f"entry {v} at position {pos} outside [0, 1/2]")
            self._labels.append(int(label))
            self._vals.append(min(max(v, 0.0), 1.0))
        if len(self._vals) == held:
            raise NeedsMoreTermsError(f"source exhausted after {held} terms; partial sum cannot reach {target}")

    def _min_count(self, prefix: _RunningSum, need: int, target: float, lo_count: int, extendable: bool) -> int:
        while prefix.count <= lo_count or prefix.at(prefix.count) < need:
            if prefix.count == len(prefix.vals):
                if not extendable:
                    raise NeedsMoreTermsError(f"prefix of {prefix.count} terms sums below {target}")
                self._pull(target)
            prefix.advance()
        return prefix.count

    def _ensure_rows(self, n: int) -> None:
        while len(self.k) < n:
            nn = len(self.k) + 1
            prev = self.m[-1] if self.m else 0
            target = float(nn)
            need = _row_need(target)
            mn = self._min_count(self._src_sum, need, target, prev, extendable=True)
            self.m.append(mn)
            block = sorted(range(prev, mn), key=lambda p: -self._vals[p])
            self.pi.extend(block)
            self._perm_vals.extend(self._vals[p] for p in block)
            kn = self._min_count(self._perm_sum, need, target, prev, extendable=False)
            if not prev + 2 <= kn <= mn:
                raise AssertionError(
                    f"threshold sandwich violated at n={nn}: "
                    f"m_prev+2={prev + 2}, k={kn}, m={mn}"
                )
            d1 = self._perm_vals[kn - 2]
            d2 = self._perm_vals[kn - 1]
            if d1 < d2:
                raise AssertionError(f"reorder postcondition failed at n={nn}")
            self.k.append(kn)
            s = (nn * _SCALE - self._perm_sum.at(kn - 2)) / _SCALE
            if not max(d1, d2) - SOLVE_A_TOL <= s <= d1 + d2 + SOLVE_A_TOL:
                raise AssertionError(
                    f"sigma bounds violated at n={nn}: sigma={s}, d1={d1}, d2={d2}"
                )
            self.sigma.append(s)
            self.a.append(_solve_a(s, d1, d2))


def assert_matches_reference(make_source, rows):
    """Emit ``rows`` rows from a stream over ``make_source()`` and check,
    after each, its newest m, k, sigma, a and its held term count against
    the reference walk over a second copy of the source."""
    stream, ref = TetrisStream(make_source()), ReferenceThresholds(make_source())
    for n in range(1, rows + 1):
        stream.next_row()
        ref._ensure_rows(n)
        got = (stream.m[-1], stream.k[-1], stream.sigma[-1].hex(), stream.a[-1].hex(), len(stream._vals))
        want = (ref.m[-1], ref.k[-1], ref.sigma[-1].hex(), ref.a[-1].hex(), len(ref._vals))
        assert got == want, n
    assert stream.pi == ref.pi and stream._labels == ref._labels
    assert [v.hex() for v in stream._perm_vals] == [v.hex() for v in ref._perm_vals]



@ORACLE
@given(st.sampled_from([0.1, 0.25, 1 / 3, 0.4, 0.5]), st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
def test_thresholds_match_reference_constant_tails(c, head):
    spec = DiagonalSpec(() if head is None else (head,), ConstantTail(c))
    assert_matches_reference(lambda: enumerate(spec.values()), 150)


@ORACLE
@given(st.floats(0.25, 0.5), st.floats(0.2, 0.5), st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
def test_thresholds_match_reference_power_tails(c, p, head):
    # at most about 6,400 terms for 40 rows
    spec = DiagonalSpec(() if head is None else (head,), PowerTail(c, p))
    assert_matches_reference(lambda: enumerate(spec.values()), 40)


HOSTILE_TERMS = [0.25, 0.5, 0.1, 0.4, 1 / 3, -0.0, 2.0**-60, 5e-324, -1e-13]


@ORACLE
@given(
    st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 0.75]),
    st.lists(st.sampled_from(HOSTILE_TERMS), min_size=1, max_size=8),
    st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3),
    st.integers(0, 10**6),
)
def test_thresholds_match_reference_labelled_sources(head, pattern, bulk, first_label):
    # (label, value) pairs with exact hits (four 0.25s, two 0.5s), signed
    # zeros and tiny terms, repeated forever; ``bulk`` keeps the sum divergent
    def make_source():
        values = itertools.chain([head], itertools.cycle(pattern + bulk))
        return zip(itertools.count(first_label, 3), values)

    assert_matches_reference(make_source, 60)
