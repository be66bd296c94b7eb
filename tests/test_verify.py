"""Defect reports, Gram checks, and the random-projection integrality probe."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from carpenter import (
    ConstantTail,
    DiagonalSpec,
    SparseRow,
    TetrisStream,
    build,
    build_case1,
    check_projection,
    check_rows,
    necessity_oracle,
)
from carpenter import verify
from test_builder import integer_sum_diagonal


def test_check_projection_exact_diagonal_matrix():
    rep = check_projection(np.diag([1.0, 0.0]), [1.0, 0.0])
    assert rep.symmetry_defect == 0.0
    assert rep.idempotence_defect == 0.0
    assert rep.diagonal_max_error == 0.0
    assert rep.trace == 1.0
    assert rep.estimated_rank == 1
    assert rep.all_pass


def test_check_projection_on_built_matrix():
    d = [2 / 3, 2 / 3, 2 / 3]
    rep = check_projection(build_case1(d)[0], d)
    assert rep.idempotence_defect <= 1e-12
    assert rep.trace == pytest.approx(2.0, abs=1e-12)
    assert rep.estimated_rank == 2
    assert rep.all_pass


def test_check_projection_flags_non_idempotent():
    rep = check_projection(np.array([[0.5]]), [0.5])
    assert rep.idempotence_defect == pytest.approx(0.25, abs=1e-15)
    assert not rep.passes["idempotence"]
    assert not rep.all_pass
    # the failure is specific: symmetry and diagonal still pass
    assert rep.passes["symmetry"] and rep.passes["diagonal"]


def count_above_half(M):
    return int(np.count_nonzero(np.linalg.eigvalsh(M) > 0.5))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Records every np.linalg.eigvalsh call and still answers it."""
    real = np.linalg.eigvalsh
    calls = []

    def spy(M, *args, **kwargs):
        calls.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


@pytest.mark.parametrize("n", [5, 50, 300])
def test_estimated_rank_matches_eigensolver_on_builds(n):
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    P = build(d).matrix
    rep = check_projection(P, d)
    assert rep.estimated_rank == count_above_half(P) == round(math.fsum(d))


def test_passing_build_verifies_without_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a passing build")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    d = integer_sum_diagonal(np.random.default_rng(300), 300)
    res = build(d)
    assert res.report.all_pass
    assert res.report.estimated_rank == round(math.fsum(d))


@pytest.mark.parametrize("symmetric", [True, False])
def test_rank_certificate_edge(eigvalsh_calls, symmetric):
    # Perturb a built projection along a fixed direction, bisect for the
    # scale where the certificate stops holding, and check both sides: just
    # inside, the rank comes from the trace and every eigenvalue of the lower
    # triangle sits within 1/(4n) of 0 or 1; just outside, the eigensolver
    # runs. Either way the rank is the eigenvalue count.
    n = 50
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    P = build(d).matrix
    Z = np.random.default_rng(1).standard_normal((n, n))
    if symmetric:
        Z = Z + Z.T

    def certified(t):
        eigvalsh_calls.clear()
        check_projection(P + t * Z, d)
        return not eigvalsh_calls

    inside, outside = 1e-14, 1.0
    assert certified(inside) and not certified(outside)
    for _ in range(40):
        mid = math.sqrt(inside * outside)
        inside, outside = (mid, outside) if certified(mid) else (inside, mid)
    assert outside / inside < 1.0 + 1e-9
    for t, holds in ((inside, True), (outside, False)):
        Q = P + t * Z
        assert certified(t) is holds
        mu = np.linalg.eigvalsh(Q)
        assert check_projection(Q, d).estimated_rank == int(np.count_nonzero(mu > 0.5))
        if holds:
            assert np.max(np.minimum(np.abs(mu), np.abs(mu - 1.0))) <= 1.0 / (4 * n)


@pytest.mark.parametrize(
    "M, sym, idem, rank",
    [
        ([[0.5]], 0.0, 0.25, 0),
        # exactly idempotent but not symmetric: the rank is read from the
        # lower triangle, as the eigensolver reads it
        ([[1.0, 0.3], [0.0, 0.0]], 0.3, 0.0, 1),
        ([[1.0, math.nan], [0.0, 0.0]], math.nan, math.nan, 1),
    ],
)
def test_rank_falls_back_to_eigensolver(eigvalsh_calls, M, sym, idem, rank):
    rep = check_projection(np.array(M), [1.0] * len(M))
    assert eigvalsh_calls == [(len(M), len(M))]
    assert rep.estimated_rank == rank
    for got, want in ((rep.symmetry_defect, sym), (rep.idempotence_defect, idem)):
        assert got == want or (math.isnan(got) and math.isnan(want))


def k_ordered_square(P):
    # The schoolbook product with k outermost: entry (i, j) is a sequential
    # sum over k ascending. Products with a zero factor add exact zeros.
    out = np.zeros(P.shape)
    for k in range(P.shape[0]):
        out += np.outer(P[:, k], P[k, :])
    return out


def sparse_symmetric(rng, n, density):
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return A + A.T


def banded_projection_like(n, width):
    rng = np.random.default_rng(n)
    A = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - width), min(n, i + width + 1)
        A[i, lo:hi] = rng.uniform(-0.3, 0.3, hi - lo)
    return A + A.T


PAIR_CASES = {
    "sparse-symmetric": sparse_symmetric(np.random.default_rng(1), 60, 0.05),
    "sparse-general": np.random.default_rng(2).standard_normal((60, 60))
    * (np.random.default_rng(3).random((60, 60)) < 0.06),
    "empty-edge-rows": np.pad(sparse_symmetric(np.random.default_rng(4), 30, 0.1), 5),
    "single-nonzero": np.pad(np.array([[0.0, 0.7], [0.0, 0.0]]), ((2, 3), (1, 4))),
    "all-zero": np.zeros((4, 4)),
    # more than n^2 / 16 pairs, so the rows go in several blocks
    "row-blocks": banded_projection_like(400, 7),
    # one pair per row: the blocks are cut at 2^17 product entries
    "diagonal": np.diag(np.linspace(-1.0, 1.0, 400)),
}


def dense_defects(P, square):
    # _sparse_defects' fields from the dense formulas, with ``square`` for P @ P
    S = P - P.T
    D = square - P
    return (np.abs(S).max(), np.linalg.norm(S), np.abs(D).max(), np.linalg.norm(D), np.linalg.norm(P))


def sparse_defects(P):
    return verify._sparse_defects(verify.SparseMatrix.from_dense(P))


def assert_defects_match(got, want):
    # max-norms bit for bit; Frobenius norms up to the summation order
    sym, skew, idem, defect, p_norm = got
    assert (sym, idem) == (want[0], want[2])
    assert (skew, defect, p_norm) == pytest.approx((want[1], want[3], want[4]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_pair_product_matches_dense_product(name):
    P = PAIR_CASES[name]
    got = sparse_defects(P)
    assert got is not None
    assert_defects_match(got, dense_defects(P, k_ordered_square(P)))


def test_dense_and_non_finite_matrices_take_the_dense_product():
    P = np.random.default_rng(5).standard_normal((40, 40))
    assert sparse_defects(P) is None
    rep = check_projection(P, [0.0] * len(P))
    assert rep.symmetry_defect == np.abs(P - P.T).max()
    assert rep.idempotence_defect == np.abs(P @ P - P).max()
    Q = PAIR_CASES["sparse-symmetric"].copy()
    Q[3, 4] = math.nan
    assert sparse_defects(Q) is None
    with np.errstate(invalid="ignore"):
        rep = check_projection(Q, [0.0] * len(Q))
    assert math.isnan(rep.symmetry_defect) and math.isnan(rep.idempotence_defect)


def test_one_by_one_matrix_takes_the_dense_product():
    # one nonzero is more than n^2 / 8 of a 1 x 1 matrix
    one = np.array([[0.7]])
    assert sparse_defects(one) is None
    rep = check_projection(one, [0.7])
    assert rep.symmetry_defect == 0.0
    assert rep.idempotence_defect == abs(0.7 * 0.7 - 0.7)


def test_dense_matrix_falls_back_before_indexing(monkeypatch):
    # The nonzero count decides the route: a dense matrix is not turned into
    # index arrays, which would take 8 bytes for each of its n^2 nonzeros.
    P = np.random.default_rng(6).standard_normal((400, 400))
    indexed = []
    monkeypatch.setattr(verify.SparseMatrix, "from_dense", lambda *a, **k: indexed.append(a))
    rep = check_projection(P, [0.0] * len(P))
    assert indexed == []
    assert rep.symmetry_defect == np.abs(P - P.T).max()


@functools.lru_cache(maxsize=None)
def pinned_build(n):
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    P = build(d).matrix
    P.setflags(write=False)
    return d, P


def assert_report_matches_dense(Q, d):
    # the report against numpy's dense formulas: every field exactly, but
    # the idempotence defect within rounding of dgemm's summation order
    rep = check_projection(Q, d)
    assert rep.symmetry_defect == np.abs(Q - Q.T).max()
    assert abs(rep.idempotence_defect - np.abs(Q @ Q - Q).max()) <= 1e-15
    assert rep.diagonal_max_error == np.abs(np.diagonal(Q) - d).max()
    assert rep.trace == np.trace(Q)
    assert rep.estimated_rank == count_above_half(Q)


@pytest.mark.parametrize("n", [5, 50, 300, 1000])
def test_report_matches_dense_formulas_on_builds(n):
    d, P = pinned_build(n)
    assert_report_matches_dense(P, d)


def test_lone_mirror_counts_in_the_skew_norm():
    # zero one entry above the diagonal: its mirror below is then a nonzero
    # whose own mirror is 0.0, and the skew norm needs its lone-mirror term
    d, P = pinned_build(300)
    Q = P.copy()
    i, j = np.argwhere(np.triu(Q, 1) != 0.0)[0]
    Q[i, j] = 0.0
    got = sparse_defects(Q)
    assert got is not None
    assert_defects_match(got, dense_defects(Q, k_ordered_square(Q)))
    assert_report_matches_dense(Q, d)


def test_sparse_perturbations_on_both_sides_of_the_certificate(eigvalsh_calls):
    d, P = pinned_build(300)
    rng = np.random.default_rng(7)
    Z = np.zeros_like(P)
    Z[rng.integers(0, 300, 6), rng.integers(0, 300, 6)] = rng.standard_normal(6)
    for t, certified in ((1e-9, True), (1e-2, False)):
        Q = P + t * Z
        assert sparse_defects(Q) is not None
        eigvalsh_calls.clear()
        check_projection(Q, d)
        assert (not eigvalsh_calls) is certified
        assert_report_matches_dense(Q, d)


def test_verifying_a_build_makes_no_dense_temporary():
    # Verifying the pinned n = 1000 build, handed over dense, allocates less
    # than an n^2-byte mask would: np.flatnonzero makes none, and the rest
    # is O(nonzeros + pairs) besides a product buffer of n^2 / 32 entries.
    d, P = pinned_build(1000)
    tracemalloc.start()
    try:
        assert check_projection(P, d).all_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P.nbytes / 8


def test_building_at_ten_thousand_makes_no_dense_matrix():
    # build and verification at n = 10^4 keep P as its nonzeros (about 8 a
    # row); the dense P alone would be 800 MB
    d = integer_sum_diagonal(np.random.default_rng(10_000), 10_000)
    tracemalloc.start()
    try:
        res = build(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.report.all_pass
    assert peak < 32e6


# Report fields of build(integer_sum_diagonal(default_rng(n), n)).report as
# (symmetry, idempotence, diagonal error, trace, rank) from the dense product,
# re-recorded when finite builds moved from horn_build to build_case1.
# The idempotence defect may move by the rounding of a different summation
# order; nothing else may move.
BUILD_REPORTS = {
    5: (0.0, 1.1102230246251565e-16, 4.440892098500626e-16, 3.0, 3),
    50: (0.0, 2.3592239273284576e-16, 2.220446049250313e-16, 25.0, 25),
    300: (0.0, 2.220446049250313e-16, 1.1102230246251565e-16, 147.0, 147),
    1000: (0.0, 8.881784197001252e-16, 1.1102230246251565e-16, 488.0, 488),
}


NAN, INF = math.nan, math.inf


def report_fields(rep):
    return (rep.symmetry_defect, rep.idempotence_defect, rep.diagonal_max_error, rep.trace, rep.estimated_rank)


def same_report(a, b):
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(report_fields(a), report_fields(b)))


@pytest.mark.parametrize("n", [5, 50, 300, 1000])
def test_sparse_and_dense_inputs_give_the_same_report(n):
    # a build's own entries, and its dense matrix handed over by a caller,
    # are read through the same nonzeros: the reports agree bit for bit
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    res = build(d)
    assert same_report(check_projection(res.entries, d), res.report)
    assert same_report(check_projection(res.matrix, d), res.report)


def test_sparse_and_dense_inputs_agree_off_the_build():
    # the lone mirror and non-finite entries, handed over either way
    d, P = pinned_build(300)
    Q = P.copy()
    i, j = np.argwhere(np.triu(Q, 1) != 0.0)[0]
    Q[i, j] = 0.0
    cases = [(Q, d)]
    d = integer_sum_diagonal(np.random.default_rng(50), 50)
    for pos in ((1, 2), (0, 0)):
        for value in (NAN, INF, -INF):
            R = build(d).matrix
            R[pos] = value
            cases.append((R, d))
    for M, target in cases:
        with np.errstate(invalid="ignore"):
            sparse = check_projection(verify.SparseMatrix.from_dense(M), target)
            dense = check_projection(M, target)
        assert same_report(sparse, dense), (report_fields(sparse), report_fields(dense))


@pytest.mark.parametrize(
    "keys, values",
    [
        ([4, 0, 8], [0.5, 0.5, 0.5]),  # unsorted
        ([0, 4, 4, 8], [0.5, 0.25, 0.25, 0.5]),  # repeated
        ([0, 4, 9], [0.5, 0.5, 0.5]),  # past n^2 - 1
        ([-1, 4], [0.5, 0.5]),  # negative
        ([0, 4], [0.5, 0.5, 0.5]),  # more values than keys
        ([[0, 4]], [[0.5, 0.5]]),  # not one-dimensional
        ([0.0, 4.0], [0.5, 0.5]),  # not integers
    ],
)
def test_sparse_matrix_rejects_keys_out_of_form(keys, values):
    # the mirrors and row groups of _sparse_defects read sorted, distinct,
    # in-range keys; anything else is refused before a report is made
    with pytest.raises(ValueError):
        check_projection(verify.SparseMatrix(3, np.array(keys), np.array(values)), [0.5] * 3)


def test_sparse_matrix_takes_its_form_from_sequences():
    S = verify.SparseMatrix(2, [0, 3], [0.5, 0.5])
    assert S.keys.dtype.kind == "i" and S.values.dtype == float
    assert np.array_equal(S.toarray(), np.diag([0.5, 0.5]))
    assert verify.SparseMatrix(0, [], []).toarray().shape == (0, 0)
    rows, cols = verify.SparseMatrix(3, np.array([1, 5, 6]), np.ones(3)).coords()
    assert rows.tolist() == [0, 1, 2] and cols.tolist() == [1, 2, 0]


@pytest.mark.parametrize("keep_negative_zeros", [False, True])
def test_from_dense_keeps_the_nonzero_keys(keep_negative_zeros):
    # NaN and +-inf count as nonzero, a subnormal too; -0.0 only when asked
    A = np.array([
        [math.nan, 0.0, -0.0],
        [math.inf, 5e-324, -math.inf],
        [-0.0, -5e-324, 1.0],
    ])
    S = verify.SparseMatrix.from_dense(A, keep_negative_zeros=keep_negative_zeros)
    want = [0, 3, 4, 5, 7, 8] if not keep_negative_zeros else [0, 2, 3, 4, 5, 6, 7, 8]
    assert S.keys.tolist() == want
    assert S.values.tobytes() == A.ravel()[want].tobytes()
    # the same values scattered over a matrix of more entries than one mask
    # holds, against a plain loop
    rng = np.random.default_rng(6)
    B = np.zeros((300, 300))
    B.ravel()[rng.integers(0, B.size, 2000)] = rng.choice(A.ravel(), 2000)
    S = verify.SparseMatrix.from_dense(B, keep_negative_zeros=keep_negative_zeros)
    want = [
        k for k, x in enumerate(B.ravel().tolist())
        if x != 0.0 or math.isnan(x) or (keep_negative_zeros and math.copysign(1.0, x) < 0.0)
    ]
    assert S.keys.tolist() == want
    assert S.values.tobytes() == B.ravel()[want].tobytes()


def test_sparse_matrix_block_replaces_as_the_dense_matrix_does():
    rng = np.random.default_rng(8)
    A = np.where(rng.random((9, 9)) < 0.3, rng.standard_normal((9, 9)), 0.0)
    S = verify.SparseMatrix.from_dense(A)
    index = np.array([1, 4, 5, 8])
    E = S.block(index)
    assert np.array_equal(E, A[index][:, index])
    E[0, 1], E[2, 2], E[3, 0] = 2.0, 0.0, -1.5
    B = A.copy()
    for a, i in enumerate(index):
        B[i, index] = E[a]
    got = S.with_block(index, E)
    assert np.array_equal(got.keys, np.flatnonzero(B)) and np.array_equal(got.values, B.ravel()[got.keys])


@pytest.mark.parametrize("n", sorted(BUILD_REPORTS))
def test_build_reports_match_dense_product_reports(n):
    got = report_fields(build(integer_sum_diagonal(np.random.default_rng(n), n)).report)
    want = BUILD_REPORTS[n]
    assert got[:1] + got[2:] == want[:1] + want[2:]
    assert abs(got[1] - want[1]) <= 1e-15


@pytest.mark.parametrize(
    "pos, value, want",
    [
        ((1, 2), NAN, (NAN, NAN, 2.220446049250313e-16, 25.0, 25)),
        ((1, 2), INF, (INF, NAN, 2.220446049250313e-16, 25.0, 25)),
        ((1, 2), -INF, (INF, NAN, 2.220446049250313e-16, 25.0, 25)),
        ((0, 0), INF, (NAN, NAN, INF, INF, 0)),
        ((0, 0), -INF, (NAN, NAN, INF, -INF, 0)),
    ],
    ids=["off-diagonal-nan", "off-diagonal-inf", "off-diagonal-neg-inf", "diagonal-inf", "diagonal-neg-inf"],
)
def test_non_finite_entries_report_as_before(pos, value, want):
    # values recorded while every product was dense; the three off-diagonal
    # ones re-recorded when horn_build moved to the factor W
    d = integer_sum_diagonal(np.random.default_rng(50), 50)
    P = build(d).matrix
    P[pos] = value
    with np.errstate(invalid="ignore"):
        got = report_fields(check_projection(P, d))
    for g, w in zip(got, want):
        assert g == w or (math.isnan(g) and math.isnan(w)), (got, want)


@pytest.mark.parametrize("n", [3, 20, 80])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nan_in_lower_triangle_reports_failure(n, seed):
    # The eigensolver raises LinAlgError on all but one of these and returns
    # numbers on the other (n = 3, seed 1); the rank is 0 on all of them.
    d = integer_sum_diagonal(np.random.default_rng(seed), n)
    P = build(d).matrix
    P[0, 0] = NAN
    with np.errstate(invalid="ignore"):
        rep = check_projection(P, d)
    assert not rep.all_pass
    assert math.isnan(rep.diagonal_max_error) and math.isnan(rep.trace)
    assert rep.estimated_rank == 0


def test_check_projection_validates_shapes():
    with pytest.raises(ValueError):
        check_projection(np.zeros((2, 3)), [0.0, 0.0])
    with pytest.raises(ValueError):
        check_projection(np.zeros((2, 2)), [0.0])


def test_report_json_round_trip():
    rep = check_projection(np.diag([1.0, 0.0]), [1.0, 0.0])
    data = json.loads(rep.to_json())
    assert data["all_pass"] is True
    assert data["trace"] == 1.0
    assert set(data["pass"]) == {"symmetry", "idempotence", "diagonal"}


def test_check_rows_dense_and_sparse():
    assert check_rows([]) == 0.0
    assert check_rows([[1.0, 0.0]]) == 0.0
    # duplicated unit row: Gram has an off-diagonal 1
    assert check_rows([[1.0, 0.0], [1.0, 0.0]]) == 1.0
    s = TetrisStream(DiagonalSpec((), ConstantTail(0.4)))
    rows = [s.next_row(), s.next_row()]
    assert check_rows(rows) <= 1e-12


def test_check_rows_any_overlap_pattern():
    # supports out of order, and a wide row that overlaps a row two places
    # later in column order: every overlapping pair counts, not only neighbors
    wide = SparseRow(1, 0, (0.6, 0.0, 0.0, 0.8))
    rows = [SparseRow(3, 3, (1.0,)), wide, SparseRow(2, 1, (1.0,))]
    assert check_rows(rows) == pytest.approx(0.8, abs=1e-15)


def test_check_rows_matches_dense_gram():
    rng = np.random.default_rng(5)
    rows = []
    for n in range(40):
        start = int(rng.integers(0, 30))
        rows.append(SparseRow(n + 1, start, tuple(rng.standard_normal(int(rng.integers(1, 8))))))
    V = np.zeros((len(rows), 40))
    for r, row in enumerate(rows):
        V[r, row.start : row.start + len(row.values)] = row.values
    dense = np.max(np.abs(V @ V.T - np.eye(len(rows))))
    assert check_rows(rows) == pytest.approx(dense, rel=1e-12)


def test_necessity_oracle_small_cases():
    assert necessity_oracle(1, 1, trials=10)
    assert necessity_oracle(4, 0, trials=10)
    assert necessity_oracle(6, 3, trials=1000)


def test_necessity_oracle_is_deterministic():
    assert necessity_oracle(5, 2, trials=50, seed=7) == necessity_oracle(
        5, 2, trials=50, seed=7
    )


def test_necessity_oracle_validates_rank():
    with pytest.raises(ValueError):
        necessity_oracle(3, 4, trials=1)
