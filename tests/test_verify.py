"""Defect reports, Gram checks, and the random-projection integrality probe."""

import json
import math

import numpy as np
import pytest

from carpenter import (
    ConstantTail,
    DiagonalSpec,
    SparseRow,
    TetrisStream,
    VerificationReport,
    build,
    build_summable,
    check_projection,
    check_rows,
    necessity_oracle,
)
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
    rep = check_projection(build_summable(d), d)
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
