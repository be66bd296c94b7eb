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
    build_summable,
    check_projection,
    check_rows,
    necessity_oracle,
)


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
