"""Sequence surgery and the rotations that undo it on a matrix."""

import json
import math

import numpy as np
import pytest

from carpenter import (
    Move,
    MovePlan,
    OpsRequest,
    classify,
    DiagonalSpec,
    ops_restore,
    ops_shift,
)
from carpenter.moves import TARGET_TOL, _solve_rotation_angle, pair_products, pair_sum, rotate_to


def test_ops_request_validation():
    d = [0.1, 0.2, 0.6]
    with pytest.raises(ValueError):
        OpsRequest(d, (0, 2), (2,), 0.1)  # overlap
    with pytest.raises(ValueError):
        OpsRequest(d, (2,), (0,), 0.1)  # low block above high block
    with pytest.raises(ValueError):
        OpsRequest(d, (0,), (2,), 0.5)  # budget above sum of I0
    with pytest.raises(ValueError):
        OpsRequest(d, (0,), (2,), -0.1)


def test_ops_shift_greedy_example():
    req = OpsRequest([0.1, 0.2, 0.6], (0, 1), (2,), 0.2)
    assert ops_shift(req) == [0.0, 0.1, 0.8]


def test_ops_shift_zero_and_caps():
    d = [0.1, 0.2, 0.6]
    assert ops_shift(OpsRequest(d, (0,), (2,), 0.0)) == d
    assert ops_shift(OpsRequest([0.5, 0.5], (0,), (1,), 0.5)) == [0.0, 1.0]


def test_ops_shift_contract_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        d = sorted(rng.uniform(0.0, 1.0, size=n))
        cut = int(rng.integers(1, n))
        i0 = tuple(range(cut))
        i1 = tuple(range(cut, n))
        give = math.fsum(d[i] for i in i0)
        absorb = math.fsum(1.0 - d[i] for i in i1)
        eta0 = rng.uniform(0.0, 1.0) * min(give, absorb)
        dt = ops_shift(OpsRequest(d, i0, i1, eta0))
        # off the blocks nothing moves; inside, directions are one-sided
        for i in range(n):
            if i in i0:
                assert -1e-15 <= d[i] - dt[i] and dt[i] >= -1e-15
            elif i in i1:
                assert -1e-15 <= dt[i] - d[i] and dt[i] <= 1.0 + 1e-15
            else:
                assert dt[i] == d[i]
        assert abs(math.fsum(d[i] - dt[i] for i in i0) - eta0) <= 1e-12
        assert abs(math.fsum(dt[i] - d[i] for i in i1) - eta0) <= 1e-12


def test_ops_shift_defect_sum_bookkeeping():
    # transferring eta0 from below-half entries to at-least-half entries
    # lowers both defect sums by exactly eta0
    d = [0.1, 0.3, 0.4, 0.6, 0.7]
    eta0 = 0.15
    dt = ops_shift(OpsRequest(d, (0, 1), (3, 4), eta0))
    before = classify(DiagonalSpec(d))
    after = classify(DiagonalSpec(dt))
    assert after.a == pytest.approx(before.a - eta0, abs=1e-12)
    assert after.b == pytest.approx(before.b - eta0, abs=1e-12)
    assert after.verdict is before.verdict


def test_rotate_to_diagonal_examples():
    # rotate_to works in place and returns the Move it applied
    out = np.diag([0.0, 1.0])
    move = rotate_to(out, 0, 1, 0.5)
    assert (move.i, move.j) == (0, 1)
    assert math.atan2(move.s, move.c) == pytest.approx(math.pi / 4, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert out[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(MovePlan([move]).replay(np.diag([0.0, 1.0])), out)

    E = np.diag([0.0, 1.0])
    move = rotate_to(E, 0, 1, 0.0)
    assert (move.c, move.s) == (1.0, 0.0) and np.array_equal(E, np.diag([0.0, 1.0]))

    out = np.full((2, 2), 0.5)
    move = rotate_to(out, 0, 1, 1.0)
    assert abs(math.atan2(move.s, move.c)) == pytest.approx(math.pi / 4, abs=1e-12)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_rotate_to_diagonal_rejects_unreachable_target():
    E = np.diag([0.0, 1.0])
    with pytest.raises(ValueError) as exc:
        rotate_to(E, 0, 1, 1.5)
    assert "[" in str(exc.value)  # interval is reported
    assert np.array_equal(E, np.diag([0.0, 1.0]))  # untouched on failure


def test_rotate_spectrum_preserved():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    E = (A + A.T) / 2
    lo, hi = sorted((E[1, 1], E[2, 2]))
    out = np.array(E)
    rotate_to(out, 1, 2, 0.7 * lo + 0.3 * hi)
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(E), atol=1e-12)
    untouched = [0, 3]
    assert np.allclose(np.diag(out)[untouched], np.diag(E)[untouched], atol=0)


def test_ops_restore_worked_example():
    d = [0.1, 0.2, 0.6]
    dt = [0.0, 0.1, 0.8]
    E, plan = ops_restore(np.diag(dt), dt, d, (0, 1), (2,))
    assert np.allclose(np.diag(E), d, atol=1e-12)
    assert [(m.i, m.j) for m in plan.moves] == [(0, 2), (1, 2)]
    assert np.allclose(np.sort(np.linalg.eigvalsh(E)), [0.0, 0.1, 0.8], atol=1e-9)


def test_ops_restore_trivial_and_single_pair():
    d = [0.3, 0.7]
    E, plan = ops_restore(np.diag(d), d, d, (0,), (1,))
    assert len(plan) == 0 and np.array_equal(E, np.diag(d))

    E, plan = ops_restore(np.diag([0.0, 1.0]), [0.0, 1.0], [0.3, 0.7], (0,), (1,))
    assert len(plan) == 1
    assert np.allclose(np.diag(E), [0.3, 0.7], atol=1e-12)
    assert abs(E[0, 1]) == pytest.approx(math.sqrt(0.21), abs=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(E)), [0.0, 1.0], atol=1e-9)


def test_ops_restore_replay():
    d = [0.05, 0.15, 0.3, 0.55, 0.9]
    i0, i1 = (0, 1, 2), (3, 4)
    eta0 = 0.25
    dt = ops_shift(OpsRequest(d, i0, i1, eta0))
    start = np.diag(dt)
    E, plan = ops_restore(start, dt, d, i0, i1)
    assert np.max(np.abs(plan.replay(start) - E)) <= 1e-12


def test_move_plan_serialization_round_trip():
    plan = MovePlan()
    plan.append(Move(0, 2, math.sqrt(0.5), -math.sqrt(0.5)))
    theta = -0.7853981633974483
    plan.append(Move(1, 3, math.cos(theta), math.sin(theta)))
    text = plan.to_json_lines()
    assert json.loads(text.splitlines()[0]) == {"i": 0, "j": 2, "c": math.sqrt(0.5), "s": -math.sqrt(0.5)}
    again = MovePlan.from_json_lines(text)
    assert again.moves == plan.moves
    E = np.diag([0.9, 0.4, 0.3, 0.1])
    assert np.array_equal(plan.replay(E), again.replay(E))


def two_pass_rotation(E, i, j, c, s):
    # The two-sided update, written out apart from rotate_pair_inplace: both
    # rows, then both columns of the row-rotated matrix, then the (i, j)
    # pair mirrored.
    ri = c * E[i, :] + s * E[j, :]
    rj = -s * E[i, :] + c * E[j, :]
    E[i, :] = ri
    E[j, :] = rj
    ci = c * E[:, i] + s * E[:, j]
    cj = -s * E[:, i] + c * E[:, j]
    E[:, i] = ci
    E[:, j] = cj
    E[j, i] = E[i, j]


def test_rows_only_rotation_matches_two_pass_reference():
    rng = np.random.default_rng(17)
    specials = [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (math.sqrt(0.5), -math.sqrt(0.5))]
    for trial in range(2000):
        n = int(rng.integers(2, 12))
        A = rng.standard_normal((n, n))
        if trial % 2:
            A[rng.random((n, n)) < 0.7] = 0.0
        if trial % 5 == 0:
            A[rng.random((n, n)) < 0.2] = -0.0
        E = A.copy()
        lower = np.tril_indices(n, -1)
        E[lower] = A.T[lower]  # exactly symmetric, signed zeros too
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        if trial < len(specials):
            c, s = specials[trial]
        else:
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            c, s = math.cos(theta), math.sin(theta)
        want = E.copy()
        two_pass_rotation(want, i, j, c, s)
        got = E.copy()
        Move(i, j, c, s).apply_inplace(got)
        assert got.tobytes() == want.tobytes(), (trial, i, j, c, s)
        assert np.array_equal(got, got.T)


def test_replay_rejects_non_symmetric_start():
    plan = MovePlan([Move(0, 1, math.sqrt(0.5), math.sqrt(0.5))])
    with pytest.raises(ValueError, match="symmetric"):
        plan.replay(np.array([[0.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        plan.replay(np.zeros((2, 3)))


def test_ops_restore_rejects_non_symmetric_start():
    dt = [0.0, 1.0]
    E = np.diag(dt)
    E[1, 0] = 1e-300
    with pytest.raises(ValueError, match="symmetric"):
        ops_restore(E, dt, [0.3, 0.7], (0,), (1,))


# The angle solver as it was before it compared its two candidates directly,
# kept verbatim as the oracle: a set of the normalized candidates, sorted by
# (|t|, -t).
def reference_solve_rotation_angle(u: float, v: float, w: float, target: float) -> float:
    mid = 0.5 * (u + v)
    amp = math.hypot(0.5 * (u - v), w)
    if amp == 0.0:
        if abs(target - mid) > TARGET_TOL:
            raise ValueError(f"target {target} unattainable from a scalar 2x2 block")
        return 0.0
    gap = target - mid
    if abs(gap) > amp + TARGET_TOL:
        raise ValueError(
            f"target {target} outside attainable interval [{mid - amp}, {mid + amp}]"
        )
    phi = math.atan2(w, 0.5 * (u - v))
    gamma = math.acos(min(1.0, max(-1.0, gap / amp)))

    def normalize(t: float) -> float:
        t = math.remainder(t, math.pi)
        if t <= -math.pi / 2:
            t += math.pi
        return t

    cand = sorted({normalize((phi + gamma) / 2.0), normalize((phi - gamma) / 2.0)},
                  key=lambda t: (abs(t), -t))
    return cand[0]


def angle_outcome(solve, *args):
    try:
        return solve(*args).hex()
    except ValueError as e:
        return str(e)


def test_rotation_angle_matches_reference():
    # bit for bit, on random blocks and on ties: w = +-0 puts the two
    # candidates at +-gamma/2 (about 0 when u > v, about pi/2 when u < v),
    # and u = v with w = 0 leaves amp = 0
    rng = np.random.default_rng(11)
    ties = 0
    for k in range(20_000):
        u, v = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        if k % 5 == 0:
            v = u
        w = [0.0, -0.0, float(rng.uniform(-1.0, 1.0))][k % 3]
        mid, amp = 0.5 * (u + v), math.hypot(0.5 * (u - v), w)
        s = [-1.0, 1.0, float(rng.uniform(-1.0, 1.0)), 1.0 + 5e-13, float(rng.uniform(1.1, 2.0))][k % 7 % 5]
        target = mid + s * amp if amp else mid + [0.0, 1e-13, 0.5][k % 3]
        got = angle_outcome(_solve_rotation_angle, u, v, w, target)
        assert got == angle_outcome(reference_solve_rotation_angle, u, v, w, target), (u, v, w, target)
        if amp and w == 0.0 and abs(s) < 1.0:
            ties += 1
    assert ties > 1000


def dense_pair_sum(n, runs):
    """The n x n sum of np.outer(v, v) over the ``(labels, v)`` runs, added
    in run order onto float zeros: the reference for the pair kernel. The
    labels of one run must be distinct."""
    P = np.zeros((n, n))
    for labels, v in runs:
        P[np.ix_(labels, labels)] += np.outer(v, v)
    return P


def kernel_pair_sum(n, runs):
    lens = [len(labels) for labels, _ in runs]
    labels = [lab for run, _ in runs for lab in run]
    values = [x for _, v in runs for x in v]
    return pair_sum(n, *pair_products(lens, labels, values))


def test_pair_kernel_matches_dense_outer_sums_bit_for_bit():
    tiny = 5e-324
    runs = [
        ([], []),
        ([3], [0.7]),
        ([0, 2, 5], [0.1, -0.0, 0.3]),
        ([], []),
        ([2, 0, 4, 1], [2.0**-1022, 0.6, -0.25, tiny]),
        ([5, 3], [-0.0, 1.0 / 3.0]),
        ([2], [tiny]),
    ]
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = int(rng.integers(0, 6))
        labels = rng.permutation(6)[:k].tolist()
        pick = rng.integers(0, 4, size=k)
        v = np.where(pick == 0, rng.choice([0.0, -0.0, tiny, -tiny, 2.0**-1030]), rng.standard_normal(k))
        runs.append((labels, v.tolist()))
    for cut in (0, 1, 2, 5, 7, len(runs)):
        P = kernel_pair_sum(6, runs[:cut])
        assert P.dtype == float and P.shape == (6, 6)
        assert P.tobytes() == dense_pair_sum(6, runs[:cut]).tobytes()
        assert np.array_equal(P, P.T)


def test_pair_kernel_with_no_entries_gives_float_zeros():
    for lens in ([], [0, 0, 0]):
        rows, cols, w = pair_products(lens, [], [])
        assert rows.size == cols.size == w.size == 0
        P = pair_sum(4, rows, cols, w)
        assert P.dtype == float and P.tobytes() == np.zeros((4, 4)).tobytes()
    assert pair_sum(0, rows, cols, w).shape == (0, 0)


def test_pair_products_go_run_by_run_in_order():
    rows, cols, w = pair_products([2, 0, 1], [4, 1, 7], [0.5, 2.0, 3.0])
    assert rows.tolist() == [4, 4, 1, 1, 7]
    assert cols.tolist() == [4, 1, 4, 1, 7]
    assert w.tolist() == [0.25, 1.0, 1.0, 4.0, 9.0]
