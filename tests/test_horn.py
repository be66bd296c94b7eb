"""Finite construction from prescribed spectrum and diagonal."""

import hashlib
import math

import numpy as np
import pytest

from carpenter import MajorizationInput, Move, horn_build
from carpenter.horn import _prefix_majorized, _waterfall


def random_majorization_input(rng, n_max=20, m_max=60):
    """Random spectrum plus a diagonal obtained from it by pinching.

    Averaging pairs of entries (a T-transform) preserves majorization, so the
    result is valid by construction.
    """
    n = rng.integers(1, n_max + 1)
    m = rng.integers(n, m_max + 1)
    lams = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
    d = np.concatenate([lams, np.zeros(m - n)])
    for _ in range(3 * m):
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        t = rng.uniform(0.0, 1.0)
        di, dj = d[i], d[j]
        d[i] = t * di + (1.0 - t) * dj
        d[j] = (1.0 - t) * di + t * dj
    # keep the total exact despite the float mixing above
    d[0] += math.fsum(lams) - math.fsum(d)
    return MajorizationInput(tuple(lams), tuple(d))


def test_check_majorization_examples():
    assert MajorizationInput((1.0, 1.0), (2 / 3, 2 / 3, 2 / 3)).first_violation() is None
    assert MajorizationInput((1.0,), (1.0,)).first_violation() is None
    assert MajorizationInput((1.0,), (0.6, 0.6)).first_violation() is not None


def test_first_violation_names_the_problem():
    assert MajorizationInput((1.0, 1.0), (2 / 3, 2 / 3, 2 / 3)).first_violation() is None
    bad = MajorizationInput((1.0, 1.0), (1.5, 0.5))
    assert bad.first_violation() is not None
    with pytest.raises(ValueError):
        horn_build(bad)


def convex_mix(E, i, j, alpha):
    """E rotated by the convex-mix Move that horn_build plans for a single bump."""
    out = np.array(E, dtype=float)
    Move(i, j, math.sqrt(alpha), -math.sqrt(1.0 - alpha)).apply_inplace(out)
    return out


def test_check_majorization_rejects_non_finite():
    # NaN fails every comparison, so without this check ((nan,), (1, 1))
    # passes and builds [[1, 1], [1, 1]], whose eigenvalues are (2, 0)
    for lams, diag in [
        ((1.0,), (0.5, math.nan, 0.5)),
        ((math.nan,), (1.0, 1.0)),
        ((math.inf,), (math.inf,)),
    ]:
        inp = MajorizationInput(lams, diag)
        assert inp.first_violation() == "eigenvalues and diagonal entries must be finite"
        with pytest.raises(ValueError):
            horn_build(inp)


def scalar_prefix_majorized(vals, lams, tol):
    run_v = run_l = 0.0
    for t, v in enumerate(vals):
        run_v += v
        if t < len(lams):
            run_l += lams[t]
        if run_v > run_l + tol:
            return False
    return True


def scalar_waterfall(head, lams, delta):
    # the slack of the exact prefix sums: TwoSum's error of each step of the
    # running sum, accumulated and taken off
    slack = []
    lam_prefix = d_prefix = err_run = 0.0
    for t, dt in enumerate(head):
        lam_prefix += lams[t] if t < len(lams) else 0.0
        s = d_prefix + dt
        bb = s - d_prefix
        err_run += (d_prefix - (s - bb)) + (dt - bb)
        d_prefix = s
        slack.append((lam_prefix - d_prefix) - err_run)
    for t in range(len(slack) - 2, -1, -1):
        slack[t] = min(slack[t], slack[t + 1])
    x = []
    remaining, absorbed = delta, 0.0
    for t, dt in enumerate(head):
        room = slack[t] - absorbed
        if t > 0:
            room = min(room, x[t - 1] - dt)
        add = min(remaining, max(room, 0.0))
        x.append(dt + add)
        absorbed += add
        remaining -= add
    if remaining > 1e-9 * max(1.0, delta):
        raise AssertionError("left over")
    x[-1] += remaining
    return x


def test_planner_scans_match_scalar_reference():
    # The array scans of _plan_peels against plain loops over Python floats,
    # bit for bit, on sorted, tied, zero-signed and unsorted heads.
    rng = np.random.default_rng(3)
    for k in range(3000):
        m = int(rng.integers(1, 30))
        if k % 4 == 0:
            head = np.sort(rng.uniform(0.0, 1.0, m))[::-1]
        elif k % 4 == 1:
            head = np.sort(rng.integers(0, 4, m) / 4.0)[::-1]
        elif k % 4 == 2:
            head = np.sort(rng.choice([0.0, -0.0, 1e-300, 0.25, 0.5], m))[::-1]
        else:
            head = rng.uniform(0.0, 1.0, m)
        lams = rng.choice([0.5, 1.0, 2.0, float(rng.uniform(0.1, 2.0))], int(rng.integers(1, m + 3)))
        lam_run = np.cumsum(lams)
        delta = float(rng.choice([0.0, 1e-15, rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0)]))
        assert _prefix_majorized(head, lam_run, 1e-12) == scalar_prefix_majorized(
            head.tolist(), lams.tolist(), 1e-12
        )
        try:
            want = np.array(scalar_waterfall(head.tolist(), lams.tolist(), delta))
        except AssertionError:
            with pytest.raises(AssertionError):
                _waterfall(head, lam_run, delta)
            continue
        assert _waterfall(head, lam_run, delta).tobytes() == want.tobytes()


def test_convex_mix_examples():
    E = np.diag([1.0, 0.0])
    out = convex_mix(E, 0, 1, 0.5)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert out[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert abs(out[0, 1]) == pytest.approx(0.5, abs=1e-15)

    assert np.array_equal(convex_mix(E, 0, 1, 1.0), E)

    out = convex_mix(np.diag([1.0, 1 / 3]), 0, 1, 0.5)
    assert np.allclose(np.diag(out), [2 / 3, 2 / 3], atol=1e-15)


def test_horn_build_rank_two_constant_diagonal():
    inp = MajorizationInput((1.0, 1.0), (2 / 3, 2 / 3, 2 / 3))
    S, start, plan = horn_build(inp, return_plan=True)
    assert np.allclose(np.diag(S), 2 / 3, atol=1e-12)
    assert np.max(np.abs(S @ S - S)) <= 1e-12
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 1.0], atol=1e-9)
    # the single peel repairs with the balanced mix from the worked run:
    # cos^2 = alpha = 1/2
    assert len(plan) == 1
    assert plan.moves[0].c ** 2 == pytest.approx(0.5, abs=1e-12)
    # replay is bitwise: the plan records exactly the applied rotations
    assert np.array_equal(plan.replay(start), S)


def test_horn_build_already_diagonal():
    S = horn_build(MajorizationInput((1.0,), (1.0, 0.0, 0.0)))
    assert np.array_equal(S, np.diag([1.0, 0.0, 0.0]))


def test_horn_build_beyond_projections():
    S = horn_build(MajorizationInput((2.0, 1.0), (1.0, 1.0, 1.0)))
    assert np.allclose(np.diag(S), 1.0, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 2.0], atol=1e-8)


def test_horn_build_heavy_head():
    # all entries equal and large: the peel's head overshoots a single bump
    # and the surplus has to be spread across several head entries
    inp = MajorizationInput((1.0,) * 4, (0.8,) * 5)
    S = horn_build(inp)
    assert np.allclose(np.diag(S), 0.8, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-8)


def test_horn_build_unsorted_diagonal_order_preserved():
    d = (0.2, 0.9, 0.5, 0.4)
    S = horn_build(MajorizationInput((1.0, 1.0), d))
    assert np.max(np.abs(np.diag(S) - d)) <= 1e-10


def test_horn_build_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        inp = random_majorization_input(rng)
        S = horn_build(inp)
        assert np.max(np.abs(np.diag(S) - inp.diag)) <= 1e-10
        expected = np.zeros(len(inp.diag))
        expected[: len(inp.lambdas)] = sorted(inp.lambdas, reverse=True)
        got = np.sort(np.linalg.eigvalsh(S))[::-1]
        assert np.max(np.abs(got - expected)) <= 1e-8
        assert np.array_equal(S, S.T)


def test_horn_build_replay_matches():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inp = random_majorization_input(rng, n_max=8, m_max=24)
        S, start, plan = horn_build(inp, return_plan=True)
        assert np.max(np.abs(plan.replay(start) - S)) <= 1e-12


# sha256 of S.tobytes() and of plan.replay(start).tobytes(), recorded before
# the repair records became Moves (kind/parameter pairs then). Cases 0-5 come
# from random_majorization_input(default_rng(7), n_max=8, m_max=24); case 0
# plans both kinds of repair, case 4 none. "heavy" is the waterfall input of
# test_horn_build_heavy_head.
HORN_DIGESTS = {
    0: "56b954680a70dcd8fbfb821cd66c8c4019600adf7889d234548475dc6de9ac84",
    1: "d0e742ab4cb5d6ffdbbd4c71e758b9ec0169545c9a648d526f34fa2fdb218ac2",
    2: "80f82330a8475a74740310336656657d063c2178c300292e43be44c884290e8c",
    3: "c2b8f4fc6c190f5eac43a8b443f99e8cba1a1e764a6b158a5f0f814e5c6bc96b",
    4: "2f997d4533a15257f1a1d19086498014cc80aa01a942390cc24cedcb9d68af0c",
    5: "b369e8cf8857c44c96e5c49af996b6aeea9c209cf295a4b974e0fac553fa4154",
    "heavy": "81ca27c8e767e3c4a343807374ce491610dee4d22ffddd1c15927583aed744a9",
}


def test_horn_build_bit_identical():
    rng = np.random.default_rng(7)
    cases = {t: random_majorization_input(rng, n_max=8, m_max=24) for t in range(6)}
    cases["heavy"] = MajorizationInput((1.0,) * 4, (0.8,) * 5)
    for key, inp in cases.items():
        S, start, plan = horn_build(inp, return_plan=True)
        assert hashlib.sha256(S.tobytes()).hexdigest() == HORN_DIGESTS[key], key
        assert hashlib.sha256(plan.replay(start).tobytes()).hexdigest() == HORN_DIGESTS[key], key
