"""Finite construction from prescribed spectrum and diagonal."""

import hashlib
import math

import numpy as np
import pytest

from carpenter import MajorizationInput, Move, check_projection, horn_build
from carpenter.horn import MAJORIZATION_TOL
from test_builder import integer_sum_diagonal


def random_majorization_input(rng, n_max=20, m_max=60):
    """Random spectrum plus a diagonal obtained from it by pinching.

    Averaging pairs of entries (a T-transform) preserves majorization, so the
    result is valid by construction.
    """
    n = rng.integers(1, n_max + 1)
    m = rng.integers(n, m_max + 1)
    lams = np.sort(rng.uniform(0.05, 3.0, size=n))[::-1]
    d = lams.tolist() + [0.0] * int(m - n)
    # two scalar draws give the pair that rng.integers(0, m, size=2) gives,
    # and rng.random() the number rng.uniform(0.0, 1.0) gives, at a third of
    # the cost; Python floats round as numpy's do
    for _ in range(3 * m):
        i, j = int(rng.integers(0, m)), int(rng.integers(0, m))
        if i == j:
            continue
        t = rng.random()
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


def checked_build(inp):
    """horn_build's (S, start, plan) for inp, after checking that S is
    exactly symmetric, that the plan replays on start to S bit for bit and
    that it has at most n - 1 rotations."""
    S, start, plan = horn_build(inp, return_plan=True)
    assert np.array_equal(S, S.T)
    assert np.array_equal(plan.replay(start), S)
    assert len(plan) <= len(inp.diag) - 1
    return S, start, plan


def convex_mix(E, i, j, alpha):
    """E rotated by the Move with cos^2 = alpha and a negative sine."""
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
    S, start, plan = checked_build(inp)
    assert np.allclose(np.diag(S), 2 / 3, atol=1e-12)
    assert np.max(np.abs(S @ S - S)) <= 1e-12
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 1.0], atol=1e-9)
    # diag(0, 1, 1): the first 2/3 comes from the 0 and a 1, the second
    # from the 1/3 left and the other 1, and the last entry takes the rest
    assert np.array_equal(np.diag(start), [0.0, 1.0, 1.0])
    assert len(plan) == 2


def test_horn_build_already_diagonal():
    S, _, plan = checked_build(MajorizationInput((1.0,), (1.0, 0.0, 0.0)))
    assert np.array_equal(S, np.diag([1.0, 0.0, 0.0]))
    assert len(plan) == 0


def test_horn_build_all_zero_diagonal_is_a_float_matrix():
    # the total 5e-324 is within MAJORIZATION_TOL of the zero diagonal: no
    # target is above its entry, so nothing rotates and the eigenvalue stays
    # on the last diagonal entry
    S, start, plan = checked_build(MajorizationInput((5e-324,), (0.0, 0.0)))
    assert S.dtype == np.float64
    assert len(plan) == 0
    assert np.array_equal(S, start)
    assert np.max(np.abs(np.diag(S))) <= MAJORIZATION_TOL


def test_horn_build_beyond_projections():
    S, _, _ = checked_build(MajorizationInput((2.0, 1.0), (1.0, 1.0, 1.0)))
    assert np.allclose(np.diag(S), 1.0, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 2.0], atol=1e-8)


def test_horn_build_heavy_head():
    # all entries equal: each target after the first is landed on what the
    # previous rotation left, a chain of four rotations
    inp = MajorizationInput((1.0,) * 4, (0.8,) * 5)
    S, _, plan = checked_build(inp)
    assert [(m.i, m.j) for m in plan.moves] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert np.allclose(np.diag(S), 0.8, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-8)


def test_horn_build_unsorted_diagonal_order_preserved():
    d = (0.2, 0.9, 0.5, 0.4)
    S, _, _ = checked_build(MajorizationInput((1.0, 1.0), d))
    assert np.max(np.abs(np.diag(S) - d)) <= 1e-10


def test_horn_build_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        inp = random_majorization_input(rng)
        S, _, _ = checked_build(inp)
        assert np.max(np.abs(np.diag(S) - inp.diag)) <= 1e-10
        expected = np.zeros(len(inp.diag))
        expected[: len(inp.lambdas)] = sorted(inp.lambdas, reverse=True)
        got = np.sort(np.linalg.eigvalsh(S))[::-1]
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_horn_build_replay_matches():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inp = random_majorization_input(rng, n_max=8, m_max=24)
        S, start, plan = horn_build(inp, return_plan=True)
        assert np.array_equal(plan.replay(start), S)
        assert np.array_equal(start, np.diag(np.diag(start)))
        assert np.array_equal(horn_build(inp), S)


def nudged_inputs(rng, count):
    """T-transform diagonals of spectra with ties, a few entries then moved
    by 3e-11 to 9e-11 either way: inputs that first_violation accepts or
    rejects by a margin below MAJORIZATION_TOL."""
    for _ in range(count):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(n, 12))
        lams = rng.choice([1.0, 2.0, float(rng.uniform(0.05, 3.0))], n)
        d = lams.tolist() + [0.0] * (m - n)
        for _ in range(int(rng.integers(0, m + 1))):
            i, j = int(rng.integers(0, m)), int(rng.integers(0, m))
            t = rng.random()
            d[i], d[j] = t * d[i] + (1.0 - t) * d[j], (1.0 - t) * d[i] + t * d[j]
        for i in rng.choice(m, int(rng.integers(1, m + 1)), replace=False):
            d[i] += float(rng.choice([-1.0, 1.0]) * rng.uniform(3e-11, 9e-11))
        yield MajorizationInput(lams, d)


def test_horn_build_at_the_majorization_tolerance():
    # first_violation accepts a slack of MAJORIZATION_TOL, so a target can
    # sit above every free entry; the build then leaves the slack on the
    # diagonal and keeps the spectrum exact
    edges = [
        MajorizationInput((1.0, 1.0, 1.0), (1.0 + 3e-11,) * 3),
        MajorizationInput((1.0, 1.0), (1.0 + 9e-11, 1.0, 0.0)),
        MajorizationInput((1.0,), (0.5 + 4e-11,) * 2),
        MajorizationInput((2.0, 1.0), (1.0 - 1e-12, 1.0, 1.0, -1e-12)),
        MajorizationInput((5e-324,), (0.0, 0.0)),
    ]
    fuzz = [inp for inp in nudged_inputs(np.random.default_rng(41), 6000) if inp.first_violation() is None]
    assert len(fuzz) >= 2000
    for inp in edges + fuzz:
        assert inp.first_violation() is None
        S, _, _ = checked_build(inp)
        padded = sorted(inp.lambdas) + [0.0] * (len(inp.diag) - len(inp.lambdas))
        assert np.max(np.abs(np.linalg.eigvalsh(S) - sorted(padded))) <= 1e-12, inp
        assert np.max(np.abs(np.diag(S) - inp.diag)) <= 2 * MAJORIZATION_TOL, inp


def pinned_projection_input(n):
    """integer_sum_diagonal(default_rng(n), n) with rank = its sum: for n =
    300 and 1000 both sums lie below n / 2."""
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    return MajorizationInput((1.0,) * round(math.fsum(d)), d)


@pytest.mark.parametrize("n", [300, 1000])
def test_factor_build_is_symmetric_and_matches_dense_replay(n):
    inp = pinned_projection_input(n)
    S, start, _ = checked_build(inp)
    assert np.array_equal(start, start.T)
    assert np.max(np.abs(np.diag(S) - inp.diag)) <= 1e-10


def test_idempotence_defect_at_4000():
    # the exact-mass gate: rotations of the exact diagonal start give a
    # defect of about 1e-15 here
    inp = pinned_projection_input(4000)
    S = horn_build(inp)
    assert np.array_equal(S, S.T)
    assert check_projection(S, inp.diag).idempotence_defect <= 1e-13


# sha256 of S.tobytes(), re-recorded when the build became n - 1 targeted
# rotations of the diagonal start. Cases 0-5 come from
# random_majorization_input(default_rng(7), n_max=8, m_max=24); "heavy" is
# the input of test_horn_build_heavy_head.
HORN_DIGESTS = {
    0: "85dc8c6b8d08cb887d5147d781cea4672fb5c5df001ee2f5e5fbecaa1b236451",
    1: "1eedfd10c5ba891776d741dbb6d10bea793f9640b42bc512300eb06a6fc1c967",
    2: "fbc290662a55464f00f348e0225f1987d2e5e674e2067ed9daff78b13d400d79",
    3: "0270c6354d584c6747e01cb6fc8228fdda81fd61633fec547cb2cf6e99d0ae9d",
    4: "d0f6569814e56153b9a053259bdb6018dd5acd3d65e6f1ff034a6cf6de5bab7c",
    5: "10c6294e30916d2972c3a518f366cdb3894fa4fdf755e9beddb0e123ea591f81",
    "heavy": "c8c5c8c39841ed1775ae21b8236cda5492807ffa3266cec0996b949e645fb45b",
}


def test_horn_build_bit_identical():
    rng = np.random.default_rng(7)
    cases = {t: random_majorization_input(rng, n_max=8, m_max=24) for t in range(6)}
    cases["heavy"] = MajorizationInput((1.0,) * 4, (0.8,) * 5)
    for key, inp in cases.items():
        S, _, _ = checked_build(inp)
        assert hashlib.sha256(S.tobytes()).hexdigest() == HORN_DIGESTS[key], key
