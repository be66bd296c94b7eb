"""Finite construction from prescribed spectrum and diagonal."""

import hashlib
import math

import numpy as np
import pytest

from carpenter import MajorizationInput, Move, check_projection, horn_build
from carpenter import horn
from carpenter.horn import _plan_peels, _waterfall
from carpenter.builder import _fit_to_sum
from carpenter.moves import rotate_rows_inplace
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
    # The planner's _waterfall against a plain loop over Python floats, bit
    # for bit, on sorted, tied, zero-signed and unsorted heads, with runs of
    # entries that have no room
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
        # the running sums padded to the head's length, held at their last
        # value, as _plan_peels hands them over
        lam_pad = np.cumsum(lams)[np.minimum(np.arange(m), len(lams) - 1)]
        delta = float(rng.choice([0.0, 1e-15, rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0)]))
        rng.integers(0, m)  # an unused draw; without it the later heads change
        try:
            want = np.array(scalar_waterfall(head.tolist(), lams.tolist(), delta))
        except AssertionError:
            with pytest.raises(AssertionError):
                _waterfall(head, lam_pad, delta)
            continue
        assert _waterfall(head, lam_pad, delta).tobytes() == want.tobytes()


def plan_bytes(blocks, repairs):
    """The planner's output with every float as its bytes."""
    def rec(x):
        if isinstance(x, Move):
            return (x.i, x.j, x.c.hex(), x.s.hex())
        return (x[0], x[1], float(x[2]).hex())

    return (
        [(np.asarray(v, dtype=float).tobytes(), list(i)) for v, i in blocks],
        [[rec(x) for x in rs] for rs in repairs],
    )


def planner_args(inp):
    """_plan_peels' arguments for inp, as horn_build's _start_factor makes them."""
    order = sorted(range(len(inp.diag)), key=lambda k: -inp.diag[k])
    return sorted(inp.lambdas, reverse=True), [max(inp.diag[k], 0.0) for k in order], order


def build_core(d):
    """The projection input of an integer-sum d: the complement 1 - d when
    the sum is above n / 2, without its zeros, fitted to its integer sum."""
    if math.fsum(d) > len(d) / 2.0:
        d = [1.0 - x for x in d]
    core = [x for x in d if x != 0.0]
    rank = round(math.fsum(core))
    _fit_to_sum(core, rank)
    return MajorizationInput((1.0,) * rank, core)


# sha256 over repr(plan_bytes(...)) of each planner output, case by case, in
# the order of the test below. Recorded when _plan_peels had an in-place
# twin that edited the head and restarted its prefix sums; both planners,
# and the whole-head one now left, gave it.
PLANNER_DIGEST = "911a54f9da9dfea6a8c4a6d2f41e8b9169b9d912af03811c4a785f7d37a850cb"


def test_planner_matches_reference_bit_for_bit(monkeypatch):
    unsorted = []

    def recording_waterfall(head, lam_pad, delta):
        x = _waterfall(head, lam_pad, delta)
        if np.any(x[:-1] < x[1:]):
            unsorted.append(len(x))
        return x

    monkeypatch.setattr(horn, "_waterfall", recording_waterfall)
    rng = np.random.default_rng(13)
    inputs = [random_majorization_input(rng, n_max=1 + k % 40, m_max=40 + k % 81) for k in range(3000)]
    inputs += [build_core(integer_sum_diagonal(np.random.default_rng(n), n)) for n in range(2, 81)]
    inputs += [
        build_core(integer_sum_diagonal(np.random.default_rng([seed, n]), n))
        for n in (200, 350, 600, 1000, 1500, 4000)
        for seed in (1, 2, 3)
    ]
    cases = [planner_args(inp) for inp in inputs]
    # signed zeros at the end of the head
    for inp in inputs[:60]:
        lam_desc, vals, order = planner_args(inp)
        cases.append((lam_desc, vals + [0.0, -0.0], order + [-1, -2]))
    digest = hashlib.sha256()
    for lam_desc, vals, order in cases:
        digest.update(repr(plan_bytes(*_plan_peels(lam_desc, list(vals), list(order)))).encode())
    assert digest.hexdigest() == PLANNER_DIGEST
    # a _waterfall whose leftover lifted the last entry above the one before
    # it, and the peels after it, are among the inputs (one comes in the
    # build of integer_sum_diagonal(default_rng([1, 200]), 200))
    assert unsorted


def test_planner_is_handed_a_sorted_nonnegative_head(monkeypatch):
    # _plan_peels has one path, for values sorted descending and >= 0; the
    # entries in [-1e-12, 0) that the input allows reach it as 0.0
    heads = []

    def recording_plan_peels(lam_desc, vals, idx):
        heads.append(list(vals))
        return _plan_peels(lam_desc, vals, idx)

    monkeypatch.setattr(horn, "_plan_peels", recording_plan_peels)
    rng = np.random.default_rng(29)
    for k in range(200):
        horn_build(random_majorization_input(rng, n_max=1 + k % 20, m_max=60))
    for n in (6, 40, 300):
        d = integer_sum_diagonal(np.random.default_rng(n), n)
        horn_build(MajorizationInput((1.0,) * round(math.fsum(d)), d))
        tiny = d + (-rng.uniform(0.0, 1e-12, 3)).tolist()
        horn_build(MajorizationInput((1.0,) * round(math.fsum(d)), tiny))
    assert len(heads) > 200
    for vals in heads:
        assert min(vals) >= 0.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))


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
    # replay is bitwise on the factor: the plan records exactly the applied
    # rotations
    assert replayed_factor_matches(inp)


def test_horn_build_already_diagonal():
    S = horn_build(MajorizationInput((1.0,), (1.0, 0.0, 0.0)))
    assert np.array_equal(S, np.diag([1.0, 0.0, 0.0]))


def test_horn_build_all_zero_diagonal_is_a_float_matrix():
    # the total 5e-324 is within MAJORIZATION_TOL of the zero diagonal, and
    # the start factor has no nonzero at all
    S = horn_build(MajorizationInput((5e-324,), (0.0, 0.0)))
    assert S.dtype == np.float64
    assert np.array_equal(S, np.zeros((2, 2)))


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


def factor_bytes(W):
    return [(sorted(row), np.array([row[k] for k in sorted(row)]).tobytes()) for row in W]


def replayed_factor_matches(inp):
    """Replay horn_build's plan on the rows of the start factor and compare
    the result, and its Gram matrix, with the build's own, bit for bit."""
    S, _, plan = horn_build(inp, return_plan=True)
    W, repairs = horn._start_factor(inp)
    W0 = [dict(row) for row in W]
    assert horn._repair(W, repairs) == plan
    for m in plan.moves:
        rotate_rows_inplace(W0, m.i, m.j, m.c, m.s)
    return factor_bytes(W0) == factor_bytes(W) and np.array_equal(horn._gram(W0, len(W0)), S)


def test_factor_replay_is_bitwise():
    rng = np.random.default_rng(5)
    inputs = [random_majorization_input(rng, n_max=8, m_max=24) for _ in range(10)]
    inputs.append(MajorizationInput((1.0,) * 4, (0.8,) * 5))
    for inp in inputs:
        assert replayed_factor_matches(inp), inp


def pinned_projection_input(n):
    """integer_sum_diagonal(default_rng(n), n) with rank = its sum: for n =
    300 and 1000 both sums lie below n / 2."""
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    return MajorizationInput((1.0,) * round(math.fsum(d)), d)


@pytest.mark.parametrize("n", [300, 1000])
def test_factor_build_is_symmetric_and_matches_dense_replay(n):
    S, start, plan = horn_build(pinned_projection_input(n), return_plan=True)
    assert np.array_equal(S, S.T)
    assert np.array_equal(start, start.T)
    assert np.max(np.abs(plan.replay(start) - S)) <= 1e-14


def test_idempotence_defect_at_4000():
    # the exact-mass gate: the defect was 1.9e-11 before the waterfall's
    # slack was compensated, 3.7e-14 after
    inp = pinned_projection_input(4000)
    S = horn_build(inp)
    assert np.array_equal(S, S.T)
    assert check_projection(S, inp.diag).idempotence_defect <= 1e-13


# sha256 of S.tobytes() and of plan.replay(start).tobytes(), re-recorded when
# the build moved to the factor W (S = W W^T, so the start's diagonal is the
# square of the factor's entries and the dense replay matches S to rounding).
# Cases 0-5 come from random_majorization_input(default_rng(7), n_max=8,
# m_max=24); case 0 plans both kinds of repair, case 4 none. "heavy" is the
# waterfall input of test_horn_build_heavy_head.
HORN_DIGESTS = {
    0: (
        "612f59ec2afbf2e24249bdcf69697b64e445c4aaa945aaf475c72937add76b1b",
        "a9bb0698c7ad2d5399653f0013c34db4efd21a751d102e10286f2f25949712fc",
    ),
    1: (
        "b197c4dd7ade34ce16c6b4af72087021822d2e534d17c16dc1424b1fea49d683",
        "01b0a1ab059d14b922c5d76f50fae2e73200973c20fa19d9571d97717f382bfa",
    ),
    2: (
        "91494b5557b912394058aa934ed556c5c66a3bd67f4e528e834cd0d93d11db86",
        "7610638703ecd455386babce73e006a5c17f2007b9478ba40592450035a044ba",
    ),
    3: (
        "75d0828e5363d1d7912d1fb2dc0cd69f1b654936ea1ea765b8b26366202f6575",
        "d9cd73023347b44cef1655f03a4c7023f9f89889321a78ff3ee77f27dc6d7256",
    ),
    4: (
        "dbb382efbff20bfe24f90371279fc9b19b7d4c55c6dd7b6fcfdd36420131b87d",
        "dbb382efbff20bfe24f90371279fc9b19b7d4c55c6dd7b6fcfdd36420131b87d",
    ),
    5: (
        "3655afc17298cf9ba85fc6cde795c5c4a15cc8104fe61c1c42ed6f0f0f0c42dd",
        "a2b8af238704b1494ace24b9c43735224854c580c6e4791ec9a350694c62f551",
    ),
    "heavy": (
        "cb64b6293a53806918c471bde3b28660fa65ff8966e2b2ea3d6f3c0a1c94960b",
        "9ed92f6cc48e064021799bc5a55eb0516647d85988098c3b8b17a7d09886b7ed",
    ),
}


def test_horn_build_bit_identical():
    rng = np.random.default_rng(7)
    cases = {t: random_majorization_input(rng, n_max=8, m_max=24) for t in range(6)}
    cases["heavy"] = MajorizationInput((1.0,) * 4, (0.8,) * 5)
    for key, inp in cases.items():
        S, start, plan = horn_build(inp, return_plan=True)
        got = (hashlib.sha256(S.tobytes()).hexdigest(), hashlib.sha256(plan.replay(start).tobytes()).hexdigest())
        assert got == HORN_DIGESTS[key], key
