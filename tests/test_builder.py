"""Route selection and assembly for finite and infinite diagonals."""

import hashlib
import json
import math

import numpy as np
import pytest

from carpenter import (
    BuildOptions,
    ConstantTail,
    DiagonalSpec,
    InfeasibleDiagonalError,
    PowerTail,
    Verdict,
    build,
    build_case1,
    build_case2,
    tail_sums,
)
from carpenter import moves as carpenter_moves
from carpenter.diagonal import INTEGRALITY_TOL
from carpenter.tetris import _CHUNK


def idempotence_defect(P):
    return float(np.max(np.abs(P @ P - P)))


# A finite diagonal is both summable and cosummable; these tests keep the
# inputs the separate summable and cosummable builders were tested on, now
# built by build_case1's one route.
def test_build_summable_two_thirds():
    # J0 is empty and eta = 0: one tetris block on 1 - d, complemented
    d = [2 / 3, 2 / 3, 2 / 3]
    P, plan = build_case1(d)
    assert P.shape == (3, 3)
    assert len(plan) == 0
    assert np.trace(P) == pytest.approx(2.0, abs=1e-12)
    assert idempotence_defect(P) <= 1e-12
    assert np.diag(P) == pytest.approx(d, abs=1e-15)


def test_build_summable_strips_zeros_and_keeps_ones():
    # nothing to shift, no block rows: the diagonal itself, bit for bit
    for d in ([1.0, 0.0], [0.0, 1.0], []):
        P, plan = build_case1(d)
        assert np.array_equal(P, np.diag(d)) and len(plan) == 0
    # and exact 0s and 1s stay decoupled from the rest
    P, _ = build_case1([1.0, 0.4, 0.0, 0.6, 1.0])
    for i in (0, 2, 4):
        assert np.all(np.delete(P[i], i) == 0.0) and P[i, i] == [1.0, 0.0, 1.0][i // 2]


def test_build_summable_rank_two():
    # J0 = {2}, eta = 0.3: 0.3 moves onto 0.9 and 0.8, two rotations restore it
    d = [0.9, 0.8, 0.3]
    P, plan = build_case1(d)
    assert len(plan) == 2
    assert np.diag(P) == pytest.approx(d, abs=1e-15)
    assert idempotence_defect(P) <= 1e-12
    evals = np.sort(np.linalg.eigvalsh(P))
    assert evals == pytest.approx([0.0, 1.0, 1.0], abs=1e-8)


def test_build_summable_rejects_bad_input():
    with pytest.raises(ValueError, match="outside"):
        build_case1([0.5, 1.2])
    with pytest.raises(ValueError, match="not an integer"):
        build_case1([0.3, 0.3])


def test_build_cosummable_one_third():
    # J1 is empty and eta = 0: one tetris block on d
    d = [1 / 3, 1 / 3, 1 / 3]
    P, plan = build_case1(d)
    assert len(plan) == 0
    assert np.trace(P) == pytest.approx(1.0, abs=1e-12)
    assert idempotence_defect(P) <= 1e-12
    assert np.diag(P) == pytest.approx(d, abs=1e-15)


def test_build_cosummable_identity():
    P, plan = build_case1([1.0, 1.0])
    assert np.array_equal(P, np.eye(2)) and len(plan) == 0


def test_complement_swaps_diagonal():
    # I - Q is a projection with diagonal d when Q is one with diagonal 1 - d;
    # on dyadic entries below 1/2 the route's J1 block is that complement, bit
    # for bit
    d = [0.25, 0.25, 0.25, 0.25]
    P, _ = build_case1(d)
    Q, _ = build_case1([1.0 - x for x in d])
    assert np.array_equal(P, np.eye(4) - Q)
    d = [1 / 3, 1 / 3, 1 / 3]
    Q, _ = build_case1([1.0 - x for x in d])
    C = np.eye(3) - Q
    assert np.diag(C) == pytest.approx(d, abs=1e-15)
    assert idempotence_defect(C) <= 1e-12
    assert np.array_equal(build_case1([0.0, 0.0])[0], np.zeros((2, 2)))
    assert np.array_equal(build_case1([0.0, 1.0])[0], np.diag([0.0, 1.0]))


def test_case1_full_pipeline_frozen_instance():
    # J0 = {0, 1, 2, 3} sums to 1.5, so eta = 0.5: ops_shift takes 0.4 off
    # position 0 and 0.1 off position 1 and puts 0.4 on position 4 and 0.1
    # on position 5. The blocks realize (0, 0.3, 0.4, 0.3) and 1 - (1, 1), and
    # two rotations, (0, 4) and (1, 5), restore the shifted entries.
    d = [0.4, 0.4, 0.4, 0.3, 0.6, 0.9]
    P, plan = build_case1(d)
    assert [(m.i, m.j) for m in plan.moves] == [(0, 4), (1, 5)]
    assert np.array_equal(P, P.T)
    assert np.diag(P) == pytest.approx(d, abs=1e-15)
    assert idempotence_defect(P) <= 1e-15
    assert np.trace(P) == pytest.approx(3.0, abs=1e-15)
    # the restore rotations replayed on P' give P
    P0 = P.copy()
    for m in reversed(plan.moves):
        carpenter_moves.rotate_pair_inplace(P0, m.i, m.j, m.c, -m.s)
    assert np.max(np.abs(plan.replay(P0) - P)) <= 1e-15


def case1_exactly(d):
    P, _ = build_case1(d)
    assert np.array_equal(P, P.T)
    assert np.diag(P) == pytest.approx(d, abs=1e-15)
    assert idempotence_defect(P) <= 1e-15
    assert np.trace(P) == pytest.approx(round(math.fsum(d)), abs=1e-14)


def test_case1_builds_tied_upper_entries():
    # no upper entry strictly exceeds another; the route needs no special case
    case1_exactly([0.2, 0.2, 0.2, 0.7, 0.7])


def test_case1_builds_without_lower_half():
    case1_exactly([0.6, 0.7, 0.7])


def test_case1_rejects_non_integer_sum():
    with pytest.raises(ValueError, match="not an integer"):
        build_case1([0.4, 0.4])


def test_build_rejects_infeasible_singleton():
    with pytest.raises(InfeasibleDiagonalError) as exc:
        build([1 / 3])
    assert "not an integer" in str(exc.value)
    rep = exc.value.report
    assert rep.verdict is Verdict.INFEASIBLE
    assert rep.a == pytest.approx(1 / 3, abs=1e-12)
    assert rep.b == 0.0


def test_build_finite_shortcut():
    res = build([0.25, 0.25, 0.75, 0.75])
    assert res.kadison.verdict is Verdict.CASE_I
    assert res.report.all_pass
    assert res.matrix.shape == (4, 4)
    assert np.trace(res.matrix) == pytest.approx(2.0, abs=1e-8)


def test_build_finite_reattaches_exact_ones_and_zeros():
    d = [1.0, 0.4, 0.6, 0.0, 1.0]
    res = build(d)
    P = res.matrix
    assert res.report.all_pass
    assert P[0, 0] == 1.0 and P[4, 4] == 1.0 and P[3, 3] == 0.0
    # trivial coordinates stay decoupled from the core block
    for i in (0, 3, 4):
        off = np.delete(P[i], i)
        assert np.all(off == 0.0)


def test_build_options_validation():
    with pytest.raises(ValueError):
        BuildOptions(mode="sideways")
    with pytest.raises(ValueError):
        BuildOptions(epsilon=0.7)
    with pytest.raises(ValueError):
        BuildOptions(truncation_rows=-1)


def test_build_constant_zero_tail_materializes():
    spec = DiagonalSpec(prefix=(0.5, 0.5), tail=ConstantTail(0.0))
    res = build(spec, BuildOptions(truncation_rows=3))
    assert res.matrix.shape == (5, 5)
    assert res.report.all_pass
    assert np.trace(res.matrix) == pytest.approx(1.0, abs=1e-8)


def test_build_constant_one_tail_materializes():
    spec = DiagonalSpec(prefix=(0.3, 0.7), tail=ConstantTail(1.0))
    res = build(spec, BuildOptions(truncation_rows=4))
    P = res.matrix
    assert P.shape == (6, 6)
    assert res.report.all_pass
    assert all(P[i, i] == 1.0 for i in range(2, 6))


def test_build_streaming_constant_04():
    spec = DiagonalSpec(prefix=(), tail=ConstantTail(0.4))
    res = build(spec, BuildOptions(truncation_rows=100))
    assert res.kadison.verdict is Verdict.CASE_II
    assert res.block_stride == 1 and len(res.streams) == 1
    stream = res.streams[0]
    k_r = stream.k[99]
    assert res.matrix.shape == (k_r, k_r)
    assert len(res.completed_indices) == k_r - 2
    # the truncated corner is itself a projection of rank R
    assert idempotence_defect(res.matrix) <= 1e-9
    assert np.trace(res.matrix) == pytest.approx(100.0, abs=1e-8)
    for i in res.completed_indices:
        assert res.matrix[i, i] == pytest.approx(0.4, abs=1e-10)


def test_build_streaming_head_block():
    spec = DiagonalSpec(prefix=(0.9,), tail=ConstantTail(0.4))
    res = build(spec, BuildOptions(truncation_rows=30))
    assert res.block_heads == [0]
    assert 0 in res.completed_indices
    assert res.matrix[0, 0] == pytest.approx(0.9, abs=1e-10)
    assert idempotence_defect(res.matrix) <= 1e-9


def test_build_streaming_complement_route():
    spec = DiagonalSpec(prefix=(), tail=ConstantTail(0.9))
    res = build(spec, BuildOptions(truncation_rows=40))
    assert res.complemented
    assert idempotence_defect(res.matrix) <= 1e-9
    for i in res.completed_indices:
        assert res.matrix[i, i] == pytest.approx(0.9, abs=1e-10)


def test_build_streaming_zero_rows_returns_streams_only():
    res = build(DiagonalSpec(prefix=(), tail=ConstantTail(0.4)), BuildOptions(truncation_rows=0))
    assert res.matrix is None
    assert res.streams and res.streams[0].rows_emitted == 0


def test_case2_plan_partitions_by_heads():
    spec = DiagonalSpec(prefix=(0.7, 0.8, 0.3), tail=ConstantTail(0.4))
    plan = build_case2(spec)
    assert plan.stride == 2
    assert plan.heads == [0, 1]
    assert not plan.complemented
    # every block must still see a divergent sum: both streams can emit rows
    for s in plan.streams:
        for _ in range(5):
            s.next_row()


def test_case2_rejects_wrong_verdict():
    with pytest.raises(ValueError):
        build_case2(DiagonalSpec(prefix=(0.5, 0.5), tail=ConstantTail(0.0)))


def test_build_power_tail_requires_approximate_mode():
    a, b = tail_sums(DiagonalSpec(prefix=(), tail=PowerTail(3.0, 2.0)))
    delta = a - b
    spec = DiagonalSpec(prefix=(1.0 - delta,), tail=PowerTail(3.0, 2.0))
    with pytest.raises(ValueError, match="approximate"):
        build(spec)


def test_build_power_tail_approximate():
    a, b = tail_sums(DiagonalSpec(prefix=(), tail=PowerTail(3.0, 2.0)))
    delta = a - b
    assert 0.5 < delta < 1.0
    spec = DiagonalSpec(prefix=(1.0 - delta,), tail=PowerTail(3.0, 2.0))
    res = build(spec, BuildOptions(mode="approximate", epsilon=1e-3))
    assert res.approximation_error <= 2e-3
    assert res.report is not None and res.report.all_pass
    P = res.matrix
    assert idempotence_defect(P) <= 1e-9
    # trace picks up the capped first tail entry (an exact 1) plus rank 2
    assert np.trace(P) == pytest.approx(3.0, abs=1e-2)
    assert P[0, 0] == pytest.approx(1.0 - delta, abs=2e-3)


def power_value(c, p, i):
    return min(c * float(i) ** (-p), 1.0)


def random_approximate_spec(rng):
    """Prefix over a summable power tail, with one prefix entry solved so
    that a - b is an integer (the finite-sum verdict)."""
    p = float(rng.uniform(1.3, 2.5))
    while True:
        c = float(rng.uniform(0.2, 0.9))
        prefix = rng.uniform(0.05, 0.95, int(rng.integers(1, 6))).tolist()
        ta, tb = tail_sums(DiagonalSpec((), PowerTail(c, p)))
        a = math.fsum(x for x in prefix if x < 0.5)
        b = math.fsum(1.0 - x for x in prefix if x >= 0.5)
        x = (b + tb - a - ta) % 1.0
        if 0.02 < x < 0.98 and abs(x - 0.5) > 1e-6:
            break
    prefix.insert(int(rng.integers(0, len(prefix) + 1)), x)
    return DiagonalSpec(prefix, PowerTail(c, p))


def test_approximation_error_bounds_the_diagonal():
    # The first spec moved a core entry by exactly the error it used to
    # report, and the exact build's rounding then added 5.5e-17 on top.
    specs = [DiagonalSpec([0.9550498605258047], PowerTail(0.4, 1.5))]
    rng = np.random.default_rng(4)
    specs += [random_approximate_spec(rng) for _ in range(24)]
    for spec in specs:
        res = build(spec, BuildOptions(mode="approximate", epsilon=1e-3))
        P = res.matrix
        n = P.shape[0]
        k = len(spec.prefix)
        target = list(spec.prefix[:n]) + [
            power_value(spec.tail.c, spec.tail.p, j - k + 1) for j in range(k, n)
        ]
        err = float(np.max(np.abs(np.diag(P) - np.asarray(target))))
        assert err <= res.approximation_error, spec
        assert res.report.all_pass, spec


# sha256 of build(d).matrix.tobytes(), d = integer_sum_diagonal(default_rng(n), n),
# re-recorded (with the full-pipeline and n = 1000 pins) when finite builds
# moved from horn_build to build_case1's two tetris blocks.
BUILD_DIGESTS = {
    5: "e1e278a41523260fd038e7894ee3170d7a6b5aaa4938ecd957fdadc07da51a36",
    50: "0f5e29d0d16d6ac82dddd83e10466333db812606404bcb514f4edf61eff3b491",
    300: "45fab32e232c782fab65807e21e90085e885d71fd7889e0a677d0d8dc8d94015",
    1000: "8944158f0eb7034ad86a4a19e7ee75ba26a0c1b9dbdefd187af70bea81a5c5de",
    4000: "d614335d16b2974a128a781038d60744f729ce80ecd454d460c1bc10ee421214",
}
FULL_PIPELINE_DIGEST = "49da29c2dc400684684a30884684502e795009d6a1a44b003d6667b7c927ede0"
# n = 1000 from integer_sum_diagonal(default_rng(1000), 1000): sha256 of the
# matrix bytes and of json.dumps(report.to_json_dict(), sort_keys=True).
BUILD_1000_DIGESTS = (
    "8944158f0eb7034ad86a4a19e7ee75ba26a0c1b9dbdefd187af70bea81a5c5de",
    "889d2e759b363f61e8a2dfefdf12b0c9ab15a4cc37026e76155e147d50f6f725",
)


def integer_sum_diagonal(rng, n):
    vals = rng.uniform(0.0, 1.0, size=n).tolist()
    s = math.fsum(vals[:-1])
    vals[-1] = math.ceil(s) - s
    return vals


def near_integer_diagonal(rng):
    """An integer-sum diagonal with one entry moved by up to 9e-10: its sum
    is off its integer by less than INTEGRALITY_TOL, so it classifies as
    case I."""
    n = int(rng.integers(3, 200))
    d = integer_sum_diagonal(rng, n)
    i = int(rng.integers(0, n))
    d[i] += float(rng.uniform(-9e-10, 9e-10))
    assert 0.0 < d[i] < 1.0
    return d


def test_near_integer_sums_spread_over_the_core():
    # The residual r goes evenly onto the m entries strictly between 0 and 1;
    # putting it on one entry moved that entry by |r|, and the restore step
    # then rejected the part it built.
    # On top of the spread comes the exact build's own rounding, which
    # reaches 1.0e-14 on these inputs (n < 200).
    for seed in range(20):
        d = near_integer_diagonal(np.random.default_rng(seed))
        total = math.fsum(d)
        r = round(total) - total
        assert 1e-12 < abs(r) <= INTEGRALITY_TOL
        m = sum(0.0 < x < 1.0 for x in d)
        res = build(d)
        assert res.kadison.verdict is Verdict.CASE_I
        assert res.report.all_pass, seed
        assert res.report.diagonal_max_error <= abs(r) / m + 2e-14, seed


@pytest.mark.parametrize("n", [500, 4000])
def test_finite_idempotence_defect_stays_linear_in_n(n):
    # The finite build's idempotence defect grows about linearly in n. The
    # medians over these six seeds are 4.75e-15 (n = 500) and 2.5e-14
    # (n = 4000), so the bound 2.5e-17 * n leaves 2.6x and 4x headroom; a
    # defect growing as n^2 would break it at n = 4000.
    defects = [
        build(integer_sum_diagonal(np.random.default_rng([seed, n]), n)).report.idempotence_defect
        for seed in range(6)
    ]
    assert np.median(defects) <= 2.5e-17 * n


@pytest.mark.parametrize("n", sorted(BUILD_DIGESTS))
def test_build_bit_identical(n):
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    assert hashlib.sha256(build(d).matrix.tobytes()).hexdigest() == BUILD_DIGESTS[n]


def test_full_pipeline_bit_identical():
    # the instance of test_case1_full_pipeline_frozen_instance, which the
    # CLI's cli-mix requests build with --pipeline full
    d = [0.4, 0.4, 0.4, 0.3, 0.6, 0.9]
    res = build(d)
    assert hashlib.sha256(res.matrix.tobytes()).hexdigest() == FULL_PIPELINE_DIGEST
    assert res.notices == []
    assert res.report.all_pass
    assert np.diag(res.matrix) == pytest.approx(d, abs=1e-9)


def test_build_1000_bit_identical():
    res = build(integer_sum_diagonal(np.random.default_rng(1000), 1000))
    report = json.dumps(res.report.to_json_dict(), sort_keys=True)
    assert (
        hashlib.sha256(res.matrix.tobytes()).hexdigest(),
        hashlib.sha256(report.encode()).hexdigest(),
    ) == BUILD_1000_DIGESTS


def result_digests(res):
    """sha256 of the matrix bytes and of the case-II fields as sorted JSON."""
    fields = {
        "completed_indices": res.completed_indices,
        "block_heads": res.block_heads,
        "block_stride": res.block_stride,
        "complemented": res.complemented,
    }
    return (
        hashlib.sha256(res.matrix.tobytes()).hexdigest(),
        hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest(),
    )


# Corners of routes with no other pin, recorded before the corner assembly
# was shared by every route; the two constant-tail corners were re-recorded
# when finite builds moved from horn_build to build_case1. Both case-II
# specs carry exact 0s and 1s; the second has c > 1/2, so its two blocks
# stream 1 - d. The case-II corners held bit for bit when their dense
# np.outer blocks, placed and flipped, gave way to the one pair-product sum
# that Case I uses (builder._assemble).
CORNER_SPECS = {
    "case2-multi-block": DiagonalSpec((0.7, 0.8, 1.0, 0.3, 0.0), ConstantTail(0.4)),
    "case2-complemented": DiagonalSpec((0.2, 0.1, 0.0, 0.6, 1.0), ConstantTail(0.9)),
    "constant-0-tail": DiagonalSpec(integer_sum_diagonal(np.random.default_rng(40), 40), ConstantTail(0.0)),
    "constant-1-tail": DiagonalSpec(integer_sum_diagonal(np.random.default_rng(41), 41), ConstantTail(1.0)),
}
CORNER_DIGESTS = {
    "case2-complemented": (
        "ba6e7a42bf7d35ab98e5a75a78aabf050e9fcf03e054c681841dd26712cc3e4d",
        "6e532adc88745fd545f70f46447fa9087b61ce066844c4e000757e9c54c4fbb9",
    ),
    "case2-multi-block": (
        "0a7590fb0c7bbc158aabb67a5e2e743b3ed99dc51cec7fe95f97de638e94fac3",
        "0feb321b9ff33d38ca683ac20ee63077b754fef910a697be24189e8921d43c37",
    ),
    "constant-0-tail": (
        "872c67ea598dc81af36f11d0f4860606d538dd82a52e02174f8d818a2001b524",
        "33122bf9e6ceddf0df9caca4106e4ddcfa9de5ca6fc1c84f702ce4607eaad533",
    ),
    "constant-1-tail": (
        "e13957ccb1a850890b78becd1776f3e621586a67bb0075353bf183fe57381866",
        "33122bf9e6ceddf0df9caca4106e4ddcfa9de5ca6fc1c84f702ce4607eaad533",
    ),
}


@pytest.mark.parametrize("name", sorted(CORNER_SPECS))
def test_corner_bit_identical(name):
    res = build(CORNER_SPECS[name], BuildOptions(truncation_rows=12))
    assert result_digests(res) == CORNER_DIGESTS[name]


@pytest.mark.parametrize("name", ["case2-multi-block", "case2-complemented"])
def test_corner_streams_hold_at_most_twice_the_terms_they_use(name):
    # 12-row blocks use 29 to 113 terms here, far below one _CHUNK
    res = build(CORNER_SPECS[name], BuildOptions(truncation_rows=12))
    for stream in res.streams:
        m = stream.m[-1]
        assert len(stream._vals) <= max(1, min(2 * m, m + _CHUNK))


# random_approximate_spec(default_rng(7)) at epsilon 1e-3: sha256 of the
# matrix bytes (re-recorded when the core moved from horn_build to
# build_case1), and the reported bound, which that did not move.
POWER_APPROX_PIN = ("453c36d07d163db76fe3750745f07c9da5d38126df4ec5c6da68a7547c3b2bac", 0.0009629343740758971)


def test_power_approximate_bit_identical():
    spec = random_approximate_spec(np.random.default_rng(7))
    res = build(spec, BuildOptions(mode="approximate", epsilon=1e-3))
    got = (hashlib.sha256(res.matrix.tobytes()).hexdigest(), res.approximation_error)
    assert got == POWER_APPROX_PIN
