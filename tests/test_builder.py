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
from carpenter.builder import _build_cosummable, _build_summable


def idempotence_defect(P):
    return float(np.max(np.abs(P @ P - P)))


def test_build_summable_two_thirds():
    d = [2 / 3, 2 / 3, 2 / 3]
    P = _build_summable(d)
    assert P.shape == (3, 3)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-12)
    assert idempotence_defect(P) <= 1e-12
    assert np.diag(P) == pytest.approx(d, abs=1e-10)


def test_build_summable_strips_zeros_and_keeps_ones():
    P = _build_summable([1.0, 0.0])
    assert np.array_equal(P, np.diag([1.0, 0.0]))


def test_build_summable_rank_two():
    d = [0.9, 0.8, 0.3]
    P = _build_summable(d)
    assert np.diag(P) == pytest.approx(d, abs=1e-10)
    assert idempotence_defect(P) <= 1e-12
    evals = np.sort(np.linalg.eigvalsh(P))
    assert evals == pytest.approx([0.0, 1.0, 1.0], abs=1e-8)


def test_build_summable_rejects_bad_input():
    with pytest.raises(ValueError):
        _build_summable([0.5, 1.2])
    with pytest.raises(ValueError):
        _build_summable([0.3, 0.3])


def test_build_cosummable_one_third():
    d = [1 / 3, 1 / 3, 1 / 3]
    P = _build_cosummable(d)
    assert np.trace(P) == pytest.approx(1.0, abs=1e-12)
    assert idempotence_defect(P) <= 1e-12
    assert np.diag(P) == pytest.approx(d, abs=1e-10)


def test_build_cosummable_identity():
    assert np.array_equal(_build_cosummable([1.0, 1.0]), np.eye(2))


def test_complement_swaps_diagonal():
    # a cosummable build is the complement I - Q of a summable build Q on 1 - d
    d = [1 / 3, 1 / 3, 1 / 3]
    Q = _build_cosummable(d)
    assert np.array_equal(Q, np.eye(3) - _build_summable([1.0 - x for x in d]))
    assert np.diag(Q) == pytest.approx(d, abs=1e-10)
    assert idempotence_defect(Q) <= 1e-12
    assert np.array_equal(_build_cosummable([0.0, 0.0]), np.zeros((2, 2)))
    assert np.array_equal(_build_cosummable([0.0, 1.0]), np.diag([0.0, 1.0]))


def test_case1_full_pipeline_frozen_instance():
    # i1 = position 4 (value 0.6), J0' = {3}, i2 = 5, eta0 = 0.2: one shift
    # of 0.2 from position 3 onto position 4, restored by a single rotation
    d = [0.4, 0.4, 0.4, 0.3, 0.6, 0.9]
    notices = []
    P, plan = build_case1(d, notices)
    assert notices == []
    assert len(plan.moves) == 1
    assert np.diag(P) == pytest.approx(d, abs=1e-9)
    assert idempotence_defect(P) <= 1e-9
    assert np.trace(P) == pytest.approx(3.0, abs=1e-8)


def test_case1_falls_back_on_tied_upper_entries():
    # no upper entry strictly exceeds d[i1] = 0.7, so the split cannot form
    d = [0.2, 0.2, 0.2, 0.7, 0.7]
    notices = []
    P, plan = build_case1(d, notices)
    assert len(notices) == 1
    assert "shortcut" in notices[0]
    assert plan.moves == []
    assert np.diag(P) == pytest.approx(d, abs=1e-9)
    assert idempotence_defect(P) <= 1e-9


def test_case1_falls_back_without_lower_half():
    d = [0.6, 0.7, 0.7]
    notices = []
    P, plan = build_case1(d, notices)
    assert len(notices) == 1
    assert plan.moves == []
    assert np.diag(P) == pytest.approx(d, abs=1e-9)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-8)


def test_case1_rejects_non_integer_sum():
    with pytest.raises(ValueError):
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


def test_build_finite_full_pipeline_option():
    d = [0.4, 0.4, 0.4, 0.3, 0.6, 0.9]
    res = build(d, BuildOptions(pipeline="full"))
    assert res.notices == []
    assert res.report.all_pass
    assert np.diag(res.matrix) == pytest.approx(d, abs=1e-9)


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
        BuildOptions(pipeline="none")
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


# sha256 of build(d).matrix.tobytes(), recorded before the rotation records
# were merged into moves.Move. d = integer_sum_diagonal(default_rng(n), n).
BUILD_DIGESTS = {
    5: "3beea5d9818d4ad7714eb91167687249d2e463a763ba0b3a26d663ede7cf2a3f",
    50: "26a1ca39d380c1cd6db1be82cd7eaaa15891ca907259fe35e26a655bafb3dd82",
    300: "21db17a0dd4eafc53b2d7b5350e3e2f725a975fd674cb652366b6b51c59383d0",
}
FULL_PIPELINE_DIGEST = "1b3aa5259df0fb360762d93a978850366d5607dee71481a15badc79a00a067ea"
# n = 1000 from integer_sum_diagonal(default_rng(1000), 1000), where the peel
# falls back to _waterfall dozens of times: sha256 of the matrix bytes and of
# json.dumps(report.to_json_dict(), sort_keys=True), recorded before the peel
# planner's scans moved to numpy and before the rank certificate.
BUILD_1000_DIGESTS = (
    "e9ecd5a77c58f17564d49327ce19c0fcba79821bb3a4aa2e6d4cb536c2fd4f40",
    "e30e24f256c44b59348466e01647d5bcab3e4081094e14d9c92a959bf806da35",
)


def integer_sum_diagonal(rng, n):
    vals = rng.uniform(0.0, 1.0, size=n).tolist()
    s = math.fsum(vals[:-1])
    vals[-1] = math.ceil(s) - s
    return vals


@pytest.mark.parametrize("n", sorted(BUILD_DIGESTS))
def test_build_bit_identical(n):
    d = integer_sum_diagonal(np.random.default_rng(n), n)
    assert hashlib.sha256(build(d).matrix.tobytes()).hexdigest() == BUILD_DIGESTS[n]


def test_full_pipeline_bit_identical():
    # the frozen case-1 instance of test_case1_full_pipeline_frozen_instance
    res = build([0.4, 0.4, 0.4, 0.3, 0.6, 0.9], BuildOptions(pipeline="full"))
    assert hashlib.sha256(res.matrix.tobytes()).hexdigest() == FULL_PIPELINE_DIGEST


def test_build_1000_bit_identical():
    res = build(integer_sum_diagonal(np.random.default_rng(1000), 1000))
    report = json.dumps(res.report.to_json_dict(), sort_keys=True)
    assert (
        hashlib.sha256(res.matrix.tobytes()).hexdigest(),
        hashlib.sha256(report.encode()).hexdigest(),
    ) == BUILD_1000_DIGESTS
