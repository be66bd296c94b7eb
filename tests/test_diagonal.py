"""Classification of diagonals: defect sums and tail arithmetic."""

import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from carpenter import (
    ConstantTail,
    DiagonalSpec,
    PowerTail,
    Verdict,
    classify,
    complement_spec,
    tail_sums,
)
from carpenter.diagonal import TAIL_SUM_TOL


def test_spec_validation():
    with pytest.raises(ValueError):
        DiagonalSpec((0.5, 1.2))
    with pytest.raises(ValueError):
        DiagonalSpec((float("nan"),))
    with pytest.raises(ValueError):
        PowerTail(1.0, 0.0)
    with pytest.raises(ValueError):
        ConstantTail(-0.1)


def test_spec_materialize_and_values():
    spec = DiagonalSpec((0.3,), PowerTail(1.0, 2.0))
    assert list(spec.materialize(4)) == [0.3, 1.0, 0.25, 1.0 / 9.0]
    finite = DiagonalSpec((0.1, 0.2))
    assert list(finite.values()) == [0.1, 0.2]
    assert finite.is_finite and not spec.is_finite


def test_spec_json_round_trip():
    for spec in (
        DiagonalSpec((0.1, 0.9)),
        DiagonalSpec((0.5,), ConstantTail(0.4)),
        DiagonalSpec((), PowerTail(2.0, 1.5)),
    ):
        again = DiagonalSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec


def test_tail_sums_trivial():
    assert tail_sums(DiagonalSpec((0.3,))) == (0.0, 0.0)
    a, b = tail_sums(DiagonalSpec((), ConstantTail(0.4)))
    assert math.isinf(a) and b == 0.0
    a, b = tail_sums(DiagonalSpec((), ConstantTail(0.9)))
    assert a == 0.0 and math.isinf(b)


def test_tail_sums_power_against_brute_force():
    # Independent oracle: partial sum of 10^7 terms plus the integral bracket
    # for the remainder of sum c/i^p. For c=1, p=2 the below-half part starts
    # at i=2 (the i=1 term caps at 1) and equals pi^2/6 - 1.
    n_terms = 10_000_000
    i = np.arange(2.0, n_terms + 1)
    partial = float(np.sum(1.0 / (i * i)))
    a, b = tail_sums(DiagonalSpec((), PowerTail(1.0, 2.0)))
    assert partial + 1.0 / (n_terms + 1) - 1e-9 <= a <= partial + 1.0 / n_terms + 1e-9
    assert abs(a - (math.pi**2 / 6.0 - 1.0)) < 1e-12
    assert b == 0.0

    # c=3, p=2: i=1 caps at 1, i=2 gives 0.75 (above half), below-half mass
    # starts at i=3.
    partial3 = float(np.sum(3.0 / (np.arange(3.0, n_terms + 1) ** 2)))
    a3, b3 = tail_sums(DiagonalSpec((), PowerTail(3.0, 2.0)))
    assert b3 == pytest.approx(0.25, abs=1e-15)
    assert partial3 + 3.0 / (n_terms + 1) - 1e-9 <= a3 <= partial3 + 3.0 / n_terms + 1e-9


@pytest.mark.parametrize(
    "c, p", [(1e4, 1.01), (5e5, 1.2), (0.4, 1.5), (50.0, 1.3), (2000.0, 1.5), (0.3, 1.05)]
)
def test_tail_sums_power_against_mpmath(c, p):
    # Oracle at 40 digits: entries c * i**-p >= 1/2 up to index i_half, capped
    # at 1 up to i_one, so a = c * zeta(p, i_half + 1) and b is the band
    # (i_half - i_one) - c * (zeta(p, i_one + 1) - zeta(p, i_half + 1)). The
    # first two tails are off by 7e-11 and 6e-11 in absolute terms, which is
    # why the contract is relative.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        C, P = mpmath.mpf(c), mpmath.mpf(p)
        i_half, i_one = (int(mpmath.floor((C / t) ** (1 / P))) for t in (mpmath.mpf(0.5), 1))
        want_a = C * mpmath.zeta(P, i_half + 1)
        want_b = (i_half - i_one) - C * (mpmath.zeta(P, i_one + 1) - mpmath.zeta(P, i_half + 1))
        got_a, got_b = tail_sums(DiagonalSpec((), PowerTail(c, p)))
        for got, want in ((got_a, want_a), (got_b, want_b)):
            assert abs(got - want) <= TAIL_SUM_TOL * max(1.0, abs(want)), (got, want)


def test_tail_sums_power_divergent():
    # harmonic tail: i=1 caps at 1, i=2 is exactly 0.5 (counts toward b),
    # everything later diverges on the a side
    a, b = tail_sums(DiagonalSpec((), PowerTail(1.0, 1.0)))
    assert math.isinf(a) and b == 0.5
    a, b = tail_sums(DiagonalSpec((), PowerTail(0.3, 0.5)))
    assert math.isinf(a) and b == 0.0


def test_classify_finite_examples():
    rep = classify(DiagonalSpec((0.25, 0.25, 0.75, 0.75)))
    assert rep.a == pytest.approx(0.5, abs=0) and rep.b == pytest.approx(0.5, abs=0)
    assert rep.verdict is Verdict.CASE_I

    rep = classify(DiagonalSpec((1.0 / 3.0,)))
    assert rep.a == 1.0 / 3.0 and rep.b == 0.0
    assert rep.verdict is Verdict.INFEASIBLE

    rep = classify(DiagonalSpec((0.2, 0.9)))
    assert rep.verdict is Verdict.INFEASIBLE
    assert rep.a_minus_b == pytest.approx(0.1, abs=1e-15)


def test_classify_half_goes_to_b():
    rep = classify(DiagonalSpec((0.5,)))
    assert rep.b == 0.5 and rep.a == 0.0
    assert rep.verdict is Verdict.INFEASIBLE
    assert classify(DiagonalSpec((0.5, 0.5))).verdict is Verdict.CASE_I


def test_classify_divergent_tails():
    rep = classify(DiagonalSpec((), ConstantTail(0.4)))
    assert math.isinf(rep.a) and rep.verdict is Verdict.CASE_II
    assert rep.a_minus_b is None
    rep = classify(DiagonalSpec((0.3,), ConstantTail(0.9)))
    assert math.isinf(rep.b) and rep.verdict is Verdict.CASE_II


def test_classify_trivial_constant_tails():
    rep = classify(DiagonalSpec((0.5, 0.5), ConstantTail(1.0)))
    assert rep.verdict is Verdict.CASE_I
    assert math.isinf(rep.num_ones)
    rep = classify(DiagonalSpec((), ConstantTail(0.0)))
    assert rep.verdict is Verdict.CASE_I and rep.a == 0.0


def test_classify_summable_power_tail_balances():
    # Both sums finite and unequal: infeasible until a prefix entry closes
    # the gap, then case I.
    base = classify(DiagonalSpec((), PowerTail(3.0, 2.0)))
    assert base.verdict is Verdict.INFEASIBLE
    delta = base.a - base.b
    assert 0.5 < delta < 1.0
    fixed = classify(DiagonalSpec((1.0 - delta,), PowerTail(3.0, 2.0)))
    assert fixed.verdict is Verdict.CASE_I
    assert fixed.a_minus_b == pytest.approx(1.0, abs=1e-9)


def test_classify_permutation_invariant():
    rng = random.Random(7)
    vals = [rng.random() for _ in range(25)]
    rep = classify(DiagonalSpec(vals))
    for _ in range(5):
        rng.shuffle(vals)
        other = classify(DiagonalSpec(vals))
        assert other.a == rep.a and other.b == rep.b and other.verdict is rep.verdict


def test_report_json_encodes_infinities():
    d = classify(DiagonalSpec((), ConstantTail(0.4))).to_json_dict()
    assert d["a"] == "inf" and d["a_minus_b"] is None
    assert json.loads(json.dumps(d))["verdict"] == "case_ii"


def test_complement_spec():
    spec = DiagonalSpec((0.3, 0.7), ConstantTail(0.4))
    comp = complement_spec(spec)
    assert comp.prefix == (1.0 - 0.3, 1.0 - 0.7) and comp.tail == ConstantTail(0.6)
    with pytest.raises(ValueError):
        complement_spec(DiagonalSpec((), PowerTail(1.0, 2.0)))


def test_complement_swaps_defect_sums():
    # true swap away from exact halves (a half counts toward b on both sides)
    spec = DiagonalSpec((0.1, 0.8, 0.3))
    rep = classify(spec)
    crep = classify(complement_spec(spec))
    assert crep.a == pytest.approx(rep.b, abs=1e-12)
    assert crep.b == pytest.approx(rep.a, abs=1e-12)
    # with halves the verdict still carries over
    assert classify(complement_spec(DiagonalSpec((0.5, 0.5)))).verdict is Verdict.CASE_I


def test_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 0.3 s at import; only power tails need zeta
    import carpenter

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(carpenter.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, carpenter, carpenter.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_finite_build_and_verify_leave_scipy_sparse_and_linalg_unloaded():
    # Either import would land in every process's start-up through the
    # first build; finite builds and their verification use numpy only.
    import carpenter

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(carpenter.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, carpenter\n"
        "d = [0.5] * 300\n"
        "assert carpenter.build(d).report.all_pass\n"
        "carpenter.check_projection(np.eye(3), [1.0] * 3)\n"
        "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
