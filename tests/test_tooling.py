"""The benchmark's tracer must find every function it is told to time, finite
builds must go through the function it times and make no dense rotation on
the shortcut route, the command line builds its argument parser once per
process, scipy is imported only for summable power tails, and the package
reads no environment."""

import argparse
import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carpenter  # noqa: F401  (Tracer.install wraps the loaded modules)
import carpenter.builder
import carpenter.cli
import carpenter.moves
from carpenter import BuildOptions, build
from test_builder import integer_sum_diagonal

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # A missing target is only noted in Tracer.missing, so a renamed or
    # deleted function would silently drop a layer from traced runs.
    spans = load_spans()
    for name, (modname, attr) in spans.TARGETS.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {modname}.{attr} not found"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize(
    "pipeline, d",
    [
        ("shortcut", [0.25, 0.5, 0.75, 0.9, 0.6, 0.3, 0.2, 0.5]),
        ("full", [0.4, 0.4, 0.4, 0.3, 0.6, 0.9]),
    ],
)
def test_finite_builds_call_the_traced_horn_build(monkeypatch, pipeline, d):
    # The tracer times finite builds by rebinding carpenter.builder.horn_build
    # and carpenter.builder.check_projection; a build that reached the
    # construction or the verifier some other way, or verified more than
    # once, would drop out of the horn.horn_build span and its n_rank count
    # or skew the verify.check_projection span.
    options = BuildOptions(pipeline=pipeline)
    plain = build(d, options)
    original_build = carpenter.builder.horn_build
    original_check = carpenter.builder.check_projection
    calls, checks = [], []

    def counted(*args, **kwargs):
        calls.append(len(args[0].diag))
        return original_build(*args, **kwargs)

    def counted_check(*args, **kwargs):
        checks.append(len(args[0]))
        return original_check(*args, **kwargs)

    monkeypatch.setattr(carpenter.builder, "horn_build", counted)
    monkeypatch.setattr(carpenter.builder, "check_projection", counted_check)
    traced = build(d, options)
    assert plain.notices == traced.notices == []
    assert calls and sum(calls) == len(d)
    assert checks == [len(d)]
    assert np.array_equal(traced.matrix, plain.matrix)
    assert traced.report == plain.report


def test_shortcut_builds_make_no_dense_rotation(monkeypatch):
    # rotate_pair_inplace is the plain two-pass update because only the full
    # pipeline's ops_restore (about one rotation a build) and MovePlan.replay
    # call it; horn_build repairs rotate rows of its factor. Shortcut builds,
    # which carry the finite-build workload, must not reach it.
    original = carpenter.moves.rotate_pair_inplace
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(carpenter.moves, "rotate_pair_inplace", counted)
    build([0.4, 0.4, 0.4, 0.3, 0.6, 0.9], BuildOptions(pipeline="full"))
    assert calls, "the counter must see the full pipeline's restore rotation"
    calls.clear()
    for n in (50, 300, 1000):
        res = build(integer_sum_diagonal(np.random.default_rng(n), n))
        assert res.report.all_pass
    assert calls == []


def test_cli_builds_its_parser_at_most_once(monkeypatch, tmp_path, capsys):
    # Making the parser costs about a millisecond, as much as a small
    # classify request; it is made on the first main call, not per call.
    made = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    d = tmp_path / "d.json"
    d.write_text("[0.5, 0.5]")
    for _ in range(5):
        assert carpenter.cli.main(["classify", "--input", str(d)]) == 0
        assert carpenter.cli.main(["build", "--input", str(d)]) == 0
        assert carpenter.cli.main(["classify", "--bogus"]) == 1
    capsys.readouterr()
    assert made.count("carpenter") <= 1


def test_cli_import_builds_no_parser():
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import carpenter.cli\n"
        "print(len(made))\n"
    )
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_scipy_is_imported_only_for_summable_power_tails():
    # scipy costs about 0.3 s of import time; only p > 1 power tails use it
    code = (
        "import sys\n"
        "from carpenter import BuildOptions, ConstantTail, DiagonalSpec, PowerTail, build, classify\n"
        "seen = ['scipy' in sys.modules]\n"
        "build([0.25, 0.5, 0.75, 0.5])\n"
        "seen.append('scipy' in sys.modules)\n"
        "build(DiagonalSpec((0.7,), ConstantTail(0.4)), BuildOptions(truncation_rows=5))\n"
        "seen.append('scipy' in sys.modules)\n"
        "classify(DiagonalSpec((), PowerTail(0.3, 1.0)))\n"
        "seen.append('scipy' in sys.modules)\n"
        "classify(DiagonalSpec((), PowerTail(0.3, 2.0)))\n"
        "seen.append('scipy' in sys.modules)\n"
        "print(seen)\n"
    )
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, True]\n"


def test_package_reads_no_environment():
    # Behaviour follows the arguments alone: no module reads os.environ or
    # os.getenv, as an attribute or through "from os import".
    names = {"environ", "environb", "getenv", "getenvb"}
    paths = sorted((ROOT / "src" / "carpenter").glob("*.py"))
    assert len(paths) >= 8
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in names]
    assert found == []
