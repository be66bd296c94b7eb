"""The benchmark's tracer must find every function it is told to time, finite
builds must go once through the functions it times and never through
horn_build, the restore makes few rotations, rotate_to is the one rotation
the package chooses, the command line builds its argument parser once per
process, no scipy module is ever loaded, the package reads no environment,
every sum of v v^T goes through the one pair kernel, the tetris stream
searches its thresholds in one place, every package the tests import is
declared, and the package imports numpy alone."""

import argparse
import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carpenter  # noqa: F401  (Tracer.install wraps the loaded modules)
import carpenter.builder
import carpenter.cli
import carpenter.horn
from carpenter import BuildOptions, ConstantTail, DiagonalSpec, PowerTail, build
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


def approximate_spec():
    a, b = carpenter.tail_sums(DiagonalSpec((), PowerTail(3.0, 2.0)))
    return DiagonalSpec((1.0 - (a - b),), PowerTail(3.0, 2.0))


FINITE_BUILDS = {
    "finite": ([0.25, 0.5, 0.75, 0.9, 0.6, 0.3, 0.2, 0.5], BuildOptions()),
    "finite-full": ([0.4, 0.4, 0.4, 0.3, 0.6, 0.9], BuildOptions()),
    "constant-0-tail": (DiagonalSpec((0.5, 0.5), ConstantTail(0.0)), BuildOptions(truncation_rows=3)),
    "constant-1-tail": (DiagonalSpec((0.3, 0.7), ConstantTail(1.0)), BuildOptions(truncation_rows=4)),
}


@pytest.mark.parametrize("name", sorted(FINITE_BUILDS))
def test_finite_builds_pass_once_through_build_case1(monkeypatch, name):
    # The tracer times finite builds by rebinding carpenter.builder.build_case1
    # and carpenter.builder.check_projection; a build that reached the
    # construction or the verifier some other way, or more than once, would
    # drop out of the builder.build_case1 span or skew the
    # verify.check_projection span.
    spec, options = FINITE_BUILDS[name]
    plain = build(spec, options)
    original_case1 = carpenter.builder.build_case1
    original_check = carpenter.builder.check_projection
    cases, checks = [], []

    def counted(*args, **kwargs):
        cases.append(len(args[0]))
        return original_case1(*args, **kwargs)

    def counted_check(*args, **kwargs):
        checks.append(len(args[0]))
        return original_check(*args, **kwargs)

    monkeypatch.setattr(carpenter.builder, "build_case1", counted)
    monkeypatch.setattr(carpenter.builder, "check_projection", counted_check)
    traced = build(spec, options)
    n = len(plain.matrix)
    assert cases == [n] and checks == [n]
    assert np.array_equal(traced.matrix, plain.matrix)
    assert traced.report == plain.report


def test_no_build_route_calls_horn_build(monkeypatch):
    # horn_build stays exported for acceptance criterion 2; the builds do
    # not reach it
    def refuse(*args, **kwargs):
        raise AssertionError("horn_build reached from a build route")

    monkeypatch.setattr(carpenter.horn, "horn_build", refuse)
    monkeypatch.setattr(carpenter, "horn_build", refuse)
    for spec, options in FINITE_BUILDS.values():
        assert build(spec, options).report.all_pass
    assert build(integer_sum_diagonal(np.random.default_rng(300), 300)).report.all_pass
    res = build(approximate_spec(), BuildOptions(mode="approximate", epsilon=1e-3))
    assert res.report.all_pass


def test_restore_takes_few_rotations():
    # The restore pairs the entries ops_shift moved, about |I0| + |I1| - 1
    # rotations of O(n) each: a median of 4 and at most 12 over these 200
    # builds, n from 3 to 299.
    counts = []
    for seed in range(200):
        n = int(np.random.default_rng(seed).integers(3, 300))
        _, plan = carpenter.build_case1(integer_sum_diagonal(np.random.default_rng(seed), n))
        counts.append(len(plan))
    assert np.median(counts) <= 4 and max(counts) <= 12


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


def test_no_scipy_module_is_loaded(tmp_path):
    # numpy is the one dependency: classify and build over finite, constant
    # and power tails (p < 1, p = 1, and p > 1 on the approximate route),
    # verify a dense matrix and run one carpenter stream, all in a fresh
    # process, and no scipy module gets loaded on the way.
    d = tmp_path / "d.json"
    d.write_text(json.dumps(DiagonalSpec((0.3,), ConstantTail(0.4)).to_json_dict()))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from carpenter import BuildOptions, ConstantTail, DiagonalSpec, PowerTail\n"
        "from carpenter import build, check_projection, classify, tail_sums\n"
        "from carpenter.cli import main\n"
        "build([0.25, 0.5, 0.75, 0.5])\n"
        "check_projection(np.eye(3), [1.0] * 3)\n"
        "for spec, rows in [\n"
        "    (DiagonalSpec((0.7,), ConstantTail(0.4)), 5),\n"
        "    (DiagonalSpec((0.5, 0.5), ConstantTail(1.0)), 3),\n"
        "    (DiagonalSpec((0.3,), PowerTail(0.9, 0.8)), 3),\n"
        "    (DiagonalSpec((), PowerTail(0.4, 1.0)), 2),\n"
        "]:\n"
        "    classify(spec)\n"
        "    build(spec, BuildOptions(truncation_rows=rows))\n"
        "a, b = tail_sums(DiagonalSpec((), PowerTail(3.0, 2.0)))\n"
        "spec = DiagonalSpec((1.0 - (a - b),), PowerTail(3.0, 2.0))\n"
        "assert classify(spec).verdict.value == 'case_i'\n"
        "assert build(spec, BuildOptions(mode='approximate', epsilon=1e-3)).report.all_pass\n"
        "assert main(['stream', '--input', sys.argv[1], '--rows', '5', '--output', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(ROOT / "src")
    args = [sys.executable, "-c", code, str(d), str(tmp_path / "rows.jsonl")]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert len((tmp_path / "rows.jsonl").read_text().splitlines()) == 6  # five rows and the summary


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


def dotted(node):
    """The dotted name of a Name or Attribute chain, such as np.add.at, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def test_every_sum_of_outer_products_goes_through_the_pair_kernel():
    # Case I blocks and case-II corners are all pair_entries of
    # pair_products: no np.outer or np.ix_ block placement, a weighted
    # np.bincount only in that kernel, and np.add.at only in the verifier,
    # which keeps its own pair expansion so that it stays independent of
    # what it checks.
    paths = sorted((ROOT / "src" / "carpenter").glob("*.py"))
    assert len(paths) >= 8
    banned, weighted, add_at = [], set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> the outermost function holding it
        for top in ast.walk(tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(top):
                    owner.setdefault(id(node), top.name)
        for node in ast.walk(tree):
            where = f"{path.stem}.{owner.get(id(node), '<module>')}"
            if dotted(node) in ("np.outer", "np.ix_"):
                banned.append(f"{path.name}:{node.lineno}: {dotted(node)}")
            if dotted(node) == "np.add.at":
                add_at.add(where)
            if isinstance(node, ast.Call) and dotted(node.func) == "np.bincount":
                if len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords):
                    weighted.add(where)
    assert banned == []
    assert weighted == {"moves.pair_entries"}
    assert add_at == {"verify._sparse_defects"}


def test_one_rotation_primitive():
    # Every rotation the package chooses is rotate_to's: only it solves for
    # an angle, and the dense kernel rotate_pair_inplace is called only
    # inside moves.py (by rotate_to and by Move, for replays).
    paths = sorted((ROOT / "src" / "carpenter").glob("*.py"))
    assert len(paths) >= 8
    calls = {"_solve_rotation_angle": set(), "rotate_pair_inplace": set()}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[id(node)] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = (dotted(node.func) or "").rpartition(".")[2]
                if name in calls:
                    calls[name].add(f"{path.stem}.{owner.get(id(node), '<module>')}")
    assert calls["_solve_rotation_angle"] == {"moves.rotate_to"}
    assert {where.partition(".")[0] for where in calls["rotate_pair_inplace"]} == {"moves"}


def test_tetris_has_one_threshold_search():
    # The stream finds its thresholds in one place: _ensure_rows bisects the
    # exact prefix sums that _pull alone makes from the terms. take and
    # next_row emit rows from what that search leaves, so neither may search
    # again, by bisect_left, a numpy searchsorted or exact sums of their own
    # (projection_prefix's searchsorted ranks labels).
    path = ROOT / "src" / "carpenter" / "tetris.py"
    tree = ast.parse(path.read_text(), str(path))
    owner = {}  # node -> the innermost function holding it
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name
    uses = {"bisect_left": set(), "_exact": set(), "searchsorted": set()}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in uses:
            uses[name].add(owner.get(id(node), "<module>"))
    assert uses == {"bisect_left": {"_ensure_rows"}, "_exact": {"_pull"}, "searchsorted": {"projection_prefix"}}


def test_test_imports_are_declared():
    # The tests' third-party imports, at module level or through
    # pytest.importorskip, must be named in pyproject.toml's dependencies or
    # its "test" extra, so that `pip install -e .[test]` can run the suite.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[^A-Za-z0-9_.-]", req, maxsplit=1)[0].lower()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    local = {"carpenter"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    imported = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
                and isinstance(node.args[0], ast.Constant)
            ):
                imported.setdefault(node.args[0].value.split(".")[0], path.name)
    third_party = {
        name: where
        for name, where in imported.items()
        if name not in sys.stdlib_module_names and name not in local
    }
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= third_party.keys()
    assert {name: where for name, where in third_party.items() if name not in declared} == {}
    # The package's own third-party imports, at any depth (inside a function
    # too), are exactly its declared dependencies: numpy alone.
    used = set()
    for path in sorted((ROOT / "src" / "carpenter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                used.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
    assert {name for name in used if name not in sys.stdlib_module_names} == set(project["dependencies"]) == {"numpy"}
