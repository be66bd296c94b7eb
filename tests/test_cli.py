"""Exit codes, file formats, and report plumbing for the command-line tool."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carpenter
import carpenter.cli
from carpenter import BuildOptions, NeedsMoreTermsError, build
from carpenter.cli import main
from test_builder import CORNER_SPECS, integer_sum_diagonal, near_integer_diagonal, random_approximate_spec


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_classify_feasible_exit_zero(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.25, 0.25, 0.75, 0.75]")
    assert main(["classify", "--input", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "case_i"
    assert out["a_minus_b"] == pytest.approx(0.0, abs=1e-12)


def test_classify_infeasible_exit_two(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.3333333333333333]")
    assert main(["classify", "--input", f]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "infeasible"


def test_build_writes_matrix_and_sidecar(tmp_path):
    d = [0.25, 0.25, 0.75, 0.75]
    f = write(tmp_path, "d.json", json.dumps(d))
    out = tmp_path / "P.csv"
    assert main(["build", "--input", f, "--output", str(out)]) == 0
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in out.read_text().strip().splitlines()
    ]
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(np.array(rows), build(d).matrix)
    sidecar = json.loads((tmp_path / "P.csv.report.json").read_text())
    assert sidecar["verification"]["all_pass"] is True
    assert sidecar["kadison"]["verdict"] == "case_i"


def test_build_stdout_sidecar_on_stderr(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    assert main(["build", "--input", f]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 2
    assert json.loads(captured.err)["verification"]["all_pass"] is True


def test_build_infeasible_reports_witness(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.2, 0.9]")
    assert main(["build", "--input", f]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "infeasible"
    assert out["a"] == pytest.approx(0.2)
    assert out["b"] == pytest.approx(0.1)


def test_build_csv_input(tmp_path, capsys):
    f = write(tmp_path, "d.csv", "0.5,0.5\n")
    assert main(["build", "--input", f]) == 0
    capsys.readouterr()


def test_stream_rows_and_summary(tmp_path, capsys):
    f = write(tmp_path, "d.json", '{"prefix": [], "tail": {"kind": "constant", "c": 0.4}}')
    assert main(["stream", "--input", f, "--rows", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    for line in lines[:8]:
        row = json.loads(line)
        assert set(row) == {"n", "support", "values"}
    summary = json.loads(lines[-1])
    assert summary["completed"] == len(summary["norms_squared"])
    assert summary["max_deviation"] <= 1e-12
    assert summary["trivial_ones"] == [] and summary["trivial_zeros"] == []


def test_stream_rejects_finite_sums(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    assert main(["stream", "--input", f]) == 1
    assert "build command" in capsys.readouterr().err


def test_stream_rejects_multi_block_plans(tmp_path, capsys):
    f = write(
        tmp_path,
        "d.json",
        '{"prefix": [0.7, 0.8], "tail": {"kind": "constant", "c": 0.4}}',
    )
    assert main(["stream", "--input", f, "--rows", "4"]) == 1
    assert "multiple blocks" in capsys.readouterr().err


def test_negative_counts_are_input_errors(tmp_path, capsys):
    # README: malformed input exits 1; neither command may write an output
    f = write(tmp_path, "d.json", '{"prefix": [], "tail": {"kind": "constant", "c": 0.4}}')
    out = tmp_path / "out.txt"
    for argv, message in [
        (["stream", "--input", f, "--rows", "-3"], "rows must be nonnegative, got -3"),
        (["oracle", "--dim", "4", "--rank", "2", "--trials", "-4"], "trials must be nonnegative, got -4"),
    ]:
        assert main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    d = write(tmp_path, "d.csv", "1.0,0.0\n")
    good = write(tmp_path, "P.csv", "1,0\n0,0\n")
    assert main(["verify", "--input", good, "--diagonal", d]) == 0
    capsys.readouterr()
    bad = write(tmp_path, "Q.csv", "0.5,0\n0,0\n")
    assert main(["verify", "--input", bad, "--diagonal", d]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_pass"] is False
    assert rep["pass"]["idempotence"] is False


def test_verify_nan_matrix_fails_with_exit_two(tmp_path, capsys):
    d = integer_sum_diagonal(np.random.default_rng(20), 20)
    P = build(d).matrix
    P[0, 0] = np.nan
    f = write(tmp_path, "d.json", json.dumps(d))
    m = write(tmp_path, "P.csv", carpenter.cli._matrix_to_csv(P))
    assert main(["verify", "--input", m, "--diagonal", f]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_pass"] is False
    assert rep["estimated_rank"] == 0


def reference_csv(P):
    """The one-line writer that formatted every entry: the CSV contract."""
    return "\n".join(",".join("%.17g" % x for x in row) for row in P) + "\n"


def assert_csv_round_trips(tmp_path, P):
    text = carpenter.cli._matrix_to_csv(P)
    assert text == reference_csv(P)
    back = carpenter.cli._load_matrix(write(tmp_path, "P.csv", text), None)
    assert back.shape == P.shape
    assert np.array_equal(back.view(np.uint64), P.view(np.uint64))  # -0.0 included


def test_csv_of_builds_matches_reference(tmp_path):
    for n in [*range(1, 13), 17, 31, 64, 100, 150, 200, 256, 300]:
        d = integer_sum_diagonal(np.random.default_rng(n), n)
        assert_csv_round_trips(tmp_path, build(d).matrix)


@pytest.mark.parametrize("name", ["case2-multi-block", "case2-complemented"])
def test_csv_of_corners_matches_reference(tmp_path, name):
    assert_csv_round_trips(tmp_path, build(CORNER_SPECS[name], BuildOptions(truncation_rows=12)).matrix)


def test_csv_of_approximate_power_tail_matches_reference(tmp_path):
    spec = random_approximate_spec(np.random.default_rng(7))
    res = build(spec, BuildOptions(mode="approximate", epsilon=1e-3))
    assert_csv_round_trips(tmp_path, res.matrix)


def test_csv_of_dense_and_special_values_matches_reference(tmp_path):
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-300, 300, size=(40, 40))
    assert_csv_round_trips(tmp_path, dense)
    specials = np.array(
        [
            [0.0, -0.0, np.nan, np.inf],
            [-np.inf, 5e-324, -5e-324, 1e308],
            [-1e308, 1.0, -1.0, 0.1],
            [2.0**-1022, 1 - 2.0**-53, 0.5, 0.0],
        ]
    )
    assert carpenter.cli._matrix_to_csv(specials) == reference_csv(specials)
    assert carpenter.cli._matrix_to_csv(specials).splitlines()[0] == "0,-0,nan,inf"
    # "nan" reads back as a NaN, not necessarily with the same bits
    finite = np.where(np.isnan(specials), 0.25, specials)
    assert_csv_round_trips(tmp_path, finite)


def test_csv_of_empty_matrix_is_one_newline():
    P = np.zeros((0, 0))
    assert carpenter.cli._matrix_to_csv(P) == reference_csv(P) == "\n"


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # The parser is made once per process; later calls, also after an
    # argument error, must behave as the first call of a fresh process does.
    f = write(tmp_path, "d.json", "[0.25, 0.25, 0.75, 0.75]")
    requests = [
        ["build", "--input", f],
        ["build", "--input", f, "--pipeline", "bogus"],
        ["classify", "--input", f],
    ]
    codes = []
    for argv in requests:
        codes.append(main(argv))
        captured = capsys.readouterr()
        proc = run_declared_script(*argv)
        assert (codes[-1], captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
    assert codes == [0, 1, 0]
    assert json.loads(captured.out)["verdict"] == "case_i"


def test_verify_dimension_mismatch(tmp_path, capsys):
    d = write(tmp_path, "d.csv", "1.0,0.0,0.0\n")
    P = write(tmp_path, "P.csv", "1,0\n0,0\n")
    assert main(["verify", "--input", P, "--diagonal", d]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_exit_codes(tmp_path, capsys):
    assert main(["oracle", "--dim", "4", "--rank", "2", "--trials", "25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_integral"] is True
    assert main(["oracle", "--dim", "3", "--rank", "3"]) == 1
    assert "0 < rank < dim" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert main(["classify", "--input", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    f = write(tmp_path, "d.json", "[0.5,\n 0.5")
    assert main(["classify", "--input", f]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_malformed_csv_reports_position(tmp_path, capsys):
    f = write(tmp_path, "d.csv", "0.5, x\n")
    assert main(["classify", "--input", f]) == 1
    assert "row 1, column 2" in capsys.readouterr().err


def test_format_override_beats_extension(tmp_path, capsys):
    f = write(tmp_path, "d.json", "0.5,0.5\n")
    assert main(["classify", "--input", f, "--format", "csv"]) == 0
    capsys.readouterr()


def test_unknown_command_is_input_error(capsys):
    assert main(["fold"]) == 1
    assert "error:" in capsys.readouterr().err


def test_build_full_pipeline_near_integer_sum(tmp_path):
    d = near_integer_diagonal(np.random.default_rng(3))
    f = write(tmp_path, "d.json", json.dumps(d))
    out = tmp_path / "P.csv"
    assert main(["build", "--input", f, "--pipeline", "full", "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "P.csv.report.json").read_text())
    assert sidecar["verification"]["all_pass"] is True


@pytest.mark.parametrize(
    "exc",
    [AssertionError("sigma bounds violated at n=3"), NeedsMoreTermsError("source exhausted after 2 terms")],
)
def test_failed_internal_check_exits_two(tmp_path, capsys, monkeypatch, exc):
    def fail(ns):
        raise exc

    monkeypatch.setitem(carpenter.cli._DISPATCH, "stream", fail)
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    assert main(["stream", "--input", f]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc}\n"
    assert captured.out == ""


def run_declared_script(*args):
    """Run `carpenter` the way pip's console-script wrapper does, without an install.

    The target comes from `[project.scripts]` in the repository's pyproject.toml;
    a fresh interpreter imports it from the package this test process imported.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["carpenter"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'carpenter'\n"
        f"sys.exit(EntryPoint('carpenter', {target!r}, 'console_scripts').load()())\n"
    )
    env = dict(os.environ)
    src = str(Path(carpenter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m carpenter.cli` runs the command, as the console script does,
    # rather than only importing the module and exiting 0
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    out = tmp_path / "P.csv"
    env = dict(os.environ)
    src = str(Path(carpenter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "carpenter.cli", *args], capture_output=True, text=True, env=env)

    proc = run("build", "--input", f, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == carpenter.cli._matrix_to_csv(build([0.5, 0.5]).matrix)
    proc = run("build", "--input", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "input file not found" in proc.stderr


def test_console_script_entry_point(tmp_path):
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    proc = run_declared_script("classify", "--input", f)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "case_i"
    bad = write(tmp_path, "bad.json", "[0.2, 0.9]")
    proc = run_declared_script("classify", "--input", bad)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "infeasible"


@pytest.mark.skipif(
    shutil.which("carpenter") is None,
    reason="no `carpenter` executable on PATH; needs `pip install`",
)
def test_installed_console_script(tmp_path):
    f = write(tmp_path, "d.json", "[0.5, 0.5]")
    proc = subprocess.run(
        ["carpenter", "classify", "--input", f],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "case_i"
