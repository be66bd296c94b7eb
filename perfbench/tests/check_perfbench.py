"""Self-tests of the benchmark: helpers, span arithmetic, declared metric
names, independent checks, and a short run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import carpenter  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_percentile_and_samples_beyond():
    values = list(range(100, 0, -1))
    assert worker.percentile(values, 0.9) == (90, 10)
    assert worker.percentile(values, 0.5) == (50, 50)
    assert worker.percentile([7.0], 0.9) == (7.0, 0)
    assert worker.percentile([3, 1, 2], 1.0) == (3, 0)
    with pytest.raises(ValueError):
        worker.percentile([], 0.5)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 2.0, 3.0, 1, 1),
        ("b", 5.0, 7.0, 0, 1),
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 1.0, 2.0]
    table = spans.layer_table(recorded)
    assert table["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}


def test_tracer_wraps_callers_bindings_and_restores_them():
    original = carpenter.builder.horn_build
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert carpenter.builder.horn_build is not original
        carpenter.build([0.25, 0.25, 0.75, 0.75])
    finally:
        tracer.uninstall()
    assert carpenter.builder.horn_build is original
    assert not hasattr(carpenter.TetrisStream.next_row, "__wrapped__")
    assert tracer.missing == [] and tracer.hook_errors == 0
    table = spans.layer_table(tracer.spans)
    assert table["builder.build"]["calls"] == 1
    assert table["horn.horn_build"]["calls"] == 1
    assert table["verify.check_projection"]["calls"] == 1
    assert tracer.counters["verify.check_projection.flops_computed"] == 2 * 4**3
    build_span = next(i for i, s in enumerate(tracer.spans) if s[0] == "builder.build")
    parents = {s[0]: s[3] for s in tracer.spans}
    assert parents["horn.horn_build"] == parents["verify.check_projection"] == build_span
    assert tracer.spans[parents["diagonal.tail_sums"]][0] == "diagonal.classify"


def test_traced_counts_repeat_exactly(tmp_path):
    mix = workloads.CliMix(3, str(tmp_path))
    cycles = [(0, mix.make_cycle(0))]
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            worker.run_pass(mix, cycles, residual_cycles=1, tracer=tracer)
        finally:
            tracer.uninstall()
        calls = {k: row["calls"] for k, row in spans.layer_table(tracer.spans).items()}
        counts.append((calls, dict(tracer.counters), [rec["m"] for rec in tracer.streams]))
    assert counts[0] == counts[1]
    assert counts[0][0]["cli.main"] == len(cycles[0][1])


def test_row_cost_ratio_pools_first_and_last_tenths():
    assert spans.row_cost_ratio([]) == 0.0
    assert spans.row_cost_ratio([{"times": [1.0] * 10 + [3.0] * 10, "m": 0}]) == pytest.approx(3.0)


def _outcome(seconds, status=workloads.OK, residual=1e-15):
    return workloads.Outcome("x", seconds, seconds, status, residual)


def test_tally_times_complete_cycles_only():
    tally = worker.Tally(residual_cycles=1)
    for seconds, status in [(2.0, workloads.OK), (1.0, workloads.OK)]:
        tally.add(_outcome(seconds, status))
    tally.close_cycle()
    tally.add(_outcome(3.0, workloads.REPORTED))
    tally.add(_outcome(4.0, workloads.OK))
    tally.close_cycle()
    tally.add(_outcome(9.0, workloads.REPORTED, residual=1.0))  # cut-off cycle
    summary = tally.summary()
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (5, 2, True)
    assert summary["metrics"]["throughput_per_s"][0] == pytest.approx(3 / 10)
    assert summary["metrics"]["latency_p50_s"] == (2.0, "s", 4)
    assert summary["metrics"]["verified_frac"][0] == pytest.approx(3 / 5)
    assert summary["metrics"]["max_residual"][:3:2] == (1e-15, 2)
    assert summary["cycles"] == 2


def test_residual_is_the_median_of_each_cycles_worst():
    tally = worker.Tally(residual_cycles=3)
    for residuals in ([1e-15, 5e-15], [2e-15], [9e-15], [1.0]):
        for r in residuals:
            tally.add(_outcome(0.1, residual=r))
        tally.close_cycle()
    assert tally.summary()["metrics"]["max_residual"] == (5e-15, "1", 4)


def test_a_pass_stops_after_its_time_but_completes_a_cycle():
    class Fake(workloads.Workload):
        def run(self, tasks, digest, tracer=None):
            for t in tasks:
                yield [_outcome(t)]

    cycles = ((c, [0.1, 0.2, 0.3]) for c in range(1000))
    tally = worker.run_pass(Fake(0, ""), cycles, residual_cycles=1, seconds=0.0)
    assert tally.complete == 1 and tally.runs == 3
    tally = worker.run_pass(Fake(0, ""), [(0, [0.1]), (1, [0.2])], residual_cycles=1)
    assert tally.complete == 2


def test_traced_cycles_depend_on_seconds_alone():
    assert worker.trace_cycles("finite-build", 30) == worker.trace_cycles("finite-build", 30)
    assert all(worker.trace_cycles(w, 1) == 1 for w in workloads.WORKLOADS)
    assert set(worker.RESIDUAL_CYCLES) == set(worker.CYCLE_SECONDS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_cycles_are_fresh_and_reproducible(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, str(tmp_path))
    again = workloads.WORKLOADS[name](5, str(tmp_path / "again"))

    def inputs(tasks):  # a request's paths differ by directory; its facts hold its inputs
        return [t.facts if name == "cli-mix" else t for t in tasks]

    assert inputs(wl.make_cycle(3)) == inputs(again.make_cycle(3))
    assert inputs(wl.make_cycle(3)) != inputs(wl.make_cycle(4))


def test_cli_mix_gives_every_group_the_same_share(tmp_path):
    tasks = workloads.CliMix(2, str(tmp_path)).make_cycle(0)
    routes = [t.route for t in tasks]
    assert len(tasks) == len(workloads.GROUPS) * workloads.PER_GROUP
    for group, members in workloads.GROUPS.items():
        count = sum(r in members for r in routes)
        assert count == workloads.PER_GROUP, group


def test_layer_metric_names_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == worker.LAYER_METRICS


def test_end_to_end_metric_names_match_benchmark_json():
    tally = worker.Tally(residual_cycles=1)
    tally.add(_outcome(0.1))
    tally.close_cycle()
    produced = {k: unit for k, (_, unit, _) in tally.summary()["metrics"].items()}
    produced["setup_s"] = "s"
    assert produced == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_checks_catch_broken_outputs():
    P = np.zeros((3, 3))
    P[0, 0] = 1.0
    assert max(checks.matrix_defects(P, [1.0, 0.0, 0.0], range(3)).values()) == 0.0
    assert checks.matrix_defects(0.5 * np.eye(3), [0.5] * 3, range(3))["idempotence"] == 0.25
    assert checks.matrix_defects(P, [0.9, 0.0, 0.0], [0])["diagonal"] == pytest.approx(0.1)
    P[0, 1] = 1e-3
    assert checks.matrix_defects(P, [1.0, 0.0, 0.0], range(3))["symmetry"] == 1e-3
    assert checks.row_defects([(0, [1.0]), (1, [1.0])]) == 0.0
    assert checks.row_defects([(0, [0.6, 0.8]), (1, [1.0])]) == pytest.approx(0.8)
    assert checks.row_defects([(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0]), (2, [1.0])]) == float("inf")


def test_cli_mix_probes_the_documented_defect_apart(tmp_path):
    mix = workloads.CliMix(0, str(tmp_path))
    assert "build-approx" not in {t.route for t in mix.make_cycle(0)}
    known = mix.probe()[0]
    assert known.route == "build-approx-known"
    outcome, code = mix.request(known)
    assert code == 0
    assert outcome.status == workloads.REPORTED
    assert "all_pass false" in outcome.detail
    probe = worker.run_probe(mix)
    assert probe["attempted"] == workloads.APPROX_PROBES + 1
    assert 1 <= probe["failed"] == sum(probe["by_kind"].values()) and not probe["wrong"]
    assert worker.run_probe(workloads.FiniteBuild(0, str(tmp_path)))["attempted"] == 0


def test_every_cli_request_class_checks_out(tmp_path):
    mix = workloads.CliMix(1, str(tmp_path))
    seen = {}
    for req in mix.make_cycle(0):
        if req.route not in seen:
            seen[req.route] = mix.request(req)[0]
    assert set(seen) == {r for routes in workloads.GROUPS.values() for r in routes}
    assert all(o.status == workloads.OK for o in seen.values()), seen


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    res = _bench(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace])
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    res = _bench(["--workload", "cli-mix", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert res.returncode != 0
    assert "metrics" not in res.stdout
