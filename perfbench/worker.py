"""One workload in a fresh interpreter: set up, say READY, measure, report.

``run.py`` starts this file with PYTHONPATH pointing at the checkout's
``src`` and the BLAS thread count pinned in the environment. It prints
``READY`` once carpenter is imported, the inputs are made and one warm-up
task has run, and at the end one ``RESULT <json>`` line.

    python3 perfbench/worker.py --workload finite-build --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import carpenter  # noqa: E402
import spans  # noqa: E402
from workloads import OK, WRONG, WORKLOADS, Digest  # noqa: E402

clock = time.perf_counter

# Per-layer metrics: (name, unit). Names of counters and spans are the same
# as in spans.TARGETS and spans.HOOKS.
LAYER_METRICS = [
    ("horn.horn_build.calls", "count"),
    ("horn.horn_build.self_s", "s"),
    ("horn.horn_build.n_rank", "count"),
    ("verify.check_projection.calls", "count"),
    ("verify.check_projection.self_s", "s"),
    ("verify.check_projection.flops_computed", "flop"),
    ("tetris.next_row.calls", "count"),
    ("tetris.next_row.self_s", "s"),
    ("tetris.row_cost_ratio", "ratio"),
    ("tetris.source_terms", "count"),
    ("verify.check_rows.self_s", "s"),
    ("verify.check_rows.bytes_computed", "B"),
    ("tetris.projection_prefix.self_s", "s"),
    ("builder.build_case2.self_s", "s"),
    ("builder.build.self_s", "s"),
    ("builder.notices", "count"),
    ("moves.ops_restore.calls", "count"),
    ("moves.ops_restore.self_s", "s"),
    ("moves.plan_moves", "count"),
    ("diagonal.classify.calls", "count"),
    ("diagonal.classify.self_s", "s"),
    ("diagonal.tail_sums.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "frac"),
]

# Cycles whose tasks give max_residual; they take about 15 s (finite-build),
# 9 s (stream-rows) and 20 s (cli-mix) on a 2-vCPU Xeon.
RESIDUAL_CYCLES = {"finite-build": 8, "stream-rows": 1, "cli-mix": 48}
# Seconds one cycle takes there, checks included; sets the cycles of a traced run.
CYCLE_SECONDS = {"finite-build": 1.9, "stream-rows": 8.5, "cli-mix": 0.45}


def trace_cycles(workload: str, seconds: float) -> int:
    """Cycles of a traced run: each of its three passes takes about a third
    of ``seconds``, and the count depends on ``seconds`` alone, so the
    traced counts of a seed repeat exactly."""
    return max(1, round(seconds / 3 / CYCLE_SECONDS[workload]))


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile of ``values`` and the number of samples
    strictly beyond its rank.

    With 100 samples the 0.9 quantile is the 90th smallest value and 10
    samples lie beyond it, which is the least a tail percentile should rest on.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Running totals of a pass, kept per cycle.

    Timings are taken over the complete cycles only: each is an equal
    sample of the workload's mix, where the cycle cut off by the end of the
    run holds whichever tasks came first. Failures count over every task
    run. The residual is the median, over the first ``residual_cycles``
    complete cycles, of each cycle's worst residual: it does not depend on
    how many cycles fit into the run, and one extreme rounding error among
    hundreds does not set it. Timings are kept in flat arrays, which the
    garbage collector does not scan, so a long pass does not slow the
    collections that run inside timed calls.
    """

    def __init__(self, residual_cycles: int):
        self.residual_cycles = residual_cycles
        self.runs = 0
        self.failed = 0
        self.wrong = False
        self.cycle_worst = array("d")  # worst residual of each residual cycle
        self.residuals = 0
        self.failures: dict[str, int] = {}
        self.first_failures: list[dict] = []
        self.latencies = array("d")  # tasks of the complete cycles
        self.strata: dict[str, array] = {}
        self.complete = 0  # cycles
        self.verified = 0  # tasks of the complete cycles that passed every check
        self.busy = 0.0  # seconds inside carpenter, complete cycles
        self.wall = 0.0
        self._open: list = []  # (stratum, latency) of the open cycle
        self._open_busy = 0.0
        self._open_ok = 0
        self._open_worst: list[float] = []

    def add(self, o) -> None:
        self.runs += 1
        self._open.append((o.stratum, o.latency))
        self._open_busy += o.busy
        self._open_ok += o.status == OK
        if o.residual is not None:
            self._open_worst.append(o.residual)
        if o.status != OK:
            self.failed += 1
            self.wrong = self.wrong or o.status == WRONG
            key = f"{o.kind}/{o.status}"
            self.failures[key] = self.failures.get(key, 0) + 1
            if len(self.first_failures) < 20:
                self.first_failures.append({"kind": o.kind, "status": o.status, "detail": o.detail[:300]})

    def close_cycle(self) -> None:
        for stratum, latency in self._open:
            self.latencies.append(latency)
            self.strata.setdefault(stratum, array("d")).append(latency)
        if self._open_worst and self.complete < self.residual_cycles:
            self.cycle_worst.append(max(self._open_worst))
            self.residuals += len(self._open_worst)
        self.complete += 1
        self.verified += self._open_ok
        self.busy += self._open_busy
        self._open, self._open_busy, self._open_ok, self._open_worst = [], 0.0, 0, []

    def summary(self) -> dict:
        """End-to-end figures of the pass (set-up time is measured by run.py)."""
        n = len(self.latencies)
        p50, _ = percentile(self.latencies, 0.5)
        p90, beyond = percentile(self.latencies, 0.9)
        return {
            "attempted": self.runs,
            "failed": self.failed,
            "correct": not self.wrong,
            "metrics": {
                "throughput_per_s": (self.verified / self.busy, "1/s", n),
                "latency_p50_s": (p50, "s", n),
                "latency_p90_s": (p90, "s", n),
                "verified_frac": ((self.runs - self.failed) / self.runs, "frac", self.runs),
                "max_residual": (statistics.median(self.cycle_worst) if self.cycle_worst else 0.0, "1",
                                 self.residuals),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            },
            "p90_beyond": beyond,
            "cycles": self.complete,
            "latency_p50_by_stratum": {k: [statistics.median(v), len(v)] for k, v in sorted(self.strata.items())},
            "failures": {"by_kind": self.failures, "first": self.first_failures},
        }


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


def run_pass(wl, cycles, residual_cycles: int, seconds: float = math.inf, digest: Digest | None = None,
             tracer=None) -> Tally:
    """Closed loop over ``cycles``, (number, tasks) pairs: the next task
    starts when the previous one returns. The pass ends when the cycles run
    out, or at the first step after ``seconds`` once a cycle is complete.

    Freed heap memory is handed back to the system between tasks, so the
    peak RSS is set by the largest task and not by the order in which the
    seed's tasks happened to fragment the heap (which moved it by 15 MB on
    finite-build).
    """
    tally = Tally(residual_cycles)
    trim = _malloc_trim()
    start = clock()
    deadline = start + seconds
    for c, tasks in cycles:
        steps = wl.run(tasks, digest if c == 0 else None, tracer)
        for outs in steps:
            if tracer is not None:
                tracer.task += 1
            for o in outs:
                tally.add(o)
            trim(0)
            if tally.complete and clock() > deadline:
                steps.close()
                tally.wall = clock() - start
                return tally
        tally.close_cycle()
        if digest is not None and c == 0:
            digest.complete = True
        if clock() > deadline:
            break
    tally.wall = clock() - start
    return tally


def fresh_cycles(wl, first):
    """Cycle 0 (made at set-up), then a new cycle for every number after it;
    each is released once the next is asked for."""
    c, tasks = 0, first
    while True:
        yield c, tasks
        wl.release(tasks)
        c += 1
        tasks = wl.make_cycle(c)


def run_probe(wl) -> dict:
    """Run the workload's probe once, untimed, and count its failures apart
    from the measurement's ``attempted`` and ``failed``. A wrong answer
    presented as a right one still makes the run incorrect."""
    tally = Tally(residual_cycles=0)
    for outs in wl.run(wl.probe(), None):
        for o in outs:
            tally.add(o)
    return {"attempted": tally.runs, "failed": tally.failed, "wrong": tally.wrong,
            "by_kind": tally.failures, "first": tally.first_failures}


def layer_metrics(tracer, overhead: float) -> tuple[dict, dict]:
    table = spans.layer_table(tracer.spans)
    out = {}
    for name, unit in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if name == "tetris.row_cost_ratio":
            value = spans.row_cost_ratio(tracer.streams)
        elif name == "tetris.source_terms":
            value = sum(rec["m"] for rec in tracer.streams)
        elif name == "trace.overhead_frac":
            value = overhead
        elif field in ("calls", "self_s") and base in spans.TARGETS:
            value = table.get(base, {}).get(field, 0)
        else:
            value = tracer.counters.get(name, 0)
        out[name] = (value, unit)
    return out, table


def blas_info() -> dict:
    """OpenBLAS versions and the thread count numpy's OpenBLAS reports."""
    info = {}
    for mod in (np, scipy):
        try:
            info[mod.__name__ + "_openblas"] = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            info[mod.__name__ + "_openblas"] = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for fname in sorted(os.listdir(libdir)) if os.path.isdir(libdir) else []:
        if "openblas" in fname:
            lib = ctypes.CDLL(os.path.join(libdir, fname))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = int(getattr(lib, sym)())
                    break
    info["numpy_blas_threads"] = threads
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        wl = WORKLOADS[args.workload](args.seed, args.workdir)
        first = wl.make_cycle(0)
        wl.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        digest = Digest(wl.digest_items())
        record = {
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                **blas_info(),
            },
            "carpenter_file": carpenter.__file__,
        }
        residual_cycles = RESIDUAL_CYCLES[args.workload]
        if args.trace == 0:
            tally = run_pass(wl, fresh_cycles(wl, first), residual_cycles, args.seconds, digest)
            record.update(tally.summary(), wall_s=tally.wall)
        else:
            # A fixed number of cycles, so that every count repeats exactly:
            # untraced, traced, untraced, all on the same inputs. The first
            # pass takes the cold start; the traced pass is compared with
            # the last, equally warm, one.
            count = trace_cycles(args.workload, args.seconds)
            cycles = [(0, first)] + [(c, wl.make_cycle(c)) for c in range(1, count)]
            warm = run_pass(wl, cycles, residual_cycles, digest=digest)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(wl, cycles, residual_cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            plain = run_pass(wl, cycles, residual_cycles)
            passes = [t.summary() for t in (warm, traced, plain)]
            layers, table = layer_metrics(tracer, traced.busy / plain.busy - 1.0)
            top = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
            wall = traced.wall
            record.update(
                attempted=sum(s["attempted"] for s in passes),
                failed=sum(s["failed"] for s in passes),
                correct=all(s["correct"] for s in passes),
                metrics={k: (v, u, passes[1]["attempted"]) for k, (v, u) in layers.items()},
                failures=passes[1]["failures"],
                cycles=count,
                layers={k: table[k] for k in sorted(table)},
                traced_wall_s=wall,
                outside_carpenter_s=wall - top,
                missing_targets=tracer.missing,
                hook_errors=tracer.hook_errors,
            )
        record["known_defects"] = run_probe(wl)
        record["correct"] = record["correct"] and not record["known_defects"]["wrong"]
        record["digest"] = digest.summary()
        print("RESULT " + json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
