"""Benchmark entry point: time carpenter end to end, or layer by layer.

    python3 perfbench/run.py --workload finite-build --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own fresh interpreter (``worker.py``) with
``PYTHONPATH=src`` and OpenBLAS pinned to BLAS_THREADS threads. Set-up time
is measured here, from starting an interpreter to its READY line, several
times per run; the median is reported. With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics declared in
BENCHMARK.json, with ``--trace 1`` the per-layer ones. Lines before it give
each metric with its unit and sample count, the environment and an output
digest; the full record is also written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("finite-build", "stream-rows", "cli-mix")

# One thread keeps runs steady on a small shared machine; it must not exceed
# the cores the process may use.
BLAS_THREADS = 1
# Interpreters started per run to time set-up, half before and half after
# the measuring worker (which adds one), so that the median spans the run.
SETUP_PROBES = 10


class BenchError(RuntimeError):
    pass


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def start_worker(args, workdir: str, env: dict, setup_only: bool, timeout: float):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 10)
        raise BenchError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout: float) -> str:
    """Read the rest of a worker's output and wait for it; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def environment(threads: int, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "blas_threads_pinned": threads,
        "seed": seed,
        "launch": "PYTHONPATH=src (carpenter is imported from the checkout, not installed)",
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def probe_setup(args, workdir: str, env: dict, count: int) -> list[float]:
    """Set-up seconds of ``count`` interpreters that stop at READY."""
    setups = []
    for _ in range(count):
        proc, setup = start_worker(args, workdir, env, True, 120)
        finish(proc, 60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        setups.append(setup)
    return setups


def run_one(args) -> dict:
    """The measuring worker between two halves of the set-up probes
    (untraced runs only, where setup_s is reported); returns the full record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "carpenter", "__init__.py")):
        raise BenchError(f"no carpenter sources under {os.path.join(ROOT, 'src')}")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = child_env(threads)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    probes = 0 if args.trace else SETUP_PROBES
    setups = probe_setup(args, workdir, env, probes // 2)
    proc, setup = start_worker(args, workdir, env, False, 120)
    setups.append(setup)
    out = finish(proc, 2 * args.seconds + 120)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    setups += probe_setup(args, workdir, env, probes - probes // 2)
    results = [line[len("RESULT "):] for line in out.splitlines() if line.startswith("RESULT ")]
    if len(results) != 1:
        raise BenchError("worker printed no result")
    record = json.loads(results[0])
    if not args.trace:
        record["metrics"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    record["setup_samples_s"] = setups
    record["workload"] = args.workload
    record["seconds"] = args.seconds
    record["trace"] = args.trace
    record["environment"] = environment(threads, args.seed)
    return record


def report(record: dict, declared: list[dict]) -> dict:
    """Print the human-readable lines and return the JSON result object."""
    wl = record["workload"]
    metrics = {}
    for m in declared:
        value, unit, samples = record["metrics"][m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit}, declared {m['unit']}")
        extra = ""
        if m["name"] == "latency_p90_s":
            extra = f", {record['p90_beyond']} beyond"
        print(f"{wl}  {m['name']:<40} {value:<24.6g} {unit:<6} (n={samples}{extra})")
        metrics[m["name"]] = {"value": value, "unit": unit}
    extra = set(record["metrics"]) - {m["name"] for m in declared}
    if extra:
        raise BenchError(f"undeclared metrics {sorted(extra)}")
    print(f"{wl}  attempted {record['attempted']}, failed {record['failed']}, correct {record['correct']},"
          f" complete cycles {record['cycles']}")
    for stratum, (p50, count) in record.get("latency_p50_by_stratum", {}).items():
        print(f"{wl}  latency p50 of {stratum:<24} {p50:<24.6g} s      (n={count})")
    for key, count in sorted(record["failures"]["by_kind"].items()):
        print(f"{wl}  failures {key}: {count}")
    probe = record["known_defects"]
    if probe["attempted"]:
        print(f"{wl}  known defects, probed apart from the measurement: {probe['failed']} of {probe['attempted']}"
              f" failed {json.dumps(probe['by_kind'])}")
    if record["trace"]:
        wall = record["traced_wall_s"]
        print(f"{wl}  traced wall {wall:.4f} s")
        for name, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{wl}  layer {name:<28} calls {row['calls']:<8} self {row['self_s']:.4f} s"
                  f" ({100 * row['self_s'] / wall:.1f}% of traced wall)")
        print(f"{wl}  layer (outside carpenter)            self {record['outside_carpenter_s']:.4f} s")
    print(f"{wl}  digest {json.dumps(record['digest'])}")
    print(f"{wl}  environment {json.dumps(record['environment'])} versions {json.dumps(record['versions'])}")
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def save(record: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    name = f"{record['workload']}-seed{record['environment']['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        declared = declared_metrics(args.trace)
        results = {}
        for name in names:
            record = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
            save(record)
            results[name] = report(record, declared)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(OUT, f"work-{os.getpid()}"), ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
