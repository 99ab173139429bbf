"""Benchmark command for dynpanel; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run starts three fresh single-process
workers in turn, with OpenBLAS, OpenMP and MKL pinned to one thread. Each
sets up, runs a warm-up operation and times operations for S/3 seconds;
the first also checks its warm-up output in depth. With ``--trace 1``
traced and untraced operations alternate and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when a check fails and 2
when a worker cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replicate-brand", "mc-odfd", "fit-large-n")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# measuring workers per run; each sets up once (the set-up median) and
# times its share of the run, so one process's luck cannot set the median
WORKERS = 3
THREADS_PROBE_SECONDS = 6.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_s_p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up seconds and its result."""
    start = time.monotonic()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {argv} timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {argv} exited {proc.returncode}")
    ready = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or result is None:
        raise WorkerError(f"worker {argv} ended without a result")
    return ready - start, result


def commit_sha() -> str:
    """HEAD of the repository at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def layer_metrics(parts: list[dict]) -> dict:
    """Per traced op: calls and self ms of every traced function, counts
    read from results, and the tracing overhead."""
    traced = [t for p in parts for t in p["traced_times"]]
    untraced = [t for p in parts for t in p["times"]]
    n = len(traced)
    self_s: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for p in parts:
        for name, (calls, secs) in p["self_s"].items():
            acc = self_s.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for key, value in p["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for mod, funcs in tracer.TRACED.items():
        for f in funcs:
            calls, secs = self_s.get(f"{mod}.{f}", (0, 0.0))
            out[f"{mod}.{f}.calls"] = calls / n
            out[f"{mod}.{f}.self_ms"] = 1e3 * secs / n
    for key in ("panel.ingest_long_csv.rows", "transforms.apply_grid.cells",
                "simulate.generate.cells", "estimators.build_design.rows",
                "instruments.assemble.columns"):
        out[key] = counts.get(key, 0) / n
    out["instruments.assemble.pruned"] = statistics.fmean(p["pruned_per_op"] for p in parts)
    steps = counts.get("estimators.fit_gmm.steps", 0)
    out["estimators.fit_gmm.steps"] = steps / n
    fit_self_s = self_s.get("estimators.fit_gmm", (0, 0.0))[1]
    out["estimators.fit_gmm.self_ms_per_step"] = 1e3 * fit_self_s / steps if steps else 0.0
    out["estimators.fit_gmm.pinv_fits"] = counts.get("estimators.fit_gmm.pinv_fits", 0) / n
    cols = counts.get("estimators.fit_gmm.columns", 0)
    out["estimators.fit_gmm.rank_ratio"] = (
        counts.get("estimators.fit_gmm.rank", 0) / cols if cols else 0.0)
    out["estimators.fit_gmm.failed"] = counts.get("estimators.fit_gmm.failed", 0) / n
    out["diagnostics.ab_serial_correlation.pairs"] = (
        counts.get("diagnostics.ab_serial_correlation.pairs", 0) / n)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dynpanel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    pinned = {**os.environ, **{v: "1" for v in BLAS_VARS}}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    share = str(args.seconds / WORKERS)
    setups, parts = [], []
    threads_probe = None
    try:
        for w in range(WORKERS):
            argv = common + ["--seconds", share, "--trace", str(args.trace), "--part", str(w)]
            wall, res = spawn(argv, pinned, deadline)
            setups.append(wall * res["setup_speed"])
            parts.append(res)
        if args.trace and args.workload == "replicate-brand":
            unpinned = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
            # part 1: the in-depth checks already ran in the pinned worker 0
            _, threads_probe = spawn(common + ["--seconds", str(THREADS_PROBE_SECONDS),
                                               "--part", "1"], unpinned, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_tmp").rmdir()

    times = [t for p in parts for t in p["times"]]
    wall = [t for p in parts for t in p["wall_times"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    problems = [f"worker {w}, {msg}" for w, p in enumerate(parts) for msg in p["problems"]]
    if not all(p["times"] for p in parts):
        print("error: a worker completed no operation: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    env = parts[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, commit {commit_sha()}")
    print(f"ops per run: {len(times)} untraced"
          + (f" + {sum(len(p['traced_times']) for p in parts)} traced" if args.trace else "")
          + f" + {WORKERS} warm-up, over {WORKERS} workers; one warm-up op checked in depth, "
          + ("against the reference" if parts[0]["reference_checked"]
             else "no reference stored for this seed"))
    end_to_end = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    samples = {"ops_per_s": len(times), "op_s_p50": len(times),
               "setup_s": len(setups), "peak_rss_mb": WORKERS}
    print("end-to-end (times in reference seconds, see calibration.py):")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<5} n={samples[name]}")
    print(f"  {'error_rate':<12} {failed / attempted:12.6g} {'ratio':<5} "
          f"n={attempted} ({failed} failed)")
    print(f"report-only: wall clock {len(wall) / sum(wall):.6g} op/s, "
          f"median {statistics.median(wall):.6g} s per op")
    for p in problems:
        print(f"  FAILED {p}")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer_metrics(parts).items()}
        print("per-layer metrics, per traced operation (self_ms in reference ms):")
        for name, m in metrics.items():
            print(f"  {name:<46} {m['value']:14.6g} {m['unit']}")
        for line in parts[0]["report_only"]:
            print(f"report-only: {line}")
        if threads_probe is not None and threads_probe["wall_times"]:
            probe = threads_probe["wall_times"]
            print(f"report-only: wall-clock median per op with default BLAS threads "
                  f"{threads_probe['env']['blas_threads']}: {statistics.median(probe):.6g} s "
                  f"(n={len(probe)}), pinned to 1: {statistics.median(wall):.6g} s "
                  f"(n={len(wall)})")
            for msg in threads_probe["problems"]:
                print(f"report-only: FAILED with default BLAS threads: {msg}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("rank_ratio"):
        return "ratio"
    if name.endswith(("self_ms", "self_ms_per_step")):
        return "ms"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
