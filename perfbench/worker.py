"""One benchmark worker: set up a workload, time its operations, check them.

Started by ``run.py`` as a fresh process, with the BLAS thread variables
already in its environment. Protocol on stdout: ``READY <t>`` once the
inputs exist, where t is ``time.monotonic()`` (CLOCK_MONOTONIC, which is
system-wide on Linux, so the parent can subtract its own start time), then
``RESULT <json>`` at the end. Times in the result are reference seconds
(see ``calibration.py``) unless named ``wall``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_CAL_REPS = 5


def timed_loop(wl, seconds: float, first, start: int, contexts, cal_reps: int):
    """Run operations until ``seconds`` have passed, cycling through
    ``contexts`` (one factory per kind of operation). After each operation,
    untimed, its output is checked; the calibration kernel is timed
    before and after it.
    Returns (wall seconds, kernel seconds) pairs per context, the failed
    count and the problems found."""
    times: list[list[tuple[float, float]]] = [[] for _ in contexts]
    problems: list[str] = []
    failed = 0
    i = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not all(times):
        k = (i - start) % len(contexts)
        kernel = calibration.kernel_times(cal_reps, wl.CALIBRATION)
        with contexts[k]():
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
                found = []
            except Exception as exc:  # a failing operation is counted, not fatal
                found = [f"raised {exc!r}"]
            wall = time.perf_counter() - t0
        kernel += calibration.kernel_times(cal_reps, wl.CALIBRATION)
        times[k].append((wall, statistics.median(kernel)))
        if not found:
            found = wl.check(out, first)
        if found:
            failed += 1
            problems += [f"op {i}: {p}" for p in found]
        i += 1
    return times, failed, problems


def reference_seconds(pairs, variant: str) -> list[float]:
    quiet = calibration.reference_s(variant)
    return [wall * quiet / kern for wall, kern in pairs]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args, workdir: Path) -> dict:
    import workloads  # imports dynpanel, so only once src/ is on the path

    lead = args.part == 0
    pruned = tracer.install_pruned_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    print(f"READY {time.monotonic()!r}", flush=True)
    # the parent turns its wall-clock set-up time into reference seconds
    quiet = calibration.reference_s(wl.CALIBRATION)
    kernel = statistics.median(calibration.kernel_times(SETUP_CAL_REPS, wl.CALIBRATION))
    result = {"setup_speed": quiet / kernel, "env": environment()}

    t0 = time.perf_counter()
    try:
        first = wl.op(0)
    except Exception as exc:  # reported like a failed check
        return {**result, "attempted": 1, "failed": 1, "times": [], "wall_times": [],
                "problems": [f"op 0: raised {exc!r}"]}
    # calibrate for about a tenth of each operation's time, on either side
    cal_reps = max(1, round(0.05 * (time.perf_counter() - t0) / quiet))

    trace = tracer.Tracer()
    contexts = [contextlib.nullcontext]
    if args.trace:
        # traced and untraced operations alternate, so both see the same
        # machine and the difference of their medians is the overhead
        contexts.append(lambda: tracer.traced(trace))
    pruned_before = pruned.columns
    pairs, failed, problems = timed_loop(wl, args.seconds, first, 1 + args.part * 100_000,
                                         contexts, cal_reps)
    n_loop = sum(map(len, pairs))
    result.update(
        times=reference_seconds(pairs[0], wl.CALIBRATION),
        wall_times=[wall for wall, _ in pairs[0]],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        pruned_per_op=(pruned.columns - pruned_before) / n_loop,
    )
    if args.trace:
        # self times in reference seconds, at the traced operations' speed
        speed = statistics.median(quiet / kern for _, kern in pairs[1])
        result.update(
            traced_times=reference_seconds(pairs[1], wl.CALIBRATION),
            self_s={name: (calls, self_s * speed)
                    for name, (calls, self_s) in tracer.self_times(trace.spans).items()},
            counts=trace.counts,
            report_only=wl.report_only() if lead else [],
        )

    reference = None
    if lead:
        # every worker's warm-up op has the same inputs; one checks it in depth
        if REFERENCE.is_file():
            stored = json.loads(REFERENCE.read_text())[args.workload]
            reference = stored.get("all") or stored.get(str(args.seed))
        try:
            found = wl.verify(first, reference)
        except Exception as exc:  # a check that cannot run has failed
            found = [f"verification raised {exc!r}"]
        if found:
            failed += 1
            problems += [f"op 0: {p}" for p in found]
    result.update(attempted=1 + n_loop, failed=failed, problems=problems,
                  reference_checked=reference is not None)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="index of this worker within the run; offsets op indices; "
                             "worker 0 also runs the in-depth checks and report-only probes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dynpanel" / "__init__.py").is_file():
        print(f"error: no dynpanel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
