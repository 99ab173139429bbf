"""Write perfbench/reference.json from the library as it stands.

    python3 perfbench/make_reference.py

Stores, for the default seeds, the statistics each workload's ``verify``
compares against: coefficients, SEs, J and AR statistics of every fit,
and the SHA-256 digest of the simulated panel. ``replicate-brand`` solves
the same problem on every seed, so it has one entry for all seeds.
Regenerate only for a change that is meant to alter results.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEEDS = range(16)


def main() -> int:
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracer
    import workloads

    tracer.install_pruned_counter()
    workdir = HERE.parent / ".perfbench_tmp" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        brand = workloads.ReplicateBrand(0, workdir)
        reference = {brand.name: {"all": brand.summarize(brand.op(0))}}
        for cls in (workloads.McOdfd, workloads.FitLargeN):
            reference[cls.name] = {}
            for seed in DEFAULT_SEEDS:
                wl = cls(seed, workdir)
                reference[cls.name][str(seed)] = wl.summarize(wl.op(0))
                print(cls.name, seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
