"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU Xeon (family 6, model 143) microVM this benchmark was built
on, the same operation ran up to 1.8x slower for stretches of 30-60 s, with
CPU time equal to wall time: other tenants of the host slow the vCPU
itself, and medians over a run cannot average that out. So every
operation is bracketed by a fixed kernel that mixes the work the library
does: a Python loop, many small NumPy calls, 120 x 120 symmetric
eigendecompositions and a tall matrix product, in the proportions of the
workload's own operation (``VARIANTS``). Each timing is reported in
reference seconds:

    t_ref = t_wall * t_quiet / t_kernel

where ``t_quiet`` is the kernel's median time on that host when quiet.
Within one process this removed most of the drift: the spread between
20 s windows fell from 7-13% to 2-5% (interquartile range over median).
The kernel calls nothing in ``dynpanel``, so a change to the library
moves ``t_wall`` and leaves ``t_kernel`` alone.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel variants: iterations of the small-NumPy-call loop, and the
# variant's median seconds on the reference host when quiet. "loops"
# matches workloads made of per-entity and per-row Python loops; "mixed"
# gives LAPACK a larger share, matching replicate-brand, where L x L
# eigendecompositions take most of the time.
VARIANTS = {"loops": (1400, 0.016), "mixed": (700, 0.0135)}

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((120, 120))
_V = _rng.standard_normal(2000)
_M = _rng.standard_normal((3000, 20))


def kernel(small_calls: int) -> None:
    s, d = 0.0, {}
    for k in range(20000):
        s += k * 0.5
        d[k & 255] = s
    for k in range(small_calls):
        _V[k:k + 50] @ _V[k + 1:k + 51]
        np.where(_V[k:k + 20] > 0, _V[k:k + 20], 0.0).sum()
    for _ in range(3):
        np.linalg.eigh(_A @ _A.T)
    for _ in range(10):
        (_M.T @ _M).sum()
        np.sort(_V)


def kernel_times(reps: int, variant: str) -> list[float]:
    """Wall times of ``reps`` runs of one kernel variant."""
    small_calls = VARIANTS[variant][0]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel(small_calls)
        times.append(time.perf_counter() - t0)
    return times


def reference_s(variant: str) -> float:
    return VARIANTS[variant][1]
