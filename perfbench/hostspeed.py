"""Host-speed probe: a fixed numpy kernel timed next to every invocation.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes, and CPU time drifts with wall time (it is
co-tenant contention, not scheduling). Each child times ``probe()`` right
before and right after its invocation; the parent divides the invocation's
times by the probe's and multiplies by ``NOMINAL_S``, which reports them in
seconds at a fixed reference host speed: the speed at which the probe takes
``NOMINAL_S``. Drift that slows the probe and the program alike cancels.

The kernel resembles the program's hot loop (small real FFTs, spectral
multiplies and pointwise products) but is frozen here, so no change to the
package moves it. The FFT functions are bound at import, before a tracer can
wrap ``numpy.fft``, so the probe never shows up in a trace, and the transform
lengths differ from the program's grids so it warms no plan the program uses.
"""
from __future__ import annotations

import time

import numpy as np
from numpy.fft import irfft, rfft

NOMINAL_S = 0.15   # probe time at the reference host speed
REPS = 2000        # about 0.15 s per probe on a 2-vCPU Xeon guest
SIZES = (144, 240)


def probe() -> float:
    """Wall time of one pass of the fixed kernel, in seconds."""
    rng = np.random.default_rng(0)
    fields = [rng.standard_normal(n) for n in SIZES]
    damping = [np.exp(-1e-3 * np.arange(n // 2 + 1)) for n in SIZES]
    t0 = time.perf_counter()
    for _ in range(REPS):
        for i, n in enumerate(SIZES):
            u = irfft(rfft(fields[i]) * damping[i], n)
            u = 0.5 * u * u + 0.5 * u
            fields[i] = u / np.abs(u).max()
    return time.perf_counter() - t0
