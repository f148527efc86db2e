"""Bessel kernel probe: cost per point of each function in each regime, and
the cost of one scalar call.

The arguments are fixed arrays that sit strictly inside each regime's cut
of ``evla.specfn`` (J/Y: series < 7.5 <= quadrature < 40 <= asymptotic;
I: series < 17 <= asymptotic; K: series < 4 <= quadrature < 20 <=
asymptotic), so every call exercises one regime only.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import BESSEL

_JY = {"series": (0.5, 7.0), "quad": (8.0, 39.0), "asym": (41.0, 400.0)}
REGIMES = {
    "j0": _JY, "j1": _JY, "y0": _JY, "y1": _JY,
    "i0": {"series": (0.5, 16.5), "asym": (17.5, 600.0)},
    "i1": {"series": (0.5, 16.5), "asym": (17.5, 600.0)},
    "k0": {"series": (0.1, 3.9), "quad": (4.1, 19.5), "asym": (20.5, 400.0)},
    "k1": {"series": (0.1, 3.9), "quad": (4.1, 19.5), "asym": (20.5, 400.0)},
}
POINTS = 2048
REPEATS = 5
SCALAR_ARG = 2.0         # inside the series regime of all eight functions
SCALAR_CALLS = 50        # per function and repeat


def _median_time(fn, repeats):
    fn()                                  # warm caches (quadrature nodes)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(specfn):
    """{specfn.<fn>.<regime>.ns_per_point: ..., specfn.scalar_call_us: ...}"""
    out = {}
    for name in BESSEL:
        fn = getattr(specfn, name)
        for regime, (lo, hi) in REGIMES[name].items():
            x = np.linspace(lo, hi, POINTS)
            sec = _median_time(lambda: fn(x), REPEATS)
            out["specfn.%s.%s.ns_per_point" % (name, regime)] = \
                sec / POINTS * 1e9
    fns = [getattr(specfn, name) for name in BESSEL]

    def scalar_calls():
        for fn in fns:
            for _ in range(SCALAR_CALLS):
                fn(SCALAR_ARG)

    sec = _median_time(scalar_calls, REPEATS)
    out["specfn.scalar_call_us"] = sec / (len(fns) * SCALAR_CALLS) * 1e6
    return out
