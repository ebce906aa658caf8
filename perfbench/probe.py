"""Host-speed probe: a fixed job, timed between the workload's calls.

The benchmark runs on a few cores of a shared host whose speed moves
between levels about 1.6x apart, for seconds to minutes at a time, as
other tenants come and go.  Raw times then spread across runs by more than
any program change worth catching.  The probe measures that speed where
the workload runs: every INTERVAL_S of a repetition, between two calls,
it times one pass of a fixed job that shares no code with masterfield,
mixing the three kinds of work the workloads do (interpreted Python with
dicts and tuples, small numpy calls, dense complex BLAS).

``factor()`` is REF_S over the mean pass time.  ``run.py`` multiplies every
time it reports by it, so the times read as seconds on a host where one
pass takes REF_S; the raw times are in the ``info`` line.  A change to
masterfield moves the workload and not the probe, so it shows in full.
"""

import gc
import statistics
from time import perf_counter

import numpy as np

# One pass's mean time on the host the benchmark was written on (2-vCPU
# shared VM, 2026); any fixed value would do, this one keeps the reported
# times close to the raw ones there.
REF_S = 3.0e-3
INTERVAL_S = 0.2  # a pass takes about 3 ms, so the probe costs about 1.5%

_RNG = np.random.default_rng(0)
_A4 = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) + 4 * np.eye(4)
_A64 = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64)) + 16 * np.eye(64)


def _python():
    d = {}
    for i in range(2000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0.0) + i * 0.5
    return sum(d.values())


def _small_numpy():
    g = np.random.default_rng(1)
    x = _A4
    for _ in range(40):
        x = np.linalg.solve(_A4, _A4 @ x + g.standard_normal((4, 4)))
    return x


def _blas():
    x = _A64
    for _ in range(2):
        x = np.linalg.solve(_A64, _A64 @ x)
    return x


def one_pass():
    _python()
    _small_numpy()
    _blas()


class Probe:
    """Times one pass at most every INTERVAL_S of ``tick`` calls."""

    def __init__(self):
        one_pass()  # untimed: the first pass pays for numpy's lazy set-up
        self.times = []
        self._last = float("-inf")  # the first tick runs a pass

    def tick(self):
        if perf_counter() - self._last >= INTERVAL_S:
            self.times.append(timed_pass())
            self._last = perf_counter()

    def factor(self):
        return REF_S / statistics.fmean(self.times)


def timed_pass():
    """One pass's time, with no garbage collection in it."""
    gc.disable()  # a collection here would scan the workload's heap
    t0 = perf_counter()
    one_pass()
    secs = perf_counter() - t0
    gc.enable()
    return secs
