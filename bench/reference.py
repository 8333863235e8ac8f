"""A fixed probe that measures how fast the host runs at the moment.

The development host is a 2-vCPU VM shared with other tenants, and each
vCPU's speed drifts on its own: slow spells of 10 to 40 s, the two vCPUs
slowed in turn (their speeds correlate at -0.2 to -0.3), and the same
campaign took 3.0 s in one 36-second window and 4.3 s in another, with its
fastest repetition moving as much as its median. So each child measures
the speed of the processor it runs on while it runs:

- right after set-up it times `SETUP_PROBES` probes back to back, which
  scales the set-up time;
- during the campaign calls of an untraced child, a `Sampler` runs two
  probes every `INTERVAL_S` of process CPU time (SIGPROF) and keeps the
  time of the second, which runs with the probe's code and data back in
  cache; that scales the campaign time, with the time of all probes taken
  out.

The slowdown is the mean probe time over `PROBE_S`, the probe's time on
the development host in a quiet spell. The set-up time is divided by its
slowdown, and the campaign time by its slowdown to the power of the
workload's `sensitivity` (bench/workloads.py): a scaled time reads as
seconds on a host that fast. The probe mixes the kinds of work the
campaigns do (a length-839 FFT correlation, small-array numpy per item, a
plain Python loop), uses its own random generator and never calls `mmwia`,
so a change to the program cannot change it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PROBE_S = 0.00045
SETUP_PROBES = 400
INTERVAL_S = 0.05
N_ZC = 839

_rng = np.random.default_rng(12345)
_y = _rng.standard_normal((4, N_ZC)) + 1j * _rng.standard_normal((4, N_ZC))
_spectrum = np.conj(np.fft.fft(np.exp(-1j * math.pi * np.arange(N_ZC) ** 2 / N_ZC)))
_points = _rng.uniform(0.0, 200.0, size=(16, 12, 2))


def probe() -> float:
    """About half a millisecond of fixed work; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = float((np.abs(np.fft.ifft(np.fft.fft(_y, axis=1) * _spectrum, axis=1)) ** 2).max())
    for p in _points:
        d = np.hypot(p[:, 0] - 100.0, p[:, 1] - 57.7)
        loss = 61.4 + 21.0 * np.log10(np.maximum(d, 1.0))
        acc += float(loss[np.argsort(-loss, kind="stable")[:3]].sum())
        acc += math.atan2(p[0, 1], p[0, 0])
    bins: dict[int, float] = {}
    for i in range(300):
        bins[i % 97] = bins.get(i % 97, 0.0) + 0.5 * i
    acc += bins[3]
    return time.perf_counter() - t0


def probe_run(n: int = SETUP_PROBES) -> list[float]:
    """`n` probes back to back, after a few untimed ones."""
    for _ in range(10):
        probe()
    return [probe() for _ in range(n)]


class Sampler:
    """Two probes per INTERVAL_S of process CPU time while started."""

    def __init__(self):
        self.times: list[float] = []  # of each second probe
        self.total_s = 0.0  # of all probes, with the handler around them

    def _on_signal(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.times.append(probe())
        self.total_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
