"""Op timing that the host's changing speed does not move.

On a shared host, this process's speed changes by up to about 2x, switching
within seconds and drifting over minutes with the neighbours' load, so a run
of raw wall times measures the neighbours as much as the program. While an
op runs, a timer signal every ``INTERVAL_S`` runs two short fixed calibration
kernels and records how slow the host is: the geometric mean of each
kernel's time over its time at the reference speed. Each timed step of an op
is then divided by the mean slowness sampled during that step:

    ref_seconds = seconds / mean(slowness during the step)

where ``seconds`` excludes the time spent in the kernels. One kernel is a
copy of the shape of the program's k = 1 per-step recursion (small complex
numpy arrays, one Python-level step at a time), the other of its batched 2x2
coefficient precompute (complex matrix products over a (300, 16) batch).
On a 2-vCPU host, repeating the same ops in several processes, each kernel
alone followed one kind of op and not the other (the recursion kernel the
k = 1 ops, the batched one the k = 16 ops); their geometric mean followed
both, and cut the spread of op times between processes from 10-18% to
3-8%. A pure-Python integer loop did not follow the host at all. The
reference times are the kernels' medians on a 2-vCPU 2.0 GHz Xeon, so
reference seconds read as seconds there. The kernels are benchmark code:
the same on every commit.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from collections import defaultdict

import numpy as np

#: Seconds between two samples while an op runs (each takes about 6% of it).
INTERVAL_S = 0.1
RECURSION_STEPS = 200
#: Seconds each kernel takes at the reference speed.
REF_RECURSION_S = 0.002
REF_BATCHED_S = 0.0031

_A = np.full((RECURSION_STEPS, 1), 0.999 + 0.001j)
_B = np.full((RECURSION_STEPS, 1), 0.001j)
_S = np.full((RECURSION_STEPS, 1), 1e-3 + 0j)
_OUT = np.zeros((RECURSION_STEPS + 1, 1), dtype=complex)
_M = np.full((300, 16, 2, 2), 0.5 + 0.1j)
_Q = np.ones((300, 16, 2), dtype=complex)
_EYE = np.eye(2)


def recursion_kernel() -> float:
    """Seconds a fixed k = 1 recursion of RECURSION_STEPS steps takes now."""
    y = np.zeros(1, dtype=complex)
    z = np.zeros(1, dtype=complex)
    start = time.perf_counter()
    for j in range(RECURSION_STEPS):
        y, z = _A[j] * y + _B[j] * z + _S[j], _B[j] * y + _A[j] * z + _S[j]
        _OUT[j + 1] = y
    return time.perf_counter() - start


def batched_kernel() -> float:
    """Seconds a fixed batched 2x2 matrix product takes now."""
    start = time.perf_counter()
    p = _M @ (_EYE + 0.1 * _M)
    np.einsum("...ij,...j->...i", p, _Q)
    return time.perf_counter() - start


def slowness() -> float:
    """How slow the host runs now; 1 at the reference speed."""
    return math.sqrt(recursion_kernel() / REF_RECURSION_S * batched_kernel() / REF_BATCHED_S)


class Stopwatch:
    """Times ops step by step; with ``sampling``, also samples the host's
    speed while they run (must be used from the main thread).

    ``with watch.op(i):`` times op ``i``; inside it, ``lap()`` ends one step
    of the op and starts the next (a workload calls it between steps).
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.segments: list[dict] = []
        self._op = -1
        self._step = 0
        self._samples: list[float] = []
        self._in_kernel = 0.0
        self._t0 = 0.0
        if sampling:
            for _ in range(3):  # warm up before the first timed sample
                slowness()

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(slowness())
        self._in_kernel += time.perf_counter() - t0

    def _begin_step(self) -> None:
        self._samples, self._in_kernel = [], 0.0
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def op(self, i: int):
        self._op, self._step = i, 0
        previous = None
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._begin_step()
        try:
            yield self
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.lap()

    def lap(self) -> None:
        seconds = time.perf_counter() - self._t0 - self._in_kernel
        samples = self._samples
        self.segments.append({
            "op": self._op, "step": self._step, "seconds": seconds,
            "speed_samples": len(samples),
            "slowness": statistics.fmean(samples) if samples else None,
        })
        self._step += 1
        self._begin_step()


def pass_ref_s(segments: list[dict]) -> float:
    """Time of one pass at the reference speed: for each op step, the median
    of its reference times over the run, summed over the op steps. A step too
    short to hold a speed sample takes the run's mean slowness."""
    sampled = [s for s in segments if s["speed_samples"]]
    run_slowness = (sum(s["slowness"] * s["speed_samples"] for s in sampled)
                    / sum(s["speed_samples"] for s in sampled))
    by_step = defaultdict(list)
    for s in segments:
        by_step[s["op"], s["step"]].append(s["seconds"] / (s["slowness"] or run_slowness))
    return sum(statistics.median(v) for v in by_step.values())
