"""A fixed reference task, timed next to each timed call, that follows how
fast the shared host runs work at the time.

The benchmark gets a few cores of a machine that other work shares. How
busy the rest of the machine is changes from second to second and from
minute to minute, and it slows every process by up to half, CPU time
included, so a median over one run still moves by a quarter between runs
made a few minutes apart. The benchmark therefore times this task right
before and right after every timed call, divides the call's time by the
task's, and reports the ratio in seconds at a fixed speed of the task
(``UNIT_S`` per unit). The raw times are printed and recorded beside it.

The task uses NumPy and SciPy but no allocmap code, so a change to allocmap
cannot move it. It mixes the kinds of work the workloads do: Python loops
over small arrays with an assignment solve, as in the valuation search, and
products of mid-sized matrices, as in SMACOF. It runs in as many processes
at once as the call it brackets keeps busy, with BLAS pinned to one thread
as in the calls.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.optimize import linear_sum_assignment

# Seconds one unit of the task takes at the speed the benchmark reports in:
# about its time on a quiet 2-vCPU host (see README.md). Only a scale; the
# ratios between commits do not depend on it.
UNIT_S = 0.05
# Time spent on one sample, as a share of the timed call it brackets.
SHARE = 0.08


def unit() -> tuple[float, float]:
    """Run the task once; return its wall and CPU seconds."""
    rng = np.random.default_rng(20250427)
    small = [rng.random((6, 6)) for _ in range(24)]
    big = rng.random((160, 160)) / 160.0
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for a in small * 8:
        for b in small:
            cost = np.abs(a - b)
            rows, cols = linear_sum_assignment(cost)
            acc += float(cost[rows, cols].sum())
    x = big
    for _ in range(80):
        x = big @ x
    acc += float(x.sum())
    return time.perf_counter() - w0, time.process_time() - c0


def units(seconds: float) -> list[tuple[float, float]]:
    """Units until ``seconds`` have passed, at least three. The first is left
    out: it absorbs cold caches and, in a pool, the other workers' start."""
    done = [unit() for _ in range(3)]
    while sum(wall for wall, _ in done) < seconds:
        done.append(unit())
    return done[1:]


def sample(processes: int, seconds: float) -> tuple[float, float]:
    """Mean wall and CPU seconds of one unit, with the task running in
    ``processes`` processes at once for about ``seconds``."""
    if processes == 1:
        done = units(seconds)
    else:
        # A fresh pool each time, as the valuation call makes one: no worker
        # or pool thread is left running during the timed call.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(processes, mp_context=ctx) as pool:
            done = [u for per_process in pool.map(units, [seconds] * processes) for u in per_process]
    return statistics.mean(w for w, _ in done), statistics.mean(c for _, c in done)


class Bracket:
    """Samples of the task right before and right after each timed call of
    a sequence, the sample after one call serving as the one before the next."""

    def __init__(self, processes: int):
        self.processes = processes
        self.last = sample(processes, 0.0)

    def after(self, call_s: float) -> tuple[float, float]:
        """Take the sample after a call that took ``call_s`` seconds; return
        the mean wall and CPU seconds of a unit around that call."""
        before, self.last = self.last, sample(self.processes, SHARE * call_s)
        return (before[0] + self.last[0]) / 2.0, (before[1] + self.last[1]) / 2.0


def at_reference_speed(times, unit_times) -> float:
    """Median of each time over the unit time around it, in seconds at the
    reference speed."""
    return UNIT_S * statistics.median(t / u for t, u in zip(times, unit_times, strict=True))
