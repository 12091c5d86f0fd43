"""A machine-speed reference for the benchmark's timings.

On a shared machine the speed of one core can change by a factor of two
within seconds, as other tenants come and go. A fixed piece of work of the
same kind as the program's (a Python loop, dict and string work, float
formatting and parsing, small numpy operations) is timed next to each
timed command: in as many processes at once as the command keeps busy and,
for a command that runs in this process alone, also every `INTERVAL_S`
seconds inside it. Its time over `REFERENCE_S` is the
machine's slowness at that moment; a timing divided by it reads as it would
have on the machine `REFERENCE_S` was taken on.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import statistics
import time

import numpy as np

# median time of `reference_work` on a 2-core "Intel(R) Xeon(R) Processor",
# Python 3.11, numpy 2.4, with the machine otherwise idle
REFERENCE_S = 0.004
# wall time between two samples inside a timed body
INTERVAL_S = 0.05


def reference_work() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    table = {}
    for i in range(1500):
        table[f"lane_{i % 97}_{i}"] = (float(f"{i * 0.37:.9f}"), i)
    rows = [f"{k},{v[0]!r},{v[1]}".split(",") for k, v in table.items()]
    acc += sum(float(r[1]) for r in rows)
    a = np.arange(400.0)
    for _ in range(100):
        a = np.sqrt(np.hypot(a, 1.0))
    return time.perf_counter() - t0


def _reference_sample(_) -> float:
    return reference_work()


def reference_samples(runs: int, procs: int) -> list[float]:
    """`runs` samples of the reference work in each of `procs` processes
    running at once (in this process alone when `procs` is 1)."""
    if procs == 1:
        return [reference_work() for _ in range(runs)]
    with multiprocessing.Pool(procs) as pool:
        return pool.map(_reference_sample, range(runs * procs), chunksize=runs)


class Timed:
    """Context manager that times its body, with the machine's slowness
    around it: the reference work runs `RUNS` times just before and just
    after the body, in each of `procs` processes at once (the body's
    parallelism), and, with `inside`, every `INTERVAL_S` seconds within
    the body, from a SIGALRM handler in this thread. Afterwards `elapsed`
    is the body's wall time without the samples taken inside it, `value`
    the median slowness of all samples, and `drift` the after-samples'
    median over the before-samples' median.

    Use `inside` only for a body that runs in this process alone: while
    child processes work, the samples would take a core from them.
    """

    RUNS = 2
    # several processes at once are timed with more runs: their samples
    # spread more, as the scheduler shares the cores among them
    POOL_RUNS = 6

    def __init__(self, inside: bool = False, procs: int = 1):
        self.inside = inside
        self.procs = procs
        self.runs = self.RUNS if procs == 1 else self.POOL_RUNS
        self.during: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.during.append(reference_work())
            self._busy = False

    def __enter__(self):
        self.before = reference_samples(self.runs, self.procs)
        if self.inside:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        if self.inside:
            signal.signal(signal.SIGALRM, self._handler)
        self.elapsed = t1 - self._t0 - sum(self.during)
        # garbage the body left must not be collected inside the samples
        gc.collect()
        self.after = reference_samples(self.runs, self.procs)
        self.value = statistics.median(self.before + self.during + self.after) / REFERENCE_S
        self.drift = statistics.median(self.after) / statistics.median(self.before)
