"""A fixed reference kernel that tracks how fast the shared machine is right now.

The kernel does the kinds of work the experiment workloads do: interpreter
loops, many small numpy calls (like the referral sampler), and dense BLAS
and array work (like the covariance solves).  It uses none of the
package's code, so a change to the package never moves its time, while a
slower or faster phase of the shared machine moves both.
"""

from __future__ import annotations

import time

import numpy as np

PY_LOOP = 200_000
SMALL_CALLS = 1_000
CHOLESKY_N = 500
CHOLESKY_REPEATS = 5
STREAM_LEN = 500_000
STREAM_REPEATS = 8


class Kernel:
    """Inputs made once; ``run()`` does the same work every time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((CHOLESKY_N, CHOLESKY_N))
        self.spd = a @ a.T + CHOLESKY_N * np.eye(CHOLESKY_N)
        self.choices = np.arange(40)
        self.p = np.full(40, 1 / 40)
        self.stream = rng.standard_normal(STREAM_LEN)
        self.out = np.empty(STREAM_LEN)

    def run(self) -> float:
        """Wall seconds of one pass."""
        t0 = time.perf_counter()
        s = 0
        for i in range(PY_LOOP):
            s += i * i % 7
        rng = np.random.default_rng(1)
        for _ in range(SMALL_CALLS):
            rng.choice(self.choices, size=3, replace=False, p=self.p)
        for _ in range(CHOLESKY_REPEATS):
            np.linalg.cholesky(self.spd)
        for _ in range(STREAM_REPEATS):
            np.multiply(self.stream, 1.0001, out=self.out)
            self.out += self.stream
        return time.perf_counter() - t0


class Calibration:
    """How much slower than the reference speed the machine ran during a run.

    The kernel runs once after every timed op.  ``slowdown()`` is the median
    kernel time over ``ref_s``, a fixed constant (the kernel's median time
    on the machine the bounds were set on).  Dividing a run's times by it
    gives seconds at that machine's reference speed; a run made while the
    machine runs 20% slow is scaled back by the same 20%.
    """

    def __init__(self, ref_s: float):
        self.kernel = Kernel()
        self.kernel.run()  # warm-up: first-call costs stay out of the times
        self.ref_s = ref_s
        self.times: list = []

    def tick(self):
        self.times.append(self.kernel.run())

    def slowdown(self) -> float:
        return float(np.median(self.times)) / self.ref_s
