"""Machine-speed reference that the end-to-end rates are scaled by.

On a shared host the speed of this process drifts by 15-30% within seconds
to minutes, for reasons outside the program, and raw rates from separate
runs spread by as much.  So a fixed computation that does not touch tempora
is timed right before each timed step of a workload, and the step's elapsed
time is rescaled to the reference's nominal speed:

    scaled = elapsed * NOMINAL_S / reference_elapsed

The reference has the two shapes of work the workloads have: wide numpy
arithmetic (SplitMix64 and uniforms over 16 x 16384 counters, in place, so
page faults stay out of it) and per-call overhead on tiny arrays (oracle
scores of eight machine files).  Timed together they tracked every workload
better than either alone.  NOMINAL_S is the reference's typical time on the
machine the reference figures in README.md were taken on, so scaled rates
read close to raw ones there.

Set-up time (import plus building inputs, in a fresh process) is mostly
interpreter work and tracked a pure-Python loop better than either shape,
so `python_seconds` scales it, against PYTHON_NOMINAL_S.
"""
from __future__ import annotations

import time

import numpy as np

import inputs
import oracle

NOMINAL_S = 5.0e-3
PYTHON_NOMINAL_S = 6.0e-3
_WORDS = 4 * 16384


class Reference:
    def __init__(self):
        u64 = np.uint64
        self._ctr = np.arange(1, _WORDS + 1, dtype=u64)
        self._z, self._tmp = np.empty_like(self._ctr), np.empty_like(self._ctr)
        self._out = np.empty(_WORDS)
        gen = np.random.default_rng(0)
        self._files = [inputs.machine_file(kind, gen)[0]
                       for kind in inputs.KINDS for _ in range(2)]

    def _vector(self, offset: int) -> None:
        u64, z, tmp = np.uint64, self._z, self._tmp
        np.add(self._ctr, u64(offset), out=z)
        np.multiply(z, u64(oracle.GOLDEN), out=z)
        for shift, mult in ((30, oracle._MIX1), (27, oracle._MIX2)):
            np.right_shift(z, u64(shift), out=tmp)
            np.bitwise_xor(z, tmp, out=z)
            np.multiply(z, u64(mult), out=z)
        np.right_shift(z, u64(31), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.right_shift(z, u64(11), out=z)
        np.multiply(z, oracle.TWO_NEG53, out=self._out, casting="unsafe")

    def seconds(self) -> float:
        """Elapsed time of one run of the reference computation."""
        t0 = time.perf_counter()
        for block in range(4):
            self._vector(block * _WORDS)
        for f in self._files:
            oracle.machine_file_scores(f, "symmetrized", 1)
        return time.perf_counter() - t0


def python_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        best = min(best, time.perf_counter() - t0)
    return best
