"""Host-speed sampling, so that timings measure the program and not the host.

The host's speed for one process drifts by tens of percent within a second,
because other tenants share the core. A concurrent probe on the other core
does not see it. So the worker interrupts itself every SAMPLE_INTERVAL_S
with SIGALRM and times a small fixed reference task of the same kind as the
phase's hot layer:

* ``python``: attribute access and small calls, like the per-tick loop and
  the package import;
* ``numpy``: a gather sweep, like value iteration.

A reference of the other kind tracks the drift poorly. A phase's time, with
the sampling taken out, is rescaled to a host on which one sample takes the
nominal time below. The nominal times are the typical samples on the 2-core
Xeon host the benchmark was defined on. Sampling costs 1-2% of a phase.

Importing this module imports nothing outside the standard library, so
sampling can start before NumPy and the package are imported.
"""

from __future__ import annotations

import signal
import time

SAMPLE_INTERVAL_S = 0.02
REFERENCE_STEPS = 350
GATHER_SHAPE = (2000, 6)
NOMINAL_S = {"python": 0.0002, "numpy": 0.0003}

now = time.monotonic_ns


class _Body:
    def __init__(self) -> None:
        self.d = 50.0
        self.v = 4.5


def _step(body: _Body, a: float, dt: float) -> None:
    v = body.v
    if a < 0.0 and v + a * dt < 0.0:
        body.v = 0.0
        return
    body.d -= v * dt + 0.5 * a * dt * dt
    body.v = max(0.0, v + a * dt)


def python_reference() -> None:
    body = _Body()
    for i in range(REFERENCE_STEPS):
        _step(body, 0.3 if i & 1 else -0.2, 0.05)


def numpy_reference_task():
    import numpy as np

    rng = np.random.default_rng(0)
    n = GATHER_SHAPE[0]
    q, p = rng.random(GATHER_SHAPE), rng.random(GATHER_SHAPE)
    i0, i1 = rng.integers(0, n, GATHER_SHAPE), rng.integers(0, n, GATHER_SHAPE)

    def task() -> None:
        v = q.max(axis=1)
        q + 0.99 * ((1.0 - p) * v[i0] + p * v[i1])

    return task


class SpeedSampler:
    """Times a reference task on a SIGALRM timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int, str]] = []  # (start ns, duration ns, kind)
        self._kind = "python"
        self._task = python_reference

    def use(self, kind: str) -> None:
        """Switch the reference task for the samples that follow."""
        self._task = numpy_reference_task() if kind == "numpy" else python_reference
        self._kind = kind

    def _sample(self, signum=None, frame=None) -> None:
        t0 = now()
        self._task()
        self.samples.append((t0, now() - t0, self._kind))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, lo: int, hi: int) -> int:
        """Nanoseconds of sampling that started in [lo, hi)."""
        return sum(d for t, d, _ in self.samples if lo <= t < hi)

    def calibrate(self, ns: int, kind: str, lo: int, hi: int) -> float:
        """Rescale ``ns`` of work done in [lo, hi) to the nominal host, in seconds.

        Uses the samples of ``kind`` taken in that interval, or, for an
        interval too short to hold one, a few taken now.
        """
        durations = [d for t, d, k in self.samples if k == kind and lo <= t < hi]
        if not durations:
            self.use(kind)
            for _ in range(3):
                self._sample()
            durations = [d for _, d, _ in self.samples[-3:]]
        return ns * NOMINAL_S[kind] * len(durations) / sum(durations)
