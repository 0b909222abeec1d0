"""Host-speed probe: a fixed piece of work timed between the benchmark's tasks.

The benchmark runs on shared virtual machines whose speed drifts by 20-40 %
within minutes, for every process alike; identical Monte Carlo work timed
in consecutive runs spread by 14-18 % (interquartile range over median) on
the machine the benchmark was defined on.  Each run therefore times this
probe at its start, after every ``every_s`` seconds of task time
(``EVERY_S`` unless the workload sets another), and at its end, and scales each task's time by ``REFERENCE_S`` over the median of
the two probes before the task and the two after it: times are reported at
the speed where the probe takes ``REFERENCE_S``.  The nearby probes follow
the host's drift within a run; in six warm_operators runs they gave
wall_s, task_s.p50 and task_s.tail spreads of 0.12-0.13 where one factor
per run gave 0.15-0.25.
Interleaving the probe with the warm_operators tasks cut the round-to-round
spread from 16 % to 5 % there.  The probe uses numpy, scipy and the
interpreter the way dhtlab does (FFT convolutions, vectorised transcendental
maps, normal draws, a Python loop) and no dhtlab code, so a change to the
program cannot move it.  Raw times and the speed factor are kept in the run
record.

Work in fresh interpreters (the cold_cli children, every workload's set-up
children) is scaled by a child probe instead: a fresh interpreter that
imports what a ``kernels`` CLI child imports and does a little of its work,
timed the same way with ``CHILD_REFERENCE_S`` and ``CHILD_EVERY_S``, and
around the set-up children.  The in-process probe does not follow
interpreter start-up: over eight cold_cli runs on a 2-core VM it spread
wall_s by 0.27 and task_s.p50 by 0.17, the raw times by 0.16 and 0.12, the
child probe (probed every 2 s there) by 0.07 and 0.08.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.signal import fftconvolve

REFERENCE_S = 0.12
EVERY_S = 2.0
CHILD_REFERENCE_S = 0.5
CHILD_EVERY_S = 8.0
# A fresh interpreter that imports what a ``kernels`` CLI child imports and
# does a little of the work of a CLI child (quadrature-style row sums, a
# convolution, serialising a window), without dhtlab.
CHILD_CODE = """
import argparse, json, math
import numpy as np
from scipy.special import shichi
y = np.linspace(0.01, 45.0, 1350)
rows = np.exp(-y)[None, :] / (y[None, :] ** 2 + np.arange(1, 257)[:, None] ** 2.0)
for _ in range(40):
    rows @ np.sinh(y * 1e-3)
np.fft.irfft(np.fft.rfft(np.ones(8192)) ** 2)
shichi(y)
json.dumps([{"n": n, "value": math.sin(n)} for n in range(-4096, 4097)])
"""


def probe() -> float:
    """Seconds taken by the fixed probe work (about 0.12 s)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a, k = rng.standard_normal(8193), rng.standard_normal(16385)
    for _ in range(120):
        fftconvolve(a, k)
    y = np.linspace(0.01, 45.0, 20250)
    for _ in range(40):
        np.sinh(y) / np.cosh(y) + np.exp(-y)
    acc = 0.0
    for i in range(300_000):
        acc += math.sqrt(i)
    for _ in range(40):
        x = rng.standard_normal((1000, 2))
        np.hypot(x[:, 0], x[:, 1])
    return time.perf_counter() - t0


def child_probe(env: dict) -> float:
    """Seconds taken by a fresh interpreter running CHILD_CODE (about
    0.5 s)."""
    t0 = time.perf_counter()
    # output through a pipe: the run returns at its end of file, while a
    # child without pipes is waited for by polling in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True, timeout=60,
                   capture_output=True)
    return time.perf_counter() - t0


def child_speed_log(env: dict) -> "SpeedLog":
    """A SpeedLog of child probes run with ``env``."""
    return SpeedLog(work=lambda: child_probe(env), reference_s=CHILD_REFERENCE_S,
                    every_s=CHILD_EVERY_S)


class SpeedLog:
    """Probe times of one run: ``work()`` times the probe, and a time taken
    where the probe takes ``reference_s`` is left as it is."""

    def __init__(self, work=probe, reference_s: float = REFERENCE_S, every_s: float = EVERY_S):
        self.work = work
        self.reference_s = reference_s
        self.every_s = every_s
        self.samples: list[float] = []
        self._since = 0.0

    def sample(self) -> None:
        self.samples.append(self.work())
        self._since = 0.0

    def after_task(self, seconds: float) -> None:
        """Probe once ``every_s`` seconds of task time have passed."""
        self._since += seconds
        if self._since >= self.every_s:
            self.sample()

    def factor(self, at: int | None = None) -> float:
        """Multiply a raw time by this to get it at the reference speed.

        For work done after the first ``at`` probes, the median of the two
        probes before it and the two after it; for ``at=None``, the median of
        the whole run.
        """
        near = self.samples if at is None else self.samples[max(0, at - 2):at + 2]
        return self.reference_s / statistics.median(near)
