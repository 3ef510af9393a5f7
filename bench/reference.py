"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the speed a process gets drifts by 10-20% over minutes, and
all kinds of code slow down together.  The worker runs this computation
between passes and reports each pass's wall time as a multiple of the
reference's wall time measured beside it, which cancels most of that drift.
It uses no spica code, so no change to spica moves it.  Its three parts
resemble the workloads: numpy and FFTs over 65,536-sample frames, many short
``scipy.signal.welch`` calls on 2,048-sample frames, and plain interpreter
work.  Its inputs are fixed, so every call does the same work.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import signal

LONG_SAMPLES = 65_536
SHORT_SAMPLES = 2_048
LONG_ROUNDS = 60
WELCH_CALLS = 150
LOOP_STEPS = 1_300_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._t = np.arange(LONG_SAMPLES) / 1e9
        self._long = rng.standard_normal(LONG_SAMPLES)
        self._short = rng.standard_normal(SHORT_SAMPLES)

    def _long_frames(self) -> float:
        acc = 0.0
        for k in range(LONG_ROUNDS):
            y = np.cos(2e8 * np.pi * self._t + k) * np.exp(-((self._t - 3e-5) ** 2) * 1e9)
            acc += float(np.abs(np.fft.rfft(y + self._long)).sum())
        return acc

    def _short_frames(self) -> float:
        acc = 0.0
        for k in range(WELCH_CALLS):
            _, psd = signal.welch(self._short + k, fs=1.0, nperseg=256)
            acc += float(psd.sum())
        return acc

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(LOOP_STEPS):
            total += i * i % 7
        return total

    def run(self) -> float:
        """Wall seconds of one run of the whole computation."""
        start = time.perf_counter()
        self._long_frames()
        self._short_frames()
        self._loop()
        return time.perf_counter() - start
