"""Discrete time-delay cancellation core.

This is the heart of the simulator: quantized per-element clock delays
(planner + config arithmetic), non-uniform sampling of analytic signals,
the truncated-Hadamard multiply-accumulate that nulls a delay-aligned
source, the closed-form desired-signal conversion gain of each row, and a
zero-forcing equalizer that undoes that gain after combining.

Delay decomposition follows the three-stage clock generator it models: an
8-bit phase interpolator with 5 ps steps spanning one 1.25 ns quadrant, a
quadrature phase (quadrant) select in 1.25 ns steps, and an interleave
offset in multiples of the 5 ns sample period.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .waveform import _scalar_like

__all__ = [
    "PI_STEP",
    "QUADRANT_STEP",
    "INTERLEAVE_STEP",
    "Quadrant",
    "ClockConfig",
    "config_total_delay",
    "plan_delays",
    "plan_delay",
    "SampleFrame",
    "sample_element",
    "ThmMatrix",
    "truncated_hadamard",
    "mac_apply",
    "desired_conversion_gain",
    "equalize",
]

PI_STEP = 5e-12
QUADRANT_STEP = 1.25e-9
INTERLEAVE_STEP = 5e-9

# Relative slack for float comparisons against delay-range bounds.
_RANGE_RTOL = 1e-9


class Quadrant(enum.IntEnum):
    """Quadrature clock phase select; each step adds 1.25 ns."""

    I_P = 0
    Q_P = 1
    I_N = 2
    Q_N = 3


@dataclass(frozen=True)
class ClockConfig:
    """Per-element sampling-clock delay decomposition.

    total delay = pi_code * 5 ps + quadrant * 1.25 ns + interleave_offset * 5 ns

    ``offset_limit`` is the largest permitted interleave offset (2 for the
    4-element case, giving a 15 ns range; larger arrays extend it).
    """

    pi_code: int
    quadrant: Quadrant
    interleave_offset: int
    offset_limit: int = field(default=2, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "quadrant", Quadrant(self.quadrant))
        if not 0 <= self.pi_code <= 255:
            raise ValueError(f"pi_code must be in 0..255, got {self.pi_code}")
        if self.offset_limit < 0:
            raise ValueError(f"offset_limit must be >= 0, got {self.offset_limit}")
        if not 0 <= self.interleave_offset <= self.offset_limit:
            raise ValueError(
                f"interleave_offset must be in 0..{self.offset_limit}, "
                f"got {self.interleave_offset}"
            )
        max_total = (self.offset_limit + 1) * INTERLEAVE_STEP
        total = config_total_delay(self)
        if total > max_total * (1.0 + _RANGE_RTOL):
            raise ValueError(f"total delay {total:.6e} s exceeds range {max_total:.6e} s")


def _total_delay(pi_code, quadrant, interleave_offset):
    """Delay in seconds of clock codes; scalars or equal-shape integer arrays."""
    return pi_code * PI_STEP + quadrant * QUADRANT_STEP + interleave_offset * INTERLEAVE_STEP


def config_total_delay(c: ClockConfig) -> float:
    """Total delay in seconds realized by a clock configuration."""
    return _total_delay(c.pi_code, int(c.quadrant), c.interleave_offset)


def plan_delays(targets, max_offset: int = 2):
    """Decompose target delays into canonical clock codes, elementwise.

    Greedy coarse-to-fine: largest interleave offset not exceeding the
    target, then the largest quadrant, then the nearest phase-interpolator
    code.  Each result is within 2.5 ps (half a PI step) of its target.

    Parameters
    ----------
    targets : float or array_like
        Desired delays in seconds, each within [0, (max_offset + 1) * 5 ns].
    max_offset : int
        Largest usable interleave offset; 2 for the 4-element clocking
        scheme (15 ns total range).  Larger arrays extrapolate the same
        decomposition over more sample periods.

    Returns
    -------
    (pi_code, quadrant, interleave_offset)
        Integer arrays shaped like ``targets``.
    """
    if max_offset < 0:
        raise ValueError(f"max_offset must be >= 0, got {max_offset}")
    t = np.asarray(targets, dtype=float)
    max_range = (max_offset + 1) * INTERLEAVE_STEP
    lo, hi = -max_range * _RANGE_RTOL, max_range * (1.0 + _RANGE_RTOL)
    bad = np.flatnonzero(~((t >= lo) & (t <= hi)))
    if bad.size:
        raise ValueError(
            f"target delay {t.flat[bad[0]]:.6e} s outside [0, {max_range:.6e}] s"
        )
    t = np.clip(t, 0.0, max_range)

    offset = np.minimum(np.floor(t / INTERLEAVE_STEP).astype(np.int64), max_offset)
    r1 = t - offset * INTERLEAVE_STEP
    quadrant = np.minimum(np.floor(r1 / QUADRANT_STEP).astype(np.int64), 3)
    rem = r1 - quadrant * QUADRANT_STEP
    pi_code = np.clip(np.floor(rem / PI_STEP + 0.5).astype(np.int64), 0, 255)
    total = _total_delay(pi_code, quadrant, offset)
    over = np.flatnonzero(total > hi)
    if over.size:
        raise ValueError(
            f"total delay {total.flat[over[0]]:.6e} s exceeds range {max_range:.6e} s"
        )
    return pi_code, quadrant, offset


def plan_delay(target: float, max_offset: int = 2) -> ClockConfig:
    """The clock configuration ``plan_delays`` gives for one target delay."""
    pi_code, quadrant, offset = plan_delays(target, max_offset)
    return ClockConfig(int(pi_code), int(quadrant), int(offset), offset_limit=max_offset)


@dataclass(frozen=True)
class SampleFrame:
    """Finite uniform-rate complex sample stream plus its sampling metadata.

    ``start_time`` is the nominal time of sample 0 on the shared output
    grid; per-element clock skew is applied during sampling and does not
    appear here.
    """

    samples: np.ndarray
    sample_rate: float
    start_time: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0.0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D sequence")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        """Nominal sample instants on the shared output grid."""
        return self.start_time + np.arange(self.samples.size) / self.sample_rate

    def scaled(self, factor) -> "SampleFrame":
        return SampleFrame(self.samples * factor, self.sample_rate, self.start_time)


def sample_element(
    sig,
    delay,
    sample_rate: float,
    n: int,
    noise_rms: float = 0.0,
    seed=None,
) -> SampleFrame:
    """Sample an analytic signal with a delayed clock.

    The k-th sample is ``sig(k / sample_rate + d)`` where ``d`` is the clock
    delay: a delayed clock advances the evaluation instant, so an element
    whose arrival is late by d and whose clock is late by d produces the
    reference-aligned stream.

    Parameters
    ----------
    sig : callable
        Signal to sample, such as a Waveform; anything accepting an ndarray
        of times.
    delay : ClockConfig or float
        Quantized clock configuration, or a raw delay in seconds for
        unquantized (ideal) clocking.
    noise_rms : float
        Total rms of the additive circular complex white noise per sample.
    seed : int, SeedSequence or None
        Noise generator seed; required whenever noise_rms > 0.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    d = config_total_delay(delay) if isinstance(delay, ClockConfig) else float(delay)
    t = np.arange(n) / sample_rate + d
    samples = np.asarray(sig(t), dtype=complex)
    if noise_rms > 0.0:
        if seed is None:
            raise ValueError("seed is required when noise_rms > 0")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, 2))
        samples = samples + noise_rms / np.sqrt(2.0) * (z[:, 0] + 1j * z[:, 1])
    return SampleFrame(samples, sample_rate)


@functools.lru_cache(maxsize=None)
def _sylvester(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class ThmMatrix:
    """(n-1) x n matrix of +/-1 rows, each a balanced zero-sum combination."""

    n: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.shape != (self.n - 1, self.n):
            raise ValueError(
                f"rows shape {rows.shape} != ({self.n - 1}, {self.n})"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


def truncated_hadamard(n: int) -> ThmMatrix:
    """Sylvester Hadamard matrix of order ``n`` with the all-ones row removed.

    Every remaining row sums to zero (it rejects a common-mode input) and
    the rows are mutually orthogonal.  ``n`` must be a power of 2, >= 2.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"order must be a power of 2 and >= 2, got {n}")
    return ThmMatrix(n=n, rows=_sylvester(n)[1:])


def _stack_frames(frames, count: int):
    """Check ``count`` frames share rate, length and start time; return (stack, frames[0])."""
    frames = list(frames)
    if len(frames) != count:
        raise ValueError(f"expected {count} frames, got {len(frames)}")
    first = frames[0]
    for fr in frames[1:]:
        if fr.sample_rate != first.sample_rate:
            raise ValueError("frames have mismatched sample rates")
        if len(fr) != len(first):
            raise ValueError("frames have mismatched lengths")
        if fr.start_time != first.start_time:
            raise ValueError("frames have mismatched start times")
    return np.vstack([fr.samples for fr in frames]), first


def mac_apply(frames, m: ThmMatrix):
    """Apply each matrix row as a sample-wise multiply-accumulate.

    Returns n-1 frames, one per row: output_r[k] = sum_i rows[r][i] *
    frames[i][k].  The hardware's charge-share-then-transfer gain
    bookkeeping is modeled as net unity weight.
    """
    stack, first = _stack_frames(frames, m.n)
    outputs = m.rows @ stack
    return [SampleFrame(out, first.sample_rate, first.start_time) for out in outputs]


def desired_conversion_gain(f, delta: float, row: int, n: int = 4):
    """Closed-form conversion gain of one matrix row for the desired signal.

    When the clocks are planned to align an interferer whose inter-element
    delay differs from the desired signal's by ``delta``, the desired
    component acquires a per-element phase ramp and the row output becomes

        G_r(f) = sum_i rows[r][i] * exp(j * 2 * pi * f * i * delta)

    with i = 0..n-1.  G_r(0) = 0 for every row (the rows are zero-sum), so
    any cancellation stage also notches DC.

    ``f`` may be a scalar or ndarray of baseband frequencies in Hz.
    """
    m = truncated_hadamard(n)
    if not 0 <= row < n - 1:
        raise ValueError(f"row must be in 0..{n - 2}, got {row}")
    signs = m.rows[row]
    f_arr = np.asarray(f, dtype=float)
    idx = np.arange(n)
    phases = np.exp(2j * np.pi * np.multiply.outer(f_arr, idx * delta))
    g = phases @ signs.astype(complex)
    return _scalar_like(f, g)


def equalize(
    frame: SampleFrame, row: int, delta: float, n: int = 4, eps: float | None = None
) -> SampleFrame:
    """Undo one row's desired-signal conversion gain by zero-forcing.

    FFT the frame, divide each bin at frequency f by G(f) where
    |G| >= eps, zero the bin otherwise, inverse FFT.  ``eps`` floors the
    inversion so bins near a null (always including the structural DC
    null) are zeroed instead of amplified.  Default eps is 0.05 * max |G|
    over the frame's FFT bins.
    """
    freqs = np.fft.fftfreq(len(frame), d=1.0 / frame.sample_rate)
    g = desired_conversion_gain(freqs, delta, row, n)
    if eps is None:
        eps = 0.05 * float(np.max(np.abs(g)))
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    keep = np.abs(g) >= eps
    y = np.where(keep, np.fft.fft(frame.samples) / np.where(keep, g, 1.0), 0.0)
    return SampleFrame(np.fft.ifft(y), frame.sample_rate, frame.start_time)
