"""Discrete time-delay cancellation core.

This is the heart of the simulator: quantized per-element clock delays
(one array planner and its delay arithmetic), non-uniform sampling of
analytic signals, the truncated-Hadamard multiply-accumulate that nulls a
delay-aligned source, the closed-form desired-signal conversion gain of
each row, and the zero-forcing responses that undo it after combining.

Delay decomposition follows the three-stage clock generator it models: an
8-bit phase interpolator with 5 ps steps spanning one 1.25 ns quadrant, a
quadrature phase (quadrant) select in 1.25 ns steps, and an interleave
offset in multiples of the 5 ns sample period.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

__all__ = [
    "PI_STEP",
    "QUADRANT_STEP",
    "INTERLEAVE_STEP",
    "Quadrant",
    "total_delay",
    "plan_delays",
    "plan_delay",
    "sample_element",
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


def total_delay(pi_code, quadrant, interleave_offset):
    """Delay in seconds of clock codes; scalars or equal-shape integer arrays."""
    return pi_code * PI_STEP + quadrant * QUADRANT_STEP + interleave_offset * INTERLEAVE_STEP


def plan_delays(targets, max_offset: int = 2):
    """Decompose target delays into canonical clock codes, elementwise.

    Greedy coarse-to-fine: largest interleave offset not exceeding the
    target, then the largest quadrant, then the nearest phase-interpolator
    code.  Each result is within 2.5 ps (half a PI step) of its target;
    the range end lies on the PI grid, so no total passes it.

    Parameters
    ----------
    targets : float or array_like
        Desired delays in seconds, each within [0, (max_offset + 1) * 5 ns].
    max_offset : int
        Largest usable interleave offset, at most the int64 maximum; 2 for
        the 4-element clocking scheme (15 ns total range).  Larger arrays
        extrapolate the same decomposition over more sample periods.

    Returns
    -------
    (pi_code, quadrant, interleave_offset)
        Integer arrays shaped like ``targets``.
    """
    if max_offset < 0:
        raise ValueError(f"max_offset must be >= 0, got {max_offset}")
    if max_offset > np.iinfo(np.int64).max:
        raise ValueError(f"max_offset must fit in int64, got {max_offset}")
    t = np.asarray(targets, dtype=float)
    max_range = (max_offset + 1) * INTERLEAVE_STEP
    lo, hi = -max_range * _RANGE_RTOL, max_range * (1.0 + _RANGE_RTOL)
    bad = np.flatnonzero(~((t >= lo) & (t <= hi)))
    if bad.size:
        raise ValueError(f"target delay {t.flat[bad[0]]:.6e} s outside [0, {max_range:.6e}] s")
    t = np.clip(t, 0.0, max_range)

    offset = np.minimum(np.floor(t / INTERLEAVE_STEP).astype(np.int64), max_offset)
    r1 = t - offset * INTERLEAVE_STEP
    quadrant = np.minimum(np.floor(r1 / QUADRANT_STEP).astype(np.int64), 3)
    rem = r1 - quadrant * QUADRANT_STEP
    pi_code = np.clip(np.floor(rem / PI_STEP + 0.5).astype(np.int64), 0, 255)
    return pi_code, quadrant, offset


def plan_delay(target: float, max_offset: int = 2) -> tuple[int, int, int]:
    """The ``(pi_code, quadrant, interleave_offset)`` ints ``plan_delays`` gives for one target."""
    return tuple(int(code) for code in plan_delays(target, max_offset))


def sample_element(sig, delay, sample_rate: float, n: int) -> np.ndarray:
    """Sample an analytic signal with a delayed clock.

    The k-th sample is ``sig.eval(k / sample_rate + d, sample_rate)`` where
    ``d`` is the clock delay: a delayed clock advances the evaluation instant,
    so an element whose arrival is late by d and whose clock is late by d
    produces the reference-aligned stream.  The frame is a complex ndarray of
    the shape ``sig`` returns: ``(n,)``, or ``(k, n)`` for k tones
    ``ToneTerm(1.0, freqs[:, None])``.

    Parameters
    ----------
    sig : Waveform, ToneTerm or StreamTerm
        One source's signal; its ``eval`` takes the instants and the sample
        rate, so streams see the grid.
    delay : float
        Clock delay in seconds: a planned ``total_delay`` for quantized
        clocking, or any value for unquantized (ideal) clocking.
    """
    if n < 1 or sample_rate <= 0.0:
        raise ValueError(f"sample count must be >= 1 and sample_rate > 0, got {n}, {sample_rate}")
    t = np.arange(n) / sample_rate + float(delay)
    return np.asarray(sig.eval(t, sample_rate), dtype=complex)


def _noisy_frame(samples: np.ndarray, noise_rms: float, seed) -> np.ndarray:
    """``samples`` plus circular complex white noise of total rms ``noise_rms`` per sample.

    ``seed`` (an int, SeedSequence, or a list of them) is required whenever noise_rms > 0; a
    list holds one seed per frame along the leading axes, so each tone of a ``(k, n)`` frame
    draws the noise it would draw alone.
    """
    if noise_rms > 0.0:
        if seed is None:
            raise ValueError("seed is required when noise_rms > 0")
        seeds = seed if isinstance(seed, list) else [seed]
        z = [np.random.default_rng(s).standard_normal((samples.shape[-1], 2)) for s in seeds]
        z = np.reshape(z, samples.shape + (2,))
        samples = samples + noise_rms / np.sqrt(2.0) * (z[..., 0] + 1j * z[..., 1])
    return samples


@functools.lru_cache(maxsize=None)
def truncated_hadamard(n: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order ``n`` with the all-ones row removed.

    Returns the ``(n - 1, n)`` int64 array of +/-1 rows.  Every row sums to
    zero (it rejects a common-mode input) and the rows are mutually
    orthogonal.  ``n`` must be a power of 2, >= 2.  Each order is built once
    and shared, read-only.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"order must be a power of 2 and >= 2, got {n}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    rows = h[1:]
    rows.setflags(write=False)
    return rows


def mac_apply(frames, rows: np.ndarray) -> np.ndarray:
    """Apply each matrix row as a sample-wise multiply-accumulate.

    ``frames`` holds one equal-shape frame per column of ``rows``, as a list or as an
    ``(elements, ..., n)`` ndarray, which is not copied.  Returns the stack whose row r is
    output_r[k] = sum_i rows[r][i] * frames[i][k], rows first so an element frame broadcasts
    against every row: ``(rows, n)`` from ``(n,)`` frames, ``(rows, k, n)`` from ``(k, n)``
    ones.  The hardware's charge-share-then-transfer gain bookkeeping is modeled as net unity
    weight.
    """
    n = rows.shape[1]
    if len(frames) != n:
        raise ValueError(f"expected {n} frames, got {len(frames)}")
    stack = frames if isinstance(frames, np.ndarray) else np.stack(frames)
    return (rows @ stack.reshape(n, -1)).reshape(-1, *stack.shape[1:])


def _signed_power_sum(signs, z):
    """sum_i signs[i] * z**i by Horner's rule, ((s[n-1]*z + s[n-2])*z + ...)*z + s[0].

    One complex array shaped like ``z`` (0-d for a scalar): O(z.size) memory for any n.
    """
    res = np.full(np.shape(z), complex(signs[-1]))
    for sign in reversed(signs[:-1]):
        res *= z
        res += sign
    return res


def desired_conversion_gain(f, delta: float, row: int, n: int = 4):
    """Closed-form conversion gain of one matrix row for the desired signal.

    When the clocks are planned to align an interferer whose inter-element
    delay differs from the desired signal's by ``delta``, the desired
    component acquires a per-element phase ramp and the row output becomes

        G_r(f) = sum_i rows[r][i] * z**i,  z = exp(j * 2 * pi * f * delta)

    with i = 0..n-1, summed by Horner's rule.  G_r(0) = 0 for every row (the
    rows are zero-sum), so any cancellation stage also notches DC.

    ``f`` may be a scalar or ndarray of baseband frequencies in Hz; the
    result is a complex ndarray of its shape (0-d for a scalar ``f``).
    """
    rows = truncated_hadamard(n)
    if not 0 <= row < n - 1:
        raise ValueError(f"row must be in 0..{n - 2}, got {row}")
    z = np.exp(2j * np.pi * delta * np.asarray(f, dtype=float))
    return _signed_power_sum(rows[row], z)


def equalize(frame_len: int, fs: float, delta: float, n: int = 4, offset_hz: float = 0.0):
    """Zero-forcing responses that undo each row's desired-signal conversion gain.

    Yields, row r of ``truncated_hadamard(n)`` at a time, 1 / G_r(f + offset_hz) at the
    ``np.fft`` bins f of ``frame_len`` samples at ``fs`` where |G_r| >= 0.05 * max |G_r|,
    else 0; G_r is ``desired_conversion_gain``'s, bit for bit.  ``offset_hz`` is the carrier
    in RF_DERIVED, where LO phasors rotate the desired signal too.  A zero G_r raises ValueError.
    """
    z = np.exp(2j * np.pi * delta * (np.fft.fftfreq(frame_len, d=1.0 / fs) + offset_hz))
    for row, signs in enumerate(truncated_hadamard(n)):
        g = _signed_power_sum(signs, z)
        eps = 0.05 * float(np.max(np.abs(g)))
        if eps <= 0.0:
            raise ValueError(f"row {row}'s gain is zero at every bin; nothing to equalize")
        keep = np.abs(g) >= eps
        np.divide(1.0, g, out=g, where=keep)  # in place, so a row holds one response buffer
        g[~keep] = 0.0
        yield g
