"""Analytic complex-baseband signal generators.

Every signal here is a closed-form function of continuous time, so sampling
at arbitrary instants (including the picosecond-granular clock offsets used
by the delay planner) is exact.  Nothing is tabulated or interpolated, which
keeps interpolation error out of cancellation-depth measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ToneTerm",
    "StreamTerm",
    "Waveform",
    "rrc_pulse",
    "map_qpsk",
]

# Tolerance for detecting the removable singularities of the RRC formula.
_SINGULARITY_TOL = 1e-8


def _scalar_like(x, out):
    """``out`` as a Python scalar when the input ``x`` was a scalar, else unchanged."""
    return out.item() if np.ndim(x) == 0 else out


def rrc_pulse(t, symbol_rate: float, rolloff: float, span_symbols: int | None = 16):
    """Unit-energy root-raised-cosine pulse evaluated at time ``t``.

    Parameters
    ----------
    t : float or array_like
        Evaluation time in seconds.  Scalar or any ndarray shape.
    symbol_rate : float
        Symbol rate in Hz; the pulse is scaled so its continuous-time energy
        integral is 1.
    rolloff : float
        Excess-bandwidth factor in [0, 1].
    span_symbols : int or None
        Truncate the pulse to this many symbol periods on each side of the
        peak.  ``None`` evaluates the untruncated formula (used by the
        spectral-integral oracle in the tests).

    Returns
    -------
    float or ndarray
        Pulse amplitude; zero outside the truncation span.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    if symbol_rate <= 0.0:
        raise ValueError(f"symbol_rate must be positive, got {symbol_rate}")

    t_arr = np.asarray(t, dtype=float)
    x = t_arr * symbol_rate
    b = rolloff
    root_rate = np.sqrt(symbol_rate)

    center = np.abs(x) < _SINGULARITY_TOL
    if b > 0.0:
        edge = np.abs(np.abs(4.0 * b * x) - 1.0) < _SINGULARITY_TOL
    else:
        edge = np.zeros_like(center)
    regular = ~(center | edge)

    out = np.empty_like(x)

    # Generic formula away from the two removable singularities.
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.sin(np.pi * x * (1.0 - b)) + 4.0 * b * x * np.cos(np.pi * x * (1.0 + b))
        den = np.pi * x * (1.0 - (4.0 * b * x) ** 2)
        generic = np.where(regular, num / np.where(regular, den, 1.0), 0.0)
    out[regular] = generic[regular] * root_rate

    # t = 0 limit.
    out[center] = root_rate * (1.0 - b + 4.0 * b / np.pi)

    # |4*b*x| = 1 limit.
    if b > 0.0 and np.any(edge):
        a = np.pi / (4.0 * b)
        out[edge] = (
            root_rate
            * (b / np.sqrt(2.0))
            * ((1.0 + 2.0 / np.pi) * np.sin(a) + (1.0 - 2.0 / np.pi) * np.cos(a))
        )

    if span_symbols is not None:
        # Slightly tolerant cutoff so evaluation instants that land exactly
        # on the truncation boundary are included consistently regardless of
        # how the caller's float arithmetic rounded them.
        out = np.where(np.abs(x) > float(span_symbols) + 1e-9, 0.0, out)
    return _scalar_like(t, out)


_QPSK_NORM = 1.0 / np.sqrt(2.0)


def map_qpsk(bits) -> np.ndarray:
    """Gray-map a bit sequence onto unit-average-power QPSK symbols.

    Mapping: 00 -> (1+1j)/sqrt(2), 01 -> (-1+1j)/sqrt(2),
    11 -> (-1-1j)/sqrt(2), 10 -> (1-1j)/sqrt(2).

    Raises
    ------
    ValueError
        If the bit count is odd or a value is not 0/1.
    """
    bits_arr = np.asarray(bits, dtype=int).ravel()
    if bits_arr.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits_arr.size}")
    if bits_arr.size and not np.all((bits_arr == 0) | (bits_arr == 1)):
        raise ValueError("bits must contain only 0 and 1")
    first = bits_arr[0::2]
    second = bits_arr[1::2]
    return _QPSK_NORM * ((1 - 2 * second) + 1j * (1 - 2 * first))


@dataclass(frozen=True)
class ToneTerm:
    """Single complex exponential: amplitude * exp(j*(2*pi*frequency*t + phase))."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def eval(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        return self.amplitude * np.exp(1j * (2.0 * np.pi * self.frequency * t_arr + self.phase))


@dataclass(frozen=True)
class StreamTerm:
    """Pulse-shaped symbol stream with finite-support RRC shaping.

    The symbol list is normalized to unit average power on construction.
    ``center_freq`` shifts the occupied band away from DC by multiplying the
    envelope with exp(j*2*pi*center_freq*t); the row-combining stage has a
    structural null at DC, so band-limited stimuli are normally placed at a
    nonzero center.
    """

    symbols: np.ndarray
    symbol_rate: float
    rolloff: float = 0.25
    span_symbols: int = 16
    center_freq: float = 0.0

    def __post_init__(self):
        if self.symbol_rate <= 0.0:
            raise ValueError(f"symbol_rate must be positive, got {self.symbol_rate}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if int(self.span_symbols) < 1:
            raise ValueError(f"span_symbols must be >= 1, got {self.span_symbols}")
        syms = np.asarray(self.symbols, dtype=complex).ravel()
        if syms.size == 0:
            raise ValueError("symbols must be non-empty")
        rms = np.sqrt(np.mean(np.abs(syms) ** 2))
        if rms == 0.0:
            raise ValueError("symbols must not all be zero")
        syms = syms / rms
        syms.setflags(write=False)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "span_symbols", int(self.span_symbols))

    def eval(self, t) -> np.ndarray:
        """Sum of shaped symbol pulses at time ``t`` (scalar or ndarray)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        period = 1.0 / self.symbol_rate
        span = self.span_symbols
        n_sym = self.symbols.size

        # Nearest-symbol index per evaluation instant; only symbols within
        # the pulse span contribute, so accumulate over relative offsets.
        # The small nudge keeps the window choice stable when an instant
        # falls exactly on a symbol boundary (common on uniform grids).
        k0 = np.floor(t_arr / period + 1e-9).astype(np.int64)
        acc = np.zeros(t_arr.shape, dtype=complex)
        for off in range(-span, span + 1):
            k = k0 + off
            valid = (k >= 0) & (k < n_sym)
            if not np.any(valid):
                continue
            tau = t_arr[valid] - k[valid] * period
            acc[valid] += self.symbols[k[valid]] * rrc_pulse(
                tau, self.symbol_rate, self.rolloff, span
            )
        if self.center_freq != 0.0:
            acc = acc * np.exp(2j * np.pi * self.center_freq * t_arr)
        return _scalar_like(t, acc.reshape(np.shape(t)))


@dataclass(frozen=True)
class Waveform:
    """Linear combination of terms with an overall complex scale and delay.

    Evaluation is ``scale * sum(term.eval(t - delay))``.  Terms may be
    ToneTerm, StreamTerm, or nested Waveform instances, so sums and delayed
    or scaled copies compose without re-deriving the underlying signals.
    An empty term list evaluates to zero everywhere.
    """

    terms: tuple = field(default_factory=tuple)
    scale: complex = 1.0 + 0.0j
    delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        shifted = t_arr - self.delay
        acc = np.zeros(t_arr.shape, dtype=complex)
        for term in self.terms:
            acc = acc + term.eval(shifted)
        return _scalar_like(t, self.scale * acc)

    def __call__(self, t):
        return self.eval(t)

    def delayed(self, delay: float) -> "Waveform":
        """Copy of this waveform shifted later in time by ``delay`` seconds."""
        return Waveform(terms=(self,), delay=delay)

    def __mul__(self, factor) -> "Waveform":
        return Waveform(terms=self.terms, scale=self.scale * factor, delay=self.delay)
