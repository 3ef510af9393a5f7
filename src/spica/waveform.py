"""Analytic complex-baseband signal generators.

Every signal here is a closed-form function of continuous time, so sampling
at arbitrary instants (including the picosecond-granular clock offsets used
by the delay planner) is exact.  Nothing is tabulated or interpolated, which
keeps interpolation error out of cancellation-depth measurements; on a
sample grid a shaped stream takes its pulse once per phase (see StreamTerm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ToneTerm",
    "StreamTerm",
    "Waveform",
    "rrc_pulse",
    "map_qpsk",
]

# Tolerance for detecting the removable singularity of the RRC formula at x = 0.
_SINGULARITY_TOL = 1e-8
# Half-width of the window of |4*b*x| around 1 where _rrc_edge replaces the
# RRC formula.  Outside it 1 - (4*b*x)**2 is at least about 0.02, so the
# formula's cancellation costs at most about 100 ulps.
_EDGE_WINDOW = 1e-2
# Fewest grid instants per pulse phase.  Over 65,536 instants q = 25, 256 and 1,024 phases took
# 8, 11 and 17 ms against 54 ms per instant, but q = 8,191 took 95 ms against 65 ms.
_PHASE_INSTANTS = 64


def rrc_pulse(t, symbol_rate: float, rolloff: float, span_symbols: int = 16):
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
    span_symbols : int
        Truncate the pulse to this many symbol periods on each side of the peak.

    Returns
    -------
    ndarray
        Pulse amplitude shaped like ``t`` (0-d for a scalar); zero outside the span.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    if symbol_rate <= 0.0:
        raise ValueError(f"symbol_rate must be positive, got {symbol_rate}")

    x = np.atleast_1d(np.asarray(t, dtype=float)) * symbol_rate
    b = rolloff
    sin_a = np.sin(np.pi * x * (1.0 - b))
    cos_b = np.cos(np.pi * x * (1.0 + b))
    out = _rrc_shape(x, sin_a, cos_b, b, span_symbols, np.sqrt(symbol_rate))
    return out.reshape(np.shape(t))


def _rrc_shape(x, sin_a, cos_b, b: float, span: int, scale: float, reach=(0, np.inf)):
    """RRC pulse at normalized times ``x`` (an ndarray, in symbol periods).

    ``sin_a`` and ``cos_b`` are sin(pi*(1-b)*x) and cos(pi*(1+b)*x), however
    the caller computed them.  The generic formula is used away from its two
    removable singularities: x = 0 takes its limit, and near |4*b*x| = 1,
    where the formula cancels, ``_rrc_edge`` evaluates it.  Past ``span``
    symbol periods the pulse is zero; the cutoff is slightly tolerant so
    instants exactly on the boundary are kept whatever their rounding.
    ``reach`` bounds |x|; each fix-up is skipped where no |x| in it can need it.
    """
    lo, hi = reach
    y = 4.0 * b * x
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sin_a + y * cos_b) / (np.pi * x * (1.0 - y**2)) * scale
    if lo < _SINGULARITY_TOL:
        out[np.abs(x) < _SINGULARITY_TOL] = scale * (1.0 - b + 4.0 * b / np.pi)
    if b > 0.0 and 4.0 * b * hi - 1.0 > -_EDGE_WINDOW and 4.0 * b * lo - 1.0 < _EDGE_WINDOW:
        edge = np.abs(np.abs(y) - 1.0) < _EDGE_WINDOW
        if edge.any():
            out[edge] = _rrc_edge(np.abs(x[edge]), b) * scale
    cutoff = float(span) + 1e-9
    if hi > cutoff:
        out[np.abs(x) > cutoff] = 0.0
    return out


def _rrc_edge(ax, b: float):
    """Unit-rate RRC pulse at ``ax`` = |x| near its edge singularity x_e = 1/(4*b).

    With h = ax - x_e and u = pi*(1-b)*x_e, so that pi*(1+b)*x_e = u + pi/2,
    sum-to-product turns the numerator into
    -2*sin(pi*b*h)*cos(u + pi*h) - 4*b*h*sin(u + pi*(1+b)*h) and the
    denominator is -4*pi*b*h*ax*(2 + 4*b*h).  Both vanish with h and no O(1)
    terms cancel, so h divides out exactly (sin(pi*b*h) = pi*b*h*sinc(b*h)).
    """
    x_e = 0.25 / b
    h = ax - x_e
    u = np.pi * (1.0 - b) * x_e
    num = np.pi * np.sinc(b * h) * np.cos(u + np.pi * h) + 2.0 * np.sin(u + np.pi * (1.0 + b) * h)
    return num / (2.0 * np.pi * ax * (2.0 + 4.0 * b * h))


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
    """Complex exponential: amplitude * exp(j*(2*pi*frequency*t + phase)).

    ``frequency`` is one tone's, or a ``(k, 1)`` array of k tones evaluated at
    once: over n instants the term then returns ``(k, n)``, one row per tone.
    """

    amplitude: float
    frequency: float | np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def eval(self, t, fs=None) -> np.ndarray:
        # A tone needs no grid; a zero phase or unit amplitude changes no value.
        arg = 2.0 * np.pi * self.frequency * np.asarray(t, dtype=float)
        out = np.exp(1j * (arg + self.phase if self.phase != 0.0 else arg))
        return self.amplitude * out if self.amplitude != 1.0 else out


@dataclass(frozen=True)
class StreamTerm:
    """Pulse-shaped symbol stream with finite-support RRC shaping.

    The symbol list is normalized to unit average power on construction.
    Evaluation is exact: each instant sums the closed-form pulses of the
    symbols within ``span_symbols`` of it.  Given ``fs``, ``t`` is the n-point
    grid t[0] + j / fs; if symbol_rate / fs = p / q exactly with q <= n / 64,
    each of the q pulse phases is one product of its 2*span + 1 pulse values
    with a p-strided window over the symbols.  Otherwise each instant takes the
    pulse's sines and cosines by angle addition around its nearest symbol.
    ``center_freq`` shifts the occupied band away from DC by multiplying the
    envelope with exp(j*2*pi*center_freq*t); on the p/q grid that is a factor
    per phase, at t[0] + phi / fs, times one per row of q instants, its whole
    cycles dropped.  The row-combining stage has a structural null at DC, so
    band-limited stimuli are normally placed at a nonzero center.
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

    def eval(self, t, fs=None) -> np.ndarray:
        """Sum of shaped symbol pulses at time ``t``, shaped like ``t`` (0-d for a scalar)."""
        t_flat = np.asarray(t, dtype=float).ravel()
        acc = None if fs is None else self._grid_sum(t_flat.size, fs, t_flat[0])
        if acc is None:
            acc = np.zeros(t_flat.shape, dtype=complex)
            # A pulse reaches only instants whose nearest symbol (k0 in _pulse_sum)
            # is within span_symbols of the stream; every other instant stays 0.
            k0 = np.rint(t_flat * self.symbol_rate)
            span = self.span_symbols
            reached = np.flatnonzero((k0 >= -span) & (k0 <= self.symbols.size - 1 + span))
            acc[reached] = self._pulse_sum(t_flat[reached])
            if self.center_freq != 0.0:
                acc *= np.exp(2j * np.pi * self.center_freq * t_flat)
        return acc.reshape(np.shape(t))

    def _grid_sum(self, n: int, fs: float, t0: float):
        """The stream at the instants j / fs + t0, j < n, or None (see the class docstring)."""
        rate, span, ratio = self.symbol_rate, self.span_symbols, self.symbol_rate / fs
        p, q = Fraction(ratio).limit_denominator(max(n // _PHASE_INSTANTS, 1)).as_integer_ratio()
        if p / q != ratio:
            return None
        c = np.arange(q) * p / q + t0 * rate
        k0 = np.rint(c).astype(np.int64)
        x = (c - k0)[:, None] - np.arange(-span, span + 1)
        pulses = rrc_pulse(x / rate, rate, self.rolloff, span)
        # Instant q*m + phi reads symbols m*p + k0[phi] +- span; buf[i] is symbol first + i,
        # or 0 off the stream, where the clipped index reads an end of pad.
        rows, first = -(-n // q), k0[0] - span
        pad = np.concatenate(([0j], self.symbols, [0j]))
        buf = np.take(pad, np.arange(first, (rows - 1) * p + k0[-1] + span + 1) + 1, mode="clip")
        windows = sliding_window_view(np.stack((buf.real, buf.imag)), 2 * span + 1, 1)
        acc = np.zeros((rows, q, 2))
        for phi, s in enumerate((k0 - k0[0]).tolist()):
            np.einsum("kij,j->ik", windows[:, s::p][:, :rows], pulses[phi], out=acc[:, phi])
        acc = acc.view(complex)[..., 0]
        if self.center_freq != 0.0:
            cycles = self.center_freq * q / fs * np.arange(rows)
            acc *= np.exp(2j * np.pi * (cycles - np.rint(cycles)))[:, None]
            acc *= np.exp(2j * np.pi * self.center_freq * (t0 + np.arange(q) / fs))
        return acc.ravel()[:n]

    def _pulse_sum(self, t_arr: np.ndarray) -> np.ndarray:
        """Baseband sum of shaped symbol pulses at the 1-D instants ``t_arr``."""
        b, span = self.rolloff, self.span_symbols
        # Each instant sits f in [-1/2, 1/2] symbol periods from its nearest
        # symbol k0, and only symbols k0 + off with |off| <= span reach it, at
        # x = f - off.  Expanding around the nearest symbol keeps every small
        # x exact (x = f at off = 0), so the sinc-like term keeps its relative
        # precision near x = 0; any other symbol is at least half a period away.
        pos = t_arr * self.symbol_rate
        k0 = np.rint(pos)
        f = pos - k0
        lo, hi = np.pi * (1.0 - b), np.pi * (1.0 + b)
        sin_lo, cos_lo = np.sin(lo * f), np.cos(lo * f)
        sin_hi, cos_hi = np.sin(hi * f), np.cos(hi * f)
        # Symbol k is padded[k + 1]; clipped indices past either end read 0.
        # Real and imaginary parts are gathered and summed apart: a complex
        # symbol times a real pulse is exactly these two real products.
        padded = np.concatenate(([0j], self.symbols, [0j]))
        sym_re, sym_im = padded.real.copy(), padded.imag.copy()
        first = k0.astype(np.int64) + 1
        root_rate = np.sqrt(self.symbol_rate)
        acc = np.zeros((2,) + t_arr.shape)
        for off in range(-span, span + 1):
            # sin(lo*x) and cos(hi*x) by angle addition: trig on scalars only.
            sin_a = sin_lo * np.cos(lo * off) - cos_lo * np.sin(lo * off)
            cos_b = cos_hi * np.cos(hi * off) + sin_hi * np.sin(hi * off)
            reach = (abs(off) - 0.5, abs(off) + 0.5)
            pulse = _rrc_shape(f - off, sin_a, cos_b, b, span, root_rate, reach)
            idx = first + off
            acc[0] += np.take(sym_re, idx, mode="clip") * pulse
            acc[1] += np.take(sym_im, idx, mode="clip") * pulse
        out = np.empty(t_arr.shape, dtype=complex)
        out.real, out.imag = acc
        return out


@dataclass(frozen=True)
class Waveform:
    """Linear combination of terms with an overall complex scale and delay.

    Evaluation is ``scale * sum(term.eval(t - delay, fs))``, ``fs`` marking ``t``
    as a sample grid (see StreamTerm).  Terms may be ToneTerm, StreamTerm, or nested
    Waveform instances, so sums and delayed or scaled copies compose without
    re-deriving the underlying signals.
    An empty term list evaluates to zero everywhere.  The result has the
    shape of the instants (numpy's shape-() value for a scalar instant).
    """

    terms: tuple = field(default_factory=tuple)
    scale: complex = 1.0 + 0.0j
    delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, t, fs=None) -> np.ndarray:
        # A zero accumulator, delay or unit scale changes no value, so each is skipped.
        t_arr = np.asarray(t, dtype=float)
        if not self.terms:
            return np.zeros(t_arr.shape, dtype=complex)
        shifted = t_arr - self.delay if self.delay != 0.0 else t_arr
        acc = self.terms[0].eval(shifted, fs)
        for term in self.terms[1:]:
            acc = acc + term.eval(shifted, fs)
        return self.scale * acc if self.scale != 1.0 else acc

    def delayed(self, delay: float) -> "Waveform":
        """Copy of this waveform shifted later in time by ``delay`` seconds."""
        return Waveform(terms=(self,), delay=delay)

    def __mul__(self, factor) -> "Waveform":
        return Waveform(terms=self.terms, scale=self.scale * factor, delay=self.delay)
