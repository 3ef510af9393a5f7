"""Measurement definitions: PSD, cancellation depth, conversion gain, EVM.

All spectral quantities are calibrated so a unit-amplitude complex tone
reads 0 dB, both at its peak bin and as band-integrated power.  Band
integration divides the bin sum by the window's equivalent noise bandwidth,
which makes tone power exact regardless of bin alignment and makes white
noise integrate to its variance.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ttd import SampleFrame
from .waveform import StreamTerm, rrc_pulse

__all__ = [
    "MeasurementError",
    "welch_power",
    "band_power",
    "cancellation_depth",
    "conversion_gain_measured",
    "evm_percent",
    "recover_symbols",
]

_DB_FLOOR = 1e-300


class MeasurementError(RuntimeError):
    """A measurement could not be made from the given frames."""


@functools.lru_cache(maxsize=None)
def _hann(nfft: int) -> np.ndarray:
    """Periodic Hann window of length ``nfft``, shared read-only."""
    win = np.hanning(nfft + 1)[:-1]
    win.setflags(write=False)
    return win


@functools.lru_cache(maxsize=None)
def _welch_freqs(nfft: int, fs: float) -> np.ndarray:
    """Bin frequencies of a two-sided ``nfft``-point spectrum, ascending, shared read-only."""
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    freqs.setflags(write=False)
    return freqs


def welch_power(samples, fs: float, nfft: int):
    """Hann-windowed, 50%-overlap-averaged two-sided power spectrum over the last axis.

    ``samples`` has shape ``(..., n)``; each leading index is one frame.
    Returns ``(freqs, pxx, enbw_bins)``: ascending bin frequencies, linear
    power of shape ``(..., nfft)`` clamped below at a tiny positive floor
    (a unit tone on a bin center reads 1.0), and the window's equivalent
    noise bandwidth in bins.  Segments are transformed one start at a time,
    so memory grows with the number of frames times ``nfft``, not with the
    frame length.

    Raises ValueError if the frames are shorter than ``nfft``.
    """
    x = np.asarray(samples)
    n = x.shape[-1]
    if n < nfft:
        raise ValueError(f"frame length {n} < nfft {nfft}")
    win = _hann(nfft)
    starts = range(0, n - nfft + 1, nfft - int(round(nfft * 0.5)))
    segments = (np.abs(np.fft.fft(x[..., s : s + nfft] * win)) ** 2 for s in starts)
    acc = next(segments)
    for seg in segments:
        acc += seg
    win_sum = float(np.sum(win))
    pxx = np.fft.fftshift(acc, axes=-1) / (len(starts) * win_sum**2)
    enbw = nfft * float(np.sum(win**2)) / win_sum**2
    return _welch_freqs(nfft, fs), np.maximum(pxx, _DB_FLOOR), enbw


def welch_psd(frame: SampleFrame, nfft: int = 4096):
    """``welch_power`` of one frame, which spica never calls.

    ``bench/tracer.py`` wraps this name until ROADMAP item 1 retargets it.
    """
    return welch_power(frame.samples, frame.sample_rate, nfft)


def band_power(freqs, enbw: float, f_lo, f_hi, *spectra):
    """Linear power over [f_lo, f_hi] (inclusive) per frame of each spectrum.

    ``freqs``, ``enbw`` and each spectrum are as ``welch_power`` returns
    them.  The edges broadcast against the spectra's leading axes; one bin
    mask serves every spectrum.  Returns one array per spectrum.
    """
    lo, hi = np.broadcast_arrays(f_lo, f_hi)
    mask = (freqs >= lo[..., None]) & (freqs <= hi[..., None])
    empty = np.flatnonzero(~np.any(mask, axis=-1))
    if empty.size:
        lo, hi = lo.flat[empty[0]], hi.flat[empty[0]]
        if hi < lo:
            raise ValueError("band upper edge below lower edge")
        raise ValueError(f"band [{lo}, {hi}] Hz contains no PSD bins")
    return [np.sum(np.where(mask, pxx, 0.0), axis=-1) / enbw for pxx in spectra]


def _nfft(one: SampleFrame, many: SampleFrame) -> int:
    """Welch length for measuring ``many`` against ``one``, whose leading shape ends ``many``'s."""
    if many.sample_rate != one.sample_rate:
        raise ValueError("frames have mismatched sample rates")
    lead, many_lead = one.samples.shape[:-1], many.samples.shape[:-1]
    if many_lead[len(many_lead) - len(lead) :] != lead:
        raise ValueError(f"frame shapes {many.samples.shape} and {one.samples.shape} do not pair")
    return min(4096, len(one), len(many))


def cancellation_depth(ref: SampleFrame, canc: SampleFrame, band: tuple):
    """Band-integrated power ratio ref / canc in dB.

    ``ref`` is the output with a single input applied (no cancellation),
    ``canc`` the output with all inputs applied.  Returns +inf when the
    cancelled band power is exactly zero.  ``ref``'s leading shape must end
    ``canc``'s and the band edges broadcast against it, as k tones ``(k, n)``
    with ``(k,)`` edges pair with ``mac_apply``'s ``(rows, k, n)``.
    Returns an ndarray of ``canc``'s leading shape (0-d for one frame).
    """
    nfft, fs = _nfft(ref, canc), ref.sample_rate
    freqs, pxx_ref, enbw = welch_power(ref.samples, fs, nfft)
    pxx_canc = welch_power(canc.samples, fs, nfft)[1]
    p_ref, p_canc = band_power(freqs, enbw, *band, pxx_ref, pxx_canc)
    # The all-zero frame hits the PSD floor rather than true zero; treat
    # anything at the floor as perfect cancellation.
    return np.where(p_canc <= _DB_FLOOR * nfft, np.inf, 10.0 * np.log10(p_ref / p_canc))


def conversion_gain_measured(all_in: SampleFrame, one_in: SampleFrame, f):
    """Measured conversion gain at a tone frequency, in dB.

    Ratio of output tone power with all inputs applied to the power with
    one input applied, read at the tone's bin.  Raises MeasurementError,
    naming the tone, if it does not stand above the spectral floor in
    either frame.  ``one_in``'s leading shape must end ``all_in``'s and ``f``
    broadcasts against it, as k tones ``(k, n)`` with ``(k,)`` frequencies
    pair with ``mac_apply``'s ``(rows, k, n)``.  Returns an ndarray of
    ``all_in``'s leading shape (0-d for one frame).
    """
    nfft, fs = _nfft(one_in, all_in), one_in.sample_rate
    freqs, p_all, _ = welch_power(all_in.samples, fs, nfft)
    _, p_one, _ = welch_power(one_in.samples, fs, nfft)
    db_all, db_one = 10.0 * np.log10(p_all), 10.0 * np.log10(p_one)
    med_all, med_one = np.median(db_all, axis=-1), np.median(db_one, axis=-1)
    tones = np.broadcast_to(f, one_in.samples.shape[:-1])
    gains = np.empty(db_all.shape[:-1])
    for idx in np.ndindex(tones.shape):
        tone = float(tones[idx])
        at = (..., *idx, int(np.argmin(np.abs(freqs - tone))))
        for db, med, name in ((db_all, med_all, "all-input"), (db_one, med_one, "one-input")):
            peak_db, floor_db = db[at], med[(..., *idx)]
            low = np.flatnonzero(peak_db < floor_db + 10.0)
            if low.size:
                raise MeasurementError(
                    f"tone at {tone:.6g} Hz is below the {name} spectral floor "
                    f"({peak_db.flat[low[0]]:.1f} dB vs median {floor_db.flat[low[0]]:.1f} dB)"
                )
        gains[(..., *idx)] = db_all[at] - db_one[at]
    return gains


def evm_percent(rx_symbols, ref_symbols) -> float:
    """Error vector magnitude in percent after a complex scalar fit.

    A single least-squares gain/phase factor is fitted from rx to ref
    first, so a global rotation or scaling of the received constellation
    does not count as error.
    """
    rx = np.asarray(rx_symbols, dtype=complex).ravel()
    ref = np.asarray(ref_symbols, dtype=complex).ravel()
    if rx.size != ref.size:
        raise ValueError(f"length mismatch: {rx.size} vs {ref.size}")
    if rx.size < 1:
        raise ValueError("need at least one symbol")
    ref_power = float(np.mean(np.abs(ref) ** 2))
    if ref_power == 0.0:
        raise ValueError("reference symbols have zero power")
    rx_power = np.vdot(rx, rx)
    if rx_power == 0.0:
        return 100.0
    a = np.vdot(rx, ref) / rx_power
    err = float(np.mean(np.abs(a * rx - ref) ** 2))
    return 100.0 * math.sqrt(err / ref_power)


def recover_symbols(frame: SampleFrame, stream: StreamTerm, genie_timing: float) -> np.ndarray:
    """Matched-filter symbol recovery with genie timing, no blind sync.

    ``genie_timing`` is the absolute time of symbol 0 and the phase
    reference of the stream's center-frequency downshift.  The frame must
    cover every symbol of the stream plus the matched filter's span on each
    side; symbol instants must land on the sample grid.

    Returns one recovered value per transmitted symbol, in order.
    """
    fs = frame.sample_rate
    rate = stream.symbol_rate
    base = frame.samples
    if stream.center_freq != 0.0:
        t = np.arange(len(frame)) / fs
        base = base * np.exp(-2j * np.pi * stream.center_freq * (t - genie_timing))

    half = int(np.ceil(stream.span_symbols * fs / rate))
    taps = rrc_pulse(
        np.arange(-half, half + 1) / fs, rate, stream.rolloff, stream.span_symbols
    ) / fs
    # "Same"-mode linear convolution: pad both to a power of two past the
    # full length, then keep the part centred on the input.
    n_full = base.size + taps.size - 1
    n_fft = 1 << (n_full - 1).bit_length()
    full = np.fft.ifft(np.fft.fft(base, n_fft) * np.fft.fft(taps, n_fft))
    matched = full[(taps.size - 1) // 2 :][: base.size]

    n_sym = stream.symbols.size
    sym_times = genie_timing + np.arange(n_sym) / rate
    idx_float = sym_times * fs
    idx = np.rint(idx_float).astype(np.int64)
    if float(np.max(np.abs(idx_float - idx))) > 1e-3:
        raise ValueError("symbol instants do not land on the sample grid")
    if idx.min() < half or idx.max() > len(frame) - 1 - half:
        raise ValueError("frame does not cover the symbol span plus matched-filter support")
    return matched[idx]
