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

    Raises ValueError if ``nfft`` < 2 (a length-1 Hann window is 0) or > the frame length.
    """
    x = np.asarray(samples)
    n = x.shape[-1]
    if nfft < 2:
        raise ValueError(f"Welch length {nfft} < 2: its Hann window is all zero")
    if n < nfft:
        raise ValueError(f"frame length {n} < nfft {nfft}")
    win = _hann(nfft)
    starts = range(0, n - nfft + 1, nfft - int(round(nfft * 0.5)))
    segments = (np.abs(np.fft.fft(x[..., s : s + nfft] * win)) ** 2 for s in starts)
    acc = next(segments)
    for seg in segments:
        acc += seg
    win_sum = float(np.sum(win))
    h = nfft // 2  # fftshift as two slice copies, in half of np.fft.fftshift's time
    pxx = np.concatenate((acc[..., -h:], acc[..., :-h]), -1) / (len(starts) * win_sum**2)
    enbw = nfft * float(np.sum(win**2)) / win_sum**2
    return _welch_freqs(nfft, fs), np.maximum(pxx, _DB_FLOOR, out=pxx), enbw


def welch_psd(frame, nfft: int):
    """Never called (frames are plain ndarrays); ``bench/tracer.py`` wraps this name."""


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


def _nfft(one: np.ndarray, many: np.ndarray) -> int:
    """Welch length of ``one``, a reference spectrum whose leading shape must end ``many``'s."""
    lead, many_lead = one.shape[:-1], many.shape[:-1]
    if many_lead[len(many_lead) - len(lead) :] != lead:
        raise ValueError(f"frames {many.shape} and reference spectrum {one.shape} do not pair")
    return one.shape[-1]


def cancellation_depth(ref, canc: np.ndarray, fs: float, band: tuple):
    """Band-integrated power ratio ref / canc in dB.

    ``ref`` is the ``welch_power`` of the one-input output (no cancellation),
    ``canc`` the all-input output sampled at ``fs``, measured at ``ref``'s
    Welch length.  Returns an ndarray of ``canc``'s leading shape (0-d for one
    frame), +inf where the cancelled band power is exactly zero.  ``ref``'s
    leading shape must end ``canc``'s and the band edges broadcast against it,
    as k tones ``(k, n)`` with ``(k,)`` edges pair with ``mac_apply``'s ``(rows, k, n)``.
    """
    freqs, pxx_ref, enbw = ref
    nfft = _nfft(pxx_ref, canc)
    pxx_canc = welch_power(canc, fs, nfft)[1]
    p_ref, p_canc = band_power(freqs, enbw, *band, pxx_ref, pxx_canc)
    # The all-zero frame hits the PSD floor rather than true zero; treat
    # anything at the floor as perfect cancellation.
    return np.where(p_canc <= _DB_FLOOR * nfft, np.inf, 10.0 * np.log10(p_ref / p_canc))


def _median_db(p: np.ndarray) -> np.ndarray:
    """``np.median(10 * log10(p), axis=-1)`` bit for bit: log10 is monotone, so one partition
    of linear ``p`` at n // 2 finds both middle values (np.median partitions at two kth).
    """
    h = p.shape[-1] // 2
    part = np.partition(p, h, axis=-1)
    lower = part[..., :h].max(-1) if p.shape[-1] % 2 == 0 else part[..., h]
    return np.mean(10.0 * np.log10([lower, part[..., h]]), axis=0)


def conversion_gain_measured(all_in: np.ndarray, one_in, fs: float, f):
    """Measured conversion gain at a tone frequency, in dB.

    Ratio of the tone's power at its bin with all inputs applied to its power
    with one input applied.  ``one_in`` is the ``welch_power`` of the one-input
    output; ``all_in``, sampled at ``fs``, is measured at its Welch length.
    Raises MeasurementError, naming the tone, if it does not stand above the
    spectral floor in either frame.  ``one_in``'s leading shape must end
    ``all_in``'s and ``f`` broadcasts against it, as k tones ``(k, n)`` with
    ``(k,)`` frequencies pair with ``mac_apply``'s ``(rows, k, n)``.  Returns
    an ndarray of ``all_in``'s leading shape (0-d for one frame).
    """
    freqs, p_one, _ = one_in
    p_all = welch_power(all_in, fs, _nfft(p_one, all_in))[1]
    tones = np.broadcast_to(f, p_one.shape[:-1])
    at = (..., *np.indices(tones.shape), np.argmin(np.abs(freqs - tones[..., None]), axis=-1))
    db_all, db_one = 10.0 * np.log10(p_all[at]), 10.0 * np.log10(p_one[at])
    med_all, med_one = _median_db(p_all), _median_db(p_one)
    # Every tone of both frames in one comparison; the loop only names the first low one.
    if not np.any((db_all < med_all + 10.0) | (db_one < med_one + 10.0)):
        return np.asarray(db_all - db_one)
    for idx in np.ndindex(tones.shape):
        for db, med, name in ((db_all, med_all, "all-input"), (db_one, med_one, "one-input")):
            peak_db, floor_db = db[(..., *idx)], med[(..., *idx)]
            low = np.flatnonzero(peak_db < floor_db + 10.0)
            if low.size:
                raise MeasurementError(
                    f"tone at {float(tones[idx]):.6g} Hz is below the {name} spectral floor "
                    f"({peak_db.flat[low[0]]:.1f} dB vs median {floor_db.flat[low[0]]:.1f} dB)"
                )


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


def recover_symbols(
    frame: np.ndarray, fs: float, stream: StreamTerm, genie_timing: float, responses=None
) -> np.ndarray:
    """Matched-filter symbol recovery with genie timing, no blind sync.

    ``genie_timing`` is the absolute time of symbol 0 and the phase
    reference of the stream's center-frequency downshift.  The frame must
    cover every symbol of the stream plus the matched filter's span on each
    side; symbol instants must land on its sample grid at rate ``fs``.

    The filter is one circular convolution at the frame's length n, read at
    the symbol indices k.  It equals the downshift and then a "same"-mode
    linear convolution with the taps h[m], |m| <= half, by two identities:

    - for half <= k <= n - 1 - half, which the coverage check enforces, no
      tap reaches past either end, so the circular sum is the linear one;
    - the downshift commutes with the filter once the taps are shifted up:
      sum_m h[m] x[k-m] e^{-j2 pi f_c (t_{k-m} - g)} =
      e^{-j2 pi f_c (t_k - g)} sum_m (h[m] e^{j2 pi f_c m / fs}) x[k-m].

    ``frame`` may be a ``(..., n)`` stack; each frame's spectrum is multiplied by its one of
    ``responses`` (n bins each, as ``ttd.equalize`` yields them), if given, and then by one
    spectrum of the taps.  Returns one recovered value per symbol, in order, on the last axis.
    """
    rate = stream.symbol_rate
    n = frame.shape[-1]
    half = int(np.ceil(stream.span_symbols * fs / rate))
    idx_float = (genie_timing + np.arange(stream.symbols.size) / rate) * fs
    idx = np.rint(idx_float).astype(np.int64)
    if float(np.max(np.abs(idx_float - idx))) > 1e-3:
        raise ValueError("symbol instants do not land on the sample grid")
    if idx.min() < half or idx.max() > n - 1 - half:
        raise ValueError("frame does not cover the symbol span plus matched-filter support")

    m = np.arange(-half, half + 1)
    taps = rrc_pulse(m / fs, rate, stream.rolloff, stream.span_symbols) / fs
    spec = np.zeros(n, complex)
    spec[m % n] = taps * np.exp(2j * np.pi * stream.center_freq * m / fs)
    spec = np.fft.fft(spec)  # the taps' spectrum replaces the taps
    frames = frame.reshape(-1, n)
    matched = []  # frame by frame: transforming the whole stack holds every frame's spectrum
    responses = [1.0] * len(frames) if responses is None else responses
    for x, response in zip(frames, responses, strict=True):
        x = np.fft.fft(x) * response  # before the taps: a product with 1 is exact
        x *= spec
        matched.append(np.fft.ifft(x)[idx])
        del x, response  # before the next frame's response is built
    matched = np.reshape(matched, (*frame.shape[:-1], idx.size))
    return matched * np.exp(-2j * np.pi * stream.center_freq * (idx / fs - genie_timing))
