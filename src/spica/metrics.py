"""Measurement definitions: PSD, cancellation depth, conversion gain, EVM.

All spectral quantities are calibrated so a unit-amplitude complex tone
reads 0 dB, both at its peak bin and as band-integrated power.  Band
integration divides the bin sum by the window's equivalent noise bandwidth,
which makes tone power exact regardless of bin alignment and makes white
noise integrate to its variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from .ttd import SampleFrame
from .waveform import StreamTerm, rrc_pulse

__all__ = [
    "MeasurementError",
    "PsdEstimate",
    "welch_psd",
    "band_power",
    "cancellation_depth",
    "conversion_gain_measured",
    "evm_percent",
    "recover_symbols",
]

_DB_FLOOR = 1e-300


class MeasurementError(RuntimeError):
    """A measurement could not be made from the given frames."""


@dataclass(frozen=True)
class PsdEstimate:
    """Two-sided Welch estimate with strictly increasing frequencies.

    ``power_db`` is relative to full scale 1.0; ``enbw_bins`` is the
    window's equivalent noise bandwidth in bins, the divisor that converts
    a bin sum into band power.
    """

    freqs: np.ndarray
    power_db: np.ndarray
    nfft: int
    enbw_bins: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        power = np.asarray(self.power_db, dtype=float)
        if freqs.size != power.size:
            raise ValueError("freqs and power_db lengths differ")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        freqs.setflags(write=False)
        power.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power_db", power)


def welch_psd(frame: SampleFrame, nfft: int = 4096, overlap: float = 0.5) -> PsdEstimate:
    """Hann-windowed, overlap-averaged two-sided power spectrum.

    Raises ValueError if the frame is shorter than ``nfft``.
    """
    if len(frame) < nfft:
        raise ValueError(f"frame length {len(frame)} < nfft {nfft}")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    win = sp_signal.get_window("hann", nfft, fftbins=True)
    freqs, pxx = sp_signal.welch(
        frame.samples,
        fs=frame.sample_rate,
        window=win,
        nperseg=nfft,
        noverlap=int(round(nfft * overlap)),
        nfft=nfft,
        detrend=False,
        return_onesided=False,
        scaling="spectrum",
    )
    order = np.argsort(freqs)
    freqs = freqs[order]
    pxx = np.maximum(pxx[order].real, _DB_FLOOR)
    enbw = nfft * float(np.sum(win**2)) / float(np.sum(win)) ** 2
    return PsdEstimate(
        freqs=freqs,
        power_db=10.0 * np.log10(pxx),
        nfft=nfft,
        enbw_bins=enbw,
    )


def band_power(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """Linear power integrated over [f_lo, f_hi] (inclusive)."""
    if f_hi < f_lo:
        raise ValueError("band upper edge below lower edge")
    mask = (psd.freqs >= f_lo) & (psd.freqs <= f_hi)
    if not np.any(mask):
        raise ValueError(f"band [{f_lo}, {f_hi}] Hz contains no PSD bins")
    linear = 10.0 ** (psd.power_db[mask] / 10.0)
    return float(np.sum(linear)) / psd.enbw_bins


def cancellation_depth(
    ref: SampleFrame, canc: SampleFrame, band: tuple, nfft: int | None = None
) -> float:
    """Band-integrated power ratio ref / canc in dB.

    ``ref`` is the output with a single input applied (no cancellation),
    ``canc`` the output with all inputs applied.  Returns +inf when the
    cancelled band power is exactly zero.
    """
    if ref.sample_rate != canc.sample_rate:
        raise ValueError("frames have mismatched sample rates")
    if nfft is None:
        nfft = min(4096, len(ref), len(canc))
    f_lo, f_hi = band
    p_ref = band_power(welch_psd(ref, nfft=nfft), f_lo, f_hi)
    p_canc = band_power(welch_psd(canc, nfft=nfft), f_lo, f_hi)
    # The all-zero frame hits the PSD floor rather than true zero; treat
    # anything at the floor as perfect cancellation.
    if p_canc <= _DB_FLOOR * nfft:
        return math.inf
    return 10.0 * math.log10(p_ref / p_canc)


def conversion_gain_measured(
    all_in: SampleFrame, one_in: SampleFrame, f: float, nfft: int | None = None
) -> float:
    """Measured conversion gain at a tone frequency, in dB.

    Ratio of output tone power with all inputs applied to the power with
    one input applied, read at the tone's bin.  Raises MeasurementError if
    the tone does not stand above the spectral floor in either frame.
    """
    if all_in.sample_rate != one_in.sample_rate:
        raise ValueError("frames have mismatched sample rates")
    if nfft is None:
        nfft = min(4096, len(all_in), len(one_in))
    p_all = welch_psd(all_in, nfft=nfft)
    p_one = welch_psd(one_in, nfft=nfft)
    bin_idx = int(np.argmin(np.abs(p_all.freqs - f)))
    for est, name in ((p_all, "all-input"), (p_one, "one-input")):
        peak_db = est.power_db[bin_idx]
        floor_db = float(np.median(est.power_db))
        if peak_db < floor_db + 10.0:
            raise MeasurementError(
                f"tone at {f:.6g} Hz is below the {name} spectral floor "
                f"({peak_db:.1f} dB vs median {floor_db:.1f} dB)"
            )
    return p_all.power_db[bin_idx] - p_one.power_db[bin_idx]


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
    frame: SampleFrame, stream: StreamTerm, genie_timing: float
) -> np.ndarray:
    """Matched-filter symbol recovery with genie timing, no blind sync.

    ``genie_timing`` is the absolute time of symbol 0 and the phase
    reference of the stream's center-frequency downshift.  The frame must
    cover every symbol of the stream plus the matched filter's span on each
    side; symbol instants must land on the sample grid.

    Returns one recovered value per transmitted symbol, in order.
    """
    fs = frame.sample_rate
    rate = stream.symbol_rate
    t = frame.times()
    base = frame.samples
    if stream.center_freq != 0.0:
        base = base * np.exp(-2j * np.pi * stream.center_freq * (t - genie_timing))

    half = int(np.ceil(stream.span_symbols * fs / rate))
    taps = rrc_pulse(
        np.arange(-half, half + 1) / fs, rate, stream.rolloff, stream.span_symbols
    ) / fs
    matched = sp_signal.fftconvolve(base, taps, mode="same")

    n_sym = stream.symbols.size
    sym_times = genie_timing + np.arange(n_sym) / rate
    idx_float = (sym_times - frame.start_time) * fs
    idx = np.rint(idx_float).astype(np.int64)
    if float(np.max(np.abs(idx_float - idx))) > 1e-3:
        raise ValueError("symbol instants do not land on the sample grid")
    if idx.min() < half or idx.max() > len(frame) - 1 - half:
        raise ValueError(
            "frame does not cover the symbol span plus matched-filter support"
        )
    return matched[idx]
