"""Signals and spectra shared by the unit tests."""

from spica import ToneTerm, Waveform, welch_power


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


def ref_spectrum(frame, fs):
    """The reference ``welch_power`` the measurements take: the runners' Welch length, the
    whole frame up to 4096 samples."""
    return welch_power(frame, fs, min(4096, frame.shape[-1]))
