"""Signals and spectra shared by the unit tests."""

import numpy as np

from spica import SceneMode, ToneTerm, Waveform, welch_power


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


def ref_spectrum(frame, fs):
    """The reference ``welch_power`` the measurements take: the runners' Welch length, the
    whole frame up to 4096 samples."""
    return welch_power(frame, fs, min(4096, frame.shape[-1]))


def frames_by_loop(scene, delays, fs, n, lo=None):
    """Every element's noise-free frame of ``scene``, one element and one source at a time.

    Element i (0-based), clocked ``delays[i]`` late, samples a source at inter-element delay
    delta at the instants (arange(n) / fs + delays[i]) - i * delta, rotated in RF_DERIVED by
    exp(-j*2*pi*f_c*i*delta).  The sum is scaled by the element's mismatch times ``lo[i]`` (1
    when ``lo`` is None), the mismatches and ``lo`` multiplied as one array.  Every factor is
    applied, written rotation times value and gain times sum: numpy's complex products may
    round differently with their operands swapped.
    """
    rf = scene.mode is SceneMode.RF_DERIVED
    gains = np.asarray(scene.element_mismatch) * (np.ones(len(delays)) if lo is None else lo)
    frames = []
    for i, d in enumerate(delays):
        t = np.arange(n) / fs + float(d)
        acc = np.zeros(n, dtype=complex)
        for src in (scene.desired, *scene.undesired):
            rot = np.exp(-2j * np.pi * scene.carrier_freq * i * src.delay) if rf else 1.0
            acc = acc + rot * src.waveform.eval(t - i * src.delay, fs)
        frames.append(gains[i] * acc)
    return np.array(frames)
