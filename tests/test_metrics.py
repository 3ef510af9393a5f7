"""Spectral measurement, EVM and symbol-recovery tests.

The PSD calibration checks lean on two exact properties of the
Hann/spectrum scaling pair: a bin-centered unit tone reads 0 dB at its
bin, and dividing a band sum by the window's equivalent noise bandwidth
makes the integral of any constant-envelope exponential come out at its
true power no matter where it falls between bins.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal

from spica import (
    MeasurementError,
    StreamTerm,
    ToneTerm,
    Waveform,
    band_power,
    cancellation_depth,
    conversion_gain_measured,
    desired_conversion_gain,
    equalize,
    evm_percent,
    mac_apply,
    map_qpsk,
    recover_symbols,
    rrc_pulse,
    sample_element,
    truncated_hadamard,
    welch_power,
)
from helpers import ref_spectrum, tone
from spica.metrics import _DB_FLOOR, _median_db
from spica.ttd import _noisy_frame

FS = 200e6


def spectrum(frame, nfft=4096):
    """``welch_power`` of one frame sampled at FS: ``(freqs, pxx, enbw)``."""
    return welch_power(frame, FS, nfft)


def band(spec, f_lo, f_hi):
    """Band power of one spectrum from ``spectrum``, as a float."""
    freqs, pxx, enbw = spec
    return float(band_power(freqs, enbw, f_lo, f_hi, pxx)[0])


class TestWelchPsd:
    def test_bin_centered_unit_tone_reads_zero_db(self):
        nfft = 4096
        f = 128 * FS / nfft
        frame = sample_element(tone(f), 0.0, FS, 8192)
        freqs, pxx, _ = spectrum(frame, nfft=nfft)
        peak = float(np.max(10 * np.log10(pxx)))
        assert peak == pytest.approx(0.0, abs=1e-9)
        assert freqs[int(np.argmax(pxx))] == pytest.approx(f)

    def test_band_power_of_aligned_tone(self):
        nfft = 4096
        f = 512 * FS / nfft
        frame = sample_element(tone(f, amp=0.5), 0.0, FS, 8192)
        spec = spectrum(frame, nfft=nfft)
        bw = 3 * FS / nfft
        assert band(spec, f - bw, f + bw) == pytest.approx(0.25, rel=1e-9)

    def test_band_power_of_offset_tone_over_full_band(self):
        # worst-case half-bin misalignment: scalloping moves power between
        # bins but the ENBW-normalized full-band integral stays exact
        nfft = 1024
        f = (100.5) * FS / nfft
        frame = sample_element(tone(f), 0.0, FS, 8192)
        spec = spectrum(frame, nfft=nfft)
        total = band(spec, spec[0][0], spec[0][-1])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_noise_integrates_to_variance(self):
        rms = 0.3
        frame = _noisy_frame(sample_element(tone(0.0, amp=0.0), 0.0, FS, 16384), rms, 17)
        spec = spectrum(frame)
        total = band(spec, spec[0][0], spec[0][-1])
        assert total == pytest.approx(rms**2, rel=0.05)

    def test_two_tone_band_separation(self):
        nfft = 4096
        f1, f2 = 64 * FS / nfft, -700 * FS / nfft
        w = Waveform(terms=(ToneTerm(1.0, f1), ToneTerm(0.1, f2)))
        spec = spectrum(sample_element(w, 0.0, FS, 8192), nfft=nfft)
        bw = 3 * FS / nfft
        assert band(spec, f1 - bw, f1 + bw) == pytest.approx(1.0, rel=1e-6)
        assert band(spec, f2 - bw, f2 + bw) == pytest.approx(0.01, rel=1e-6)

    def test_short_frame_rejected(self):
        frame = sample_element(tone(1e6), 0.0, FS, 1024)
        with pytest.raises(ValueError, match="< nfft"):
            spectrum(frame, nfft=4096)

    def test_band_edges_validated(self):
        spec = spectrum(sample_element(tone(1e6), 0.0, FS, 4096))
        with pytest.raises(ValueError, match="below lower"):
            band(spec, 1e6, 0.0)
        with pytest.raises(ValueError, match="no PSD bins"):
            band(spec, FS, FS + 1e6)


class TestBandPower:
    @given(
        log_nfft=st.integers(2, 7),
        lead=st.sampled_from([(), (3,), (2, 3)]),
        per_frame=st.booleans(),
        two=st.booleans(),
        enbw=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_loop(self, log_nfft, lead, per_frame, two, enbw, seed):
        # the oracle sums each frame's in-band bins one at a time; every
        # band holds at least one bin, and quarter-bin offsets put some
        # edges exactly on a bin, where the band is inclusive
        rng = np.random.default_rng(seed)
        nfft = 2**log_nfft
        freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / FS))
        df = FS / nfft
        edge_shape = lead if per_frame else ()
        i, j = np.sort(rng.integers(0, nfft, (2, *edge_shape)), axis=0)
        f_lo = freqs[i] - rng.integers(0, 4, edge_shape) * df / 4
        f_hi = freqs[j] + rng.integers(0, 4, edge_shape) * df / 4
        spectra = [10.0 ** rng.uniform(-6.0, 0.0, (*lead, nfft)) for _ in range(1 + two)]
        got = band_power(freqs, enbw, f_lo, f_hi, *spectra)
        assert len(got) == len(spectra)
        for pxx, power in zip(spectra, got):
            assert power.shape == lead
            for idx in np.ndindex(lead):
                lo, hi = np.broadcast_to(f_lo, lead)[idx], np.broadcast_to(f_hi, lead)[idx]
                total = 0.0
                for b in range(nfft):
                    if lo <= freqs[b] <= hi:
                        total += float(pxx[idx][b])
                assert power[idx] == pytest.approx(total / enbw, rel=1e-12, abs=0.0)
            (alone,) = band_power(freqs, enbw, f_lo, f_hi, pxx)
            np.testing.assert_array_equal(alone, power)


class TestWelchPower:
    @given(
        log_nfft=st.integers(4, 12),
        extra=st.floats(0.0, 3.0),
        lead=st.sampled_from([(), (3,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_welch(self, log_nfft, extra, lead, seed):
        # scipy's Welch with the same periodic Hann window, 50% overlap,
        # spectrum scaling and no detrending is the oracle; frequencies come
        # back ascending
        nfft = 2**log_nfft
        n = nfft + int(extra * nfft)
        z = np.random.default_rng(seed).standard_normal((*lead, n, 2))
        x = z[..., 0] + 1j * z[..., 1]
        freqs, pxx, enbw = welch_power(x, FS, nfft)
        win = signal.get_window("hann", nfft, fftbins=True)
        f_ref, p_ref = signal.welch(
            x,
            fs=FS,
            window=win,
            nperseg=nfft,
            noverlap=int(round(nfft * 0.5)),
            nfft=nfft,
            detrend=False,
            return_onesided=False,
            scaling="spectrum",
        )
        order = np.argsort(f_ref)
        np.testing.assert_allclose(freqs, f_ref[order], rtol=1e-15, atol=0.0)
        assert pxx.shape == (*lead, nfft)
        p_ref = p_ref[..., order]
        assert np.max(np.abs(pxx - p_ref)) <= 1e-12 * np.max(p_ref)
        assert enbw == pytest.approx(nfft * np.sum(win**2) / np.sum(win) ** 2, rel=1e-12)

    @pytest.mark.parametrize("nfft", [2, 3, 4, 5, 6, 7, 64, 65])
    def test_centering_matches_fftshift_bit_for_bit(self, nfft):
        # oracle: the same segment sum centered by np.fft.fftshift, even and odd lengths
        x = np.random.default_rng(nfft).standard_normal((2, 3, 2 * nfft + 1, 2)) @ [1, 1j]
        win = np.hanning(nfft + 1)[:-1]
        starts = range(0, x.shape[-1] - nfft + 1, nfft - int(round(nfft * 0.5)))
        acc = np.abs(np.fft.fft(x[..., : nfft] * win)) ** 2
        for s in starts[1:]:
            acc += np.abs(np.fft.fft(x[..., s : s + nfft] * win)) ** 2
        want = np.fft.fftshift(acc, axes=-1) / (len(starts) * float(np.sum(win)) ** 2)
        np.testing.assert_array_equal(welch_power(x, FS, nfft)[1], np.maximum(want, 1e-300))

    def test_one_point_welch_rejected(self):
        # A periodic Hann window of length 1 is [0.]: its spectrum would divide by zero.
        # The measurements take the other frame at a one-bin reference's length.
        one, one_bin = np.ones(1, complex), (np.zeros(1), np.ones(1), 1.0)
        for measure in (
            lambda: welch_power(one, FS, 1),
            lambda: cancellation_depth(one_bin, one, FS, (-1e6, 1e6)),
            lambda: conversion_gain_measured(one, one_bin, FS, 0.0),
        ):
            with pytest.raises(ValueError, match="Welch length 1 < 2"):
                measure()

    def test_periodic_hann_enbw_and_read_only_bins(self):
        _, _, enbw = welch_power(np.ones(64, complex), FS, 64)
        assert enbw == pytest.approx(1.5, rel=1e-12)  # periodic Hann
        frame = sample_element(tone(1e6), 0.0, FS, 64)
        a, _, _ = spectrum(frame, nfft=64)
        b, _, _ = spectrum(frame, nfft=64)
        assert a is b
        assert not a.flags.writeable


class TestCancellationDepth:
    BAND = (9e6, 11e6)

    def frame(self, amp=1.0):
        return sample_element(tone(10e6, amp=amp), 0.0, FS, 8192)

    def test_identical_frames_give_zero_db(self):
        fr = self.frame()
        depth = cancellation_depth(ref_spectrum(fr, FS), fr, FS, self.BAND)
        assert depth == pytest.approx(0.0, abs=1e-12)

    def test_hundredfold_amplitude_reduction_is_40_db(self):
        ref = ref_spectrum(self.frame(1.0), FS)
        depth = cancellation_depth(ref, self.frame(0.01), FS, self.BAND)
        assert depth == pytest.approx(40.0, abs=1e-9)

    def test_all_zero_cancelled_frame_is_perfect(self):
        zero = np.zeros(8192, complex)
        assert cancellation_depth(ref_spectrum(self.frame(), FS), zero, FS, self.BAND) == np.inf

    def test_common_scaling_cancels_out(self):
        a, b = self.frame(1.0), self.frame(0.03)
        d1 = cancellation_depth(ref_spectrum(a, FS), b, FS, self.BAND)
        d2 = cancellation_depth(ref_spectrum(7.0 * a, FS), 7.0 * b, FS, self.BAND)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_stacked_frames_match_single_calls(self):
        ref = ref_spectrum(self.frame(), FS)
        rows = [self.frame(0.01), self.frame(0.3), np.zeros(8192, complex)]
        canc = np.stack(rows)
        stacked = cancellation_depth(ref, canc, FS, self.BAND)
        singles = [cancellation_depth(ref, r, FS, self.BAND) for r in rows]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (3,)
        assert stacked[2] == singles[2] == np.inf
        np.testing.assert_allclose(stacked[:2], singles[:2], rtol=0.0, atol=1e-12)

    def test_zero_stack_is_checked_as_a_nonzero_one(self):
        # an all-zero stack skips the Welch transform, not one of the full path's checks
        ref = ref_spectrum(self.frame(), FS)
        pair = ref_spectrum(np.stack([self.frame(), self.frame()]), FS)
        one_bin = (np.zeros(1), np.ones(1), 1.0)
        between = (205 + np.array([0.2, 0.4])) * FS / 4096  # inside self.BAND, between bins
        cases = [
            (pair, (3, 8192), self.BAND, "do not pair"),
            (ref, (3, 1024), self.BAND, "frame length 1024 < nfft 4096"),
            (ref, (3, 8192), tuple(between), "contains no PSD bins"),
            (ref, (3, 8192), self.BAND[::-1], "upper edge below lower edge"),
            (one_bin, (3, 8), self.BAND, "Welch length 1 < 2"),
        ]
        for spec, shape, band, match in cases:
            messages = []
            for canc in (np.zeros(shape, complex), np.full(shape, 1e-3 + 0j)):
                with pytest.raises(ValueError, match=match) as err:
                    cancellation_depth(spec, canc, FS, band)
                messages.append(str(err.value))
            assert messages[0] == messages[1], match

    @pytest.mark.parametrize("lead", [(), (3,), (3, 2)])
    def test_zero_stack_reads_inf_in_the_full_paths_shape(self, lead):
        ref = ref_spectrum(np.ones((*lead[1:], 8192)) * self.frame(), FS)
        depth = cancellation_depth(ref, np.zeros((*lead, 8192), complex), FS, self.BAND)
        assert isinstance(depth, np.ndarray) and depth.shape == lead and depth.dtype == float
        assert np.all(depth == np.inf)

@given(
    n=st.sampled_from([1, 2]) | st.integers(1, 70) | st.sampled_from([2047, 2048]),
    lead=st.sampled_from([(), (4,), (3, 4)]),
    floor_run=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    levels=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_spectral_floor_is_median_of_db_bit_for_bit(n, lead, floor_run, levels, seed):
    # oracle: np.median of the dB spectrum, as the floor was taken before; a run of bins
    # clamped at _DB_FLOOR and few distinct levels give ties at and above the floor
    rng = np.random.default_rng(seed)
    p = 10.0 ** (rng.integers(0, levels, (*lead, n)) * (-12.0 / levels))
    lo, hi = sorted(int(v * n) for v in floor_run)
    p[..., lo:hi] = _DB_FLOOR
    got, want = _median_db(p), np.median(10.0 * np.log10(p), axis=-1)
    assert np.shape(got) == np.shape(want) == lead
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestConversionGainMeasured:
    def test_identity_is_zero_db(self):
        fr = sample_element(tone(50e6), 0.0, FS, 8192)
        got = conversion_gain_measured(fr, ref_spectrum(fr, FS), FS, 50e6)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_doubling_is_six_db(self):
        one = sample_element(tone(25e6), 0.0, FS, 8192)
        two = sample_element(tone(25e6, amp=2.0), 0.0, FS, 8192)
        got = conversion_gain_measured(two, ref_spectrum(one, FS), FS, 25e6)
        assert got == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)

    def test_fully_coherent_row_reads_12_db(self):
        # delta = 1/(2f) turns the alternating row coherent; all four
        # elements add in voltage so the tone gains 20*log10(4) dB over
        # the single-element reference
        f = 50e6
        delta = 1.0 / (2.0 * f)
        m = truncated_hadamard(4)
        frames = [
            np.exp(2j * np.pi * f * i * delta) * sample_element(tone(f), 0.0, FS, 8192)
            for i in range(4)
        ]
        zero = 0.0 * frames[0]
        all_in = mac_apply(frames, m)[0]
        one_in = mac_apply([frames[0], zero, zero, zero], m)[0]
        got = conversion_gain_measured(all_in, ref_spectrum(one_in, FS), FS, f)
        assert got == pytest.approx(20.0 * np.log10(4.0), abs=1e-9)

    def test_matches_closed_form_row_gain(self):
        f, delta, row = 50e6, 1e-9, 1
        m = truncated_hadamard(4)
        frames = [
            np.exp(2j * np.pi * f * i * delta) * sample_element(tone(f), 0.0, FS, 8192)
            for i in range(4)
        ]
        zero = 0.0 * frames[0]
        all_in = mac_apply(frames, m)[row]
        one_in = mac_apply([frames[0], zero, zero, zero], m)[row]
        got = conversion_gain_measured(all_in, ref_spectrum(one_in, FS), FS, f)
        expected = 20.0 * np.log10(abs(desired_conversion_gain(f, delta, row)))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_stacked_rows_match_single_calls(self):
        f, delta = 50e6, 1e-9
        m = truncated_hadamard(4)
        frames = [
            np.exp(2j * np.pi * f * i * delta) * sample_element(tone(f), 0.0, FS, 8192)
            for i in range(4)
        ]
        rows, ref = mac_apply(frames, m), ref_spectrum(frames[0], FS)
        stacked = conversion_gain_measured(rows, ref, FS, f)
        singles = [conversion_gain_measured(row, ref, FS, f) for row in rows]
        np.testing.assert_allclose(stacked, singles, rtol=0.0, atol=1e-12)

    def test_missing_tone_raises(self):
        present = sample_element(tone(50e6), 0.0, FS, 8192)
        absent = _noisy_frame(sample_element(tone(0.0, amp=0.0), 0.0, FS, 8192), 0.01, 3)
        with pytest.raises(MeasurementError, match="below the one-input"):
            conversion_gain_measured(present, ref_spectrum(absent, FS), FS, 50e6)

class TestToneChunkMeasurement:
    """Measuring a chunk of tones at once equals one call per tone."""

    FREQS = np.array([10e6, 35e6, 61.3e6, 88e6, -20e6])
    HALF = 0.5e6

    def elements(self, arrival, clock, noise_rms=0.0):
        """Frames of the chunk at four elements: i * arrival late, sampled i * clock late."""
        terms = (ToneTerm(1.0, self.FREQS[:, None]),)
        return [
            _noisy_frame(
                sample_element(Waveform(terms, delay=i * arrival), i * clock, FS, 2048),
                noise_rms,
                [np.random.SeedSequence([3, k, i]) for k in range(self.FREQS.size)],
            )
            for i in range(4)
        ]

    def interferer(self):
        """Reference frames and row outputs; a 3 ps clock skew leaves a finite depth."""
        frames = self.elements(1e-9, 1e-9 + 3e-12)
        return frames[0], mac_apply(frames, truncated_hadamard(4))

    @staticmethod
    def tone_rows(rows, k):
        """Every row's frame of tone ``k``, the stack a one-tone MAC gives."""
        return rows[:, k]

    def test_depth_per_tone_band_matches_per_tone_calls(self):
        ref, rows = self.interferer()
        band = (self.FREQS - self.HALF, self.FREQS + self.HALF)
        spec = ref_spectrum(ref, FS)
        got = cancellation_depth(spec, rows, FS, band)
        pairs = cancellation_depth(spec, rows[0], FS, band)
        assert got.shape == (3, self.FREQS.size) and pairs.shape == (self.FREQS.size,)
        for k, f in enumerate(self.FREQS.tolist()):
            tone_band, tone_ref = (f - self.HALF, f + self.HALF), ref_spectrum(ref[k], FS)
            single = cancellation_depth(tone_ref, self.tone_rows(rows, k), FS, tone_band)
            np.testing.assert_array_equal(got[:, k], single)
            assert pairs[k] == cancellation_depth(tone_ref, rows[0][k], FS, tone_band) == got[0, k]
            assert all(30.0 < d < 200.0 for d in got[:, k])

    def test_depth_shares_a_scalar_band(self):
        ref, rows = self.interferer()
        got = cancellation_depth(ref_spectrum(ref, FS), rows, FS, (-100e6, 100e6))
        for k in range(self.FREQS.size):
            single = cancellation_depth(
                ref_spectrum(ref[k], FS), self.tone_rows(rows, k), FS, (-100e6, 100e6)
            )
            np.testing.assert_array_equal(got[:, k], single)

    def test_depth_needs_paired_frames(self):
        ref, rows = self.interferer()
        with pytest.raises(ValueError, match="do not pair"):
            cancellation_depth(ref_spectrum(ref[:2], FS), rows, FS, (0.0, 1e6))

    def test_unpaired_message_names_frames_and_reference_spectrum(self):
        # at frame_len 8192 the reference spectrum has 4096 bins, so the message must show
        # the frames' shape and the spectrum's, not the spectrum's as a frame's
        chunk = Waveform(terms=(ToneTerm(1.0, self.FREQS[:2, None]),))
        spec = ref_spectrum(sample_element(chunk, 0.0, FS, 8192), FS)
        canc = np.zeros((3, 4, 8192), complex)
        msg = r"frames \(3, 4, 8192\) and reference spectrum \(2, 4096\) do not pair"
        with pytest.raises(ValueError, match=msg):
            cancellation_depth(spec, canc, FS, (0.0, 1e6))
        with pytest.raises(ValueError, match=msg):
            conversion_gain_measured(canc, spec, FS, 0.0)

    @pytest.mark.parametrize("noise_rms", [0.0, 1e-4])
    def test_gain_per_tone_frequency_matches_per_tone_calls(self, noise_rms):
        # a broadside desired source under clocks delayed by i * 1 ns
        frames = self.elements(0.0, 1e-9, noise_rms)
        rows = mac_apply(frames, truncated_hadamard(4))
        got = conversion_gain_measured(rows, ref_spectrum(frames[0], FS), FS, self.FREQS)
        assert got.shape == (3, self.FREQS.size)
        for k, f in enumerate(self.FREQS.tolist()):
            tone_ref = ref_spectrum(frames[0][k], FS)
            single = conversion_gain_measured(self.tone_rows(rows, k), tone_ref, FS, f)
            np.testing.assert_array_equal(got[:, k], single)

    @given(
        n_rows=st.integers(1, 7),
        k=st.integers(1, 5),
        log_n=st.integers(6, 9),
        per_tone=st.booleans(),
        noisy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_first_stack_pairs_by_broadcasting(self, n_rows, k, log_n, per_tone, noisy, seed):
        # oracle: the single-frame call on ref[j] and canc[r, j], with tone j's band
        # and frequency; each row holds the tones at its own gains over shared clutter
        n = 2**log_n
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(-0.45, 0.45, k) * FS
        t = np.arange(n) / FS
        tones = np.exp(2j * np.pi * freqs[:, None] * t)
        phases = np.exp(2j * np.pi * rng.random((n_rows, k, 1)))
        gains = rng.uniform(0.1, 2.0, (n_rows, k, 1)) * phases
        clutter = 0.01 * np.exp(2j * np.pi * 0.3 * FS * t)
        ref, canc = tones, gains * tones + clutter
        if noisy:
            ref = ref + 1e-3 * rng.standard_normal((k, n))
            canc = canc + 1e-3 * rng.standard_normal((n_rows, k, n))
        half = 2.0 * FS / n
        band = (freqs - half, freqs + half) if per_tone else (-0.25 * FS, 0.25 * FS)
        spec = ref_spectrum(ref, FS)
        depth = cancellation_depth(spec, canc, FS, band)
        gain = conversion_gain_measured(canc, spec, FS, freqs)
        assert depth.shape == gain.shape == (n_rows, k)
        for r, j in np.ndindex(n_rows, k):
            tone_band = (band[0][j], band[1][j]) if per_tone else band
            tone_ref = ref_spectrum(ref[j], FS)
            assert depth[r, j] == cancellation_depth(tone_ref, canc[r][j], FS, tone_band)
            assert gain[r, j] == conversion_gain_measured(canc[r][j], tone_ref, FS, freqs[j])
        unpaired = ref_spectrum(np.vstack([ref, ref[:1]]), FS)
        with pytest.raises(ValueError, match="do not pair"):
            cancellation_depth(unpaired, canc, FS, band)
        with pytest.raises(ValueError, match="do not pair"):
            conversion_gain_measured(canc, unpaired, FS, 0.0)

    def test_first_empty_band_of_a_stack_is_named(self):
        ref, rows = self.interferer()
        bin_hz = FS / 2048
        lo = np.array([10e6, 35e6 + 0.2 * bin_hz, 61e6, 88e6])
        # the second band lies between two bins; the fourth is reversed
        hi = lo + np.array([1e6, 0.2 * bin_hz, 1e6, -1e6])
        ref, rows = ref[:4], rows[:, :4]
        with pytest.raises(ValueError, match=rf"band \[{lo[1]}, {hi[1]}\] Hz contains no PSD"):
            cancellation_depth(ref_spectrum(ref, FS), rows, FS, (lo, hi))

    def test_below_floor_tone_inside_a_chunk_is_named(self):
        freqs = np.array([20e6, 40e6, 60e6, 80e6])
        chunk = Waveform(terms=(ToneTerm(1.0, freqs[:, None]),))
        seeds = [np.random.SeedSequence([9, k]) for k in range(freqs.size)]
        one = _noisy_frame(sample_element(chunk, 0.0, FS, 2048), 1e-3, seeds)
        # the third of four tones is absent from the all-input frames
        all_in = one * np.array([1.0, 1.0, 0.0, 1.0])[:, None]
        named = r"tone at 6e\+07 Hz is below the all-input"
        with pytest.raises(MeasurementError, match=named):
            conversion_gain_measured(all_in, ref_spectrum(one, FS), FS, freqs)
        with pytest.raises(MeasurementError, match=named):
            conversion_gain_measured(all_in[2], ref_spectrum(one[2], FS), FS, 60e6)

    @pytest.mark.parametrize(
        "all_gone,one_gone,named",
        [
            # tones 1 and 3 below the floor in the rows: the first is named
            ([1, 3], [], r"tone at 4e\+07 Hz is below the all-input"),
            # tone 1 below in both frames: all-input is checked first
            ([1, 3], [1], r"tone at 4e\+07 Hz is below the all-input"),
            # tone 1 below only in the reference, tone 3 only in the rows
            ([3], [1], r"tone at 4e\+07 Hz is below the one-input"),
        ],
    )
    def test_first_tone_below_floor_is_named_in_index_order(self, all_gone, one_gone, named):
        freqs = np.array([20e6, 40e6, 60e6, 80e6])
        chunk = Waveform(terms=(ToneTerm(1.0, freqs[:, None]),))
        silent = Waveform(terms=(ToneTerm(0.0, freqs[:, None]),))
        seeds = [np.random.SeedSequence([9, k]) for k in range(freqs.size)]
        tones = _noisy_frame(sample_element(chunk, 0.0, FS, 2048), 1e-3, seeds)
        noise = _noisy_frame(sample_element(silent, 0.0, FS, 2048), 1e-3, seeds)

        def without(gone):
            return np.where(np.isin(np.arange(freqs.size), gone)[:, None], noise, tones)

        one = without(one_gone)
        kept = without(all_gone)
        all_in = np.stack([kept, 2.0 * kept])
        with pytest.raises(MeasurementError, match=named) as stacked:
            conversion_gain_measured(all_in, ref_spectrum(one, FS), FS, freqs)
        # the message, dB figures included, is the one tone's own
        with pytest.raises(MeasurementError) as single:
            conversion_gain_measured(self.tone_rows(all_in, 1), ref_spectrum(one[1], FS), FS, 40e6)
        assert str(stacked.value) == str(single.value)


class TestEvmPercent:
    def test_perfect_symbols(self):
        syms = map_qpsk([0, 0, 0, 1, 1, 1, 1, 0])
        assert evm_percent(syms, syms) == 0.0

    def test_global_rotation_and_scale_do_not_count(self):
        syms = map_qpsk(np.random.default_rng(2).integers(0, 2, 64))
        rx = 0.3 * np.exp(1j * 1.1) * syms
        assert evm_percent(rx, syms) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_error_reads_its_rms(self):
        # error pattern orthogonal to the reference: the fitted gain stays
        # near one and the EVM lands on the error rms (10%), slightly shy
        # because the fit absorbs a sliver of it
        ref = np.ones(8, complex)
        err = 0.1 * np.array([1, -1, 1, -1, 1, -1, 1, -1], complex)
        assert evm_percent(ref + err, ref) == pytest.approx(10.0, abs=0.1)

    def test_zero_rx_is_total_error(self):
        ref = map_qpsk([0, 0, 1, 1])
        assert evm_percent(np.zeros(2, complex), ref) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evm_percent(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="zero power"):
            evm_percent(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="at least one"):
            evm_percent(np.array([]), np.array([]))


def recover_symbols_linear(frame, fs, stream, genie_timing):
    """The frame-wide downshift and zero-padded "same"-mode linear convolution that
    ``recover_symbols`` replaced by one circular convolution at the frame's length."""
    rate = stream.symbol_rate
    base = frame
    if stream.center_freq != 0.0:
        t = np.arange(len(frame)) / fs
        base = base * np.exp(-2j * np.pi * stream.center_freq * (t - genie_timing))
    half = int(np.ceil(stream.span_symbols * fs / rate))
    taps = rrc_pulse(
        np.arange(-half, half + 1) / fs, rate, stream.rolloff, stream.span_symbols
    ) / fs
    n_full = base.size + taps.size - 1
    n_fft = 1 << (n_full - 1).bit_length()
    full = np.fft.ifft(np.fft.fft(base, n_fft) * np.fft.fft(taps, n_fft))
    matched = full[(taps.size - 1) // 2 :][: base.size]
    idx = np.rint((genie_timing + np.arange(stream.symbols.size) / rate) * fs).astype(np.int64)
    return matched[idx]


@st.composite
def receive_cases(draw):
    """A random frame and a stream whose symbols it covers, down to the tightest coverage:
    first symbol at index half, last at n - 1 - half, n never a power of two."""
    sps = draw(st.integers(2, 8))
    span = draw(st.integers(1, 32))
    n_sym = draw(st.integers(1, 6))
    lead, tail = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    half = span * sps
    n = lead + 2 * half + (n_sym - 1) * sps + 1 + tail
    assume(n & (n - 1))
    rate = 1e6
    fs = sps * rate
    center = draw(st.sampled_from([0.0, 0.45]) | st.floats(-0.45, 0.45)) * fs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    syms = map_qpsk(rng.integers(0, 2, 2 * n_sym))
    stream = StreamTerm(syms, rate, draw(st.floats(0.0, 1.0)), span, center_freq=center)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return samples, fs, stream, (half + lead) / fs


class TestRecoverSymbols:
    RATE = 1e6
    FS = 4e6

    def clean_setup(self, span=128, n_sym=64, center=0.0, fs=None):
        fs = fs or self.FS
        syms = map_qpsk(np.random.default_rng(9).integers(0, 2, 2 * n_sym))
        stream = StreamTerm(syms, self.RATE, 0.25, span, center_freq=center)
        genie = span / self.RATE
        wf = Waveform(terms=(stream,), delay=genie)
        n = int((n_sym + 2 * span + 4) * fs / self.RATE)
        frame = sample_element(wf, 0.0, fs, n)
        return frame, stream, genie

    def test_clean_recovery_error_below_1e6(self):
        # long pulse span pushes the truncation-tail ISI below 1e-6
        frame, stream, genie = self.clean_setup(span=128)
        rec = recover_symbols(frame, self.FS, stream, genie)
        assert rec.shape == stream.symbols.shape
        assert np.max(np.abs(rec - stream.symbols)) <= 1e-6

    def test_default_span_floor_is_documented_isi(self):
        # the span-16 default truncates the pulse harder; recovery still
        # works but the ISI floor sits near 1e-3
        frame, stream, genie = self.clean_setup(span=16)
        rec = recover_symbols(frame, self.FS, stream, genie)
        err = np.max(np.abs(rec - stream.symbols))
        assert err <= 5e-3
        assert err > 1e-5

    def test_shift_by_whole_periods_is_consistent(self):
        frame, stream, genie = self.clean_setup(span=32)
        shift = 8.0 / self.RATE
        wf = Waveform(terms=(stream,), delay=genie + shift)
        n = len(frame) + int(shift * self.FS)
        frame2 = sample_element(wf, 0.0, self.FS, n)
        a = recover_symbols(frame, self.FS, stream, genie)
        b = recover_symbols(frame2, self.FS, stream, genie + shift)
        np.testing.assert_allclose(b, a, atol=1e-9)

    def test_center_frequency_is_downshifted(self):
        # residual sits around 1e-5 (tail ISI shifted up to the center
        # frequency); a missing downshift would leave errors near 1.0
        frame, stream, genie = self.clean_setup(span=64, center=2e6, fs=16e6)
        rec = recover_symbols(frame, 16e6, stream, genie)
        assert np.max(np.abs(rec - stream.symbols)) <= 5e-5

    def test_off_grid_timing_rejected(self):
        frame, stream, genie = self.clean_setup(span=16)
        with pytest.raises(ValueError, match="sample grid"):
            recover_symbols(frame, self.FS, stream, genie + 0.3 / self.FS)

    @given(case=receive_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_linear_convolution_oracle(self, case):
        rms = np.sqrt(np.mean(np.abs(case[0]) ** 2))
        got = recover_symbols(*case)
        expected = recover_symbols_linear(*case)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * rms)

    @given(case=receive_cases(), lead=st.sampled_from([(1,), (3,), (2, 3)]))
    @settings(max_examples=20, deadline=None)
    def test_stacked_frames_match_per_frame_calls_bit_for_bit(self, case, lead):
        frame, fs, stream, genie = case
        frames = [np.roll(frame, i) * (1.0 + 0.5j * i) for i in range(int(np.prod(lead)))]
        stack = np.reshape(frames, (*lead, -1))
        got = recover_symbols(stack, fs, stream, genie)
        # Contiguous rows: a BLAS dot over a strided row sums in another order.
        assert got.shape == (*lead, stream.symbols.size) and got.flags.c_contiguous
        for i in np.ndindex(*lead):
            assert got[i].tobytes() == recover_symbols(stack[i], fs, stream, genie).tobytes()

    @given(case=receive_cases())
    @settings(max_examples=20, deadline=None)
    def test_all_ones_responses_change_no_bit(self, case):
        frame, fs, stream, genie = case
        stack = np.stack([frame, np.roll(frame, 3) * (0.5 - 1j)])
        ones = [np.ones(frame.size, complex)] * 2
        got = recover_symbols(stack, fs, stream, genie, ones)
        assert got.tobytes() == recover_symbols(stack, fs, stream, genie).tobytes()

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_response_per_frame(self, count):
        frame, stream, genie = self.clean_setup(span=16)
        stack = np.stack([frame, frame])
        with pytest.raises(ValueError):
            recover_symbols(stack, self.FS, stream, genie, [np.ones(frame.size)] * count)

    def test_uncovered_span_rejected(self):
        frame, stream, genie = self.clean_setup(span=16)
        with pytest.raises(ValueError, match="does not cover"):
            recover_symbols(frame[:200], self.FS, stream, genie)

    def test_frame_shorter_than_filter_rejected(self):
        # 2 * half + 1 = 129 taps would wrap onto each other in a 100-sample frame
        stream = StreamTerm(map_qpsk([0, 1]), self.RATE, 0.25, 16)
        with pytest.raises(ValueError, match="does not cover"):
            recover_symbols(np.ones(100, complex), self.FS, stream, 16 / self.RATE)


class TestSampleRateScaling:
    """Each function reads time and frequency only through the ``fs`` it is passed.

    Scaling ``fs`` and every frequency by 4, and every delay and timing by 1/4, describes
    the same samples, and powers of 2 scale floats exactly: the measurements and the
    equalizer return the same bits, and recovered symbols exactly half, because the
    matched filter's taps carry sqrt(R) / fs.
    """

    K = 4.0
    FREQS = np.array([10e6, 35e6, -20e6])

    def frames(self):
        """Reference tones ``(k, n)`` and three rows ``(3, k, n)`` at their own gains."""
        chunk = Waveform(terms=(ToneTerm(1.0, self.FREQS[:, None]),))
        seeds = [np.random.SeedSequence([4, k]) for k in range(self.FREQS.size)]
        ref = _noisy_frame(sample_element(chunk, 0.0, FS, 2048), 1e-3, seeds)
        return ref, np.array([0.5, 1e-3, 2.0])[:, None, None] * ref

    def test_measurements_are_bit_identical(self):
        ref, rows = self.frames()
        half, k = 0.5e6, self.K
        band = (self.FREQS - half, self.FREQS + half)
        spec, scaled = ref_spectrum(ref, FS), ref_spectrum(ref, k * FS)
        depth = cancellation_depth(spec, rows, FS, band)
        gain = conversion_gain_measured(rows, spec, FS, self.FREQS)
        assert np.all(np.isfinite(depth)) and np.all(np.isfinite(gain))
        scaled_band = (k * band[0], k * band[1])
        np.testing.assert_array_equal(cancellation_depth(scaled, rows, k * FS, scaled_band), depth)
        np.testing.assert_array_equal(
            conversion_gain_measured(rows, scaled, k * FS, k * self.FREQS), gain
        )

    @pytest.mark.parametrize("offset_hz", [0.0, 10e9])
    def test_equalize_is_bit_identical(self, offset_hz):
        delta, k = 2.347e-9, self.K
        got = list(equalize(2048, FS, delta, offset_hz=offset_hz))
        scaled = list(equalize(2048, k * FS, delta / k, offset_hz=k * offset_hz))
        assert len(got) == 3
        for a, b in zip(scaled, got):
            assert a.tobytes() == b.tobytes()

    def test_recovered_symbols_are_exactly_half(self):
        fs, rate, span, k = 16e6, 1e6, 16, self.K
        syms = map_qpsk(np.random.default_rng(5).integers(0, 2, 2 * 32))
        stream = StreamTerm(syms, rate, 0.25, span, center_freq=2e6)
        genie = span / rate
        frame = sample_element(Waveform(terms=(stream,), delay=genie), 0.0, fs, 1200)
        got = recover_symbols(frame, fs, stream, genie)
        fast = StreamTerm(syms, k * rate, 0.25, span, center_freq=k * 2e6)
        np.testing.assert_array_equal(2.0 * recover_symbols(frame, k * fs, fast, genie / k), got)
