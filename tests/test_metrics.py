"""Spectral measurement, EVM and symbol-recovery tests.

The PSD calibration checks lean on two exact properties of the
Hann/spectrum scaling pair: a bin-centered unit tone reads 0 dB at its
bin, and dividing a band sum by the window's equivalent noise bandwidth
makes the integral of any constant-envelope exponential come out at its
true power no matter where it falls between bins.
"""

import numpy as np
import pytest

from spica import (
    MeasurementError,
    PsdEstimate,
    SampleFrame,
    StreamTerm,
    ToneTerm,
    Waveform,
    band_power,
    cancellation_depth,
    conversion_gain_measured,
    desired_conversion_gain,
    evm_percent,
    mac_apply,
    map_qpsk,
    recover_symbols,
    sample_element,
    truncated_hadamard,
    welch_psd,
)


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


FS = 200e6


class TestWelchPsd:
    def test_bin_centered_unit_tone_reads_zero_db(self):
        nfft = 4096
        f = 128 * FS / nfft
        frame = sample_element(tone(f), 0.0, FS, 8192)
        psd = welch_psd(frame, nfft=nfft)
        peak = float(np.max(psd.power_db))
        assert peak == pytest.approx(0.0, abs=1e-9)
        assert psd.freqs[int(np.argmax(psd.power_db))] == pytest.approx(f)

    def test_band_power_of_aligned_tone(self):
        nfft = 4096
        f = 512 * FS / nfft
        frame = sample_element(tone(f, amp=0.5), 0.0, FS, 8192)
        psd = welch_psd(frame, nfft=nfft)
        bw = 3 * FS / nfft
        assert band_power(psd, f - bw, f + bw) == pytest.approx(0.25, rel=1e-9)

    def test_band_power_of_offset_tone_over_full_band(self):
        # worst-case half-bin misalignment: scalloping moves power between
        # bins but the ENBW-normalized full-band integral stays exact
        nfft = 1024
        f = (100.5) * FS / nfft
        frame = sample_element(tone(f), 0.0, FS, 8192)
        psd = welch_psd(frame, nfft=nfft)
        total = band_power(psd, psd.freqs[0], psd.freqs[-1])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_noise_integrates_to_variance(self):
        rms = 0.3
        frame = sample_element(tone(0.0, amp=0.0), 0.0, FS, 16384, noise_rms=rms, seed=17)
        psd = welch_psd(frame)
        total = band_power(psd, psd.freqs[0], psd.freqs[-1])
        assert total == pytest.approx(rms**2, rel=0.05)

    def test_two_tone_band_separation(self):
        nfft = 4096
        f1, f2 = 64 * FS / nfft, -700 * FS / nfft
        w = Waveform(terms=(ToneTerm(1.0, f1), ToneTerm(0.1, f2)))
        psd = welch_psd(sample_element(w, 0.0, FS, 8192), nfft=nfft)
        bw = 3 * FS / nfft
        assert band_power(psd, f1 - bw, f1 + bw) == pytest.approx(1.0, rel=1e-6)
        assert band_power(psd, f2 - bw, f2 + bw) == pytest.approx(0.01, rel=1e-6)

    def test_short_frame_rejected(self):
        frame = sample_element(tone(1e6), 0.0, FS, 1024)
        with pytest.raises(ValueError, match="< nfft"):
            welch_psd(frame, nfft=4096)

    def test_overlap_validated(self):
        frame = sample_element(tone(1e6), 0.0, FS, 4096)
        with pytest.raises(ValueError, match="overlap"):
            welch_psd(frame, overlap=1.0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            PsdEstimate(np.arange(4.0), np.zeros(3), 4, 1.5)
        with pytest.raises(ValueError, match="increasing"):
            PsdEstimate(np.array([0.0, 2.0, 1.0]), np.zeros(3), 4, 1.5)

    def test_band_edges_validated(self):
        psd = welch_psd(sample_element(tone(1e6), 0.0, FS, 4096))
        with pytest.raises(ValueError, match="below lower"):
            band_power(psd, 1e6, 0.0)
        with pytest.raises(ValueError, match="no PSD bins"):
            band_power(psd, FS, FS + 1e6)


class TestCancellationDepth:
    BAND = (9e6, 11e6)

    def frame(self, amp=1.0):
        return sample_element(tone(10e6, amp=amp), 0.0, FS, 8192)

    def test_identical_frames_give_zero_db(self):
        fr = self.frame()
        assert cancellation_depth(fr, fr, self.BAND) == pytest.approx(0.0, abs=1e-12)

    def test_hundredfold_amplitude_reduction_is_40_db(self):
        depth = cancellation_depth(self.frame(1.0), self.frame(0.01), self.BAND)
        assert depth == pytest.approx(40.0, abs=1e-9)

    def test_all_zero_cancelled_frame_is_perfect(self):
        zero = SampleFrame(np.zeros(8192, complex), FS)
        assert cancellation_depth(self.frame(), zero, self.BAND) == np.inf

    def test_common_scaling_cancels_out(self):
        a, b = self.frame(1.0), self.frame(0.03)
        d1 = cancellation_depth(a, b, self.BAND)
        d2 = cancellation_depth(a.scaled(7.0), b.scaled(7.0), self.BAND)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_nfft_follows_short_frames(self):
        a = sample_element(tone(10e6), 0.0, FS, 2048)
        b = sample_element(tone(10e6, amp=0.1), 0.0, FS, 2048)
        assert cancellation_depth(a, b, self.BAND) == pytest.approx(20.0, abs=1e-9)

    def test_rate_mismatch_rejected(self):
        a = sample_element(tone(10e6), 0.0, FS, 4096)
        b = sample_element(tone(10e6), 0.0, FS / 2, 4096)
        with pytest.raises(ValueError, match="sample rates"):
            cancellation_depth(a, b, self.BAND)


class TestConversionGainMeasured:
    def test_identity_is_zero_db(self):
        fr = sample_element(tone(50e6), 0.0, FS, 8192)
        assert conversion_gain_measured(fr, fr, 50e6) == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_doubling_is_six_db(self):
        one = sample_element(tone(25e6), 0.0, FS, 8192)
        two = sample_element(tone(25e6, amp=2.0), 0.0, FS, 8192)
        got = conversion_gain_measured(two, one, 25e6)
        assert got == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)

    def test_fully_coherent_row_reads_12_db(self):
        # delta = 1/(2f) turns the alternating row coherent; all four
        # elements add in voltage so the tone gains 20*log10(4) dB over
        # the single-element reference
        f = 50e6
        delta = 1.0 / (2.0 * f)
        m = truncated_hadamard(4)
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * f * i * delta), 0.0, FS, 8192)
            for i in range(4)
        ]
        zero = frames[0].scaled(0.0)
        all_in = mac_apply(frames, m)[0]
        one_in = mac_apply([frames[0], zero, zero, zero], m)[0]
        got = conversion_gain_measured(all_in, one_in, f)
        assert got == pytest.approx(20.0 * np.log10(4.0), abs=1e-9)

    def test_matches_closed_form_row_gain(self):
        f, delta, row = 50e6, 1e-9, 1
        m = truncated_hadamard(4)
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * f * i * delta), 0.0, FS, 8192)
            for i in range(4)
        ]
        zero = frames[0].scaled(0.0)
        all_in = mac_apply(frames, m)[row]
        one_in = mac_apply([frames[0], zero, zero, zero], m)[row]
        got = conversion_gain_measured(all_in, one_in, f)
        expected = 20.0 * np.log10(abs(desired_conversion_gain(f, delta, row)))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_missing_tone_raises(self):
        present = sample_element(tone(50e6), 0.0, FS, 8192)
        absent = sample_element(tone(0.0, amp=0.0), 0.0, FS, 8192, noise_rms=0.01, seed=3)
        with pytest.raises(MeasurementError, match="below the one-input"):
            conversion_gain_measured(present, absent, 50e6)

    def test_rate_mismatch_rejected(self):
        a = sample_element(tone(10e6), 0.0, FS, 4096)
        b = sample_element(tone(10e6), 0.0, FS / 2, 4096)
        with pytest.raises(ValueError, match="sample rates"):
            conversion_gain_measured(a, b, 10e6)


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
        rec = recover_symbols(frame, stream, genie)
        assert rec.shape == stream.symbols.shape
        assert np.max(np.abs(rec - stream.symbols)) <= 1e-6

    def test_default_span_floor_is_documented_isi(self):
        # the span-16 default truncates the pulse harder; recovery still
        # works but the ISI floor sits near 1e-3
        frame, stream, genie = self.clean_setup(span=16)
        rec = recover_symbols(frame, stream, genie)
        err = np.max(np.abs(rec - stream.symbols))
        assert err <= 5e-3
        assert err > 1e-5

    def test_shift_by_whole_periods_is_consistent(self):
        frame, stream, genie = self.clean_setup(span=32)
        shift = 8.0 / self.RATE
        wf = Waveform(terms=(stream,), delay=genie + shift)
        n = len(frame) + int(shift * self.FS)
        frame2 = sample_element(wf, 0.0, self.FS, n)
        a = recover_symbols(frame, stream, genie)
        b = recover_symbols(frame2, stream, genie + shift)
        np.testing.assert_allclose(b, a, atol=1e-9)

    def test_center_frequency_is_downshifted(self):
        # residual sits around 1e-5 (tail ISI shifted up to the center
        # frequency); a missing downshift would leave errors near 1.0
        frame, stream, genie = self.clean_setup(span=64, center=2e6, fs=16e6)
        rec = recover_symbols(frame, stream, genie)
        assert np.max(np.abs(rec - stream.symbols)) <= 5e-5

    def test_off_grid_timing_rejected(self):
        frame, stream, genie = self.clean_setup(span=16)
        with pytest.raises(ValueError, match="sample grid"):
            recover_symbols(frame, stream, genie + 0.3 / self.FS)

    def test_uncovered_span_rejected(self):
        frame, stream, genie = self.clean_setup(span=16)
        short = SampleFrame(frame.samples[:200], frame.sample_rate)
        with pytest.raises(ValueError, match="does not cover"):
            recover_symbols(short, stream, genie)