"""Spectral measurement, EVM and symbol-recovery tests.

The PSD calibration checks lean on two exact properties of the
Hann/spectrum scaling pair: a bin-centered unit tone reads 0 dB at its
bin, and dividing a band sum by the window's equivalent noise bandwidth
makes the integral of any constant-envelope exponential come out at its
true power no matter where it falls between bins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from spica import (
    MeasurementError,
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
    welch_power,
)


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


FS = 200e6


def spectrum(frame, nfft=4096):
    """``welch_power`` of one frame: ``(freqs, pxx, enbw)``."""
    return welch_power(frame.samples, frame.sample_rate, nfft)


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
        frame = sample_element(tone(0.0, amp=0.0), 0.0, FS, 16384, noise_rms=rms, seed=17)
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

    def test_stacked_frames_match_single_calls(self):
        ref = self.frame()
        rows = [self.frame(0.01).samples, self.frame(0.3).samples, np.zeros(8192, complex)]
        canc = SampleFrame(np.stack(rows), FS)
        stacked = cancellation_depth(ref, canc, self.BAND)
        singles = [cancellation_depth(ref, SampleFrame(r, FS), self.BAND) for r in rows]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (3,)
        assert stacked[2] == singles[2] == np.inf
        np.testing.assert_allclose(stacked[:2], singles[:2], rtol=0.0, atol=1e-12)

    def test_stacked_frames_validated(self):
        slow = SampleFrame(np.stack([self.frame(0.1).samples] * 2), FS / 2)
        with pytest.raises(ValueError, match="sample rates"):
            cancellation_depth(self.frame(), slow, self.BAND)


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

    def test_stacked_rows_match_single_calls(self):
        f, delta = 50e6, 1e-9
        m = truncated_hadamard(4)
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * f * i * delta), 0.0, FS, 8192)
            for i in range(4)
        ]
        rows = mac_apply(frames, m)
        stacked = conversion_gain_measured(rows, frames[0], f)
        singles = [conversion_gain_measured(row, frames[0], f) for row in rows]
        np.testing.assert_allclose(stacked, singles, rtol=0.0, atol=1e-12)

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


class TestToneChunkMeasurement:
    """Measuring a chunk of tones at once equals one call per tone."""

    FREQS = np.array([10e6, 35e6, 61.3e6, 88e6, -20e6])
    HALF = 0.5e6

    def elements(self, arrival, clock, noise_rms=0.0):
        """Frames of the chunk at four elements: i * arrival late, sampled i * clock late."""
        chunk = Waveform(terms=(ToneTerm(1.0, self.FREQS[:, None]),))
        return [
            sample_element(
                chunk.delayed(i * arrival),
                i * clock,
                FS,
                2048,
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
        return SampleFrame(rows.samples[:, k], FS)

    def test_depth_per_tone_band_matches_per_tone_calls(self):
        ref, rows = self.interferer()
        band = (self.FREQS - self.HALF, self.FREQS + self.HALF)
        got = cancellation_depth(ref, rows, band)
        pairs = cancellation_depth(ref, rows[0], band)
        assert got.shape == (3, self.FREQS.size) and pairs.shape == (self.FREQS.size,)
        for k, f in enumerate(self.FREQS.tolist()):
            tone_band = (f - self.HALF, f + self.HALF)
            single = cancellation_depth(ref[k], self.tone_rows(rows, k), tone_band)
            np.testing.assert_array_equal(got[:, k], single)
            assert pairs[k] == cancellation_depth(ref[k], rows[0][k], tone_band) == got[0, k]
            assert all(30.0 < d < 200.0 for d in got[:, k])

    def test_depth_shares_a_scalar_band(self):
        ref, rows = self.interferer()
        got = cancellation_depth(ref, rows, (-100e6, 100e6))
        for k in range(self.FREQS.size):
            np.testing.assert_array_equal(
                got[:, k], cancellation_depth(ref[k], self.tone_rows(rows, k), (-100e6, 100e6))
            )

    def test_depth_needs_paired_frames(self):
        ref, rows = self.interferer()
        with pytest.raises(ValueError, match="do not pair"):
            cancellation_depth(ref[:2], rows, (0.0, 1e6))

    @pytest.mark.parametrize("noise_rms", [0.0, 1e-4])
    def test_gain_per_tone_frequency_matches_per_tone_calls(self, noise_rms):
        # a broadside desired source under clocks delayed by i * 1 ns
        frames = self.elements(0.0, 1e-9, noise_rms)
        rows = mac_apply(frames, truncated_hadamard(4))
        got = conversion_gain_measured(rows, frames[0], self.FREQS)
        assert got.shape == (3, self.FREQS.size)
        for k, f in enumerate(self.FREQS.tolist()):
            single = conversion_gain_measured(self.tone_rows(rows, k), frames[0][k], f)
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
        ref_x, canc_x = tones, gains * tones + clutter
        if noisy:
            ref_x = ref_x + 1e-3 * rng.standard_normal((k, n))
            canc_x = canc_x + 1e-3 * rng.standard_normal((n_rows, k, n))
        ref, canc = SampleFrame(ref_x, FS), SampleFrame(canc_x, FS)
        half = 2.0 * FS / n
        band = (freqs - half, freqs + half) if per_tone else (-0.25 * FS, 0.25 * FS)
        depth = cancellation_depth(ref, canc, band)
        gain = conversion_gain_measured(canc, ref, freqs)
        assert depth.shape == gain.shape == (n_rows, k)
        for r, j in np.ndindex(n_rows, k):
            tone_band = (band[0][j], band[1][j]) if per_tone else band
            assert depth[r, j] == cancellation_depth(ref[j], canc[r][j], tone_band)
            assert gain[r, j] == conversion_gain_measured(canc[r][j], ref[j], freqs[j])
        unpaired = SampleFrame(np.vstack([ref_x, ref_x[:1]]), FS)
        with pytest.raises(ValueError, match="do not pair"):
            cancellation_depth(unpaired, canc, band)
        with pytest.raises(ValueError, match="do not pair"):
            conversion_gain_measured(canc, unpaired, 0.0)

    def test_first_empty_band_of_a_stack_is_named(self):
        ref, rows = self.interferer()
        bin_hz = FS / 2048
        lo = np.array([10e6, 35e6 + 0.2 * bin_hz, 61e6, 88e6])
        # the second band lies between two bins; the fourth is reversed
        hi = lo + np.array([1e6, 0.2 * bin_hz, 1e6, -1e6])
        ref, rows = ref[:4], SampleFrame(rows.samples[:, :4], FS)
        with pytest.raises(ValueError, match=rf"band \[{lo[1]}, {hi[1]}\] Hz contains no PSD"):
            cancellation_depth(ref, rows, (lo, hi))

    def test_below_floor_tone_inside_a_chunk_is_named(self):
        freqs = np.array([20e6, 40e6, 60e6, 80e6])
        chunk = Waveform(terms=(ToneTerm(1.0, freqs[:, None]),))
        seeds = [np.random.SeedSequence([9, k]) for k in range(freqs.size)]
        one = sample_element(chunk, 0.0, FS, 2048, 1e-3, seeds)
        # the third of four tones is absent from the all-input frames
        all_in = SampleFrame(one.samples * np.array([1.0, 1.0, 0.0, 1.0])[:, None], FS)
        named = r"tone at 6e\+07 Hz is below the all-input"
        with pytest.raises(MeasurementError, match=named):
            conversion_gain_measured(all_in, one, freqs)
        with pytest.raises(MeasurementError, match=named):
            conversion_gain_measured(all_in[2], one[2], 60e6)

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
        tones = sample_element(chunk, 0.0, FS, 2048, 1e-3, seeds).samples
        noise = sample_element(silent, 0.0, FS, 2048, 1e-3, seeds).samples

        def without(gone):
            return np.where(np.isin(np.arange(freqs.size), gone)[:, None], noise, tones)

        one = SampleFrame(without(one_gone), FS)
        kept = without(all_gone)
        all_in = SampleFrame(np.stack([kept, 2.0 * kept]), FS)
        with pytest.raises(MeasurementError, match=named) as stacked:
            conversion_gain_measured(all_in, one, freqs)
        # the message, dB figures included, is the one tone's own
        with pytest.raises(MeasurementError) as single:
            conversion_gain_measured(self.tone_rows(all_in, 1), one[1], 40e6)
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