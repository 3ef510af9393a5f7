"""Waveform generator tests, including the pulse-shape quadrature oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from spica import SampleFrame, StreamTerm, ToneTerm, Waveform, map_qpsk, rrc_pulse, sample_element, welch_psd


def rrc_peak_by_quadrature(symbol_rate, rolloff):
    """Independent oracle: p(0) = integral of the root-raised-cosine spectrum.

    The frequency response has magnitude sqrt(T * H_rc(f)) with H_rc the
    raised-cosine window; p(0) is its plain integral over the occupied band.
    """
    T = 1.0 / symbol_rate

    def spectrum(f):
        af = abs(f)
        lo = (1.0 - rolloff) / (2.0 * T)
        hi = (1.0 + rolloff) / (2.0 * T)
        if af <= lo:
            h = 1.0
        elif af <= hi:
            h = 0.5 * (1.0 + np.cos(np.pi * T / rolloff * (af - lo)))
        else:
            h = 0.0
        return np.sqrt(T * h)

    lo = (1.0 - rolloff) / (2.0 * T)
    hi = (1.0 + rolloff) / (2.0 * T)
    # integrate the flat passband and the rolloff skirt separately so the
    # band-edge kinks do not degrade the quadrature accuracy
    flat, _ = integrate.quad(spectrum, 0.0, lo)
    skirt, _ = integrate.quad(spectrum, lo, hi, limit=200)
    return 2.0 * (flat + skirt)


class TestRrcPulse:
    @pytest.mark.parametrize("rate,rolloff", [(1.0, 0.25), (64e6, 0.25), (2e6, 0.5), (1e6, 1.0)])
    def test_peak_matches_quadrature_oracle(self, rate, rolloff):
        expected = rrc_peak_by_quadrature(rate, rolloff)
        assert rrc_pulse(0.0, rate, rolloff) == pytest.approx(expected, rel=1e-9)

    def test_peak_closed_form(self):
        b = 0.25
        assert rrc_pulse(0.0, 1.0, b) == pytest.approx(1.0 - b + 4.0 * b / np.pi, rel=1e-12)

    def test_edge_singularity_is_removable(self):
        # Value at t = 1/(4*rolloff*rate) must continue the neighboring values.
        b = 0.25
        x0 = 1.0 / (4.0 * b)
        at = rrc_pulse(x0, 1.0, b)
        near = rrc_pulse(x0 * (1.0 + 1e-7), 1.0, b)
        assert at == pytest.approx(near, rel=1e-5)
        assert np.isfinite(at)

    def test_beyond_span_is_zero(self):
        assert rrc_pulse(16.5, 1.0, 0.25) == 0.0
        assert rrc_pulse(-1e6, 1.0, 0.25) == 0.0
        assert rrc_pulse(17.0, 1.0, 0.25, span_symbols=16) == 0.0
        # untruncated evaluation keeps the tail
        assert rrc_pulse(17.0, 1.0, 0.25, span_symbols=None) != 0.0

    def test_rolloff_zero_is_sinc_with_symbol_period_zeros(self):
        for k in (1, 2, 3, 7):
            assert rrc_pulse(float(k), 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert rrc_pulse(0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(-3.0, 3.0, 41)
        vec = rrc_pulse(t, 1.0, 0.25)
        scl = np.array([rrc_pulse(float(x), 1.0, 0.25) for x in t])
        np.testing.assert_allclose(vec, scl, rtol=0, atol=1e-15)

    def test_unit_energy(self):
        # Discrete energy of a finely sampled long-span pulse approaches 1.
        rate = 1.0
        dt = 1.0 / 64
        t = np.arange(-200.0, 200.0, dt)
        p = rrc_pulse(t, rate, 0.25, span_symbols=None)
        assert np.sum(p**2) * dt == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            rrc_pulse(0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            rrc_pulse(0.0, -1.0, 0.25)


class TestMapQpsk:
    def test_gray_mapping(self):
        s = 2**-0.5
        np.testing.assert_allclose(map_qpsk([0, 0]), [s + 1j * s])
        np.testing.assert_allclose(map_qpsk([0, 1]), [-s + 1j * s])
        np.testing.assert_allclose(map_qpsk([1, 1]), [-s - 1j * s])
        np.testing.assert_allclose(map_qpsk([1, 0]), [s - 1j * s])

    def test_unit_average_power(self):
        bits = np.random.default_rng(0).integers(0, 2, 1000)
        syms = map_qpsk(bits)
        assert syms.size == 500
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            map_qpsk([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            map_qpsk([0, 2])


class TestWaveformEval:
    def test_empty_waveform_is_zero(self):
        assert Waveform().eval(0.37) == 0j

    def test_dc_tone(self):
        w = Waveform(terms=(ToneTerm(1.0, 0.0),))
        assert w.eval(123.456) == pytest.approx(1.0 + 0.0j)

    def test_tone_quarter_cycle(self):
        w = Waveform(terms=(ToneTerm(1.0, 50e6),))
        assert w.eval(5e-9) == pytest.approx(1j, abs=1e-12)

    def test_tone_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ToneTerm(-1.0, 1e6)

    @given(
        a=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        t=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, t):
        w1 = Waveform(terms=(ToneTerm(1.0, 3e6, 0.4), ToneTerm(0.5, -7e6)))
        w2 = Waveform(terms=(ToneTerm(2.0, 11e6, -1.0),))
        combined = Waveform(terms=(w1 * a, w2))
        expected = a * w1.eval(t) + w2.eval(t)
        assert combined.eval(t) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("freq", [1e6, 37e6, -50e6])
    def test_tone_time_shift_exactness(self, freq):
        w = Waveform(terms=(ToneTerm(1.0, freq, 0.3),))
        t = np.linspace(0.0, 1e-5, 64)
        tau = 1.7e-9
        lhs = w.eval(t - tau)
        rhs = w.eval(t) * np.exp(-2j * np.pi * freq * tau)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_delayed_helper(self):
        w = Waveform(terms=(ToneTerm(1.0, 10e6),))
        t = np.linspace(0.0, 1e-6, 11)
        np.testing.assert_allclose(w.delayed(3e-9).eval(t), w.eval(t - 3e-9), atol=0)


class TestStreamTerm:
    def test_symbols_normalized_to_unit_power(self):
        st_ = StreamTerm([2.0, 2.0j, -2.0, -2.0j], 1e6)
        assert np.mean(np.abs(st_.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamTerm([1.0], -1e6)
        with pytest.raises(ValueError):
            StreamTerm([1.0], 1e6, rolloff=1.5)
        with pytest.raises(ValueError):
            StreamTerm([], 1e6)
        with pytest.raises(ValueError):
            StreamTerm([0.0, 0.0], 1e6)

    def test_finite_support(self):
        st_ = StreamTerm([1.0 + 0j], 1e6, span_symbols=4)
        # single symbol at t=0: support is [-4, 4] symbol periods
        assert st_.eval(5.0e-6) == 0
        assert st_.eval(-5.0e-6) == 0
        assert st_.eval(1.0e-6) != 0

    def test_single_symbol_is_scaled_pulse(self):
        st_ = StreamTerm([1.0 + 0j], 2e6, rolloff=0.25, span_symbols=8)
        t = np.linspace(-3e-6, 3e-6, 101)
        np.testing.assert_allclose(
            st_.eval(t), rrc_pulse(t, 2e6, 0.25, 8).astype(complex), atol=1e-15
        )

    def test_center_freq_shifts_envelope(self):
        syms = map_qpsk(np.random.default_rng(5).integers(0, 2, 64))
        base = StreamTerm(syms, 4e6, center_freq=0.0)
        shifted = StreamTerm(syms, 4e6, center_freq=30e6)
        t = np.linspace(0.0, 8e-6, 257)
        np.testing.assert_allclose(
            shifted.eval(t), base.eval(t) * np.exp(2j * np.pi * 30e6 * t), atol=1e-9
        )

    def test_occupied_bandwidth_drop(self):
        # Out-of-band floor is set by pulse truncation: roughly 44 dB below
        # the in-band level at the default span of 16, past 60 dB by span
        # 128.  The bandwidth property is asserted at span 128; the default
        # span's floor is pinned loosely so regressions show up.
        fs = 200e6
        rate = 64e6
        rng = np.random.default_rng(11)
        edge = rate * 1.25 / 2.0
        guard = 3 * fs / 4096

        def drop_db(span):
            # enough symbols that the stream spans the whole frame
            syms = map_qpsk(rng.integers(0, 2, 2 * 3000))
            stream = StreamTerm(syms, rate, 0.25, span)
            frame = sample_element(
                Waveform(terms=(stream,), scale=rate**-0.5), 0.0, fs, 8192
            )
            psd = welch_psd(frame)
            inband = psd.power_db[(psd.freqs >= -edge) & (psd.freqs <= edge)].max()
            outband = psd.power_db[np.abs(psd.freqs) > edge + guard].max()
            return inband - outband

        assert drop_db(128) >= 60.0
        assert drop_db(16) >= 40.0
