"""Waveform generator tests, including the pulse-shape quadrature oracle."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from spica import waveform
from spica import (
    SampleFrame,
    StreamTerm,
    ToneTerm,
    Waveform,
    map_qpsk,
    rrc_pulse,
    sample_element,
    welch_power,
)


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


def rrc_by_mpmath(x, b):
    """Unit-rate RRC pulse at ``x`` symbol periods from the closed form, at mpmath's precision.

    Exactly on a removable singularity the formula is evaluated 1e-25 beside it.
    """
    den = mpmath.pi * x * (1 - (4 * b * x) ** 2)
    if den == 0:
        return rrc_by_mpmath(x + mpmath.mpf("1e-25"), b)
    num = mpmath.sin(mpmath.pi * x * (1 - b)) + 4 * b * x * mpmath.cos(mpmath.pi * x * (1 + b))
    return num / den


def stream_by_mpmath(stream, t):
    """40-digit sum of ``stream``'s shaped pulses at the float instant ``t``, taken exactly.

    Returns the value, or None when a symbol sits so close to the span
    cutoff that rounding decides the double-precision answer.
    """
    with mpmath.workdps(40):
        b = mpmath.mpf(stream.rolloff)
        rate = mpmath.mpf(stream.symbol_rate)
        cutoff = stream.span_symbols + mpmath.mpf(1e-9)
        total = mpmath.mpc(0)
        for k, sym in enumerate(stream.symbols.tolist()):
            x = mpmath.mpf(t) * rate - k
            if abs(abs(x) - cutoff) < 1e-11:
                return None
            if abs(x) <= cutoff:
                total += mpmath.mpc(sym) * rrc_by_mpmath(x, b)
        return complex(total * mpmath.sqrt(rate))


@st.composite
def streams_and_instants(draw):
    """A random stream and instants (in s), including ones on each singularity and the cutoff."""
    rolloff = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    span = draw(st.integers(1, 16))
    n_sym = draw(st.integers(1, 40))
    rate = draw(st.floats(1e3, 1e9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)
    # In symbol periods: on symbol k (x = 0), just off it, on the span
    # cutoff, on and just off |4bx| = 1, then random.
    k = draw(st.integers(0, n_sym - 1))
    near = draw(st.floats(2e-8, 1e-3))
    positions = [k, k - near, k + near, k - span, k + span]
    if rolloff > 0.0 and 1.0 / (4.0 * rolloff) <= span:
        edge = 1.0 / (4.0 * rolloff)
        positions += [k + edge, k - edge, k + edge + near, k - edge - near, k + edge - near]
    positions += draw(st.lists(st.floats(-span - 2.0, n_sym + span + 1.0), min_size=1, max_size=5))
    return StreamTerm(symbols, rate, rolloff, span), np.array(positions) / rate


def tone_by_formula(tone, t):
    """``tone`` at ``t`` by its full formula: phase always added, amplitude always applied."""
    arg = 2.0 * np.pi * tone.frequency * np.asarray(t, dtype=float)
    return tone.amplitude * np.exp(1j * (arg + tone.phase))


def eval_from_zeros(node, t):
    """``node`` at ``t`` summed into a zero accumulator, then delayed and scaled unconditionally."""
    if isinstance(node, ToneTerm):
        return tone_by_formula(node, t)
    if isinstance(node, StreamTerm):
        return node.eval(t)
    t_arr = np.asarray(t, dtype=float)
    shifted = t_arr - node.delay
    acc = np.zeros(t_arr.shape, dtype=complex)
    for term in node.terms:
        acc = acc + eval_from_zeros(term, shifted)
    return node.scale * acc


def magnitude_bound(node):
    """An upper bound on ``node``'s magnitude at any instant."""
    if isinstance(node, ToneTerm):
        return node.amplitude
    if isinstance(node, StreamTerm):
        # Every pulse peaks at x = 0, at 1 - b + 4b/pi <= 4/pi times sqrt(rate).
        return 1.3 * np.sqrt(node.symbol_rate) * np.sum(np.abs(node.symbols))
    return abs(node.scale) * sum(map(magnitude_bound, node.terms))


def stream_by_ungated_loop(stream, t):
    """``stream``'s baseband sum with every fix-up of the pulse formula run at every offset."""
    b, span, rate = stream.rolloff, stream.span_symbols, stream.symbol_rate
    pos = t * rate
    k0 = np.rint(pos)
    f = pos - k0
    lo, hi = np.pi * (1.0 - b), np.pi * (1.0 + b)
    padded = np.concatenate(([0j], stream.symbols, [0j]))
    first = k0.astype(np.int64) + 1
    acc = np.zeros(t.shape, dtype=complex)
    for off in range(-span, span + 1):
        sin_a = np.sin(lo * f) * np.cos(lo * off) - np.cos(lo * f) * np.sin(lo * off)
        cos_b = np.cos(hi * f) * np.cos(hi * off) + np.sin(hi * f) * np.sin(hi * off)
        pulse = waveform._rrc_shape(f - off, sin_a, cos_b, b, span, np.sqrt(rate))
        acc += np.take(padded, first + off, mode="clip") * pulse
    return acc


_tones = st.builds(
    ToneTerm,
    amplitude=st.just(1.0) | st.floats(0.0, 4.0),
    frequency=st.floats(-1e8, 1e8),
    phase=st.just(0.0) | st.floats(-7.0, 7.0),
)


@st.composite
def _short_streams(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sym = draw(st.integers(1, 6))
    return StreamTerm(
        rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym),
        draw(st.floats(1e6, 1e8)),
        draw(st.sampled_from([0.0, 0.25, 1.0])),
        draw(st.integers(1, 3)),
        draw(st.just(0.0) | st.floats(-5e7, 5e7)),
    )


def _waveforms_of(children):
    return st.builds(
        Waveform,
        terms=st.lists(children, max_size=3),
        scale=st.just(1.0 + 0.0j)
        | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        delay=st.just(0.0) | st.floats(-1e-6, 1e-6),
    )


waveform_trees = _waveforms_of(st.recursive(_tones | _short_streams(), _waveforms_of, max_leaves=6))


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

    @given(
        b=st.floats(1e-6, 1.0),
        h=st.floats(-1e-3, 1e-3).filter(bool),
        side=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_near_edge_singularity_matches_mpmath(self, b, h, side):
        # Near |4bx| = 1 the closed form's numerator and denominator both
        # vanish; the pulse must still hold 1e-12 of its peak.
        x = side * (0.25 / b + h)
        with mpmath.workdps(40):
            expected = float(rrc_by_mpmath(mpmath.mpf(x), mpmath.mpf(b)))
        peak = 1.0 - b + 4.0 * b / np.pi
        # |x| reaches 0.25 / 1e-6 = 2.5e5 symbol periods; the span reaches past it.
        assert abs(rrc_pulse(x, 1.0, b, span_symbols=10**6) - expected) <= 1e-12 * peak

    def test_beyond_span_is_zero(self):
        assert rrc_pulse(16.5, 1.0, 0.25) == 0.0
        assert rrc_pulse(-1e6, 1.0, 0.25) == 0.0
        assert rrc_pulse(17.0, 1.0, 0.25, span_symbols=16) == 0.0
        # a longer span keeps the tail
        assert rrc_pulse(17.0, 1.0, 0.25, span_symbols=18) != 0.0

    def test_rolloff_zero_is_sinc_with_symbol_period_zeros(self):
        for k in (1, 2, 3, 7):
            assert rrc_pulse(float(k), 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert rrc_pulse(0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(-3.0, 3.0, 41)
        vec = rrc_pulse(t, 1.0, 0.25)
        scl = np.array([rrc_pulse(float(x), 1.0, 0.25) for x in t])
        np.testing.assert_allclose(vec, scl, rtol=0, atol=1e-15)
        # 2-D grids holding x = 0 and the edge x = 1/(4b) = 1 keep their shape and
        # match the scalar calls element-wise.
        for grid in ([[0.0, 1.0]], [[1.0, 0.0], [2.0, 3.0]], t.reshape(1, 41), t[:40].reshape(2, 20)):
            grid = np.asarray(grid)
            vec = rrc_pulse(grid, 1.0, 0.25)
            assert vec.shape == grid.shape
            scl = np.vectorize(lambda x: rrc_pulse(float(x), 1.0, 0.25))(grid)
            np.testing.assert_allclose(vec, scl, rtol=0, atol=1e-15)

    def test_unit_energy(self):
        # Discrete energy of a finely sampled long-span pulse approaches 1.
        rate = 1.0
        dt = 1.0 / 64
        t = np.arange(-200.0, 200.0, dt)
        p = rrc_pulse(t, rate, 0.25, span_symbols=201)
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

    @given(
        w=waveform_trees,
        t=st.floats(-2e-6, 2e-6)
        | st.lists(st.floats(-2e-6, 2e-6), max_size=8).map(lambda v: np.array(v, dtype=float)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_zero_accumulator_bit_for_bit(self, w, t):
        # Skipping the zero accumulator, a zero delay or phase and a unit scale
        # or amplitude must change no value for array instants.  A scalar
        # instant gives a shape-() value; there numpy may use its scalar or its
        # array product, which differ in the last bit on hosts with fused
        # multiply-add, so it is compared within rounding of the tree's size.
        got = w.eval(t)
        expected = eval_from_zeros(w, t)
        assert np.shape(got) == np.shape(t)
        if np.ndim(t) == 0:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * magnitude_bound(w))
        else:
            assert np.array_equal(got, expected)

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
        with pytest.raises(ValueError, match="span_symbols must be >= 1"):
            StreamTerm([1.0], 1e6, span_symbols=0)

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

    @given(case=streams_and_instants())
    @settings(max_examples=25, deadline=None)
    def test_matches_mpmath_pulse_sum(self, case):
        stream, t = case
        expected = [stream_by_mpmath(stream, ti) for ti in t.tolist()]
        assume(None not in expected)
        # Unit-power symbols and unit-energy pulses: the stream's rms is sqrt(rate).
        tol = 5e-11 * np.sqrt(stream.symbol_rate)
        grid = np.stack([t, t[::-1]])
        got = stream.eval(grid)
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, [expected, expected[::-1]], rtol=0, atol=tol)
        one = stream.eval(float(t[0]))
        assert np.shape(one) == ()
        assert abs(one - expected[0]) <= tol

    @pytest.mark.parametrize("span", [1, 2, 16])
    @pytest.mark.parametrize("rolloff", [0.0, 1e-3, 0.25, 0.5, 1.0])
    def test_gated_fixups_match_ungated_loop(self, rolloff, span):
        # Instants exactly on symbols (x = 0), on |4bx| = 1 and on the span
        # cutoff; a power-of-two rate keeps every offset exact.
        rate = 2.0**21
        syms = map_qpsk(np.random.default_rng(8).integers(0, 2, 2 * 24))
        stream = StreamTerm(syms, rate, rolloff, span)
        k = np.arange(0, 24, 5.0)
        positions = [k, k + 0.37, k - span, k + span]
        if rolloff > 0.0:
            edge = 0.25 / rolloff
            positions += [k + edge, k - edge, k + span - edge, k - span + edge]
        t = np.concatenate(positions) / rate
        with np.errstate(divide="raise", invalid="raise"):
            got = stream.eval(t)
            expected = stream_by_ungated_loop(stream, t)
        np.testing.assert_array_equal(got, expected)

    def test_blocks_match_one_pass(self, monkeypatch):
        syms = map_qpsk(np.random.default_rng(2).integers(0, 2, 400))
        stream = StreamTerm(syms, 64e6, center_freq=20e6)
        t = np.linspace(-1e-7, 3.3e-6, 1001).reshape(7, 143)
        whole = stream.eval(t)
        monkeypatch.setattr(waveform, "_BLOCK", 100)  # ten full blocks and a partial one
        np.testing.assert_allclose(stream.eval(t), whole, rtol=0, atol=1e-12 * 64e6**0.5)

    def test_instants_no_symbol_reaches_are_exactly_zero(self, monkeypatch):
        rate, span = 4e6, 6
        syms = map_qpsk(np.random.default_rng(4).integers(0, 2, 80))
        stream = StreamTerm(syms, rate, span_symbols=span, center_freq=5e6)
        # 40 symbols; the grid runs 20 symbol periods past both ends, shuffled
        # so the reached instants are not one contiguous run.
        t = np.random.default_rng(6).permutation(np.linspace(-20 / rate, 60 / rate, 3001))
        monkeypatch.setattr(waveform, "_BLOCK", 256)
        got = stream.eval(t)
        k0 = np.rint(t * rate)
        before, after = k0 < -span, k0 > 39 + span
        assert before.any() and after.any()
        outside = before | after
        assert np.all(got[outside] == 0)
        np.testing.assert_array_equal(got[~outside], stream.eval(t[~outside]))
        pulses = [s * rrc_pulse(t - k / rate, rate, 0.25, span) for k, s in enumerate(stream.symbols)]
        expected = sum(pulses) * np.exp(2j * np.pi * 5e6 * t)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * rate**0.5)

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
            freqs, pxx, _ = welch_power(frame.samples, fs, 4096)
            power_db = 10 * np.log10(pxx)
            inband = power_db[(freqs >= -edge) & (freqs <= edge)].max()
            outband = power_db[np.abs(freqs) > edge + guard].max()
            return inband - outband

        assert drop_db(128) >= 60.0
        assert drop_db(16) >= 40.0
