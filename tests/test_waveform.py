"""Waveform generator tests, including the pulse-shape quadrature oracle."""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate

from spica import experiments, waveform
from spica import (
    StreamTerm,
    ToneTerm,
    Waveform,
    map_qpsk,
    preset,
    rrc_pulse,
    sample_element,
    truncated_hadamard,
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

    On or within rounding of a removable singularity (a denominator under 1e-20),
    where the formula's two sides cancel, it is evaluated 1e-25 beside it.
    """
    den = mpmath.pi * x * (1 - (4 * b * x) ** 2)
    if abs(den) < 1e-20:
        x += mpmath.mpf("1e-25")
        den = mpmath.pi * x * (1 - (4 * b * x) ** 2)
    num = mpmath.sin(mpmath.pi * x * (1 - b)) + 4 * b * x * mpmath.cos(mpmath.pi * x * (1 + b))
    return num / den


def stream_by_mpmath(stream, t):
    """40-digit value of ``stream`` at the instant ``t`` (a float or mpf, in s), taken exactly.

    Only the 2*span + 1 symbols nearest ``t`` can reach it.  Returns the value
    (an mpc, center frequency included), or None when a symbol sits so close to
    the span cutoff that rounding decides the double-precision answer.
    """
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        b = mpmath.mpf(stream.rolloff)
        rate = mpmath.mpf(stream.symbol_rate)
        span = stream.span_symbols
        cutoff = span + mpmath.mpf(1e-9)
        nearest = int(mpmath.nint(t * rate))
        total = mpmath.mpc(0)
        for k in range(max(nearest - span, 0), min(nearest + span + 1, stream.symbols.size)):
            x = t * rate - k
            if abs(abs(x) - cutoff) < 1e-11:
                return None
            if abs(x) <= cutoff:
                total += mpmath.mpc(stream.symbols[k]) * rrc_by_mpmath(x, b)
        return total * mpmath.sqrt(rate) * mpmath.expjpi(2 * stream.center_freq * t)


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


def eval_from_zeros(w, t):
    """``w`` at ``t``: its terms summed into a zero accumulator, delayed and scaled
    unconditionally."""
    t_arr = np.asarray(t, dtype=float)
    shifted = t_arr - w.delay
    acc = np.zeros(t_arr.shape, dtype=complex)
    for term in w.terms:
        by_formula = isinstance(term, ToneTerm)
        acc = acc + (tone_by_formula(term, shifted) if by_formula else term.eval(shifted))
    return w.scale * acc


def magnitude_bound(w):
    """An upper bound on ``w``'s magnitude at any instant."""
    # Every pulse peaks at x = 0, at 1 - b + 4b/pi <= 4/pi times sqrt(rate).
    bounds = [
        term.amplitude
        if isinstance(term, ToneTerm)
        else 1.3 * np.sqrt(term.symbol_rate) * np.sum(np.abs(term.symbols))
        for term in w.terms
    ]
    return abs(w.scale) * sum(bounds)


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


waveforms = st.builds(
    Waveform,
    terms=st.lists(_tones | _short_streams(), max_size=4),
    scale=st.just(1.0 + 0.0j)
    | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    delay=st.just(0.0) | st.floats(-1e-6, 1e-6),
)


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
        assert Waveform(w1.terms, scale=a).eval(t) == pytest.approx(a * w1.eval(t), abs=1e-9)
        combined = Waveform(terms=(*w1.terms, *w2.terms))
        assert combined.eval(t) == pytest.approx(w1.eval(t) + w2.eval(t), abs=1e-9)

    @given(
        w=waveforms,
        t=st.floats(-2e-6, 2e-6)
        | st.lists(st.floats(-2e-6, 2e-6), max_size=8).map(lambda v: np.array(v, dtype=float)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_zero_accumulator_bit_for_bit(self, w, t):
        # Skipping the zero accumulator, a zero delay or phase and a unit scale
        # or amplitude must change no value for array instants.  A scalar
        # instant gives a shape-() value; there numpy may use its scalar or its
        # array product, which differ in the last bit on hosts with fused
        # multiply-add, so it is compared within rounding of the waveform's size.
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
        expected = [complex(v) for v in expected]
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

    def test_instants_no_symbol_reaches_are_exactly_zero(self):
        rate, span = 4e6, 6
        syms = map_qpsk(np.random.default_rng(4).integers(0, 2, 80))
        stream = StreamTerm(syms, rate, span_symbols=span, center_freq=5e6)
        # 40 symbols; the grid runs 20 symbol periods past both ends, shuffled
        # so the reached instants are not one contiguous run.
        t = np.random.default_rng(6).permutation(np.linspace(-20 / rate, 60 / rate, 3001))
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
            freqs, pxx, _ = welch_power(frame, fs, 4096)
            power_db = 10 * np.log10(pxx)
            inband = power_db[(freqs >= -edge) & (freqs <= edge)].max()
            outband = power_db[np.abs(freqs) > edge + guard].max()
            return inband - outband

        assert drop_db(128) >= 60.0
        assert drop_db(16) >= 40.0


def grid_sum_by_phase(stream, n, fs, t0):
    """``stream._grid_sum`` as one einsum per pulse phase over a p-strided window of symbols."""
    rate, span = stream.symbol_rate, stream.span_symbols
    p, q = Fraction(rate / fs).limit_denominator(n // 64).as_integer_ratio()
    c = np.arange(q) * p / q + t0 * rate
    k0 = np.rint(c).astype(np.int64)
    x = (c - k0)[:, None] - np.arange(-span, span + 1)
    pulses = rrc_pulse(x / rate, rate, stream.rolloff, span)
    rows = -(-n // q)
    pad = np.concatenate(([0j], stream.symbols, [0j]))
    buf = np.take(pad, np.arange(k0[0] - span, (rows - 1) * p + k0[-1] + span + 1) + 1, mode="clip")
    windows = sliding_window_view(np.stack((buf.real, buf.imag)), 2 * span + 1, 1)
    acc = np.zeros((rows, q, 2))
    for phi, s in enumerate((k0 - k0[0]).tolist()):
        np.einsum("kij,j->ik", windows[:, s::p][:, :rows], pulses[phi], out=acc[:, phi])
    acc = acc.view(complex)[..., 0]
    cycles = stream.center_freq * q / fs * np.arange(rows)
    acc *= np.exp(2j * np.pi * (cycles - np.rint(cycles)))[:, None]
    acc *= np.exp(2j * np.pi * stream.center_freq * (t0 + np.arange(q) / fs))
    return acc.ravel()[:n]


@st.composite
def grid_streams(draw):
    """A QPSK stream at p / q of the sample rate (q <= 200, p <= 2q), a grid reaching past its
    end, a clock offset and a waveform delay within 20 ns, and grid indices to check."""
    q = draw(st.integers(1, 200))
    p = draw(st.integers(1, 2 * q))  # p > q: more symbols than instants per row, the widest taps
    fs, rate = q * 1e6, p * 1e6  # rate / fs rounds to p / q exactly
    span = draw(st.integers(1, 16))
    n = 64 * q + draw(st.integers(0, 63))  # each phase serves 64 instants
    n_sym = max(1, n * p // q + draw(st.integers(-2 * span - 4, 4)))
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, 2 * n_sym)
    center = fs * draw(st.floats(0.01, 0.45)) * draw(st.sampled_from([-1, 1]))
    stream = StreamTerm(map_qpsk(bits), rate, draw(st.sampled_from([0.0, 0.25, 1.0])), span, center)
    clock = draw(st.floats(-20e-9, 20e-9))
    delay = draw(st.just(0.0) | st.floats(-20e-9, 20e-9))
    # The first and last instants, the first instant of the last phase and where the
    # stream's last pulse fades, then random ones.
    fade = min(n - 1, int((n_sym + span) * q / p))
    indices = [0, q - 1, n - q, n - 1, fade - 1, fade]
    indices += draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4))
    return stream, fs, n, clock, delay, indices


class TestGridSampling:
    @given(case=grid_streams())
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_grid_oracle(self, case):
        stream, fs, n, clock, delay, indices = case
        with mpmath.workdps(40):
            exact = [
                stream_by_mpmath(stream, mpmath.mpf(j) / fs + mpmath.mpf(clock) - delay)
                for j in indices
            ]
        assume(None not in exact)
        with mock.patch.object(StreamTerm, "_pulse_sum", side_effect=AssertionError):
            frame = sample_element(Waveform(terms=(stream,), delay=delay), clock, fs, n)
        # The tolerance of test_matches_mpmath_pulse_sum: the stream's rms is sqrt(rate).
        tol = 5e-11 * np.sqrt(stream.symbol_rate)
        got = frame[indices]
        np.testing.assert_allclose(got, [complex(v) for v in exact], rtol=0, atol=tol)

    # 296e6 / 200e6 = 37 / 25 splits the phases at 23 (p > 2*span + 1 = 33); 12 / 7 takes one
    # matrix.  Both read more symbols per row than they write instants.
    @pytest.mark.parametrize("p, q", [(37, 25), (12, 7)])
    def test_symbol_rate_above_fs_matches_float_instants(self, p, q):
        fs, n = q * 8e6, 2048
        bits = np.random.default_rng(5).integers(0, 2, 2 * (n * p // q + 40))
        stream = StreamTerm(map_qpsk(bits), p * 8e6, 0.25, 16, 0.3 * fs)
        clock, delay = 7.041e-9, 2.347e-9
        with mock.patch.object(StreamTerm, "_pulse_sum", side_effect=AssertionError):
            frame = sample_element(Waveform(terms=(stream,), delay=delay), clock, fs, n)
        expected = stream.eval(np.arange(n) / fs + clock - delay)
        tol = 5e-11 * np.sqrt(stream.symbol_rate)
        np.testing.assert_allclose(frame, expected, rtol=0, atol=tol)

    # fig18's interferer at 65,536 instants: 2,622 rows of 25, so the last 128-row block holds
    # 62 rows and the last row 11 instants.  At 37 / 25 the phases also split at 23.
    @pytest.mark.parametrize("rate", [64e6, 296e6])
    def test_row_blocks_match_per_phase_einsum(self, rate):
        cfg = replace(preset("fig18"), symbol_rate_hz=rate)
        n, fs = cfg.frame_len, cfg.sample_rate_hz
        stream = experiments._interferer_stream(cfg)
        expected = grid_sum_by_phase(stream, n, fs, 7.041e-9)
        got = stream._grid_sum(n, fs, 7.041e-9)
        rms = np.sqrt(np.mean(np.abs(expected) ** 2))
        # Both sum 2*span + 1 products per instant, in different orders.
        tol = (2 * stream.span_symbols + 1) * np.finfo(float).eps * rms
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=tol)

    # 64,000,001 / 200e6 has no p / q with q <= 4096 / 64; 64e6 / 200e6 = 8 / 25 needs n >= 1,600.
    @pytest.mark.parametrize("rate, n", [(64_000_001.0, 4096), (64e6, 64 * 25 - 1)])
    def test_fallback_matches_float_instants_bit_for_bit(self, rate, n):
        bits = np.random.default_rng(3).integers(0, 2, 2 * 1400)
        stream = StreamTerm(map_qpsk(bits), rate, center_freq=50e6)
        clock, delay = 7.041e-9, 2.347e-9
        frame = sample_element(Waveform(terms=(stream,), delay=delay), clock, 200e6, n)
        expected = stream.eval(np.arange(n) / 200e6 + clock - delay)
        assert frame.tobytes() == expected.tobytes()

    def test_fig18_rows_match_exact_residuals(self):
        # fig18's planned clocks at 12 instants mid-frame and 12 at the frame's end: each row
        # against the 40-digit sum of its elements at the exact instants j / fs + d_i - i*delta.
        # The rows err by at most 4e-11 of their rms; a last element clocked 1 fs late moves
        # them by 3e-4 to 2e-3.
        cfg = preset("fig18")
        delta, n, fs = cfg.delta_ud_s[0], cfg.frame_len, cfg.sample_rate_hz
        stream = experiments._interferer_stream(cfg)
        interferer = Waveform(terms=(stream,), scale=cfg.symbol_rate_hz**-0.5)
        _, clocks, _ = experiments._element_clocks(cfg, delta)
        indices = [*range(n // 2, n // 2 + 12), *range(n - 12, n)]
        def element(i, j):  # element i + 1 at grid index j
            return stream_by_mpmath(stream, mpmath.mpf(j) / fs + clocks[i] - i * mpmath.mpf(delta))

        with mpmath.workdps(40):
            elements = [[element(i, j) for j in indices] for i in range(cfg.n_elements)]
            signs = truncated_hadamard(cfg.n_elements)
            exact = (signs @ np.array(elements, dtype=object) * interferer.scale).astype(complex)

        def errors(element_clocks):
            branch = [(element_clocks, [(cfg.seed, 2)])]
            [(outs, _)] = experiments._sample_scene(cfg, Waveform(), branch, interferer, delta)
            rms = np.sqrt(np.mean(np.abs(outs) ** 2, axis=-1))
            return np.max(np.abs(outs[:, indices] - exact), axis=-1) / rms

        assert np.all(errors(clocks) <= 5e-10)
        assert np.all(errors([*clocks[:-1], clocks[-1] + 1e-15]) > 5e-10)

    @pytest.mark.parametrize("delta", [2.347e-9, -2.347e-9])
    def test_fig16_rows_match_exact_residuals(self, delta):
        # fig16's last tone chunk (97, 98 and 99 MHz) on planned clocks, 12 instants mid-frame
        # and 12 at the frame's end: each (row, tone) residual against the 40-digit sum of its
        # elements' tones at the exact instants j / fs + d_i - i*delta.  They err by at most
        # 2e-9 of their rms (7e-7 to 2.5e-3); a last element clocked 1 fs late moves them by
        # 2.5e-4 or more.  The chunk is rotated from its grid frame, as the runners do.
        cfg = preset("fig16")
        n, fs = cfg.frame_len, cfg.sample_rate_hz
        chunk = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)[96:]
        tones = Waveform(terms=(ToneTerm(1.0, chunk[:, None]),))
        tone_grid = sample_element(tones.terms[0], 0.0, fs, n)
        _, clocks, _ = experiments._element_clocks(cfg, delta)
        indices = [*range(n // 2, n // 2 + 12), *range(n - 12, n)]
        def element(i, f, j):  # element i + 1's tone f at grid index j
            return mpmath.expjpi(2 * f * (mpmath.mpf(j) / fs + clocks[i] - i * mpmath.mpf(delta)))

        with mpmath.workdps(40):
            grid = [(f, j) for f in chunk.tolist() for j in indices]
            elements = [[element(i, f, j) for f, j in grid] for i in range(cfg.n_elements)]
            signs = truncated_hadamard(cfg.n_elements)
            exact = (signs @ np.array(elements, dtype=object)).astype(complex)
            exact = exact.reshape(-1, chunk.size, len(indices))

        def errors(element_clocks):
            branch = [(element_clocks, [(0,)] * chunk.size)]
            [(outs, _)] = experiments._sample_scene(cfg, Waveform(), branch, tones, delta, tone_grid)
            rms = np.sqrt(np.mean(np.abs(outs) ** 2, axis=-1))
            return np.max(np.abs(outs[..., indices] - exact), axis=-1) / rms

        assert np.all(errors(clocks) <= 5e-8)
        assert np.all(errors([*clocks[:-1], clocks[-1] + 1e-15]) > 5e-8)
