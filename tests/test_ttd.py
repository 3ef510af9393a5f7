"""Clock planning, sampling, matrix combining and equalization tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from spica import ttd
from spica import (
    INTERLEAVE_STEP,
    PI_STEP,
    QUADRANT_STEP,
    ClockConfig,
    Quadrant,
    ToneTerm,
    Waveform,
    config_total_delay,
    desired_conversion_gain,
    equalize,
    mac_apply,
    plan_delay,
    plan_delays,
    sample_element,
    truncated_hadamard,
)
from spica.waveform import StreamTerm, map_qpsk


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


class TestClockConfig:
    def test_total_delay_decomposition(self):
        c = ClockConfig(50, Quadrant.Q_N, 0)
        assert config_total_delay(c) == pytest.approx(4e-9, rel=1e-12)
        assert config_total_delay(ClockConfig(0, Quadrant.I_P, 0)) == 0.0
        assert config_total_delay(ClockConfig(100, Quadrant.I_N, 1)) == pytest.approx(
            8e-9, rel=1e-12
        )

    def test_quadrant_step_order(self):
        assert [int(q) for q in (Quadrant.I_P, Quadrant.Q_P, Quadrant.I_N, Quadrant.Q_N)] == [
            0,
            1,
            2,
            3,
        ]

    def test_full_range_endpoint_allowed(self):
        c = ClockConfig(250, Quadrant.Q_N, 2)
        assert config_total_delay(c) == pytest.approx(15e-9, rel=1e-12)

    def test_over_range_rejected(self):
        # 255 * 5 ps + 3.75 ns + 10 ns = 15.025 ns, past the top of range
        with pytest.raises(ValueError, match="exceeds range"):
            ClockConfig(255, Quadrant.Q_N, 2)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="pi_code"):
            ClockConfig(256, Quadrant.I_P, 0)
        with pytest.raises(ValueError, match="interleave_offset"):
            ClockConfig(0, Quadrant.I_P, 3)
        with pytest.raises(ValueError):
            ClockConfig(0, 7, 0)
        with pytest.raises(ValueError, match="offset_limit must be >= 0"):
            ClockConfig(0, Quadrant.I_P, 0, offset_limit=-1)

    def test_extended_offset_limit(self):
        c = ClockConfig(0, Quadrant.I_P, 5, offset_limit=7)
        assert config_total_delay(c) == pytest.approx(25e-9, rel=1e-12)


@st.composite
def planner_targets(draw):
    """(targets, max_offset) with 0, the range end and step boundaries mixed in."""
    max_offset = draw(st.integers(0, 7))
    top = (max_offset + 1) * INTERLEAVE_STEP
    boundary = st.one_of(
        st.sampled_from([0.0, top]),
        st.integers(0, round(top / PI_STEP) - 1).map(lambda k: (k + 0.5) * PI_STEP),
        st.integers(0, 4 * (max_offset + 1)).map(lambda k: k * QUADRANT_STEP),
    )
    targets = draw(st.lists(st.one_of(st.floats(0.0, top), boundary), min_size=1, max_size=40))
    return targets, max_offset


class TestPlanDelay:
    @pytest.mark.parametrize(
        "target,pi,quad,off",
        [
            (0.0, 0, Quadrant.I_P, 0),
            (4e-9, 50, Quadrant.Q_N, 0),
            (8e-9, 100, Quadrant.I_N, 1),
            (12e-9, 150, Quadrant.Q_P, 2),
            (15e-9, 250, Quadrant.Q_N, 2),
        ],
    )
    def test_worked_decompositions(self, target, pi, quad, off):
        c = plan_delay(target)
        assert (c.pi_code, c.quadrant, c.interleave_offset) == (pi, quad, off)
        assert config_total_delay(c) == pytest.approx(target, abs=1e-21)

    def test_rounds_to_nearest_pi_code(self):
        # 2.6 ps is closer to one PI step than to zero
        assert plan_delay(2.6e-12).pi_code == 1
        assert plan_delay(2.4e-12).pi_code == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            plan_delay(-1e-9)
        with pytest.raises(ValueError, match="outside"):
            plan_delay(15.1e-9)

    def test_extended_range(self):
        c = plan_delay(33e-9, max_offset=7)
        assert c.interleave_offset == 6
        assert config_total_delay(c) == pytest.approx(33e-9, abs=2.5e-12)

    @given(target=st.floats(0.0, 15e-9))
    @settings(max_examples=300, deadline=None)
    def test_error_within_half_pi_step(self, target):
        c = plan_delay(target)
        err = abs(config_total_delay(c) - target)
        # the bound is half a PI step; the relative fudge absorbs the last
        # ulp of the float subtraction at exact half-step boundaries
        assert err <= 2.5e-12 * (1.0 + 1e-9)

    @given(target=st.floats(0.0, 15e-9), case=planner_targets())
    @settings(max_examples=100, deadline=None)
    def test_plan_is_within_declared_range(self, target, case):
        c = plan_delay(target)
        assert 0.0 <= config_total_delay(c) <= 15e-9 * (1.0 + 1e-9)
        targets, max_offset = case
        totals = ttd._total_delay(*plan_delays(targets, max_offset))
        assert np.all(totals <= (max_offset + 1) * INTERLEAVE_STEP * (1.0 + 1e-9))


def greedy_reference(target, max_offset):
    """The coarse-to-fine decomposition, one Python float at a time."""
    target = min(max(target, 0.0), (max_offset + 1) * 5e-9)
    offset = min(math.floor(target / 5e-9), max_offset)
    r1 = target - offset * 5e-9
    quadrant = min(math.floor(r1 / 1.25e-9), 3)
    rem = r1 - quadrant * 1.25e-9
    return min(max(math.floor(rem / 5e-12 + 0.5), 0), 255), quadrant, offset


class TestPlanDelays:
    @given(case=planner_targets())
    @settings(max_examples=200, deadline=None)
    def test_each_element_matches_scalar_plan(self, case):
        targets, max_offset = case
        codes = plan_delays(targets, max_offset)
        totals = ttd._total_delay(*codes)
        for i, target in enumerate(targets):
            c = plan_delay(target, max_offset)
            scalar = (c.pi_code, int(c.quadrant), c.interleave_offset)
            assert tuple(int(a[i]) for a in codes) == scalar
            assert greedy_reference(target, max_offset) == scalar
            assert float(totals[i]).hex() == config_total_delay(c).hex()

    def test_shape_follows_targets(self):
        codes = plan_delays(np.full((2, 3), 4e-9))
        assert all(a.shape == (2, 3) for a in codes)
        assert [int(a[1, 2]) for a in codes] == [50, int(Quadrant.Q_N), 0]
        assert all(a.shape == () for a in plan_delays(8e-9))

    def test_out_of_range_names_first_bad_target(self):
        with pytest.raises(ValueError, match=r"target delay 1\.510000e-08 s outside \[0, 1\.5"):
            plan_delays([0.0, 4e-9, 15.1e-9, -1e-9])
        with pytest.raises(ValueError, match="target delay -1.000000e-09 s outside"):
            plan_delays([0.0, -1e-9])
        with pytest.raises(ValueError, match="outside"):
            plan_delays([1e-9, np.nan])
        with pytest.raises(ValueError, match="max_offset must be >= 0"):
            plan_delays([0.0], max_offset=-1)

    def test_range_end_lies_on_the_pi_grid(self):
        # every range end is a whole number of PI steps, so rounding to the
        # nearest code reaches at most the end itself and plan_delays needs
        # no check that a total passes the range
        assert 250 * PI_STEP == QUADRANT_STEP
        assert 4 * QUADRANT_STEP == INTERLEAVE_STEP


class TestSampleElement:
    def test_clock_delay_advances_evaluation(self):
        # delaying a 50 MHz tone's clock by 5 ns multiplies samples by j
        base = sample_element(tone(50e6), 0.0, 2e8, 16)
        late = sample_element(tone(50e6), 5e-9, 2e8, 16)
        np.testing.assert_allclose(late, 1j * base, atol=1e-12)

    def test_clock_config_accepted(self):
        cfg = plan_delay(5e-9)
        a = sample_element(tone(50e6), cfg, 2e8, 16)
        b = sample_element(tone(50e6), 5e-9, 2e8, 16)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matched_clock_realigns_delayed_arrival(self):
        # arrival late by d, clock late by d: reference stream comes back
        syms = map_qpsk(np.random.default_rng(3).integers(0, 2, 128))
        stream = Waveform(terms=(StreamTerm(syms, 16e6, center_freq=20e6),))
        d = 2.347e-9
        ref = sample_element(stream, 0.0, 2e8, 512)
        realigned = sample_element(stream.delayed(d), d, 2e8, 512)
        err = np.max(np.abs(realigned - ref))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_callable_signal(self):
        fr = sample_element(lambda t: t * 1e8, 0.0, 1e8, 4)
        assert fr.dtype == complex
        np.testing.assert_allclose(fr, [0, 1, 2, 3])

    def test_noise_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            sample_element(tone(1e6), 0.0, 1e8, 16, noise_rms=0.1)

    def test_noise_deterministic_and_scaled(self):
        a = sample_element(tone(0.0), 0.0, 1e8, 4096, noise_rms=0.1, seed=7)
        b = sample_element(tone(0.0), 0.0, 1e8, 4096, noise_rms=0.1, seed=7)
        np.testing.assert_array_equal(a, b)
        noise = a - 1.0
        assert np.sqrt(np.mean(np.abs(noise) ** 2)) == pytest.approx(0.1, rel=0.05)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="sample count"):
            sample_element(tone(1e6), 0.0, 1e8, 0)

    @pytest.mark.parametrize("rate", [0.0, -2e6])
    def test_rate_validation(self, rate):
        # Checked before sampling: a stream would otherwise divide its rate by it.
        stream = Waveform(terms=(StreamTerm(map_qpsk([0, 1] * 8), 1e6),))
        with pytest.raises(ValueError, match="sample_rate > 0"):
            sample_element(stream, 0.0, rate, 16)


class TestToneChunk:
    """A chunk of tones sampled and combined at once equals one call per tone."""

    FREQS = np.array([3e6, 17.5e6, 42e6, 77.25e6, -91e6])

    def chunk(self):
        return Waveform(terms=(ToneTerm(1.0, self.FREQS[:, None]),))

    @pytest.mark.parametrize("noise_rms", [0.0, 1e-3])
    def test_sample_element_matches_per_tone_calls(self, noise_rms):
        # one seed per tone, keyed like the runners' (..., tone, element) keys
        seeds = [np.random.SeedSequence([5, k, 1]) for k in range(self.FREQS.size)]
        got = sample_element(self.chunk(), 1.3e-9, 2e8, 256, noise_rms, seeds)
        assert got.shape == (self.FREQS.size, 256)
        for k, f in enumerate(self.FREQS.tolist()):
            one = sample_element(tone(f), 1.3e-9, 2e8, 256, noise_rms, seeds[k])
            np.testing.assert_array_equal(got[k], one)

    def test_noise_seed_count_checked(self):
        with pytest.raises(ValueError):
            sample_element(self.chunk(), 0.0, 2e8, 16, noise_rms=0.1, seed=[1, 2])

    def test_mac_apply_matches_per_tone_calls(self):
        m = truncated_hadamard(4)
        frames = [sample_element(self.chunk(), d, 2e8, 64) for d in (0.0, 1e-9, 2.5e-9, 4e-9)]
        got = mac_apply(frames, m)
        assert got.shape == (3, self.FREQS.size, 64)
        for k in range(self.FREQS.size):
            one = mac_apply([fr[k] for fr in frames], m)
            np.testing.assert_array_equal(got[:, k], one)

    def test_mac_apply_needs_equal_tone_counts(self):
        frames = [sample_element(self.chunk(), 0.0, 2e8, 8)] * 3
        with pytest.raises(ValueError, match="same shape"):
            mac_apply([*frames, frames[0][:2]], truncated_hadamard(4))


class TestTruncatedHadamard:
    def test_matches_scipy_sans_first_row(self):
        for n in (2, 4, 8, 16):
            m = truncated_hadamard(n)
            np.testing.assert_array_equal(m, hadamard(n)[1:])

    def test_matches_direct_doubling_recursion(self):
        # independent construction: repeated Kronecker doubling
        core = np.array([[1, 1], [1, -1]])
        h = np.array([[1]])
        for _ in range(3):
            h = np.kron(h, core)
        np.testing.assert_array_equal(truncated_hadamard(8), h[1:])

    def test_rows_sum_to_zero(self):
        for n in (2, 4, 8, 16, 32):
            assert np.all(truncated_hadamard(n).sum(axis=1) == 0)

    def test_rows_orthogonal_and_unit_entries(self):
        for n in (2, 4, 8, 16):
            rows = truncated_hadamard(n)
            assert np.all(np.abs(rows) == 1)
            gram = rows @ rows.T
            np.testing.assert_array_equal(gram, n * np.eye(n - 1, dtype=np.int64))

    def test_order_validation(self):
        for bad in (1, 3, 6, 0):
            with pytest.raises(ValueError, match="power of 2"):
                truncated_hadamard(bad)

    def test_rows_read_only(self):
        m = truncated_hadamard(4)
        with pytest.raises(ValueError):
            m[0, 0] = -1

    def test_first_column_is_all_plus_one(self):
        # every row passes element 1 with weight +1, so element 1's frame is
        # each row's single-input reference
        for n in (2**k for k in range(1, 9)):
            assert np.all(truncated_hadamard(n)[:, 0] == 1), n


class TestMacApply:
    def test_identical_inputs_cancel(self):
        fr = sample_element(tone(13e6, phase=0.4), 0.0, 1e8, 64)
        outs = mac_apply([fr] * 4, truncated_hadamard(4))
        assert outs.shape == (3, 64)
        for out in outs:
            assert np.max(np.abs(out)) == 0.0

    def test_single_active_element_scales_by_row_entry(self):
        fr = sample_element(tone(7e6), 0.0, 1e8, 32)
        zero = 0.0 * fr
        m = truncated_hadamard(4)
        frames = [zero, zero, fr, zero]
        outs = mac_apply(frames, m)
        for r, out in enumerate(outs):
            np.testing.assert_allclose(out, m[r, 2] * fr, atol=0)

    def test_only_first_element_driven_passes_it_exactly(self):
        fr = sample_element(tone(11e6, phase=0.3), 0.0, 1e8, 64)
        for n in (2, 4, 8):
            outs = mac_apply([fr] + [0.0 * fr] * (n - 1), truncated_hadamard(n))
            for out in outs:
                np.testing.assert_array_equal(out, fr)

    def test_phase_ramp_tone_matches_conversion_gain(self):
        # dual route: sampled MAC output vs the closed-form row gain
        f, delta, n = 37e6, 1.3e-9, 4
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * f * i * delta), 0.0, 2e8, 128)
            for i in range(n)
        ]
        outs = mac_apply(frames, truncated_hadamard(n))
        base = sample_element(tone(f), 0.0, 2e8, 128)
        for r, out in enumerate(outs):
            g = desired_conversion_gain(f, delta, r, n)
            np.testing.assert_allclose(out, g * base, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        log_n=st.integers(1, 6),
        length=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_scalar_loop(self, log_n, length, seed):
        n = 2**log_n
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, length)) + 1j * rng.standard_normal((n, length))).tolist()
        m = truncated_hadamard(n)
        out = mac_apply(np.array(x), m)
        assert out.shape == (n - 1, length)
        for r, row in enumerate(out):
            signs = m[r].tolist()
            for k, got in enumerate(row.tolist()):
                expected = sum(signs[i] * x[i][k] for i in range(n))
                assert abs(got - expected) <= 1e-12 * n

    def test_frame_count_checked(self):
        fr = sample_element(tone(1e6), 0.0, 1e8, 8)
        with pytest.raises(ValueError, match="expected 4 frames"):
            mac_apply([fr, fr], truncated_hadamard(4))

    def test_stacked_frames_match_a_list_bit_for_bit(self):
        # the runners pass one (elements, k, n) ndarray, which mac_apply takes uncopied
        chunk = Waveform(terms=(ToneTerm(1.0, np.array([[3e6], [17e6], [-41e6]])),))
        frames = [sample_element(chunk, d, 2e8, 64) for d in (0.0, 1.3e-9, 2.7e-9, 4.05e-9)]
        m = truncated_hadamard(4)
        np.testing.assert_array_equal(mac_apply(np.array(frames), m), mac_apply(frames, m))
        with pytest.raises(ValueError, match="expected 4 frames, got 3"):
            mac_apply(np.array(frames[:3]), m)

    def test_metadata_mismatches_checked(self):
        m = truncated_hadamard(2)
        base = sample_element(tone(1e6), 0.0, 1e8, 8)
        with pytest.raises(ValueError, match="same shape"):
            mac_apply([base, sample_element(tone(1e6), 0.0, 1e8, 9)], m)


class TestDesiredConversionGain:
    def test_dc_is_always_nulled(self):
        for n in (2, 4, 8, 16):
            for r in range(n - 1):
                assert desired_conversion_gain(0.0, 1e-9, r, n) == 0j

    def test_frozen_row1_value(self):
        # n = 4, second row (+, +, -, -), f = 50 MHz, delta = 1 ns
        g = desired_conversion_gain(50e6, 1e-9, 1)
        assert g == pytest.approx(0.5542542696277332 - 1.0877852522924731j, abs=1e-12)
        assert abs(g) == pytest.approx(1.2208499295595554, abs=1e-12)

    def test_half_cycle_per_element_maximizes_alternating_row(self):
        # f * delta = 1/2 turns the (+,-,+,-) row fully coherent: |G| = n
        f, delta = 100e6, 5e-9
        assert abs(desired_conversion_gain(f, delta, 0, 4)) == pytest.approx(4.0, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        f = np.linspace(-50e6, 50e6, 41)
        vec = desired_conversion_gain(f, 2e-9, 2, 4)
        scl = np.array([desired_conversion_gain(float(x), 2e-9, 2, 4) for x in f])
        np.testing.assert_allclose(vec, scl, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        log_n=st.integers(1, 8),
        row_frac=st.floats(0.0, 1.0, exclude_max=True),
        freqs=st.lists(st.floats(-11e9, 11e9), min_size=1, max_size=6),
        delay_frac=st.floats(-1.0, 1.0),
    )
    def test_horner_sum_matches_exp_term_loop(self, log_n, row_frac, freqs, delay_frac):
        # frequencies up to an RF carrier plus baseband, per-element delays
        # over the planner's 15 ns range
        n = 2**log_n
        row = int(row_frac * (n - 1))
        delta = delay_frac * 15e-9 / (n - 1)
        signs = hadamard(n)[row + 1].tolist()
        got = desired_conversion_gain(np.array(freqs), delta, row, n)
        for f, g in zip(freqs, got.tolist()):
            want = sum(s * cmath.exp(2j * math.pi * f * i * delta) for i, s in enumerate(signs))
            # each term has magnitude 1, so the bound scales with sum |s_i| = n;
            # near a null a relative bound means nothing
            assert abs(g - want) <= 1e-12 * sum(map(abs, signs))

    def test_row_range_checked(self):
        with pytest.raises(ValueError, match="row"):
            desired_conversion_gain(1e6, 1e-9, 3, 4)
        with pytest.raises(ValueError, match="row"):
            desired_conversion_gain(1e6, 1e-9, -1, 4)


class TestEqualize:
    def test_flat_gain_divides(self, monkeypatch):
        # every bin is divided by the row's gain, so a flat stand-in gain of
        # 2 halves the frame
        flat = lambda f, *_: np.full(np.shape(f), 2.0 + 0j)  # noqa: E731
        monkeypatch.setattr(ttd, "desired_conversion_gain", flat)
        fr = sample_element(tone(12.5e6), 0.0, 1e8, 64)
        out = equalize(fr, 1e8, 0, 1e-9)
        np.testing.assert_allclose(out, fr / 2.0, atol=1e-12)

    def test_gain_zero_at_every_bin_raises(self):
        # at zero delay G_r(f) is 0 at every bin, so the floor eps is 0 too
        fr = sample_element(tone(1e6), 0.0, 1e8, 16)
        with pytest.raises(ValueError, match="zero at every bin"):
            equalize(fr, 1e8, 0, 0.0)

    def test_gain_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return desired_conversion_gain(*args, **kwargs)

        monkeypatch.setattr(ttd, "desired_conversion_gain", counting)
        equalize(sample_element(tone(20e6), 0.0, 2e8, 256), 2e8, 1, 1e-9)
        assert len(calls) == 1

    def test_bin_aligned_roundtrip(self):
        # distort a bin-aligned tone through a row's conversion gain, then
        # invert it; bin alignment keeps the FFT leakage out of the picture
        fs, nsamp, delta, row = 2e8, 1024, 1.3e-9, 1
        f = 96 * fs / nsamp  # exactly on an FFT bin
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * f * i * delta), 0.0, fs, nsamp)
            for i in range(4)
        ]
        distorted = mac_apply(frames, truncated_hadamard(4))[row]
        recovered = equalize(distorted, fs, row, delta)
        ref = sample_element(tone(f), 0.0, fs, nsamp)
        assert np.max(np.abs(recovered - ref)) <= 1e-6

    def test_carrier_offset_roundtrip(self):
        # a phase ramp at f + f_c, as LO phasors leave on the desired signal,
        # is undone with the gain at f + f_c, and not with the gain at f
        fs, nsamp, delta, row, fc = 2e8, 1024, 2.347e-9, 0, 10e9
        f = 96 * fs / nsamp
        frames = [
            sample_element(tone(f) * np.exp(2j * np.pi * (f + fc) * i * delta), 0.0, fs, nsamp)
            for i in range(4)
        ]
        distorted = mac_apply(frames, truncated_hadamard(4))[row]
        ref = sample_element(tone(f), 0.0, fs, nsamp)
        recovered = equalize(distorted, fs, row, delta, offset_hz=fc)
        assert np.max(np.abs(recovered - ref)) <= 1e-6
        assert np.max(np.abs(equalize(distorted, fs, row, delta) - ref)) > 0.1

    def test_low_gain_bins_are_zeroed(self):
        # a tone parked on the structural DC null must come out as zero,
        # not as a divide-by-tiny blowup
        fs, nsamp = 2e8, 256
        fr = sample_element(tone(0.0), 0.0, fs, nsamp)
        out = equalize(fr, fs, 0, 1e-9)
        assert np.max(np.abs(out)) <= 1e-12

