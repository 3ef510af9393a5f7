"""Clock planning, sampling, matrix combining and equalization tests."""

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
    SampleFrame,
    ThmMatrix,
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

    def test_extended_offset_limit(self):
        c = ClockConfig(0, Quadrant.I_P, 5, offset_limit=7)
        assert config_total_delay(c) == pytest.approx(25e-9, rel=1e-12)


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

    @given(target=st.floats(0.0, 15e-9))
    @settings(max_examples=100, deadline=None)
    def test_plan_is_within_declared_range(self, target):
        c = plan_delay(target)
        assert 0.0 <= config_total_delay(c) <= 15e-9 * (1.0 + 1e-9)


def greedy_reference(target, max_offset):
    """The coarse-to-fine decomposition, one Python float at a time."""
    target = min(max(target, 0.0), (max_offset + 1) * 5e-9)
    offset = min(math.floor(target / 5e-9), max_offset)
    r1 = target - offset * 5e-9
    quadrant = min(math.floor(r1 / 1.25e-9), 3)
    rem = r1 - quadrant * 1.25e-9
    return min(max(math.floor(rem / 5e-12 + 0.5), 0), 255), quadrant, offset


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

    def test_total_over_range_rejected(self, monkeypatch):
        # with 7 ps steps the top quadrant rounds to 179 codes = 1.253 ns,
        # so a target at the range end would plan past it
        monkeypatch.setattr(ttd, "PI_STEP", 7e-12)
        with pytest.raises(ValueError, match="total delay .* exceeds range"):
            plan_delays([1e-9, 15e-9])


class TestSampleFrame:
    def test_times_and_len(self):
        fr = SampleFrame(np.zeros(4, complex), 2e8)
        assert len(fr) == 4
        np.testing.assert_allclose(fr.times(), np.arange(4) / 2e8)

    def test_scaled(self):
        fr = SampleFrame(np.ones(3, complex), 1e8, 1e-6)
        out = fr.scaled(2j)
        np.testing.assert_array_equal(out.samples, 2j * np.ones(3))
        assert out.sample_rate == 1e8
        assert out.start_time == 1e-6

    def test_samples_are_read_only(self):
        fr = SampleFrame(np.zeros(4, complex), 2e8)
        with pytest.raises(ValueError):
            fr.samples[0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sample_rate"):
            SampleFrame(np.zeros(4, complex), 0.0)
        with pytest.raises(ValueError, match="1-D"):
            SampleFrame(np.zeros((2, 2), complex), 1e8)
        with pytest.raises(ValueError, match="1-D"):
            SampleFrame(np.zeros(0, complex), 1e8)


class TestSampleElement:
    def test_clock_delay_advances_evaluation(self):
        # delaying a 50 MHz tone's clock by 5 ns multiplies samples by j
        base = sample_element(tone(50e6), 0.0, 2e8, 16)
        late = sample_element(tone(50e6), 5e-9, 2e8, 16)
        np.testing.assert_allclose(late.samples, 1j * base.samples, atol=1e-12)

    def test_clock_config_accepted(self):
        cfg = plan_delay(5e-9)
        a = sample_element(tone(50e6), cfg, 2e8, 16)
        b = sample_element(tone(50e6), 5e-9, 2e8, 16)
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)

    def test_matched_clock_realigns_delayed_arrival(self):
        # arrival late by d, clock late by d: reference stream comes back
        syms = map_qpsk(np.random.default_rng(3).integers(0, 2, 128))
        stream = Waveform(terms=(StreamTerm(syms, 16e6, center_freq=20e6),))
        d = 2.347e-9
        ref = sample_element(stream, 0.0, 2e8, 512)
        realigned = sample_element(stream.delayed(d), d, 2e8, 512)
        err = np.max(np.abs(realigned.samples - ref.samples))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(ref.samples)))

    def test_callable_signal(self):
        fr = sample_element(lambda t: t * 1e8, 0.0, 1e8, 4)
        np.testing.assert_allclose(fr.samples, [0, 1, 2, 3])

    def test_noise_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            sample_element(tone(1e6), 0.0, 1e8, 16, noise_rms=0.1)

    def test_noise_deterministic_and_scaled(self):
        a = sample_element(tone(0.0), 0.0, 1e8, 4096, noise_rms=0.1, seed=7)
        b = sample_element(tone(0.0), 0.0, 1e8, 4096, noise_rms=0.1, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        noise = a.samples - 1.0
        assert np.sqrt(np.mean(np.abs(noise) ** 2)) == pytest.approx(0.1, rel=0.05)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="sample count"):
            sample_element(tone(1e6), 0.0, 1e8, 0)


class TestTruncatedHadamard:
    def test_matches_scipy_sans_first_row(self):
        for n in (2, 4, 8, 16):
            m = truncated_hadamard(n)
            np.testing.assert_array_equal(m.rows, hadamard(n)[1:])

    def test_matches_direct_doubling_recursion(self):
        # independent construction: repeated Kronecker doubling
        core = np.array([[1, 1], [1, -1]])
        h = np.array([[1]])
        for _ in range(3):
            h = np.kron(h, core)
        np.testing.assert_array_equal(truncated_hadamard(8).rows, h[1:])

    def test_rows_sum_to_zero(self):
        for n in (2, 4, 8, 16, 32):
            assert np.all(truncated_hadamard(n).rows.sum(axis=1) == 0)

    def test_rows_orthogonal_and_unit_entries(self):
        for n in (2, 4, 8, 16):
            rows = truncated_hadamard(n).rows
            assert np.all(np.abs(rows) == 1)
            gram = rows @ rows.T
            np.testing.assert_array_equal(gram, n * np.eye(n - 1, dtype=np.int64))

    def test_order_validation(self):
        for bad in (1, 3, 6, 0):
            with pytest.raises(ValueError, match="power of 2"):
                truncated_hadamard(bad)

    def test_rows_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            ThmMatrix(4, np.ones((2, 4)))

    def test_rows_read_only(self):
        m = truncated_hadamard(4)
        with pytest.raises(ValueError):
            m.rows[0, 0] = -1

    def test_first_column_is_all_plus_one(self):
        # every row passes element 1 with weight +1, so element 1's frame is
        # each row's single-input reference
        for n in (2**k for k in range(1, 9)):
            assert np.all(truncated_hadamard(n).rows[:, 0] == 1), n


class TestMacApply:
    def test_identical_inputs_cancel(self):
        fr = sample_element(tone(13e6, phase=0.4), 0.0, 1e8, 64)
        outs = mac_apply([fr] * 4, truncated_hadamard(4))
        assert len(outs) == 3
        for out in outs:
            assert np.max(np.abs(out.samples)) == 0.0

    def test_single_active_element_scales_by_row_entry(self):
        fr = sample_element(tone(7e6), 0.0, 1e8, 32)
        zero = fr.scaled(0.0)
        m = truncated_hadamard(4)
        frames = [zero, zero, fr, zero]
        outs = mac_apply(frames, m)
        for r, out in enumerate(outs):
            np.testing.assert_allclose(out.samples, m.rows[r, 2] * fr.samples, atol=0)

    def test_only_first_element_driven_passes_it_exactly(self):
        fr = sample_element(tone(11e6, phase=0.3), 0.0, 1e8, 64)
        for n in (2, 4, 8):
            outs = mac_apply([fr] + [fr.scaled(0.0)] * (n - 1), truncated_hadamard(n))
            for out in outs:
                np.testing.assert_array_equal(out.samples, fr.samples)

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
            np.testing.assert_allclose(out.samples, g * base.samples, atol=1e-9)

    def test_frame_count_checked(self):
        fr = sample_element(tone(1e6), 0.0, 1e8, 8)
        with pytest.raises(ValueError, match="expected 4 frames"):
            mac_apply([fr, fr], truncated_hadamard(4))

    def test_metadata_mismatches_checked(self):
        m = truncated_hadamard(2)
        base = sample_element(tone(1e6), 0.0, 1e8, 8)
        with pytest.raises(ValueError, match="sample rates"):
            mac_apply([base, sample_element(tone(1e6), 0.0, 2e8, 8)], m)
        with pytest.raises(ValueError, match="lengths"):
            mac_apply([base, sample_element(tone(1e6), 0.0, 1e8, 9)], m)
        shifted = SampleFrame(base.samples, 1e8, start_time=1e-6)
        with pytest.raises(ValueError, match="start times"):
            mac_apply([base, shifted], m)


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
        out = equalize(fr, 0, 1e-9, eps=0.1)
        np.testing.assert_allclose(out.samples, fr.samples / 2.0, atol=1e-12)

    def test_eps_must_be_positive(self):
        fr = sample_element(tone(1e6), 0.0, 1e8, 16)
        with pytest.raises(ValueError, match="eps"):
            equalize(fr, 0, 1e-9, eps=0.0)
        # at zero delay G_r(f) is 0 at every bin, so the default eps is 0 too
        with pytest.raises(ValueError, match="eps"):
            equalize(fr, 0, 0.0)

    def test_gain_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return desired_conversion_gain(*args, **kwargs)

        monkeypatch.setattr(ttd, "desired_conversion_gain", counting)
        equalize(sample_element(tone(20e6), 0.0, 2e8, 256), 1, 1e-9)
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
        recovered = equalize(distorted, row, delta)
        ref = sample_element(tone(f), 0.0, fs, nsamp)
        assert np.max(np.abs(recovered.samples - ref.samples)) <= 1e-6

    def test_low_gain_bins_are_zeroed(self):
        # a tone parked on the structural DC null must come out as zero,
        # not as a divide-by-tiny blowup
        fs, nsamp = 2e8, 256
        fr = sample_element(tone(0.0), 0.0, fs, nsamp)
        out = equalize(fr, 0, 1e-9)
        assert np.max(np.abs(out.samples)) <= 1e-12

    def test_explicit_eps_overrides_default(self):
        fs, nsamp, delta, row = 2e8, 512, 1e-9, 0
        f = 48 * fs / nsamp
        fr = sample_element(tone(f), 0.0, fs, nsamp)
        g = abs(desired_conversion_gain(f, delta, row))
        assert g > 0.1
        kept = equalize(fr, row, delta, eps=0.9 * g)
        zeroed = equalize(fr, row, delta, eps=1.1 * g)
        assert np.max(np.abs(zeroed.samples)) <= 1e-12
        assert np.max(np.abs(kept.samples)) > 0.1