"""Phase-shift cancellation tests: closed-form leakage and the sample combiner."""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spica import (
    ArrayGeometry,
    PsCancelPlan,
    SampleFrame,
    Scene,
    SceneMode,
    SourceSpec,
    ToneTerm,
    Waveform,
    alternating_signs,
    aoa_to_delay,
    element_signal,
    ps_cancel_stream,
    ps_residual_gain,
    sample_element,
)

THETA = 45.0
DOL = 0.5
ALIGN_45 = 2.221441469079183  # 2*pi*0.5*sin(45 deg)


def test_alternating_signs():
    assert alternating_signs(4) == (1, -1, 1, -1)
    assert alternating_signs(2) == (1, -1)
    assert alternating_signs(1) == (1,)


class TestPlanValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of 2"):
            PsCancelPlan(3, 0.0, (1, -1, 1))

    def test_signs_length(self):
        with pytest.raises(ValueError, match="signs length"):
            PsCancelPlan(4, 0.0, (1, -1))

    def test_signs_values(self):
        with pytest.raises(ValueError, match="only"):
            PsCancelPlan(2, 0.0, (1, 0))

    def test_signs_balance(self):
        with pytest.raises(ValueError, match="balance"):
            PsCancelPlan(4, 0.0, (1, 1, 1, -1))

    def test_single_element_plan_rejected(self):
        # one element has no balanced sign pattern, so it cannot cancel
        with pytest.raises(ValueError, match="power of 2 >= 2"):
            PsCancelPlan(1, 0.0, (1,))

    def test_for_angle(self):
        plan = PsCancelPlan.for_angle(4, THETA, DOL)
        assert plan.align_phase == pytest.approx(ALIGN_45, rel=1e-14)
        assert plan.signs == (1, -1, 1, -1)


def test_align_phase_matches_plan_and_ignores_carrier():
    # oracle: the carrier phase 2*pi*f_c*delta_t of the interferer's
    # inter-element delay, which reduces to 2*pi*(d/lambda)*sin(theta)
    align = PsCancelPlan.for_angle(4, THETA, DOL).align_phase
    assert align == pytest.approx(ALIGN_45, rel=1e-12)
    for carrier in (1e9, 28e9):
        g = ArrayGeometry(4, DOL, carrier)
        oracle = 2.0 * np.pi * carrier * aoa_to_delay(g, THETA)
        assert align == pytest.approx(oracle, rel=1e-12)


class TestResidualGain:
    @given(
        n_exp=st.integers(1, 8),
        theta=st.floats(-90.0, 90.0),
        dol=st.floats(0.1, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_null_at_carrier(self, n_exp, theta, dol):
        # matched alignment cancels identically at f_norm = 1: the phase
        # step is the difference of bit-identical floats, so the sum of a
        # balanced sign pattern is exactly zero
        plan = PsCancelPlan.for_angle(2**n_exp, theta, dol)
        assert ps_residual_gain(plan, 1.0, theta, dol) == 0j

    @given(
        n_exp=st.integers(1, 8),
        f_norm=st.floats(0.5, 1.5),
        theta=st.floats(-90.0, 90.0),
        dol=st.floats(0.1, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_alternating_matches_geometric_closed_form(self, n_exp, f_norm, theta, dol):
        # sum_i (-z)**i = (1 - z**n) / (1 + z) for even n
        n = 2**n_exp
        plan = PsCancelPlan.for_angle(n, theta, dol)
        # for_angle's align_phase is the interferer's arrival phase step
        z = cmath.exp(1j * (plan.align_phase - f_norm * plan.align_phase))
        assume(abs(1.0 + z) > 1e-3)
        expected = (1.0 - z**n) / (1.0 + z)
        got = ps_residual_gain(plan, f_norm, theta, dol)
        assert abs(got - expected) <= 1e-12 * n / abs(1.0 + z)

    @given(
        signs=st.integers(1, 8).flatmap(
            lambda k: st.permutations([1, -1] * 2 ** (k - 1))
        ),
        f_norms=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
        align=st.floats(-np.pi, np.pi),
        theta=st.floats(-90.0, 90.0),
        dol=st.floats(0.1, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_balanced_pattern_matches_scalar_loop(
        self, signs, f_norms, align, theta, dol
    ):
        n = len(signs)
        plan = PsCancelPlan(n, align, tuple(signs))
        arrival = 2.0 * np.pi * dol * np.sin(np.radians(theta))
        got = ps_residual_gain(plan, np.array(f_norms), theta, dol)
        for f_norm, value in zip(f_norms, got):
            step = align - f_norm * arrival
            expected = sum(s * cmath.exp(1j * i * step) for i, s in enumerate(signs))
            assert abs(value - expected) <= 1e-12 * n

    def test_memory_linear_in_points(self):
        # 50,001 complex points take 0.8 MB; anything shaped (points x n)
        # at n = 256 would take 205 MB
        plan = PsCancelPlan.for_angle(256, THETA, DOL)
        grid = np.linspace(0.9, 1.1, 50_001)
        tracemalloc.start()
        try:
            ps_residual_gain(plan, grid, THETA, DOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_frozen_leakage_values(self):
        # magnitudes worked out independently with a scalar cmath loop
        cases = {
            (4, 1.1): 0.4324803926860248,
            (16, 1.1): 0.984852697032177,
            (4, 1.02): 0.08876267333653524,
            (16, 1.02): 0.3480799982039085,
            (64, 1.02): 0.989153119113138,
        }
        for (n, f_norm), expected in cases.items():
            plan = PsCancelPlan.for_angle(n, THETA, DOL)
            got = abs(ps_residual_gain(plan, f_norm, THETA, DOL))
            assert got == pytest.approx(expected, rel=1e-12), (n, f_norm)

    def test_full_array_rejection_at_band_edge(self):
        plan = PsCancelPlan.for_angle(4, THETA, DOL)
        leak = abs(ps_residual_gain(plan, 1.1, THETA, DOL))
        rej_db = 20.0 * np.log10(4.0 / leak)
        assert rej_db == pytest.approx(19.321871372798824, abs=1e-9)

    def test_leakage_worsens_with_element_count_off_carrier(self):
        leaks = [
            abs(ps_residual_gain(PsCancelPlan.for_angle(n, THETA, DOL), 1.02, THETA, DOL))
            for n in (4, 16, 64)
        ]
        assert leaks[0] < leaks[1] < leaks[2]

    def test_vectorized_matches_scalar(self):
        plan = PsCancelPlan.for_angle(8, THETA, DOL)
        grid = np.linspace(0.9, 1.1, 21)
        vec = ps_residual_gain(plan, grid, THETA, DOL)
        scl = np.array([ps_residual_gain(plan, float(f), THETA, DOL) for f in grid])
        np.testing.assert_allclose(vec, scl, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_monotone_in_offset_inside_main_lobe(self, n):
        # leakage grows monotonically while the frequency offset stays
        # inside the null's main lobe, which narrows as 1/n; past it the
        # array factor ripples and monotonicity genuinely breaks down
        plan = PsCancelPlan.for_angle(n, THETA, DOL)
        lim = min(0.1, 1.2 / n)
        offsets = np.linspace(0.0, lim, 2001)
        up = np.abs(ps_residual_gain(plan, 1.0 + offsets, THETA, DOL))
        down = np.abs(ps_residual_gain(plan, 1.0 - offsets, THETA, DOL))
        assert np.all(np.diff(up) > -1e-12)
        assert np.all(np.diff(down) > -1e-12)

    def test_depends_only_on_projected_spacing(self):
        # dol * sin(theta) is the only geometry input, so trading angle for
        # spacing leaves the leakage unchanged
        a = PsCancelPlan.for_angle(8, 45.0, 0.5)
        b = PsCancelPlan.for_angle(8, 30.0, 0.5 * np.sin(np.radians(45.0)) / 0.5)
        ga = ps_residual_gain(a, 1.07, 45.0, 0.5)
        gb = ps_residual_gain(b, 1.07, 30.0, 0.5 * np.sin(np.radians(45.0)) / 0.5)
        assert ga == pytest.approx(gb, rel=1e-9)


def _element_frames(scene, fs, n_samples):
    return [
        sample_element(element_signal(scene, i), 0.0, fs, n_samples)
        for i in range(1, scene.geometry.n_elements + 1)
    ]


class TestCancelStream:
    def rf_scene(self, n, f_bb, fc=1e9):
        g = ArrayGeometry(n, DOL, fc)
        ud = SourceSpec(Waveform(terms=(ToneTerm(1.0, f_bb),)), aoa_deg=THETA)
        # desired is not part of these checks; park it at broadside, zero amp
        des = SourceSpec(Waveform(terms=(ToneTerm(0.0, 0.0),)), aoa_deg=0.0)
        return Scene(g, des, undesired=(ud,), mode=SceneMode.RF_DERIVED)

    def test_carrier_aligned_tone_cancels(self):
        # f_bb = 0 means the interferer sits exactly at the carrier
        sc = self.rf_scene(4, 0.0)
        plan = PsCancelPlan.for_angle(4, THETA, DOL)
        frames = _element_frames(sc, 1e9, 64)
        out = ps_cancel_stream(frames, plan)
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_offset_tone_matches_closed_form(self):
        # dual route: sample-domain combiner vs the analytic leakage gain
        fc = 1e9
        f_bb = 0.1 * fc  # f_norm = 1.1
        sc = self.rf_scene(4, f_bb, fc)
        plan = PsCancelPlan.for_angle(4, THETA, DOL)
        frames = _element_frames(sc, 1e9, 256)
        out = ps_cancel_stream(frames, plan)
        measured = np.mean(np.abs(out.samples))
        expected = abs(ps_residual_gain(plan, 1.1, THETA, DOL))
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_frame_count_checked(self):
        plan = PsCancelPlan.for_angle(4, THETA, DOL)
        frame = sample_element(Waveform(), 0.0, 1e8, 16)
        with pytest.raises(ValueError, match="expected 4 frames"):
            ps_cancel_stream([frame, frame], plan)

    def test_metadata_mismatches_checked(self):
        plan = PsCancelPlan(2, 0.0, (1, -1))
        base = sample_element(Waveform(), 0.0, 1e8, 16)
        other_rate = sample_element(Waveform(), 0.0, 2e8, 16)
        other_len = sample_element(Waveform(), 0.0, 1e8, 17)
        with pytest.raises(ValueError, match="sample rates"):
            ps_cancel_stream([base, other_rate], plan)
        with pytest.raises(ValueError, match="lengths"):
            ps_cancel_stream([base, other_len], plan)
        shifted = SampleFrame(base.samples, 1e8, start_time=1e-6)
        with pytest.raises(ValueError, match="start times"):
            ps_cancel_stream([base, shifted], plan)