"""Phase-shift cancellation tests: closed-form leakage and the sample combiner."""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import frames_by_loop
from spica import (
    ExperimentConfig,
    Scene,
    SceneMode,
    SourceSpec,
    ToneTerm,
    Waveform,
    experiments,
    ps_residual_gain,
    sample_element,
)

THETA = 45.0
DOL = 0.5
ALIGN_45 = 2.221441469079183  # 2*pi*0.5*sin(45 deg)


def align_phase(theta, dol):
    """The carrier phase step 2*pi*(d/lambda)*sin(theta) between elements, in radians."""
    return 2.0 * np.pi * dol * np.sin(np.radians(theta))


def test_alternating_signs():
    # at z = -1 every term of sum_i s_i * z**i is s_i * (-1)**i, so the sum
    # reaches n only for the signs (+1, -1, +1, -1, ...)
    assert ps_residual_gain(4, 0.0, np.pi) == pytest.approx(4.0, rel=1e-12)
    assert ps_residual_gain(2, 0.0, np.pi) == pytest.approx(2.0, rel=1e-12)


class TestPlanValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of 2"):
            ps_residual_gain(3, 1.0, 0.0)

    def test_single_element_plan_rejected(self):
        # one element has no balanced sign pattern, so it cannot cancel
        with pytest.raises(ValueError, match="power of 2 >= 2"):
            ps_residual_gain(1, 1.0, 0.0)

    def test_for_angle(self):
        # the leakage runner aligns every element count to the angle's phase step
        _, derived = _leakage_run(THETA, DOL)
        want = {"align_phase_rad_n4": ALIGN_45, "align_phase_rad_n8": ALIGN_45}
        assert derived == pytest.approx(want, rel=1e-14)


def _leakage_run(theta, dol):
    """The PS_LEAKAGE runner's tables and derived values at one angle and spacing."""
    cfg = ExperimentConfig.from_dict({
        "experiment": "PS_LEAKAGE", "theta_ud_deg": theta, "d_over_lambda": dol,
        "ps_n_elements": [4, 8], "fnorm_start": 0.9, "fnorm_stop": 1.1, "fnorm_count": 21,
    })
    return experiments._run_ps_leakage(cfg)


def test_align_phase_matches_plan_and_ignores_carrier():
    # oracle: the carrier phase 2*pi*f_c*delta_t of the interferer's
    # inter-element delay, which reduces to 2*pi*(d/lambda)*sin(theta)
    align = _leakage_run(THETA, DOL)[1]["align_phase_rad_n4"]
    assert align == pytest.approx(ALIGN_45, rel=1e-12)
    for carrier in (1e9, 28e9):
        delta = DOL * np.sin(np.radians(THETA)) / carrier
        oracle = 2.0 * np.pi * carrier * delta
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
        assert ps_residual_gain(2**n_exp, 1.0, align_phase(theta, dol)) == 0j

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
        align = align_phase(theta, dol)
        z = cmath.exp(1j * (align - f_norm * align))
        assume(abs(1.0 + z) > 1e-3)
        expected = (1.0 - z**n) / (1.0 + z)
        got = ps_residual_gain(n, f_norm, align)
        assert abs(got - expected) <= 1e-12 * n / abs(1.0 + z)

    @given(
        n=st.integers(1, 8).map(lambda k: 2**k),
        f_norms=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
        align=st.floats(-4 * np.pi, 4 * np.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_balanced_pattern_matches_scalar_loop(self, n, f_norms, align):
        signs = [(-1) ** i for i in range(n)]
        got = ps_residual_gain(n, np.array(f_norms), align)
        for f_norm, value in zip(f_norms, got):
            step = align - f_norm * align
            expected = sum(s * cmath.exp(1j * i * step) for i, s in enumerate(signs))
            assert abs(value - expected) <= 1e-12 * n

    def test_memory_linear_in_points(self):
        # 50,001 complex points take 0.8 MB; anything shaped (points x n)
        # at n = 256 would take 205 MB
        grid = np.linspace(0.9, 1.1, 50_001)
        tracemalloc.start()
        try:
            ps_residual_gain(256, grid, ALIGN_45)
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
            got = abs(ps_residual_gain(n, f_norm, ALIGN_45))
            assert got == pytest.approx(expected, rel=1e-12), (n, f_norm)

    def test_full_array_rejection_at_band_edge(self):
        leak = abs(ps_residual_gain(4, 1.1, ALIGN_45))
        rej_db = 20.0 * np.log10(4.0 / leak)
        assert rej_db == pytest.approx(19.321871372798824, abs=1e-9)

    def test_leakage_worsens_with_element_count_off_carrier(self):
        leaks = [abs(ps_residual_gain(n, 1.02, ALIGN_45)) for n in (4, 16, 64)]
        assert leaks[0] < leaks[1] < leaks[2]

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(0.9, 1.1, 21)
        vec = ps_residual_gain(8, grid, ALIGN_45)
        scl = np.array([ps_residual_gain(8, float(f), ALIGN_45) for f in grid])
        np.testing.assert_allclose(vec, scl, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_monotone_in_offset_inside_main_lobe(self, n):
        # leakage grows monotonically while the frequency offset stays
        # inside the null's main lobe, which narrows as 1/n; past it the
        # array factor ripples and monotonicity genuinely breaks down
        lim = min(0.1, 1.2 / n)
        offsets = np.linspace(0.0, lim, 2001)
        up = np.abs(ps_residual_gain(n, 1.0 + offsets, ALIGN_45))
        down = np.abs(ps_residual_gain(n, 1.0 - offsets, ALIGN_45))
        assert np.all(np.diff(up) > -1e-12)
        assert np.all(np.diff(down) > -1e-12)

    def test_depends_only_on_projected_spacing(self):
        # dol * sin(theta) is the only geometry input, so trading angle for
        # spacing leaves the runner's leakage unchanged
        _, a = _leakage_run(45.0, 0.5)[0][""]
        _, b = _leakage_run(30.0, 0.5 * np.sin(np.radians(45.0)) / 0.5)[0][""]
        assert len(a) == len(b) == 2
        for block_a, block_b in zip(a, b):
            np.testing.assert_allclose(block_a[2], block_b[2], rtol=1e-9)


def ps_cancel_stream(frames, align_phase: float) -> np.ndarray:
    """Sample-domain oracle for ps_residual_gain: the phase-aligned combination.

    output[k] = sum_i (-1)**i * exp(j*i*align_phase) * frames[i][k], over
    n = len(frames) equal-shape frames, each ``(n,)`` or a ``(k, n)`` tone chunk.
    """
    stack = np.moveaxis(np.stack(frames), 0, -2)
    idx = np.arange(len(frames))
    weights = (-1.0) ** idx * np.exp(1j * idx * align_phase)
    return weights @ stack


def _element_frames(scene, fs, n_samples):
    return frames_by_loop(scene, [0.0] * scene.n_elements, fs, n_samples)


class TestCancelStream:
    def rf_scene(self, n, f_bb, fc=1e9):
        # the interferer's delay for a half-wavelength array at 45 degrees
        delta = DOL * np.sin(np.radians(THETA)) / fc
        ud = SourceSpec(Waveform(terms=(ToneTerm(1.0, f_bb),)), delta)
        # desired is not part of these checks; park it at broadside, zero amp
        des = SourceSpec(Waveform(terms=(ToneTerm(0.0, 0.0),)))
        return Scene(n, fc, des, undesired=(ud,), mode=SceneMode.RF_DERIVED)

    def test_carrier_aligned_tone_cancels(self):
        # f_bb = 0 means the interferer sits exactly at the carrier
        sc = self.rf_scene(4, 0.0)
        frames = _element_frames(sc, 1e9, 64)
        out = ps_cancel_stream(frames, ALIGN_45)
        assert np.max(np.abs(out)) < 1e-12

    def test_offset_tone_matches_closed_form(self):
        # dual route: sample-domain combiner vs the analytic leakage gain
        fc = 1e9
        f_bb = 0.1 * fc  # f_norm = 1.1
        sc = self.rf_scene(4, f_bb, fc)
        frames = _element_frames(sc, 1e9, 256)
        out = ps_cancel_stream(frames, ALIGN_45)
        measured = np.mean(np.abs(out))
        expected = abs(ps_residual_gain(4, 1.1, ALIGN_45))
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_tone_chunk_combines_over_elements(self):
        # four tones at four elements: each tone combines as it would alone
        freqs = np.array([1e6, 7e6, 13e6, 29e6])
        chunk = Waveform(terms=(ToneTerm(1.0, freqs[:, None]),))
        frames = [sample_element(chunk, i * 1e-9, 1e8, 32) for i in range(4)]
        out = ps_cancel_stream(frames, ALIGN_45)
        assert out.shape == (4, 32)
        for k in range(4):
            one = ps_cancel_stream([fr[k] for fr in frames], ALIGN_45)
            np.testing.assert_array_equal(out[k], one)

