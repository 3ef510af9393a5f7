"""Array geometry and scene construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spica import (
    ArrayGeometry,
    Scene,
    SceneMode,
    SourceSpec,
    ToneTerm,
    Waveform,
    aoa_to_delay,
    element_signal,
    lo_align,
)


def tone(freq, amp=1.0, phase=0.0):
    return Waveform(terms=(ToneTerm(amp, freq, phase),))


GEO = ArrayGeometry(n_elements=4, spacing_over_lambda=0.5, carrier_freq=1e9)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_elements"):
            ArrayGeometry(1, 0.5, 1e9)
        with pytest.raises(ValueError, match="spacing"):
            ArrayGeometry(4, 0.0, 1e9)
        with pytest.raises(ValueError, match="carrier"):
            ArrayGeometry(4, 0.5, -1e9)

    def test_source_angle_validation(self):
        with pytest.raises(ValueError, match="aoa_deg"):
            SourceSpec(tone(0.0), aoa_deg=91.0)


class TestAoaToDelay:
    def test_broadside_is_zero(self):
        assert aoa_to_delay(GEO, 0.0) == 0.0

    def test_endfire_is_spacing_over_carrier(self):
        assert aoa_to_delay(GEO, 90.0) == pytest.approx(0.5 / 1e9, rel=1e-12)

    def test_45_degrees(self):
        # 0.5 * sin(45 deg) / 1 GHz, worked out by hand
        assert aoa_to_delay(GEO, 45.0) == pytest.approx(3.5355339059327378e-10, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            aoa_to_delay(GEO, 90.5)

    @given(theta=st.floats(0.0, 90.0))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric(self, theta):
        assert aoa_to_delay(GEO, -theta) == -aoa_to_delay(GEO, theta)


class TestSceneConstruction:
    def test_mismatch_defaults_to_unity(self):
        sc = Scene(GEO, SourceSpec(tone(1e6)))
        assert sc.element_mismatch == (1.0 + 0.0j,) * 4
        assert sc.undesired == ()
        assert sc.mode is SceneMode.BB_DIRECT

    def test_mismatch_length_checked(self):
        with pytest.raises(ValueError, match="element_mismatch"):
            Scene(GEO, SourceSpec(tone(1e6)), element_mismatch=(1.0, 1.0))

    def test_explicit_delay_override_wins(self):
        src = SourceSpec(tone(1e6), aoa_deg=30.0, explicit_delay_override=1.25e-9)
        sc = Scene(GEO, src)
        np.testing.assert_array_equal(sc.arrivals()[0], [np.arange(4) * 1.25e-9])

    def test_override_matches_equivalent_angle_exactly(self):
        dt = aoa_to_delay(GEO, 37.0)
        by_angle = Scene(GEO, SourceSpec(tone(3e6), aoa_deg=37.0))
        by_delay = Scene(GEO, SourceSpec(tone(3e6), explicit_delay_override=dt))
        t = np.linspace(0.0, 1e-6, 257)
        for i in (1, 2, 3, 4):
            a = element_signal(by_angle, i).eval(t)
            b = element_signal(by_delay, i).eval(t)
            np.testing.assert_array_equal(a, b)


class TestElementSignal:
    def test_index_range(self):
        sc = Scene(GEO, SourceSpec(tone(1e6)))
        with pytest.raises(ValueError, match="out of range"):
            element_signal(sc, 0)
        with pytest.raises(ValueError, match="out of range"):
            element_signal(sc, 5)

    def test_first_element_is_undelayed(self):
        w = tone(50e6, phase=0.3)
        sc = Scene(GEO, SourceSpec(w, aoa_deg=45.0))
        t = np.linspace(0.0, 1e-7, 33)
        np.testing.assert_allclose(element_signal(sc, 1).eval(t), w.eval(t), atol=0)

    def test_bb_direct_delay_is_baseband_rotation(self):
        # a pure baseband tone delayed by k*dt picks up exp(-j*2*pi*f*k*dt)
        f = 50e6
        sc = Scene(GEO, SourceSpec(tone(f), aoa_deg=45.0))
        dt = aoa_to_delay(GEO, 45.0)
        t = np.linspace(0.0, 1e-7, 33)
        got = element_signal(sc, 3).eval(t)
        expected = tone(f).eval(t) * np.exp(-2j * np.pi * f * 2 * dt)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rf_derived_adds_carrier_rotation(self):
        f = 50e6
        sc = Scene(GEO, SourceSpec(tone(f), aoa_deg=45.0), mode=SceneMode.RF_DERIVED)
        dt = aoa_to_delay(GEO, 45.0)
        t = np.linspace(0.0, 1e-7, 33)
        got = element_signal(sc, 2).eval(t)
        expected = tone(f).eval(t - dt) * np.exp(-2j * np.pi * GEO.carrier_freq * dt)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # carrier phase step for d/lambda = 0.5 at 45 degrees, by hand:
        # 2*pi*0.5*sin(45 deg) = 2.2214414690791831 rad
        ratio = got[0] / tone(f).eval(np.array([-dt]))[0]
        assert np.angle(ratio) == pytest.approx(-2.2214414690791831, abs=1e-12)

    def test_superposition_of_sources(self):
        des = SourceSpec(tone(2e6, amp=0.5), aoa_deg=10.0)
        ud1 = SourceSpec(tone(40e6), aoa_deg=45.0)
        ud2 = SourceSpec(tone(-30e6, phase=1.0), aoa_deg=-20.0)
        sc = Scene(GEO, des, undesired=(ud1, ud2))
        t = np.linspace(0.0, 1e-6, 65)
        i = 4
        acc = np.zeros(t.shape, complex)
        for src, tau in zip((des, ud1, ud2), sc.arrivals()[0][:, i - 1]):
            acc += src.waveform.eval(t - tau)
        np.testing.assert_allclose(element_signal(sc, i).eval(t), acc, atol=1e-12)

    def test_element_mismatch_scales_output(self):
        sc = Scene(
            GEO,
            SourceSpec(tone(5e6), aoa_deg=20.0),
            element_mismatch=(1.0, 0.5j, 1.0, 1.0),
        )
        ref = Scene(GEO, SourceSpec(tone(5e6), aoa_deg=20.0))
        t = np.linspace(0.0, 1e-6, 17)
        np.testing.assert_allclose(
            element_signal(sc, 2).eval(t),
            0.5j * element_signal(ref, 2).eval(t),
            atol=1e-15,
        )


class TestLoAlign:
    def rf_scene(self, theta_ud=45.0):
        des = SourceSpec(tone(2e6), aoa_deg=0.0)
        ud = SourceSpec(tone(0.0), aoa_deg=theta_ud)
        return Scene(GEO, des, undesired=(ud,), mode=SceneMode.RF_DERIVED)

    def test_requires_rf_mode(self):
        sc = Scene(GEO, SourceSpec(tone(1e6)), undesired=(SourceSpec(tone(0.0), aoa_deg=45.0),))
        with pytest.raises(ValueError, match="RF_DERIVED"):
            lo_align(sc)

    def test_phasor_values(self):
        ph = lo_align(self.rf_scene())
        step = 2.2214414690791831
        np.testing.assert_allclose(ph, np.exp(1j * step * np.arange(4)), atol=1e-12)
        np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-15)

    def test_aligned_dc_tone_is_equal_across_elements(self):
        # after alignment a zero-frequency interferer looks identical at
        # every element, which is what makes the sign-flip sum cancel it
        sc = self.rf_scene()
        ph = lo_align(sc)
        t = np.linspace(0.0, 1e-6, 9)
        vals = [ph[i - 1] * element_signal(sc, i).eval(t) for i in (1, 2, 3, 4)]
        # strip the desired source by using a desired-free comparison scene
        only_ud = Scene(
            GEO, sc.undesired[0], mode=SceneMode.RF_DERIVED
        )
        ud_vals = [ph[i - 1] * element_signal(only_ud, i).eval(t) for i in (1, 2, 3, 4)]
        for v in ud_vals[1:]:
            np.testing.assert_allclose(v, ud_vals[0], atol=1e-12)
        assert len(vals) == 4

    def test_no_undesired(self):
        sc = Scene(GEO, SourceSpec(tone(1e6)), mode=SceneMode.RF_DERIVED)
        with pytest.raises(ValueError, match="no undesired"):
            lo_align(sc)
