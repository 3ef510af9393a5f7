"""Scene construction, LO alignment and per-element synthesis tests."""

import numpy as np
import pytest

from helpers import tone
from spica import (
    Scene,
    SceneMode,
    SourceSpec,
    Waveform,
    element_signal,
    experiments,
    sample_element,
)

N, FC = 4, 1e9
# A half-wavelength array's inter-element delay for a source at 45 degrees:
# 0.5 * sin(45 deg) / 1 GHz, worked out by hand
DT_45 = 3.5355339059327378e-10


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_elements"):
            Scene(1, FC, SourceSpec(tone(1e6)))
        with pytest.raises(ValueError, match="carrier"):
            Scene(N, -1e9, SourceSpec(tone(1e6)))
        with pytest.raises(ValueError, match="carrier"):
            Scene(N, 0.0, SourceSpec(tone(1e6)))


class TestSceneConstruction:
    def test_mismatch_defaults_to_unity(self):
        sc = Scene(N, FC, SourceSpec(tone(1e6)))
        assert sc.element_mismatch == (1.0 + 0.0j,) * 4
        assert sc.undesired == ()
        assert sc.mode is SceneMode.BB_DIRECT

    def test_mismatch_length_checked(self):
        with pytest.raises(ValueError, match="element_mismatch"):
            Scene(N, FC, SourceSpec(tone(1e6)), element_mismatch=(1.0, 1.0))

    def test_source_delay_sets_arrivals(self):
        sc = Scene(N, FC, SourceSpec(tone(1e6)), (SourceSpec(tone(2e6), -1.25e-9),))
        tau, rot = sc.arrivals()
        np.testing.assert_array_equal(tau, [[0.0] * 4, np.arange(4) * -1.25e-9])
        np.testing.assert_array_equal(rot, np.ones((2, 4)))


class TestElementSignal:
    def test_index_range(self):
        sc = Scene(N, FC, SourceSpec(tone(1e6)))
        with pytest.raises(ValueError, match="out of range"):
            element_signal(sc, 0)
        with pytest.raises(ValueError, match="out of range"):
            element_signal(sc, 5)

    def test_first_element_is_undelayed(self):
        w = tone(50e6, phase=0.3)
        sc = Scene(N, FC, SourceSpec(w, DT_45))
        t = np.linspace(0.0, 1e-7, 33)
        np.testing.assert_allclose(element_signal(sc, 1).eval(t), w.eval(t), atol=0)

    def test_bb_direct_delay_is_baseband_rotation(self):
        # a pure baseband tone delayed by k*dt picks up exp(-j*2*pi*f*k*dt)
        f = 50e6
        sc = Scene(N, FC, SourceSpec(tone(f), DT_45))
        t = np.linspace(0.0, 1e-7, 33)
        got = element_signal(sc, 3).eval(t)
        expected = tone(f).eval(t) * np.exp(-2j * np.pi * f * 2 * DT_45)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rf_derived_adds_carrier_rotation(self):
        f = 50e6
        sc = Scene(N, FC, SourceSpec(tone(f), DT_45), mode=SceneMode.RF_DERIVED)
        t = np.linspace(0.0, 1e-7, 33)
        got = element_signal(sc, 2).eval(t)
        expected = tone(f).eval(t - DT_45) * np.exp(-2j * np.pi * FC * DT_45)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # carrier phase step for d/lambda = 0.5 at 45 degrees, by hand:
        # 2*pi*0.5*sin(45 deg) = 2.2214414690791831 rad
        ratio = got[0] / tone(f).eval(np.array([-DT_45]))[0]
        assert np.angle(ratio) == pytest.approx(-2.2214414690791831, abs=1e-12)

    def test_superposition_of_sources(self):
        des = SourceSpec(tone(2e6, amp=0.5), 8.7e-11)
        ud1 = SourceSpec(tone(40e6), DT_45)
        ud2 = SourceSpec(tone(-30e6, phase=1.0), -1.71e-10)
        sc = Scene(N, FC, des, undesired=(ud1, ud2))
        t = np.linspace(0.0, 1e-6, 65)
        i = 4
        acc = np.zeros(t.shape, complex)
        for src, tau in zip((des, ud1, ud2), sc.arrivals()[0][:, i - 1]):
            acc += src.waveform.eval(t - tau)
        np.testing.assert_allclose(element_signal(sc, i).eval(t), acc, atol=1e-12)

    def test_element_mismatch_scales_output(self):
        sc = Scene(N, FC, SourceSpec(tone(5e6), 1.71e-10), element_mismatch=(1.0, 0.5j, 1.0, 1.0))
        ref = Scene(N, FC, SourceSpec(tone(5e6), 1.71e-10))
        t = np.linspace(0.0, 1e-6, 17)
        np.testing.assert_allclose(
            element_signal(sc, 2).eval(t),
            0.5j * element_signal(ref, 2).eval(t),
            atol=1e-15,
        )


def scene_frames(sc, fs=1e9, n=16):
    """The runners' element frames of ``sc`` at undelayed clocks: LO-aligned in RF_DERIVED."""
    [frames] = experiments._scene_frames(sc, [([0.0] * N, [()])], fs, n)
    return frames


def direct_frames(sc, fs=1e9, n=16):
    """Each element's received signal sampled on its own, with no LO phasor."""
    return [sample_element(element_signal(sc, i), 0.0, fs, n) for i in range(1, N + 1)]


class TestLoAlign:
    """The runners' LO alignment: the conjugate of the first interferer's carrier rotations."""

    def rf_scene(self, desired=tone(2e6)):
        return Scene(N, FC, SourceSpec(desired), (SourceSpec(tone(0.0), DT_45),),
                     mode=SceneMode.RF_DERIVED)

    def test_requires_rf_mode(self):
        sc = Scene(N, FC, SourceSpec(tone(1e6)), undesired=(SourceSpec(tone(0.0), DT_45),))
        np.testing.assert_array_equal(scene_frames(sc), direct_frames(sc))

    def test_phasor_values(self):
        sc = self.rf_scene()
        # carrier phase step for d/lambda = 0.5 at 45 degrees, by hand:
        # 2*pi*0.5*sin(45 deg) = 2.2214414690791831 rad
        phasors = np.exp(1j * 2.2214414690791831 * np.arange(4))
        want = phasors[:, None] * np.array(direct_frames(sc))
        np.testing.assert_allclose(scene_frames(sc), want, rtol=0, atol=1e-12)

    def test_aligned_dc_tone_is_equal_across_elements(self):
        # after alignment a zero-frequency interferer looks identical at
        # every element, which is what makes the sign-flip sum cancel it
        frames = scene_frames(self.rf_scene(desired=Waveform()))
        assert np.max(np.abs(frames[0])) == pytest.approx(1.0)
        for frame in frames[1:]:
            np.testing.assert_allclose(frame, frames[0], rtol=0, atol=1e-12)

    def test_no_undesired(self):
        # with no interferer to align, a delayed desired source keeps its own rotation
        sc = Scene(N, FC, SourceSpec(tone(1e6), DT_45), mode=SceneMode.RF_DERIVED)
        np.testing.assert_array_equal(scene_frames(sc), direct_frames(sc))
