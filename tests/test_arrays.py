"""Scene construction, LO alignment and scene synthesis tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frames_by_loop, tone
from spica import (
    Scene,
    SceneMode,
    SourceSpec,
    StreamTerm,
    ToneTerm,
    Waveform,
    element_signal,
    experiments,
    map_qpsk,
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


FS, NS = 3.2e8, 33
T = np.arange(NS) / FS  # the undelayed clock's instants


def sampled(sc, delays=(0.0,) * N):
    return element_signal(sc, list(delays), FS, NS)


class TestElementSignal:
    def test_delay_count_checked(self):
        sc = Scene(N, FC, SourceSpec(tone(1e6)))
        with pytest.raises(ValueError, match="3 clock delays for 4 elements"):
            element_signal(sc, [0.0] * 3, FS, NS)
        with pytest.raises(ValueError, match="5 clock delays for 4 elements"):
            element_signal(sc, [0.0] * 5, FS, NS)

    def test_first_element_is_undelayed(self):
        w = tone(50e6, phase=0.3)
        sc = Scene(N, FC, SourceSpec(w, DT_45))
        np.testing.assert_array_equal(sampled(sc)[0], w.eval(T))

    def test_clock_delay_advances_every_source(self):
        # element i clocked d late samples each source at t + d - tau
        des, ud = SourceSpec(tone(2e6, amp=0.5), 8.7e-11), SourceSpec(tone(40e6), DT_45)
        sc = Scene(N, FC, des, undesired=(ud,))
        delays = [0.0, 1.3e-9, 2.6e-9, -4e-10]
        got = sampled(sc, delays)
        for i, d in enumerate(delays):
            want = des.waveform.eval(T + d - i * des.delay) + ud.waveform.eval(T + d - i * ud.delay)
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)

    def test_bb_direct_delay_is_baseband_rotation(self):
        # a pure baseband tone delayed by k*dt picks up exp(-j*2*pi*f*k*dt)
        f = 50e6
        sc = Scene(N, FC, SourceSpec(tone(f), DT_45))
        expected = tone(f).eval(T) * np.exp(-2j * np.pi * f * 2 * DT_45)
        np.testing.assert_allclose(sampled(sc)[2], expected, atol=1e-12)

    def test_rf_derived_adds_carrier_rotation(self):
        f = 50e6
        sc = Scene(N, FC, SourceSpec(tone(f), DT_45), mode=SceneMode.RF_DERIVED)
        got = sampled(sc)[1]
        expected = tone(f).eval(T - DT_45) * np.exp(-2j * np.pi * FC * DT_45)
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
        i = 4
        acc = np.zeros(T.shape, complex)
        for src, tau in zip((des, ud1, ud2), sc.arrivals()[0][:, i - 1]):
            acc += src.waveform.eval(T - tau)
        np.testing.assert_allclose(sampled(sc)[i - 1], acc, atol=1e-12)

    def test_element_mismatch_scales_output(self):
        sc = Scene(N, FC, SourceSpec(tone(5e6), 1.71e-10), element_mismatch=(1.0, 0.5j, 1.0, 1.0))
        ref = Scene(N, FC, SourceSpec(tone(5e6), 1.71e-10))
        np.testing.assert_allclose(sampled(sc)[1], 0.5j * sampled(ref)[1], atol=1e-15)


# Symbol rates at 200 MHz over 512 samples: p/q with q <= 512 // 64, which take the stream's
# grid product, or any other rate, which almost never does.
_RATES = st.sampled_from([25e6, 40e6, 75e6]) | st.floats(1e6, 9e7)


@st.composite
def _streams(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return StreamTerm(
        map_qpsk(rng.integers(0, 2, 2 * draw(st.integers(4, 40)))),
        draw(_RATES),
        draw(st.sampled_from([0.25, 1.0])),
        draw(st.integers(1, 6)),
        draw(st.just(0.0) | st.floats(-5e7, 5e7)),
    )


@given(
    desired=_streams(),
    interferer=_streams(),
    scale=st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0),
    desired_delay=st.floats(-2e-8, 2e-8),
    delta=st.floats(-15e-9, 15e-9),
    mode=st.sampled_from(list(SceneMode)),
    gains=st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0), min_size=N, max_size=N),
    clocks=st.lists(st.just(0.0) | st.floats(-5e-8, 5e-8), min_size=N, max_size=N),
)
@settings(max_examples=60, deadline=None)
def test_stream_scene_matches_loop_bit_for_bit(
    desired, interferer, scale, desired_delay, delta, mode, gains, clocks
):
    # a delayed, scaled desired stream and an interferer of a stream and a tone, at mismatched
    # elements; in RF_DERIVED each element's LO phasor conjugates the interferer's rotation
    wave = Waveform(terms=(desired,), scale=scale, delay=desired_delay)
    ud = SourceSpec(Waveform(terms=(interferer, ToneTerm(0.5, 7e6, 0.3))), delta)
    sc = Scene(N, FC, SourceSpec(wave, 1.3e-10), (ud,), element_mismatch=gains, mode=mode)
    lo = None
    if mode is SceneMode.RF_DERIVED:
        lo = np.exp(-2j * np.pi * FC * np.arange(N) * delta).conj()
    got = element_signal(sc, clocks, 200e6, 512)
    assert np.array_equal(got, frames_by_loop(sc, clocks, 200e6, 512, lo))


# Every element's stream comes from one product per run of elements whose windows start at one
# symbol.  At 40 MHz (1 symbol per 5 instants, 2*span + 1 = 9) the clocks put the elements'
# first symbols at 0, 9, -5 and 19; at 250 MHz (5 per 4, above 2*span + 1 = 3) the phases split
# into groups of 3 and 1, each with the elements at four different offsets.
@pytest.mark.parametrize(
    ("rate", "span", "clocks", "delta"),
    [
        (40e6, 4, [0.0, 2.3e-7, -1.1e-7, 4.7e-7], 1.3e-9),
        (250e6, 1, [0.0, 5.3e-9, -9.1e-9, 13.7e-9], -2.1e-9),
    ],
)
@pytest.mark.parametrize("mode", list(SceneMode))
def test_spread_stream_scene_matches_loop_bit_for_bit(rate, span, clocks, delta, mode):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, (2, 400))
    streams = [StreamTerm(map_qpsk(b), rate, 0.25, span, f) for b, f in zip(bits, (3e7, -2e7))]
    wave = Waveform(terms=streams[:1], scale=0.5 - 1.5j, delay=-4.3e-9)
    ud = SourceSpec(Waveform(terms=streams[1:], scale=2.0), delta)
    gains = (1.0, 0.9 + 0.1j, 1.0, 1.2)
    sc = Scene(N, FC, SourceSpec(wave, 1.3e-10), (ud,), element_mismatch=gains, mode=mode)
    lo = None
    if mode is SceneMode.RF_DERIVED:
        lo = np.exp(-2j * np.pi * FC * np.arange(N) * delta).conj()
    got = element_signal(sc, clocks, 200e6, 512)
    assert np.array_equal(got, frames_by_loop(sc, clocks, 200e6, 512, lo))


def scene_frames(sc, fs=1e9, n=16):
    """The runners' element frames of ``sc`` at undelayed clocks: LO-aligned in RF_DERIVED."""
    [frames] = experiments._scene_frames(sc, [([0.0] * N, [()])], fs, n)
    return frames


def direct_frames(sc, fs=1e9, n=16):
    """Each element's received signal sampled on its own, with no LO phasor."""
    return frames_by_loop(sc, [0.0] * N, fs, n)


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
