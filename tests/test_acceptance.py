"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints exactly one
pass/fail line; tolerances are stated inline next to each assertion.
The sampled checks run the real pipeline (scene -> delayed sampling ->
matrix combining -> spectral measurement), never a shortcut formula,
while the closed-form expressions serve as the independent reference.
"""

import time
from pathlib import Path

import numpy as np

from helpers import frames_by_loop, ref_spectrum
from spica import (
    Experiment,
    ExperimentConfig,
    Scene,
    SourceSpec,
    ToneTerm,
    Waveform,
    cancellation_depth,
    mac_apply,
    plan_delay,
    plan_delays,
    preset,
    ps_residual_gain,
    run_experiment,
    sample_element,
    total_delay,
    truncated_hadamard,
)
from spica.ttd import Quadrant


def _verdict(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def _tone_interferer_scene(n, freq, delta):
    interferer = SourceSpec(waveform=Waveform(terms=(ToneTerm(1.0, freq),)), delay=delta)
    return Scene(n, 10e9, desired=SourceSpec(waveform=Waveform()), undesired=(interferer,))


def _row_depths(scene, delays, fs, frame_len, band):
    """Per-row cancellation depth of the first undesired source."""
    n = scene.n_elements
    matrix = truncated_hadamard(n)
    frames = list(frames_by_loop(scene, delays, fs, frame_len))
    zero = 0.0 * frames[0]
    outs = mac_apply(frames, matrix)
    refs = mac_apply([frames[0]] + [zero] * (n - 1), matrix)
    return [cancellation_depth(ref_spectrum(refs[r], fs), outs[r], fs, band) for r in range(n - 1)]


def test_criterion_1_phase_shift_single_null():
    # Exact null at the carrier; 19.3 dB +/- 0.05 dB full-array rejection
    # for 4 elements at the 10% band edge; single-element rejection gets
    # strictly worse as the array grows at a fixed off-carrier frequency.
    start = time.monotonic()
    theta, dol = 45.0, 0.5
    # the interferer's carrier phase step between elements, which the phase shifts align
    align = 2.0 * np.pi * dol * np.sin(np.radians(theta))
    checks = []

    for n in (4, 16, 64):
        res = ps_residual_gain(n, 1.0, align)
        # exact zero sits far below the -240 dB numerical-floor requirement
        checks.append(("carrier null n=%d" % n, abs(res) == 0.0))

    leak = abs(ps_residual_gain(4, 1.1, align))
    rej_db = 20.0 * np.log10(4.0 / leak)
    checks.append(("band-edge 19.3 +/- 0.05 dB", abs(rej_db - 19.3) <= 0.05))

    leaks = [abs(ps_residual_gain(n, 1.02, align)) for n in (4, 16, 64)]
    checks.append(("leakage grows with n", leaks[0] < leaks[1] < leaks[2]))

    elapsed = time.monotonic() - start
    checks.append(("runtime < 1 s", elapsed < 1.0))
    failed = [name for name, ok in checks if not ok]
    _verdict(
        1,
        "phase-shift cancellation nulls only the carrier",
        not failed,
        failed[0] if failed else f"rej {rej_db:.4f} dB, {elapsed:.2f} s",
    )


def test_criterion_2_ideal_delay_cancellation_floor():
    # With unquantized clock delays and no noise, every matrix row must
    # reject a tone interferer by at least 200 dB over 99 tones x 5 delays.
    start = time.monotonic()
    fs, frame_len = 200e6, 1024
    freqs = np.linspace(1e6, 99e6, 99)
    deltas = (0.5e-9, 1e-9, 2e-9, 2.5e-9, 4e-9)
    worst = np.inf
    for delta in deltas:
        delays = [i * delta for i in range(4)]
        for freq in freqs:
            freq = float(freq)
            scene = _tone_interferer_scene(4, freq, delta)
            band = (freq - 0.5e6, freq + 0.5e6)
            depths = _row_depths(scene, delays, fs, frame_len, band)
            worst = min(worst, min(depths))
    elapsed = time.monotonic() - start
    ok = worst >= 200.0 and elapsed < 10.0
    _verdict(
        2,
        "ideal-delay cancellation is >= 200 dB on every row of the tone/delay grid",
        ok,
        f"worst {worst:.1f} dB, {elapsed:.1f} s",
    )


def test_criterion_3_quantized_cancellation():
    # 5 ps clock quantization at 100 MHz: the constructed worst alternating
    # error pattern lands at 56.1 +/- 0.1 dB against the coherent 4-element
    # reference; per-element rejection stays >= 44 dB in the worst case and
    # its median over a dense 1 ps delay sweep exceeds 46 dB.
    f = 100e6
    fs, frame_len = 400e6, 2048  # 100 MHz must sit inside Nyquist
    rows = truncated_hadamard(4)
    checks = []

    # (a) constructed worst pattern: alternating +/-2.5 ps clock errors
    delta = 1e-9
    eps = np.array([2.5e-12, -2.5e-12, 2.5e-12, -2.5e-12])
    wave = Waveform(terms=(ToneTerm(1.0, f),))
    aligned = [
        sample_element(Waveform(wave.terms, delay=i * delta), i * delta, fs, frame_len)
        for i in range(4)
    ]
    erred = [
        sample_element(Waveform(wave.terms, delay=i * delta), i * delta + eps[i], fs, frame_len)
        for i in range(4)
    ]
    coherent_ref = sum(aligned)
    canc = mac_apply(erred, truncated_hadamard(4))[0]
    band = (f - 0.5e6, f + 0.5e6)
    depth_worst = cancellation_depth(ref_spectrum(coherent_ref, fs), canc, fs, band)
    checks.append(("worst pattern 56.1 +/- 0.1 dB", abs(depth_worst - 56.1) <= 0.1))

    # (b) planner-quantized rejection across a dense 1 ps delay sweep,
    # per-element normalization (single-input reference)
    # one plan over the (5001, 4) grid of ideal clocks i * dt
    ideal = np.arange(0.0, 5.000001e-9, 1e-12)[:, None] * np.arange(4)
    err = total_delay(*plan_delays(ideal)) - ideal
    res = np.abs(np.exp(2j * np.pi * f * err) @ rows.T)
    with np.errstate(divide="ignore"):
        depths = -20.0 * np.log10(res / 1.0)
    min_depth = float(np.min(depths))
    median_depth = float(np.median(depths))
    checks.append(("dense sweep min >= 44 dB", min_depth >= 44.0))
    checks.append(("dense sweep median > 46 dB", median_depth > 46.0))

    # (c) the coarse delay set quantizes exactly, so the sampled pipeline
    # must clear the same 44 dB bound with room to spare
    for delta in (0.5e-9, 1e-9, 2e-9, 2.5e-9, 4e-9):
        planned = total_delay(*plan_delays(np.arange(4) * delta))
        scene = _tone_interferer_scene(4, f, delta)
        sampled = _row_depths(scene, planned, fs, frame_len, band)
        checks.append((f"sampled delta {delta!r}", min(sampled) >= 44.0))

    failed = [name for name, ok in checks if not ok]
    _verdict(
        3,
        "5 ps quantized cancellation meets the worst-case and median bounds",
        not failed,
        failed[0]
        if failed
        else f"worst pattern {depth_worst:.4f} dB, sweep min {min_depth:.1f}, "
        f"median {median_depth:.1f}",
    )


def test_criterion_4_wideband_modulated_cancellation(tmp_path):
    # An 80 MHz-occupied shaped interferer, quantized clock planning:
    # occupied-band cancellation must reach 35 dB on every row.
    start = time.monotonic()
    result = run_experiment(preset("fig18"), output_dir=tmp_path)
    depths = [row[3] for row in _read_rows(result["csv"])]
    elapsed = time.monotonic() - start
    ok = len(depths) == 3 and min(depths) >= 35.0 and elapsed < 30.0
    _verdict(
        4,
        "wideband modulated interferer cancelled >= 35 dB on every row",
        ok,
        f"min {min(depths):.1f} dB, {elapsed:.1f} s",
    )


def test_criterion_5_conversion_gain_oracle(tmp_path):
    # Measured conversion gain from the sampled pipeline agrees with the
    # closed-form row gain within 0.05 dB over 99 tones x 4 delays x 3 rows.
    result = run_experiment(preset("fig17"), output_dir=tmp_path)
    rows = _read_rows(result["csv"])
    errs = [abs(r[3] - r[4]) for r in rows]
    ok = len(rows) == 99 * 4 * 3 and max(errs) <= 0.05
    _verdict(
        5,
        "measured conversion gain matches the closed form within 0.05 dB",
        ok,
        f"{len(rows)} points, max err {max(errs):.2e} dB",
    )


def test_criterion_6_planner_contract():
    # Half-PI-step accuracy over a dense target grid, plus the two
    # canonical decompositions reproduced component by component.
    targets = np.linspace(0.0, 15e-9, 10001)
    # the relative fudge absorbs one ulp of float subtraction at exact
    # half-step boundaries; the bound itself stays half a PI step
    bound = 2.5e-12 * (1.0 + 1e-9)
    worst = float(np.max(np.abs(total_delay(*plan_delays(targets)) - targets)))

    splits = (plan_delay(4e-9), plan_delay(8e-9))
    decomp_ok = splits == ((50, Quadrant.Q_N, 0), (100, Quadrant.I_N, 1))
    ok = worst <= bound and decomp_ok
    _verdict(
        6,
        "clock planner stays within 2.5 ps and nails the canonical splits",
        ok,
        f"worst err {worst:.3e} s",
    )


def test_criterion_7_combining_matrix_algebra():
    expected4 = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    ok = bool(np.array_equal(truncated_hadamard(4), expected4))
    for n in (2, 4, 8, 16):
        rows = truncated_hadamard(n)
        ok = ok and bool(np.all(rows.sum(axis=1) == 0))
        ok = ok and bool(np.all(np.abs(rows) == 1))
        gram = rows @ rows.T
        ok = ok and bool(np.array_equal(gram, n * np.eye(n - 1, dtype=np.int64)))
    _verdict(
        7,
        "combining matrix has the exact 4-element rows and balanced orthogonal structure",
        ok,
    )


def test_criterion_8_qpsk_evm_pipeline(tmp_path):
    # Cancellation + equalization + genie-timed matched filtering must keep
    # EVM at or below 2% with a co-channel interferer 12 dB stronger.
    start = time.monotonic()
    result = run_experiment(preset("fig19"), output_dir=tmp_path)
    evms = [row[2] for row in _read_rows(result["csv"])]
    elapsed = time.monotonic() - start
    ok = len(evms) == 3 and max(evms) <= 2.0 and elapsed < 30.0
    _verdict(
        8,
        "QPSK EVM stays <= 2% under a 12 dB stronger co-channel interferer",
        ok,
        f"max EVM {max(evms):.3f}%, {elapsed:.1f} s",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    # Identical config and seed must reproduce the CSV byte for byte,
    # including a run with additive noise enabled.
    noisy = ExperimentConfig(
        Experiment.TTD_TONE_SWEEP,
        output="repro_noisy",
        delta_ud_s=(1.7e-9,),
        tone_start_hz=20e6,
        tone_stop_hz=60e6,
        tone_count=2,
        frame_len=1024,
        noise_rms=0.02,
        seed=7,
    )
    ok = True
    for cfg in (noisy, preset("fig10")):
        a = run_experiment(cfg, output_dir=tmp_path / "a")
        b = run_experiment(cfg, output_dir=tmp_path / "b")
        ok = ok and Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()
    _verdict(9, "re-runs with the same config and seed are byte-identical", ok)


def _read_rows(csv_path):
    import csv as _csv

    with open(csv_path, newline="") as fh:
        reader = _csv.reader(fh)
        next(reader)
        return [[_maybe_float(cell) for cell in row] for row in reader]


def _maybe_float(cell):
    try:
        return float(cell)
    except ValueError:
        return cell