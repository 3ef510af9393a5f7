"""Experiment config, runner, preset and CLI tests."""

import csv
import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frames_by_loop, ref_spectrum
from output_contract import check_column
from spica import experiments, metrics, waveform
from spica import (
    ConfigError,
    Experiment,
    ExperimentConfig,
    MeasurementError,
    Quadrant,
    Scene,
    SceneMode,
    SourceSpec,
    ToneTerm,
    Waveform,
    cancellation_depth,
    conversion_gain_measured,
    desired_conversion_gain,
    load_config,
    mac_apply,
    plan_delay,
    preset,
    preset_names,
    run_experiment,
    sample_element,
    total_delay,
    truncated_hadamard,
)
from spica.cli import main
from spica.ttd import _noisy_frame


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_with_csv_writer(path, header, rows):
    """The oracle for _write_csv: the standard library's writer over plain rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestConfigValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="unknown config field.*fnorm_stp"):
            ExperimentConfig.from_dict({"experiment": "PS_LEAKAGE", "fnorm_stp": 1.0})

    def test_experiment_required(self):
        with pytest.raises(ConfigError, match="experiment: field is required"):
            ExperimentConfig.from_dict({"seed": 1})

    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ConfigError, match="experiment: unknown value.*PS_LEAKAGE"):
            ExperimentConfig.from_dict({"experiment": "PS_LEAKGE"})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(["experiment"])

    def test_seed_required_with_noise(self):
        cfg = ExperimentConfig(Experiment.PS_LEAKAGE, noise_rms=0.1)
        with pytest.raises(ConfigError, match="seed: required whenever noise_rms"):
            cfg.validate()

    def test_output_must_be_bare_stem(self):
        cfg = ExperimentConfig(Experiment.PS_LEAKAGE, output="a/b")
        with pytest.raises(ConfigError, match="output: must be a bare file stem"):
            cfg.validate()

    def test_frame_len_power_of_two(self):
        cfg = ExperimentConfig(Experiment.TTD_TONE_SWEEP, frame_len=1000, delta_ud_s=(1e-9,))
        with pytest.raises(ConfigError, match="frame_len: must be a power of 2"):
            cfg.validate()

    def test_tone_sweep_needs_delays(self):
        cfg = ExperimentConfig(Experiment.TTD_TONE_SWEEP)
        with pytest.raises(ConfigError, match="delta_ud_s: must list at least one"):
            cfg.validate()

    def test_tone_sweep_delay_range_checked(self):
        cfg = ExperimentConfig(Experiment.TTD_TONE_SWEEP, delta_ud_s=(6e-9,))
        with pytest.raises(ConfigError, match="delta_ud_s: largest per-element delay"):
            cfg.validate()

    def test_tone_grid_inside_nyquist(self):
        cfg = ExperimentConfig(
            Experiment.TTD_TONE_SWEEP, delta_ud_s=(1e-9,), tone_stop_hz=120e6
        )
        with pytest.raises(ConfigError, match="tone_stop_hz"):
            cfg.validate()

    def test_modulated_needs_seed_for_interferer(self):
        cfg = ExperimentConfig(Experiment.TTD_MODULATED, delta_ud_s=(2e-9,))
        with pytest.raises(ConfigError, match="seed: required to draw interferer"):
            cfg.validate()

    def test_modulated_band_inside_nyquist(self):
        cfg = ExperimentConfig(
            Experiment.TTD_MODULATED, delta_ud_s=(2e-9,), seed=1, center_freq_hz=90e6
        )
        with pytest.raises(ConfigError, match="center_freq_hz: occupied band"):
            cfg.validate()

    def test_qpsk_symbol_rate_must_divide_sample_rate(self):
        cfg = ExperimentConfig(
            Experiment.QPSK_EVM, delta_ud_s=(2e-9,), seed=1, desired_symbol_rate_hz=3e6
        )
        with pytest.raises(ConfigError, match="desired_symbol_rate_hz"):
            cfg.validate()

    def test_plan_clock_needs_targets_in_range(self):
        with pytest.raises(ConfigError, match="plan_targets_s: must list at least one"):
            ExperimentConfig(Experiment.PLAN_CLOCK).validate()
        cfg = ExperimentConfig(Experiment.PLAN_CLOCK, plan_targets_s=(20e-9,))
        with pytest.raises(ConfigError, match="plan_targets_s: target"):
            cfg.validate()

    def test_mode_parsed_from_string(self):
        cfg = ExperimentConfig(Experiment.PS_LEAKAGE, mode="RF_DERIVED")
        assert cfg.mode is SceneMode.RF_DERIVED
        with pytest.raises(ConfigError, match="mode: unknown value"):
            ExperimentConfig(Experiment.PS_LEAKAGE, mode="RF")

    def test_default_output_stem_follows_experiment(self):
        cfg = ExperimentConfig(Experiment.PS_LEAKAGE)
        assert cfg.output == "ps_leakage"

    def test_roundtrip_through_dict(self):
        cfg = preset("fig16")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("name", preset_names())
    def test_to_dict_matches_deep_copy(self, name):
        cfg = preset(name)
        copied = dataclasses.asdict(cfg)
        copied.update(experiment=cfg.experiment.value, mode=cfg.mode.value)
        assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(copied, sort_keys=True)


BAD_TYPES = [
    ("tone_count", "3"),
    ("seed", True),
    ("max_offset", 2.5),
    ("ps_n_elements", 4),
    ("output", 3),
    ("delta_ud_s", ["1e-9"]),
]


QPSK = {"experiment": "QPSK_EVM", "delta_ud_s": [2.5e-9], "seed": 1, "frame_len": 65536}
TONE_SWEEP = {"experiment": "TTD_TONE_SWEEP", "delta_ud_s": [1e-9]}
# one tone above the last Welch bin (99.95 MHz at 200 MHz, nfft 2048)
TOP_TONE = {**TONE_SWEEP, "tone_start_hz": 99.99e6, "tone_stop_hz": 99.99e6, "tone_count": 1}
MODULATED = {
    "experiment": "TTD_MODULATED",
    "delta_ud_s": [2.347e-9],
    "seed": 1,
    "center_freq_hz": 50.01e6,
    "frame_len": 4096,
}
PLAN = {"experiment": "PLAN_CLOCK", "plan_targets_s": [4e-9]}
LEAKAGE = {"experiment": "PS_LEAKAGE"}
# (valid base config, field set, bad value, field the error must name)
BAD_VALUES = [
    pytest.param(PLAN, "seed", -1, "seed", id="seed-negative"),
    pytest.param(PLAN, "sample_rate_hz", 0, "sample_rate_hz", id="sample_rate_hz-zero"),
    pytest.param(PLAN, "noise_rms", -1, "noise_rms", id="noise_rms-negative"),
    pytest.param(PLAN, "max_offset", -1, "max_offset", id="max_offset-negative"),
    pytest.param(LEAKAGE, "ps_n_elements", [], "ps_n_elements", id="ps_n_elements-empty"),
    pytest.param(LEAKAGE, "theta_ud_deg", 91.0, "theta_ud_deg", id="theta_ud_deg-past-90"),
    pytest.param(LEAKAGE, "fnorm_stop", 0.8, "fnorm_stop", id="fnorm_stop-below-start"),
    pytest.param(TONE_SWEEP, "tone_stop_hz", 0.5e6, "tone_stop_hz", id="tone_stop_hz-below-start"),
    pytest.param(MODULATED, "delta_ud_s", [1e-9, 2e-9], "delta_ud_s", id="modulated-two-delays"),
    pytest.param(MODULATED, "rolloff", 1.5, "rolloff", id="rolloff-past-1"),
    # zero delay: G_r(f) is 0 everywhere, nothing to equalize
    pytest.param(QPSK, "delta_ud_s", [0.0], "delta_ud_s", id="qpsk-zero-delta_ud_s"),
    # shorter than the desired symbols plus matched-filter span
    pytest.param(QPSK, "frame_len", 2048, "frame_len", id="qpsk-frame_len"),
    # bins 12.5 MHz and 1.5625 MHz apart: the 1 MHz band around a tone can miss them all
    pytest.param(TONE_SWEEP, "frame_len", 16, "band_halfwidth_hz", id="tone-band-frame_len-16"),
    pytest.param(TONE_SWEEP, "frame_len", 128, "band_halfwidth_hz", id="tone-band-frame_len-128"),
    # a 2 kHz band that lies wholly above the last bin
    pytest.param(TOP_TONE, "band_halfwidth_hz", 1e3, "band_halfwidth_hz", id="tone-band-above-last-bin"),
    # 1.25 kHz occupied band between bins 48.8 kHz apart
    pytest.param(MODULATED, "symbol_rate_hz", 1e3, "symbol_rate_hz", id="modulated-band-symbol_rate_hz"),
    # every kind checks every field's single-field bounds, read or not
    pytest.param(PLAN, "rolloff", 1.5, "rolloff", id="plan-rolloff-past-1"),
    pytest.param(LEAKAGE, "span_symbols", 0, "span_symbols", id="leakage-span_symbols-zero"),
    pytest.param(LEAKAGE, "tone_count", 0, "tone_count", id="leakage-tone_count-zero"),
    pytest.param(TONE_SWEEP, "desired_n_symbols", 7, "desired_n_symbols", id="tone-desired_n_symbols-7"),
    pytest.param(TONE_SWEEP, "max_offset", -1, "max_offset", id="tone-max_offset-negative"),
    pytest.param(MODULATED, "theta_ud_deg", -91.0, "theta_ud_deg", id="modulated-theta_ud_deg"),
    pytest.param(QPSK, "fnorm_count", 0, "fnorm_count", id="qpsk-fnorm_count-zero"),
    pytest.param(PLAN, "desired_symbol_rate_hz", 0, "desired_symbol_rate_hz", id="plan-desired_symbol_rate_hz-zero"),
    # one past the int64 offsets plan_delays computes with, in every kind that plans clocks
    pytest.param(PLAN, "max_offset", 2**63, "max_offset", id="plan-max_offset-past-int64"),
    pytest.param(TONE_SWEEP, "max_offset", 2**63, "max_offset", id="tone-max_offset-past-int64"),
    pytest.param(MODULATED, "max_offset", 2**63, "max_offset", id="modulated-max_offset-past-int64"),
    pytest.param(QPSK, "max_offset", 2**63, "max_offset", id="qpsk-max_offset-past-int64"),
]


NAN, INF = float("nan"), float("inf")
GAIN = {"experiment": "DESIRED_GAIN", "delta_ud_s": [1e-9]}
# json.load reads NaN and Infinity; each config must exit 1 naming its own field
NON_FINITE = [
    ({**TONE_SWEEP, "delta_ud_s": [NAN], "tone_count": 2}, "delta_ud_s"),
    ({**LEAKAGE, "fnorm_start": NAN, "fnorm_count": 3}, "fnorm_start"),
    ({**QPSK, "delta_ud_s": [2.347e-9], "interferer_excess_db": NAN}, "interferer_excess_db"),
    ({**TONE_SWEEP, "tone_count": 2, "seed": 1, "noise_rms": NAN}, "noise_rms"),
    ({**GAIN, "band_halfwidth_hz": INF}, "band_halfwidth_hz"),
    ({**PLAN, "sample_rate_hz": NAN}, "sample_rate_hz"),
]


class TestValueTypes:
    @pytest.mark.parametrize("cfg,named", NON_FINITE, ids=[n for _, n in NON_FINITE])
    def test_non_finite_number_exits_1_naming_field(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        assert f"config error: {named}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", BAD_TYPES, ids=[f for f, _ in BAD_TYPES])
    def test_wrong_json_type_exits_1_naming_field(self, tmp_path, capsys, field, value):
        cfg = {"experiment": "PLAN_CLOCK", "plan_targets_s": [4e-9], field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("base,field,value,named", BAD_VALUES)
    def test_bad_value_exits_1_naming_field(self, tmp_path, capsys, base, field, value, named):
        ExperimentConfig.from_dict(base)  # the base config is valid
        cfg = {**base, field: value}
        with pytest.raises(ConfigError, match=f"{named}:"):
            ExperimentConfig.from_dict(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        assert f"{named}:" in capsys.readouterr().err

    def test_delay_range_error_names_max_offset(self, tmp_path, capsys):
        # 7 * 2.5 ns = 17.5 ns is past the 15 ns reach of max_offset 2
        cfg = {**TONE_SWEEP, "delta_ud_s": [2.5e-9], "n_elements": 8, "tone_count": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "delta_ud_s:" in err and "max_offset" in err
        ExperimentConfig.from_dict({**cfg, "max_offset": 3})  # the advice holds

    def test_integer_past_float_range_exits_1_naming_field(self, tmp_path, capsys):
        # json.load reads a 401-digit integer; no float holds it
        cfg = {**TONE_SWEEP, "tone_count": 2, "band_halfwidth_hz": 10**400}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        assert "config error: band_halfwidth_hz:" in capsys.readouterr().err
        largest = int(np.finfo(float).max)
        ExperimentConfig.from_dict({**cfg, "band_halfwidth_hz": largest})  # type check passes

    def test_integer_accepted_for_float_field(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "TTD_TONE_SWEEP", "delta_ud_s": [1e-9], "tone_start_hz": 1000000}
        )
        assert cfg.tone_start_hz == 1e6

    @pytest.mark.parametrize("field,value", [("interferer", True), ("eq_eps", None)])
    def test_removed_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        # a manifest written before these fields were removed still names them
        config = {**preset("fig19").to_dict(), field: value}
        path = tmp_path / "fig19_manifest.json"
        path.write_text(json.dumps({"config": config}))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        assert f"unknown config field(s): {field}" in capsys.readouterr().err

    def test_every_preset_manifest_loads(self, tmp_path):
        for name in preset_names():
            path = tmp_path / f"{name}_manifest.json"
            path.write_text(json.dumps({"config": preset(name).to_dict()}))
            assert load_config(path) == preset(name)


class TestLoadConfig:
    def test_plain_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "PLAN_CLOCK", "plan_targets_s": [4e-9]}))
        cfg = load_config(p)
        assert cfg.experiment is Experiment.PLAN_CLOCK
        assert cfg.plan_targets_s == (4e-9,)

    def test_manifest_reuses_embedded_config(self, tmp_path):
        cfg = ExperimentConfig(Experiment.PLAN_CLOCK, plan_targets_s=(4e-9,))
        result = run_experiment(cfg, output_dir=tmp_path)
        again = load_config(result["manifest"])
        assert again == cfg

    def test_preset_manifest_is_one_line_and_reruns_byte_identically(self, tmp_path):
        paths = [run_experiment(preset("fig10"), output_dir=tmp_path / d)["manifest"] for d in "ab"]
        a, b = (Path(p).read_bytes() for p in paths)
        assert a == b
        assert a.endswith(b"\n") and a.count(b"\n") == 1
        assert load_config(paths[0]) == preset("fig10")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)


class TestPresets:
    def test_all_presets_validate(self):
        names = preset_names()
        assert names == sorted(names)
        stems = set()
        for name in names:
            cfg = preset(name)
            cfg.validate()
            stems.add(cfg.output)
        assert len(stems) == len(names)

    def test_expected_catalog(self):
        assert {"fig4", "fig10", "fig16", "fig17", "fig18", "fig19"} <= set(preset_names())

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigError, match="fig4"):
            preset("fig99")


class TestRunners:
    def test_plan_clock_csv(self, tmp_path):
        result = run_experiment(preset("fig10"), output_dir=tmp_path)
        header, rows = read_csv(result["csv"])
        assert header == [
            "target_s",
            "pi_code",
            "quadrant",
            "interleave_offset",
            "total_s",
            "error_s",
        ]
        got = {
            float(r[0]): (int(r[1]), r[2], int(r[3])) for r in rows
        }
        assert got[0.0] == (0, "I_P", 0)
        assert got[4e-9] == (50, "Q_N", 0)
        assert got[8e-9] == (100, "I_N", 1)
        assert got[12e-9] == (150, "Q_P", 2)
        for r in rows:
            assert abs(float(r[5])) <= 2.5e-12 * (1.0 + 1e-9)

    @pytest.mark.parametrize("grid", [False, True], ids=["fig10", "grid-20001"])
    def test_plan_clock_rows_match_scalar_planner(self, grid, tmp_path):
        cfg = preset("fig10")
        if grid:
            targets = np.linspace(0.0, 15e-9, 20_001).tolist()
            cfg = dataclasses.replace(cfg, plan_targets_s=tuple(targets))
        expected = []
        for target in cfg.plan_targets_s:
            pi_code, quadrant, offset = plan_delay(target, cfg.max_offset)
            total = total_delay(pi_code, quadrant, offset)
            expected.append(
                [target, pi_code, Quadrant(quadrant).name, offset, total, total - target]
            )
        result = run_experiment(cfg, output_dir=tmp_path)
        header, _ = read_csv(result["csv"])
        oracle = tmp_path / "oracle.csv"
        write_with_csv_writer(oracle, header, expected)
        assert Path(result["csv"]).read_bytes() == oracle.read_bytes()
        assert result["rows"] == len(expected)

    def test_ps_leakage_rows_and_nulls(self, tmp_path):
        cfg = ExperimentConfig(
            Experiment.PS_LEAKAGE, ps_n_elements=(4, 16), fnorm_count=5, output="ps_small"
        )
        result = run_experiment(cfg, output_dir=tmp_path)
        header, rows = read_csv(result["csv"])
        assert header == ["n_elements", "f_norm", "leak_db_single", "rej_db_array"]
        assert len(rows) == 10
        # the middle of the grid is the carrier, where cancellation is
        # exact; the leakage column bottoms out (log of zero or near it)
        center = [r for r in rows if abs(float(r[1]) - 1.0) < 1e-12]
        assert len(center) == 2
        for r in center:
            assert float(r[2]) < -250.0
            assert float(r[3]) > 250.0
        # Every element count's block pairs the shared grid with its own
        # leakage, row by row: a plain alternating-sign sum at each f_norm.
        grid = np.linspace(cfg.fnorm_start, cfg.fnorm_stop, cfg.fnorm_count).tolist()
        step = 2.0 * math.pi * cfg.d_over_lambda * math.sin(math.radians(cfg.theta_ud_deg))
        for i, (n, f_norm, leak_db, rej_db) in enumerate(rows):
            n, f_norm = int(n), float(f_norm)
            assert (n, f_norm) == ((4, 16)[i // 5], grid[i % 5])
            if f_norm != 1.0:
                z = complex(math.cos(step * (1 - f_norm)), math.sin(step * (1 - f_norm)))
                leak = abs(sum((-z) ** k for k in range(n)))
                assert float(leak_db) == pytest.approx(20.0 * math.log10(leak), abs=1e-9)
                assert float(rej_db) == pytest.approx(-20.0 * math.log10(leak / n), abs=1e-9)

    def test_tone_sweep_reduced(self, tmp_path):
        cfg = ExperimentConfig(
            Experiment.TTD_TONE_SWEEP,
            output="sweep_small",
            delta_ud_s=(2e-9,),
            tone_start_hz=10e6,
            tone_stop_hz=90e6,
            tone_count=3,
            frame_len=1024,
        )
        result = run_experiment(cfg, output_dir=tmp_path)
        header, rows = read_csv(result["csv"])
        assert header == ["freq_hz", "delta_ud_s", "row", "depth_db_ideal", "depth_db_quantized"]
        assert len(rows) == 3 * 3
        for r in rows:
            assert float(r[3]) >= 200.0  # ideal clocking nulls to numeric noise
            assert float(r[4]) >= 40.0  # quantized clocking leaves the PI residual

    def test_short_modulated_frame_runs(self, tmp_path):
        # a frame shorter than the 4096-point Welch segment uses the whole frame
        cfg = {"experiment": "TTD_MODULATED", "delta_ud_s": [2.347e-9], "seed": 1}
        cfg["frame_len"] = 2048
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "ttd_modulated.csv")
        assert len(rows) == 3
        for r in rows:
            assert float(r[3]) >= 35.0

    def test_negative_delay_modulated_runs(self, tmp_path):
        # an interferer at a negative angle: every clock gets a common offset
        cfg = {"experiment": "TTD_MODULATED", "delta_ud_s": [-2.347e-9], "seed": 1}
        cfg["frame_len"] = 4096
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "ttd_modulated.csv")
        assert len(rows) == 3
        for r in rows:
            assert float(r[3]) >= 35.0

    @given(delta=st.floats(-4.9e-9, -1e-12))
    @settings(max_examples=15, deadline=None)
    def test_negative_delay_tone_sweep(self, delta):
        cfg = ExperimentConfig(
            Experiment.TTD_TONE_SWEEP,
            delta_ud_s=(delta,),
            tone_start_hz=10e6,
            tone_stop_hz=90e6,
            tone_count=2,
            frame_len=256,
        )
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(cfg, output_dir=out)
            _, rows = read_csv(result["csv"])
        for r in rows:
            assert float(r[3]) >= 200.0  # ideal clocks: the criterion-2 floor
        # planned clocks track i * delta plus the common offset -(n - 1) * delta
        shift = -(cfg.n_elements - 1) * delta
        planned = result["derived"]["planned_configs"][repr(delta)]
        for i, (pi_code, quadrant, offset) in enumerate(planned):
            total = total_delay(pi_code, Quadrant[quadrant], offset)
            assert abs(total - (i * delta + shift)) <= 2.5e-12 * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "TTD_MODULATED", "delta_ud_s": [2.347e-9], "seed": 1, "frame_len": 4096},
            {"experiment": "DESIRED_GAIN", "delta_ud_s": [1e-9, 2.5e-9], "tone_count": 5},
        ],
        ids=["modulated", "desired_gain"],
    )
    def test_rf_derived_matches_bb_direct(self, tmp_path, cfg):
        # the LO phasors undo the interferer's carrier rotation, and the
        # broadside desired source has none, so both modes measure the same
        values = {}
        for mode in ("BB_DIRECT", "RF_DERIVED"):
            config = ExperimentConfig.from_dict({**cfg, "mode": mode, "output": mode})
            _, rows = read_csv(run_experiment(config, output_dir=tmp_path)["csv"])
            values[mode] = np.array(rows, dtype=float)
        np.testing.assert_allclose(values["RF_DERIVED"], values["BB_DIRECT"], rtol=0, atol=1e-9)

    def test_rf_derived_desired_gain_is_shifted_by_the_carrier(self):
        # oracle for the RF_DERIVED equalizer: the LO phasors exp(j2*pi*f_c*i*delta), which
        # align the interferer, rotate the broadside desired tone too, so row r measures
        # G_r(f + f_c), not G_r(f)
        n, fs, fc, delta, f = 4, 2e8, 10e9, 2.347e-9, 37e6
        desired = SourceSpec(Waveform(terms=(ToneTerm(1.0, f),)))
        interferer = SourceSpec(Waveform(terms=(ToneTerm(1.0, 60e6),)), delta)
        scene = Scene(n, fc, desired, (interferer,), mode=SceneMode.RF_DERIVED)
        phasors = np.exp(2j * np.pi * fc * np.arange(n) * delta)
        frames = list(frames_by_loop(scene, [i * delta for i in range(n)], fs, 2048, phasors))
        # the desired tone alone through element 1: the single-input reference
        ref = sample_element(Waveform(terms=(ToneTerm(1.0, f),)), 0.0, fs, 2048)
        outs = mac_apply(frames, truncated_hadamard(n))
        measured = conversion_gain_measured(outs, ref_spectrum(ref, fs), fs, f)
        for r, got in enumerate(measured):
            shifted = 20.0 * math.log10(abs(desired_conversion_gain(f + fc, delta, r, n)))
            baseband = 20.0 * math.log10(abs(desired_conversion_gain(f, delta, r, n)))
            assert abs(got - shifted) <= 0.05, r
            assert abs(got - baseband) > 0.05, r

    def test_rf_derived_qpsk_evm_matches_bb_direct(self, tmp_path):
        # fig19 reads the same EVM in both modes once each row is equalized
        # with the gain its desired signal actually sees
        evm = {}
        for mode in ("BB_DIRECT", "RF_DERIVED"):
            config = dataclasses.replace(preset("fig19"), mode=SceneMode(mode), output=mode)
            _, rows = read_csv(run_experiment(config, output_dir=tmp_path)["csv"])
            evm[mode] = np.array([float(r[2]) for r in rows])
        assert evm["RF_DERIVED"].size == 3
        np.testing.assert_allclose(evm["RF_DERIVED"], evm["BB_DIRECT"], rtol=0, atol=0.1)

    def test_negative_delay_qpsk_runs(self, tmp_path):
        # an interferer at a negative angle: element 1's clock carries the
        # common offset, and fig19 reads the EVM of the mirrored positive delay
        for mode in ("BB_DIRECT", "RF_DERIVED"):
            evm = []
            for delta in (2.347e-9, -2.347e-9):
                cfg = dict(preset("fig19").to_dict(), mode=mode, delta_ud_s=[delta], output="q")
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(cfg))
                assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
                _, rows = read_csv(tmp_path / "q.csv")
                evm.append(np.array([float(r[2]) for r in rows]))
            assert evm[1].size == 3
            np.testing.assert_allclose(evm[1], evm[0], rtol=0, atol=0.1)

    def test_qpsk_evm_small(self, tmp_path):
        cfg = ExperimentConfig(
            Experiment.QPSK_EVM,
            output="evm_small",
            delta_ud_s=(2.5e-9,),
            seed=11,
            desired_n_symbols=8,
            frame_len=8192,
        )
        result = run_experiment(cfg, output_dir=tmp_path)
        header, rows = read_csv(result["csv"])
        assert header == ["row", "n_symbols", "evm_percent"]
        assert len(rows) == 3
        for r in rows:
            assert float(r[2]) <= 5.0
        const_path = Path(result["csv"]).with_name("evm_small_constellation.csv")
        cheader, crows = read_csv(const_path)
        assert cheader == ["row", "symbol_index", "ref_re", "ref_im", "rx_re", "rx_im"]
        assert len(crows) == 3 * 8

    def test_manifest_contents(self, tmp_path):
        cfg = ExperimentConfig(Experiment.PLAN_CLOCK, plan_targets_s=(1e-9,), output="m")
        result = run_experiment(cfg, output_dir=tmp_path)
        manifest = json.loads(Path(result["manifest"]).read_text())
        assert manifest["tool"] == "spica"
        assert manifest["outputs"]["csv"] == "m.csv"
        assert manifest["config"]["experiment"] == "PLAN_CLOCK"

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPICA_OUTPUT_DIR", str(tmp_path / "outs"))
        cfg = ExperimentConfig(Experiment.PLAN_CLOCK, plan_targets_s=(2e-9,), output="envy")
        result = run_experiment(cfg)
        assert Path(result["csv"]).parent == tmp_path / "outs"
        assert (tmp_path / "outs" / "envy.csv").exists()

    def test_noisy_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            Experiment.TTD_TONE_SWEEP,
            output="det",
            delta_ud_s=(1e-9,),
            tone_count=2,
            tone_start_hz=20e6,
            tone_stop_hz=60e6,
            frame_len=1024,
            noise_rms=0.01,
            seed=42,
        )
        a = run_experiment(cfg, output_dir=tmp_path / "a")
        b = run_experiment(cfg, output_dir=tmp_path / "b")
        assert Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()


def per_tone_rows(cfg: ExperimentConfig) -> list:
    """Rows of a tone sweep or desired-gain CSV, one tone at a time.

    Each tone gets its own scene and its own sampling, combining and
    measurement calls; noise seeds follow the runners' documented
    (seed, delay, tone, [branch,] element) keys.  In RF_DERIVED element i
    (0-based) of a sweep is de-rotated by the LO phasor exp(j*2*pi*f_c*i*delta).
    """
    n, fs, n_samples, fc = cfg.n_elements, cfg.sample_rate_hz, cfg.frame_len, cfg.carrier_freq_hz
    sweep = cfg.experiment is Experiment.TTD_TONE_SWEEP
    rows = []
    for d_idx, delta in enumerate(cfg.delta_ud_s):
        shift = min(0.0, (n - 1) * delta)
        ideal = [i * delta - shift for i in range(n)]
        quant = [total_delay(*plan_delay(t, cfg.max_offset)) for t in ideal]
        for f_idx, f in enumerate(np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)):
            f = float(f)
            tone = SourceSpec(Waveform(terms=(ToneTerm(1.0, f),)))
            if sweep:
                interferer = SourceSpec(tone.waveform, delta)
                scene = Scene(n, fc, SourceSpec(Waveform()), (interferer,), mode=cfg.mode)
            else:
                scene = Scene(n, fc, tone, mode=cfg.mode)
            phasors = None
            if sweep and cfg.mode is SceneMode.RF_DERIVED:
                phasors = np.exp(2j * np.pi * fc * np.arange(n) * delta)
            values = []
            for branch, delays in enumerate((ideal, quant) if sweep else (ideal,)):
                key = (cfg.seed or 0, d_idx, f_idx, branch)[: 4 if sweep else 3]
                clean = frames_by_loop(scene, delays, fs, n_samples, phasors)
                frames = [
                    _noisy_frame(frame, cfg.noise_rms, np.random.SeedSequence([*key, i + 1]))
                    for i, frame in enumerate(clean)
                ]
                outs = mac_apply(frames, truncated_hadamard(n))
                ref = ref_spectrum(frames[0], fs)
                if sweep:
                    band = (f - cfg.band_halfwidth_hz, f + cfg.band_halfwidth_hz)
                    values.append(cancellation_depth(ref, outs, fs, band))
                else:
                    gains = [abs(desired_conversion_gain(f, delta, r, n)) for r in range(n - 1)]
                    values.append([20.0 * math.log10(g) if g else -math.inf for g in gains])
                    values.append(conversion_gain_measured(outs, ref, fs, f))
            rows += [[f, delta, r, *(v[r] for v in values)] for r in range(n - 1)]
    return rows


# Tone runner configs, each run at tone counts on both sides of the 4-tone
# chunk edges (99 ends in a 3-tone chunk).
_TONE_RUNS = {
    "sweep": dict(experiment="TTD_TONE_SWEEP", delta_ud_s=[1e-9, -2.5e-9], band_halfwidth_hz=1e6),
    "sweep_noisy": dict(
        experiment="TTD_TONE_SWEEP",
        delta_ud_s=[2e-9],
        band_halfwidth_hz=1e6,
        noise_rms=1e-3,
        seed=7,
    ),
    "sweep_rf_noisy": dict(
        experiment="TTD_TONE_SWEEP",
        mode="RF_DERIVED",
        delta_ud_s=[2e-9, -1.3e-9],
        band_halfwidth_hz=1e6,
        noise_rms=1e-3,
        seed=7,
    ),
    "gain": dict(experiment="DESIRED_GAIN", delta_ud_s=[1e-9, 2.5e-9]),
}


@pytest.mark.parametrize("count", [1, 4, 5, 99])
@pytest.mark.parametrize("name", sorted(_TONE_RUNS))
def test_tone_runners_match_per_tone_reference(name, count, tmp_path):
    start, stop = (37e6, 37e6) if count == 1 else (1e6, 99e6)
    grid = dict(tone_start_hz=start, tone_stop_hz=stop, tone_count=count, frame_len=256)
    cfg = ExperimentConfig.from_dict({**_TONE_RUNS[name], **grid})
    header, rows = read_csv(run_experiment(cfg, output_dir=tmp_path)["csv"])
    expected = per_tone_rows(cfg)
    assert len(rows) == len(expected) == count * len(cfg.delta_ud_s) * 3
    for got, want in zip(rows, expected):
        assert [float(v) for v in got[:3]] == want[:3]
    # The runner sums the theory over arrays and rotates each tone's grid samples per
    # element; the reference takes one tone at a time and samples every element directly.
    # The two round apart, so the value columns are compared under the contract.
    for j, column in enumerate(header[3:], 3):
        want = [repr(float(row[j])) for row in expected]
        assert check_column(column, want, [row[j] for row in rows])[1] == [], column


# fig16 and fig17 cut to 6 tones, two chunks, with the overrides given and the number of
# (delay, branch) points per chunk at which element 1's frame, and so its spectrum, is new:
# one while noise-free clocks leave it at 0, every point when noise or a shifted clock
# (TTD_TONE_SWEEP at delta < 0) changes it.  DESIRED_GAIN never shifts element 1's clock.
_REFERENCE_RUNS = {
    "fig16": ("fig16", {}, 1),
    "fig16-noisy": ("fig16", {"noise_rms": 1e-3, "seed": 1}, 3 * 2),
    "fig16-rf-noisy": ("fig16", {"noise_rms": 1e-3, "seed": 1, "mode": SceneMode.RF_DERIVED}, 6),
    "fig16-negative": ("fig16", {"delta_ud_s": (-1.001e-9, -2.347e-9)}, 2 * 2),
    "fig17": ("fig17", {}, 1),
    "fig17-rf": ("fig17", {"mode": SceneMode.RF_DERIVED}, 1),
    "fig17-noisy": ("fig17", {"noise_rms": 1e-6, "seed": 1}, 4),
    "fig17-negative": ("fig17", {"delta_ud_s": (-0.5e-9, -2.5e-9)}, 1),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_RUNS))
def test_reference_spectrum_is_taken_once_per_distinct_frame(name, tmp_path, monkeypatch):
    preset_name, overrides, per_chunk = _REFERENCE_RUNS[name]
    cfg = dataclasses.replace(preset(preset_name), tone_count=6, **overrides)
    references = []
    welch_power = experiments.welch_power

    def counting(samples, fs, nfft):
        references.append(samples.shape[0])  # element 1's (k, n) frame
        return welch_power(samples, fs, nfft)

    monkeypatch.setattr(experiments, "welch_power", counting)
    run_experiment(cfg, output_dir=tmp_path)
    assert references == [4] * per_chunk + [2] * per_chunk


@pytest.mark.parametrize(
    ("name", "frame_len"), [("fig16", 1024), ("fig17", 1024), ("fig18", 1024), ("fig16", 8192)]
)
def test_spectra_span_the_frame_up_to_4096_samples(name, frame_len, tmp_path, monkeypatch):
    # every spectrum of a run, reference and rows alike, is taken at min(4096, frame_len)
    lengths = set()
    welch_power = metrics.welch_power

    def recording(samples, fs, nfft):
        lengths.add((samples.shape[-1], nfft))
        return welch_power(samples, fs, nfft)

    monkeypatch.setattr(metrics, "welch_power", recording)
    monkeypatch.setattr(experiments, "welch_power", recording)
    cfg = dataclasses.replace(preset(name), frame_len=frame_len, tone_count=2)
    run_experiment(cfg, output_dir=tmp_path)
    assert lengths == {(frame_len, min(4096, frame_len))}


def test_cancelled_row_stacks_take_no_welch_transform(tmp_path, monkeypatch):
    # fig16's ideal clocks align the interferer exactly, so those row stacks are all zero: they
    # read +inf with no spectrum, and each other stack takes one
    stacks, spectra = [], []
    cancellation_depth, welch_power = experiments.cancellation_depth, metrics.welch_power

    def measuring(ref, canc, *args):
        stacks.append(bool(np.any(canc)))
        return cancellation_depth(ref, canc, *args)

    def recording(samples, fs, nfft):
        spectra.append(bool(np.any(samples)))
        return welch_power(samples, fs, nfft)

    monkeypatch.setattr(experiments, "cancellation_depth", measuring)
    monkeypatch.setattr(metrics, "welch_power", recording)
    run_experiment(dataclasses.replace(preset("fig16"), tone_count=8), output_dir=tmp_path)
    assert stacks.count(False) == stacks.count(True) == 6  # 2 chunks, 3 delays, 2 clocks
    assert spectra == [True] * 6


def test_runners_measure_through_the_public_names(tmp_path, monkeypatch):
    # bench/tracer.py times the measurements by wrapping these two names in experiments
    calls = dict.fromkeys(("cancellation_depth", "conversion_gain_measured"), 0)
    for name in calls:

        def counting(*args, _name=name, _measure=getattr(experiments, name)):
            calls[_name] += 1
            return _measure(*args)

        monkeypatch.setattr(experiments, name, counting)
    small = {"frame_len": 256, "tone_count": 2, "delta_ud_s": [1e-9]}
    for kind in ("TTD_TONE_SWEEP", "DESIRED_GAIN"):
        run_experiment(ExperimentConfig.from_dict({"experiment": kind, **small}), tmp_path)
    # one call per chunk and branch: the sweep's ideal and quantized clocks, the gain's one
    assert calls == {"cancellation_depth": 2, "conversion_gain_measured": 1}


@pytest.mark.parametrize(("name", "streams"), [("fig18", 1), ("fig19", 2)])
def test_stream_scene_evaluates_each_source_pulse_once(name, streams, tmp_path, monkeypatch):
    # fig18's desired source is silent and fig19's a second stream: one rrc_pulse call gives a
    # stream source's pulses at every element's phases
    calls = []
    rrc_pulse, element_signal = waveform.rrc_pulse, experiments.element_signal

    def counting(*args, **kwargs):
        calls[-1] += 1
        return rrc_pulse(*args, **kwargs)

    def sampling(*args):
        calls.append(0)
        return element_signal(*args)

    monkeypatch.setattr(waveform, "rrc_pulse", counting)
    monkeypatch.setattr(experiments, "element_signal", sampling)
    run_experiment(preset(name), output_dir=tmp_path)
    assert calls == [streams]


def test_stream_scene_holds_little_beside_its_frame(tmp_path, monkeypatch):
    # fig18's four 65,536-sample rows are written block by block into the frame returned: the
    # traced peak stays within 1.25 times its bytes (about 2 with per-element rows stacked)
    peaks = []
    element_signal = experiments.element_signal

    def measured(*args):
        tracemalloc.start()
        try:
            out = element_signal(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] / out.nbytes)
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(experiments, "element_signal", measured)
    run_experiment(preset("fig18"), output_dir=tmp_path)
    assert len(peaks) == 1 and peaks[0] <= 1.25


def two_pass_recover(rows, fs, stream, genie, delta, n, offset_hz):
    """The equalize-then-filter chain the fused receive filter replaced: each row is
    transformed, divided by G_r(f + offset_hz) where |G_r| >= 0.05 max |G_r| and zeroed
    elsewhere, transformed back, and only then matched-filtered."""
    freqs = np.fft.fftfreq(rows.shape[-1], d=1.0 / fs) + offset_hz
    equalized = []
    for r, row in enumerate(rows):
        g = desired_conversion_gain(freqs, delta, r, n)
        keep = np.abs(g) >= 0.05 * np.max(np.abs(g))
        equalized.append(np.fft.ifft(np.where(keep, np.fft.fft(row) / np.where(keep, g, 1.0), 0)))
    return metrics.recover_symbols(np.array(equalized), fs, stream, genie)


@pytest.mark.parametrize("seed", [191, 7, 1234])
@pytest.mark.parametrize("mode", ["BB_DIRECT", "RF_DERIVED"])
def test_fused_receive_filter_matches_two_pass_chain(mode, seed, tmp_path, monkeypatch):
    # fig19's rows, as the runner hands them with equalize's responses to recover_symbols
    seen = {}

    def capture(rows, fs, stream, genie, responses):
        seen.update(rows=rows, fs=fs, stream=stream, genie=genie)
        seen["got"] = metrics.recover_symbols(rows, fs, stream, genie, responses)
        return seen["got"]

    monkeypatch.setattr(experiments, "recover_symbols", capture)
    cfg = dataclasses.replace(preset("fig19"), mode=SceneMode(mode), seed=seed)
    _, rows = read_csv(run_experiment(cfg, output_dir=tmp_path)["csv"])
    offset = cfg.carrier_freq_hz if mode == "RF_DERIVED" else 0.0
    args = seen["rows"], seen["fs"], seen["stream"], seen["genie"]
    want = two_pass_recover(*args, cfg.delta_ud_s[0], cfg.n_elements, offset)
    got, ref = seen["got"], seen["stream"].symbols
    assert got.shape == want.shape == (3, ref.size)
    rms = np.sqrt(np.mean(np.abs(want) ** 2, axis=-1))
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * rms)
    for r, (g, w) in enumerate(zip(got, want)):
        evm = metrics.evm_percent(w, ref)
        assert abs(metrics.evm_percent(g, ref) - evm) <= 1e-12 * evm
        assert float(rows[r][2]) == metrics.evm_percent(g, ref)


def test_below_floor_tone_inside_a_chunk_is_named(tmp_path):
    # at 5 ns per element row 0 nulls 50 MHz, the third tone of the first
    # chunk, and leaves only noise there
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "DESIRED_GAIN",
            "delta_ud_s": [5e-9],
            "tone_start_hz": 40e6,
            "tone_stop_hz": 60e6,
            "tone_count": 5,
            "noise_rms": 1e-3,
            "seed": 1,
            "frame_len": 256,
        }
    )
    with pytest.raises(MeasurementError, match=r"tone at 5e\+07 Hz is below the all-input") as err:
        run_experiment(cfg, output_dir=tmp_path)
    with pytest.raises(MeasurementError) as reference:
        per_tone_rows(cfg)
    assert str(err.value) == str(reference.value)


# Valid gain runs that one unmeasurable point aborts: the CLI exits 2 and writes no CSV.
_ABORTED_GAIN_RUNS = {
    "every-row-null": {"experiment": "DESIRED_GAIN", "delta_ud_s": [0.0]},
    "tone-at-dc": {
        "experiment": "DESIRED_GAIN",
        "tone_start_hz": -99e6,
        "tone_stop_hz": 99e6,
        "tone_count": 7,
        "delta_ud_s": [1e-9],
    },
    # the 1 MHz tone's gain, -86.5 dB, lies under the -86.9 dB median floor
    "fig17-noisy": {**preset("fig17").to_dict(), "noise_rms": 1e-3, "seed": 1},
}


@pytest.mark.xfail(strict=True, raises=MeasurementError, reason="a null or noisy point aborts")
@pytest.mark.parametrize("data", _ABORTED_GAIN_RUNS.values(), ids=_ABORTED_GAIN_RUNS)
def test_gain_run_with_an_unmeasurable_point_completes(data, tmp_path):
    run_experiment(ExperimentConfig.from_dict(data), output_dir=tmp_path)


@pytest.mark.parametrize("mode", list(SceneMode))
@pytest.mark.parametrize("kind", ["TTD_TONE_SWEEP", "DESIRED_GAIN"])
def test_multi_delay_run_concatenates_one_delay_runs(kind, mode, tmp_path):
    # The runners go chunk first, then delay, but write one block per delay in delay order:
    # noise-free, the three-delay CSV is the header and then each one-delay run's rows.
    # Six tones make a full chunk and a partial one.
    base = dict(
        experiment=kind, mode=mode.value, frame_len=256, tone_start_hz=3e6, tone_stop_hz=93e6,
        tone_count=6, band_halfwidth_hz=1e6,
    )
    deltas = [1e-9, -2.347e-9, 4e-9]
    whole = run_experiment(ExperimentConfig.from_dict({**base, "delta_ud_s": deltas}), tmp_path)
    singles = [
        run_experiment(
            ExperimentConfig.from_dict({**base, "delta_ud_s": [d], "output": f"one{i}"}), tmp_path
        )
        for i, d in enumerate(deltas)
    ]
    texts = [Path(result["csv"]).read_bytes().split(b"\r\n", 1) for result in singles]
    header = texts[0][0] + b"\r\n"
    assert Path(whole["csv"]).read_bytes() == header + b"".join(rows for _, rows in texts)
    planned = [result["derived"].get("planned_configs", {}) for result in singles]
    assert whole["derived"].get("planned_configs", {}) == {k: p[k] for p in planned for k in p}


def test_first_failure_is_chunk_major(tmp_path):
    # Two delays each leave one tone under the noise: 3.33 ns nulls row 0 at 75 MHz (second
    # chunk) and 5 ns at 50 MHz (first chunk).  Each chunk is measured under every delay
    # before the next is sampled, so the 50 MHz point under the second delay is raised; a
    # delay-major loop would raise 75 MHz under the first.
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "DESIRED_GAIN",
            "delta_ud_s": [1 / 300e6, 5e-9],
            "tone_start_hz": 40e6,
            "tone_stop_hz": 80e6,
            "tone_count": 9,
            "noise_rms": 1e-3,
            "seed": 1,
            "frame_len": 256,
        }
    )
    for deltas, tone in (([1 / 300e6], r"7\.5e\+07"), ([5e-9], r"5e\+07")):
        with pytest.raises(MeasurementError, match=f"tone at {tone} Hz is below the all-input"):
            run_experiment(dataclasses.replace(cfg, delta_ud_s=tuple(deltas)), tmp_path)
    with pytest.raises(MeasurementError, match=r"tone at 5e\+07 Hz is below the all-input"):
        run_experiment(cfg, output_dir=tmp_path)


# Tone frequencies inside +/- fs/2 at fs = 200 MHz.
_BELOW_NYQUIST = st.floats(-1e8, 1e8, exclude_min=True, exclude_max=True)


@given(
    freqs=st.lists(_BELOW_NYQUIST, min_size=1, max_size=4),
    delta=st.floats(-15e-9, 15e-9),
    planned=st.booleans(),
    interferer=st.booleans(),
    desired_delay=st.floats(-15e-9, 15e-9),
    mode=st.sampled_from(list(SceneMode)),
    gains=st.lists(
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0), min_size=4, max_size=4
    ),
    noise_rms=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rotated_tone_frames_match_direct_sampling(
    freqs, delta, planned, interferer, desired_delay, mode, gains, noise_rms, seed
):
    # oracle: every element sampled directly at its own clock, LO-aligned in RF_DERIVED, plus
    # the noise of the runners' (seed, delay, tone, [branch,] element) keys, against the runners'
    # grid frame rotated by one (k, 1) phasor per element, with that noise added to the stack
    n, fs, n_samples = 4, 2e8, 64
    keys = [(seed, 2, j, 1)[: 4 if interferer else 3] for j in range(len(freqs))]
    tones = Waveform(terms=(ToneTerm(1.0, np.array(freqs)[:, None]),))
    fc = 10e9
    if interferer:
        sources = (SourceSpec(Waveform(), desired_delay), (SourceSpec(tones, delta),))
    else:
        sources = (SourceSpec(tones, desired_delay), ())
    scene = Scene(n, fc, *sources, element_mismatch=gains, mode=mode)
    shift = min(0.0, (n - 1) * delta)
    delays = [i * delta - shift for i in range(n)]
    if planned:
        delays = [total_delay(*plan_delay(d, max_offset=8)) for d in delays]
    grid = sample_element(tones.terms[0], 0.0, fs, n_samples)
    branch = [(delays, keys)]
    [frames] = experiments._scene_frames(scene, branch, fs, n_samples, noise_rms, grid=grid)
    phasors = np.ones(n)
    if interferer and mode is SceneMode.RF_DERIVED:
        phasors = np.exp(2j * np.pi * fc * np.arange(n) * delta)
    for i, clean in enumerate(frames_by_loop(scene, delays, fs, n_samples, phasors)):
        seeds = [np.random.SeedSequence([*key, i + 1]) for key in keys]
        want = _noisy_frame(clean, noise_rms, seeds)
        np.testing.assert_allclose(frames[i], want, rtol=0, atol=1e-11)


# Field text csv.writer never quotes: no comma, quote or line break.
_PLAIN_TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x2FF, blacklist_characters=',"'), min_size=1
)
_EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e22])
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def tables_as_blocks(draw):
    """Columns of every kind a runner writes, and a random split of their rows into blocks."""
    n_rows = draw(st.integers(0, 12))
    kinds = {
        "float": st.floats() | _EDGE_FLOATS,
        "int": _INT64,
        "float64": st.floats() | _EDGE_FLOATS,
        "int64": _INT64,
        "str": _PLAIN_TEXT,
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5)):
        values = draw(st.lists(kinds[kind], min_size=n_rows, max_size=n_rows))
        if kind in ("float64", "int64"):
            values = np.array(values, dtype=kind)
        columns.append(values)
    cuts = sorted(draw(st.lists(st.integers(0, n_rows), max_size=4)))
    bounds = list(zip([0, *cuts], [*cuts, n_rows]))
    blocks = [tuple(column[lo:hi] for column in columns) for lo, hi in bounds]
    return columns, blocks


class TestWriteCsv:
    def test_matches_csv_writer(self, tmp_path):
        header = ["a", "b", "c"]
        rows = [
            [3, 0.1, np.float64(2.0) / 3.0],
            [math.inf, -math.inf, -0.0],
            [np.float64(-0.0), "Q_N", np.float64(-1.5e-300)],
            [np.int64(-7), 1e22, np.float64(math.inf)],
        ]
        blocks = [tuple(zip(*rows[:2])), tuple(zip(*rows[2:]))]
        experiments._write_csv(tmp_path / "plain.csv", header, blocks)
        write_with_csv_writer(tmp_path / "csv.csv", header, rows)
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()

    @given(table=tables_as_blocks())
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_csv_writer_rows(self, table):
        # Rows of the numpy columns hold numpy scalars, so this also pins
        # str(x) of .tolist() to str of np.float64 and np.int64.  Chunks of
        # 1 and 3 rows let the at most 12 drawn rows cross chunk boundaries.
        columns, blocks = table
        header = [f"c{i}" for i in range(len(columns))]
        for chunk_rows in (1, 3, experiments._CSV_ROWS):
            with (
                mock.patch.object(experiments, "_CSV_ROWS", chunk_rows),
                tempfile.TemporaryDirectory() as out,
            ):
                experiments._write_csv(Path(out, "blocks.csv"), header, blocks)
                write_with_csv_writer(Path(out, "rows.csv"), header, zip(*columns))
                assert Path(out, "blocks.csv").read_bytes() == Path(out, "rows.csv").read_bytes()

    def test_block_longer_than_two_chunks_matches_csv_writer(self, tmp_path):
        n = 2 * experiments._CSV_ROWS + 1
        floats = np.resize([-0.0, math.inf, 5e-324, 0.1, -1.5e-300], n)
        columns = [range(n), [f"Q{i % 4}" for i in range(n)], np.arange(-n, n, 2), floats]
        header = ["row", "label", "int64", "float64"]
        empty = tuple(c[:0] for c in columns)
        experiments._write_csv(tmp_path / "chunks.csv", header, [empty, tuple(columns), empty])
        write_with_csv_writer(tmp_path / "rows.csv", header, zip(*columns))
        assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize(
        "block",
        [([1, 2], [3.0]), (np.zeros(3), [1.0, 2.0]), ([1], [2], [3]), ([1],)],
        ids=["ragged-lists", "ragged-array", "extra-column", "missing-column"],
    )
    def test_block_that_does_not_fit_raises(self, block, tmp_path):
        with pytest.raises(ValueError, match="column lengths"):
            experiments._write_csv(tmp_path / "bad.csv", ["a", "b"], [([0], [0]), block])


# A small config of each kind.
_SMALL_CONFIGS = {
    "ps_leakage": dict(experiment="PS_LEAKAGE", ps_n_elements=[4, 16], fnorm_count=5),
    "tone_sweep": dict(
        experiment="TTD_TONE_SWEEP",
        delta_ud_s=[1e-9, 2e-9],
        tone_start_hz=10e6,
        tone_stop_hz=90e6,
        tone_count=3,
        frame_len=256,
    ),
    "desired_gain": dict(
        experiment="DESIRED_GAIN", delta_ud_s=[1e-9, 2.5e-9], tone_count=2, frame_len=256
    ),
    "modulated": dict(experiment="TTD_MODULATED", delta_ud_s=[2.347e-9], seed=1, frame_len=2048),
    "qpsk_evm": dict(
        experiment="QPSK_EVM", delta_ud_s=[2.5e-9], seed=11, desired_n_symbols=8, frame_len=8192
    ),
    "plan_clock": dict(experiment="PLAN_CLOCK", plan_targets_s=[0.0, 1e-9, 7.3e-9]),
}


@pytest.mark.parametrize("name", sorted(_SMALL_CONFIGS))
def test_rows_count_data_lines_of_main_csv(name, tmp_path):
    cfg = ExperimentConfig.from_dict(_SMALL_CONFIGS[name])
    result = run_experiment(cfg, output_dir=tmp_path)
    lines = Path(result["csv"]).read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    assert result["rows"] == len(lines) - 2


_TONES = dict(tone_start_hz=1e6, tone_stop_hz=99e6, tone_count=5, frame_len=2048)


@pytest.mark.parametrize("mode", ["BB_DIRECT", "RF_DERIVED"])
@pytest.mark.parametrize(
    "cfg",
    [
        dict(experiment="TTD_TONE_SWEEP", delta_ud_s=[1e-9, -2.347e-9], **_TONES),
        dict(experiment="DESIRED_GAIN", delta_ud_s=[2.5e-9], **_TONES),
        dict(experiment="TTD_MODULATED", delta_ud_s=[2.347e-9], seed=1, frame_len=2048),
    ],
    ids=["sweep", "desired_gain", "modulated"],
)
def test_ttd_outputs_ignore_the_angle_fields(cfg, mode, tmp_path):
    # A TTD scene places the desired source at 0 and the interferer at delta_ud_s, so the
    # spacing and angle, which only PS_LEAKAGE reads, leave every output byte the same.
    outputs = []
    for dol, theta in ((0.5, 45.0), (0.17, -30.0)):
        config = ExperimentConfig.from_dict(
            {**cfg, "mode": mode, "d_over_lambda": dol, "theta_ud_deg": theta, "output": "run"}
        )
        result = run_experiment(config, output_dir=tmp_path / str(dol))
        names = json.loads(Path(result["manifest"]).read_text())["outputs"].values()
        outputs.append({name: (tmp_path / str(dol) / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


class TestCli:
    def test_preset_prints_json(self, capsys):
        assert main(["preset", "fig10"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["experiment"] == "PLAN_CLOCK"

    def test_preset_emit_config_then_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "fig10.json"
        assert main(["preset", "fig10", "--emit-config", str(cfg_path)]) == 0
        assert main(["run", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "fig10.csv").exists()
        assert (tmp_path / "fig10_manifest.json").exists()

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["preset", "fig99"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "fig4" in err

    def test_run_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,code,out,err",
        [
            (["4e-9"], 0, "pi_code=50 quadrant=Q_N interleave_offset=0 "
             "total=4.000000000000e-09 s error=0.000e+00 s\n", ""),
            (["15e-9"], 0, "pi_code=250 quadrant=Q_N interleave_offset=2 "
             "total=1.500000000000e-08 s error=3.309e-24 s\n", ""),
            (["2.6e-12"], 0, "pi_code=1 quadrant=I_P interleave_offset=0 "
             "total=5.000000000000e-12 s error=2.400e-12 s\n", ""),
            (["33e-9", "--max-offset", "7"], 0, "pi_code=100 quadrant=I_N interleave_offset=6 "
             "total=3.300000000000e-08 s error=6.617e-24 s\n", ""),
            (["1e-6"], 1, "",
             "config error: target delay 1.000000e-06 s outside [0, 1.500000e-08] s\n"),
            (["nan"], 1, "", "config error: target delay nan s outside [0, 1.500000e-08] s\n"),
        ],
        ids=["4e-9", "15e-9", "2.6e-12", "33e-9-offset-7", "1e-6", "nan"],
    )
    def test_plan_prints_exact_output(self, capsys, args, code, out, err):
        assert main(["plan", *args]) == code
        assert capsys.readouterr() == (out, err)

    def test_runtime_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, output_dir=None):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr("spica.cli.run_experiment", fail)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(PLAN))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 2
        assert "error: simulated failure" in capsys.readouterr().err

    def test_plan_out_of_range_is_config_error(self, capsys):
        # an out-of-range target is pinned above; a max offset past int64 is one too
        assert main(["plan", "1e-9", "--max-offset", str(2**63)]) == 1
        assert "config error: max_offset must fit in int64" in capsys.readouterr().err

    def test_plan_extended_offset(self, capsys):
        assert main(["plan", "33e-9", "--max-offset", str(2**63 - 1)]) == 0
        out = capsys.readouterr().out
        assert "interleave_offset=6" in out
