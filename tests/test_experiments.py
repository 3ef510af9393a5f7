"""Experiment config, runner, preset and CLI tests."""

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spica import experiments
from spica import (
    ClockConfig,
    ConfigError,
    Experiment,
    ExperimentConfig,
    Quadrant,
    SceneMode,
    config_total_delay,
    load_config,
    plan_delay,
    preset,
    preset_names,
    run_experiment,
)
from spica.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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

    def test_qpsk_needs_seed(self):
        cfg = ExperimentConfig(Experiment.QPSK_EVM, delta_ud_s=(2e-9,), interferer=False)
        with pytest.raises(ConfigError, match="seed: required to draw symbol bits"):
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
    ("interferer", 1),
    ("delta_ud_s", ["1e-9"]),
]


QPSK = {"experiment": "QPSK_EVM", "delta_ud_s": [2.5e-9], "seed": 1, "frame_len": 65536}
TONE_SWEEP = {"experiment": "TTD_TONE_SWEEP", "delta_ud_s": [1e-9]}
# (valid base config, field set, bad value, field the error must name)
BAD_VALUES = [
    # zero delay: G_r(f) is 0 everywhere, nothing to equalize
    pytest.param(QPSK, "delta_ud_s", [0.0], "delta_ud_s", id="qpsk-zero-delta_ud_s"),
    # negative delay: genie timing does not include the common clock offset
    pytest.param(QPSK, "delta_ud_s", [-2.5e-9], "delta_ud_s", id="qpsk-negative-delta_ud_s"),
    # shorter than the desired symbols plus matched-filter span
    pytest.param(QPSK, "frame_len", 2048, "frame_len", id="qpsk-frame_len"),
    # bins 12.5 MHz and 1.5625 MHz apart: the 1 MHz band around a tone can miss them all
    pytest.param(TONE_SWEEP, "frame_len", 16, "band_halfwidth_hz", id="tone-band-frame_len-16"),
    pytest.param(TONE_SWEEP, "frame_len", 128, "band_halfwidth_hz", id="tone-band-frame_len-128"),
]


class TestValueTypes:
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

    def test_integer_accepted_for_float_field(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "TTD_TONE_SWEEP", "delta_ud_s": [1e-9], "tone_start_hz": 1000000}
        )
        assert cfg.tone_start_hz == 1e6

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
    def test_plan_clock_rows_match_scalar_planner(self, grid):
        cfg = preset("fig10")
        if grid:
            targets = np.linspace(0.0, 15e-9, 20_001).tolist()
            cfg = dataclasses.replace(cfg, plan_targets_s=tuple(targets))
        expected = []
        for target in cfg.plan_targets_s:
            c = plan_delay(target, cfg.max_offset)
            total = config_total_delay(c)
            expected.append(
                [target, c.pi_code, c.quadrant.name, c.interleave_offset, total, total - target]
            )
        tables, _ = experiments._run_plan_clock(cfg)
        assert repr(tables[""][1]) == repr(expected)

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

    def test_modulated_without_interferer_is_structured(self, tmp_path):
        cfg = ExperimentConfig(
            Experiment.TTD_MODULATED,
            output="mod_none",
            delta_ud_s=(2e-9,),
            seed=5,
            interferer=False,
        )
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result["rows"] == 0
        assert result["derived"] == {"result": "no_interferer"}
        header, rows = read_csv(result["csv"])
        assert header == ["row", "band_lo_hz", "band_hi_hz", "depth_db"]
        assert rows == []

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
            total = config_total_delay(ClockConfig(pi_code, Quadrant[quadrant], offset))
            assert abs(total - (i * delta + shift)) <= 2.5e-12 * (1.0 + 1e-9)

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

    def test_plan_prints_decomposition(self, capsys):
        assert main(["plan", "4e-9"]) == 0
        out = capsys.readouterr().out
        assert "pi_code=50" in out
        assert "quadrant=Q_N" in out
        assert "interleave_offset=0" in out

    def test_plan_out_of_range_is_config_error(self, capsys):
        assert main(["plan", "1e-6"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_plan_extended_offset(self, capsys):
        assert main(["plan", "33e-9", "--max-offset", "7"]) == 0
        out = capsys.readouterr().out
        assert "interleave_offset=6" in out