"""Config-driven experiment runners with CSV + manifest outputs."""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import ArrayGeometry, Scene, SceneMode, SourceSpec, element_signal, lo_align
from .metrics import (
    _welch_freqs,
    cancellation_depth,
    conversion_gain_measured,
    evm_percent,
    recover_symbols,
)
from .ps_cancel import PsCancelPlan, ps_residual_gain
from .ttd import (
    INTERLEAVE_STEP,
    Quadrant,
    _total_delay,
    desired_conversion_gain,
    equalize,
    mac_apply,
    plan_delay,  # noqa: F401  (not called here; bench/tracer.py wraps this name)
    plan_delays,
    sample_element,
    truncated_hadamard,
)
from .waveform import StreamTerm, ToneTerm, Waveform, map_qpsk

__all__ = [
    "Experiment",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "preset",
    "preset_names",
    "run_experiment",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class Experiment(enum.Enum):
    PS_LEAKAGE = "PS_LEAKAGE"
    TTD_TONE_SWEEP = "TTD_TONE_SWEEP"
    TTD_MODULATED = "TTD_MODULATED"
    DESIRED_GAIN = "DESIRED_GAIN"
    QPSK_EVM = "QPSK_EVM"
    PLAN_CLOCK = "PLAN_CLOCK"


_TUPLE_FIELDS = ("ps_n_elements", "delta_ud_s", "plan_targets_s")


@dataclass
class ExperimentConfig:
    """Flat parameter bag for all experiment kinds; validated per kind."""

    experiment: Experiment
    output: str = ""
    seed: int | None = None
    noise_rms: float = 0.0
    mode: SceneMode = SceneMode.BB_DIRECT
    n_elements: int = 4
    d_over_lambda: float = 0.5
    carrier_freq_hz: float = 10e9
    sample_rate_hz: float = 200e6
    frame_len: int = 2048
    band_halfwidth_hz: float = 0.5e6
    # phase-shift leakage sweep
    ps_n_elements: tuple[int, ...] = (4, 16, 64)
    theta_ud_deg: float = 45.0
    fnorm_start: float = 0.9
    fnorm_stop: float = 1.1
    fnorm_count: int = 401
    # tone sweeps
    tone_start_hz: float = 1e6
    tone_stop_hz: float = 99e6
    tone_count: int = 99
    delta_ud_s: tuple[float, ...] = ()
    # modulated interferer
    interferer: bool = True
    symbol_rate_hz: float = 64e6
    rolloff: float = 0.25
    span_symbols: int = 16
    center_freq_hz: float = 50e6
    # qpsk evm
    desired_symbol_rate_hz: float = 2e6
    desired_center_hz: float = 50e6
    desired_n_symbols: int = 400
    interferer_excess_db: float = 12.0
    eq_eps: float | None = None
    # clock planning
    plan_targets_s: tuple[float, ...] = ()
    max_offset: int = 2

    def __post_init__(self):
        for name, kind in (("experiment", Experiment), ("mode", SceneMode)):
            value = getattr(self, name)
            if isinstance(value, str):
                try:
                    setattr(self, name, kind(value))
                except ValueError:
                    names = ", ".join(e.value for e in kind)
                    _fail(name, f"unknown value {value!r} (expected one of {names})")
        for name in _TUPLE_FIELDS:
            setattr(self, name, tuple(getattr(self, name)))
        if not self.output:
            self.output = self.experiment.value.lower()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(data) - set(hints))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        if "experiment" not in data:
            raise ConfigError("experiment: field is required")
        for name, value in data.items():
            if not _has_type(value, hints[name]):
                _fail(name, f"expected {cls.__annotations__[name]}, got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        # Every field is immutable, so the values need no deep copy.
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["experiment"] = self.experiment.value
        out["mode"] = self.mode.value
        for name in _TUPLE_FIELDS:
            out[name] = list(out[name])
        return out

    def validate(self) -> None:
        if os.sep in self.output or (os.altsep and os.altsep in self.output):
            _fail("output", "must be a bare file stem, not a path")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            _fail("seed", f"must be a non-negative integer, got {self.seed!r}")
        _check_min(self, "noise_rms", 0)
        if self.noise_rms > 0 and self.seed is None:
            _fail("seed", "required whenever noise_rms > 0")
        for name in ("sample_rate_hz", "d_over_lambda", "carrier_freq_hz", "band_halfwidth_hz"):
            _check_positive(self, name)
        _check_power_of_two("frame_len", self.frame_len, 16)
        _check_power_of_two("n_elements", self.n_elements, 2)
        checks, _ = _KINDS[self.experiment]
        for check in checks:
            check(self)


def _has_type(value, hint) -> bool:
    """JSON type check: bools are not numbers, ints pass as floats, enums take strings."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # X | None
        return any(_has_type(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    if issubclass(hint, enum.Enum):
        return isinstance(value, (str, hint))
    return isinstance(value, hint)


def load_config(path) -> ExperimentConfig:
    """Load a config JSON; also accepts a manifest (its echoed config is used)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# config checks


def _fail(field_name: str, msg: str):
    raise ConfigError(f"{field_name}: {msg}")


def _check_positive(cfg: ExperimentConfig, name: str) -> None:
    if getattr(cfg, name) <= 0:
        _fail(name, f"must be positive, got {getattr(cfg, name)}")


def _check_min(cfg: ExperimentConfig, name: str, least: int) -> None:
    if getattr(cfg, name) < least:
        _fail(name, f"must be >= {least}, got {getattr(cfg, name)}")


def _check_power_of_two(name: str, n: int, least: int, what: str = "must be") -> None:
    if n < least or (n & (n - 1)) != 0:
        _fail(name, f"{what} a power of 2 >= {least}, got {n}")


def _plan_range(cfg: ExperimentConfig) -> float:
    return (cfg.max_offset + 1) * INTERLEAVE_STEP


def _check_ps_leakage(cfg: ExperimentConfig) -> None:
    if not cfg.ps_n_elements:
        _fail("ps_n_elements", "must list at least one element count")
    for n in cfg.ps_n_elements:
        _check_power_of_two("ps_n_elements", n, 2, what="entries must be")
    if not -90.0 <= cfg.theta_ud_deg <= 90.0:
        _fail("theta_ud_deg", f"must be in [-90, 90], got {cfg.theta_ud_deg}")
    _check_min(cfg, "fnorm_count", 1)
    if cfg.fnorm_stop < cfg.fnorm_start:
        _fail("fnorm_stop", "must be >= fnorm_start")


def _check_tone_grid(cfg: ExperimentConfig) -> None:
    nyquist = cfg.sample_rate_hz / 2.0
    _check_min(cfg, "tone_count", 1)
    if cfg.tone_stop_hz < cfg.tone_start_hz:
        _fail("tone_stop_hz", "must be >= tone_start_hz")
    if abs(cfg.tone_start_hz) >= nyquist or abs(cfg.tone_stop_hz) >= nyquist:
        _fail("tone_stop_hz", f"tone grid must sit inside +/-{nyquist:.4g} Hz")
    if not cfg.delta_ud_s:
        _fail("delta_ud_s", "must list at least one inter-element delay")


def _check_tone_bands(cfg: ExperimentConfig) -> None:
    """Every tone's measurement band must hold at least one Welch bin."""
    nfft = min(4096, cfg.frame_len)
    bins = _welch_freqs(nfft, cfg.sample_rate_hz)
    tones = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    lo, hi = tones - cfg.band_halfwidth_hz, tones + cfg.band_halfwidth_hz
    first = np.minimum(np.searchsorted(bins, lo), bins.size - 1)
    empty = np.flatnonzero(bins[first] > hi)
    if empty.size:
        _fail(
            "band_halfwidth_hz",
            f"band around the {tones[empty[0]]:.6g} Hz tone holds no PSD bin "
            f"(bin spacing {cfg.sample_rate_hz / nfft:.4g} Hz at nfft {nfft})",
        )


def _check_delay_range(cfg: ExperimentConfig) -> None:
    worst = max(abs(d) for d in cfg.delta_ud_s) * (cfg.n_elements - 1)
    if worst > _plan_range(cfg):
        _fail(
            "delta_ud_s",
            f"largest per-element delay {worst:.4g} s exceeds the "
            f"{_plan_range(cfg):.4g} s planner range",
        )


def _check_band(cfg: ExperimentConfig, name: str, center: float, symbol_rate: float) -> None:
    occupied = symbol_rate * (1.0 + cfg.rolloff) / 2.0
    if abs(center) + occupied > cfg.sample_rate_hz / 2.0:
        _fail(name, "occupied band extends past Nyquist")


def _check_stream(cfg: ExperimentConfig) -> None:
    if len(cfg.delta_ud_s) != 1:
        _fail("delta_ud_s", "must list exactly one inter-element delay")
    _check_positive(cfg, "symbol_rate_hz")
    if not 0.0 <= cfg.rolloff <= 1.0:
        _fail("rolloff", f"must be in [0, 1], got {cfg.rolloff}")
    _check_min(cfg, "span_symbols", 1)
    _check_band(cfg, "center_freq_hz", cfg.center_freq_hz, cfg.symbol_rate_hz)
    if cfg.interferer and cfg.seed is None:
        _fail("seed", "required to draw interferer symbols")


def _check_qpsk(cfg: ExperimentConfig) -> None:
    _check_positive(cfg, "desired_symbol_rate_hz")
    _check_min(cfg, "desired_n_symbols", 8)
    _check_band(cfg, "desired_center_hz", cfg.desired_center_hz, cfg.desired_symbol_rate_hz)
    samples_per_symbol = cfg.sample_rate_hz / cfg.desired_symbol_rate_hz
    if abs(samples_per_symbol - round(samples_per_symbol)) > 1e-9:
        _fail(
            "desired_symbol_rate_hz",
            "sample_rate_hz must be an integer multiple of the symbol rate",
        )
    if cfg.eq_eps is not None and cfg.eq_eps <= 0:
        _fail("eq_eps", f"must be positive, got {cfg.eq_eps}")
    if cfg.seed is None:
        _fail("seed", "required to draw symbol bits")
    n_needed = cfg.desired_n_symbols + cfg.span_symbols
    last_needed = _genie_timing(cfg) + n_needed / cfg.desired_symbol_rate_hz
    if last_needed > cfg.frame_len / cfg.sample_rate_hz:
        _fail("frame_len", "too short for desired_n_symbols plus matched-filter span")
    # With no delay difference every row's gain G_r(f) is zero at every f,
    # so there is nothing to equalize.
    if cfg.delta_ud_s[0] == 0:
        _fail("delta_ud_s", "must be nonzero: at zero delay every row nulls the desired signal")
    # A negative delay shifts every clock by a common offset (see
    # _clock_targets) that genie timing does not include.
    if cfg.delta_ud_s[0] < 0:
        _fail("delta_ud_s", "must be positive: genie timing assumes element 1's clock is undelayed")


def _check_plan_clock(cfg: ExperimentConfig) -> None:
    if not cfg.plan_targets_s:
        _fail("plan_targets_s", "must list at least one target delay")
    _check_min(cfg, "max_offset", 0)
    plan_range = _plan_range(cfg)
    for t in cfg.plan_targets_s:
        if not 0.0 <= t <= plan_range:
            _fail("plan_targets_s", f"target {t:.4g} s outside [0, {plan_range:.4g}] s")


# ---------------------------------------------------------------------------
# presets

# Fields a preset leaves out take the ExperimentConfig defaults.  fig18 and
# fig19 use a non-grid-aligned inter-element delay so the 5 ps planner is
# actually exercised; the default 64 MHz symbols with 0.25 rolloff occupy
# 80 MHz around a 50 MHz center, keeping the band clear of the DC null.
_GAIN = dict(experiment=Experiment.DESIRED_GAIN, delta_ud_s=(0.5e-9, 1e-9, 2.5e-9, 4e-9))
_STREAM = dict(delta_ud_s=(2.347e-9,), frame_len=65536)
_PRESETS = {
    "fig4": dict(experiment=Experiment.PS_LEAKAGE),
    "fig6": dict(_GAIN, tone_stop_hz=99.5e6, tone_count=198),
    "fig10": dict(experiment=Experiment.PLAN_CLOCK, plan_targets_s=(0.0, 4e-9, 8e-9, 12e-9)),
    "fig16": dict(experiment=Experiment.TTD_TONE_SWEEP, delta_ud_s=(1e-9, 2e-9, 4e-9)),
    "fig17": _GAIN,
    "fig18": dict(experiment=Experiment.TTD_MODULATED, seed=181, **_STREAM),
    "fig19": dict(experiment=Experiment.QPSK_EVM, seed=191, **_STREAM),
}


def preset_names() -> list:
    return sorted(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    """Canonical config for a named measurement scenario."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    cfg = ExperimentConfig(output=name, **_PRESETS[name])
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# runners: each returns ({csv suffix: (header, rows)}, derived); suffix "" is the main CSV


def _scene(cfg: ExperimentConfig, desired: Waveform, undesired=None, delta=0.0) -> Scene:
    """Desired source at broadside plus an optional interferer at inter-element delay delta."""
    interferers = ()
    if undesired is not None:
        interferers = (SourceSpec(waveform=undesired, explicit_delay_override=delta),)
    return Scene(
        geometry=ArrayGeometry(cfg.n_elements, cfg.d_over_lambda, cfg.carrier_freq_hz),
        desired=SourceSpec(waveform=desired, aoa_deg=0.0),
        undesired=interferers,
        mode=cfg.mode,
    )


def _sample_scene(cfg: ExperimentConfig, scene, delays, seed_key):
    """Row outputs and the single-input reference for one sweep point.

    Column 0 of the truncated Hadamard matrix is all +1, so with only
    element 1 driven every row outputs element 1's frame: that frame is
    each row's no-cancellation reference.  Noise seeds are keyed by sweep
    point, not run order.
    """
    phasors = None
    if scene.mode is SceneMode.RF_DERIVED:
        phasors = lo_align(scene, "undesired" if scene.undesired else "desired")
    frames = []
    for i in range(1, scene.geometry.n_elements + 1):
        wave = element_signal(scene, i)
        if phasors is not None:
            wave = wave * phasors[i - 1]
        seed = np.random.SeedSequence([*seed_key, i]) if cfg.noise_rms > 0.0 else None
        fs, n, noise = cfg.sample_rate_hz, cfg.frame_len, cfg.noise_rms
        frames.append(sample_element(wave, delays[i - 1], fs, n, noise, seed))
    return mac_apply(frames, truncated_hadamard(cfg.n_elements)), frames[0]


def _clock_targets(cfg: ExperimentConfig, delta: float) -> list:
    """Per-element clock delays ``i * delta`` shifted so that none is negative.

    Only relative delays align the interferer, so a negative ``delta`` is
    planned with a common offset; for ``delta >= 0`` the offset is zero.
    """
    shift = min(0.0, (cfg.n_elements - 1) * delta)
    return [i * delta - shift for i in range(cfg.n_elements)]


_QUADRANT_NAMES = [q.name for q in Quadrant]


def _plan_clocks(cfg: ExperimentConfig, targets):
    """Planned clock delays for ``targets`` and each one's [pi_code, quadrant, offset]."""
    codes = plan_delays(targets, cfg.max_offset)
    pi_code, quadrant, offset = (c.tolist() for c in codes)
    planned = [[p, _QUADRANT_NAMES[q], o] for p, q, o in zip(pi_code, quadrant, offset)]
    return _total_delay(*codes), planned


def _run_ps_leakage(cfg: ExperimentConfig):
    grid = np.linspace(cfg.fnorm_start, cfg.fnorm_stop, cfg.fnorm_count)
    rows = []
    derived = {}
    for n in cfg.ps_n_elements:
        plan = PsCancelPlan.for_angle(n, cfg.theta_ud_deg, cfg.d_over_lambda)
        derived[f"align_phase_rad_n{n}"] = plan.align_phase
        res = np.abs(ps_residual_gain(plan, grid, cfg.theta_ud_deg, cfg.d_over_lambda))
        with np.errstate(divide="ignore"):
            leak_db = 20.0 * np.log10(res)
            rej_db = -20.0 * np.log10(res / n)
        columns = zip(grid.tolist(), leak_db.tolist(), rej_db.tolist())
        rows += [[n, fn, lk, rj] for fn, lk, rj in columns]
    header = ["n_elements", "f_norm", "leak_db_single", "rej_db_array"]
    return {"": (header, rows)}, derived


def _run_ttd_tone_sweep(cfg: ExperimentConfig):
    freqs = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    rows = []
    derived = {"planned_configs": {}}
    for d_idx, delta in enumerate(cfg.delta_ud_s):
        ideal = _clock_targets(cfg, delta)
        quant, derived["planned_configs"][f"{delta!r}"] = _plan_clocks(cfg, ideal)
        for f_idx, freq in enumerate(freqs):
            freq = float(freq)
            scene = _scene(cfg, Waveform(), Waveform(terms=(ToneTerm(1.0, freq),)), delta)
            band = (freq - cfg.band_halfwidth_hz, freq + cfg.band_halfwidth_hz)
            depths = []
            for branch, delays in enumerate((ideal, quant)):
                seed_key = (cfg.seed or 0, d_idx, f_idx, branch)
                outs, ref = _sample_scene(cfg, scene, delays, seed_key)
                depths.append(cancellation_depth(ref, outs, band))
            rows += [[freq, delta, r, *pair] for r, pair in enumerate(zip(*depths))]
    header = ["freq_hz", "delta_ud_s", "row", "depth_db_ideal", "depth_db_quantized"]
    return {"": (header, rows)}, derived


def _run_desired_gain(cfg: ExperimentConfig):
    n = cfg.n_elements
    freqs = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    rows = []
    for d_idx, delta in enumerate(cfg.delta_ud_s):
        delays = [i * delta for i in range(n)]
        for f_idx, freq in enumerate(freqs):
            freq = float(freq)
            scene = _scene(cfg, Waveform(terms=(ToneTerm(1.0, freq),)))
            outs, ref = _sample_scene(cfg, scene, delays, (cfg.seed or 0, d_idx, f_idx))
            measured = conversion_gain_measured(outs, ref, freq)
            for r, gain in enumerate(measured):
                theory = desired_conversion_gain(freq, delta, r, n)
                theory_db = 20.0 * math.log10(abs(theory)) if theory != 0 else -math.inf
                rows.append([freq, delta, r, theory_db, gain])
    header = ["freq_hz", "delta_s", "row", "gain_db_theory", "gain_db_measured"]
    return {"": (header, rows)}, {}


def _qpsk_stream(cfg: ExperimentConfig, stream_id: int, n_symbols: int, rate, center):
    """Random QPSK symbols drawn from the run seed, shaped by the config's RRC pulse."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream_id]))
    bits = rng.integers(0, 2, size=2 * n_symbols)
    return StreamTerm(map_qpsk(bits), rate, cfg.rolloff, cfg.span_symbols, center)


def _interferer_stream(cfg: ExperimentConfig) -> StreamTerm:
    """Interferer symbols covering the frame plus one pulse span at each end."""
    duration = cfg.frame_len / cfg.sample_rate_hz
    n_sym = int(np.ceil(duration * cfg.symbol_rate_hz)) + 2 * cfg.span_symbols
    return _qpsk_stream(cfg, 1, n_sym, cfg.symbol_rate_hz, cfg.center_freq_hz)


def _run_ttd_modulated(cfg: ExperimentConfig):
    header = ["row", "band_lo_hz", "band_hi_hz", "depth_db"]
    if not cfg.interferer:
        return {"": (header, [])}, {"result": "no_interferer"}
    delta = cfg.delta_ud_s[0]
    stream = _interferer_stream(cfg)
    scale = 1.0 / math.sqrt(cfg.symbol_rate_hz)  # unit mean power
    scene = _scene(cfg, Waveform(), Waveform(terms=(stream,), scale=scale), delta)
    quant, planned = _plan_clocks(cfg, _clock_targets(cfg, delta))
    outs, ref = _sample_scene(cfg, scene, quant, (cfg.seed, 2))
    half_occupied = cfg.symbol_rate_hz * (1.0 + cfg.rolloff) / 2.0
    band = (cfg.center_freq_hz - half_occupied, cfg.center_freq_hz + half_occupied)
    depths = cancellation_depth(ref, outs, band)
    rows = [[r, band[0], band[1], depth] for r, depth in enumerate(depths)]
    derived = {"planned_configs": planned, "occupied_band_hz": [band[0], band[1]]}
    return {"": (header, rows)}, derived


def _genie_timing(cfg: ExperimentConfig) -> float:
    """Desired-stream delay that puts symbol 0 and the matched-filter span inside the frame.

    The delay is rounded onto the sample grid; genie timing equals this shift.
    """
    fs = cfg.sample_rate_hz
    return round((cfg.span_symbols + 2) / cfg.desired_symbol_rate_hz * fs) / fs


def _run_qpsk_evm(cfg: ExperimentConfig):
    delta = cfg.delta_ud_s[0]
    desired_stream = _qpsk_stream(
        cfg, 0, cfg.desired_n_symbols, cfg.desired_symbol_rate_hz, cfg.desired_center_hz
    )
    genie = _genie_timing(cfg)
    desired_wave = Waveform(
        terms=(desired_stream,),
        scale=1.0 / math.sqrt(cfg.desired_symbol_rate_hz),
        delay=genie,
    )

    interferer = None
    if cfg.interferer:
        stream = _interferer_stream(cfg)
        power = 10.0 ** (cfg.interferer_excess_db / 10.0) / cfg.symbol_rate_hz
        interferer = Waveform(terms=(stream,), scale=math.sqrt(power))
    scene = _scene(cfg, desired_wave, interferer, delta)
    quant, planned = _plan_clocks(cfg, _clock_targets(cfg, delta))
    outs, _ = _sample_scene(cfg, scene, quant, (cfg.seed, 2))

    rows = []
    constellation = []
    for r, out in enumerate(outs):
        eq = equalize(out, row=r, delta=delta, n=cfg.n_elements, eps=cfg.eq_eps)
        recovered = recover_symbols(eq, desired_stream, genie_timing=genie)
        evm = evm_percent(recovered, desired_stream.symbols)
        rows.append([r, cfg.desired_n_symbols, evm])
        # Export the fitted constellation alongside the reference points.
        a = np.vdot(recovered, desired_stream.symbols) / np.vdot(recovered, recovered)
        constellation += [
            [r, k, ref.real, ref.imag, float(rx.real), float(rx.imag)]
            for k, (ref, rx) in enumerate(zip(desired_stream.symbols, a * recovered))
        ]
    tables = {
        "": (["row", "n_symbols", "evm_percent"], rows),
        "_constellation": (
            ["row", "symbol_index", "ref_re", "ref_im", "rx_re", "rx_im"],
            constellation,
        ),
    }
    return tables, {"planned_configs": planned, "genie_timing_s": genie}


def _run_plan_clock(cfg: ExperimentConfig):
    targets = cfg.plan_targets_s
    total, planned = _plan_clocks(cfg, targets)
    errors = (total - targets).tolist()
    rows = [[t, *c, tot, err] for t, c, tot, err in zip(targets, planned, total.tolist(), errors)]
    header = ["target_s", "pi_code", "quadrant", "interleave_offset", "total_s", "error_s"]
    return {"": (header, rows)}, {}


# Experiment -> (config checks run after the shared ones in validate, runner).
_KINDS = {
    Experiment.PS_LEAKAGE: ((_check_ps_leakage,), _run_ps_leakage),
    Experiment.TTD_TONE_SWEEP: (
        (_check_tone_grid, _check_tone_bands, _check_delay_range),
        _run_ttd_tone_sweep,
    ),
    Experiment.DESIRED_GAIN: ((_check_tone_grid, _check_delay_range), _run_desired_gain),
    Experiment.TTD_MODULATED: ((_check_stream, _check_delay_range), _run_ttd_modulated),
    Experiment.QPSK_EVM: ((_check_stream, _check_delay_range, _check_qpsk), _run_qpsk_evm),
    Experiment.PLAN_CLOCK: ((_check_plan_clock,), _run_plan_clock),
}


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Run one experiment; write CSV and manifest, return a result summary.

    Output directory resolution: explicit argument, then the
    SPICA_OUTPUT_DIR environment variable, then the working directory.
    """
    cfg.validate()
    if output_dir is None:
        output_dir = os.environ.get("SPICA_OUTPUT_DIR", ".")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _, runner = _KINDS[cfg.experiment]
    tables, derived = runner(cfg)
    outputs = {}
    for suffix, (header, rows) in tables.items():
        path = out_dir / f"{cfg.output}{suffix}.csv"
        _write_csv(path, header, rows)
        outputs[suffix.lstrip("_") or "csv"] = path.name

    manifest = {
        "tool": "spica",
        "version": __version__,
        "config": cfg.to_dict(),
        "outputs": outputs,
        "derived": derived,
    }
    manifest_path = out_dir / f"{cfg.output}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {
        "csv": str(out_dir / outputs["csv"]),
        "manifest": str(manifest_path),
        "rows": len(tables[""][1]),
        "derived": derived,
    }


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
