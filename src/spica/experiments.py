"""Config-driven experiment runners with CSV + manifest outputs."""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import Scene, SceneMode, SourceSpec, element_signal
from .metrics import _welch_freqs, cancellation_depth, conversion_gain_measured, welch_power
from .metrics import evm_percent, recover_symbols
from .ps_cancel import ps_residual_gain
from .ttd import INTERLEAVE_STEP, PI_STEP, Quadrant, _noisy_frame, equalize, total_delay
from .ttd import desired_conversion_gain, mac_apply, plan_delays, sample_element, truncated_hadamard
from .ttd import plan_delay  # noqa: F401  (not called here; bench/tracer.py wraps this name)
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
    symbol_rate_hz: float = 64e6
    rolloff: float = 0.25
    span_symbols: int = 16
    center_freq_hz: float = 50e6
    # qpsk evm
    desired_symbol_rate_hz: float = 2e6
    desired_center_hz: float = 50e6
    desired_n_symbols: int = 400
    interferer_excess_db: float = 12.0
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
        for name, (low, high, low_allowed) in _BOUNDS.items():
            value = getattr(self, name)
            if not ((low <= value if low_allowed else low < value) and value <= high):
                rule = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                _fail(name, f"must be {rule if low_allowed else 'positive'}, got {value}")
        if self.noise_rms > 0 and self.seed is None:
            _fail("seed", "required whenever noise_rms > 0")
        _check_power_of_two("frame_len", self.frame_len, 16)
        _check_power_of_two("n_elements", self.n_elements, 2)
        checks, _ = _KINDS[self.experiment]
        for check in checks:
            check(self)


def _has_type(value, hint) -> bool:
    """JSON type check: no bools as numbers, numbers in float range as floats, strings as enums."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # X | None
        return any(_has_type(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
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


# Single-field bounds that every kind checks: field -> (low, high, whether low itself is allowed).
_POSITIVE = (0, math.inf, False)
_BOUNDS = {
    "noise_rms": (0, math.inf, True),
    "max_offset": (0, np.iinfo(np.int64).max, True),
    **dict.fromkeys(("sample_rate_hz", "d_over_lambda", "carrier_freq_hz"), _POSITIVE),
    **dict.fromkeys(("band_halfwidth_hz", "symbol_rate_hz", "desired_symbol_rate_hz"), _POSITIVE),
    **dict.fromkeys(("fnorm_count", "tone_count", "span_symbols"), (1, math.inf, True)),
    "desired_n_symbols": (8, math.inf, True),
    "theta_ud_deg": (-90, 90, True),
    "rolloff": (0, 1, True),
}


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
    if cfg.fnorm_stop < cfg.fnorm_start:
        _fail("fnorm_stop", "must be >= fnorm_start")


def _check_tone_grid(cfg: ExperimentConfig) -> None:
    nyquist = cfg.sample_rate_hz / 2.0
    if cfg.tone_stop_hz < cfg.tone_start_hz:
        _fail("tone_stop_hz", "must be >= tone_start_hz")
    if abs(cfg.tone_start_hz) >= nyquist or abs(cfg.tone_stop_hz) >= nyquist:
        _fail("tone_stop_hz", f"tone grid must sit inside +/-{nyquist:.4g} Hz")
    if not cfg.delta_ud_s:
        _fail("delta_ud_s", "must list at least one inter-element delay")


def _welch_len(cfg: ExperimentConfig) -> int:
    """Welch length of every spectral measurement: the whole frame, up to 4096 samples."""
    return min(4096, cfg.frame_len)


def _check_bins(cfg: ExperimentConfig, name: str, centers, halfwidth: float) -> None:
    """Each measurement band ``centers +/- halfwidth`` must hold a Welch bin."""
    nfft = _welch_len(cfg)
    bins = _welch_freqs(nfft, cfg.sample_rate_hz)
    lo, hi = np.atleast_1d(centers) - halfwidth, np.atleast_1d(centers) + halfwidth
    empty = np.flatnonzero(np.searchsorted(bins, hi, "right") <= np.searchsorted(bins, lo))
    if empty.size:
        _fail(
            name,
            f"band [{lo[empty[0]]:.9g}, {hi[empty[0]]:.9g}] Hz holds no PSD bin "
            f"(bin spacing {cfg.sample_rate_hz / nfft:.4g} Hz at nfft {nfft})",
        )


def _check_tone_bands(cfg: ExperimentConfig) -> None:
    tones = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    _check_bins(cfg, "band_halfwidth_hz", tones, cfg.band_halfwidth_hz)


def _check_delay_range(cfg: ExperimentConfig) -> None:
    worst = max(abs(d) for d in cfg.delta_ud_s) * (cfg.n_elements - 1)
    if worst > _plan_range(cfg):
        _fail(
            "delta_ud_s",
            f"largest per-element delay {worst:.4g} s exceeds the "
            f"{_plan_range(cfg):.4g} s planner range; raise max_offset "
            f"(now {cfg.max_offset}) to extend it by {INTERLEAVE_STEP:.4g} s per step",
        )


def _half_occupied(cfg: ExperimentConfig, symbol_rate: float) -> float:
    return symbol_rate * (1.0 + cfg.rolloff) / 2.0


def _check_band(cfg: ExperimentConfig, name: str, center: float, symbol_rate: float) -> None:
    if abs(center) + _half_occupied(cfg, symbol_rate) > cfg.sample_rate_hz / 2.0:
        _fail(name, "occupied band extends past Nyquist")


def _check_stream(cfg: ExperimentConfig) -> None:
    if len(cfg.delta_ud_s) != 1:
        _fail("delta_ud_s", "must list exactly one inter-element delay")
    _check_band(cfg, "center_freq_hz", cfg.center_freq_hz, cfg.symbol_rate_hz)
    if cfg.seed is None:
        _fail("seed", "required to draw interferer symbols")


def _check_stream_bins(cfg: ExperimentConfig) -> None:
    """TTD_MODULATED measures depth over the interferer's occupied band."""
    half = _half_occupied(cfg, cfg.symbol_rate_hz)
    _check_bins(cfg, "symbol_rate_hz", cfg.center_freq_hz, half)


def _check_qpsk(cfg: ExperimentConfig) -> None:
    _check_band(cfg, "desired_center_hz", cfg.desired_center_hz, cfg.desired_symbol_rate_hz)
    samples_per_symbol = cfg.sample_rate_hz / cfg.desired_symbol_rate_hz
    if abs(samples_per_symbol - round(samples_per_symbol)) > 1e-9:
        _fail(
            "desired_symbol_rate_hz",
            "sample_rate_hz must be an integer multiple of the symbol rate",
        )
    # The last element lags element 1 by up to (n - 1) * -delta, plus a PI step of planner error.
    lag = (cfg.n_elements - 1) * max(0.0, -cfg.delta_ud_s[0]) + PI_STEP
    n_needed = cfg.desired_n_symbols + cfg.span_symbols
    last_needed = _genie_timing(cfg) + lag + n_needed / cfg.desired_symbol_rate_hz
    if last_needed > cfg.frame_len / cfg.sample_rate_hz:
        _fail("frame_len", "too short for desired_n_symbols plus matched-filter span")
    if cfg.delta_ud_s[0] == 0:
        _fail("delta_ud_s", "must be nonzero: at zero delay every row nulls the desired signal")


def _check_plan_clock(cfg: ExperimentConfig) -> None:
    if not cfg.plan_targets_s:
        _fail("plan_targets_s", "must list at least one target delay")
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
# runners: each returns ({csv suffix: (header, blocks)}, derived); suffix "" is the main CSV.
# A block is a tuple of equal-length columns; _write_csv writes one at a time,
# _CSV_ROWS rows per % format (a bound on the text held at once).
_CSV_ROWS = 4096


def _sample_scene(cfg: ExperimentConfig, desired, branches, interferer=None, delta=0.0, grid=None):
    """Map each branch to its row outputs and a copy of element 1's frame, which frees the stack:
    column 0 of the truncated Hadamard matrix is all +1, so that frame is every row's reference.
    ``desired`` arrives at broadside and ``interferer``, if any, at inter-element delay ``delta``.
    """
    interferers = [SourceSpec(interferer, delta)] if interferer else []
    n, fc = cfg.n_elements, cfg.carrier_freq_hz
    scene = Scene(n, fc, SourceSpec(desired), interferers, mode=cfg.mode)
    frames = _scene_frames(scene, branches, cfg.sample_rate_hz, cfg.frame_len, cfg.noise_rms, grid)
    return map(lambda f: (mac_apply(f, truncated_hadamard(n)), f[0].copy()), frames)


def _scene_frames(scene: Scene, branches, fs: float, n: int, noise_rms: float = 0.0, grid=None):
    """Map each branch ``(delays, keys)`` to its ``(elements, ...)`` frame stack, holding none (a
    generator would hold each while it is measured): ``element_signal``'s frames on the clocks
    ``delays``, from ``grid`` if given, plus noise seeded by sweep point, one key per tone of a
    chunk or a single key.
    """

    def frames(delays, keys):
        out = element_signal(scene, delays, fs, n, grid)
        if noise_rms:
            seed = [np.random.SeedSequence([*key, i + 1]) for i in range(len(out)) for key in keys]
            out = _noisy_frame(out, noise_rms, seed)
        return out

    return itertools.starmap(frames, branches)


_QUADRANT_NAMES = [q.name for q in Quadrant]


def _plan_clocks(cfg: ExperimentConfig, targets):
    """Planned clock delays for ``targets`` and the pi_code, quadrant and offset columns."""
    pi_code, quadrant, offset = plan_delays(targets, cfg.max_offset)
    names = [_QUADRANT_NAMES[q] for q in quadrant.tolist()]
    return total_delay(pi_code, quadrant, offset), (pi_code.tolist(), names, offset.tolist())


def _element_clocks(cfg: ExperimentConfig, delta: float):
    """Ideal clocks ``i * delta`` shifted so none is negative, their planned delays, plan rows.

    Only relative delays align the interferer, so a negative ``delta`` is planned with a
    common offset (zero for ``delta >= 0``).  A plan row is ``[pi_code, quadrant, offset]``.
    """
    shift = min(0.0, (cfg.n_elements - 1) * delta)
    ideal = [i * delta - shift for i in range(cfg.n_elements)]
    total, columns = _plan_clocks(cfg, ideal)
    return ideal, total, [list(c) for c in zip(*columns)]


def _run_ps_leakage(cfg: ExperimentConfig):
    grid = np.linspace(cfg.fnorm_start, cfg.fnorm_stop, cfg.fnorm_count)
    # Every element count shares the grid, so its text is formatted once.
    grid_text = list(map(str, grid.tolist()))
    blocks, derived = [], {}
    # The interferer's carrier phase step between elements, which the phase shifts align.
    align_phase = 2.0 * np.pi * cfg.d_over_lambda * np.sin(np.radians(cfg.theta_ud_deg))
    for n in cfg.ps_n_elements:
        derived[f"align_phase_rad_n{n}"] = align_phase
        res = np.abs(ps_residual_gain(n, grid, align_phase))
        with np.errstate(divide="ignore"):
            leak_db = 20.0 * np.log10(res)
            rej_db = -20.0 * np.log10(res / n)
        blocks.append(([n] * grid.size, grid_text, leak_db, rej_db))
    header = ["n_elements", "f_norm", "leak_db_single", "rej_db_array"]
    return {"": (header, blocks)}, derived


def _sweep_block(freqs, delta, n_rows, *values):
    """One delay's block of a tone sweep: each tone's rows, then the ``values`` columns."""
    size = freqs.size * n_rows
    return (np.repeat(freqs, n_rows), [delta] * size, [*range(n_rows)] * freqs.size, *values)


# Tones sampled together, each chunk under every delay before the next; four cut the per-tone
# Python overhead, no larger chunk ran faster beyond the noise, and peak RSS grows with it.
_TONE_CHUNK = 4


def _tone_chunks(cfg: ExperimentConfig, freqs):
    """Yield ``(delay index, delay, start, chunk, unit tones, grid frame)``, chunk first and
    then delay, so each chunk's tones are sampled on the grid once for every delay.  Element 1's
    frame stays the same while its clock and noise do (noise-free at delta >= 0), and the runners
    take its spectrum again only when it changes.
    """
    for c in range(0, freqs.size, _TONE_CHUNK):
        chunk = freqs[c : c + _TONE_CHUNK]
        tones = Waveform(terms=(ToneTerm(1.0, chunk[:, None]),))
        grid = sample_element(tones.terms[0], 0.0, cfg.sample_rate_hz, cfg.frame_len)
        for d_idx, delta in enumerate(cfg.delta_ud_s):
            yield d_idx, delta, c, chunk, tones, grid


def _run_ttd_tone_sweep(cfg: ExperimentConfig):
    freqs = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    fs, n_rows = cfg.sample_rate_hz, cfg.n_elements - 1
    clocks = [_element_clocks(cfg, delta) for delta in cfg.delta_ud_s]
    depths = [([], []) for _ in clocks]
    nfft, last = _welch_len(cfg), None
    for d_idx, delta, c, chunk, tones, grid in _tone_chunks(cfg, freqs):
        band = (chunk - cfg.band_halfwidth_hz, chunk + cfg.band_halfwidth_hz)
        keys = [[(cfg.seed or 0, d_idx, c + j, b) for j in range(chunk.size)] for b in (0, 1)]
        sampled = _sample_scene(cfg, Waveform(), zip(clocks[d_idx][:2], keys), tones, delta, grid)
        for branch, (outs, ref) in enumerate(sampled):
            if last is None or not np.array_equal(ref, last[0]):  # see _tone_chunks
                last = ref, welch_power(ref, fs, nfft)
            depths[d_idx][branch].append(cancellation_depth(last[1], outs, fs, band).T.ravel())
    blocks, planned = [], {}
    for delta, (_, _, plan), ds in zip(cfg.delta_ud_s, clocks, depths):
        blocks.append(_sweep_block(freqs, delta, n_rows, *map(np.concatenate, ds)))
        planned[f"{delta!r}"] = plan
    header = ["freq_hz", "delta_ud_s", "row", "depth_db_ideal", "depth_db_quantized"]
    return {"": (header, blocks)}, {"planned_configs": planned}


def _run_desired_gain(cfg: ExperimentConfig):
    n, fs = cfg.n_elements, cfg.sample_rate_hz
    freqs = np.linspace(cfg.tone_start_hz, cfg.tone_stop_hz, cfg.tone_count)
    measured = [[] for _ in cfg.delta_ud_s]
    nfft, last = _welch_len(cfg), None
    for d_idx, delta, c, chunk, tones, grid in _tone_chunks(cfg, freqs):
        keys = [(cfg.seed or 0, d_idx, c + j) for j in range(chunk.size)]
        [(outs, ref)] = _sample_scene(cfg, tones, [(np.arange(n) * delta, keys)], grid=grid)
        if last is None or not np.array_equal(ref, last[0]):  # see _tone_chunks
            last = ref, welch_power(ref, fs, nfft)
        measured[d_idx].append(conversion_gain_measured(outs, last[1], fs, chunk).T.ravel())
    blocks = []
    for delta, gains in zip(cfg.delta_ud_s, measured):
        # (tone, row) order, as _sweep_block lays the rows out; a null reads -inf.
        theory = np.stack([desired_conversion_gain(freqs, delta, r, n) for r in range(n - 1)], -1)
        with np.errstate(divide="ignore"):
            theory_db = 20.0 * np.log10(np.abs(theory)).ravel()
        blocks.append(_sweep_block(freqs, delta, n - 1, theory_db, np.concatenate(gains)))
    header = ["freq_hz", "delta_s", "row", "gain_db_theory", "gain_db_measured"]
    return {"": (header, blocks)}, {}


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
    delta = cfg.delta_ud_s[0]
    stream = _interferer_stream(cfg)
    scale = 1.0 / math.sqrt(cfg.symbol_rate_hz)  # unit mean power
    interferer = Waveform(terms=(stream,), scale=scale)
    _, quant, planned = _element_clocks(cfg, delta)
    [(outs, ref)] = _sample_scene(cfg, Waveform(), [(quant, [(cfg.seed, 2)])], interferer, delta)
    half = _half_occupied(cfg, cfg.symbol_rate_hz)
    band = (cfg.center_freq_hz - half, cfg.center_freq_hz + half)
    fs = cfg.sample_rate_hz
    depths = cancellation_depth(welch_power(ref, fs, _welch_len(cfg)), outs, fs, band)
    n_rows = len(depths)
    block = (range(n_rows), [band[0]] * n_rows, [band[1]] * n_rows, depths)
    derived = {"planned_configs": planned, "occupied_band_hz": list(band)}
    return {"": (header, [block])}, derived


def _genie_timing(cfg: ExperimentConfig) -> float:
    """Desired-stream delay that puts symbol 0 and the matched-filter span inside the frame.

    The delay is rounded onto the sample grid; genie timing equals this shift.
    """
    fs = cfg.sample_rate_hz
    return round((cfg.span_symbols + 2) / cfg.desired_symbol_rate_hz * fs) / fs


def _run_qpsk_evm(cfg: ExperimentConfig):
    delta = cfg.delta_ud_s[0]
    _, quant, planned = _element_clocks(cfg, delta)
    desired_stream = _qpsk_stream(
        cfg, 0, cfg.desired_n_symbols, cfg.desired_symbol_rate_hz, cfg.desired_center_hz
    )
    genie = _genie_timing(cfg)
    # Element 1's clock is late by quant[0] (0 unless delta < 0): delay the stream as much.
    scale = 1.0 / math.sqrt(cfg.desired_symbol_rate_hz)
    desired_wave = Waveform(terms=(desired_stream,), scale=scale, delay=genie + quant[0])
    power = 10.0 ** (cfg.interferer_excess_db / 10.0) / cfg.symbol_rate_hz
    interferer = Waveform(terms=(_interferer_stream(cfg),), scale=math.sqrt(power))
    outs = next(_sample_scene(cfg, desired_wave, [(quant, [(cfg.seed, 2)])], interferer, delta))[0]

    evms, constellation = [], []
    ref = desired_stream.symbols
    # In RF_DERIVED, the LO phasors rotate the desired signal too: its gain is G_r(f + f_c).
    offset = cfg.carrier_freq_hz if cfg.mode is SceneMode.RF_DERIVED else 0.0
    fs = cfg.sample_rate_hz
    responses = equalize(outs.shape[-1], fs, delta, n=cfg.n_elements, offset_hz=offset)
    for r, recovered in enumerate(recover_symbols(outs, fs, desired_stream, genie, responses)):
        evms.append(evm_percent(recovered, ref))
        # Export the fitted constellation alongside the reference points.
        rx = np.vdot(recovered, ref) / np.vdot(recovered, recovered) * recovered
        indices = range(ref.size)
        constellation.append(([r] * ref.size, indices, ref.real, ref.imag, rx.real, rx.imag))
    n_symbols = [cfg.desired_n_symbols] * len(evms)
    tables = {
        "": (["row", "n_symbols", "evm_percent"], [(range(len(evms)), n_symbols, evms)]),
        "_constellation": (
            ["row", "symbol_index", "ref_re", "ref_im", "rx_re", "rx_im"],
            constellation,
        ),
    }
    return tables, {"planned_configs": planned, "genie_timing_s": genie}


def _run_plan_clock(cfg: ExperimentConfig):
    targets = cfg.plan_targets_s
    total, planned = _plan_clocks(cfg, targets)
    header = ["target_s", "pi_code", "quadrant", "interleave_offset", "total_s", "error_s"]
    return {"": (header, [(targets, *planned, total, total - targets)])}, {}


# Experiment -> (config checks run after the shared ones in validate, runner).
_KINDS = {
    Experiment.PS_LEAKAGE: ((_check_ps_leakage,), _run_ps_leakage),
    Experiment.TTD_TONE_SWEEP: (
        (_check_tone_grid, _check_tone_bands, _check_delay_range),
        _run_ttd_tone_sweep,
    ),
    Experiment.DESIRED_GAIN: ((_check_tone_grid, _check_delay_range), _run_desired_gain),
    Experiment.TTD_MODULATED: (
        (_check_stream, _check_stream_bins, _check_delay_range),
        _run_ttd_modulated,
    ),
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
    for suffix, (header, blocks) in tables.items():
        path = out_dir / f"{cfg.output}{suffix}.csv"
        _write_csv(path, header, blocks)
        outputs[suffix.lstrip("_") or "csv"] = path.name

    manifest = {
        "tool": "spica",
        "version": __version__,
        "config": cfg.to_dict(),
        "outputs": outputs,
        "derived": derived,
    }
    manifest_path = out_dir / f"{cfg.output}_manifest.json"
    # Compact JSON: only indent=None reaches the C encoder.
    manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")

    return {
        "csv": str(out_dir / outputs["csv"]),
        "manifest": str(manifest_path),
        "rows": sum(len(block[0]) for block in tables[""][1]),
        "derived": derived,
    }


def _write_csv(path, header, blocks):
    """Write ``header``, then each block of a column-block table in turn.

    A block is a tuple of equal-length columns (numpy arrays or sequences),
    one per field.  Each chunk of ``_CSV_ROWS`` rows is one ``%`` format
    over its cells, interleaved row-major by one slice assignment per column
    (arrays after ``.tolist()``), so no Python call runs per row or field.
    The bytes equal csv.writer's: ``%s`` is str, which gives float.__repr__
    for floats and np.float64, and no field here holds a comma, quote or newline.
    """
    k = len(header)
    row = ",".join(["%s"] * k) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(row % tuple(header))
        for block in blocks:
            lengths = [len(column) for column in block]
            if len(block) != k or len(set(lengths)) > 1:
                raise ValueError(f"block column lengths {lengths} do not fit {k} fields")
            for lo in range(0, max(lengths, default=0), _CSV_ROWS):
                n = min(_CSV_ROWS, lengths[0] - lo)
                cells = [None] * (k * n)
                for i, c in enumerate(block):
                    c = c[lo : lo + n]
                    cells[i::k] = c.tolist() if isinstance(c, np.ndarray) else c
                fh.write(row * n % tuple(cells))
