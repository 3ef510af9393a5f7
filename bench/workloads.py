"""The benchmark's workloads: spica configs, correctness checks, fingerprints.

Every workload is built from public presets.  The seed reaches only the
``seed`` fields of the modulated configs; the tone sweeps and the dense
grid are noise-free and ignore it.  Each check reads one experiment's CSV
back and returns whether it meets the acceptance thresholds, which do not
depend on the seed, together with the statistics that fingerprint it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from spica import Experiment, preset

# Criterion 6: the planner stays within half a 5 ps phase-interpolator step.
PLAN_ERROR_BOUND_S = 2.5e-12 * (1.0 + 1e-9)


def tone_sweep(seed: int) -> list:
    return [preset("fig16"), preset("fig17")]


def modulated(seed: int) -> list:
    return [dataclasses.replace(preset(name), seed=seed) for name in ("fig18", "fig19")]


def dense_grid(seed: int) -> list:
    leakage = dataclasses.replace(
        preset("fig4"), fnorm_count=50_001, ps_n_elements=(4, 16, 64, 256)
    )
    targets = np.linspace(0.0, 15e-9, 20_001).tolist()
    plan = dataclasses.replace(preset("fig10"), plan_targets_s=tuple(targets))
    return [leakage, plan]


WORKLOADS = {"tone_sweep": tone_sweep, "modulated": modulated, "dense_grid": dense_grid}


def build(workload: str, seed: int) -> list:
    """Validated configs for one workload."""
    configs = WORKLOADS[workload](seed)
    for cfg in configs:
        cfg.validate()
    return configs


def _columns(path, usecols):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2).T


def _check_tone_sweep(cfg, path):
    ideal, quantized = _columns(path, (3, 4))
    stats = {
        "rows": ideal.size,
        "min_depth_db_ideal": float(ideal.min()),
        "min_depth_db_quantized": float(quantized.min()),
    }
    # Criteria 2 and 3.
    return bool(ideal.min() >= 200.0 and quantized.min() >= 44.0), stats


def _check_desired_gain(cfg, path):
    theory, measured = _columns(path, (3, 4))
    error = float(np.max(np.abs(measured - theory)))
    # Criterion 5.
    return error <= 0.05, {"rows": theory.size, "max_gain_error_db": error}


def _check_modulated(cfg, path):
    (depth,) = _columns(path, (3,))
    # Criterion 4.
    return bool(depth.min() >= 35.0), {"rows": depth.size, "min_depth_db": float(depth.min())}


def _check_qpsk_evm(cfg, path):
    (evm,) = _columns(path, (2,))
    # Criterion 8.
    return bool(evm.max() <= 2.0), {"rows": evm.size, "max_evm_percent": float(evm.max())}


def _check_ps_leakage(cfg, path):
    n, f_norm, rej = _columns(path, (0, 1, 3))
    edges = (n == 4) & ((f_norm == cfg.fnorm_start) | (f_norm == cfg.fnorm_stop))
    rej_edges = rej[edges]
    # Criterion 1: 19.3 dB rejection at the band edges for four elements.
    ok = rej_edges.size == 2 and bool(np.all(np.abs(rej_edges - 19.3) <= 0.05))
    return ok, {"rows": n.size, "rej_db_4_at_edges": rej_edges.tolist()}


def _check_plan_clock(cfg, path):
    (error,) = _columns(path, (5,))
    worst = float(np.max(np.abs(error)))
    # Criterion 6.
    return worst <= PLAN_ERROR_BOUND_S, {"rows": error.size, "max_plan_error_s": worst}


CHECKS = {
    Experiment.TTD_TONE_SWEEP: _check_tone_sweep,
    Experiment.DESIRED_GAIN: _check_desired_gain,
    Experiment.TTD_MODULATED: _check_modulated,
    Experiment.QPSK_EVM: _check_qpsk_evm,
    Experiment.PS_LEAKAGE: _check_ps_leakage,
    Experiment.PLAN_CLOCK: _check_plan_clock,
}


def check(cfg, csv_path):
    """(passed, fingerprint statistics) for one experiment's CSV output."""
    return CHECKS[cfg.experiment](cfg, csv_path)
