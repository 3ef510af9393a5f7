"""The end-to-end scenarios, each declared once: a preset, its overrides and its checks.

A check is one of three kinds, each a function over output directories:

- ``rerun_differences``: a second run of the same config writes every file
  byte for byte alike (criterion 9);
- ``golden_violations``: the CSVs meet the output contract
  (``output_contract.compare_csv``) against a golden directory;
- ``bound_violations``: a criterion's bound over values read from the CSV.

``tests/test_scenarios.py`` runs each scenario once (twice where it is
re-run) and applies its checks.  From the repository root,

    python tests/scenarios.py DIR

writes every scenario's outputs to DIR, with spica taken from the import
path, so ``PYTHONPATH=OTHER/src`` runs the same table on another checkout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spica
from output_contract import compare_csv
from spica import SceneMode, preset, preset_names, run_experiment

GOLDEN = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class Bound:
    """``count`` values that ``values`` takes from a CSV's named columns, each in [low, high]."""

    name: str
    columns: tuple[str, ...]
    count: int
    low: float = -math.inf
    high: float = math.inf
    values: Callable[..., np.ndarray] = np.asarray


@dataclass(frozen=True)
class Scenario:
    """A preset, the fields it overrides, and the checks its outputs must pass."""

    preset: str
    overrides: dict = field(default_factory=dict)
    rerun: bool = False
    golden: Path | None = None
    bounds: tuple[Bound, ...] = ()

    @property
    def stem(self) -> str:
        return self.overrides.get("output", self.preset)

    @property
    def config(self):
        return dataclasses.replace(preset(self.preset), **self.overrides)


def _outputs(out: Path, stem: str) -> list[str]:
    """The files one run of ``stem`` wrote to ``out``, as its manifest lists them."""
    manifest = f"{stem}_manifest.json"
    return sorted([*json.loads((out / manifest).read_text())["outputs"].values(), manifest])


def rerun_differences(first: Path, second: Path, stem: str) -> list[str]:
    """The files of ``stem`` that two runs did not write byte for byte alike."""
    return [
        f"{name}: {first} and {second} differ"
        for name in _outputs(first, stem)
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]


def golden_violations(golden: Path, out: Path, stem: str) -> list[str]:
    """Where the CSVs of ``stem`` in ``out`` break the output contract against ``golden``."""
    expected = sorted(p.name for p in golden.glob(f"{stem}*.csv"))
    written = [name for name in _outputs(out, stem) if name.endswith(".csv")]
    if written != expected:
        return [f"{stem} wrote {written}, {golden} holds {expected}"]
    return [
        f"{name}: {violation}"
        for name in written
        for violation in compare_csv((golden / name).read_text(), (out / name).read_text())[1]
    ]


def bound_violations(bound: Bound, out: Path, stem: str) -> list[str]:
    """``bound`` over the main CSV of ``stem`` in ``out``: empty when every value holds."""
    path = out / f"{stem}.csv"
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    usecols = [header.index(name) for name in bound.columns]
    columns = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2, unpack=True)
    values = bound.values(*columns)
    outside = values[~((bound.low <= values) & (values <= bound.high))]
    if values.size == bound.count and not outside.size:
        return []
    return [
        f"{path.name}: {bound.name}: {values.size} values (expected {bound.count}), "
        f"outside [{bound.low}, {bound.high}]: {outside[:5].tolist()}"
    ]


def violations(scenario: Scenario, out: Path, second: Path) -> list[str]:
    """Every check of ``scenario`` on its run in ``out`` (and its re-run in ``second``)."""
    stem = scenario.stem
    found = rerun_differences(out, second, stem) if scenario.rerun else []
    if scenario.golden:
        found += golden_violations(scenario.golden, out, stem)
    for bound in scenario.bounds:
        found += bound_violations(bound, out, stem)
    return found


def _edge_error(n_elements, f_norm, rej_db_array):
    """How far the 4-element rejection at the sweep's two band edges is from 19.3 dB."""
    edges = (n_elements == 4) & ((f_norm == f_norm.min()) | (f_norm == f_norm.max()))
    return np.abs(rej_db_array[edges] - 19.3)


def _tone_depths(count: int) -> tuple[Bound, Bound]:
    return (
        Bound("criterion 2, ideal depth >= 200 dB", ("depth_db_ideal",), count, low=200.0),
        Bound("criterion 3, quantized depth >= 44 dB", ("depth_db_quantized",), count, low=44.0),
    )


EDGES = Bound(
    "criterion 1, 4-element edges 19.3 +/- 0.05 dB",
    ("n_elements", "f_norm", "rej_db_array"),
    2,
    high=0.05,
    values=_edge_error,
)
GAIN = Bound(
    "criterion 5, |measured - theory| <= 0.05 dB",
    ("gain_db_measured", "gain_db_theory"),
    1188,
    high=0.05,
    values=lambda measured, theory: np.abs(measured - theory),
)
DEPTH = Bound("criterion 4, depth >= 35 dB", ("depth_db",), 3, low=35.0)
EVM = Bound("criterion 8, EVM <= 2%", ("evm_percent",), 3, high=2.0)
# Half a 5 ps phase-interpolator step, with criterion 6's own float slack.
PLAN = Bound(
    "criterion 6, |error| <= 2.5 ps", ("error_s",), 20_001, high=2.5e-12 * (1 + 1e-9), values=np.abs
)


def _rf(name: str, **checks) -> Scenario:
    overrides = {"mode": SceneMode.RF_DERIVED, "output": f"{name}_rf"}
    return Scenario(name, overrides, rerun=True, golden=GOLDEN / "rf", **checks)


def _both_modes(name: str, stem: str, *, rerun=False, bounds=(), **overrides) -> list:
    return [
        Scenario(name, {**overrides, "mode": m, "output": f"{stem}_{m.value}"}, rerun, None, bounds)
        for m in SceneMode
    ]


SCENARIOS = [
    *(Scenario(name, rerun=True, golden=GOLDEN) for name in preset_names()),
    _rf("fig6"),
    _rf("fig16", bounds=_tone_depths(891)),
    _rf("fig17", bounds=(GAIN,)),
    _rf("fig18", bounds=(DEPTH,)),
    _rf("fig19", bounds=(EVM,)),
    *(
        scenario
        for seed in (7, 1234)
        for name, bound in (("fig18", DEPTH), ("fig19", EVM))
        for scenario in _both_modes(name, f"{name}_seed{seed}", bounds=(bound,), seed=seed)
    ),
    *_both_modes("fig19", "fig19_neg", bounds=(EVM,), delta_ud_s=(-2.347e-9,)),
    # No small p/q for the symbol rate, so streams take the per-instant path.
    *_both_modes(
        "fig18", "fig18_irrational", rerun=True, bounds=(DEPTH,), symbol_rate_hz=64_000_001.0
    ),
    # 5.6625 cycles per row of 25 grid instants, so no row's cycle count is whole.
    *_both_modes("fig18", "fig18_center", rerun=True, bounds=(DEPTH,), center_freq_hz=45.3e6),
    *_both_modes("fig16", "fig16_noisy", rerun=True, noise_rms=1e-3, seed=1),
    Scenario("fig17", {"noise_rms": 1e-6, "seed": 1, "output": "fig17_noisy"}, rerun=True),
    *_both_modes("fig16", "fig16_neg", bounds=_tone_depths(594), delta_ud_s=(-1e-9, -2.347e-9)),
    # The benchmark's dense_grid configs, under stems of their own.
    Scenario(
        "fig4",
        {"fnorm_count": 50_001, "ps_n_elements": (4, 16, 64, 256), "output": "fig4_dense"},
        bounds=(EDGES,),
    ),
    Scenario(
        "fig10",
        {"plan_targets_s": tuple(np.linspace(0, 15e-9, 20_001).tolist()), "output": "fig10_dense"},
        bounds=(PLAN,),
    ),
]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/scenarios.py DIR", file=sys.stderr)
        return 1
    for scenario in SCENARIOS:
        run_experiment(scenario.config, output_dir=argv[0])
    print(f"{len(SCENARIOS)} scenarios written to {argv[0]} by {Path(spica.__file__).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
