"""The scenario table of ``scenarios.py``: every scenario, the table's rules, each check failing."""

import json

import pytest

from scenarios import (
    EVM,
    GOLDEN,
    SCENARIOS,
    bound_violations,
    golden_violations,
    rerun_differences,
    violations,
)
from spica import run_experiment


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.stem)
def test_scenario(scenario, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    run_experiment(scenario.config, output_dir=first)
    if scenario.rerun:
        run_experiment(scenario.config, output_dir=second)
    assert violations(scenario, first, second) == []


def test_table_stems_are_unique_configs_valid_and_every_scenario_checked():
    # One output directory holds every scenario's files, so a repeated stem would overwrite.
    stems = [scenario.stem for scenario in SCENARIOS]
    assert len(set(stems)) == len(stems)
    for scenario in SCENARIOS:
        assert scenario.config.output == scenario.stem
        scenario.config.validate()
        assert scenario.rerun or scenario.golden or scenario.bounds, scenario.stem


def _run_dir(path, stem, csvs: dict):
    """A directory as one run of ``stem`` leaves it: the CSVs and a manifest naming them."""
    path.mkdir()
    for name, text in csvs.items():
        (path / name).write_bytes(text.encode())
    (path / f"{stem}_manifest.json").write_text(json.dumps({"outputs": {n: n for n in csvs}}))
    return path


def test_rerun_check_fails_on_one_byte(tmp_path):
    text = (GOLDEN / "fig10.csv").read_text()
    first = _run_dir(tmp_path / "a", "fig10", {"fig10.csv": text})
    assert rerun_differences(first, first, "fig10") == []
    second = _run_dir(tmp_path / "b", "fig10", {"fig10.csv": text.replace("pi_code", "pi_codf")})
    assert rerun_differences(first, second, "fig10") == [f"fig10.csv: {first} and {second} differ"]


def test_golden_check_fails_on_a_micro_db_depth(tmp_path):
    text = (GOLDEN / "fig18.csv").read_text()
    moved = text.replace("63.231286131820724", repr(63.231286131820724 + 1e-6))
    assert moved != text
    same = _run_dir(tmp_path / "a", "fig18", {"fig18.csv": text})
    assert golden_violations(GOLDEN, same, "fig18") == []
    off = _run_dir(tmp_path / "b", "fig18", {"fig18.csv": moved})
    bad = golden_violations(GOLDEN, off, "fig18")
    assert len(bad) == 1 and "depth_db row 1" in bad[0]


def test_bound_check_fails_just_past_the_bound(tmp_path):
    def evm_dir(name, evm):
        rows = "".join(f"{i},400,{v}\r\n" for i, v in enumerate((0.09, evm, 0.1)))
        return _run_dir(tmp_path / name, "q", {"q.csv": "row,n_symbols,evm_percent\r\n" + rows})

    assert bound_violations(EVM, evm_dir("at", 2.0), "q") == []
    bad = bound_violations(EVM, evm_dir("past", 2.01), "q")
    assert len(bad) == 1 and "[2.01]" in bad[0]
