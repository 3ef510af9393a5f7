"""Tests of the benchmark itself: metric tables, correctness gate, tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import worker

sys.path.insert(0, str(worker.SRC))

import spica.experiments as experiments  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


def test_frame_key_is_equal_up_to_sign_only():
    x = np.exp(1j * np.arange(64) * 0.3)
    zeros = np.zeros(64, dtype=complex)
    assert tracer._frame_key(x) == tracer._frame_key(-x)
    assert tracer._frame_key(zeros) == tracer._frame_key(-zeros)
    assert tracer._frame_key(x) != tracer._frame_key(1j * x)


@pytest.mark.parametrize(
    "name, column, bad",
    [
        ("fig4", 3, 30.0),
        ("fig10", 5, 3e-12),
        ("fig16", 4, 40.0),
        ("fig17", 4, 0.1),
        ("fig18", 3, 30.0),
        ("fig19", 2, 2.5),
    ],
)
def test_check_rejects_a_value_past_its_threshold(tmp_path, name, column, bad):
    cfg = experiments.preset(name)
    experiments.run_experiment(cfg, output_dir=tmp_path)
    path = tmp_path / f"{name}.csv"
    assert workloads.check(cfg, path)[0]
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = str(bad)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert not workloads.check(cfg, path)[0]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_pass_covers_the_run_and_leaves_no_wrapper(tmp_path, workload):
    owners = [(tracer._resolve(path), attr) for path, attr, _ in tracer.TARGETS]
    originals = [getattr(owner, attr) for owner, attr in owners]
    configs = workloads.build(workload, seed=7)
    spans = tracer.Tracer()

    # With no time budget the worker runs a warm-up, a traced and an untraced pass.
    report = worker.run_passes(experiments, workloads, configs, 0, spans, tmp_path)

    assert [p["traced"] for p in report["passes"]] == [False, True, False]
    assert report["failed"] == 0 and report["deterministic"]
    # Every pass has the reference computation's time beside it.
    assert all(p["ref_s"] > 0 for p in report["passes"])
    traced = report["passes"][1]
    coverage = run.layer_metrics(traced)["trace.coverage_ratio"]
    assert abs(coverage - 1.0) <= run.COVERAGE_TOLERANCE

    # Self times partition the top-level spans of the traced pass.
    self_s = traced["layers"]["self_s"].values()
    roots_ns = sum(end - start for _, _, parent, _, start, end in spans.spans if parent == -1)
    assert min(self_s) >= 0
    assert sum(self_s) == pytest.approx(roots_ns / 1e9, rel=1e-9)

    assert all(getattr(o, a) is f for (o, a), f in zip(owners, originals))
    recorded = len(spans.spans)
    worker.run_pass(experiments, configs, tmp_path)
    assert len(spans.spans) == recorded


def test_run_refuses_a_directory_without_spica(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "modulated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
