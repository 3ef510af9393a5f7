"""spica benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload tone_sweep --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; each is a closed loop with one
client: one worker process runs the workload's experiments one after
another, and no two workers run at once.  The run starts ``SETUP_SAMPLES``
fresh workers in turn.  Each one's set-up time is measured from its start
to the moment its configs are built; the last one then runs a warm-up
pass and passes for ``--seconds`` after it (see ``worker.run_passes``).  A pass's time is reported as a
multiple of the reference computation's time measured beside it (see
``reference.py``), because the host's speed drifts by more than the
benchmark's bounds between runs; the raw wall times are printed too and
are per-layer metrics of the traced run.  With ``--trace 0`` the last
line printed is the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced passes (see ``tracer.py``).  Human-readable lines
come first.  The exit code is 0
when a result was printed, whether or not the outputs passed their checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# Coverage check: spica's layer self times must add up to the traced pass.
COVERAGE_TOLERANCE = 0.10
OPENBLAS_THREADS = "1"
# The names workloads.py defines; run.py does not import spica, so it can
# refuse a checkout without spica before starting a worker.
WORKLOADS = ("tone_sweep", "modulated", "dense_grid")

END_TO_END = {
    "setup_s": "s",
    "run_rel": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.config_s": "s",
    "waveform.eval_s": "s",
    "waveform.rrc_pulse_calls": "count",
    "waveform.samples_evaluated": "count",
    "arrays.element_signal_s": "s",
    "ttd.sample_element_s": "s",
    "ttd.sample_element_calls": "count",
    "ttd.mac_apply_s": "s",
    "ttd.mac_apply_calls": "count",
    "ttd.equalize_s": "s",
    "ttd.desired_conversion_gain_s": "s",
    "ttd.desired_conversion_gain_calls": "count",
    "ttd.plan_delay_s": "s",
    "ttd.plan_delay_calls": "count",
    "ps_cancel.ps_residual_gain_s": "s",
    "metrics.welch_psd_s": "s",
    "metrics.welch_psd_calls": "count",
    "metrics.welch_psd_samples": "count",
    "metrics.welch_psd_useful_ratio": "ratio",
    "metrics.band_power_s": "s",
    "metrics.cancellation_depth_s": "s",
    "metrics.conversion_gain_measured_s": "s",
    "metrics.recover_symbols_s": "s",
    "metrics.evm_percent_s": "s",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.rows_written": "count",
    "experiments.bytes_written": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.hook_s": "s",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_s": "s",
    "host.run_wall_s": "s",
    "host.ref_s": "s",
}

# Span names whose self time and call count are reported under their own name.
_TIMED = (
    "arrays.element_signal",
    "ttd.sample_element",
    "ttd.mac_apply",
    "ttd.equalize",
    "ttd.desired_conversion_gain",
    "ttd.plan_delay",
    "ps_cancel.ps_residual_gain",
    "metrics.welch_psd",
    "metrics.band_power",
    "metrics.cancellation_depth",
    "metrics.conversion_gain_measured",
    "metrics.recover_symbols",
    "metrics.evm_percent",
)


class WorkerError(RuntimeError):
    """A worker process failed, so the run has no result."""


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced pass (all but the set-up and overhead)."""
    layers = record["layers"]
    self_s, counts = layers["self_s"], layers["counts"]
    out = {}
    for name in _TIMED:
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}_calls"] = counts.get(name, 0)
    welch_calls = counts.get("metrics.welch_psd", 0)
    spica_s = sum(v for k, v in self_s.items() if k.partition(".")[0] in LAYERS)
    out.update(
        {
            "waveform.eval_s": self_s.get("waveform.eval", 0.0)
            + self_s.get("waveform.rrc_pulse", 0.0),
            "waveform.rrc_pulse_calls": counts.get("waveform.rrc_pulse", 0),
            "waveform.samples_evaluated": counts.get("waveform.samples_evaluated", 0),
            "metrics.welch_psd_samples": counts.get("metrics.welch_psd_samples", 0),
            # A workload without Welch calls wastes none of them.
            "metrics.welch_psd_useful_ratio": (
                layers["distinct_welch_frames"] / welch_calls if welch_calls else 1.0
            ),
            "experiments.self_s": self_s.get("experiments.run_experiment", 0.0),
            "experiments.write_s": self_s.get("experiments.write", 0.0),
            "experiments.rows_written": record["rows"],
            "experiments.bytes_written": record["bytes"],
            "trace.hook_s": self_s.get("trace.hook", 0.0),
            "trace.coverage_ratio": spica_s / record["run_s"],
        }
    )
    out.update({f"{layer}.errors": n for layer, n in layers["errors"].items()})
    return {name: out[name] for name in PER_LAYER if name in out}


def spawn(args, seconds: float, out_dir: Path, deadline: float) -> dict:
    """Run one worker to completion and return its report with its set-up time."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        # spica seeds are non-negative; any integer maps to one.
        "--seed", str(args.seed % 2**63),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--out", str(out_dir),
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=OPENBLAS_THREADS)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker did not finish within the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def _spread(values) -> str:
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (
        f"median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
        f"min {values[0]:.4f}  max {values[-1]:.4f}  n={len(values)}"
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(args) -> dict:
    """Run the workload's workers, print the report, return the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    # Byte-compile first so that no set-up sample pays for it.
    compileall.compile_dir(ROOT / "src" / "spica", quiet=1)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workers = [spawn(args, 0, out_dir, deadline) for _ in range(SETUP_SAMPLES - 1)]
        workers.append(spawn(args, args.seconds, out_dir, deadline))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    main = workers[-1]
    setups = [w["setup_s"] for w in workers]
    passes = main["passes"]
    timed = [p for p in passes if not (p["traced"] or p["warmup"])]
    untraced = [p["run_s"] for p in timed]
    refs = [p["ref_s"] for p in timed]
    relative = [p["run_s"] / p["ref_s"] for p in timed]
    attempted, failed = main["attempted"], main["failed"]
    versions = main["versions"]
    correct = failed == 0 and main["deterministic"]

    print(
        f"spica benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print(
        f"environment: python {versions['python']}, numpy {versions['numpy']}, "
        f"scipy {versions['scipy']}, nproc {os.cpu_count()}, cpu {_cpu_model()!r}, "
        f"OPENBLAS_NUM_THREADS={OPENBLAS_THREADS}, one worker process at a time"
    )
    print(f"setup_s      s   {_spread(setups)} fresh workers")
    print(f"run_s        s   {_spread(untraced)} untraced passes after a warm-up, {passes[0]['rows']} rows each")
    print(f"ref_s        s   {_spread(refs)} reference runs, mean of the two beside each pass")
    print(f"run_rel      ref {_spread(relative)} run_s / ref_s of each pass")
    print(f"peak_rss_mb  MB  {main['peak_rss_mb']:.1f}")
    print(f"failed_ratio     {failed / attempted:.4g} ({failed} of {attempted} run_experiment calls)")
    print(f"fingerprint      {json.dumps(main['fingerprint'], sort_keys=True)}")
    print("waits            none: the worker is single-threaded and waits on no I/O worth naming")
    if not main["deterministic"]:
        print("FAIL: passes over the same inputs gave different outputs")

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_rel": statistics.median(relative),
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        per_pass = [layer_metrics(p) for p in passes if p["traced"]]
        traced = [p["run_s"] for p in passes if p["traced"]]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["setup.import_s"] = statistics.median(w["import_s"] for w in workers)
        metrics["setup.config_s"] = statistics.median(w["config_s"] for w in workers)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["host.run_wall_s"] = statistics.median(untraced)
        metrics["host.ref_s"] = statistics.median(refs)
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        print(f"traced run_s s   {_spread(traced)}")
        print(f"spans            {OUT / f'trace-{args.workload}.csv'}")
        for m in per_pass:
            if abs(m["trace.coverage_ratio"] - 1.0) > COVERAGE_TOLERANCE:
                correct = False
                print(f"FAIL: layer self times cover {m['trace.coverage_ratio']:.3f} of a traced pass")
        for name, unit in PER_LAYER.items():
            print(f"  {name:38s} {metrics[name]:.6g} {unit}")

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one spica benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spica" / "__init__.py").is_file():
        print(f"no spica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
