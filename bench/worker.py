"""One benchmark worker process: set up a workload, then run passes over it.

Started by ``run.py`` as a fresh interpreter.  The worker imports spica from
the checkout's ``src``, builds and validates the workload's configs, and
notes the monotonic time at which it was ready.  With ``--seconds 0`` it
stops there (a set-up sample); otherwise it runs passes until the time is
spent.  Each pass runs every experiment of the workload once through
``spica.experiments.run_experiment``; the outputs are checked after the
pass, outside the timed region.  The reference computation of
``reference.py`` runs before the first pass and after each one, so that
every pass has a gauge of the host's speed on each side.  With
``--trace 1`` untraced and traced passes alternate.  The report is one
JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # the time it started this worker from the time it became ready.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(experiments, configs, out_dir):
    """Run each config once; return (seconds, results with None for a raise)."""
    results = []
    start = time.perf_counter()
    for cfg in configs:
        try:
            results.append(experiments.run_experiment(cfg, output_dir=out_dir))
        except Exception:
            traceback.print_exc()
            results.append(None)
    return time.perf_counter() - start, results


def check_pass(workloads, configs, results):
    """(failed calls, fingerprint) of one pass's results."""
    failed = 0
    fingerprint = {}
    for cfg, result in zip(configs, results):
        if result is None:
            failed += 1
            continue
        ok, fingerprint[cfg.output] = workloads.check(cfg, result["csv"])
        if not ok:
            failed += 1
            print(f"check failed: {cfg.output} {fingerprint[cfg.output]}", file=sys.stderr)
    return failed, fingerprint


def run_passes(experiments, workloads, configs, seconds, tracer, out_dir):
    """Run passes until another would end after ``seconds``.

    Pass 0 is a warm-up: it is checked like the others, but its time is not
    reported, because it also pays for lazy imports and first allocations.
    The ``seconds`` window opens when it ends.
    When ``tracer`` is given, traced and untraced passes alternate after it.
    Each record's ``ref_s`` is the mean of the reference runs on either side
    of the pass.
    """
    from reference import Reference

    out_dir = Path(out_dir)
    passes = []
    attempted = failed = 0
    fingerprints = []
    deadline = None
    gauge = Reference()
    ref_before = gauge.run()
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        spans_before = len(tracer.spans) if tracer is not None else 0
        if traced:
            tracer.install()
            tracer.start_pass(len(passes))
        try:
            run_s, results = run_pass(experiments, configs, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        ref_after = gauge.run()
        record = {
            "warmup": not passes,
            "traced": traced,
            "run_s": run_s,
            "ref_s": (ref_before + ref_after) / 2,
            "rows": sum(r["rows"] for r in results if r is not None),
            "bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        }
        if traced:
            record["layers"] = tracer.finish_pass()
        elif tracer is not None and len(tracer.spans) != spans_before:
            raise RuntimeError("an untraced pass recorded spans: a wrapper was left on")
        pass_failed, fingerprint = check_pass(workloads, configs, results)
        attempted += len(configs)
        failed += pass_failed
        fingerprints.append(fingerprint)
        passes.append(record)
        ref_before = ref_after
        # Stop when another pass like this one would end past the deadline,
        # once at least one timed pass of each kind has run.
        now = time.perf_counter()
        if deadline is None:
            deadline = now + seconds
        if tracer is None:
            enough = len(passes) >= 2
        else:
            enough = len(passes) >= 3 and len(passes) % 2 == 1
        if enough and now + (now - pass_start) > deadline:
            break
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": fingerprints[0],
        "deterministic": all(fp == fingerprints[0] for fp in fingerprints),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for spica's outputs")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spica.experiments as experiments

    if not Path(experiments.__file__).resolve().is_relative_to(SRC):
        print(f"spica imported from {experiments.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import workloads

    start = time.perf_counter()
    configs = workloads.build(args.workload, args.seed)
    config_s = time.perf_counter() - start
    report = {"ready": _now(), "import_s": import_s, "config_s": config_s}

    if args.seconds > 0:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        Path(args.out).mkdir(parents=True, exist_ok=True)
        report.update(
            run_passes(experiments, workloads, configs, args.seconds, tracer, args.out)
        )
        if tracer is not None:
            tracer.write(Path(args.out).parent / f"trace-{args.workload}.csv")
        import numpy
        import scipy

        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        report["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
