"""Command-line entry point: run experiments, emit presets, plan delays."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .experiments import ConfigError, load_config, preset, preset_names, run_experiment
from .ttd import Quadrant, plan_delay, total_delay

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spica",
        description="Array interference-cancellation simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config JSON")
    p_run.add_argument("config", help="path to config JSON (or a run manifest)")
    p_run.add_argument(
        "--output-dir",
        default=None,
        help="output directory (default: $SPICA_OUTPUT_DIR or the working directory)",
    )

    p_preset = sub.add_parser("preset", help="show or save a named preset config")
    p_preset.add_argument("name", help=f"one of: {', '.join(preset_names())}")
    p_preset.add_argument(
        "--emit-config", metavar="PATH", default=None, help="write the config JSON here"
    )

    p_plan = sub.add_parser("plan", help="decompose a delay into clock settings")
    p_plan.add_argument("delay_seconds", type=float, help="target delay in seconds")
    p_plan.add_argument(
        "--max-offset", type=int, default=2, help="largest interleave offset (default 2)"
    )
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg, output_dir=args.output_dir)
    print(f"wrote {result['csv']} ({result['rows']} rows)")
    print(f"wrote {result['manifest']}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    cfg = preset(args.name)
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
    if args.emit_config:
        with open(args.emit_config, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.emit_config}")
    else:
        print(text)
    return EXIT_OK


def _cmd_plan(args) -> int:
    try:
        pi_code, quadrant, offset = plan_delay(args.delay_seconds, max_offset=args.max_offset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    total = total_delay(pi_code, quadrant, offset)
    err = total - args.delay_seconds
    print(
        f"pi_code={pi_code} quadrant={Quadrant(quadrant).name} interleave_offset={offset} "
        f"total={total:.12e} s error={err:.3e} s"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "preset": _cmd_preset, "plan": _cmd_plan}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
