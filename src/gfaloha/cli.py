"""Command-line front end for the sweep runner and receiver validation.

Two subcommands: `run` executes the configured load sweep and writes
the figure CSVs plus summary.json; `validate-receiver` runs the
synthetic signal-chain suites and reports pass/fail per check. Exit
code 0 on success, 1 when a validation check fails, 2 on hard errors
(bad config, unwritable output).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiment import (FIGURES, ExperimentConfig, run_experiment,
                         validate_receiver)
from .params import InvalidParamsError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfaloha",
        description="Grant-free asynchronous replica ALOHA experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep the load grid, write figure data")
    val = sub.add_parser("validate-receiver",
                         help="run the signal-chain synthetic suites")
    for sp in (run, val):
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config with system/energy/experiment sections")
        sp.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="output directory (default: results)")
        sp.add_argument("--seed", type=int, help="master seed override")

    run.add_argument("--figures", metavar="LIST",
                     help="comma-separated subset of " + ",".join(FIGURES))
    run.add_argument("--loads", metavar="LIST",
                     help="comma-separated load grid override")
    run.add_argument("--reps", type=int, help="repetitions per cell")
    run.add_argument("--packets", dest="packets_per_point", type=int,
                     help="offered packets per sweep point")
    run.add_argument("--workers", type=int, help="parallel worker processes")

    val.add_argument("--trials", dest="receiver_trials", type=int,
                     help="trials per synthetic suite (default 1000)")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config with each given flag set on the field its dest names."""
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    updates = {k: v for k, v in vars(args).items()
               if v is not None and k not in ("command", "config")}
    if "figures" in updates:
        updates["figures"] = tuple(updates["figures"].split(","))
    if "loads" in updates:
        updates["loads"] = tuple(float(x) for x in updates["loads"].split(","))
    return replace(cfg, **updates).validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            summary = run_experiment(cfg)
            for name in summary["files"].values():
                print(f"wrote {cfg.out_dir}/{name}")
            print(f"wrote {cfg.out_dir}/summary.json")
            return 0
        report = validate_receiver(cfg)
        for name in ("drift", "single_noise_free", "single_snr", "two_packet"):
            body = {k: v for k, v in report[name].items() if k != "pass"}
            state = "pass" if report[name]["pass"] else "FAIL"
            print(f"{name:<18} {state}  {body}")
        print(f"overall            {'pass' if report['pass'] else 'FAIL'}")
        return 0 if report["pass"] else 1
    except (InvalidParamsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
