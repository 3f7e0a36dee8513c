"""Command-line entry point.

Subcommands: check, simulate, detect, montecarlo, mdp, preset. Exit codes:
0 success, 1 validation or parse failure, 2 runtime numeric failure. The
environment variable CPS_SENTINEL_SEED overrides seeds.base when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness
from .detection import (
    UndefinedRatio,
    expected_step_drift,
    rn_series,
    series_csv_text,
    series_summary,
)
from .mdp import NotAbsolutelyContinuous
from .model import honest_influence_check
from .numerics import ConvergenceFailure, NotPositiveDefinite, NotSymmetric, split_seed
from .simulator import NonFiniteState, simulate, trajectory_csv_text

_NUMERIC_ERRORS = (NonFiniteState, NotPositiveDefinite, NotSymmetric,
                   ConvergenceFailure, NotAbsolutelyContinuous, UndefinedRatio)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cps-sentinel",
        description="Simulate watermarked networked control systems and "
                    "detect actuator attacks by likelihood ratio.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--seeds", type=int, default=None,
                       help="override seeds.count")
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="validate a scenario and report the influence check")
    p.add_argument("scenario")

    p = sub.add_parser("simulate", help="write one trajectory CSV")
    add_common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="explicit stream seed (default: derived from seeds.base, run 0)")

    p = sub.add_parser("detect", help="write one detection series CSV plus a summary")
    add_common(p)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("montecarlo", help="run a seeded batch and write a summary")
    add_common(p)
    p.add_argument("--override-assumption2", action="store_true",
                   help="run even if the influence check fails")

    p = sub.add_parser("mdp", help="run the finite testbed batch")
    add_common(p)

    p = sub.add_parser("preset", help="emit a built-in scenario file")
    p.add_argument("name", choices=sorted(harness.PRESETS))
    p.add_argument("--out", default=None)
    return parser


def _scenario_data(args) -> dict:
    """The scenario file's mapping with command-line and environment overrides.

    Overrides go into the mapping before validation, so an overridden
    horizon, seed count or threshold is checked like one in the file.
    """
    env_seed = os.environ.get("CPS_SENTINEL_SEED")
    seed_base = None
    if env_seed is not None:
        try:
            seed_base = int(env_seed)
        except ValueError:
            raise ValueError(f"CPS_SENTINEL_SEED must be an integer, got {env_seed!r}") from None
    return harness.with_overrides(
        harness.read_scenario_json(args.scenario),
        horizon=args.horizon, threshold=args.threshold, seed_count=args.seeds,
        seed_base=seed_base, outputs=args.out)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (harness.ParseError, harness.ValidationError,
            harness.AssumptionViolation, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "preset":
        _write_or_print(harness.json_text(harness.preset(args.name)), args.out)
        return 0

    if args.command == "check":
        s = harness.load_scenario(args.scenario)
        holds, unreachable = honest_influence_check(
            s.model, s.attack[0] if s.attack else None)
        print(f"influence check: {'holds' if holds else 'fails'}"
              + ("" if holds else f" (unreachable agents: {sorted(unreachable)})"))
        return 0

    if args.command == "mdp":
        summary = harness.run_mdp_batch(harness.mdp_scenario_from_dict(_scenario_data(args)))
        sys.stdout.write(harness.json_text(summary))
        return 0

    s = harness.scenario_from_dict(_scenario_data(args))

    if args.command in ("simulate", "detect"):
        seed = args.seed if args.seed is not None else split_seed(s.seed_base, 0)
        traj = simulate(s.model, s.honest, s.attack, s.horizon, seed)
        if args.command == "simulate":
            _write_or_print(trajectory_csv_text(traj), args.out)
            return 0
        cfg, corrupt = s.attack if s.attack is not None else (None, None)
        series = rn_series(traj, s.model, s.honest, corrupt, cfg)
        drift = (expected_step_drift(s.model, s.honest, corrupt, cfg)
                 if s.attack else None)
        _write_or_print(series_csv_text(series), args.out)
        summary = series_summary(series, s.horizon, s.threshold, drift)
        sys.stdout.write(harness.json_text(summary))
        return 0

    if args.command == "montecarlo":
        summary = harness.run_montecarlo(
            s, override_assumption2=args.override_assumption2)
        sys.stdout.write(harness.json_text(summary.summary_dict()))
        if summary.n_failed:
            first = next(r["error"] for r in summary.rows if r["error"] is not None)
            print(f"numeric error: {summary.n_failed} of {summary.n_runs} seeds failed; "
                  f"first: {first}", file=sys.stderr)
            return 2
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
