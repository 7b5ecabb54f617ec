"""Command-line experiment runner.

Usage::

    cobeam run scenario.json [--out results.csv] [--format csv|json]
               [--trials N] [--seed S] [--traces traces.csv]

Exit codes: 0 when the run completes, failed trials included (each is
recorded with its ``failure_kind``); 2 for configuration problems; 1 when
a ``CobeamError`` other than a recorded failure escapes the run.
"""

import argparse
import sys

from .errors import CobeamError, ConfigurationError
from .experiment import (emit_results, emit_traces, parse_scenario,
                         run_sweep, summarize)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cobeam",
        description="Coordinated multicast beamforming experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a JSON scenario")
    run.add_argument("--out", help="write per-run records to this path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--trials", type=int, help="override trial count")
    run.add_argument("--seed", type=int, help="override master seed")
    run.add_argument("--traces",
                     help="write per-iteration traces (CSV) to this path")
    return parser


def cmd_run(args):
    config = parse_scenario(args.scenario)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigurationError("--trials must be >= 1")
        config.trials = args.trials
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigurationError("--seed must be >= 0")
        config.seed = args.seed
    records, trace_rows = run_sweep(config)
    if args.out:
        emit_results(records, args.out, args.format)
        print(f"wrote {len(records)} records to {args.out}")
    if args.traces:
        emit_traces(trace_rows, args.traces)
        print(f"wrote {len(trace_rows)} trace rows to {args.traces}")
    print(f"{'scheme':<24}{'gamma_dB':>9}{'d_dB':>7}{'P_max':>8}"
          f"{'theta':>8}{'mean objective':>16}{'n':>4}{'infeas':>7}"
          f"{'indet':>6}{'gr-fail':>8}")
    for row in summarize(records):
        mean = "-" if row["mean_objective"] is None \
            else f"{row['mean_objective']:.6g}"
        theta = "-" if row["theta_cap"] is None else f"{row['theta_cap']:g}"
        print(f"{row['scheme']:<24}{row['gamma_db']:>9g}{row['d_db']:>7g}"
              f"{row['p_max']:>8g}{theta:>8}{mean:>16}{row['trials']:>4}"
              f"{row['infeasible_excluded']:>7}"
              f"{row['indeterminate_excluded']:>6}"
              f"{row['randomization_excluded']:>8}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return cmd_run(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except CobeamError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
