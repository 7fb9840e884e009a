"""Command-line surface: estimate, simulate, and pairs subcommands.

Emits plot-ready CSV tables. Exit codes: 0 on success, 2 for input
errors, 3 for internal invariant violations.
"""

import argparse
import csv
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .core import (
    read_truth_csv,
    read_votes_csv,
    write_truth_csv,
    write_votes_csv,
)
from .sim import GroundTruth, load_scenario, permute_and_average, simulate
from .trajectory import (
    DEFAULT_SHIFT,
    DEFAULT_TREND_WINDOW,
    ESTIMATE_COLUMNS,
    evaluate_trajectory,
)
from .pairs import iter_scored_pairs, read_records_csv
from .priority import stratum_rule

__all__ = ["main", "run_estimate", "run_simulate", "run_pairs"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

TRAJECTORY_HEADER = [
    "task_index",
    "nominal",
    "majority",
    "chao92_total",
    "vchao92_total",
    "switch_total",
    "xi_pos",
    "xi_neg",
    "coverage_hat",
    "truth",
    "flags",
]

SUMMARY_HEADER = ["task_index", "estimator", "mean", "std", "truth"]

PAIRS_HEADER = ["left_id", "right_id", "similarity", "stratum"]


def fmt(value) -> str:
    """Platform-stable cell formatting: 9 significant digits, '' for gaps."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9g}"
    return str(value)


@contextmanager
def _open_out(path):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def run_estimate(
    votes_csv,
    n_items: int,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    truth_csv=None,
    out="-",
) -> None:
    """Replay a vote log and write the per-task estimator trajectory."""
    log = read_votes_csv(votes_csv, n_items)
    truth = None
    if truth_csv is not None:
        truth = GroundTruth(read_truth_csv(truth_csv, n_items), n_items)
    rows = evaluate_trajectory(log, shift=shift, trend_window=trend_window, truth=truth)
    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.task_index,
                    row.nominal,
                    row.majority,
                    fmt(row.chao92_total),
                    fmt(row.vchao92_total),
                    fmt(row.switch_total),
                    fmt(row.xi_pos),
                    fmt(row.xi_neg),
                    fmt(row.coverage_hat),
                    fmt(row.truth),
                    ";".join(row.flags),
                ]
            )


def run_simulate(
    scenario_json,
    out="-",
    votes_out=None,
    truth_out=None,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    **overrides,
) -> None:
    """Run a scenario, average trajectories over permutations, write CSV.

    Keyword overrides (seed, permutations, epsilon, ...) replace the
    corresponding scenario fields.
    """
    sc = load_scenario(scenario_json)
    applied = {k: v for k, v in overrides.items() if v is not None}
    if applied:
        sc = replace(sc, **applied)
    log, truth = simulate(sc)
    if votes_out is not None:
        write_votes_csv(log, votes_out)
    if truth_out is not None:
        write_truth_csv(truth.dirty_set, truth_out)

    columns = ESTIMATE_COLUMNS + ("truth_xi_pos", "truth_xi_neg")

    def trajectory_matrix(permuted):
        rows = evaluate_trajectory(
            permuted, shift=shift, trend_window=trend_window, truth=truth
        )
        values = [[row.value(name) for name in columns] for row in rows]
        return np.array(values, dtype=float).reshape(len(rows), len(columns))

    averaged = permute_and_average(log, sc.permutations, trajectory_matrix, seed=sc.seed)
    means = dict(zip(columns, averaged.mean.T))
    stds = dict(zip(columns, averaged.std.T))

    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for k in range(log.task_count):
            for name in ESTIMATE_COLUMNS:
                if f"truth_{name}" in means:
                    truth_cell = fmt(float(means[f"truth_{name}"][k]))
                else:
                    truth_cell = fmt(sc.n_dirty)
                writer.writerow(
                    [
                        k,
                        name,
                        fmt(float(means[name][k])),
                        fmt(float(stds[name][k])),
                        truth_cell,
                    ]
                )


def run_pairs(records_csv, alpha: float, beta: float, out="-") -> None:
    """Score the candidate-pair universe and write it with stratum labels."""
    stratum = stratum_rule(alpha, beta)
    table = read_records_csv(records_csv)
    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PAIRS_HEADER)
        for pair in iter_scored_pairs(table):
            writer.writerow(
                [pair.left_id, pair.right_id, fmt(pair.similarity), stratum(pair.similarity)]
            )


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type of the integer flags; argparse names the flag on error."""
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    """argparse type of the count flags; argparse names the flag on error."""
    return _int_at_least(text, 1)


def unit_float(text: str) -> float:
    """argparse type of the fraction flags; argparse names the flag on error."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errest",
        description="Estimate remaining data errors after crowd-style cleaning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="replay a vote log into estimator trajectories")
    est.add_argument("votes_csv", help="vote log (task_id,worker_id,item_id,label)")
    est.add_argument(
        "--n-items", type=non_negative_int, required=True, help="item universe size N"
    )
    est.add_argument("--shift", type=non_negative_int, default=DEFAULT_SHIFT)
    est.add_argument("--trend-window", type=non_negative_int, default=DEFAULT_TREND_WINDOW)
    est.add_argument("--truth", help="CSV of true-dirty item ids, one per line")
    est.add_argument("--out", default="-")

    simp = sub.add_parser("simulate", help="run a seeded crowd simulation scenario")
    simp.add_argument("scenario_json", help="flat-key JSON scenario file")
    simp.add_argument("--out", default="-")
    simp.add_argument("--votes-out", help="also export the generated vote log")
    simp.add_argument("--truth-out", help="also export the true-dirty item ids")
    simp.add_argument("--seed", type=non_negative_int)
    simp.add_argument("--permutations", type=positive_int)
    simp.add_argument("--epsilon", type=unit_float)
    simp.add_argument("--shift", type=non_negative_int, default=DEFAULT_SHIFT)
    simp.add_argument("--trend-window", type=non_negative_int, default=DEFAULT_TREND_WINDOW)

    prs = sub.add_parser("pairs", help="expand and score candidate record pairs")
    prs.add_argument("records_csv", help="records (record_id,field1,field2,...)")
    prs.add_argument("--alpha", type=unit_float, required=True, help="auto-clean below")
    prs.add_argument("--beta", type=unit_float, required=True, help="auto-dirty above")
    prs.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            run_estimate(
                args.votes_csv,
                n_items=args.n_items,
                shift=args.shift,
                trend_window=args.trend_window,
                truth_csv=args.truth,
                out=args.out,
            )
        elif args.command == "simulate":
            run_simulate(
                args.scenario_json,
                out=args.out,
                votes_out=args.votes_out,
                truth_out=args.truth_out,
                shift=args.shift,
                trend_window=args.trend_window,
                seed=args.seed,
                permutations=args.permutations,
                epsilon=args.epsilon,
            )
        else:
            run_pairs(args.records_csv, alpha=args.alpha, beta=args.beta, out=args.out)
    except (ValueError, OSError) as exc:
        # MalformedInputError and JSON decode errors are ValueError subclasses.
        print(f"errest: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
