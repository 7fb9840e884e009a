"""Command-line surface: estimate, simulate, and pairs subcommands.

Emits plot-ready CSV tables. Exit codes: 0 on success, 2 for input
errors, 3 for internal invariant violations.
"""

import argparse
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .core import _csv_quoted, _write_table, read_truth_csv, read_votes_csv
from .core import write_truth_csv, write_votes_csv
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

TRAJECTORY_HEADER = ["task_index", *ESTIMATE_COLUMNS, "coverage_hat", "truth", "flags"]

SUMMARY_HEADER = ["task_index", "estimator", "mean", "std", "truth"]

PAIRS_HEADER = ["left_id", "right_id", "similarity", "stratum"]


def _fmt_column(values):
    """Yield each float at 9 significant digits, NaN as '', as the writer reads it."""
    return ("" if v != v else f"{v:.9g}" for v in values)


def _check_outputs(inputs, outputs: dict) -> None:
    """Raise, before anything is written, if two outputs or an output and an input are one file."""
    if [*outputs.values()].count("-") > 1:
        raise ValueError("only one of --out, --votes-out and --truth-out may be - (stdout)")
    files = {flag: os.path.realpath(p) for flag, p in outputs.items() if p not in (None, "-")}
    if len(set(files.values())) < len(files):
        raise ValueError("--out, --votes-out and --truth-out must name different files")
    if clash := [f for f, p in files.items() if p in map(os.path.realpath, filter(None, inputs))]:
        raise ValueError(f"{clash[0]} {outputs[clash[0]]} would overwrite an input file")


def run_estimate(
    votes_csv,
    n_items: int,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    truth_csv=None,
    out="-",
) -> None:
    """Replay a vote log and write the per-task estimator trajectory."""
    _check_outputs([votes_csv, truth_csv], {"--out": out})
    log = read_votes_csv(votes_csv, n_items)
    truth = None
    if truth_csv is not None:
        truth = GroundTruth(read_truth_csv(truth_csv, n_items), n_items)
    traj = evaluate_trajectory(log, shift=shift, trend_window=trend_window, truth=truth)
    columns = [getattr(traj, name).tolist() for name in TRAJECTORY_HEADER[:-2]]
    rows = zip(*columns[:3], *map(_fmt_column, columns[3:]),
               [""] * len(traj) if truth is None else traj.truth.tolist(), traj.flags)
    _write_table(out, TRAJECTORY_HEADER, "%d,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s\n", rows)


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
    _check_outputs([scenario_json],
                   {"--out": out, "--votes-out": votes_out, "--truth-out": truth_out})
    sc = load_scenario(scenario_json)
    applied = {k: v for k, v in overrides.items() if v is not None}
    if applied:
        sc = replace(sc, **applied)
    log, truth = simulate(sc)
    if votes_out is not None:
        write_votes_csv(log, votes_out)
    if truth_out is not None:
        write_truth_csv(truth.dirty_ids, truth_out)

    # The truth of an estimate is n_dirty, except for the last two, xi_pos and xi_neg,
    # whose truth is the switch count averaged with them.
    columns = ESTIMATE_COLUMNS + ("truth_xi_pos", "truth_xi_neg")
    n_est = len(ESTIMATE_COLUMNS)

    def trajectory_matrix(permuted):
        traj = evaluate_trajectory(permuted, shift=shift, trend_window=trend_window, truth=truth)
        return np.column_stack([getattr(traj, name) for name in columns])

    averaged = permute_and_average(log, sc.permutations, trajectory_matrix, seed=sc.seed)

    # One row per (task, estimator), in row-major order of the (tasks, n_est) matrices.
    n_tasks = len(averaged.mean)
    truths = np.full((n_tasks, n_est), str(sc.n_dirty), dtype=object)
    truths[:, -2:] = np.reshape([*_fmt_column(averaged.mean[:, n_est:].ravel().tolist())], (-1, 2))
    mean, std = (_fmt_column(a[:, :n_est].ravel().tolist()) for a in (averaged.mean, averaged.std))
    rows = zip(np.repeat(np.arange(n_tasks), n_est).tolist(), ESTIMATE_COLUMNS * n_tasks,
               mean, std, truths.ravel().tolist())
    _write_table(out, SUMMARY_HEADER, "%d,%s,%s,%s,%s\n", rows)


def run_pairs(records_csv, alpha: float, beta: float, out="-") -> None:
    """Score the candidate-pair universe and write it with stratum labels."""
    _check_outputs([records_csv], {"--out": out})
    stratum = stratum_rule(alpha, beta)
    table = read_records_csv(records_csv)
    quoted = dict(zip(table.ids, _csv_quoted(table.ids)))
    rows = ((quoted[left], quoted[right], score, stratum(score))
            for left, right, score in iter_scored_pairs(table))
    _write_table(out, PAIRS_HEADER, "%s,%s,%.9g,%s\n", rows)


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

    # Each subcommand's run function, read from the module at parse time.
    est = sub.add_parser("estimate", help="replay a vote log into estimator trajectories")
    est.set_defaults(run=run_estimate)
    est.add_argument("votes_csv", help="vote log (task_id,worker_id,item_id,label)")
    est.add_argument(
        "--n-items", type=non_negative_int, required=True, help="item universe size N"
    )
    est.add_argument("--shift", type=non_negative_int, default=DEFAULT_SHIFT)
    est.add_argument("--trend-window", type=non_negative_int, default=DEFAULT_TREND_WINDOW)
    est.add_argument("--truth", dest="truth_csv", help="CSV of true-dirty item ids, one per line")
    est.add_argument("--out", default="-")

    simp = sub.add_parser("simulate", help="run a seeded crowd simulation scenario")
    simp.set_defaults(run=run_simulate)
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
    prs.set_defaults(run=run_pairs)
    prs.add_argument("records_csv", help="records (record_id,field1,field2,...)")
    prs.add_argument("--alpha", type=unit_float, required=True, help="auto-clean below")
    prs.add_argument("--beta", type=unit_float, required=True, help="auto-dirty above")
    prs.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    args.pop("command")
    run = args.pop("run")
    try:
        run(**args)
    except (ValueError, OSError) as exc:
        # MalformedInputError and JSON decode errors are ValueError subclasses.
        print(f"errest: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"errest: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
