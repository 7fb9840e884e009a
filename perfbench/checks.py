"""Correctness gate: structural checks of each workload's output files.

These hold for any seed. Byte identity with the seed-commit outputs is
checked separately, by digest, for the seeds recorded in expected.json.
"""

import csv
import json
import os

import numpy as np

import gen

TRAJECTORY_HEADER = ["task_index", "nominal", "majority", "chao92_total", "vchao92_total",
                     "switch_total", "xi_pos", "xi_neg", "coverage_hat", "truth", "flags"]
SUMMARY_HEADER = ["task_index", "estimator", "mean", "std", "truth"]
SUMMARY_ESTIMATORS = ("nominal", "majority", "chao92_total", "vchao92_total",
                      "switch_total", "xi_pos", "xi_neg")
PAIRS_HEADER = ["left_id", "right_id", "similarity", "stratum"]


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def recount(votes_csv: str, n_items: int) -> tuple[int, int]:
    """(nominal, majority) of a whole vote log, counted with numpy alone."""
    cols = np.loadtxt(votes_csv, delimiter=",", skiprows=1, usecols=(2, 3),
                      dtype=np.int64, ndmin=2)
    items, dirty = cols[:, 0], cols[:, 1] == 1
    pos = np.bincount(items[dirty], minlength=n_items)
    neg = np.bincount(items[~dirty], minlength=n_items)
    return int((pos > 0).sum()), int((pos > neg).sum())


def _check_estimate(work: str) -> list[str]:
    problems = []
    rows = _rows(os.path.join(work, "trajectory.csv"))
    if rows[0] != TRAJECTORY_HEADER:
        problems.append(f"trajectory header {rows[0]}")
    body = rows[1:]
    if len(body) != gen.SLICES_WORKERS:
        problems.append(f"trajectory has {len(body)} rows, want {gen.SLICES_WORKERS} tasks")
    if any(r[9] != str(gen.SLICES_N_DIRTY) for r in body):
        problems.append(f"a truth cell differs from n_dirty={gen.SLICES_N_DIRTY}")
    want = recount(os.path.join(work, "votes.csv"), gen.SLICES_N_ITEMS)
    got = (int(body[-1][1]), int(body[-1][2])) if body else None
    if got != want:
        problems.append(f"final (nominal, majority) {got}, recount gives {want}")
    return problems


def _check_simulate(work: str) -> list[str]:
    problems = []
    with open(os.path.join(work, "scenario.json"), encoding="utf-8") as fh:
        sc = json.load(fh)
    rows = _rows(os.path.join(work, "summary.csv"))
    if rows[0] != SUMMARY_HEADER:
        problems.append(f"summary header {rows[0]}")
    body = rows[1:]
    width = len(SUMMARY_ESTIMATORS)
    if len(body) != sc["n_tasks"] * width:
        problems.append(f"summary has {len(body)} rows, want {sc['n_tasks']} tasks x {width}")
        return problems
    for i, row in enumerate(body):
        if row[0] != str(i // width) or row[1] != SUMMARY_ESTIMATORS[i % width]:
            problems.append(f"summary row {i + 2} is {row[:2]}")
            return problems
        if row[1] not in ("xi_pos", "xi_neg") and row[4] != str(sc["n_dirty"]):
            problems.append(f"summary row {i + 2} truth {row[4]!r} != n_dirty")
            return problems
    votes = os.path.join(work, "sim_votes.csv")
    n_votes = len(_rows(votes)) - 1
    if n_votes != sc["n_tasks"] * sc["task_size"]:
        problems.append(f"vote export has {n_votes} votes")
    with open(os.path.join(work, "sim_truth.csv"), encoding="utf-8") as fh:
        n_truth = sum(1 for line in fh if line.strip())
    if n_truth != sc["n_dirty"]:
        problems.append(f"truth export has {n_truth} items, want n_dirty={sc['n_dirty']}")
    final = {row[1]: row for row in body[-width:]}
    want = recount(votes, sc["n_items"])
    got = tuple(float(final[name][2]) for name in ("nominal", "majority"))
    spread = tuple(float(final[name][3]) for name in ("nominal", "majority"))
    if got != tuple(float(x) for x in want) or spread != (0.0, 0.0):
        problems.append(f"final (nominal, majority) mean {got} std {spread}, recount gives {want}")
    return problems


def _check_pairs(work: str) -> list[str]:
    problems = []
    n = len(_rows(os.path.join(work, "records.csv"))) - 1
    rows = _rows(os.path.join(work, "pairs.csv"))
    if rows[0] != PAIRS_HEADER:
        problems.append(f"pairs header {rows[0]}")
    body = rows[1:]
    if len(body) != n * (n - 1) // 2:
        problems.append(f"{len(body)} pairs for {n} records, want N(N-1)/2")
    strata = set()
    prev = ("", "")
    for left, right, sim, stratum in body:
        s = float(sim)
        want = ("auto_dirty" if s > gen.PAIRS_BETA
                else "auto_clean" if s < gen.PAIRS_ALPHA else "ambiguous")
        if not (prev < (left, right) and left < right and 0.0 <= s <= 1.0 and stratum == want):
            problems.append(f"pair row {left},{right},{sim},{stratum} is inconsistent")
            break
        prev = (left, right)
        strata.add(stratum)
    if strata != {"auto_dirty", "auto_clean", "ambiguous"}:
        problems.append(f"strata populated: {sorted(strata)}")
    return problems


_CHECKS = {
    "estimate-slices": _check_estimate,
    "simulate-crowd": _check_simulate,
    "pairs-er": _check_pairs,
}


def check_outputs(workload: str, work: str) -> list[str]:
    """Problems found in the output files now in `work`; empty when they pass."""
    try:
        return _CHECKS[workload](work)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
