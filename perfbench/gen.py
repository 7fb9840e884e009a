"""Seeded inputs of the errest benchmark, and the command each workload runs.

Each workload's inputs are a pure function of the seed: the same seed
writes byte-identical files. The program under test only ever sees the
files written here.

    python3 perfbench/gen.py --workload estimate-slices --seed 3 --out DIR
"""

import argparse
import csv
import json
import os

import numpy as np

# Sizes keep each command well under a second, so a run holds dozens of
# commands and their median rides out the seconds-long slow spells of a
# shared machine. README.md gives the layer shares each shape keeps.

# estimate-slices: a large universe read from CSV, few long tasks.
SLICES_N_ITEMS = 100_000
SLICES_N_DIRTY = 10_000
SLICES_WORKERS = 10
SLICES_SLICE = 2_000
SLICES_FP = 0.01
SLICES_FN = 0.1

# simulate-crowd: the prioritized scenario, many short prefixes.
CROWD_SCENARIO = {
    "n_items": 2000,
    "n_dirty": 200,
    "task_size": 15,
    "n_tasks": 400,
    "fp_rate": 0.02,
    "fn_rate": 0.1,
    "epsilon": 0.1,
    "heuristic_error": 0.05,
    "permutations": 2,
    "prioritize": True,
}

# pairs-er: 50 records, so 1,225 pairs; near and far typo duplicates
# put pairs above beta and inside [alpha, beta], unrelated ones below alpha.
PAIRS_ALPHA = 0.5
PAIRS_BETA = 0.9
PAIRS_BASE = 34
PAIRS_NEAR = 8
PAIRS_FAR = 8
PAIRS_TEXT_LEN = 35

_FIRST = ("blue", "red", "golden", "silver", "green", "little", "grand", "old",
          "royal", "happy", "lucky", "north", "sunny", "wild", "quiet", "iron")
_SECOND = ("moon", "dragon", "garden", "harbor", "lantern", "oak", "river",
           "crown", "fox", "anchor", "maple", "star", "bridge", "meadow")
_KIND = ("diner", "cafe", "bistro", "grill", "tavern", "bakery", "kitchen", "deli")
_STREET = ("oak", "pine", "elm", "cedar", "maple", "birch", "lake", "hill",
           "park", "main", "market", "mill", "spring", "union")
_SUFFIX = ("st", "ave", "rd", "blvd", "ln", "way")
_CITY = ("portland", "seattle", "boise", "eugene", "tacoma", "spokane",
         "salem", "olympia", "bend", "yakima")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

WORKLOADS = ("estimate-slices", "simulate-crowd", "pairs-er")


def write_estimate_slices(rng: np.random.Generator, out: str) -> dict:
    dirty = rng.choice(SLICES_N_ITEMS, size=SLICES_N_DIRTY, replace=False)
    truth = np.zeros(SLICES_N_ITEMS, dtype=bool)
    truth[dirty] = True
    items = np.concatenate(
        [rng.choice(SLICES_N_ITEMS, size=SLICES_SLICE, replace=False)
         for _ in range(SLICES_WORKERS)]
    )
    draws = rng.random(len(items))
    labels = np.where(truth[items], draws >= SLICES_FN, draws < SLICES_FP).astype(np.int8)
    tasks = np.repeat(np.arange(SLICES_WORKERS), SLICES_SLICE)
    lines = ["task_id,worker_id,item_id,label\n"]
    lines.extend(
        f"t{k},w{k},{i},{lab}\n"
        for k, i, lab in zip(tasks.tolist(), items.tolist(), labels.tolist())
    )
    with open(os.path.join(out, "votes.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with open(os.path.join(out, "truth.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\n" for i in sorted(dirty.tolist()))
    return {"n_items": SLICES_N_ITEMS, "n_dirty": SLICES_N_DIRTY, "votes": len(items)}


def write_simulate_crowd(rng: np.random.Generator, out: str) -> dict:
    scenario = dict(CROWD_SCENARIO, seed=int(rng.integers(2**31)))
    with open(os.path.join(out, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, sort_keys=True)
    return {
        "n_items": scenario["n_items"],
        "n_dirty": scenario["n_dirty"],
        "tasks": scenario["n_tasks"],
        "permutations": scenario["permutations"],
        "votes": scenario["n_tasks"] * scenario["task_size"],
    }


def _record(rng: np.random.Generator) -> list[str]:
    """A record whose normalized text is PAIRS_TEXT_LEN +- 1 characters long.

    Near-equal lengths keep the edit-distance work of a seed close to
    that of any other seed.
    """
    def pick(words):
        return words[int(rng.integers(len(words)))]

    while True:
        name = f"{pick(_FIRST)} {pick(_SECOND)} {pick(_KIND)}"
        street = f"{int(rng.integers(1, 100))} {pick(_STREET)} {pick(_SUFFIX)}"
        fields = [name, street, pick(_CITY)]
        if abs(len(" ".join(fields)) - PAIRS_TEXT_LEN) <= 1:
            return fields


def _typo(rng: np.random.Generator, fields: list[str], edits: int) -> list[str]:
    """Apply `edits` single-character substitutions, insertions or deletions."""
    fields = list(fields)
    for _ in range(edits):
        f = int(rng.integers(len(fields)))
        text = fields[f]
        pos = int(rng.integers(len(text)))
        op = int(rng.integers(3))
        letter = _LETTERS[int(rng.integers(len(_LETTERS)))]
        if op == 0:
            text = text[:pos] + letter + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + letter + text[pos:]
        elif len(text) > 1:
            text = text[:pos] + text[pos + 1:]
        fields[f] = text
    return fields


def write_pairs_er(rng: np.random.Generator, out: str) -> dict:
    records = [_record(rng) for _ in range(PAIRS_BASE)]
    for _ in range(PAIRS_NEAR):
        records.append(_typo(rng, records[int(rng.integers(PAIRS_BASE))], 1))
    for _ in range(PAIRS_FAR):
        records.append(_typo(rng, records[int(rng.integers(PAIRS_BASE))], 8))
    order = rng.permutation(len(records))
    with open(os.path.join(out, "records.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "name", "address", "city"])
        for rank, idx in enumerate(order.tolist()):
            writer.writerow([f"r{rank:04d}", *records[idx]])
    n = len(records)
    return {"records": n, "pairs": n * (n - 1) // 2,
            "alpha": PAIRS_ALPHA, "beta": PAIRS_BETA}


_WRITERS = {
    "estimate-slices": write_estimate_slices,
    "simulate-crowd": write_simulate_crowd,
    "pairs-er": write_pairs_er,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the inputs of `workload` for `seed` into `out`; return their sizes."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _WRITERS[workload](rng, out)


def cli_args(workload: str, work: str) -> list[str]:
    """The `errest` command line of `workload` over the inputs in `work`."""
    def path(name):
        return os.path.join(work, name)

    if workload == "estimate-slices":
        return ["estimate", path("votes.csv"), "--n-items", str(SLICES_N_ITEMS),
                "--truth", path("truth.csv"), "--out", path("trajectory.csv")]
    if workload == "simulate-crowd":
        return ["simulate", path("scenario.json"), "--out", path("summary.csv"),
                "--votes-out", path("sim_votes.csv"), "--truth-out", path("sim_truth.csv")]
    return ["pairs", path("records.csv"), "--alpha", str(PAIRS_ALPHA),
            "--beta", str(PAIRS_BETA), "--out", path("pairs.csv")]


# Files each workload's command writes; their SHA-256 digests are the output.
OUTPUT_FILES = {
    "estimate-slices": ("trajectory.csv",),
    "simulate-crowd": ("summary.csv", "sim_votes.csv", "sim_truth.csv"),
    "pairs-er": ("pairs.csv",),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
