"""errest benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload estimate-slices --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout. It imports errest from ./src, writes
inputs, outputs and span traces under ./.perfbench, prints every metric
by name and unit, and prints one JSON object as the last line of
standard output. See perfbench/README.md for the metrics and the gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORK_ROOT = ".perfbench"
# Beyond --seconds: the last command, worker start-up and writing the trace.
WORKER_GRACE_S = 100

THROUGHPUT_NAME = {
    "estimate-slices": "votes_per_s",
    "simulate-crowd": "votes_per_s",
    "pairs-er": "pairs_per_s",
}


def work_per_command(info: dict) -> int:
    """Votes replayed (all permutations) or pairs scored by one command."""
    if "pairs" in info:
        return info["pairs"]
    return info["votes"] * info.get("permutations", 1)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, work: str, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--work", work, "--src", SRC, "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    with open(os.path.join(work, "worker.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate(workload: str, work: str, result: dict,
         recorded: dict | None) -> tuple[list[bool], list[str]]:
    """Verdict per command, and the problems behind any failure.

    A command passes when it exits 0, its outputs are byte-identical to
    the reference, and (traced) its exact work counts match. The
    reference is the seed-commit digest for a recorded seed; for any
    seed the files must also pass the structural checks.
    """
    problems = checks.check_outputs(workload, work)
    on_disk = result["commands"][-1]["digests"]
    reference = None if problems else on_disk
    if recorded is not None and on_disk != recorded["digests"]:
        problems.append("outputs differ from the seed-commit digests recorded for this seed")
        reference = None
    want_counts = recorded["counts"] if recorded is not None else None
    verdicts = []
    for i, cmd in enumerate(result["commands"]):
        ok = cmd["code"] == 0 and cmd["digests"] == reference
        if cmd["code"] != 0:
            problems.append(f"command {i} exited {cmd['code']}")
        if cmd["traced"]:
            layer = result["layers"].get(str(i), {})
            counts = {name: layer.get(name, 0) for name in tracing.EXACT_COUNTS}
            if want_counts is None:
                want_counts = counts
            if counts != want_counts:
                problems.append(f"command {i} work counts {counts} != {want_counts}")
                ok = False
        verdicts.append(ok)
    return verdicts, problems


def run_checked(workload: str, seed: int, seconds: float, trace: int, recorded: dict | None):
    """Generate the inputs, run the worker and gate it: (work dir, input sizes, result,
    verdicts, problems); the result is None when the worker gave none."""
    work = os.path.join(WORK_ROOT, workload)
    shutil.rmtree(work, ignore_errors=True)
    info = gen.generate(workload, seed, work)
    result = run_worker(workload, work, seconds, trace)
    if result is None:
        return work, info, None, [False], ["the worker gave no result"]
    verdicts, problems = gate(workload, work, result, recorded)
    return work, info, result, verdicts, problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    recorded = load_expected().get(workload, {}).get(str(seed))
    work, info, result, verdicts, problems = run_checked(workload, seed, seconds, trace,
                                                         recorded)
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "lines": [f"== {workload}: FAIL {problems[0]}"]}
    commands = result["commands"]
    plain_cmds = [c for c in commands if not (c["traced"] or c["warmup"])]
    plain = [c["s"] for c in plain_cmds]
    cmd_s = statistics.median(plain)
    cmd_cost = statistics.median(c["s"] / c["ref_s"] for c in plain_cmds)
    work_units = work_per_command(info)
    failed = verdicts.count(False)
    lines = [f"== {workload} seed={seed} trace={trace}: closed loop, 1 client, "
             f"{len(commands)} commands in {sum(c['s'] for c in commands):.1f} s; inputs {info}"]

    def show(name, value, unit, note=""):
        lines.append(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")

    show("cmd_s", cmd_s, "s",
         f"median of n={len(plain)} untraced commands after 1 warm-up; {tail(plain)}")
    show("cmd_cost", cmd_cost, "ref", "median of command time / reference-loop time")
    show(THROUGHPUT_NAME[workload], work_units / cmd_s, "1/s", f"{work_units} per command")
    show("failed_ratio", failed / len(commands), "ratio", f"{failed}/{len(commands)} commands")
    metrics = {}
    if trace == 0:
        setup = result["setup_s"]
        metrics = {
            "cmd_cost": {"value": cmd_cost, "unit": "ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        show("peak_rss_mb", result["peak_rss_mb"], "MB", "worker process")
        show("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(setup)} imports of errest.cli in fresh interpreters; "
             f"range {min(setup):.4f}-{max(setup):.4f}")
    else:
        layers = list(result["layers"].values())
        traced_s = [c["s"] for c in commands if c["traced"]]
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(traced_s) - cmd_s
            else:
                value = statistics.median(layer.get(name, 0) for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit)
        lines.append(f"  (per-layer values: median over {len(layers)} traced commands; "
                     f"spans in {os.path.join(work, 'trace.jsonl')})")
    for problem in problems:
        lines.append(f"  FAIL {problem}")
    return {"correct": failed == 0 and not problems, "attempted": len(commands),
            "failed": failed, "metrics": metrics, "lines": lines}


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, when that is above p50."""
    n = len(samples)
    rank = n - 10
    if 2 * rank < n:
        return f"no percentile above p50 has 10 samples beyond it at n={n}"
    return f"p{100 * rank // n} {sorted(samples)[rank - 1]:.4f} s (10 samples beyond)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*gen.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "errest", "cli.py")):
        print("perfbench: run from the root of an errest checkout (no src/errest/cli.py)",
              file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    for res in results.values():
        print("\n".join(res["lines"]))
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, res in results.items()
                   for name, m in res["metrics"].items()}
    summary = {
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
