"""Record each workload's output digests and exact work counts per seed.

    python3 perfbench/record.py --first 0 --last 20

Run from the root of a checkout. It runs every workload once per seed
(traced, so the work counts are taken too), applies the structural
checks, and writes perfbench/expected.json. The benchmark then requires
these bytes and counts for the recorded seeds, so re-record only for a
change that is meant to alter outputs, and say so in that change.
"""

import argparse
import json
import os
import sys

import gen
import run
import tracing


def record(workload: str, seed: int) -> dict:
    _, _, result, verdicts, problems = run.run_checked(workload, seed, 0, 1, None)
    if problems or not all(verdicts):
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    layer = next(iter(result["layers"].values()))
    return {
        "digests": result["commands"][-1]["digests"],
        "counts": {name: layer.get(name, 0) for name in tracing.EXACT_COUNTS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()
    expected = {w: {str(seed): record(w, seed) for seed in range(args.first, args.last + 1)}
                for w in gen.WORKLOADS}
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
