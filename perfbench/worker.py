"""Closed-loop runner: one client runs one workload's errest command repeatedly.

Each command goes through ``errest.cli.main`` in this process and the
next starts only after the previous one returned. The first command is a
warm-up: it is checked like the others but its time is not a sample.
A fixed pure-Python reference loop runs just before and just after every
command, so each command's time can also be read in units of the
machine's speed at that moment (a shared host slows down by up to 1.6x
for seconds to minutes at a time).
Commands run until the next one would end past ``--seconds``, and at
least ``MIN_COMMANDS`` times. With ``--trace 1`` every other command
after the warm-up runs traced, so the same process also gives the
untraced time the tracing overhead is taken against. Untraced runs also
time ``SETUP_REPEATS`` imports of ``errest.cli`` in fresh interpreters,
spread over the run between commands. The result is written as JSON to
``<work>/worker.json``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gen
import tracing

MIN_COMMANDS = {0: 4, 1: 5}
SETUP_REPEATS = 11

IMPORT_ONCE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import errest.cli; print(time.perf_counter() - t)")


def import_time(src: str) -> float:
    """Seconds to import errest.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_ONCE, src], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter-bound job (about 20 ms on a 2020s x86 core).

    Its work must never change: every cmd_cost ever recorded is in its units.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(160_000):
        key = i % 97
        table[key] = table.get(key, 0) + i * i
    "".join(str(i) for i in range(12_000))
    return time.perf_counter() - start


def file_digests(work: str, names) -> dict[str, str | None]:
    out = {}
    for name in names:
        try:
            with open(os.path.join(work, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            out[name] = None
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import errest.cli

    if not os.path.abspath(errest.cli.__file__).startswith(src + os.sep):
        print(f"errest imported from {errest.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    argv = gen.cli_args(args.workload, args.work)
    outputs = gen.OUTPUT_FILES[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    commands = []
    setup = []
    setup_due = SETUP_REPEATS if args.trace == 0 else 0
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while True:
        n = len(commands)
        now = time.perf_counter()
        if n >= MIN_COMMANDS[args.trace]:
            typical = statistics.median(c["s"] + 2 * c["ref_s"] for c in commands[1:])
            if now + typical > deadline:
                break
        while len(setup) < setup_due * min(1.0, (now - begin) / args.seconds):
            setup.append(import_time(src))
        traced = tracer is not None and n % 2 == 1
        for name in outputs:
            # A command that writes nothing must not pass on the previous command's file.
            if os.path.exists(os.path.join(args.work, name)):
                os.remove(os.path.join(args.work, name))
        gc.collect()
        ref_before = reference_loop()
        if traced:
            tracer.run_id = n
            tracer.install()
        start = time.perf_counter()
        try:
            code = errest.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        ref_s = (ref_before + reference_loop()) / 2
        commands.append({"code": code, "s": elapsed, "ref_s": ref_s, "warmup": n == 0,
                         "traced": traced, "digests": file_digests(args.work, outputs)})

    while len(setup) < setup_due:
        setup.append(import_time(src))
    result = {
        "commands": commands,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {},
    }
    if tracer is not None:
        result["layers"] = tracer.summaries()
        tracer.write(os.path.join(args.work, "trace.jsonl"))
    with open(os.path.join(args.work, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
