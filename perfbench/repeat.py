"""Repeatability check: two sets of runs of the same code, interleaved.

    python3 perfbench/repeat.py --workload served-mix [--runs 10] [--sets 2]
                                [--seconds 25] [--first-seed 1] [--out FILE]

Run ``i`` of set ``s`` uses seed ``first_seed + 100 * s + i``; the sets
alternate run by run, so a slow spell of the machine falls on both.  For
every end-to-end metric the command prints each set's median and
quartiles and the interquartile spread as a share of the median, and
whether the sets agree within the bounds of ``BENCHMARK.json``: every
spread within its bound, the second median no worse
than the first by more than the bound, and the same share of failed
operations.  The machine-speed reference each run prints is summarised
the same way, so a disagreement can be traced to the machine.
Exits 1 when the sets do not agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"run failed (seed {seed}):\n{completed.stdout}\n{completed.stderr}")
    result = json.loads(lines[-1])
    references: dict[str, list[float]] = {}
    for line in lines:
        if line.startswith("# reference_"):
            for key, value in json.loads(line.split(": ", 1)[1]).items():
                references.setdefault(key, []).append(value)
    result["reference"] = {key: statistics.median(values) for key, values in references.items()}
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write every run's result as JSON")
    arguments = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        bench = json.load(source)
    seconds = arguments.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets: list[list[dict]] = [[] for _ in range(arguments.sets)]
    for index in range(arguments.runs):
        for number, runs in enumerate(sets):
            seed = arguments.first_seed + 100 * number + index
            result = run_once(arguments.workload, seed, seconds)
            runs.append(result)
            print(f"set {number + 1} run {index + 1} seed {seed}: "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"reference {result['reference']}", flush=True)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as out:
            json.dump(sets, out, indent=1)

    agree = True
    reported = [name for name in metrics if name in sets[0][0]["metrics"]]
    print(f"\n{arguments.workload}: {arguments.runs} runs per set, {seconds:g} s each")
    print(f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in reported + ["python_loop_ms", "sqlite_query_ms"]:
        bound = metrics[name]["bound"] if name in metrics else None
        medians = []
        for number, runs in enumerate(sets):
            if name in metrics:
                values = [run["metrics"][name]["value"] for run in runs]
            else:
                values = [run["reference"][name] for run in runs]
            stats = summary(values)
            medians.append(stats["median"])
            verdict = ""
            if bound is not None and stats["spread"] > bound:
                verdict, agree = "SPREAD", False
            print(f"{name:24} {number + 1:>3} {stats['median']:>12.4f} {stats['q1']:>12.4f} "
                  f"{stats['q3']:>12.4f} {stats['spread']:>7.2%} "
                  f"{'' if bound is None else format(bound, '.0%'):>6} {verdict}")
        if bound is not None and len(medians) == 2:
            better = metrics[name]["better"]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if better == "lower" else -change
            ok = worse <= bound
            agree = agree and ok
            print(f"{'':24} second vs first: {change:+.2%} ({'ok' if ok else 'WORSE'})")
    shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
    if len(shares) > 1:
        agree = False
        print(f"failed shares differ: {sorted(shares)}")
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
