"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload recursive-read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick          # every workload, tiny, all checks

With ``--trace 0`` the result carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric, and the span file is
written under ``.perfbench/``.  Lines before the result that start with
``#`` are information (machine-speed reference, SQL floor, tracing
overhead), not metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)
# Keep SQLite's and Python's temporary files inside the checkout; set
# before sqlite3 is first imported, which may read them once.
os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = os.path.join(
    os.path.dirname(HERE), ".perfbench"
)

from common import (  # noqa: E402
    WORK,
    declared_metrics,
    declared_run_seconds,
    info,
    load_program,
    machine_reference,
)

WORKLOADS = ("recursive-read", "dkb-write", "served-mix")


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    if name == "recursive-read":
        import recursive_read as module
    elif name == "dkb-write":
        import dkb_write as module
    else:
        import served_mix as module
    return module.run(seed, seconds, trace, quick)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="run every workload (or --workload) on tiny inputs with all checks",
    )
    arguments = parser.parse_args(argv)
    if arguments.workload is None and not arguments.quick:
        parser.error("--workload is required unless --quick is given")
    load_program()
    # The whole run, the server process and every thread included, runs on
    # one CPU.  Across two CPUs a request handed from one process or
    # thread to another often wakes an idle virtual CPU first, and that
    # wake-up time, not the program, made served timings swing 2x between
    # runs; on one CPU the next runnable thread starts at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds = arguments.seconds or declared_run_seconds()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    status = 0
    for name in names:
        info("reference_before", machine_reference())
        outcome = run_workload(
            name, arguments.seed, seconds, bool(arguments.trace), arguments.quick
        )
        info("reference_after", machine_reference())
        for note in outcome.notes:
            print(f"# {name}: {note}")
        if outcome.spans is not None:
            path = os.path.join(WORK, f"spans-{name}-{arguments.seed}.json")
            outcome.spans.write(path)
            info("span_file", os.path.relpath(path))
        if outcome.failed:
            status = 1 if arguments.quick else status
        reported = {key: unit for key, (_, unit) in outcome.metrics.items()}
        if reported != declared_metrics(bool(arguments.trace)):
            raise SystemExit(f"perfbench: {name} reported {reported}, "
                             "not the metrics BENCHMARK.json declares")
        print(outcome.result_line(), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
