"""Shared plumbing of the benchmark: timing statistics, result lines,
process measurements and the machine-speed reference.

Nothing here imports the program under test.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sqlite3
import sys
import time
import traceback
from dataclasses import dataclass, field

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch directory for databases, span files and SQLite temp files.
#: Inside the checkout, ignored by git, emptied per run.
WORK = os.path.join(ROOT, ".perfbench")

#: Tail percentiles tried from the highest down; the tail metric is the
#: highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0)
TAIL_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Median of a non-empty list (mean of the middle pair when even)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile leaving ``TAIL_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * count)
        if count - rank >= TAIL_BEYOND:
            return pct
    return None


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


#: Percentile used for every per-operation timing metric.  This machine
#: runs in two speed modes about 1.6x apart, for seconds at a time; the
#: median of an operation class sits where the two modes meet and moves
#: with their share of the run, while the 90th percentile stays inside
#: the slow mode whenever it holds a tenth of the run or more.
TYPICAL_PCT = 90.0


def typical(values: list[float]) -> float:
    """The per-operation timing statistic of one homogeneous class."""
    return percentile(values, TYPICAL_PCT)


def typical_by_class(by_class: dict[object, list[float]]) -> float:
    """Geometric mean over operation classes of each class's ``typical`` time.

    A class is one operation type at one tree level: queries rooted at one
    level of a full binary tree all do the same work, so each class is
    homogeneous, while a percentile over a mix of levels or types would
    sit on the edge between two of them.
    """
    values = [typical(samples) for samples in by_class.values() if samples]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: list[float]) -> float:
    """The tail statistic: the ``tail_percentile`` of ``values``, or their
    maximum when too few samples leave ten beyond any ladder percentile
    (quick mode only; full runs always have enough)."""
    pct = tail_percentile(len(values))
    return percentile(values, pct if pct is not None else 100.0)


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: object = None  # the SpanRecorder of a traced run

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        """Count one failed operation and keep its first few reasons."""
        self.failed += 1
        if self.failed <= 5:
            self.notes.append(f"FAILED: {message}")

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def info(key: str, payload: object) -> None:
    """Print one informational line (not a metric) before the result."""
    print(f"# {key}: {json.dumps(payload, sort_keys=True)}", flush=True)


def report_end_to_end(outcome: Outcome, setup_s: float,
                      reads: dict[object, list[float]], round_ms: list[float],
                      rss_mb: float, bytes_per_fact: float) -> None:
    """Put every end-to-end metric on ``outcome``; each workload reports
    the same set.

    ``reads`` maps each read class (operation type, tree level) to its
    timings; ``round_ms`` holds, per round, the summed time of the round's
    timed operations.
    """
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("read_p90_ms", typical_by_class(reads), "ms")
    outcome.metric("read_tail_ms", tail([ms for v in reads.values() for ms in v]), "ms")
    outcome.metric("round_p90_ms", typical(round_ms), "ms")
    outcome.metric("peak_rss_mb", rss_mb, "MB")
    outcome.metric("store_bytes_per_fact", bytes_per_fact, "B")


def prepare_timed_phase() -> None:
    """Collect garbage before a timed phase; the collector stays on."""
    gc.collect()


def timed(build):
    """``build()`` after a collection; returns its value and its seconds."""
    prepare_timed_phase()
    started = time.perf_counter()
    value = build()
    return value, time.perf_counter() - started


def seconds_in_child(build) -> float:
    """Seconds ``build()`` takes in a forked child that exits once timed.

    The child's memory never reaches this process's peak resident set,
    and nothing it builds outlives it.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            _, seconds = timed(build)
            os.write(write_end, repr(seconds).encode("ascii"))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reply:
        payload = reply.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError("a set-up build failed in its child process")
    return float(payload)


#: Set-up builds per run; the figure is their median.  A build is one
#: long operation, hit now and then by another tenant rather than by the
#: machine's speed modes: over five runs the median of ten builds spread
#: 3-12%, their 90th percentile 16-34%, and the median of five builds
#: (as first measured) 22-28%.
SETUP_BUILDS = 10


class Setups:
    """Set-up, timed ``count`` times in one run.

    ``first()`` builds the D/KB the run uses.  The other ``count - 1``
    builds are timed by ``again()`` at rounds spread evenly over the timed
    phase, so set-up sees the same mix of fast and slow spells as the rest
    of the run.  ``again`` must leave the run's state and memory as they
    were; by default it builds in a forked child (``seconds_in_child``).
    The figure is the median of all ``count`` builds.
    """

    def __init__(self, build, count: int, rounds: int, again=None) -> None:
        self._build = build
        self._again = again or (lambda: seconds_in_child(build))
        self.seconds: list[float] = []
        self._extra_at = {rounds * (i + 1) // count for i in range(count - 1)}

    def first(self):
        value, seconds = timed(self._build)
        self.seconds.append(seconds)
        return value

    def between_rounds(self, index: int) -> float:
        """Time one extra build before round ``index`` when one is due;
        returns the wall seconds that took (0 when none was due)."""
        if index not in self._extra_at:
            return 0.0
        started = time.perf_counter()
        self.seconds.append(self._again())
        prepare_timed_phase()
        return time.perf_counter() - started

    def median(self) -> float:
        return median(self.seconds)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def store_bytes_per_fact(pragma, facts: int) -> float:
    """Bytes of database pages in use per stored fact.

    ``pragma(name)`` returns the integer value of ``PRAGMA name``.
    """
    in_use = pragma("page_count") - pragma("freelist_count")
    return in_use * pragma("page_size") / facts


def machine_reference() -> dict[str, float]:
    """Machine-speed reference: a fixed Python loop and a fixed SQLite query.

    Printed before and after each workload so a disagreement between two
    sets of runs can be traced to the machine rather than the program.
    """
    started = time.perf_counter()
    total = 0
    for index in range(300_000):
        total += index * index % 7
    loop_ms = (time.perf_counter() - started) * 1000.0
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE e (a INTEGER, b INTEGER)")
        connection.executemany(
            "INSERT INTO e VALUES (?, ?)",
            [(i, 2 * i) for i in range(1, 2048)]
            + [(i, 2 * i + 1) for i in range(1, 2048)],
        )
        connection.execute("CREATE INDEX e_a ON e (a)")
        started = time.perf_counter()
        for _ in range(20):
            connection.execute(
                "WITH RECURSIVE r(n) AS (SELECT 1 UNION "
                "SELECT e.b FROM e JOIN r ON e.a = r.n) SELECT count(*) FROM r"
            ).fetchone()
        sqlite_ms = (time.perf_counter() - started) * 1000.0 / 20
    finally:
        connection.close()
    return {"python_loop_ms": round(loop_ms, 3), "sqlite_query_ms": round(sqlite_ms, 3)}


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def declared_run_seconds() -> int:
    """``run_seconds`` of ``BENCHMARK.json``: the run length the bounds hold for."""
    return _manifest()["run_seconds"]


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics every run must print: the per-layer
    ones of ``BENCHMARK.json`` when traced, else its end-to-end ones."""
    return {m["name"]: m["unit"]
            for m in _manifest()["per_layer" if trace else "end_to_end"]}


def load_program() -> None:
    """Put the program's sources on ``sys.path``; fail when they are absent."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(
            f"perfbench: the program's sources are missing ({source}/repro); "
            "run from the root of a full checkout"
        )
    if source not in sys.path:
        sys.path.insert(0, source)


#: Every per-layer metric, with its unit.  A traced run prints all of them;
#: a layer that does no such work in a workload reads 0 there.
PER_LAYER_UNITS: dict[str, str] = {
    "datalog.parse_ms": "ms",
    "km.compile_ms": "ms",
    "km.extract_ms": "ms",
    "km.readdict_ms": "ms",
    "km.semantic_ms": "ms",
    "km.optimize_ms": "ms",
    "km.eorder_ms": "ms",
    "km.gencompile_ms": "ms",
    "km.update_ms": "ms",
    "km.update_closure_ms": "ms",
    "runtime.execute_ms": "ms",
    "runtime.lfp_iterations": "count",
    "runtime.derived_tuples": "count",
    "runtime.answer_yield": "ratio",
    "dbms.statements_per_query": "count",
    "dbms.sql_ms_per_query": "ms",
    "dbms.temp_tables_per_query": "count",
    "dbms.rows_fetched_per_query": "count",
    "dbms.stmt_cache_hit_rate": "ratio",
    "dbms.statements_per_write": "count",
    "maintenance.delta_ms": "ms",
    "maintenance.dred_ms": "ms",
    "maintenance.refresh_fallbacks": "count",
    "server.decode_ms": "ms",
    "server.encode_ms": "ms",
    "server.threads_per_request": "count",
    "server.request_overhead_ms": "ms",
    "server.cache_hit_rate": "ratio",
    "server.cpu_ms_per_request": "ms",
    "server.read_service_ms": "ms",
    "server.session_wait_ms": "ms",
    "server.write_lock_wait_ms": "ms",
    "server.write_service_ms": "ms",
}


def report_layers(outcome: Outcome, values: dict[str, float]) -> None:
    """Put every per-layer metric on ``outcome`` (0 where not measured)."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise ValueError(f"unknown per-layer metrics: {sorted(unknown)}")
    for name, unit in PER_LAYER_UNITS.items():
        outcome.metric(name, values.get(name, 0.0), unit)


def compile_layers(timings: list[dict[str, float]]) -> dict[str, float]:
    """km.* medians (ms) from per-query CompilationTimings components."""
    if not timings:
        return {}
    values = {"km.compile_ms": median([sum(t.values()) * 1e3 for t in timings])}
    for phase in ("extract", "readdict", "semantic", "optimize", "eorder", "gencompile"):
        values[f"km.{phase}_ms"] = median([t.get(phase, 0.0) * 1e3 for t in timings])
    return values


def per_op_ms(spans, name: str, ops: list[int]) -> list[float]:
    """Per operation: total duration (ms) of the spans called ``name``."""
    totals = {op: 0.0 for op in ops}
    for span in spans:
        if span.name == name and span.op in totals:
            totals[span.op] += span.seconds * 1e3
    return list(totals.values())
