"""served-mix: the query server in its own process, driven in a closed loop.

The server runs with its shipped defaults (``python -m repro serve``) on
a file database.  One client connection, driven from the calling thread,
sends the pre-generated operations back to back with no think time.  Per
round: reads of a hot set of four roots (which the result cache serves
until the next write), reads of cold roots (new each time), and one fact
insert, which bumps the D/KB version and so invalidates cached answers.
After the run every read is checked against a per-version model built
from the benchmark's own log of writes.

One connection, not two: with two, a cached hit waited for the server's
interpreter lock while the other connection compiled a miss, and whenever
another tenant took one of the two CPUs every timing of the run doubled
(measured: 10-run spreads of 55-145%).
"""

from __future__ import annotations

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.server.client import DkbClient, ServerError

from common import (
    SETUP_BUILDS,
    WORK,
    Outcome,
    Setups,
    compile_layers,
    cpu_seconds,
    info,
    mean,
    median,
    peak_rss_mb,
    prepare_timed_phase,
    report_end_to_end,
    report_layers,
    store_bytes_per_fact,
    timed,
    typical,
    typical_by_class,
)
from data import ANCESTOR_RULES, ServedMixShape, forest_edges, served_mix_rounds
from oracle import Read, VersionModel
from tracing import Span, SpanRecorder

ROUNDS_PER_SECOND = 10.0
QUICK_SHAPE = ServedMixShape(trees=2, depth=6, hot_levels=(2, 3), hot_reads=6,
                             cold_levels=(3, 4, 5), cold_reads=3)
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server_main.py")
SERVING = re.compile(r"serving .* on ([\d.]+):(\d+)")


class Server:
    """One server process on a fresh database file."""

    def __init__(self, name: str, spans: bool) -> None:
        self.db = os.path.join(WORK, f"{name}.db")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(self.db + suffix):
                os.remove(self.db + suffix)
        self.spans_path = os.path.join(WORK, f"{name}-server-spans.json") if spans else None
        command = [sys.executable, "-u", LAUNCHER, self.db]
        if self.spans_path:
            command += ["--spans", self.spans_path]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = SERVING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))

    def client(self) -> DkbClient:
        return DkbClient(*self.address, timeout=60.0)

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()



def seed_server(name: str, edges: list, spans: bool) -> tuple[Server, int]:
    """Start a server and load the ancestor D/KB; returns it and its version."""
    server = Server(name, spans)
    try:
        with server.client() as client:
            client.define(ANCESTOR_RULES)
            version = client.insert("parent", [list(e) for e in edges])["version"]
    except BaseException:
        server.stop()
        raise
    return server, version


@dataclass
class Record:
    kind: str  # "read" | "write"
    started: float
    ended: float
    cached: bool = False
    failed: bool = False
    level: int = 0  # tree level of a read's root
    round: int = 0  # index of the plan round it belongs to


@dataclass
class ClientLog:
    records: list[Record] = field(default_factory=list)
    reads: list[Read] = field(default_factory=list)
    writes: list[list] = field(default_factory=list)  # edges, in commit order
    errors: list[str] = field(default_factory=list)


def drive(client: DkbClient, rounds: list[list], log: ClientLog, version: int,
          setups: Setups | None) -> float:
    """Send each operation after the last reply; returns the seconds spent
    in extra set-ups between rounds, while the connection was idle."""
    paused = 0.0
    for index, ops in enumerate(rounds):
        if setups is not None:
            paused += setups.between_rounds(index)
        for kind, payload in ops:
            record = "read" if kind == "read" else "write"
            started = time.perf_counter()
            try:
                if kind == "read":
                    reply = client.query(f"?- ancestor('{payload}', Y).", optimize=True)
                else:
                    reply = client.insert("parent", [list(e) for e in payload])
            except (ServerError, ConnectionError, OSError) as error:
                ended = time.perf_counter()
                log.records.append(Record(record, started, ended, failed=True, round=index))
                log.errors.append(f"{kind} {payload}: {error}")
                continue
            ended = time.perf_counter()
            if kind == "read":
                level = int(payload.split("_")[1]).bit_length()
                log.records.append(Record(record, started, ended, bool(reply["cached"]),
                                          level=level, round=index))
                log.reads.append(Read(payload, reply["version"],
                                      frozenset(row[0] for row in reply["rows"])))
                continue
            log.writes.append(list(payload))
            version += 1
            if reply["version"] != version:
                log.records.append(Record(record, started, ended, failed=True, round=index))
                log.errors.append(f"insert {payload}: reply version {reply['version']}, "
                                  f"expected {version}")
            else:
                log.records.append(Record(record, started, ended, round=index))
    return paused


def measure(server: Server, plan: list[list], base_edges: list, base_version: int,
            setups: Setups | None = None) -> dict:
    """Drive the plan over one connection; returns the log and the window."""
    log = ClientLog()
    with server.client() as client:
        before = client.stats()["stats"]["pool"].get("cache", {})
        cpu_before = cpu_seconds(server.process.pid)
        prepare_timed_phase()
        started = time.perf_counter()
        paused = drive(client, plan, log, base_version, setups)
        ended = time.perf_counter()
        cpu_used = cpu_seconds(server.process.pid) - cpu_before
        after = client.stats()["stats"]["pool"].get("cache", {})
    model = VersionModel(base_edges, base_version, log.writes)
    return {
        "log": log,
        "window": (started, ended),
        "busy_seconds": ended - started - paused,
        "cpu_seconds": cpu_used,
        "cache_before": before,
        "cache_after": after,
        "wrong": model.failures(log.reads),
    }


def _extra_setup(edges: list) -> float:
    """Start and seed a second server, timed; then stop it."""
    (server, _), seconds = timed(lambda: seed_server("setup", edges, False))
    server.stop()
    return seconds


def run(seed: int, seconds: float, trace: bool, quick: bool) -> Outcome:
    shape = QUICK_SHAPE if quick else ServedMixShape()
    rounds = 2 if quick else max(1, round(seconds * ROUNDS_PER_SECOND))
    edges = forest_edges("t", shape.trees, shape.depth)
    plan = served_mix_rounds(seed, shape, rounds)
    outcome = Outcome()
    if trace:
        # The first half runs on an untraced server, the second half on a
        # traced one: the difference is the tracing overhead.
        half = max(1, rounds // 2)
        untraced = _phase(outcome, "untraced", edges, plan[:half], False)
        traced = _phase(outcome, "traced", edges, plan[half:] or plan, True)
        _trace_report(outcome, untraced, traced)
        return outcome
    # The extra set-ups run between rounds, while the measured server is
    # idle: a server started during requests would take CPU from it.
    setups = Setups(lambda: seed_server("served", edges, False),
                    1 if quick else SETUP_BUILDS, rounds, lambda: _extra_setup(edges))
    server, version = setups.first()
    try:
        result = _measure_phase(outcome, server, plan, edges, version, setups)
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    log = result["log"]
    records = [r for r in log.records if not r.failed]
    reads = [r for r in records if r.kind == "read"]
    latency = lambda rs: [(r.ended - r.started) * 1e3 for r in rs]  # noqa: E731
    by_class: dict[tuple[bool, int], list[float]] = {}
    round_ms = [0.0] * len(plan)
    for record in records:
        round_ms[record.round] += (record.ended - record.started) * 1e3
        if record.kind == "read":
            by_class.setdefault((record.cached, record.level), []).append(
                (record.ended - record.started) * 1e3
            )
    info("setup_builds_s", [round(v, 4) for v in setups.seconds])
    info("served_timings", {
        "hit_read_p90_ms": round(typical(latency([r for r in reads if r.cached])), 4),
        "miss_read_p90_ms": round(typical_by_class(
            {key: ms for key, ms in by_class.items() if not key[0]}), 4),
        "write_p90_ms": round(typical(latency([r for r in records if r.kind == "write"])), 4),
        "throughput_ops": round(len(records) / result["busy_seconds"], 3),
    })
    inserted = sum(len(write) for write in log.writes)
    connection = sqlite3.connect(f"file:{server.db}?mode=ro", uri=True)
    try:
        bytes_per_fact = store_bytes_per_fact(
            lambda name: connection.execute(f"PRAGMA {name}").fetchone()[0],
            len(edges) + inserted,
        )
    finally:
        connection.close()
    report_end_to_end(outcome, setups.median(), by_class, round_ms, rss, bytes_per_fact)
    info("served", {
        "hits": sum(1 for r in reads if r.cached),
        "misses": sum(1 for r in reads if not r.cached),
        "writes": sum(1 for r in records if r.kind == "write"),
        "timed_seconds": round(result["busy_seconds"], 3),
    })
    return outcome


def _measure_phase(outcome: Outcome, server: Server, plan, edges, version,
                   setups: Setups | None = None) -> dict:
    result = measure(server, plan, edges, version, setups)
    outcome.attempted += len(result["log"].records)
    for error in result["log"].errors:
        outcome.fail(error)
    for read in result["wrong"]:
        outcome.fail(f"ancestor('{read.root}', Y) at version {read.version}: "
                     f"{len(read.rows)} rows, not the D/KB of that version")
    return result


def _phase(outcome: Outcome, name: str, edges, plan, spans: bool) -> dict:
    server, version = seed_server(name, edges, spans)
    try:
        result = _measure_phase(outcome, server, plan, edges, version)
    finally:
        server.stop()
    result["spans_path"] = server.spans_path
    return result


def _load_spans(path: str, window: tuple[float, float]) -> SpanRecorder:
    recorder = SpanRecorder()
    with open(path, encoding="utf-8") as source:
        for raw in json.load(source):
            span = Span(raw["id"], raw["parent"], raw["op"], raw["name"],
                        raw["start"], raw["end"], raw.get("attrs", {}))
            if window[0] <= span.start <= window[1]:
                recorder.spans.append(span)
    return recorder


def _trace_report(outcome: Outcome, untraced: dict, traced: dict) -> None:
    recorder = _load_spans(traced["spans_path"], traced["window"])
    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    requests = [s for s in spans if s.name == "server.request"]

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def ms(items) -> list[float]:
        return [s.seconds * 1e3 for s in items]

    def request_of(span: Span) -> Span | None:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span if span.name == "server.request" else None

    service = {}
    for span in named("server.read_service"):
        root = request_of(span)
        if root is not None:
            service[root.id] = span.seconds
    overhead = [(r.seconds - service[r.id]) * 1e3 for r in requests if r.id in service]
    lock_wait: dict[int, float] = {}
    for span in named("server.write_lock_wait"):
        parent = by_id.get(span.parent)
        if parent is not None and parent.name == "server.write_service":
            lock_wait[parent.id] = lock_wait.get(parent.id, 0.0) + span.seconds
    before, after = traced["cache_before"], traced["cache_after"]
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    queries = [s.attrs for s in named("km.query") if "timings" in s.attrs]
    compiled = [attrs["timings"] for attrs in queries]
    values = {
        "datalog.parse_ms": median(ms(named("datalog.parse"))) if named("datalog.parse") else 0.0,
        **compile_layers(compiled),
        "runtime.execute_ms": median(ms(named("runtime.execute"))) if named("runtime.execute") else 0.0,
        "runtime.lfp_iterations": mean([attrs["iterations"] for attrs in queries]),
        "runtime.derived_tuples": mean([attrs["derived"] for attrs in queries]),
        "server.decode_ms": median(ms(named("server.decode"))),
        "server.encode_ms": median(ms(named("server.encode"))),
        "server.threads_per_request": len(named("server.thread_start")) / max(1, len(requests)),
        "server.request_overhead_ms": median(overhead),
        "server.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "server.cpu_ms_per_request": traced["cpu_seconds"] * 1e3 / max(1, len(requests)),
        "server.read_service_ms": median(ms(named("server.read_service"))),
        "server.session_wait_ms": mean(ms(named("server.session_wait"))),
        "server.write_lock_wait_ms": median([w * 1e3 for w in lock_wait.values()]) if lock_wait else 0.0,
        "server.write_service_ms": median([
            (s.seconds - lock_wait.get(s.id, 0.0)) * 1e3 for s in named("server.write_service")
        ]) if named("server.write_service") else 0.0,
    }
    report_layers(outcome, values)

    def reads(result: dict) -> list[Record]:
        return [r for r in result["log"].records if r.kind == "read" and not r.failed]

    def hit_p90(result: dict) -> float:
        return typical([(r.ended - r.started) * 1e3 for r in reads(result) if r.cached])

    def miss_p90(result: dict) -> float:
        by_level: dict[int, list[float]] = {}
        for r in reads(result):
            if not r.cached:
                by_level.setdefault(r.level, []).append((r.ended - r.started) * 1e3)
        return typical_by_class(by_level)

    info("tracing_overhead", {
        f"{name}_{label}": round(statistic(result), 4)
        for name, statistic in (("hit_read_p90_ms", hit_p90), ("miss_read_p90_ms", miss_p90))
        for label, result in (("untraced", untraced), ("traced", traced))
    })
    info("layer_self_ms_per_request", {
        name: round(total * 1e3 / max(1, len(requests)), 4)
        for name, total in sorted(recorder.self_seconds().items())
    })
    outcome.spans = recorder
