"""recursive-read: bound recursive queries compiled and evaluated in process.

One thread drives ``Testbed.query`` with the query server's reader
configuration (fast path on) and magic sets on (``optimize=True``).  Each
round holds bound ``ancestor`` queries at fixed counts per tree level
(mostly deep, low-selectivity roots; a few whole-tree roots) and bound
``same_generation`` queries, two at each of three levels.  Every answer
is checked against a BFS closure or a Python same-generation fixpoint.
"""

from __future__ import annotations

import sqlite3
import time

from repro import FastPathConfig, Testbed, TestbedConfig

from common import (
    Outcome,
    compile_layers,
    info,
    mean,
    median,
    peak_rss_mb,
    per_op_ms,
    prepare_timed_phase,
    SETUP_BUILDS,
    Setups,
    report_end_to_end,
    report_layers,
    store_bytes_per_fact,
    typical_by_class,
)
from data import (
    ANCESTOR_RULES,
    SAME_GENERATION_RULES,
    RecursiveReadShape,
    forest_edges,
    recursive_read_rounds,
    samegen_relations,
)
from oracle import descendants, same_generation, successors
from tracing import SpanRecorder, install_engine_layers

#: Rounds per second of --seconds; one round takes about this long here.
ROUNDS_PER_SECOND = 2.0
QUICK_SHAPE = RecursiveReadShape(trees=2, depth=6, sg_depth=5,
                                 closure_levels=((1, 1), (3, 1), (5, 1)),
                                 samegen_levels=((2, 1), (4, 1)))


def build(shape: RecursiveReadShape, relations: dict[str, list]):
    testbed = Testbed(TestbedConfig(fastpath=FastPathConfig.enabled()))
    testbed.define(ANCESTOR_RULES + SAME_GENERATION_RULES)
    for name, rows in relations.items():
        testbed.define_base_relation(name, ("TEXT", "TEXT"))
        testbed.load_facts(name, rows)
    testbed.update_stored_dkb()
    return testbed


def sql_floor_ms(edges: list, roots: list[str]) -> float:
    """The SQL floor: one hand-written recursive SQLite query per root,
    summarised like the closure queries of ``read_p90_ms``."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE parent (a TEXT, b TEXT)")
        connection.executemany("INSERT INTO parent VALUES (?, ?)", edges)
        connection.execute("CREATE INDEX parent_a ON parent (a)")
        query = (
            "WITH RECURSIVE r(n) AS (SELECT b FROM parent WHERE a = ? "
            "UNION SELECT parent.b FROM parent JOIN r ON parent.a = r.n) "
            "SELECT n FROM r"
        )
        samples: dict[int, list[float]] = {}
        for root in roots:
            started = time.perf_counter()
            connection.execute(query, (root,)).fetchall()
            level = int(root.split("_")[1]).bit_length()
            samples.setdefault(level, []).append((time.perf_counter() - started) * 1e3)
        return typical_by_class(samples)
    finally:
        connection.close()


def run(seed: int, seconds: float, trace: bool, quick: bool) -> Outcome:
    shape = QUICK_SHAPE if quick else RecursiveReadShape()
    rounds = 1 if quick else max(1, round(seconds * ROUNDS_PER_SECOND))
    edges = forest_edges("t", shape.trees, shape.depth)
    relations = {"parent": edges, **samegen_relations(shape)}
    facts = sum(len(rows) for rows in relations.values())
    plan = recursive_read_rounds(seed, shape, rounds)

    # The expected answers, computed before timing starts.
    succ = successors(edges)
    samegen = same_generation(relations["up"], relations["down"], relations["flat"])
    expected: dict[tuple[str, str], frozenset] = {}
    for ops in plan:
        for kind, constant in ops:
            if (kind, constant) not in expected:
                rows = descendants(succ, constant) if kind == "closure" else samegen.get(constant, set())
                expected[kind, constant] = frozenset(rows)

    outcome = Outcome()
    builds = 1 if quick or trace else SETUP_BUILDS
    setups = Setups(lambda: build(shape, relations), builds, rounds)
    testbed = setups.first()
    recorder = SpanRecorder()
    # (kind, traced) -> tree level of the constant -> milliseconds
    samples: dict[tuple[str, bool], dict[int, list[float]]] = {}
    layer_rows: list[dict] = []
    op_ids: list[int] = []
    round_ms: list[float] = []  # untraced rounds: summed query time
    prepare_timed_phase()
    loop_started = time.perf_counter()
    for index, ops in enumerate(plan):
        setups.between_rounds(index)
        traced = trace and index % 2 == 0
        if traced:
            install_engine_layers(recorder)
        round_total = 0.0
        for kind, constant in ops:
            text = f"?- {'ancestor' if kind == 'closure' else 'same_generation'}('{constant}', Y)."
            if traced:
                op = len(op_ids)
                op_ids.append(op)
                recorder.set_op(op)
                testbed.database.statistics.reset()
            started = time.perf_counter()
            result = testbed.query(text, optimize=True)
            elapsed = time.perf_counter() - started
            round_total += elapsed * 1e3
            outcome.attempted += 1
            level = int(constant.split("_")[1]).bit_length()
            samples.setdefault((kind, traced), {}).setdefault(level, []).append(elapsed * 1e3)
            if frozenset(row[0] for row in result.rows) != expected[kind, constant]:
                outcome.fail(f"{text} returned {len(result.rows)} rows")
            if traced:
                layer_rows.append(_layer_row(kind, result, testbed.database.statistics.total))
        if traced:
            recorder.uninstall()
        else:
            round_ms.append(round_total)

    info("rounds", {"rounds": len(plan),
                    "timed_seconds": round(time.perf_counter() - loop_started, 3)})
    if trace:
        _trace_report(outcome, recorder, samples, layer_rows, op_ids, plan, edges)
    else:
        info("setup_builds_s", [round(v, 4) for v in setups.seconds])
        reads = {
            (kind, level): ms
            for kind in ("closure", "samegen")
            for level, ms in samples[(kind, False)].items()
        }
        report_end_to_end(
            outcome, setups.median(), reads, round_ms, peak_rss_mb(),
            store_bytes_per_fact(
                lambda name: testbed.database.execute(f"PRAGMA {name}")[0][0], facts
            ),
        )
    testbed.close()
    return outcome


def _layer_row(kind: str, result, stats) -> dict:
    execution = result.execution
    return {
        "kind": kind,
        "timings": dict(result.compilation.timings.components()),
        "execute_ms": result.execution_seconds * 1e3,
        "iterations": execution.total_iterations,
        "derived": sum(execution.tuples_by_predicate.values()),
        "rows": len(result.rows),
        "statements": stats.statements,
        "sql_ms": stats.seconds * 1e3,
        "creates": stats.by_kind.get("CREATE", 0),
        "fetched": stats.rows_fetched,
        "hits": stats.cache_hits,
        "misses": stats.cache_misses,
    }


def _trace_report(outcome, recorder, samples, rows, op_ids, plan, edges) -> None:
    closure_rows = [r for r in rows if r["kind"] == "closure"]
    hits = sum(r["hits"] for r in rows)
    lookups = hits + sum(r["misses"] for r in rows)
    values = {
        "datalog.parse_ms": median(per_op_ms(recorder.spans, "datalog.parse", op_ids)),
        **compile_layers([r["timings"] for r in rows]),
        "runtime.execute_ms": median([r["execute_ms"] for r in rows]),
        "runtime.lfp_iterations": mean([r["iterations"] for r in rows]),
        "runtime.derived_tuples": mean([r["derived"] for r in rows]),
        "runtime.answer_yield": (
            sum(r["rows"] for r in closure_rows) / max(1, sum(r["derived"] for r in closure_rows))
        ),
        "dbms.statements_per_query": mean([r["statements"] for r in rows]),
        "dbms.sql_ms_per_query": median([r["sql_ms"] for r in rows]),
        "dbms.temp_tables_per_query": mean([r["creates"] for r in rows]),
        "dbms.rows_fetched_per_query": mean([r["fetched"] for r in rows]),
        "dbms.stmt_cache_hit_rate": hits / lookups if lookups else 0.0,
    }
    report_layers(outcome, values)
    untraced = (
        typical_by_class(samples[("closure", False)]) if ("closure", False) in samples else None
    )
    traced = typical_by_class(samples[("closure", True)])
    roots = [constant for ops in plan for kind, constant in ops if kind == "closure"]
    info("sql_floor", {
        "sql_floor_ms": round(sql_floor_ms(edges, roots), 4),
        "closure_p90_ms": round(untraced, 4) if untraced is not None else None,
    })
    if untraced is not None:
        info("tracing_overhead", {
            "closure_p90_ms_traced": round(traced, 4),
            "closure_p90_ms_untraced": round(untraced, 4),
            "overhead": round(traced / untraced - 1.0, 4),
        })
    info("layer_self_ms_per_op", {
        name: round(total * 1e3 / max(1, len(op_ids)), 4)
        for name, total in sorted(recorder.self_seconds().items())
    })
    outcome.spans = recorder
