"""dkb-write: stored-D/KB updates and view maintenance beside reads.

In process, one thread.  The D/KB starts from a synthetic stored rule
base (``workloads.rulegen``, compiled rule storage on), a ``parent``
forest with ``ancestor`` materialized as a view, and a few chain relations
the new rule modules read.  Each round:

1. folds a new rule module into the stored D/KB (``define`` +
   ``update_stored_dkb``);
2. inserts a batch of ``parent`` facts (view kept by delta propagation);
3. runs bound ``ancestor`` reads answered from the view, and one bound
   read compiled over the new module's rules;
4. deletes a batch of ``parent`` facts (view kept by DRed);
5. runs more bound view reads.

After every write batch the whole view is compared with the closure of
the current edge set; every read is checked too.
"""

from __future__ import annotations

import time

from repro import FastPathConfig, Testbed, TestbedConfig
from repro.workloads.rulegen import make_rule_base

from common import (
    Outcome,
    compile_layers,
    info,
    mean,
    median,
    peak_rss_mb,
    per_op_ms,
    prepare_timed_phase,
    report_end_to_end,
    report_layers,
    SETUP_BUILDS,
    Setups,
    store_bytes_per_fact,
    typical,
)
from data import ANCESTOR_RULES, DkbWriteShape, chain_relation, dkb_write_rounds, forest_edges
from oracle import chain_walk, closure, descendants, successors
from tracing import SpanRecorder, install_engine_layers

ROUNDS_PER_SECOND = 10.0
QUICK_SHAPE = DkbWriteShape(trees=2, depth=5, base_rules=40, chain_length=8,
                            internal_level=3, view_reads=4,
                            view_read_levels=(1, 2, 3))


def build(shape: DkbWriteShape, edges: list, initial_deletes: list) -> Testbed:
    testbed = Testbed(TestbedConfig(fastpath=FastPathConfig.enabled()))
    rule_base = make_rule_base(shape.base_rules, 5)
    testbed.define("\n".join(str(rule) for rule in rule_base.program.rules))
    testbed.define(ANCESTOR_RULES)
    testbed.define_base_relation("parent", ("TEXT", "TEXT"))
    testbed.load_facts("parent", edges)
    for chain in range(shape.chains):
        testbed.define_base_relation(f"chain{chain}", ("TEXT", "TEXT"))
        testbed.load_facts(f"chain{chain}", chain_relation(shape, chain))
    testbed.update_stored_dkb()
    testbed.materialize("ancestor")
    testbed.delete_facts("parent", initial_deletes)
    return testbed


def run(seed: int, seconds: float, trace: bool, quick: bool) -> Outcome:
    shape = QUICK_SHAPE if quick else DkbWriteShape()
    rounds = 2 if quick else max(1, round(seconds * ROUNDS_PER_SECOND))
    forest = forest_edges("t", shape.trees, shape.depth)
    initial_deletes, plan = dkb_write_rounds(seed, shape, rounds)
    chains = {c: chain_relation(shape, c) for c in range(shape.chains)}

    outcome = Outcome()
    builds = 1 if quick or trace else SETUP_BUILDS
    setups = Setups(lambda: build(shape, forest, initial_deletes), builds, rounds)
    testbed = setups.first()
    edges = set(forest) - set(initial_deletes)
    succ = successors(edges)

    def check_view(after: str) -> None:
        """The whole materialized view against the closure of ``edges``."""
        rows = testbed.query("?- ancestor(X, Y).")
        if not rows.answered_from_view or set(rows.rows) != closure(edges):
            outcome.fail(f"ancestor view wrong after {after}")

    def view_read(root: str) -> None:
        nonlocal round_total
        started = time.perf_counter()
        result = testbed.query(f"?- ancestor('{root}', Y).")
        level = int(root.split("_")[1]).bit_length()
        elapsed = (time.perf_counter() - started) * 1e3
        view_reads.setdefault(level, []).append(elapsed)
        round_total += elapsed
        outcome.attempted += 1
        if not result.answered_from_view:
            outcome.fail(f"ancestor('{root}', Y) was not answered from the view")
        elif {row[0] for row in result.rows} != descendants(succ, root):
            outcome.fail(f"ancestor('{root}', Y) returned {len(result.rows)} rows")

    def timed_write(kind: str, action, *args):
        nonlocal round_total
        if traced:
            testbed.database.statistics.reset()
        started = time.perf_counter()
        value = action(*args)
        elapsed = (time.perf_counter() - started) * 1e3
        (traced_samples if traced else samples)[kind].append(elapsed)
        round_total += elapsed
        outcome.attempted += 1
        if traced:
            layer["statements"].append(testbed.database.statistics.total.statements)
        return value

    samples: dict[str, list[float]] = {
        "rule_update": [], "insert": [], "delete": [], "rule_read": [],
    }
    traced_samples: dict[str, list[float]] = {"rule_update": [], "insert": [], "delete": []}
    view_reads: dict[int, list[float]] = {}  # tree level of the root -> ms
    round_ms: list[float] = []  # untraced rounds: summed operation time
    round_total = 0.0  # the current round's, so far
    layer: dict[str, list] = {
        "statements": [], "update": [], "closure": [], "delta": [], "dred": [],
        "timings": [], "execute": [],
    }
    recorder = SpanRecorder()
    op_ids: list[int] = []
    log_start = len(testbed.maintenance_log)
    traced = False
    prepare_timed_phase()
    loop_started = time.perf_counter()
    for index, step in enumerate(plan):
        setups.between_rounds(index)
        traced = trace and index % 2 == 0
        round_total = 0.0
        if traced:
            install_engine_layers(recorder)
            op_ids.append(index)
            recorder.set_op(index)

        def fold(rules: str):
            testbed.define(rules)
            return testbed.update_stored_dkb()

        update = timed_write("rule_update", fold, step.rules)
        if traced:
            layer["update"].append(update.timings.total * 1e3)
            layer["closure"].append(update.timings.closure * 1e3)

        timed_write("insert", testbed.load_facts, "parent", step.insert)
        edges.update(step.insert)
        succ = successors(edges)
        _check_strategy(outcome, testbed, "delta", layer["delta"] if traced else None)
        check_view(f"insert batch {index}")
        half = len(step.view_reads) // 2
        for root in step.view_reads[:half]:
            view_read(root)

        predicate, constant = step.new_rule_query
        started = time.perf_counter()
        result = testbed.query(f"?- {predicate}('{constant}', Y).", optimize=True)
        elapsed = (time.perf_counter() - started) * 1e3
        samples["rule_read"].append(elapsed)
        round_total += elapsed
        outcome.attempted += 1
        expected = chain_walk(chains[step.module_chain], constant, shape.module_length)
        if {row[0] for row in result.rows} != expected:
            outcome.fail(f"{predicate}('{constant}', Y) returned {len(result.rows)} rows")
        if traced and result.compilation is not None:
            layer["timings"].append(dict(result.compilation.timings.components()))
            layer["execute"].append(result.execution_seconds * 1e3)

        timed_write("delete", testbed.delete_facts, "parent", step.delete)
        edges.difference_update(step.delete)
        succ = successors(edges)
        _check_strategy(outcome, testbed, "dred", layer["dred"] if traced else None)
        check_view(f"delete batch {index}")
        for root in step.view_reads[half:]:
            view_read(root)
        if traced:
            recorder.uninstall()
        else:
            round_ms.append(round_total)

    loop_seconds = time.perf_counter() - loop_started
    fallbacks = sum(1 for event in testbed.maintenance_log[log_start:] if event.fell_back)
    if trace:
        values = {
            "datalog.parse_ms": median(per_op_ms(recorder.spans, "datalog.parse", op_ids)),
            **compile_layers(layer["timings"]),
            "runtime.execute_ms": median(layer["execute"]) if layer["execute"] else 0.0,
            "km.update_ms": median(layer["update"]),
            "km.update_closure_ms": median(layer["closure"]),
            "dbms.statements_per_write": mean(layer["statements"]),
            "maintenance.delta_ms": median(layer["delta"]),
            "maintenance.dred_ms": median(layer["dred"]),
            "maintenance.refresh_fallbacks": float(fallbacks),
        }
        report_layers(outcome, values)
        if samples["insert"]:
            info("tracing_overhead", {
                f"{kind}_p90_ms_{label}": round(typical(source[kind]), 4)
                for kind in ("rule_update", "insert", "delete")
                for label, source in (("untraced", samples), ("traced", traced_samples))
            })
        info("layer_self_ms_per_round", {
            name: round(total * 1e3 / max(1, len(op_ids)), 4)
            for name, total in sorted(recorder.self_seconds().items())
        })
        outcome.spans = recorder
    else:
        info("setup_builds_s", [round(v, 4) for v in setups.seconds])
        reads = {("view", level): ms for level, ms in view_reads.items()}
        reads["rule", 0] = samples["rule_read"]
        facts = len(edges) + sum(len(rows) for rows in chains.values())
        report_end_to_end(
            outcome, setups.median(), reads, round_ms, peak_rss_mb(),
            store_bytes_per_fact(
                lambda name: testbed.database.execute(f"PRAGMA {name}")[0][0], facts
            ),
        )
        info("rounds", {"rounds": len(plan), "refresh_fallbacks": fallbacks,
                        "timed_seconds": round(loop_seconds, 3),
                        **{f"{kind}_p90_ms": round(typical(samples[kind]), 4)
                           for kind in ("rule_update", "insert", "delete")}})
    testbed.close()
    return outcome


def _check_strategy(outcome: Outcome, testbed: Testbed, wanted: str, seconds) -> None:
    """The last maintenance event must be incremental (``wanted``)."""
    event = testbed.maintenance_log[-1]
    if event.strategy != wanted:
        info("maintenance", {"wanted": wanted, "strategy": event.strategy,
                             "reason": event.reason})
    if seconds is not None:
        seconds.append(event.seconds * 1e3)
