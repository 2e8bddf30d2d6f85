"""Spans recorded from outside the program, around each layer's calls.

``SpanRecorder.wrap`` replaces one function or method of the program with
a wrapper that records a span (name, start, end, parent, operation id)
and, optionally, attributes taken from the call's result.  Spans live in
memory and are written out once, when the run ends.  ``uninstall``
restores every original, so a traced and an untraced round can alternate
in one process.

A layer's *self time* is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware in-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- operations and spans ---------------------------------------------

    def set_op(self, op: Optional[int]) -> None:
        """Tag the calling thread's following spans with operation ``op``."""
        self._local.op = op

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            getattr(self._local, "op", None),
            name,
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        describe: Optional[Callable[[Any], dict[str, Any]]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute``; ``describe(result)`` adds attributes."""
        original = getattr(owner, attribute)
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
                if describe is not None:
                    span.attrs.update(describe(result))
                return result
            finally:
                recorder.end(span)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped original back (newest first)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.seconds - covered[span.id]
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                [
                    {
                        "id": s.id,
                        "parent": s.parent,
                        "op": s.op,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        **({"attrs": s.attrs} if s.attrs else {}),
                    }
                    for s in self.spans
                ],
                out,
            )


def query_attrs(result: Any) -> dict[str, Any]:
    """CompilationTimings and LFP counters of a compiled QueryResult."""
    if getattr(result, "compilation", None) is None:
        return {}
    return {
        "timings": dict(result.compilation.timings.components()),
        "iterations": result.execution.total_iterations,
        "derived": sum(result.execution.tuples_by_predicate.values()),
    }


def install_engine_layers(recorder: SpanRecorder) -> None:
    """Wrap the public calls of datalog, km, runtime, dbms and maintenance."""
    from repro.dbms import engine
    from repro.km import compiler, session
    from repro.maintenance import dred
    from repro.runtime import program

    recorder.wrap(session, "parse_query", "datalog.parse")
    recorder.wrap(session, "parse_program", "datalog.parse")
    recorder.wrap(compiler, "parse_query", "datalog.parse")
    recorder.wrap(compiler.QueryCompiler, "compile", "km.compile")
    recorder.wrap(session, "update_stored_dkb", "km.update")
    recorder.wrap(program.QueryProgram, "execute", "runtime.execute")
    recorder.wrap(engine.Database, "execute", "dbms.execute")
    recorder.wrap(engine.Database, "executemany", "dbms.execute")
    recorder.wrap(session, "propagate_inserts", "maintenance.delta")
    recorder.wrap(dred.DeleteMaintenance, "overdelete", "maintenance.dred")
    recorder.wrap(dred.DeleteMaintenance, "apply_and_rederive", "maintenance.dred")
    recorder.wrap(session, "full_refresh", "maintenance.refresh")
