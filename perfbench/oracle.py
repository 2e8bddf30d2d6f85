"""Independent answer checks.

Each check recomputes an answer in plain Python from the inputs the
benchmark generated.  None of them calls the program under test, so a
wrong answer cannot be hidden by the same fault on both sides.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable

Edge = tuple[str, str]


def successors(edges: Iterable[Edge]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = defaultdict(list)
    for source, target in edges:
        out[source].append(target)
    return out


def descendants(succ: dict[str, list[str]], root: str) -> set[str]:
    """Every node reachable from ``root`` by one or more edges (BFS)."""
    seen: set[str] = set()
    queue = deque(succ.get(root, ()))
    while queue:
        current = queue.popleft()
        if current not in seen:
            seen.add(current)
            queue.extend(succ.get(current, ()))
    return seen


def closure(edges: Iterable[Edge]) -> set[Edge]:
    """The transitive closure of an edge set, as ``(ancestor, descendant)``."""
    succ = successors(edges)
    return {(source, target) for source in list(succ) for target in descendants(succ, source)}


def same_generation(
    up: Iterable[Edge], down: Iterable[Edge], flat: Iterable[Edge]
) -> dict[str, set[str]]:
    """Least fixpoint of ``sg = flat ∪ up ∘ sg ∘ down``, semi-naive.

    Returns each first argument mapped to its set of second arguments.
    """
    downs = successors(down)
    # Invert up: a new pair (u, v) yields (x, y) for every x with up(x, u).
    below: dict[str, list[str]] = defaultdict(list)
    for child, parent in up:
        below[parent].append(child)
    relation: dict[str, set[str]] = defaultdict(set)
    delta: list[Edge] = []
    for a, b in flat:
        if b not in relation[a]:
            relation[a].add(b)
            delta.append((a, b))
    while delta:
        fresh: list[Edge] = []
        for u, v in delta:
            for x in below.get(u, ()):
                for y in downs.get(v, ()):
                    if y not in relation[x]:
                        relation[x].add(y)
                        fresh.append((x, y))
        delta = fresh
    return relation


def chain_walk(edges: Iterable[Edge], start: str, steps: int) -> set[str]:
    """Nodes exactly ``steps`` edges from ``start`` (a rule module's answer)."""
    succ = successors(edges)
    frontier = {start}
    for _ in range(steps):
        frontier = {target for source in frontier for target in succ.get(source, ())}
    return frontier


@dataclass
class Read:
    root: str
    version: int
    rows: frozenset[str]


@dataclass
class VersionModel:
    """Per-version model of a served D/KB written by one connection.

    Every insert bumps the D/KB version by one, and the writes of one
    connection commit in the order they were sent, so a read at version
    ``v`` must see exactly the first ``v - base_version`` logged writes.
    """

    base_edges: list[Edge]
    base_version: int
    writes: list[list[Edge]] = field(default_factory=list)  # in commit order

    def failures(self, reads: Iterable[Read]) -> list[Read]:
        """The reads whose rows are not the D/KB of their version."""
        succ = successors(self.base_edges)
        applied = 0
        answers: dict[tuple[str, int], frozenset[str]] = {}
        wrong: list[Read] = []
        for read in sorted(reads, key=lambda r: r.version):
            seen = read.version - self.base_version
            if not 0 <= seen <= len(self.writes):
                wrong.append(read)
                continue
            while applied < seen:
                for source, target in self.writes[applied]:
                    succ[source].append(target)
                applied += 1
            key = (read.root, applied)
            if key not in answers:
                answers[key] = frozenset(descendants(succ, read.root))
            if answers[key] != read.rows:
                wrong.append(read)
        return wrong
