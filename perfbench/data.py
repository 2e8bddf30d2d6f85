"""Seeded inputs and operation sequences for the three workloads.

Every run's operations are generated here, from ``--seed``, before any
timing starts.  The sequence is a fixed number of *rounds*; each round of
a workload has the same make-up (the same count of each operation type at
the same tree levels), and the seed only picks which nodes and in what
order.  In a full binary tree every node of one level has the same
subtree, so two seeds do the same amount of work.

Node names: ``{prefix}{tree}_{heap index}``; node ``i``'s children are
``2i`` and ``2i + 1``, the root is ``1`` and level ``k`` holds heap
indexes ``2**(k-1) .. 2**k - 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[str, str]

ANCESTOR_RULES = (
    "ancestor(X, Y) :- parent(X, Y).\n"
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n"
)
SAME_GENERATION_RULES = (
    "same_generation(X, Y) :- flat(X, Y).\n"
    "same_generation(X, Y) :- up(X, U), same_generation(U, V), down(V, Y).\n"
)


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent deterministic random stream per (seed, purpose)."""
    return random.Random(f"{seed}/{stream}")


def node(prefix: str, tree: int, index: int) -> str:
    return f"{prefix}{tree}_{index}"


def forest_edges(prefix: str, trees: int, depth: int) -> list[Edge]:
    """``trees`` full binary trees of ``depth`` levels, as parent edges."""
    edges: list[Edge] = []
    for tree in range(trees):
        for parent in range(1, 2 ** (depth - 1)):
            for child in (2 * parent, 2 * parent + 1):
                edges.append((node(prefix, tree, parent), node(prefix, tree, child)))
    return edges


def random_node_at(rng: random.Random, prefix: str, trees: int, level: int) -> str:
    """A uniformly chosen node of ``level`` in one of ``trees`` trees."""
    first = 2 ** (level - 1)
    return node(prefix, rng.randrange(trees), first + rng.randrange(first))


# -- recursive-read -----------------------------------------------------------

@dataclass(frozen=True)
class RecursiveReadShape:
    trees: int = 32
    depth: int = 10
    sg_pairs: int = 2  # tree pairs joined by flat at their roots
    sg_depth: int = 8
    # (tree level of the query constant, queries per round)
    closure_levels: tuple[tuple[int, int], ...] = (
        (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 4),
    )
    # Two per level, so that each level's 90th percentile has enough
    # samples beyond it.
    samegen_levels: tuple[tuple[int, int], ...] = ((3, 2), (5, 2), (7, 2))


def samegen_relations(shape: RecursiveReadShape) -> dict[str, list[Edge]]:
    """``up``/``down`` over ``2 * sg_pairs`` full binary trees, ``flat``
    joining the roots of trees ``2j`` and ``2j + 1`` both ways."""
    up: list[Edge] = []
    for tree in range(2 * shape.sg_pairs):
        for child in range(2, 2 ** shape.sg_depth):
            up.append((node("s", tree, child), node("s", tree, child // 2)))
    flat: list[Edge] = []
    for pair in range(shape.sg_pairs):
        left, right = node("s", 2 * pair, 1), node("s", 2 * pair + 1, 1)
        flat += [(left, right), (right, left)]
    return {"up": up, "down": [(b, a) for a, b in up], "flat": flat}


def recursive_read_rounds(
    seed: int, shape: RecursiveReadShape, rounds: int
) -> list[list[tuple[str, str]]]:
    """``rounds`` rounds of ``("closure" | "samegen", constant)`` queries."""
    rng = rng_for(seed, "recursive-read")
    plan = []
    for _ in range(rounds):
        ops = [
            ("closure", random_node_at(rng, "t", shape.trees, level))
            for level, count in shape.closure_levels
            for _ in range(count)
        ]
        ops += [
            ("samegen", random_node_at(rng, "s", 2 * shape.sg_pairs, level))
            for level, count in shape.samegen_levels
            for _ in range(count)
        ]
        rng.shuffle(ops)
        plan.append(ops)
    return plan


# -- dkb-write ----------------------------------------------------------------

@dataclass(frozen=True)
class DkbWriteShape:
    trees: int = 4
    depth: int = 8
    base_rules: int = 1000  # synthetic stored rule base (workloads.rulegen)
    chains: int = 4  # shared base relations the new rule modules read
    chain_length: int = 24
    module_length: int = 3  # derived predicates per new rule module
    new_chains_per_batch: int = 2  # each: two new parent edges
    internal_per_batch: int = 2  # existing edges deleted, re-inserted next round
    internal_level: int = 6  # level of the parent end of those edges
    view_reads: int = 8
    view_read_levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class WriteRound:
    module: int
    module_chain: int
    rules: str
    new_rule_query: tuple[str, str]  # (root predicate, constant)
    insert: list[Edge]
    delete: list[Edge]
    view_reads: list[str]


def chain_relation(shape: DkbWriteShape, chain: int) -> list[Edge]:
    names = [f"c{chain}_{i}" for i in range(shape.chain_length)]
    return list(zip(names, names[1:]))


def module_rules(module: int, chain: int, length: int) -> str:
    """A chain module ``pb{module}_0 .. _{length-1}`` over ``chain{chain}``:
    ``pb_0(X, Y)`` holds when ``Y`` is ``length`` chain steps from ``X``."""
    base = f"chain{chain}"
    lines = []
    for index in range(length - 1):
        head, below = f"pb{module}_{index}", f"pb{module}_{index + 1}"
        if index % 2 == 0:
            lines.append(f"{head}(X, Y) :- {below}(X, Z), {base}(Z, Y).")
        else:
            lines.append(f"{head}(X, Y) :- {base}(X, Z), {below}(Z, Y).")
    lines.append(f"pb{module}_{length - 1}(X, Y) :- {base}(X, Y).")
    return "\n".join(lines)


def internal_edge(rng: random.Random, shape: DkbWriteShape) -> Edge:
    parent = random_node_at(rng, "t", shape.trees, shape.internal_level)
    tree, index = parent[1:].split("_")
    child = node("t", int(tree), 2 * int(index) + rng.randrange(2))
    return parent, child


def dkb_write_rounds(
    seed: int, shape: DkbWriteShape, rounds: int
) -> tuple[list[Edge], list[WriteRound]]:
    """The edges deleted during set-up, then ``rounds`` write rounds.

    Round ``r`` inserts fresh two-edge chains plus the internal edges
    round ``r - 1`` deleted, and deletes the same fresh chains plus new
    internal edges: every insert and delete batch has the same make-up.
    """
    rng = rng_for(seed, "dkb-write")

    def internal_batch() -> list[Edge]:
        batch: list[Edge] = []
        while len(batch) < shape.internal_per_batch:
            edge = internal_edge(rng, shape)
            if edge not in batch:
                batch.append(edge)
        return batch

    pending = internal_batch()
    initial_deletes = list(pending)
    plan = []
    for index in range(rounds):
        fresh: list[Edge] = []
        for chain in range(shape.new_chains_per_batch):
            level = rng.randrange(2, shape.depth + 1)
            anchor = random_node_at(rng, "t", shape.trees, level)
            first, second = f"n{index}_{chain}a", f"n{index}_{chain}b"
            fresh += [(anchor, first), (first, second)]
        deletes = internal_batch()
        chain = rng.randrange(shape.chains)
        plan.append(
            WriteRound(
                module=index,
                module_chain=chain,
                rules=module_rules(index, chain, shape.module_length),
                new_rule_query=(
                    f"pb{index}_0",
                    f"c{chain}_{rng.randrange(shape.chain_length - shape.module_length)}",
                ),
                insert=fresh + pending,
                delete=fresh + deletes,
                view_reads=[
                    random_node_at(
                        rng, "t", shape.trees,
                        shape.view_read_levels[i % len(shape.view_read_levels)],
                    )
                    for i in range(shape.view_reads)
                ],
            )
        )
        pending = deletes
    return initial_deletes, plan


# -- served-mix ---------------------------------------------------------------

@dataclass(frozen=True)
class ServedMixShape:
    trees: int = 8
    depth: int = 9
    hot_levels: tuple[int, ...] = (3, 4, 5, 6)
    hot_reads: int = 15  # per round
    cold_levels: tuple[int, ...] = (4, 5, 6, 7, 8, 9)
    cold_reads: int = 4  # per round
    inserts: int = 1  # per round: a two-edge chain


def hot_roots(seed: int, shape: ServedMixShape) -> list[str]:
    rng = rng_for(seed, "served-mix/hot")
    return [random_node_at(rng, "t", shape.trees, level) for level in shape.hot_levels]


def served_mix_rounds(
    seed: int, shape: ServedMixShape, rounds: int
) -> list[list[tuple[str, object]]]:
    """``rounds`` rounds of ``("read", root)`` / ``("insert", edges)``."""
    rng = rng_for(seed, "served-mix/ops")
    hot = hot_roots(seed, shape)
    plan = []
    cold_cycle = 0
    for index in range(rounds):
        ops: list[tuple[str, object]] = [
            ("read", hot[i % len(hot)]) for i in range(shape.hot_reads)
        ]
        for _ in range(shape.cold_reads):
            level = shape.cold_levels[cold_cycle % len(shape.cold_levels)]
            cold_cycle += 1
            ops.append(("read", random_node_at(rng, "t", shape.trees, level)))
        for chain in range(shape.inserts):
            anchor = random_node_at(rng, "t", shape.trees, rng.randrange(2, shape.depth + 1))
            first = f"w{index}_{chain}a"
            ops.append(("insert", [(anchor, first), (first, f"w{index}_{chain}b")]))
        rng.shuffle(ops)
        plan.append(ops)
    return plan
