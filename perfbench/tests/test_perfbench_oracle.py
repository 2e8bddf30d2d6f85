"""The independent answer checks, on small hand-worked graphs.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from data import (  # noqa: E402
    DkbWriteShape,
    RecursiveReadShape,
    ServedMixShape,
    dkb_write_rounds,
    forest_edges,
    module_rules,
    recursive_read_rounds,
    served_mix_rounds,
)
from oracle import (  # noqa: E402
    Read,
    VersionModel,
    chain_walk,
    closure,
    descendants,
    same_generation,
    successors,
)


def test_descendants_of_a_small_dag():
    succ = successors([("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")])
    assert descendants(succ, "a") == {"b", "c", "d"}
    assert descendants(succ, "d") == {"c"}
    assert descendants(succ, "c") == set()


def test_descendants_on_a_cycle_include_the_root():
    succ = successors([("a", "b"), ("b", "a")])
    assert descendants(succ, "a") == {"a", "b"}


def test_closure_of_a_chain():
    assert closure([("a", "b"), ("b", "c")]) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_same_generation_over_two_small_trees():
    # Tree 1: a has children b, c.  Tree 2: d has children e, f.  flat(a, d).
    up = [("b", "a"), ("c", "a"), ("e", "d"), ("f", "d")]
    down = [(parent, child) for child, parent in up]
    relation = same_generation(up, down, [("a", "d")])
    assert relation["a"] == {"d"}
    assert relation["b"] == {"e", "f"}
    assert relation["c"] == {"e", "f"}
    assert not relation.get("e")  # flat is one-way here


def test_same_generation_two_levels_down():
    # r - x - y under one root, s - u - v under the other, flat(r, s).
    up = [("x", "r"), ("y", "x"), ("u", "s"), ("v", "u")]
    down = [(parent, child) for child, parent in up]
    relation = same_generation(up, down, [("r", "s")])
    assert relation["y"] == {"v"}
    assert relation["x"] == {"u"}


def test_chain_walk_counts_exact_steps():
    chain = [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]
    assert chain_walk(chain, "c0", 2) == {"c2"}
    assert chain_walk(chain, "c0", 3) == {"c3"}
    assert chain_walk(chain, "c2", 2) == set()


def test_chain_walk_matches_the_module_it_models():
    # pb7_0 over chain1 with three predicates is three chain steps.
    text = module_rules(7, 1, 3)
    assert text.count(":-") == 3
    assert "pb7_2(X, Y) :- chain1(X, Y)." in text


def _read(root, version, rows):
    return Read(root, version, frozenset(rows))


def test_version_model_accepts_each_version_exactly():
    model = VersionModel([("a", "b")], base_version=1, writes=[[("b", "c")], [("c", "d")]])
    good = [_read("a", 1, "b"), _read("a", 2, "bc"), _read("a", 3, "bcd"),
            _read("c", 2, "")]
    bad = [_read("a", 2, "bcd"), _read("a", 3, "bc"), _read("c", 3, "")]
    assert model.failures(good) == []
    assert model.failures(bad) == bad


def test_version_model_refuses_versions_no_write_made():
    model = VersionModel([("a", "b")], base_version=1, writes=[[("b", "c")]])
    outside = [_read("a", 0, "b"), _read("a", 3, "bc")]
    assert model.failures(outside) == outside


def test_forest_edge_count():
    assert len(forest_edges("t", 3, 4)) == 3 * (2 ** 4 - 2)


def _make_up(plan, level_of):
    return sorted((kind, level_of(name)) for kind, name in plan)


def test_rounds_have_the_same_make_up_for_every_seed():
    shape = RecursiveReadShape(trees=4, depth=6, sg_depth=5,
                               closure_levels=((1, 1), (3, 2), (5, 3)),
                               samegen_levels=((2, 1), (4, 1)))

    def level(name):
        return int(name.split("_")[1]).bit_length()

    first = recursive_read_rounds(1, shape, 3)
    second = recursive_read_rounds(2, shape, 3)
    assert first != second
    for a, b in zip(first, second):
        assert _make_up(a, level) == _make_up(b, level)
    assert recursive_read_rounds(1, shape, 3) == first


def test_write_rounds_reinsert_what_the_last_round_deleted():
    shape = DkbWriteShape(trees=2, depth=5, internal_level=3)
    initial, plan = dkb_write_rounds(3, shape, 4)
    assert all(edge in plan[0].insert for edge in initial)
    for previous, current in zip(plan, plan[1:]):
        internal = previous.delete[2 * shape.new_chains_per_batch:]
        assert all(edge in current.insert for edge in internal)
    sizes = {(len(step.insert), len(step.delete)) for step in plan}
    assert len(sizes) == 1


def test_served_rounds_mix():
    shape = ServedMixShape()
    plan = served_mix_rounds(5, shape, 2)
    for ops in plan:
        kinds = [kind for kind, _ in ops]
        assert kinds.count("insert") == shape.inserts
        assert kinds.count("read") == shape.hot_reads + shape.cold_reads
