"""The engine's block-counting failure probabilities against the
per-assignment enumeration they replace, kept here as the oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lclsim.engine import (BLOCK_ROWS, DEFAULT_BITS_PER_NODE, ENUM_BUDGET_BITS,
                           MC_DEFAULT_CONFIDENCE, MC_DEFAULT_SAMPLES,
                           Assignment, DirectedPair, FailureEstimate,
                           LocalAlgorithm, hoeffding_radius,
                           local_failure_probability, require_interior,
                           weak_coloring_failure, weak_edge_coloring_failure)
from lclsim.errors import InvalidInputError, TotalRuleViolation
from lclsim.graph import (bfs_distances, edge_key, gen_balanced_tree,
                          gen_regular_tree)
from lclsim.oriented import EdgeTable, NodeTable
from lclsim.speedup import (as_local_algorithm, edge_local_failure,
                            node_local_failure, random_edge_algorithm,
                            random_node_algorithm)
from lclsim.views import extract_view
from oracles import enumerate_assignments, input_label


def _labels_for_predicate(g, alg, v, assignment, inputs):
    t = alg.rounds
    if alg.kind == "node":
        labels = {}
        for u in [v] + g.adjacent(v):
            labels[u] = alg.evaluate(extract_view(g, u, t, assignment, inputs))
        return labels
    labels = {}
    for u in g.adjacent(v):
        labels[edge_key(v, u)] = alg.evaluate(
            extract_view(g, (v, u), t, assignment, inputs))
    return labels


def local_failure_probability_oracle(g, alg, v, fail_predicate, mode="exact",
                                     b=DEFAULT_BITS_PER_NODE, ids=None,
                                     samples=MC_DEFAULT_SAMPLES,
                                     confidence=MC_DEFAULT_CONFIDENCE, seed=0,
                                     budget_bits=ENUM_BUDGET_BITS, inputs=None):
    """Evaluates every view of every assignment of ``B_{t+1}(v)``."""
    t = alg.rounds
    require_interior(g, v, t + 1)
    region = sorted(bfs_distances(g, v, t + 1))
    base_ids = ids

    def outcome(bit_map):
        a = Assignment(b=b, bits=bit_map, ids=base_ids)
        labels = _labels_for_predicate(g, alg, v, a, inputs)
        return bool(fail_predicate(g, v, labels))

    if mode == "exact":
        hits = 0
        total = 0
        for bit_map in enumerate_assignments(region, b, budget_bits):
            hits += outcome(bit_map)
            total += 1
        return FailureEstimate(value=Fraction(hits, total), mode="exact")
    if mode != "monte-carlo":
        raise InvalidInputError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    top = 1 << b
    hits = 0
    for _ in range(samples):
        bit_map = {u: rng.randrange(top) for u in region}
        hits += outcome(bit_map)
    err = hoeffding_radius(samples, confidence)
    return FailureEstimate(value=hits / samples, mode="monte-carlo",
                           error=err, samples=samples, seed=seed)


def assert_same(g, alg, pred, v=0, **kw):
    fast = local_failure_probability(g, alg, v, pred, **kw)
    slow = local_failure_probability_oracle(g, alg, v, pred, **kw)
    assert type(fast.value) is type(slow.value)
    assert fast == slow   # value, mode, error, samples and seed
    return fast


def own_bit(view):
    return view.bits(view.center_node) & 1


def pair_rule(view):
    u, v = view.endpoints
    dim, sign = view.graph.orientation_at(u, v)
    plus, minus = (u, v) if sign > 0 else (v, u)
    return DirectedPair(1 << view.bits(plus), 1 << view.bits(minus))


def some_pair_equal(g, v, labels):
    vals = list(labels.values())
    return len(set(vals)) < len(vals)


TREE = gen_regular_tree(4, 2)
MC = {"mode": "monte-carlo", "samples": 600}


@pytest.mark.parametrize("rule", [own_bit, lambda view: 1])
@pytest.mark.parametrize("kw", [{"b": 1}, {"b": 2}, dict(MC, b=2, seed=3),
                                dict(MC, b=33, seed=1)])
def test_procedural_node_rules(rule, kw):
    alg = LocalAlgorithm(rounds=0, kind="node", rule=rule)
    assert_same(TREE, alg, weak_coloring_failure, **kw)


@pytest.mark.parametrize("kw", [{"b": 1}, {"b": 2}, dict(MC, b=1, seed=5)])
def test_directed_pair_edge_rule(kw):
    alg = LocalAlgorithm(rounds=0, kind="edge", rule=pair_rule)
    est = assert_same(TREE, alg, weak_edge_coloring_failure, **kw)
    if kw == {"b": 1}:
        assert est.value == Fraction(1, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_node_tables(seed):
    small = as_local_algorithm(random_node_algorithm(4, 0, 2, 3, seed))
    assert_same(TREE, small, weak_coloring_failure, b=2)
    one_round = as_local_algorithm(random_node_algorithm(4, 1, 1, 2, seed))
    assert_same(gen_regular_tree(4, 3), one_round, weak_coloring_failure,
                b=1, mode="monte-carlo", samples=1000, seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_tables(seed):
    alg = as_local_algorithm(random_edge_algorithm(4, 0, 2, 2, seed))
    assert_same(TREE, alg, weak_edge_coloring_failure, b=2)
    assert_same(TREE, alg, weak_edge_coloring_failure, b=2, mode="monte-carlo",
                samples=800, seed=seed)


def test_blocks_cross_memo():
    """More assignments than one block, so memos carry across blocks."""
    alg = LocalAlgorithm(rounds=0, kind="node",
                         rule=lambda view: view.bits(view.center_node) % 3)
    assert_same(TREE, alg, weak_coloring_failure, b=3)
    table = as_local_algorithm(random_node_algorithm(4, 1, 1, 2, 4))
    assert_same(gen_regular_tree(4, 3), table, weak_coloring_failure, b=1,
                mode="monte-carlo", samples=5000, seed=4)


def test_with_ids():
    g = gen_balanced_tree(3, 3)
    vals = list(range(1, g.n + 1))
    random.Random(8).shuffle(vals)
    ids = dict(enumerate(vals))

    def rule(view):
        c = view.center_node
        return (view.ident(c) + sum(view.bits(x) for x in view.nodes)) % 3

    for alg in (LocalAlgorithm(rounds=1, kind="node", rule=rule),
                LocalAlgorithm(rounds=1, kind="node",
                               rule=lambda view: view.encoding)):
        assert_same(g, alg, weak_coloring_failure, b=1, ids=ids)
        assert_same(g, alg, weak_coloring_failure, b=1, ids=ids, **MC)


def test_with_inputs():
    g = gen_balanced_tree(3, 3)
    inputs = {0: "a", 2: "b", 5: "a"}

    def rule(view):
        c = view.center_node
        return (input_label(view, c), view.bits(c) & 1)

    node = LocalAlgorithm(rounds=1, kind="node", rule=rule)
    assert_same(g, node, weak_coloring_failure, b=1, inputs=inputs)
    # edge views of an unoriented graph with inputs on some endpoints only
    edge = LocalAlgorithm(rounds=0, kind="edge", rule=lambda view: view.encoding)
    assert_same(g, edge, some_pair_equal, b=2, inputs=inputs)
    assert_same(g, edge, some_pair_equal, b=2, inputs=inputs, **MC)


def test_table_missing_entry_raises_in_both_paths():
    b = 1
    region = sorted(bfs_distances(TREE, 0, 1))
    table = {}
    for bits in enumerate_assignments(region, b):
        a = Assignment(b=b, bits=bits)
        for u in region:
            view = extract_view(TREE, u, 0, a)
            table[view.encoding] = view.bits(u)
    full = LocalAlgorithm(rounds=0, kind="node", table=dict(table))
    assert assert_same(TREE, full, weak_coloring_failure, b=b).value == Fraction(1, 16)
    del table[next(iter(table))]
    partial = LocalAlgorithm(rounds=0, kind="node", table=table)
    for fn in (local_failure_probability, local_failure_probability_oracle):
        with pytest.raises(TotalRuleViolation):
            fn(TREE, partial, 0, weak_coloring_failure, b=b)
        with pytest.raises(TotalRuleViolation):
            fn(TREE, partial, 0, weak_coloring_failure, b=b, **MC)


def test_monte_carlo_support_wider_than_int64():
    g = gen_regular_tree(4, 5)
    t, b = 3, 2
    assert b * len(bfs_distances(g, 0, t)) > 62
    alg = LocalAlgorithm(rounds=t, kind="node",
                         rule=lambda view: sum(view.bits(x) for x in view.nodes) % 2)
    assert_same(g, alg, weak_coloring_failure, b=b, mode="monte-carlo",
                samples=60, seed=2)


def test_joint_code_past_int64():
    """Seven sources with thousands of distinct labels: the joint label
    code would pass 2**62 without re-indexing."""
    alg = LocalAlgorithm(rounds=1, kind="node", rule=lambda view: view.encoding)
    assert_same(gen_regular_tree(6, 3), alg, weak_coloring_failure, b=2,
                mode="monte-carlo", samples=700, seed=6)


# ---------------------------------------------------------------------------
# Dense label tables and the joint histogram, at their caps
# ---------------------------------------------------------------------------
# A support of at most DENSE_KEY_BITS key bits memoizes its labels in a dense
# table, a wider one in a dict; a joint label space of at most
# 2**DENSE_KEY_BITS combos is counted by one histogram, a larger one by
# sorting.  Each case sits just on one side of a cap.


def support_sum_mod3(view):
    return sum(view.bits(x) * (i + 1) for i, x in enumerate(sorted(view.nodes))) % 3


def shuffled_ids(g, seed):
    vals = list(range(1, g.n + 1))
    random.Random(seed).shuffle(vals)
    return dict(enumerate(vals))


@pytest.mark.parametrize("extra", ["ids", "inputs"])
@pytest.mark.parametrize("g,rounds,b,key_bits", [
    (TREE, 0, 20, 20), (TREE, 0, 21, 21),
    (gen_regular_tree(4, 3), 1, 4, 20), (gen_regular_tree(6, 3), 1, 3, 21)])
def test_node_support_keys_at_the_dense_cap(g, rounds, b, key_bits, extra):
    assert b * len(extract_view(g, 0, rounds).nodes) == key_bits
    if extra == "ids":
        kw = {"ids": shuffled_ids(g, key_bits)}
        def rule(view):
            return (support_sum_mod3(view) + view.ident(view.center_node)) % 3
    else:
        kw = {"inputs": {u: "x" for u in range(0, g.n, 3)}}
        def rule(view):
            return (support_sum_mod3(view), input_label(view, view.center_node))
    alg = LocalAlgorithm(rounds=rounds, kind="node", rule=rule)
    assert_same(g, alg, weak_coloring_failure, b=b, mode="monte-carlo",
                samples=300, seed=key_bits, **kw)


@pytest.mark.parametrize("b", [10, 11])     # 20- and 22-bit edge keys
def test_edge_support_keys_at_the_dense_cap(b):
    def rule(view):
        u, v = view.endpoints
        return ((view.bits(u) << 8) + view.bits(v)) % 3, input_label(view, u)

    alg = LocalAlgorithm(rounds=0, kind="edge", rule=rule)
    assert_same(TREE, alg, some_pair_equal, b=b, mode="monte-carlo", samples=300,
                seed=b, inputs={u: "x" for u in range(0, TREE.n, 2)})


@pytest.mark.parametrize("radix", [16, 17])   # 16**5 == 2**20 < 17**5
def test_node_joint_space_at_the_histogram_cap(radix):
    """Five sources with ``radix`` labels each: exact against the kernel and
    Monte Carlo against the oracle."""
    table = NodeTable(delta=4, t=1, b=1, c=radix, table=np.arange(32) * 7 % radix)
    est = local_failure_probability(gen_regular_tree(4, 3), as_local_algorithm(table),
                                    0, weak_coloring_failure, b=1)
    assert est.value == node_local_failure(table)
    alg = LocalAlgorithm(rounds=0, kind="node",
                         rule=lambda view: view.bits(view.center_node) % radix)
    assert_same(TREE, alg, weak_coloring_failure, b=5, mode="monte-carlo",
                samples=500, seed=radix)


@pytest.mark.parametrize("c", [32, 33])       # 32**4 == 2**20 < 33**4
def test_edge_joint_space_at_the_histogram_cap(c):
    """Four edge sources with c labels each: exact against the kernel and
    Monte Carlo against the oracle."""
    size = 1 << (3 * 2)                           # b=3 at both endpoints
    table = EdgeTable(delta=4, t=0, b=3, c=c,
                      tables={dim: np.arange(size) * (dim + 4) % c for dim in (1, 2)})
    alg = as_local_algorithm(table)
    est = local_failure_probability(TREE, alg, 0, weak_edge_coloring_failure, b=3)
    assert est.value == edge_local_failure(table)
    assert_same(TREE, alg, weak_edge_coloring_failure, b=3, mode="monte-carlo",
                samples=400, seed=c)


def first_late_draw(seed, b, m, row):
    """The first draw of sample ``row`` in the Monte Carlo stream, checked
    not to occur in any earlier sample."""
    rng = random.Random(seed)
    draws = [rng.randrange(1 << b) for _ in range((row + 1) * m)]
    assert draws[row * m] not in draws[:row * m]
    return draws[row * m]


@pytest.mark.parametrize("b", [20, 21])
def test_label_first_drawn_in_a_late_block(b):
    """A label first appears in the third block, after the radix of the
    joint code has been used for two blocks with two labels."""
    row, seed = 2 * BLOCK_ROWS + 17, 11
    late = first_late_draw(seed, b, len(bfs_distances(TREE, 0, 1)), row)

    def rule(view):
        bits = view.bits(view.center_node)
        return "late" if bits == late else bits & 1

    alg = LocalAlgorithm(rounds=0, kind="node", rule=rule)
    est = assert_same(TREE, alg, lambda g, v, labels: "late" in labels.values(),
                      b=b, mode="monte-carlo", samples=row + 40, seed=seed)
    assert est.value > 0


@pytest.mark.parametrize("kw", [{"b": 3}, dict(MC, b=2, seed=9), dict(MC, b=21, seed=9)])
def test_each_support_pattern_evaluated_once(kw):
    """Labels are memoized across blocks: in either memo, a view is
    evaluated once per distinct bit pattern of its support."""
    kw = dict(kw, samples=3 * BLOCK_ROWS) if "mode" in kw else kw
    seen = []

    def rule(view):
        seen.append((view.center_node, view.bits(view.center_node)))
        return view.bits(view.center_node) % 2

    alg = LocalAlgorithm(rounds=0, kind="node", rule=rule)
    local_failure_probability(TREE, alg, 0, weak_coloring_failure, **kw)
    assert len(seen) == len(set(seen))
    if "mode" not in kw:
        assert len(seen) == 5 << kw["b"]
