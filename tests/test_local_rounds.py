"""Differential tests of the whole-array LOCAL rounds.

The per-node versions they replaced (the heap low-degree map, the tree
labeling loop and the per-node verifiers here; the per-node recolor search,
the dict pseudoforest, Cole-Vishkin and greedy MIS in ``oracles``) are the
oracles: every pass must give the same values, and every input the oracle
rejects must be rejected with the same class and message.
"""

import heapq
import random

import numpy as np
import pytest

from conftest import random_graph, random_tree
from lclsim.algorithms import (_low_degree_map, _pointer_labels, build_pseudoforest,
                               cole_vishkin_reduce, mis_to_weak2,
                               solve_pointer_labeling, weak_family_to_weak2,
                               weak_to_weak2c)
from lclsim.cli import random_valid_weak_coloring
from lclsim.engine import Assignment
from lclsim.errors import InvalidInputError
from lclsim.graph import PortedGraph, gen_balanced_tree, gen_cycle, gen_regular_tree
from lclsim.problems import (HomogeneousLabel, PointerLabel, label_array,
                             verify_homogeneous, verify_pointer_labeling,
                             verify_weak_coloring)
from oracles import (oracle_build_pseudoforest, oracle_cole_vishkin_reduce,
                     oracle_mis_to_weak2, oracle_verify_weak_coloring, oracle_weak_to_weak2c,
                     pointer_happy, weak_family_to_weak2_dict_stages)

# ---------------------------------------------------------------------------
# oracles: the per-node versions
# ---------------------------------------------------------------------------


def oracle_low_degree_map(g, ids):
    target = [None] * g.n
    dist = [0] * g.n
    pred = [None] * g.n
    heap = []
    for u in range(g.n):
        if g.degree(u) < g.delta:
            heap.append((0, g.degree(u), ids[u], u, u, u))
    heapq.heapify(heap)
    done = [False] * g.n
    while heap:
        d, deg_u, id_u, u, v, via = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        target[v], dist[v], pred[v] = u, d, via
        for w in g.adjacent(v):
            if not done[w]:
                heapq.heappush(heap, (d + 1, deg_u, id_u, u, w, v))
    return target, dist, pred


def oracle_tree_labels(g, r, low):
    target, dist, pred = low
    labels = {}
    for v in range(g.n):
        if dist[v] > r:
            continue
        if g.degree(v) < g.delta:
            labels[v] = PointerLabel(d=g.degree(v), port=None)
        else:
            labels[v] = PointerLabel(d=g.degree(target[v]),
                                     port=g.port_toward(v, pred[v]))
    return labels


def oracle_verify_pointer_labeling(g, labels, delta):
    return {v: pointer_happy(g, v, labels, delta) for v in range(g.n)}


def oracle_verify_homogeneous(g, labels, inner_verifier, delta):
    pointer_part = {v: lab.pointer for v, lab in labels.items()
                    if lab.pointer is not None}
    inner_part = {v: lab.inner for v, lab in labels.items()}
    results = {}
    for v in range(g.n):
        lab = labels.get(v)
        if lab is None:
            results[v] = False
        elif lab.pointer is not None:
            results[v] = pointer_happy(g, v, pointer_part, delta)
        else:
            results[v] = bool(inner_verifier(g, v, inner_part))
    return results


def outcome(fn, *args):
    """The result, or the class and message of what ``fn`` raised."""
    try:
        return fn(*args)
    except Exception as exc:     # noqa: BLE001 -- compared, not swallowed
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def path_graph(n):
    return PortedGraph.from_edges(
        n, [(i, i + 1, 1 if i else 0, 0) for i in range(n - 1)], delta=2)


def graphs(seed):
    """Random trees, random graphs with extra edges, cycles and balanced
    trees, a few of each."""
    rng = random.Random(seed)
    out = [random_tree(rng.randrange(2, 300), rng.choice([3, 4, 6]), seed=seed + i)
           for i in range(4)]
    out += [random_graph(rng.randrange(10, 300), 4, seed=seed + i,
                         extra_edges=rng.randrange(0, 60)) for i in range(4)]
    out += [gen_cycle(rng.randrange(3, 40)), path_graph(rng.randrange(2, 30)),
            gen_balanced_tree(rng.choice([2, 3, 4]), rng.randrange(1, 5)),
            gen_regular_tree(4, rng.randrange(1, 4))]
    return out


def ids_of(g, seed):
    return [Assignment.random(g, 1, seed=seed, with_ids=True).ids[v] for v in range(g.n)]


SEEDS = [1, 2, 3, 4, 5, 6]

# ---------------------------------------------------------------------------
# pointer labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_low_degree_map_matches_heap(seed):
    for i, g in enumerate(graphs(seed)):
        ids = ids_of(g, seed + i)
        target, dist, pred = _low_degree_map(g, ids)
        want = oracle_low_degree_map(g, ids)
        assert [None if t < 0 else t for t in target.tolist()] == want[0]
        assert dist.tolist() == want[1]
        assert [None if p < 0 else p for p in pred.tolist()] == want[2]


def test_low_degree_map_breaks_ties_by_degree_then_id():
    """A path, whose middle node sees both ends at one distance and one
    degree, so the identifier decides; a star of low-degree nodes; and a
    random graph of maximum degree 3 with many ties, under 20 id draws."""
    path = path_graph(7)
    star = PortedGraph.from_edges(4, [(0, 1, 0, 0), (0, 2, 1, 0), (0, 3, 2, 0)], delta=4)
    for g in (path, star, random_graph(60, 3, seed=4, extra_edges=10)):
        for seed in range(20):
            ids = ids_of(g, seed)
            got = _low_degree_map(g, ids)
            want = oracle_low_degree_map(g, ids)
            assert [None if t < 0 else t for t in got[0].tolist()] == want[0]
            assert [None if p < 0 else p for p in got[2].tolist()] == want[2]


@pytest.mark.parametrize("seed", SEEDS)
def test_tree_labels_match_loop(seed):
    rng = random.Random(seed)
    trees = [random_tree(rng.randrange(2, 400), rng.choice([3, 4]), seed=seed + i)
             for i in range(4)]
    trees += [gen_regular_tree(4, 4), gen_balanced_tree(3, 5), path_graph(9)]
    for i, g in enumerate(trees):
        ids = ids_of(g, seed + i)
        low = _low_degree_map(g, ids)
        want_low = oracle_low_degree_map(g, ids)
        for r in (0, 1, 2, 5, g.n):
            assert _pointer_labels(g, r, low) == oracle_tree_labels(g, r, want_low)


def test_tree_labels_share_equal_labels():
    g = gen_regular_tree(4, 4)
    labels, _ = solve_pointer_labeling(g, Assignment.random(g, 1, seed=1, with_ids=True))
    assert len({id(lab) for lab in labels.values()}) == len(set(labels.values()))


# ---------------------------------------------------------------------------
# weak-2 pipeline
# ---------------------------------------------------------------------------


def colorings(seed):
    rng = random.Random(seed)
    for i, g in enumerate(graphs(seed)):
        if g.n < 2:
            continue
        k, c = rng.randrange(1, 4), rng.randrange(2, 6)
        yield g, random_valid_weak_coloring(g, c, k, seed=seed + i), k, c


def in_node_order(values):
    """A dict keyed 0..n-1 as an array in node order."""
    return label_array([values[v] for v in range(len(values))])


def as_dict(x):
    return dict(enumerate(x.tolist()))


def pseudoforest(g, colors):
    """:func:`build_pseudoforest` on a dict coloring, as (out_port, parent)
    dicts."""
    return tuple(map(as_dict, build_pseudoforest(g, in_node_order(colors))))


def cole_vishkin(parent, colors, c_prime):
    """:func:`cole_vishkin_reduce` on the oracle's inputs (a parent dict and
    1-based colors), as the oracle's output."""
    x, rounds = cole_vishkin_reduce(label_array([colors[v] - 1 for v in range(len(colors))]),
                                    in_node_order(parent), c_prime)
    return as_dict(x + 1), rounds


def mis(parent, psi):
    """:func:`mis_to_weak2` on a parent dict and a coloring dict, as a dict."""
    return as_dict(mis_to_weak2(in_node_order(psi), in_node_order(parent)))


@pytest.mark.parametrize("seed", SEEDS)
def test_recolor_matches_per_node_search(seed):
    for g, phi, k, c in colorings(seed):
        assert weak_to_weak2c(g, phi, k, c) == oracle_weak_to_weak2c(g, phi, k, c)


@pytest.mark.parametrize("top", [2**62 + 2, 2**63 - 1, 2**63 + 1, 2**64 + 2, 2**70])
def test_weak2_pipeline_with_wide_palettes(top):
    """Colors near and past the int64 range (the recolor doubles them) give
    the per-node results at every stage, with no wrap or float rounding."""
    for g in (random_tree(300, 4, top % 1000), gen_balanced_tree(3, 4)):
        phi = {v: top - 4 + col
               for v, col in random_valid_weak_coloring(g, 4, 2, seed=top % 7).items()}
        assert verify_weak_coloring(g, phi, top, 2) == \
            oracle_verify_weak_coloring(g, phi, top, 2)
        phi2, _ = weak_to_weak2c(g, phi, 2, top)
        assert phi2 == oracle_weak_to_weak2c(g, phi, 2, top)[0]
        assert min(phi2.values()) > 2 * top - 9
        out_port, parent, children = oracle_build_pseudoforest(g, phi2)
        assert pseudoforest(g, phi2) == (out_port, parent)
        psi = cole_vishkin(parent, phi2, 2 * top)
        assert psi == oracle_cole_vishkin_reduce(parent, phi2, 2 * top)
        assert mis(parent, psi[0]) == oracle_mis_to_weak2(parent, children, psi[0])[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_pseudoforest_cole_vishkin_mis_match_dict_versions(seed):
    for g, phi, k, c in colorings(seed):
        phi2, _ = weak_to_weak2c(g, phi, k, c)
        out_port, parent, children = oracle_build_pseudoforest(g, phi2)
        assert pseudoforest(g, phi2) == (out_port, parent)
        for c_prime in (2 * c, 16, 64):
            psi = cole_vishkin(parent, phi2, c_prime)
            assert psi == oracle_cole_vishkin_reduce(parent, phi2, c_prime)
        psi, _ = cole_vishkin(parent, phi2, 2 * c)
        assert mis(parent, psi) == oracle_mis_to_weak2(parent, children, psi)[0]
        res = weak_family_to_weak2(g, phi, k, c)
        assert res.labels == oracle_mis_to_weak2(parent, children, psi)[0]


def test_cole_vishkin_wide_proper_colorings():
    """Palettes up to 2^70 (object arrays) along a random pointer forest."""
    rng = random.Random(7)
    for trial in range(20):
        g = random_tree(rng.randrange(2, 200), 4, seed=trial)
        top = rng.choice([8, 100, 2**40, 2**70])
        colors = {}
        for v in range(g.n):
            taken = {colors.get(u) for u in g.adjacent(v)}
            colors[v] = next(x for x in iter(lambda: rng.randrange(1, top + 1), None)
                             if x not in taken)
        _, parent = pseudoforest(g, colors)
        assert cole_vishkin(parent, colors, top) == \
            oracle_cole_vishkin_reduce(parent, colors, top)


def test_cole_vishkin_colors_at_the_int64_ends():
    """Unvalidated colors at both int64 ends: shifted to 0-based they pass
    -2^63, and must not wrap onto 2^63 - 1."""
    parent = {0: 1, 1: 0, 2: 0, 3: 1}
    for colors in ({0: -2**63, 1: 2**63 - 1, 2: 5, 3: 0},
                   {0: -2**63, 1: 2**63, 2: -2**63 + 1, 3: 2**63 - 1}):
        assert outcome(cole_vishkin, parent, colors, 2**65) == \
            outcome(oracle_cole_vishkin_reduce, parent, colors, 2**65)


def test_stage_rejections_match():
    g = random_tree(40, 4, seed=3)
    mono = {v: 1 for v in range(g.n)}
    assert outcome(pseudoforest, g, mono) == \
        outcome(oracle_build_pseudoforest, g, mono)
    _, parent = pseudoforest(path_graph(6), {v: 1 + v % 2 for v in range(6)})
    bad = {v: 1 for v in range(6)}
    assert outcome(cole_vishkin, parent, bad, 6) == \
        outcome(oracle_cole_vishkin_reduce, parent, bad, 6)
    # MIS needs a proper 3-coloring along the pointers, as Cole-Vishkin gives
    with pytest.raises(InvalidInputError, match="pointer target agree"):
        mis(parent, bad)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_weak_coloring_matches_per_node(seed):
    rng = random.Random(seed)
    for g in graphs(seed):
        for k in (1, 2, 3):
            c = rng.randrange(2, 6)
            phi = {v: rng.randrange(1, c + 1) for v in range(g.n)}
            assert verify_weak_coloring(g, phi, c, k) == \
                oracle_verify_weak_coloring(g, phi, c, k)


def test_verify_weak_coloring_rejections_match():
    g = random_graph(30, 4, seed=8)
    base = {v: 1 + v % 2 for v in range(g.n)}
    for change in ({3: 0}, {3: 3}, {3: 1.0}, {3: "1"}, {3: None}, {5: 7, 3: 0},
                   {4: True}, {2: 2**80}):
        phi = dict(base)
        phi.update(change)
        assert outcome(verify_weak_coloring, g, phi, 2, 1) == \
            outcome(oracle_verify_weak_coloring, g, phi, 2, 1)
    missing = dict(base)
    del missing[7]
    missing[3] = 9
    assert outcome(verify_weak_coloring, g, missing, 2, 1) == \
        outcome(oracle_verify_weak_coloring, g, missing, 2, 1)
    del missing[3]
    assert outcome(verify_weak_coloring, g, missing, 2, 1) == \
        outcome(oracle_verify_weak_coloring, g, missing, 2, 1)


def random_pointer_labels(g, rng, delta):
    shared = PointerLabel(d=rng.randrange(0, delta + 1), port=rng.choice([None, 0, np.int8(1)]))
    labels = {}
    for v in range(g.n):
        if rng.random() < 0.05:
            continue
        if rng.random() < 0.2:      # one label object at many nodes
            labels[v] = shared
            continue
        ports = [p for _, p, _ in g.neighbors(v)]
        port = rng.choice([None, None] + ports * 3 + [delta + 1, -1, np.int8(1), np.int64(2)])
        labels[v] = PointerLabel(d=rng.randrange(0, delta + 1), port=port)
    return labels


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_pointer_labeling_matches_per_node(seed):
    rng = random.Random(seed)
    for i, g in enumerate(graphs(seed)):
        for _ in range(5):
            labels = random_pointer_labels(g, rng, g.delta)
            for delta in (g.delta, g.delta + 1):
                assert outcome(verify_pointer_labeling, g, labels, delta) == \
                    outcome(oracle_verify_pointer_labeling, g, labels, delta)
        # a solver's labeling, all happy
        ids = ids_of(g, seed + i)
        if g.edge_count() == g.n - 1 and g.n > 1:
            labels = _pointer_labels(g, g.n, _low_degree_map(g, ids))
            assert verify_pointer_labeling(g, labels, g.delta) == \
                oracle_verify_pointer_labeling(g, labels, g.delta)


def test_verify_pointer_labeling_odd_values():
    """Guesses and ports of other types are compared as Python values."""
    g = random_tree(30, 3, seed=2)
    rng = random.Random(3)
    for trial in range(40):
        labels = {}
        shared = PointerLabel(d=rng.choice([1, 2, True]),
                              port=rng.choice([None, np.int64(0), 1.0]))
        for v in range(g.n):
            ports = [p for _, p, _ in g.neighbors(v)]
            port = rng.choice([None, True, 1.0, "x", 2**70, np.int8(1), np.int64(2)] + ports)
            labels[v] = shared if rng.random() < 0.3 else \
                PointerLabel(d=rng.choice([0, 1, 2, 1.0, True, "1", 3, np.int64(2)]), port=port)
        assert outcome(verify_pointer_labeling, g, labels, 3) == \
            outcome(oracle_verify_pointer_labeling, g, labels, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_homogeneous_matches_per_node(seed):
    rng = random.Random(seed)

    def inner_ok(gg, v, inner):
        return inner.get(v) == 1

    for g in graphs(seed):
        for _ in range(5):
            pointers = random_pointer_labels(g, rng, g.delta)
            shared = HomogeneousLabel(inner=1, pointer=rng.choice([None, pointers.get(0)]))
            labels = {v: shared if rng.random() < 0.2 else
                      HomogeneousLabel(inner=rng.choice([1, 2]),
                                       pointer=pointers.get(v) if rng.random() < 0.5
                                       else None)
                      for v in range(g.n) if rng.random() < 0.97}
            assert outcome(verify_homogeneous, g, labels, inner_ok, g.delta) == \
                outcome(oracle_verify_homogeneous, g, labels, inner_ok, g.delta)


def test_verify_homogeneous_inner_error_before_pointer_error():
    """An inner verifier that raises at a node before the first bad port
    raises first, as in the per-node loop."""
    g = path_graph(6)

    def inner_raises(gg, v, inner):
        raise ValueError(f"inner at {v}")

    labels = {v: HomogeneousLabel(inner=1, pointer=None) for v in range(6)}
    labels[4] = HomogeneousLabel(inner=1, pointer=PointerLabel(d=1, port=7))
    assert outcome(verify_homogeneous, g, labels, inner_raises, 2) == \
        outcome(oracle_verify_homogeneous, g, labels, inner_raises, 2) == \
        (ValueError, "inner at 0")
    labels = {v: HomogeneousLabel(inner=1, pointer=PointerLabel(d=1, port=7))
              for v in range(6)}
    assert outcome(verify_homogeneous, g, labels, inner_raises, 2) == \
        outcome(oracle_verify_homogeneous, g, labels, inner_raises, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_matches_dict_stage_handoff(seed):
    """The pipeline's array handoff gives the result of the per-node stage
    oracles, each handing the next a dict."""
    for g, phi, k, c in colorings(seed):
        assert weak_family_to_weak2(g, phi, k, c) == \
            weak_family_to_weak2_dict_stages(g, phi, k, c)


@pytest.mark.parametrize("top", [2**61 - 1, 2**61, 2**62 + 2, 2**63 - 1, 2**70])
def test_pipeline_handoff_with_wide_palettes(top):
    g = random_tree(200, 4, top % 1000)
    phi = {v: top - 4 + col for v, col in random_valid_weak_coloring(g, 4, 2, seed=3).items()}
    assert weak_family_to_weak2(g, phi, 2, top) == \
        weak_family_to_weak2_dict_stages(g, phi, 2, top)
