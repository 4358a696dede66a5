import random
import re

import pytest

from conftest import pruned_oriented_tree, random_graph, random_tree
from lclsim.errors import InvalidInstanceError, InvalidLabelingError
from lclsim.graph import PortedGraph, edge_key, gen_cycle, gen_regular_tree
from lclsim.problems import (HomogeneousLabel, PointerLabel,
                             verifier_report, verify_homogeneous,
                             verify_pointer_labeling, verify_weak_coloring,
                             verify_weak_edge_coloring)
from oracles import (pointer_happy, verify_weak_coloring_oracle,
                     verify_weak_edge_coloring_oracle, walk_pointer_chain)


def path_graph(n):
    return PortedGraph.from_edges(
        n, [(i, i + 1, 1 if i else 0, 0) for i in range(n - 1)], delta=2)


def test_weak_coloring_path_examples():
    g = path_graph(2)
    assert all(verify_weak_coloring(g, {0: 1, 1: 2}, 2, 1).values())

    g3 = path_graph(3)
    phi = {0: 1, 1: 1, 2: 2}
    assert all(verify_weak_coloring(g3, phi, 2, 2).values())
    res = verify_weak_coloring(g3, phi, 2, 1)
    assert res == {0: False, 1: True, 2: True}


def test_weak_coloring_star_failure():
    g = gen_regular_tree(4, 1)
    res = verify_weak_coloring(g, {v: 1 for v in range(g.n)}, 2, 1)
    assert not res[0] and not any(res.values())


def test_weak_coloring_label_range():
    g = path_graph(2)
    with pytest.raises(InvalidLabelingError):
        verify_weak_coloring(g, {0: 0, 1: 1}, 2, 1)


def test_weak_edge_coloring_examples():
    g = gen_regular_tree(4, 1)
    by_dir = {}
    for u, mp, up, d, s in g.half_edges(0):
        by_dir[(d, s)] = edge_key(0, u)
    psi = {by_dir[(2, 1)]: 1, by_dir[(2, -1)]: 2,
           by_dir[(1, -1)]: 1, by_dir[(1, 1)]: 1}
    res = verify_weak_edge_coloring(g, psi, 2, 4)
    assert res[0]
    for leaf in range(1, 5):
        assert res[leaf]  # vacuous: no complete dimension

    mono = {e: 1 for e in psi}
    assert not verify_weak_edge_coloring(g, mono, 2, 4)[0]


def test_weak_edge_coloring_delta6():
    g = gen_regular_tree(6, 1)
    psi = {}
    for u, mp, up, d, s in g.half_edges(0):
        psi[edge_key(0, u)] = 1
    # dimension 3 becomes bichromatic
    for u, mp, up, d, s in g.half_edges(0):
        if (d, s) == (3, 1):
            psi[edge_key(0, u)] = 2
    assert verify_weak_edge_coloring(g, psi, 2, 6)[0]


def test_weak_edge_requires_orientation():
    g = path_graph(3)
    with pytest.raises(InvalidInstanceError):
        verify_weak_edge_coloring(g, {(0, 1): 1, (1, 2): 1}, 2, 2)


def test_pointer_conditions():
    g = gen_regular_tree(4, 2)
    leaf = max(range(g.n))
    labels = {v: PointerLabel(d=0, port=0) for v in range(g.n)}

    # low-degree node with matching guess and no pointer passes
    labels[leaf] = PointerLabel(d=1, port=None)
    assert pointer_happy(g, leaf, labels, 4)
    # wrong degree guess fails
    labels[leaf] = PointerLabel(d=2, port=None)
    assert not pointer_happy(g, leaf, labels, 4)
    # full-degree node without pointer fails
    labels[0] = PointerLabel(d=0, port=None)
    assert not pointer_happy(g, 0, labels, 4)


def test_pointer_chain_consistency_condition():
    g = path_graph(3)  # delta 2: middle node has full degree
    labels = {0: PointerLabel(d=1, port=None),
              1: PointerLabel(d=2, port=0),   # points to node 0, d mismatch
              2: PointerLabel(d=1, port=None)}
    res = verify_pointer_labeling(g, labels, 2)
    assert res[0] and res[2] and not res[1]
    labels[1] = PointerLabel(d=1, port=0)
    assert all(verify_pointer_labeling(g, labels, 2).values())


def test_pointer_backtrack_condition():
    g = path_graph(4)
    labels = {0: PointerLabel(d=1, port=None),
              1: PointerLabel(d=1, port=1),   # 1 -> 2
              2: PointerLabel(d=1, port=0),   # 2 -> 1: backtrack
              3: PointerLabel(d=1, port=None)}
    res = verify_pointer_labeling(g, labels, 2)
    assert not res[1] and not res[2]


def test_pointer_chain_walk_property():
    from lclsim.algorithms import solve_pointer_labeling
    from lclsim.engine import Assignment
    rng = random.Random(7)
    sizes = [rng.randrange(20, 120) for _ in range(10)] + [10_000]
    for trial, n in enumerate(sizes):
        g = random_tree(n, 4, seed=trial)
        a = Assignment.random(g, 1, seed=trial, with_ids=True)
        labels, _ = solve_pointer_labeling(g, a)
        assert all(verify_pointer_labeling(g, labels, 4).values())
        for v in range(0, g.n, 7):
            term, cyc = walk_pointer_chain(g, labels, v)
            if not cyc:
                assert g.degree(term) == labels[v].d


def test_pointer_chain_walk_closes_a_cycle():
    g = gen_cycle(5)
    labels = {v: PointerLabel(d=2, port=0) for v in range(g.n)}
    assert walk_pointer_chain(g, labels, 0) == (0, True)
    assert walk_pointer_chain(g, labels, 3) == (3, True)


def test_homogeneous_disjunction():
    g = gen_regular_tree(4, 2)

    def inner_ok(gg, v, inner):
        return inner.get(v) == 1

    # valid pointer side wins regardless of inner labels
    from lclsim.algorithms import solve_pointer_labeling
    from lclsim.engine import Assignment
    a = Assignment.random(g, 1, seed=1, with_ids=True)
    plabels, _ = solve_pointer_labeling(g, a)
    labels = {v: HomogeneousLabel(inner=999, pointer=plabels[v])
              for v in range(g.n)}
    assert all(verify_homogeneous(g, labels, inner_ok, 4).values())

    # empty pointer side defers to the inner verifier
    labels2 = {v: HomogeneousLabel(inner=1, pointer=None) for v in range(g.n)}
    assert all(verify_homogeneous(g, labels2, inner_ok, 4).values())

    # nonempty but unhappy pointer label fails even with a valid inner label
    labels3 = dict(labels2)
    labels3[0] = HomogeneousLabel(inner=1, pointer=PointerLabel(d=0, port=None))
    res = verify_homogeneous(g, labels3, inner_ok, 4)
    assert not res[0] and all(res[v] for v in range(1, g.n))


def test_verdict_locality():
    rng = random.Random(11)
    g = random_tree(80, 4, seed=3)
    phi = {v: rng.randrange(1, 4) for v in range(g.n)}
    k = 2
    base = verify_weak_coloring(g, phi, 3, k)
    from lclsim.graph import bfs_distances
    ball = set(bfs_distances(g, 0, k))
    outside = [v for v in range(g.n) if v not in ball]
    for _ in range(15):
        phi2 = dict(phi)
        phi2[rng.choice(outside)] = rng.randrange(1, 4)
        assert verify_weak_coloring(g, phi2, 3, k)[0] == base[0]


def test_oracle_equivalence_small():
    rng = random.Random(13)
    for trial in range(25):
        g = random_graph(rng.randrange(6, 50), 4, seed=100 + trial)
        c, k = rng.randrange(2, 5), rng.randrange(1, 4)
        phi = {v: rng.randrange(1, c + 1) for v in range(g.n)}
        assert verify_weak_coloring(g, phi, c, k) == \
            verify_weak_coloring_oracle(g, phi, c, k)
    for trial in range(10):
        g = pruned_oriented_tree(4, 3, seed=trial)
        psi = {edge_key(u, v): rng.randrange(1, 4) for u, v in g.edges()}
        assert verify_weak_edge_coloring(g, psi, 3, 4) == \
            verify_weak_edge_coloring_oracle(g, psi, 3, 4)


def test_verifier_report_shape():
    rep = verifier_report("demo", {0: True, 1: False, 2: True})
    assert rep == {"problem": "demo", "pass_count": 2, "fail_nodes": [1]}


def test_lcl_spec_wrapper():
    from oracles import weak_coloring_spec
    g = path_graph(3)
    spec = weak_coloring_spec(2, 1)
    assert spec.radius == 1 and spec.output_alphabet == (1, 2)
    assert spec.verify(g, {0: 1, 1: 1, 2: 2}) == \
        verify_weak_coloring(g, {0: 1, 1: 1, 2: 2}, 2, 1)


def test_weak_coloring_rejects_boolean_colors():
    """``True`` is the int 1 to ``isinstance``; as a color it is rejected,
    as the CLI's coloring-file loader rejects JSON true."""
    g = gen_cycle(4)
    with pytest.raises(InvalidLabelingError, match="color True of node 0"):
        verify_weak_coloring(g, {0: True, 1: 2, 2: True, 3: 2}, 2, 1)
    assert all(verify_weak_coloring(g, {0: 1, 1: 2, 2: 1, 3: 2}, 2, 1).values())


def test_weak_edge_coloring_rejects_boolean_colors():
    g = gen_regular_tree(4, 1)
    psi = {edge_key(0, u): 1 + (i % 2) for i, u in enumerate(g.adjacent(0))}
    assert verify_weak_edge_coloring(g, psi, 2, 4)[0]
    first = edge_key(0, g.adjacent(0)[0])
    with pytest.raises(InvalidLabelingError, match=re.escape(f"color True of edge {first}")):
        verify_weak_edge_coloring(g, psi | {first: True}, 2, 4)
