import random

import numpy as np
import pytest

from conftest import random_tree
from lclsim.algorithms import (build_pseudoforest,
                               cole_vishkin_reduce, cole_vishkin_step,
                               homogeneous_dispatch, mis_to_weak2,
                               solve_pointer_labeling,
                               solve_pointer_labeling_local,
                               weak_family_to_weak2, weak_to_weak2c)
from lclsim.cli import random_valid_weak_coloring
from lclsim.engine import Assignment, LocalAlgorithm
from lclsim.errors import InvalidInputError, InvalidParameterError, PSolverViolation
from lclsim.graph import (PortedGraph, bfs_distances,
                          gen_balanced_tree, gen_cycle, gen_regular_tree,
                          gen_symlower_pair, plant_irregularities)
from lclsim.problems import (HomogeneousLabel, other_color_level, verify_homogeneous,
                             verify_pointer_labeling, verify_weak_coloring)
from oracles import _closest_other_color, closest_irregularity, pointer_terminal_degrees


def path_graph(n):
    return PortedGraph.from_edges(
        n, [(i, i + 1, 1 if i else 0, 0) for i in range(n - 1)], delta=2)


def test_recolor_hand_trace():
    g = path_graph(3)
    phi = {0: 1, 1: 1, 2: 2}
    phi2, rounds = weak_to_weak2c(g, phi, 2, 2)
    # (color, parity) encoded as (color-1)*2 + parity + 1
    assert phi2 == {0: 1, 1: 2, 2: 4}
    assert rounds == 2
    dist = other_color_level(g, np.array([1, 1, 2]), 2)
    assert dist[0] == 2 and dist[1] == 1
    assert phi2[0] != phi2[1]


def test_recolor_validates_input():
    g = path_graph(3)
    with pytest.raises(InvalidInputError):
        weak_to_weak2c(g, {0: 1, 1: 1, 2: 1}, 1, 2)


def test_recolor_parity_argument():
    """If the closest differently-colored node is at distance >= 2, the
    first step of the path gets the opposite parity."""
    rng = random.Random(21)
    for trial in range(30):
        g = random_tree(rng.randrange(10, 150), 4, seed=trial)
        c, k = rng.randrange(2, 5), rng.randrange(1, 4)
        phi = random_valid_weak_coloring(g, c, k, seed=trial)
        phi2, _ = weak_to_weak2c(g, phi, k, c)
        for v in range(g.n):
            _, dist, first_port = _closest_other_color(g, v, phi, k)
            if dist >= 2:
                w = g.neighbor_by_port(v, first_port)
                assert phi2[v] != phi2[w]
        assert all(verify_weak_coloring(g, phi2, 2 * c, 1).values())


def test_pseudoforest_examples():
    g = path_graph(2)
    _, parent = build_pseudoforest(g, np.array([1, 2]))
    assert parent.tolist() == [1, 0]  # mutual pointers on a 2-colored edge

    star = gen_regular_tree(4, 1)
    colors = np.array([1, 2, 3, 4, 5])
    out_port, parent = build_pseudoforest(star, colors)
    assert out_port[0] == 0  # smallest port wins
    assert (colors != colors[parent]).all()

    with pytest.raises(InvalidInputError):
        build_pseudoforest(star, np.ones(star.n, np.int64))


def test_cole_vishkin_single_step():
    # own color 6 = 0b110 vs target 2 = 0b010: differ at bit 2, value 1
    assert cole_vishkin_step(6, 2) == 5


def test_cole_vishkin_fixed_point():
    g = path_graph(4)
    colors = np.array([1, 2, 1, 2])
    _, parent = build_pseudoforest(g, colors)
    psi, rounds = cole_vishkin_reduce(colors - 1, parent, 3)
    assert (psi + 1).tolist() == [1, 2, 1, 2]
    assert rounds == 0


def test_cole_vishkin_properness_every_iteration():
    rng = random.Random(31)
    for trial in range(20):
        n = rng.randrange(10, 200)
        g = random_tree(n, 4, seed=trial + 500)
        c = rng.choice([8, 16, 64])
        colors = {}
        for v in range(n):
            taken = {colors.get(u) for u in g.adjacent(v)}
            colors[v] = next(x for x in range(1, c + 1) if x not in taken)
        array = np.array(list(colors.values()))
        _, parent = build_pseudoforest(g, array)
        parent = parent.tolist()
        # replay the reduction step by step, checking properness throughout
        x = {v: colors[v] - 1 for v in colors}
        bound = c
        while bound > 6:
            x = {v: cole_vishkin_step(x[v], x[parent[v]]) for v in x}
            assert all(x[v] != x[parent[v]] for v in x)
            bound = 2 * max(bound - 1, 1).bit_length()
        psi, _ = cole_vishkin_reduce(array - 1, np.array(parent), c)
        psi = (psi + 1).tolist()
        assert set(psi) <= {1, 2, 3}
        assert all(psi[v] != psi[parent[v]] for v in range(n))


def test_mis_single_edge():
    g = path_graph(2)
    _, parent = build_pseudoforest(g, np.array([1, 2]))
    labels = mis_to_weak2(np.array([1, 2]), parent)
    assert sorted(labels.tolist()) == [1, 2]
    assert weak_family_to_weak2(g, {0: 1, 1: 2}, 1, 2).stage_rounds["mis"] == 3


def test_mis_maximal_independent():
    rng = random.Random(41)
    for trial in range(20):
        g = random_tree(rng.randrange(10, 200), 4, seed=trial + 900)
        phi = random_valid_weak_coloring(g, 3, 1, seed=trial)
        phi2, _ = weak_to_weak2c(g, phi, 1, 3)
        colors = np.array(list(phi2.values()))
        _, parent = build_pseudoforest(g, colors)
        psi, _ = cole_vishkin_reduce(colors - 1, parent, 6)
        labels = mis_to_weak2(psi + 1, parent)
        mis = set(np.flatnonzero(labels == 1).tolist())
        # brute independence and maximality on the pointer graph
        parent = parent.tolist()
        for v in range(g.n):
            nbrs = [parent[v]] + [u for u in range(g.n) if parent[u] == v]
            if v in mis:
                assert not any(u in mis for u in nbrs)
            else:
                assert any(u in mis for u in nbrs)


def test_pipeline_property():
    from lclsim.bounds import log_star
    rng = random.Random(51)
    for trial in range(40):
        delta = rng.choice([4, 6, 8])
        g = random_tree(rng.randrange(10, 400), delta, seed=trial + 1300)
        c, k = rng.randrange(2, 9), rng.randrange(1, 4)
        phi = random_valid_weak_coloring(g, c, k, seed=trial)
        res = weak_family_to_weak2(g, phi, k, c)
        assert set(res.labels.values()) <= {1, 2}
        assert all(verify_weak_coloring(g, res.labels, 2, 1).values())
        assert res.rounds <= k + log_star(2 * c) + 10


def test_pipeline_locality():
    """Grafting extra structure outside the pipeline's gathering radius
    does not change a node's output (the whole pipeline is one bounded-
    radius local algorithm)."""
    k, c = 1, 2
    g = gen_balanced_tree(3, 13)
    phi = random_valid_weak_coloring(g, c, k, seed=5)
    res = weak_family_to_weak2(g, phi, k, c)
    radius = res.rounds
    # graft a path onto a node beyond the radius from the center
    dist = bfs_distances(g, 0)
    far = next(v for v in range(g.n) if dist[v] > radius and g.degree(v) == 1)
    edges = [(v, u, mp, up) for v in range(g.n)
             for u, mp, up, _, _ in g.half_edges(v) if v < u]
    edges += [(far, g.n, 1, 0), (g.n, g.n + 1, 1, 0)]
    g2 = PortedGraph.from_edges(g.n + 2, edges, delta=3)
    phi2 = dict(phi)
    phi2[g.n] = phi[far] % c + 1
    phi2[g.n + 1] = phi[far]
    res2 = weak_family_to_weak2(g2, phi2, k, c)
    assert res2.labels[0] == res.labels[0]


def test_pipeline_packaged_as_local_algorithm():
    """The whole reduction, re-expressed as a view-to-label rule and run
    through the engine, reproduces the global pipeline node for node: each
    stage is recomputed inside the view on a horizon that shrinks by the
    stage's round cost."""
    from lclsim.engine import run_node_algorithm
    from oracles import induced_subgraph, input_label

    k, c = 1, 2
    g = gen_balanced_tree(3, 5)
    phi = random_valid_weak_coloring(g, c, k, seed=9)
    global_res = weak_family_to_weak2(g, phi, k, c)
    rounds = global_res.rounds

    def rule(view):
        sub, remap = induced_subgraph(view.graph, view.nodes)
        center = remap[view.center_node]
        colors = {remap[v]: input_label(view, v) for v in view.nodes}
        dist = bfs_distances(sub, center)

        def dom(h):
            return [v for v, d in dist.items() if d <= h]

        horizon = rounds - k
        x = {}
        for v in dom(horizon):
            _, d, _ = _closest_other_color(sub, v, colors, k)
            x[v] = (colors[v] - 1) * 2 + d % 2
        horizon -= 1
        parent = {v: next(u for u, _, _ in sub.neighbors(v) if x[u] != x[v])
                  for v in dom(horizon)}
        bound = 2 * c
        while bound > 6:
            horizon -= 1
            x = {v: cole_vishkin_step(x[v], x[parent[v]]) for v in dom(horizon)}
            bound = 2 * max(bound - 1, 1).bit_length()
        if 2 * c > 3:
            for target in (5, 4, 3):
                horizon -= 1
                shifted = {v: x[parent[v]] for v in dom(horizon)}
                horizon -= 1
                new = {}
                for v in dom(horizon):
                    if shifted[v] == target:
                        new[v] = min(set(range(3)) - {shifted[parent[v]], x[v]})
                    else:
                        new[v] = shifted[v]
                x = new
        joined = set()
        for cls in (0, 1, 2):
            horizon -= 1
            for v in dom(horizon):
                nbrs = [parent[v]] + [u for u in parent if parent[u] == v]
                if x[v] == cls and v not in joined and \
                        not any(u in joined for u in nbrs):
                    joined.add(v)
        return 1 if center in joined else 2

    from lclsim.engine import LocalAlgorithm
    alg = LocalAlgorithm(rounds=rounds, kind="node", rule=rule)
    out = run_node_algorithm(g, alg, None, inputs=phi)
    assert out == global_res.labels
    assert all(verify_weak_coloring(g, out, 2, 1).values())


def test_solve_pointer_on_regular_trees():
    for r in (2, 3, 4, 5):
        g = gen_regular_tree(4, r)
        a = Assignment.random(g, 1, seed=r, with_ids=True)
        labels, rounds = solve_pointer_labeling(g, a)
        assert all(verify_pointer_labeling(g, labels, 4).values())
        assert rounds == r
        assert labels[0].d == 1  # chains run toward leaves


def test_solve_pointer_on_cycles():
    for n in (3, 9, 40):
        g = gen_cycle(n)
        a = Assignment.random(g, 1, seed=n, with_ids=True)
        labels, _ = solve_pointer_labeling(g, a)
        assert all(verify_pointer_labeling(g, labels, 2).values())
        assert {lab.d for lab in labels.values()} == {0}
        # the pointers traverse the whole cycle consistently
        v = 0
        for _ in range(n):
            v = g.neighbor_by_port(v, labels[v].port)
        assert v == 0


def test_solve_pointer_local_unlabeled_center():
    g = gen_regular_tree(4, 6)
    a = Assignment.random(g, 1, seed=2, with_ids=True)
    labels = solve_pointer_labeling_local(g, 3, a)
    assert 0 not in labels
    assert all(v in labels for v in range(g.n) if g.degree(v) == 1)


def test_solve_pointer_local_planted_cycle():
    base = gen_balanced_tree(4, 4)
    g = plant_irregularities(base, [("cycle", 2)])
    a = Assignment.random(g, 1, seed=3, with_ids=True)
    labels = solve_pointer_labeling_local(g, 4, a)
    irr = closest_irregularity(g, 0, 2, ids=[a.ids[v] for v in range(g.n)])
    cyc = irr.location
    assert all(labels[v].d == 0 for v in cyc)
    # ring pointers form a consistent orientation
    inside = sum(1 for v in cyc
                 if g.neighbor_by_port(v, labels[v].port) in cyc)
    assert inside == len(cyc)


def test_solve_pointer_requires_ids():
    g = gen_regular_tree(4, 2)
    with pytest.raises(InvalidInputError):
        solve_pointer_labeling(g, Assignment.random(g, 1, seed=0))


@pytest.mark.parametrize("n,edges", [(1, []), (2, [(0, 1, 0, 0)])], ids=["K1", "K2"])
def test_solve_pointer_tree_without_low_degree_node(n, edges):
    """Every node has full degree n - 1 and the tree has no cycle, so no
    node sees an irregularity: the same check and message as on a cyclic
    graph."""
    g = PortedGraph.from_edges(n, edges, delta=n - 1)
    with pytest.raises(InvalidInputError, match="^node 0 sees no irregularity$"):
        solve_pointer_labeling(g, Assignment.random(g, 1, seed=0, with_ids=True))


def test_pointer_terminal_degrees_on_pair():
    for delta in (3, 4):
        t, tp, center = gen_symlower_pair(delta, 3)
        assert pointer_terminal_degrees(t, center) == {1}
        assert pointer_terminal_degrees(tp, center) == {delta - 1}


def test_homogeneous_dispatch_constant_inner():
    g = gen_regular_tree(4, 3)
    a = Assignment.random(g, 1, seed=4, with_ids=True)
    solver = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 1)

    def inner_ok(gg, v, inner):
        return inner.get(v) == 1

    labels = homogeneous_dispatch(g, solver, inner_ok, 1, a)
    from lclsim.problems import verify_homogeneous
    assert all(verify_homogeneous(g, labels, inner_ok, 4).values())
    # interior nodes far from the leaves carry no pointer component
    interior = [v for v, d in bfs_distances(g, 0).items() if d <= 1]
    assert all(labels[v].pointer is None for v in interior)


def test_homogeneous_dispatch_reports_solver_violation():
    g = gen_regular_tree(4, 3)
    a = Assignment.random(g, 1, seed=5, with_ids=True)
    bad_solver = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 2)
    with pytest.raises(PSolverViolation):
        homogeneous_dispatch(g, bad_solver,
                             lambda gg, v, inner: inner.get(v) == 1, 1, a)


def test_dispatch_mixed_instance_with_cycle():
    base = gen_balanced_tree(4, 4)
    g = plant_irregularities(base, [("cycle", 2)])
    a = Assignment.random(g, 1, seed=6, with_ids=True)
    solver = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 1)

    def inner_ok(gg, v, inner):
        return inner.get(v) == 1

    labels = homogeneous_dispatch(g, solver, inner_ok, 1, a)
    from lclsim.problems import verify_homogeneous
    assert all(verify_homogeneous(g, labels, inner_ok, 4).values())


def test_negative_radius_rejected():
    """A negative radius used to label no node (``solve_pointer_labeling_local``)
    or skip the pointer side (``homogeneous_dispatch``) and report success."""
    g = gen_regular_tree(4, 2)
    a = Assignment.random(g, 1, seed=4, with_ids=True)
    with pytest.raises(InvalidParameterError, match="radius r=-1"):
        solve_pointer_labeling_local(g, -1, a)
    solver = LocalAlgorithm(rounds=2, kind="node", rule=lambda view: 1)
    with pytest.raises(InvalidParameterError, match="radius r=-1"):
        homogeneous_dispatch(g, solver, lambda gg, v, inner: inner.get(v) == 1, -1, a)
    labels = solve_pointer_labeling_local(g, 0, a)       # r = 0 stays valid
    assert 0 not in labels and all(g.degree(v) == 1 for v in labels)


def test_homogeneous_dispatch_unhashable_inner_labels():
    """Inner labels that are lists: labels are shared by the identity of
    the inner label, so no inner label is hashed."""
    g = plant_irregularities(gen_balanced_tree(4, 4), [("cycle", 2)])
    a = Assignment.random(g, 1, seed=6, with_ids=True)
    parity = [[0], [1]]
    solver = LocalAlgorithm(rounds=0, kind="node",
                            rule=lambda view: parity[view.center_node % 2])

    def inner_ok(gg, v, inner):
        return inner.get(v) == [v % 2]

    labels = homogeneous_dispatch(g, solver, inner_ok, 1, a)
    pointers = solve_pointer_labeling_local(g, 1, a)
    assert labels == {v: HomogeneousLabel(inner=[v % 2], pointer=pointers.get(v))
                      for v in range(g.n)}
    assert all(verify_homogeneous(g, labels, inner_ok, 4).values())
    # one label object per (inner label, pointer label) pair
    pairs = {(id(lab.inner), lab.pointer) for lab in labels.values()}
    assert len({id(lab) for lab in labels.values()}) == len(pairs)
