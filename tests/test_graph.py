import json
import random

import numpy as np
import pytest

from conftest import (brute_canonical_cycle, pruned_oriented_tree, random_graph,
                      random_tree, relabeled)
from lclsim.errors import InvalidInstanceError, InvalidParameterError
from lclsim.graph import (PortedGraph, bfs_distances, cycle_detour,
                          gen_balanced_tree, gen_cycle, gen_regular_tree,
                          gen_symlower_pair, independent_execution_set,
                          plant_irregularities)
from lclsim.views import extract_view
from oracles import _int_rows, closest_irregularity, distance


def test_regular_tree_counts():
    assert gen_regular_tree(4, 1).n == 5
    assert gen_regular_tree(4, 2).n == 1 + 4 + 4 * 3
    g = gen_regular_tree(6, 2)
    assert g.n == 1 + 6 + 6 * 5
    assert {d for _, _, _, d, _ in g.half_edges(0)} == {1, 2, 3}


def test_regular_tree_star_directions():
    g = gen_regular_tree(4, 1)
    # center carries one (d,+) and one (d,-) edge per dimension
    dirs = {(d, s) for _, _, _, d, s in g.half_edges(0)}
    assert dirs == {(1, 1), (1, -1), (2, 1), (2, -1)}
    g.validate()


def test_regular_tree_orientation_consistency():
    g = gen_regular_tree(4, 3)
    g.validate()
    for v, u in g.edges():
        d, s = g.orientation_at(v, u)
        d2, s2 = g.orientation_at(u, v)
        assert d == d2 and s == -s2


def test_invalid_tree_parameters():
    with pytest.raises(InvalidParameterError):
        gen_regular_tree(3, 2)
    with pytest.raises(InvalidParameterError):
        gen_regular_tree(0, 2)
    with pytest.raises(InvalidParameterError):
        gen_regular_tree(4, 0)


def test_cycle_generator():
    g = gen_cycle(3)
    assert g.n == 3 and all(g.degree(v) == 2 for v in range(3))
    assert cycle_detour(4) == 2
    assert cycle_detour(5) == 3
    with pytest.raises(InvalidParameterError):
        gen_cycle(2)


def test_validate_rejects_port_mismatch():
    with pytest.raises(InvalidInstanceError):
        PortedGraph.from_edges(3, [(0, 1, 0, 0), (1, 2, 0, 0)], delta=2)


def test_validate_rejects_disconnected():
    with pytest.raises(InvalidInstanceError):
        PortedGraph.from_edges(4, [(0, 1, 0, 0), (2, 3, 0, 0)], delta=2)


def test_serialization_round_trip_bit_exact(tmp_path):
    g = gen_regular_tree(4, 2)
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    g.save(p1)
    g2 = PortedGraph.load(p1)
    g2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert g2.n == g.n and g2.delta == g.delta


def test_symlower_pair_counts_and_views():
    t, tp, center = gen_symlower_pair(3, 2)
    assert t.n == tp.n == 10
    assert t.edge_count() == tp.edge_count()

    t4, tp4, c4 = gen_symlower_pair(4, 2)
    assert extract_view(t4, c4, 0).encoding == extract_view(tp4, c4, 0).encoding

    t3, tp3, c3 = gen_symlower_pair(3, 3)
    assert extract_view(t3, c3, 1).encoding == extract_view(tp3, c3, 1).encoding
    # at radius r-1 the degree change at distance r-1 becomes visible
    assert extract_view(t3, c3, 2).encoding != extract_view(tp3, c3, 2).encoding


def test_view_counting():
    g = gen_regular_tree(4, 2)
    v0 = extract_view(g, 0, 0)
    assert v0.nodes == frozenset({0})
    # a radius-0 view still carries the center's degree and payload slot
    assert v0.encoding == ("N", ((4, None, None, None), ()))
    edge = (0, g.adjacent(0)[0])
    ve = extract_view(g, edge, 1)
    assert len(ve.nodes) == 8


def test_view_isomorphism_invariance():
    g = random_tree(40, 4, seed=5)
    h, perm = relabeled(g, seed=6)
    for v in (0, 3, 17):
        assert extract_view(g, v, 2).encoding == extract_view(h, perm[v], 2).encoding


def test_view_payload_access_restricted():
    g = gen_regular_tree(4, 2)
    view = extract_view(g, 0, 1)
    far_leaf = max(range(g.n))
    with pytest.raises(KeyError):
        view.payload(far_leaf)


def test_closest_irregularity_regular_ball():
    g = gen_regular_tree(4, 5)
    assert closest_irregularity(g, 0, 3) is None


def test_closest_irregularity_leaves():
    g = gen_regular_tree(4, 2)
    irr = closest_irregularity(g, 0, 3)
    assert irr.kind == "low-degree" and irr.effective_distance == 2


def test_closest_irregularity_planted_cycle():
    base = gen_balanced_tree(4, 4)
    g = plant_irregularities(base, [("cycle", 2)])
    irr = closest_irregularity(g, 0, 2)
    assert irr.kind == "cycle" and irr.effective_distance == 2
    assert 0 in irr.location


def _oracle_closest(g, v, r, ids=None):
    """Independent brute force: whole-graph cycle enumeration by simple
    DFS over vertex sequences, plus a full BFS for low-degree nodes."""
    if ids is None:
        ids = list(range(g.n))
    dist = bfs_distances(g, v)
    candidates = []
    for u, d in dist.items():
        if g.degree(u) < g.delta and d <= r:
            candidates.append((d, 1, g.degree(u), ids[u],
                               ("low-degree", u, d)))
    cycles = set()

    def walk(path, banned):
        last = path[-1]
        for u in g.adjacent(last):
            if u == path[0] and len(path) >= 3:
                cycles.add(brute_canonical_cycle(path))
            if u in banned or u in path or len(path) >= 2 * r:
                continue
            if g.degree(u) != g.delta:
                continue
            walk(path + [u], banned)

    for s in range(g.n):
        if g.degree(s) == g.delta:
            walk([s], set(range(s)))
    for cyc in cycles:
        eff = min(dist[u] for u in cyc) + cycle_detour(len(cyc))
        if eff <= r:
            candidates.append((eff, 0, max(ids[u] for u in cyc),
                               tuple(sorted(ids[u] for u in cyc)),
                               ("cycle", cyc, eff)))
    if not candidates:
        return None
    return min(candidates)[-1]


def test_closest_irregularity_matches_oracle():
    rng = random.Random(0)
    for trial in range(45):
        n = rng.randrange(120, 200) if trial >= 40 else rng.randrange(8, 60)
        g = random_graph(n, 4, seed=trial, extra_edges=rng.randrange(0, 4))
        v = rng.randrange(n)
        r = rng.randrange(1, 4)
        got = closest_irregularity(g, v, r)
        want = _oracle_closest(g, v, r)
        if want is None:
            assert got is None
        else:
            kind, loc, eff = want
            assert got.kind == kind
            assert got.effective_distance == eff
            if kind == "cycle":
                assert got.location == loc
            else:
                assert got.location == loc


def test_plant_low_degree():
    base = gen_balanced_tree(4, 3)
    g = plant_irregularities(base, [("low-degree", 2)])
    irr = closest_irregularity(g, 0, 3)
    assert irr.kind == "low-degree" and irr.effective_distance == 2


def test_plant_empty_spec_identity(tmp_path):
    base = gen_regular_tree(4, 2)
    g = plant_irregularities(base, [])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    base.save(pa)
    g.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_plant_unrealizable_rejected():
    base = gen_balanced_tree(4, 2)
    with pytest.raises(InvalidParameterError):
        plant_irregularities(base, [("cycle", 1)])
    with pytest.raises(InvalidParameterError):
        plant_irregularities(base, [("low-degree", 9)])


def test_independent_execution_set_errors():
    g = gen_regular_tree(4, 3)
    with pytest.raises(InvalidParameterError):
        independent_execution_set(g, 0, 1, 7)
    with pytest.raises(InvalidInstanceError):
        independent_execution_set(g, 0, 1, 8)  # ball has leaves


def test_independent_execution_set_small():
    g = gen_regular_tree(4, 9)
    shell7 = sum(1 for d in bfs_distances(g, 0, 7).values() if d == 7)
    assert shell7 == 4 * 3**6
    s = independent_execution_set(g, 0, 1, 8)
    assert s == set()  # no extension step fits below k = 13


def test_distance_helper():
    g = gen_cycle(6)
    assert distance(g, 0, 3) == 3


@pytest.mark.parametrize("row", [(0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, -1)],
                         ids=["dim-unsigned", "signed-unoriented+", "signed-unoriented-"])
def test_orientation_label_needs_dim_and_sign_together(row):
    """An edge is oriented iff it has both a dimension and a sign: a
    dimension with sign 0 used to load with both ends reading (1, 0)."""
    with pytest.raises(InvalidInstanceError, match="orientation label out of range"):
        PortedGraph.from_edges(2, [row])
    with pytest.raises(InvalidInstanceError, match="orientation label out of range"):
        PortedGraph.from_edges(3, [(0, 1, 0, 0, 1, 1), (1, 2, 1, 0) + row[4:]])


def test_every_generator_output_loads(tmp_path):
    """The orientation check passes every graph the generators build, after
    a save and a load."""
    t, tp, _ = gen_symlower_pair(3, 3)
    base = gen_balanced_tree(4, 4)
    graphs = {
        "regular-tree": gen_regular_tree(4, 3), "regular-tree-6": gen_regular_tree(6, 2),
        "balanced-tree": gen_balanced_tree(3, 3), "cycle": gen_cycle(7),
        "symlower-t": t, "symlower-tprime": tp,
        "planted": plant_irregularities(base, [("cycle", 2), ("low-degree", 3)]),
        "planted-empty": plant_irregularities(gen_regular_tree(4, 2), []),
        "random-tree": random_tree(40, 4, 1), "random-graph": random_graph(40, 4, 2),
        "pruned-oriented": pruned_oriented_tree(4, 3, 3),
        "relabeled": relabeled(gen_regular_tree(4, 2), 4)[0],
    }
    for name, g in graphs.items():
        path = tmp_path / f"{name}.json"
        g.save(path)
        loaded = PortedGraph.load(path)
        assert loaded.n == g.n and loaded.oriented == g.oriented, name
        assert [x.tolist() for x in loaded.csr()] == [x.tolist() for x in g.csr()], name


# ---------------------------------------------------------------------------
# loading edge rows without nested lists
# ---------------------------------------------------------------------------


def write_graph_file(path, n, edges, delta=2):
    path.write_text(json.dumps({"format": "ported-graph", "version": 1, "n": n,
                                "delta": delta, "edges": edges, "meta": {}}))
    return path


GOOD_ROWS = [[0, 1, 0, 0], [1, 2, 1, 0], [2, 3, 1, 0]]


@pytest.mark.parametrize("edges", [
    [[0, 1, 0, 0], [1, 2, 1, 0, 0, 0], [2, 3, 1, 0]],        # ragged rows
    [[0, 1, 0], [1, 2, 1], [2, 3, 1]],                        # 3 columns
    [[0, 1, 0, 0, 0], [1, 2, 1, 0, 0], [2, 3, 1, 0, 0]],      # 5 columns
    [[0, 1, 0, 0], [1, 2, 1.5, 0], [2, 3, 1, 0]],             # a fraction
    [[0, 1, 0, 0], [1, 2, 1.0, 0], [2, 3, 1, 0]],             # an integral float
    [[0, 1, 0, 0], [1, 2, "1", 0], [2, 3, 1, 0]],             # a string
    [[0, 1, 0, 0], [1, 2, None, 0], [2, 3, 1, 0]],            # null
    [[0, 1, 0, 0], [1, 2, [1], 0], [2, 3, 1, 0]],             # a nested list
    [[0, 1, 0, 0], [1, 2, 2**70, 0], [2, 3, 1, 0]],           # past int64
    [[False, True, False, False]],                            # booleans only
    [[0, 1, 0, 0], 5],                                        # a row that is no list
    [[0, 1, True, 0]],                                        # a boolean among ints
])
def test_load_rejects_what_the_nested_conversion_rejects(tmp_path, edges):
    path = write_graph_file(tmp_path / "g.json", 4, edges)
    with pytest.raises(InvalidInstanceError, match="edges must be integer rows"):
        PortedGraph.load(path)
    with pytest.raises(InvalidInstanceError, match="edges must be integer rows"):
        PortedGraph.from_edges(4, edges, delta=2)


@pytest.mark.parametrize("edges", [GOOD_ROWS, [[0, 1, 0, 0]], []])
def test_load_reads_rows_as_the_nested_conversion(tmp_path, edges):
    n = 1 + max((max(row[:2]) for row in edges), default=0)
    path = write_graph_file(tmp_path / "g.json", n, edges)
    loaded = PortedGraph.load(path)
    want = PortedGraph.from_edges(n, edges, delta=2)
    assert [x.tolist() for x in loaded.csr()] == [x.tolist() for x in want.csr()]


def test_int_rows_reads_integer_rows_flat():
    rows = _int_rows(GOOD_ROWS)
    assert rows.dtype == np.int64 and rows.tolist() == GOOD_ROWS
    assert _int_rows([[0, 1, 0, 0], [1, 2, 1.0, 0]]) is None
