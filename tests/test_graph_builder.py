"""Differential tests of the numpy CSR builder.

The per-edge Python construction it replaced (fill loop, per-node port
sort, per-node validation, the Python balanced-tree generator, the
hand-built regular-tree CSR and the per-half-edge serializer) is kept here
as the oracle: every graph the builder assembles must have the same arrays,
and every input the oracle rejects must be rejected with the same class.
"""

from array import array

import numpy as np
import pytest

from conftest import pruned_oriented_tree, random_graph, random_tree, relabeled
from lclsim.errors import InvalidInstanceError, InvalidParameterError
from lclsim.graph import (MAX_DELTA, PortedGraph, _balanced_size, bfs_distances,
                          dumps_canonical, gen_balanced_tree, gen_cycle,
                          gen_regular_tree, gen_symlower_pair,
                          plant_irregularities)
from oracles import induced_subgraph

# ---------------------------------------------------------------------------
# oracle: the per-edge construction
# ---------------------------------------------------------------------------


def oracle_from_edges(n, edges, delta=None, meta=None, validate=True):
    deg = [0] * n
    for e in edges:
        deg[e[0]] += 1
        deg[e[1]] += 1
    if delta is None:
        delta = max(deg, default=0)
    indptr = array("i", [0] * (n + 1))
    for v in range(n):
        indptr[v + 1] = indptr[v] + deg[v]
    m2 = indptr[n]
    nbr = array("i", [0] * m2)
    my_port = array("b", [0] * m2)
    nbr_port = array("b", [0] * m2)
    dim_a = array("b", [0] * m2)
    sign_a = array("b", [0] * m2)
    fill = [0] * n
    for e in edges:
        if len(e) == 4:
            u, v, pu, pv = e
            d, s = 0, 0
        else:
            u, v, pu, pv, d, s = e
        iu = indptr[u] + fill[u]
        iv = indptr[v] + fill[v]
        fill[u] += 1
        fill[v] += 1
        nbr[iu], my_port[iu], nbr_port[iu], dim_a[iu], sign_a[iu] = v, pu, pv, d, s
        nbr[iv], my_port[iv], nbr_port[iv], dim_a[iv], sign_a[iv] = u, pv, pu, d, -s
    g = PortedGraph(n, delta, indptr, nbr, my_port, nbr_port, dim_a, sign_a, meta)
    oracle_sort_by_port(g)
    if validate:
        oracle_validate(g)
    return g


def oracle_sort_by_port(g):
    for v in range(g.n):
        lo, hi = g._indptr[v], g._indptr[v + 1]
        if hi - lo <= 1:
            continue
        if all(g._my_port[i] < g._my_port[i + 1] for i in range(lo, hi - 1)):
            continue
        rows = sorted(range(lo, hi), key=lambda i: g._my_port[i])
        for name in ("_nbr", "_my_port", "_nbr_port", "_dim", "_sign"):
            arr = getattr(g, name)
            vals = [arr[i] for i in rows]
            for j, i in enumerate(range(lo, hi)):
                arr[i] = vals[j]


def oracle_validate(g):
    half_by_pair = {}
    for v in range(g.n):
        half = g.half_edges(v)
        ports = [h[1] for h in half]
        if len(set(ports)) != len(ports):
            raise InvalidInstanceError(f"duplicate port at node {v}")
        if any(p < 0 or p >= max(g.delta, 1) for p in ports):
            raise InvalidInstanceError(f"port out of [0,delta) at node {v}")
        if len(half) > g.delta:
            raise InvalidInstanceError(f"degree of {v} exceeds delta")
        nbrs = [h[0] for h in half]
        if v in nbrs:
            raise InvalidInstanceError(f"self-loop at {v}")
        if len(set(nbrs)) != len(nbrs):
            raise InvalidInstanceError(f"parallel edges at {v}")
        dirs = set()
        for u, mp, up, d, s in half:
            half_by_pair[(v, u)] = (mp, up, d, s)
            if d:
                if (d, s) in dirs:
                    raise InvalidInstanceError(f"node {v} has two ({d},{s:+d}) edges")
                dirs.add((d, s))
    for (v, u), (mp, up, d, s) in half_by_pair.items():
        back = half_by_pair.get((u, v))
        if back is None:
            raise InvalidInstanceError(f"edge {v}-{u} missing at {u}")
        bmp, bup, bd, bs = back
        if bmp != up or bup != mp:
            raise InvalidInstanceError(f"port mismatch on edge {v}-{u}")
        if bd != d or (d and bs != -s):
            raise InvalidInstanceError(f"orientation mismatch on edge {v}-{u}")
    if g.n > 0 and len(bfs_distances(g, 0)) != g.n:
        raise InvalidInstanceError("graph is not connected")
    return True


def oracle_to_json_obj(g):
    edges = []
    for v in range(g.n):
        for u, mp, up, d, s in g.half_edges(v):
            if v < u:
                edges.append([v, u, mp, up, d, s])
    edges.sort()
    return {"format": "ported-graph", "version": 1, "n": g.n,
            "delta": g.delta, "edges": edges, "meta": g.meta}


def _oracle_tree_checks(delta, radius):
    if delta > MAX_DELTA:
        raise InvalidParameterError(f"delta bounded to {MAX_DELTA}")
    if radius < 1:
        raise InvalidParameterError("radius must be >= 1")


def oracle_gen_balanced_tree(delta, radius, meta=None):
    if delta < 2:
        raise InvalidParameterError("delta must be >= 2")
    _oracle_tree_checks(delta, radius)
    edges = []
    frontier = [(0, 0)]  # (node, first free port)
    next_id = 1
    for _ in range(radius):
        nxt = []
        for v, port0 in frontier:
            for p in range(port0, delta):
                u = next_id
                next_id += 1
                edges.append((v, u, p, 0))
                nxt.append((u, 1))
        frontier = nxt
    return oracle_from_edges(next_id, edges, delta=delta,
                             meta=dict(meta or {}, center=0), validate=False)


def oracle_gen_regular_tree(delta, radius, meta=None):
    if delta <= 0 or delta % 2 != 0:
        raise InvalidParameterError("delta must be a positive even integer")
    _oracle_tree_checks(delta, radius)
    n = _balanced_size(delta, radius)
    parent = np.zeros(n, dtype=np.int32)
    pdir = np.zeros(n, dtype=np.int8)  # direction slot at the parent
    parent[1:1 + delta] = 0
    pdir[1:1 + delta] = np.arange(delta, dtype=np.int8)
    size = delta
    start = 1
    for _ in range(1, radius):
        level = np.arange(start, start + size, dtype=np.int32)
        indir = pdir[level] ^ 1
        dirs = np.tile(np.arange(delta, dtype=np.int8), (size, 1))
        mask = dirs != indir[:, None]
        child_dirs = dirs[mask]
        parents_flat = np.repeat(level, delta - 1)
        nxt_start = start + size
        nxt_size = size * (delta - 1)
        ids = np.arange(nxt_start, nxt_start + nxt_size, dtype=np.int32)
        parent[ids] = parents_flat
        pdir[ids] = child_dirs
        start, size = nxt_start, nxt_size
    leaf_start = start

    deg = np.full(n, delta, dtype=np.int64)
    deg[leaf_start:] = 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    m2 = int(indptr[n])
    nbr = np.zeros(m2, dtype=np.int32)
    my_port = np.zeros(m2, dtype=np.int8)
    nbr_port = np.zeros(m2, dtype=np.int8)
    dim_a = np.zeros(m2, dtype=np.int8)
    sign_a = np.zeros(m2, dtype=np.int8)

    u = np.arange(1, n, dtype=np.int64)
    v = parent[u].astype(np.int64)
    d = pdir[u].astype(np.int64)
    slot_v = indptr[v] + d
    rank_u = np.where(u >= leaf_start, 0, d ^ 1)
    slot_u = indptr[u] + rank_u
    dim_val = (d // 2 + 1).astype(np.int8)
    sign_v = np.where(d % 2 == 0, 1, -1).astype(np.int8)
    nbr[slot_v] = u
    my_port[slot_v] = d
    nbr_port[slot_v] = d ^ 1
    dim_a[slot_v] = dim_val
    sign_a[slot_v] = sign_v
    nbr[slot_u] = v
    my_port[slot_u] = d ^ 1
    nbr_port[slot_u] = d
    dim_a[slot_u] = dim_val
    sign_a[slot_u] = -sign_v
    return PortedGraph(
        n, delta,
        array("i", indptr.astype(np.int32).tobytes()),
        array("i", nbr.tobytes()), array("b", my_port.tobytes()),
        array("b", nbr_port.tobytes()), array("b", dim_a.tobytes()),
        array("b", sign_a.tobytes()),
        meta=dict(meta or {}, center=0, oriented=True))


def oracle_gen_symlower_pair(delta, r):
    t_graph = oracle_gen_balanced_tree(delta, r)
    dist = bfs_distances(t_graph, 0)
    moved = {}  # detached leaf -> host leaf
    for u in range(t_graph.n):
        if dist[u] != r - 1:
            continue
        kids = sorted((mp, w) for w, mp, _ in t_graph.neighbors(u) if dist[w] == r)
        moved[kids[-1][1]] = kids[0][1]
    edges = []
    for v in range(t_graph.n):
        for u, mp, up in t_graph.neighbors(v):
            if v >= u:
                continue
            if u in moved and dist[u] == r:
                continue
            if v in moved and dist[v] == r:
                continue
            edges.append((v, u, mp, up))
    for leaf, host in moved.items():
        edges.append((host, leaf, 1, 0))
    t_prime = oracle_from_edges(t_graph.n, edges, delta=delta, meta={"center": 0})
    return t_graph, t_prime, 0


def oracle_induced_subgraph(g, nodes):
    order = sorted(nodes)
    remap = {v: i for i, v in enumerate(order)}
    edges = []
    for v in order:
        for u, mp, up, d, s in g.half_edges(v):
            if u in remap and v < u:
                edges.append((remap[v], remap[u], mp, up, d, s))
    return oracle_from_edges(len(order), edges, delta=g.delta), remap


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def assert_same_graph(got, want):
    assert (got.n, got.delta, got.meta) == (want.n, want.delta, want.meta)
    for a, b in zip(got.csr(), want.csr()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.fixture
def builds(monkeypatch):
    """Records every graph the builder assembles next to the oracle's build
    of the same edge rows."""
    seen = []
    real = PortedGraph._from_columns.__func__

    def spy(cls, n, *cols, delta=None, meta=None, validate=True):
        g = real(cls, n, *cols, delta=delta, meta=meta, validate=validate)
        rows = [tuple(int(x) for x in row) for row in zip(*cols)]
        seen.append((g, oracle_from_edges(n, rows, delta, meta, validate)))
        return g

    monkeypatch.setattr(PortedGraph, "_from_columns", classmethod(spy))
    return seen


# ---------------------------------------------------------------------------
# identical arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [1, 3])
def test_balanced_tree_matches_oracle(delta, radius):
    assert_same_graph(gen_balanced_tree(delta, radius, meta={"tag": 1}),
                      oracle_gen_balanced_tree(delta, radius, meta={"tag": 1}))


@pytest.mark.parametrize("delta,radius", [(2, 5), (4, 1), (4, 3), (6, 2)])
def test_regular_tree_matches_oracle(delta, radius):
    assert_same_graph(gen_regular_tree(delta, radius),
                      oracle_gen_regular_tree(delta, radius))


def test_regular_tree_save_byte_identical(tmp_path):
    path = tmp_path / "tree.json"
    gen_regular_tree(4, 10).save(path)
    want = dumps_canonical(oracle_to_json_obj(oracle_gen_regular_tree(4, 10)))
    assert path.read_text() == want


@pytest.mark.parametrize("delta,r", [(3, 2), (3, 3), (4, 2), (5, 3)])
def test_symlower_pair_matches_oracle(delta, r):
    for got, want in zip(gen_symlower_pair(delta, r)[:2],
                         oracle_gen_symlower_pair(delta, r)[:2]):
        assert_same_graph(got, want)


def test_induced_subgraph_matches_oracle():
    for g in (gen_regular_tree(4, 3), random_graph(80, 4, seed=2)):
        nodes = set(bfs_distances(g, 3, 2))
        got, got_map = induced_subgraph(g, nodes)
        want, want_map = oracle_induced_subgraph(g, nodes)
        assert got_map == want_map
        assert_same_graph(got, want)


@pytest.mark.parametrize("spec", [[], [("low-degree", 2)], [("cycle", 2)],
                                  [("cycle", 3, 5), ("low-degree", 1)]])
def test_planted_graphs_match_oracle(builds, spec):
    base = gen_balanced_tree(4, 4)
    g = plant_irregularities(base, spec)
    assert builds[-1][0] is g
    for got, want in builds:
        assert_same_graph(got, want)


def test_random_graphs_match_oracle(builds):
    for seed in range(4):
        random_tree(60, 3, seed)
        g = random_graph(70, 4, seed)
        relabeled(g, seed + 10)
        pruned_oriented_tree(4, 4, seed)
    gen_cycle(9)
    assert len(builds) >= 17
    for got, want in builds:
        assert_same_graph(got, want)


def test_save_matches_oracle_serializer():
    for g in (relabeled(random_graph(50, 4, seed=3), seed=4)[0],
              pruned_oriented_tree(4, 4, seed=1), gen_cycle(7)):
        assert dumps_canonical(g.to_json_obj()) == dumps_canonical(oracle_to_json_obj(g))


# ---------------------------------------------------------------------------
# identical rejections
# ---------------------------------------------------------------------------


REJECTED_EDGES = [
    (3, [(0, 1, 0, 0), (1, 2, 0, 0)], 2),                  # port reused at node 1
    (4, [(0, 1, 0, 0), (2, 3, 0, 0)], 2),                  # disconnected
    (2, [(0, 1, 0, 0), (0, 1, 1, 1)], 2),                  # parallel edge
    (3, [(0, 1, 0, 0, 1, 1), (0, 2, 1, 0, 1, 1)], 2),      # two (1,+) edges at 0
    (2, [(0, 0, 0, 1), (0, 1, 2, 0)], 3),                  # self-loop
    (3, [(0, 1, 0, 0), (1, 2, 1, 2)], 2),                  # port >= delta
    (4, [(0, 1, 0, 0), (0, 2, 1, 0), (0, 3, 2, 0)], 2),    # degree > delta
]


@pytest.mark.parametrize("n,edges,delta", REJECTED_EDGES)
def test_rejections_match_oracle(n, edges, delta):
    with pytest.raises(InvalidInstanceError):
        oracle_from_edges(n, edges, delta=delta)
    with pytest.raises(InvalidInstanceError):
        PortedGraph.from_edges(n, edges, delta=delta)


@pytest.mark.parametrize("name,args", [
    ("regular", (3, 2)), ("regular", (0, 2)), ("regular", (4, 0)),
    ("balanced", (1, 2)), ("balanced", (4, 0)), ("balanced", (MAX_DELTA + 1, 1)),
])
def test_generator_rejections_match_oracle(name, args):
    new, old = {"regular": (gen_regular_tree, oracle_gen_regular_tree),
                "balanced": (gen_balanced_tree, oracle_gen_balanced_tree)}[name]
    with pytest.raises(InvalidParameterError):
        old(*args)
    with pytest.raises(InvalidParameterError):
        new(*args)


@pytest.mark.parametrize("field,change", [
    (1, lambda x: 0),            # neighbor
    (2, lambda x: (x + 1) % 4),  # own port
    (3, lambda x: (x + 1) % 4),  # port claimed at the far end
    (4, lambda x: 3 - x),        # dimension
    (5, lambda x: -x),           # sign
])
def test_validate_rejections_match_oracle(field, change):
    # corrupt the last half-edge: a leaf's only edge, so every change breaks
    # reciprocity alone (no duplicate port or direction at the leaf)
    g = gen_regular_tree(4, 2)
    parts = [array(a.typecode, a) for a in (g._indptr, g._nbr, g._my_port,
                                             g._nbr_port, g._dim, g._sign)]
    parts[field][-1] = change(parts[field][-1])
    bad = PortedGraph(g.n, g.delta, *parts, meta=g.meta)
    with pytest.raises(InvalidInstanceError):
        oracle_validate(bad)
    with pytest.raises(InvalidInstanceError):
        bad.validate()
