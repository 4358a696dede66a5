"""Differential tests of the two tree constructions behind the pointer and
lower-bound experiments: irregularity planting and the independent
execution set.

Their earlier dict-and-closure versions are kept here as oracles.  Every
planted graph must have the oracle's node count, delta, meta and CSR
arrays, every rejected spec the oracle's exception class and message, and
every execution set must equal the oracle's.  The one exception is the
oracle's bare ``KeyError`` when a later cut removes an earlier cycle's
anchor: that spec is rejected with ``InvalidParameterError`` now.
"""

import random
from collections import deque

import numpy as np
import pytest

from conftest import random_tree
from lclsim.errors import InvalidInstanceError, InvalidParameterError
from lclsim.graph import (PortedGraph, ball_is_leaf_free, bfs_distances, cycle_detour,
                          edge_key, gen_balanced_tree, gen_regular_tree,
                          independent_execution_set, plant_irregularities)
from lclsim.oriented import ball_paths

# ---------------------------------------------------------------------------
# oracles: the dict-and-closure constructions
# ---------------------------------------------------------------------------


def oracle_plant_irregularities(base, spec):
    center = base.meta.get("center", 0)
    if not spec:
        return PortedGraph._from_columns(base.n, *base.edge_columns(),
                                         delta=base.delta, meta=base.meta)

    dist = bfs_distances(base, center)
    depth = max(dist.values())
    removed = set()
    ring_edges = []
    new_adj = {}
    next_new = [base.n]

    def remove_subtree(root, parent):
        stack = [(root, parent)]
        while stack:
            x, p = stack.pop()
            removed.add(x)
            for w in base.adjacent(x):
                if w != p and w not in removed:
                    stack.append((w, x))

    def pick_node_at(d_target):
        for u in sorted(dist, key=lambda x: (dist[x], x)):
            if dist[u] == d_target and u not in removed:
                kids = [w for w in base.adjacent(u)
                        if dist[w] == dist[u] + 1 and w not in removed]
                if kids:
                    return u, kids
        raise InvalidParameterError(
            f"no node at distance {d_target} with a removable child")

    def fresh_node():
        v = next_new[0]
        next_new[0] += 1
        new_adj[v] = []
        return v

    def ring_degree(p):
        return sum(1 for a, b in ring_edges if a == p or b == p)

    def grow_subtree(root, levels):
        frontier = [root]
        for _ in range(levels):
            nxt = []
            for p in frontier:
                want = base.delta - len(new_adj.get(p, ())) - ring_degree(p)
                for _ in range(want):
                    c = fresh_node()
                    new_adj[p].append(c)
                    new_adj[c].append(p)
                    nxt.append(c)
            frontier = nxt

    for entry in spec:
        kind = entry[0]
        if kind == "low-degree":
            d_target = entry[1]
            if d_target < 0 or d_target >= depth:
                raise InvalidParameterError(
                    f"low-degree distance {d_target} not realizable")
            u, kids = pick_node_at(d_target)
            remove_subtree(kids[-1], u)
        elif kind == "cycle":
            d_target = entry[1]
            length = entry[2] if len(entry) > 2 else 4
            if length < 3:
                raise InvalidParameterError("cycle length must be >= 3")
            anchor_dist = d_target - cycle_detour(length)
            if anchor_dist < 0:
                raise InvalidParameterError(
                    f"length-{length} cycle cannot sit at effective distance {d_target}")
            u, kids = pick_node_at(anchor_dist)
            if len(kids) < 2:
                raise InvalidParameterError(
                    f"anchor at distance {anchor_dist} lacks two spare children")
            remove_subtree(kids[-1], u)
            remove_subtree(kids[-2], u)
            ring = [u]
            for _ in range(length - 1):
                ring.append(fresh_node())
            for a, b in zip(ring, ring[1:] + ring[:1]):
                ring_edges.append((a, b))
            for idx in range(1, length):
                x = ring[idx]
                ring_dist = anchor_dist + min(idx, length - idx)
                levels = depth - ring_dist
                if levels < 0:
                    raise InvalidParameterError("cycle does not fit inside the tree")
                grow_subtree(x, levels)
        else:
            raise InvalidParameterError(f"unknown irregularity kind {kind!r}")

    keep = [v for v in range(base.n) if v not in removed]
    order = [center] + [v for v in keep if v != center] + sorted(new_adj)
    remap = {v: i for i, v in enumerate(order)}
    pair_set = set()
    for v in keep:
        for u in base.adjacent(v):
            if u not in removed:
                pair_set.add(edge_key(remap[v], remap[u]))
    for v, ws in new_adj.items():
        for w in ws:
            pair_set.add(edge_key(remap[v], remap[w]))
    for a, b in ring_edges:
        pair_set.add(edge_key(remap[a], remap[b]))
    edges = []
    port_fill = [0] * len(order)
    for a, b in sorted(pair_set):
        edges.append((a, b, port_fill[a], port_fill[b]))
        port_fill[a] += 1
        port_fill[b] += 1
    if any(p > base.delta for p in port_fill):
        raise InvalidParameterError("spec exceeds the degree bound")
    return PortedGraph.from_edges(len(order), edges, delta=base.delta,
                                  meta={"center": 0})


def direction_index(dim, sign):
    return 2 * (dim - 1) + (0 if sign > 0 else 1)


def direction_of_index(idx):
    return (idx // 2 + 1, +1 if idx % 2 == 0 else -1)


def oracle_independent_execution_set(g, v, t, k):
    if k <= 7:
        raise InvalidParameterError("k must exceed the seed distance 7")
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if not g.oriented:
        raise InvalidInstanceError("independent execution set needs an oriented tree")
    if not ball_is_leaf_free(g, v, k):
        raise InvalidInstanceError(f"radius-{k} ball of {v} contains a leaf")

    parent_dir = {v: None}
    dist = {v: 0}
    q = deque([v])
    while q:
        x = q.popleft()
        if dist[x] >= 7:
            continue
        for u, mp, up, d, s in g.half_edges(x):
            if u not in dist:
                dist[u] = dist[x] + 1
                parent_dir[u] = direction_index(d, -s)
                q.append(u)
    seeds = [u for u, d in dist.items() if d == 7]

    steps = max(0, (k - 7) // (2 * t + 1) - 1)
    stride = 2 * t + 1

    def walk(start, dir_idx):
        x = start
        dim, sign = direction_of_index(dir_idx)
        for _ in range(stride):
            x = g.neighbor_by_direction(x, dim, sign)
            if x is None:
                raise InvalidInstanceError("straight walk left the tree")
        return x

    result = set()
    frontier = [(u, parent_dir[u]) for u in seeds]
    for _ in range(steps):
        nxt = []
        for u, banned in frontier:
            for d in range(g.delta):
                if d == banned:
                    continue
                w = walk(u, d)
                nxt.append((w, d ^ 1))
                result.add(w)
        frontier = nxt
    return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the class and message it raised."""
    try:
        return fn(*args)
    except (InvalidParameterError, InvalidInstanceError, KeyError) as exc:
        return type(exc), str(exc)


def assert_same_graph(got, want):
    assert (got.n, got.delta, got.meta) == (want.n, want.delta, want.meta)
    for a, b in zip(got.csr(), want.csr()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def random_spec(rng, radius):
    spec = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.4:
            spec.append(("low-degree", rng.randrange(-1, radius + 2)))
        elif rng.random() < 0.5:
            spec.append(("cycle", rng.randrange(0, radius + 4)))
        else:
            spec.append(("cycle", rng.randrange(0, radius + 4), rng.randrange(2, 9)))
    return spec


def random_base(rng, delta, radius):
    pick = rng.random()
    if pick < 0.2:
        return random_tree(rng.randrange(20, 120), delta, rng.randrange(10**6))
    if pick < 0.4 and delta % 2 == 0:
        return gen_regular_tree(delta, radius)
    return gen_balanced_tree(delta, radius)


def direction_tree(delta, paths):
    """Oriented tree whose nodes are the prefixes of the given direction
    paths, ports equal to direction slots; the empty path is the center."""
    nodes = sorted({p[:i] for p in paths for i in range(len(p) + 1)},
                   key=lambda p: (len(p), p))
    idx = {p: i for i, p in enumerate(nodes)}
    rows = [(idx[p[:-1]], idx[p], p[-1], p[-1] ^ 1, p[-1] // 2 + 1, 1 - 2 * (p[-1] % 2))
            for p in nodes[1:]]
    return PortedGraph.from_edges(len(nodes), rows, delta=delta,
                                  meta={"center": 0, "oriented": True})


def straight_lines_tree(delta, t, k, drop=0.0, seed=0, first=None):
    """The part of the delta-regular oriented tree an execution set of
    radius k walks: the full radius-7 ball, the straight extension walks
    and a straight tail past radius k after each last walk (so the radius-k
    ball has no leaf).  ``drop`` leaves out that share of the walks, so some
    walk misses its direction; ``first`` keeps only the paths that start
    with one of those directions, so some seeds are missing."""
    rng = random.Random(seed)
    stride = 2 * t + 1
    frontier = [p for p in ball_paths(delta, 7) if len(p) == 7]
    for _ in range(max(0, (k - 7) // stride - 1)):
        frontier = [p + (d,) * stride for p in frontier for d in range(delta)
                    if d != p[-1] ^ 1 and rng.random() >= drop]
    return direction_tree(delta, [p + (p[-1],) * (k + 1 - len(p)) for p in frontier
                                  if first is None or p[0] in first])


# ---------------------------------------------------------------------------
# irregularity planting
# ---------------------------------------------------------------------------


def test_planting_matches_oracle_on_random_specs():
    rng = random.Random(2024)
    raised = {}
    for _ in range(400):
        delta, radius = rng.randrange(3, 6), rng.randrange(3, 6)
        base = random_base(rng, delta, radius)
        spec = random_spec(rng, radius)
        want = outcome(oracle_plant_irregularities, base, spec)
        got = outcome(plant_irregularities, base, spec)
        if isinstance(want, PortedGraph):
            assert_same_graph(got, want)
        elif want[0] is KeyError:
            assert got[0] is InvalidParameterError
        else:
            assert got == want
        kind = "graph" if isinstance(want, PortedGraph) else want[0].__name__
        raised[kind] = raised.get(kind, 0) + 1
    # the sweep reaches built graphs, rejected specs and cut anchors
    assert raised["graph"] >= 100 and raised["InvalidParameterError"] >= 50
    assert raised["KeyError"] >= 1


@pytest.mark.parametrize("spec", [[], [("low-degree", 0)], [("cycle", 2, 3)],
                                  [("cycle", 3, 5), ("cycle", 4, 6), ("low-degree", 1)],
                                  [("cycle", 2), ("cycle", 2), ("low-degree", 2)]])
@pytest.mark.parametrize("delta", [3, 4, 5])
def test_planting_matches_oracle(spec, delta):
    base = gen_balanced_tree(delta, 5)
    want = outcome(oracle_plant_irregularities, base, spec)
    got = outcome(plant_irregularities, base, spec)
    if isinstance(want, PortedGraph):
        assert_same_graph(got, want)
    else:
        assert got == want


def test_cut_cycle_anchor_rejected():
    """The low-degree entry cuts the center's last child subtree, which
    holds node 1, the anchor of the second ring."""
    base = gen_balanced_tree(3, 3)
    spec = [("cycle", 2, 4), ("cycle", 3), ("low-degree", 0)]
    with pytest.raises(KeyError):
        oracle_plant_irregularities(base, spec)
    with pytest.raises(InvalidParameterError, match=r"\('low-degree', 0\) cuts the "
                       r"anchor of the cycle \('cycle', 3\)"):
        plant_irregularities(base, spec)


# ---------------------------------------------------------------------------
# independent execution set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [8, 9, 10, 11])
def test_execution_set_matches_oracle(k):
    g = gen_regular_tree(4, k + 1)
    for t in (1, 2):
        assert independent_execution_set(g, 0, t, k) == \
            oracle_independent_execution_set(g, 0, t, k)


@pytest.mark.parametrize("k,t", [(13, 1), (20, 1), (25, 2), (31, 3)])
def test_execution_set_matches_oracle_on_paths(k, t):
    g = gen_regular_tree(2, k + 1)
    got = independent_execution_set(g, 0, t, k)
    assert got and got == oracle_independent_execution_set(g, 0, t, k)


def test_execution_set_matches_oracle_on_straight_lines():
    g = straight_lines_tree(4, 1, 13)
    got = independent_execution_set(g, 0, 1, 13)
    assert len(got) == 8748 and got == oracle_independent_execution_set(g, 0, 1, 13)
    # the center lacks direction 3: a quarter of the seeds do not exist
    g = straight_lines_tree(4, 1, 13, first=(0, 1, 2))
    got = independent_execution_set(g, 0, 1, 13)
    assert len(got) == 8748 * 3 // 4 and got == oracle_independent_execution_set(g, 0, 1, 13)


@pytest.mark.parametrize("seed", range(3))
def test_execution_set_errors_match_oracle(seed):
    """Dropped walks leave a node without a direction; both versions reject
    the tree with the same message."""
    g = straight_lines_tree(4, 1, 13, drop=0.001, seed=seed)
    want = outcome(oracle_independent_execution_set, g, 0, 1, 13)
    assert want[0] is InvalidInstanceError
    assert outcome(independent_execution_set, g, 0, 1, 13) == want
