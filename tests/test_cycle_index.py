"""The shared cycle index against the per-ball cycle search it replaced.

The oracle below is the per-ball enumeration the pointer solver used before
the index: every simple full-degree cycle of at most 2r nodes inside the
radius-r ball, searched again for every node and radius, and a solver that
grows its radius by doubling and walks a BFS map per target.  The oracle
canonicalises cycles by brute force (the smallest rotation or reflection)
and breaks the last key ties by that tuple.  With ``full_degree_paths`` it
measures and routes toward cycles over full-degree nodes only, as the index
and the solver do; without, over all nodes, as a lone
``closest_irregularity`` call does.
"""

import random
from collections import deque

import pytest

from conftest import brute_canonical_cycle, near_regular_graph, random_graph
from lclsim.algorithms import solve_pointer_labeling, solve_pointer_labeling_local
from lclsim.engine import Assignment
from lclsim.errors import InvalidInputError
from lclsim.graph import (CycleIndex, Irregularity, PortedGraph, _simple_cycles,
                          bfs_distances, canonical_cycle, cycle_detour,
                          gen_balanced_tree, gen_cycle, plant_irregularities)
from lclsim.problems import PointerLabel, verify_pointer_labeling
from oracles import closest_irregularity


# ---------------------------------------------------------------------------
# Oracle: per-ball enumeration
# ---------------------------------------------------------------------------


def oracle_full_degree_cycles(g, nodes, max_len):
    """All simple cycles of full-degree nodes within ``nodes``, as canonical
    tuples (DFS anchored at each cycle's smallest node)."""
    full = sorted(v for v in nodes if g.degree(v) == g.delta)
    full_set = set(full)
    cycles = set()
    for start in full:
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for u in g.adjacent(v):
                if u not in full_set or u < start:
                    continue
                if u == start and len(path) >= 3 and len(path) <= max_len:
                    cycles.add(brute_canonical_cycle(path))
                    continue
                if u in path or len(path) >= max_len:
                    continue
                stack.append((u, path + [u]))
    return cycles


def full_degree_distances(g, v, radius):
    """BFS distances from a full-degree node over full-degree nodes."""
    dist = {v: 0}
    q = deque([v])
    while q:
        x = q.popleft()
        if dist[x] >= radius:
            continue
        for u in g.adjacent(x):
            if u not in dist and g.degree(u) == g.delta:
                dist[u] = dist[x] + 1
                q.append(u)
    return dist


def oracle_cycle(g, v, r, ids, full_degree_paths=False, cache=None):
    """Best cycle of effective distance <= r at v by a search of the ball:
    ``((eff, max id, sorted ids, canonical tuple), Irregularity)`` or None."""
    if full_degree_paths and g.degree(v) < g.delta:
        return None
    dist = bfs_distances(g, v, r)
    nodes = frozenset(dist)
    m = sum(1 for x in nodes for u in g.adjacent(x) if u in nodes and u < x)
    if m < len(nodes):  # the ball is a tree
        return None
    cache = {} if cache is None else cache
    if (nodes, r) not in cache:
        cache[(nodes, r)] = oracle_full_degree_cycles(g, nodes, 2 * r)
    cycles = cache[(nodes, r)]
    if full_degree_paths:
        dist = full_degree_distances(g, v, r)
    best = None
    for cyc in cycles:
        near = [dist[u] for u in cyc if u in dist]
        if not near:
            continue
        eff = min(near) + cycle_detour(len(cyc))
        if eff <= r:
            ids_in = sorted(ids[u] for u in cyc)
            key = (eff, ids_in[-1], tuple(ids_in), cyc)
            if best is None or key < best[0]:
                best = (key, Irregularity("cycle", cyc, eff))
    return best


def oracle_low(g, v, r, ids):
    low = None
    for u, d in bfs_distances(g, v, r).items():
        if g.degree(u) < g.delta:
            key = (d, g.degree(u), ids[u])
            if low is None or key < low[0]:
                low = (key, Irregularity("low-degree", u, d))
    return low


def oracle_closest(g, v, r, ids):
    low = oracle_low(g, v, r, ids)
    cyc = oracle_cycle(g, v, r, ids)
    if cyc is None:
        return None if low is None else low[1]
    if low is None or cyc[1].effective_distance <= low[1].effective_distance:
        return cyc[1]
    return low[1]


def oracle_solve(g, assignment):
    """The solver before the shared index: radius doubling over per-ball
    searches (distances over all nodes, as before), then the local pass at
    the final radius."""
    ids = [assignment.ids[v] for v in range(g.n)]
    cache = {}
    eff = {}
    pending = set(range(g.n))
    r = 1
    while pending:
        for v in list(pending):
            found = [x[1].effective_distance
                     for x in (oracle_low(g, v, r, ids), oracle_cycle(g, v, r, ids, False, cache))
                     if x]
            if found:
                eff[v] = min(found)
                pending.discard(v)
        if pending:
            r *= 2
    r_star = max(eff.values())
    return oracle_solve_local(g, r_star, ids, cache), r_star


def oracle_solve_local(g, r, ids, cache=None):
    cache = {} if cache is None else cache
    irr = {}
    for v in range(g.n):
        if g.degree(v) < g.delta:
            irr[v] = Irregularity("low-degree", v, 0)
            continue
        cyc = oracle_cycle(g, v, r, ids, True, cache)
        low = oracle_low(g, v, r, ids)
        irr[v] = cyc[1] if cyc else (low[1] if low else None)
    dist_maps = {}

    def next_hop(v, key, sources, full_only):
        if key not in dist_maps:
            d = {s: 0 for s in sources}
            q = deque(sources)
            while q:
                x = q.popleft()
                if d[x] > r:
                    continue
                for w in g.adjacent(x):
                    if w not in d and (not full_only or g.degree(w) == g.delta):
                        d[w] = d[x] + 1
                        q.append(w)
            dist_maps[key] = d
        dm = dist_maps[key]
        for w in g.adjacent(v):
            if dm.get(w, -1) == dm[v] - 1:
                return w
        raise AssertionError(f"no descent from {v}")

    labels = {}
    for v in range(g.n):
        what = irr[v]
        if what is None:
            continue
        if g.degree(v) < g.delta:
            labels[v] = PointerLabel(d=g.degree(v), port=None)
        elif what.kind == "cycle":
            cyc = what.location
            w = (oracle_successor(cyc, ids)[v] if v in cyc
                 else next_hop(v, ("cycle", cyc), cyc, True))
            labels[v] = PointerLabel(d=0, port=g.port_toward(v, w))
        else:
            u = what.location
            path = [v]
            while path[-1] != u:
                path.append(next_hop(path[-1], ("node", u), (u,), False))
            zero = any(irr[w].kind == "cycle" for w in path[1:])
            labels[v] = PointerLabel(d=0 if zero else g.degree(u),
                                     port=g.port_toward(v, path[1]))
    return labels


def oracle_successor(cyc, ids):
    k = len(cyc)
    pos = min(range(k), key=lambda i: ids[cyc[i]])
    forward = ids[cyc[(pos + 1) % k]] < ids[cyc[(pos - 1) % k]]
    return {v: cyc[(i + 1) % k] if forward else cyc[(i - 1) % k]
            for i, v in enumerate(cyc)}


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def complete_graph(n, seed=None):
    """K_n, every node of degree n - 1 = delta, so one node set carries
    several cycles and the canonical tuple decides.  Ports are sequential,
    or a random permutation at each node when ``seed`` is given (the cycle
    search then meets the cycles in another order)."""
    rng = random.Random(seed)
    ports = [list(range(n - 1)) for _ in range(n)]
    if seed is not None:
        for p in ports:
            rng.shuffle(p)
    edges = [(u, v, ports[u][v - 1], ports[v][u]) for u in range(n) for v in range(u + 1, n)]
    return PortedGraph.from_edges(n, edges, delta=n - 1)


def planted(spec):
    return plant_irregularities(gen_balanced_tree(4, 4), spec)


FAMILIES = (
    [("random", lambda s=s: random_graph(random.Random(s).randrange(20, 90), 4, seed=s,
                                         extra_edges=random.Random(s).randrange(2, 25)))
     for s in range(8)]
    + [("planted", lambda spec=spec: planted(spec)) for spec in (
        [("cycle", 2)], [("cycle", 3, 5)], [("cycle", 3), ("low-degree", 1)],
        [("cycle", 2, 3), ("cycle", 3, 4)])]
    + [("cycle", lambda n=n: gen_cycle(n)) for n in (3, 5, 8, 13)]
    + [("K5", lambda: complete_graph(5)), ("K4", lambda: complete_graph(4))]
    + [("K5-ports", lambda s=s: complete_graph(5, seed=s)) for s in range(3)]
)


def shuffled_ids(g, seed):
    ids = list(range(1, g.n + 1))
    random.Random(seed).shuffle(ids)
    return ids


def index_cycle(index, v, r):
    """Best cycle of effective distance <= r at v from the index, keyed as
    :func:`oracle_cycle` keys it, or None."""
    index.require({v: r})
    b = index.best[v]
    if b is None or b[0] > r:
        return None
    eff, (max_id, sorted_ids, canon) = b
    return (eff, max_id, sorted_ids, canon), Irregularity("cycle", canon, eff)


@pytest.mark.parametrize("family,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_index_matches_ball_search(family, make):
    g = make()
    ids = shuffled_ids(g, g.n)
    radii = range(1, 5) if g.n < 200 else range(1, 4)
    grown = CycleIndex(g, ids)      # one node and radius at a time
    whole = CycleIndex(g, ids)      # every node at once
    whole.require({v: max(radii) for v in range(g.n) if whole.full[v]})
    cache = {}
    for v in range(g.n):
        for r in radii:
            want = oracle_cycle(g, v, r, ids, True, cache)
            for index in (grown, whole):
                assert index_cycle(index, v, r) == want, (v, r)


@pytest.mark.parametrize("family,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_closest_irregularity_matches_ball_search(family, make):
    g = make()
    ids = shuffled_ids(g, g.n + 1)
    for v in range(g.n):
        for r in range(1, 4):
            assert closest_irregularity(g, v, r, ids=ids) == oracle_closest(g, v, r, ids), (v, r)


def test_k5_tie_broken_by_canonical_tuple():
    g = complete_graph(5)
    ids = [1, 2, 3, 4, 5]
    # at node 4 (id 5) every cycle through it has max id 5; the three
    # 4-cycles on {0, 1, 2, 4} share the smallest id sequence (1, 2, 3, 5),
    # and the smallest canonical tuple decides between them
    want = Irregularity("cycle", (0, 1, 2, 4), 2)
    assert closest_irregularity(g, 4, 2, ids=ids) == want
    assert index_cycle(CycleIndex(g, ids), 4, 2)[1] == want


@pytest.mark.parametrize("g", [complete_graph(5), complete_graph(5, seed=1)]
                         + [random_graph(60, 4, seed=s, extra_edges=12) for s in range(3)],
                         ids=["K5", "K5-ports", "random0", "random1", "random2"])
def test_canonical_cycle_matches_brute_force(g):
    adj = {v: g.adjacent(v) for v in range(g.n)}
    rng = random.Random(g.n)
    checked = 0
    for cyc in _simple_cycles(adj, 3, 8, set(range(g.n))):
        # any rotation and either direction of one cycle gives one tuple
        k = rng.randrange(len(cyc))
        for seq in (cyc[k:] + cyc[:k], (cyc[k:] + cyc[:k])[::-1]):
            assert canonical_cycle(seq) == brute_canonical_cycle(cyc)
        checked += 1
    assert checked > 0


def test_simple_cycles_each_once():
    g = complete_graph(5)
    adj = {v: g.adjacent(v) for v in range(g.n)}
    # K5 has 10 triangles, 15 four-cycles and 12 five-cycles
    every = [canonical_cycle(c) for c in _simple_cycles(adj, 3, 5, set(range(5)))]
    assert sorted(map(len, every)) == [3] * 10 + [4] * 15 + [5] * 12
    assert len(set(every)) == len(every)
    # through node 0: 6 triangles, 12 four-cycles, all 12 five-cycles
    through = [canonical_cycle(c) for c in _simple_cycles(adj, 3, 5, {0})]
    assert len(set(through)) == len(through) == 30
    assert all(0 in c for c in through)


def test_index_skips_lengths_that_cannot_win():
    g = complete_graph(5)
    index = CycleIndex(g, list(range(g.n)))
    index.require({v: 10 for v in range(g.n)})
    # every node lies on a triangle (effective distance 2); a 5-cycle's
    # detour alone is 3, so no 5-cycle is searched for
    assert sorted(len(c) for c in index.keys) == [3] * 10 + [4] * 15


def test_long_girth_takes_few_passes():
    g = gen_cycle(400)
    index = CycleIndex(g, list(range(g.n)))
    index.require({v: 2 * g.n for v in range(g.n)})
    assert list(index.keys) == [tuple(range(400))]
    assert index.passes <= 12
    assert {b[0] for b in index.best} == {200}


# ---------------------------------------------------------------------------
# The solver against the oracle-backed solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solver_matches_oracle_on_near_regular(seed):
    g = near_regular_graph(100, random.Random(seed))
    a = Assignment.random(g, b=1, seed=seed, with_ids=True)
    assert solve_pointer_labeling(g, a) == oracle_solve(g, a)


@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(40, 160), 4, seed=seed, extra_edges=rng.randrange(3, 30))
    a = Assignment.random(g, b=1, seed=seed, with_ids=True)
    labels, rounds = solve_pointer_labeling(g, a)
    assert (labels, rounds) == oracle_solve(g, a)
    assert all(verify_pointer_labeling(g, labels, g.delta).values())
    ids = [a.ids[v] for v in range(g.n)]
    for r in (1, 2, 3):
        assert solve_pointer_labeling_local(g, r, a) == oracle_solve_local(g, r, ids)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_solver_matches_oracle_on_cycles(n):
    g = gen_cycle(n)
    a = Assignment.random(g, b=1, seed=n, with_ids=True)
    assert solve_pointer_labeling(g, a) == oracle_solve(g, a)


@pytest.mark.parametrize("delta,spec,seed,r", [
    (3, [("cycle", 4, 3), ("low-degree", 2)], 26, 3),
    (3, [("low-degree", 3), ("cycle", 5, 5), ("low-degree", 2)], 79, 4),
    (3, [("cycle", 4, 5), ("low-degree", 1), ("low-degree", 1)], 123, 4),
    (4, [("cycle", 5, 3), ("cycle", 4, 5), ("low-degree", 2)], 167, 3),
])
def test_local_solver_matches_oracle_on_planted(delta, spec, seed, r):
    """In these instances some chain toward a low-degree node passes a
    cycle-preferring node two or more steps ahead, so the guess 0 has to
    travel back along the chain."""
    g = plant_irregularities(gen_balanced_tree(delta, 5), spec)
    a = Assignment.random(g, 1, seed=seed, with_ids=True)
    labels = solve_pointer_labeling_local(g, r, a)
    assert labels == oracle_solve_local(g, r, [a.ids[v] for v in range(g.n)])
    happy = verify_pointer_labeling(g, labels, delta)
    assert all(happy[v] for v in labels)


def test_chain_toward_cycle_avoids_low_degree_node():
    """Seed 21, n = 400: node 237 prefers the 4-cycle (25, 76, 250, 351),
    and its shortest path to it runs through node 16 of degree 3.  A chain
    with guess 0 must not step onto that node."""
    rng = random.Random(21)
    near_regular_graph(100, rng)
    g = near_regular_graph(400, rng)
    a = Assignment.random(g, b=1, seed=21, with_ids=True)
    assert g.degree(16) == 3 and 16 in g.adjacent(237)
    labels, rounds = solve_pointer_labeling(g, a)
    assert rounds == 4
    assert all(verify_pointer_labeling(g, labels, 4).values())
    assert labels[237].d == 0
    assert g.neighbor_by_port(237, labels[237].port) != 16


def test_chain_hop_takes_smallest_port():
    """The Petersen graph without edges 1-2 and 4-9, plus edge 2-9 and a
    node 10 of degree 2 on 1 and 4.  Node 0 sees node 10 through both 4
    (port 0) and 1 (port 1); the pointer takes the smaller port, not the
    lower-numbered neighbor."""
    adj = [[4, 1, 5], [0, 6, 10], [3, 7, 9], [2, 4, 8], [3, 0, 10], [0, 7, 8],
           [1, 8, 9], [2, 5, 9], [3, 5, 6], [7, 6, 2], [1, 4]]
    g = PortedGraph.from_edges(11, [(u, v, adj[u].index(v), adj[v].index(u))
                                    for u in range(11) for v in adj[u] if u < v], delta=3)
    a = Assignment.random(g, 1, seed=1, with_ids=True)
    assert solve_pointer_labeling_local(g, 2, a)[0] == PointerLabel(d=2, port=0)


def test_solver_metrics():
    g = near_regular_graph(100, random.Random(5))
    metrics = {}
    _, rounds = solve_pointer_labeling(g, Assignment.random(g, 1, seed=5, with_ids=True),
                                       metrics=metrics)
    assert metrics["radius"] == rounds
    assert metrics["cycles_enumerated"] > 0 and metrics["cycle_search_passes"] > 0


def test_solver_needs_ids():
    g = gen_cycle(5)
    with pytest.raises(InvalidInputError):
        solve_pointer_labeling_local(g, 2, Assignment.random(g, 1, seed=0))
