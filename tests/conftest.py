"""Shared random-instance builders for the test suite."""

import random
from bisect import bisect_left

from lclsim.graph import PortedGraph, edge_key, gen_regular_tree


def _attachment_tree(n, delta, rng, deg):
    """Edges ``[u, v, port_u, 0]`` of a random attachment tree: node v joins
    a uniformly chosen open node (degree below delta, or the newest).

    ``open_nodes`` is ascending (nodes are appended in increasing order),
    so a full node is found by bisection: ``list.remove`` compared its way
    along the list and made large trees quadratic.  The list, and so every
    ``rng.choice`` draw, is the same."""
    edges = []
    open_nodes = [0]
    for v in range(1, n):
        u = rng.choice(open_nodes)
        edges.append([u, v, deg[u], 0])
        deg[u] += 1
        deg[v] = 1
        if deg[u] >= delta:
            del open_nodes[bisect_left(open_nodes, u)]
        open_nodes.append(v)
    return edges


def random_tree(n, delta, seed):
    """Random attachment tree with maximum degree delta, sequential ports."""
    rng = random.Random(seed)
    edges = _attachment_tree(n, delta, rng, [0] * n)
    return PortedGraph.from_edges(n, [tuple(e) for e in edges], delta=delta,
                                  meta={"center": 0})


def random_graph(n, delta, seed, extra_edges=None):
    """Random connected graph with maximum degree delta: a random tree plus
    extra edges wherever degrees allow."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = _attachment_tree(n, delta, rng, deg)
    pairs = {edge_key(u, v) for u, v, _, _ in edges}
    if extra_edges is None:
        extra_edges = max(1, n // 8)
    tries = 0
    added = 0
    while added < extra_edges and tries < 50 * extra_edges:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or edge_key(u, v) in pairs:
            continue
        if deg[u] >= delta or deg[v] >= delta:
            continue
        edges.append([u, v, deg[u], deg[v]])
        pairs.add(edge_key(u, v))
        deg[u] += 1
        deg[v] += 1
        added += 1
    return PortedGraph.from_edges(n, [tuple(e) for e in edges], delta=delta,
                                  meta={"center": 0})


def pruned_oriented_tree(delta, radius, seed, keep_fraction=0.7):
    """Random subtree of the balanced oriented tree: repeatedly drop leaves;
    orientation labels survive on the remaining edges."""
    g = gen_regular_tree(delta, radius)
    rng = random.Random(seed)
    alive = set(range(g.n))
    target = max(delta + 2, int(g.n * keep_fraction))
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    while len(alive) > target and leaves:
        v = leaves.pop(rng.randrange(len(leaves)))
        if v == 0 or v not in alive:
            continue
        nbrs = [u for u in g.adjacent(v) if u in alive]
        if len(nbrs) != 1:
            continue
        alive.discard(v)
        u = nbrs[0]
        if sum(1 for w in g.adjacent(u) if w in alive) == 1:
            leaves.append(u)
    remap = {v: i for i, v in enumerate(sorted(alive))}
    edges = []
    for v in sorted(alive):
        for u, mp, up, d, s in g.half_edges(v):
            if u in alive and v < u:
                edges.append((remap[v], remap[u], mp, up, d, s))
    return PortedGraph.from_edges(len(alive), edges, delta=delta,
                                  meta={"center": 0, "oriented": True})


def relabeled(g, seed):
    """Same graph with permuted node ids (ports and orientation kept)."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = []
    for v in range(g.n):
        for u, mp, up, d, s in g.half_edges(v):
            if v < u:
                edges.append((perm[v], perm[u], mp, up, d, s))
    return PortedGraph.from_edges(g.n, edges, delta=g.delta), perm


def near_regular_graph(n, rng):
    """4-regular simple graph made from two random Hamiltonian cycles, with
    one random edge removed (so exactly two nodes have degree 3); each
    node's ports are a random permutation of ``range(degree)``.  Draws from
    ``rng`` in a fixed order, so one seed always gives one graph."""
    while True:
        seen = set()
        pairs = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            for i in range(n):
                key = edge_key(perm[i], perm[(i + 1) % n])
                if key in seen:
                    break
                seen.add(key)
                pairs.append(key)
        if len(pairs) == 2 * n:
            pairs.pop(rng.randrange(len(pairs)))
            break
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    port = {}
    for v in range(n):
        ports = list(range(len(incident[v])))
        rng.shuffle(ports)
        for i, p in zip(incident[v], ports):
            port[(i, v)] = p
    edges = [(u, v, port[(i, u)], port[(i, v)]) for i, (u, v) in enumerate(pairs)]
    return PortedGraph.from_edges(n, edges, delta=4)


def brute_canonical_cycle(nodes):
    """Canonical tuple of a cycle by brute force: the smallest of all its
    rotations and reflections."""
    seq = list(nodes)
    return min(tuple(d[s:] + d[:s]) for d in (seq, seq[::-1]) for s in range(len(seq)))
