"""Seeded input graphs for the pointer-cyclic workload.

The generators are the benchmark's own (standard library only); the program
receives nothing but the graph files they write, in the ``ported-graph`` v1
JSON format that ``PortedGraph.load`` reads.  The same seed always gives the
same files.
"""

import json
import random

DELTA = 4


def near_regular_edges(n, rng):
    """A 4-regular simple graph made from two random Hamiltonian cycles,
    with one random edge removed (so exactly two nodes have degree 3)."""
    while True:
        seen = set()
        edges = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            for i in range(n):
                u, v = perm[i], perm[(i + 1) % n]
                key = (min(u, v), max(u, v))
                if key in seen:
                    break
                seen.add(key)
                edges.append(key)
        if len(edges) == 2 * n:
            edges.pop(rng.randrange(len(edges)))
            return edges


def leafy_edges(n, extra, rng):
    """Random attachment tree (each node joins a random earlier node of
    degree below 4) plus ``extra`` random edges between nodes of degree
    below 4."""
    deg = [0] * n
    edges = []
    seen = set()
    open_nodes = [0]          # nodes of degree < DELTA, swap-removed
    where = {0: 0}

    def close(u):
        i = where.pop(u)
        last = open_nodes.pop()
        if last != u:
            open_nodes[i] = last
            where[last] = i

    for v in range(1, n):
        u = open_nodes[rng.randrange(len(open_nodes))]
        edges.append((u, v))
        seen.add((u, v))
        deg[u] += 1
        deg[v] += 1
        where[v] = len(open_nodes)
        open_nodes.append(v)
        if deg[u] == DELTA:
            close(u)
    added = 0
    while added < extra:
        u = open_nodes[rng.randrange(len(open_nodes))]
        v = open_nodes[rng.randrange(len(open_nodes))]
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append(key)
        added += 1
        for x in key:
            deg[x] += 1
            if deg[x] == DELTA:
                close(x)
    return edges


def write_graph(path, n, edges, rng):
    """Write an unoriented ported graph; each node's ports are a random
    permutation of ``range(degree)``."""
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    port = {}
    for v in range(n):
        ports = list(range(len(incident[v])))
        rng.shuffle(ports)
        for i, p in zip(incident[v], ports):
            port[(i, v)] = p
    rows = sorted([min(u, v), max(u, v), port[(i, min(u, v))],
                   port[(i, max(u, v))], 0, 0]
                  for i, (u, v) in enumerate(edges))
    obj = {"format": "ported-graph", "version": 1, "n": n, "delta": DELTA,
           "edges": rows, "meta": {}}
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))


# (file name, kind, node count, extra edges).  Ten small near-regular graphs
# rather than one large one: solve time varies by about 30% between graphs of
# one size, and larger near-regular graphs make solve-pointers fail on some
# seeds (see bench/README.md)
NEAR_REGULAR_GRAPHS = 10
CYCLIC_INPUTS = tuple(
    (f"near_regular_100_{i}.json", "near-regular", 100, 0)
    for i in range(NEAR_REGULAR_GRAPHS)) + (("leafy_20000.json", "leafy", 20000, 2500),)


def build_cyclic_inputs(directory, seed):
    """Write every pointer-cyclic input graph into ``directory``; returns
    the file paths in workload order."""
    rng = random.Random(seed)
    paths = []
    for name, kind, n, extra in CYCLIC_INPUTS:
        if kind == "near-regular":
            edges = near_regular_edges(n, rng)
        else:
            edges = leafy_edges(n, extra, rng)
        path = f"{directory}/{name}"
        write_graph(path, n, edges, rng)
        paths.append(path)
    return paths
