"""The shared random-instance builders draw the same graphs as the
``list.remove`` versions they replaced (kept here as the oracle): removing
a full node by bisection leaves the same ascending open-node list, so
every ``rng.choice`` draw and every edge stays the same."""

import random

import numpy as np
import pytest

from conftest import random_graph, random_tree
from lclsim.graph import PortedGraph, edge_key


def oracle_random_tree(n, delta, seed):
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    open_nodes = [0]
    for v in range(1, n):
        u = rng.choice(open_nodes)
        edges.append((u, v, deg[u], 0))
        deg[u] += 1
        deg[v] = 1
        if deg[u] >= delta:
            open_nodes.remove(u)
        open_nodes.append(v)
    return PortedGraph.from_edges(n, edges, delta=delta, meta={"center": 0})


def oracle_random_graph(n, delta, seed, extra_edges=None):
    rng = random.Random(seed)
    deg = [0] * n
    pairs = set()
    edges = []
    open_nodes = [0]
    for v in range(1, n):
        u = rng.choice(open_nodes)
        edges.append([u, v, deg[u], 0])
        pairs.add(edge_key(u, v))
        deg[u] += 1
        deg[v] = 1
        if deg[u] >= delta:
            open_nodes.remove(u)
        open_nodes.append(v)
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


def same_graph(a, b):
    return (a.n, a.delta, a.meta) == (b.n, b.delta, b.meta) and all(
        np.array_equal(x, y) for x, y in zip(a.csr(), b.csr()))


@pytest.mark.parametrize("seed", [0, 1, 7, 500, 549])
@pytest.mark.parametrize("n,delta", [(2, 2), (30, 3), (400, 4), (3000, 4), (500, 8), (20000, 4)])
def test_random_tree_matches_list_helper(seed, n, delta):
    assert same_graph(random_tree(n, delta, seed), oracle_random_tree(n, delta, seed))


@pytest.mark.parametrize("seed", [0, 3, 500, 543])
@pytest.mark.parametrize("n,delta,extra", [(30, 4, None), (900, 4, 150), (2000, 3, 0),
                                           (600, 6, 300)])
def test_random_graph_matches_list_helper(seed, n, delta, extra):
    assert same_graph(random_graph(n, delta, seed, extra_edges=extra),
                      oracle_random_graph(n, delta, seed, extra_edges=extra))
