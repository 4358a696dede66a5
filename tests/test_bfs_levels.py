"""Differential tests of the one whole-graph BFS over the CSR arrays
(``graph.bfs_levels``) and the checks built on it.

The dict BFS (``bfs_distances``) and the leaf-free check over it
(``oracles.ball_is_leaf_free_dict``) are the oracles: every source and
radius must give the same distances, the same leaf-free verdict and the
same connectivity verdict.  The seeded coloring's parity fallback reads
BFS depths too and must draw the same colors.
"""

import random

import numpy as np
import pytest

import lclsim.cli
from conftest import random_graph, random_tree
from lclsim.cli import random_valid_weak_coloring
from lclsim.errors import InvalidInputError, InvalidInstanceError
from lclsim.graph import (PortedGraph, ball_is_leaf_free, bfs_distances, bfs_levels,
                          gen_balanced_tree, gen_cycle, gen_regular_tree)
from lclsim.problems import verify_weak_coloring
from oracles import ball_is_leaf_free_dict


def families():
    yield "single node", PortedGraph.from_edges(1, [], delta=0)
    yield "edge", PortedGraph.from_edges(2, [(0, 1, 0, 0)], delta=1)
    for seed in range(6):
        rng = random.Random(seed)
        yield f"tree {seed}", random_tree(rng.randrange(2, 60), rng.choice((2, 3, 4, 5)), seed)
        yield f"graph {seed}", random_graph(rng.randrange(4, 60), rng.choice((3, 4, 5)), seed)
    for n in (3, 4, 7, 12):
        yield f"cycle {n}", gen_cycle(n)
    for delta, radius in ((2, 4), (3, 3), (4, 2)):
        yield f"balanced {delta},{radius}", gen_balanced_tree(delta, radius)
    yield "regular 4,3", gen_regular_tree(4, 3)


def dict_levels(g, source, radius):
    want = np.full(g.n, -1)
    for u, d in bfs_distances(g, source, radius).items():
        want[u] = d
    return want


@pytest.mark.parametrize("name, g", list(families()), ids=lambda x: x if isinstance(x, str) else "")
def test_levels_and_leaf_free_match_dict_bfs(name, g):
    diameter = max(max(bfs_distances(g, s).values()) for s in range(g.n))
    rng = random.Random(g.n)
    sources = sorted({0, g.n - 1, rng.randrange(g.n)})
    for s in sources:
        for radius in [*range(diameter + 2), None]:
            got = bfs_levels(g, s, radius)
            assert got.dtype == np.int32
            assert got.tolist() == dict_levels(g, s, radius).tolist(), (s, radius)
            assert ball_is_leaf_free(g, s, radius) is ball_is_leaf_free_dict(g, s, radius), \
                (s, radius)


def test_unreached_nodes_are_minus_one_and_fail_validation():
    # two triangles, built without validation
    edges = [(0, 1, 0, 0), (1, 2, 1, 0), (2, 0, 1, 1),
             (3, 4, 0, 0), (4, 5, 1, 0), (5, 3, 1, 1)]
    g = PortedGraph.from_edges(6, edges, delta=2, validate=False)
    assert bfs_levels(g, 0, None).tolist() == [0, 1, 1, -1, -1, -1]
    assert bfs_levels(g, 4, None).tolist() == [-1, -1, -1, 1, 0, 1]
    with pytest.raises(InvalidInstanceError, match="graph is not connected"):
        g.validate()
    assert PortedGraph.from_edges(3, edges[:3], delta=2).validate()


def parity_fallback_oracle(g, c, k, seed):
    """The seeded coloring with no repair sweep, over the dict BFS."""
    rng = random.Random(seed)
    for _ in range(g.n):
        rng.randrange(1, c + 1)
    depth = bfs_distances(g, 0)
    odd = [col for col in range(1, c + 1) if col % 2 == 1]
    even = [col for col in range(1, c + 1) if col % 2 == 0]
    for block in (rng.randrange(1, k + 1), 1):
        phi = {v: rng.choice(odd if (depth[v] // block) % 2 == 0 else even)
               for v in range(g.n)}
        if all(verify_weak_coloring(g, phi, c, k).values()):
            return phi
    raise InvalidInputError("could not build a valid weak coloring")


@pytest.mark.parametrize("seed", range(4))
def test_parity_fallback_matches_dict_depths(seed, monkeypatch):
    monkeypatch.setattr(lclsim.cli, "REPAIR_PASSES", 0)
    for g, c, k in ((random_tree(40, 3, seed), 2, 1), (random_graph(30, 4, seed), 3, 2),
                    (gen_balanced_tree(3, 3), 4, 3)):
        try:
            want = parity_fallback_oracle(g, c, k, seed)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=str(exc)):
                random_valid_weak_coloring(g, c, k, seed)
        else:
            assert random_valid_weak_coloring(g, c, k, seed) == want
