"""The bulk seeded draws replay ``random.Random.randrange`` exactly.

``engine.randbelow_array`` replays the MT19937 stream behind
``randrange(top)`` through numpy and leaves the caller's generator where the
per-draw loop would.  ``Assignment.random``, ``random_valid_weak_coloring``
and the Monte Carlo sample blocks draw through it; each is checked against
the body that drew one value per call (``oracles``).
"""

import random

import numpy as np
import pytest

import lclsim.cli
from conftest import random_graph, random_tree
from lclsim.engine import BLOCK_ROWS, Assignment, _sample_blocks, randbelow_array
from lclsim.graph import PortedGraph, gen_cycle, gen_regular_tree
from oracles import assignment_random, random_valid_weak_coloring, randrange_draws

TOPS = [2, 3, 4, 5, 2**31]


@pytest.mark.parametrize("count", [0, 1, 2, 1000, 20000])
@pytest.mark.parametrize("top", TOPS + [1, 2**31 - 1, 2**40, 2**70])
def test_bulk_draws_match_randrange(top, count):
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        rng.gauss(0, 1)           # start mid-stream, with a spare gauss kept
        ref.gauss(0, 1)
        draws = randbelow_array(rng, top, count)
        assert draws.tolist() == randrange_draws(ref, top, count)
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("top", TOPS)
def test_consecutive_bulk_draws_continue_the_stream(top):
    rng, ref = random.Random(9), random.Random(9)
    got = [randbelow_array(rng, top, count).tolist() for count in (3, 0, 700, 1)]
    assert sum(got, []) == randrange_draws(ref, top, 704)
    assert rng.getstate() == ref.getstate()


def draw_graphs():
    return [gen_regular_tree(4, 3), random_tree(120, 3, seed=2),
            random_graph(90, 4, seed=4, extra_edges=20), gen_cycle(7),
            PortedGraph.from_edges(2, [(0, 1, 0, 0)])]


@pytest.mark.parametrize("seed", range(5))
def test_assignment_random_matches_per_draw_body(seed):
    for g in draw_graphs():
        for b in (1, 2, 5):
            for with_ids in (False, True):
                got = Assignment.random(g, b, seed, with_ids=with_ids)
                assert got == assignment_random(g, b, seed, with_ids=with_ids)


@pytest.mark.parametrize("seed", range(5))
def test_random_weak_coloring_matches_per_draw_body(seed):
    for g in draw_graphs():
        for c, k in ((2, 1), (3, 2), (5, 3), (2, 6)):
            assert lclsim.cli.random_valid_weak_coloring(g, c, k, seed) == \
                random_valid_weak_coloring(g, c, k, seed)


@pytest.mark.parametrize("seed", range(5))
def test_random_weak_coloring_fallback_continues_the_stream(monkeypatch, seed):
    """With no repair sweeps the parity fallback runs; its draws continue
    the stream where the bulk draw of the first coloring left it."""
    monkeypatch.setattr(lclsim.cli, "REPAIR_PASSES", 0)
    for g in draw_graphs():
        for c, k in ((2, 1), (3, 2), (4, 3)):
            assert lclsim.cli.random_valid_weak_coloring(g, c, k, seed) == \
                random_valid_weak_coloring(g, c, k, seed, passes=0)


@pytest.mark.parametrize("b", [1, 3])
def test_monte_carlo_blocks_keep_their_stream(b):
    samples, m = BLOCK_ROWS + 5, 3
    blocks = list(_sample_blocks(11, samples, m, b, np.uint8))
    assert [len(x) for x in blocks] == [BLOCK_ROWS, 5]
    want = randrange_draws(random.Random(11), 1 << b, samples * m)
    assert np.concatenate(blocks).ravel().tolist() == want
