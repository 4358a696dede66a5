"""Threshold levels in the speedup sweep.

``verify_speedup_inequality`` thresholds and runs the derived kernels once
per level of f (how many of the construction's distinct conditional counts
reach f); ``oracles.verify_speedup_inequality_per_point`` thresholds and runs
them at every f.  The two reports must agree field for field on grids that
sit on, just beside and past the boundaries k / 2**completion_bits.  The
level itself, one bisect of the sorted counts, must equal the numpy count
``oracles.level_by_mask`` on the same grids.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import lclsim.speedup as speedup
from lclsim.cli import EDGE_SOURCES, NODE_SOURCES
from lclsim.errors import BudgetExceededError
from lclsim.graph import gen_regular_tree
from lclsim.speedup import (SpeedupConfig, _need, _threshold_mask, default_f_grid,
                            edge_to_node_speedup, node_to_edge_speedup, optimizing_f,
                            verify_speedup_inequality)
from oracles import level_by_mask, verify_speedup_inequality_per_point

EPS = Fraction(1, 10**6)
SEED = 1

CASES = [(direction, src, delta, t, b, c)
         for direction, sources in ((1, NODE_SOURCES), (2, EDGE_SOURCES))
         for src in sources
         for delta in (4, 6) for t in (0, 1) for b in (1, 2) for c in (2, 4)
         if (direction == 2 or t >= 1)        # node->edge needs t >= 1
         and (src != "xor" or c == 2)]        # xor is a 2-label algorithm


def count_arrays(con):
    return [con.dists]


def boundary_grid(con, max_counts=40):
    """k / 2**bits for every k when bits <= 6, else for up to ``max_counts``
    of the distinct counts k (both ends kept); each with its neighbours
    at distance 1/10**6; and 1 + 1/10**6, whose bound is clamped."""
    bits = con.completion_bits
    if bits <= 6:
        ks = np.arange(1, 1 << bits)
    else:
        ks = np.unique(np.concatenate([d.ravel() for d in count_arrays(con)]))
        if ks.size > max_counts:
            ks = ks[np.linspace(0, ks.size - 1, max_counts).round().astype(int)]
    grid = []
    for k in ks.tolist():
        f = Fraction(k, 1 << bits)
        grid += [x for x in (f - EPS, f, f + EPS) if 0 < x]
    return grid + [1 + EPS]


def build(direction, src, delta, t, b, c):
    alg = (NODE_SOURCES if direction == 1 else EDGE_SOURCES)[src](delta, t, b, c, SEED)
    cfg = SpeedupConfig(delta=delta, c=c, t=t, f=Fraction(1, 40), b=b)
    con = (node_to_edge_speedup if direction == 1 else edge_to_node_speedup)(alg, cfg)
    return alg, cfg, con


def assert_same_report(got, want):
    for name in ("direction", "cfg", "p", "p_prime", "optimal_f", "p_prime_at_optimal",
                 "inequality_holds", "goodness_holds", "metrics"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.grid) == len(want.grid)
    for a, b in zip(got.grid, want.grid):
        assert vars(a) == vars(b), a.f
        assert [type(x) for x in vars(a).values()] == [type(x) for x in vars(b).values()]
    assert got.to_json_obj() == want.to_json_obj()


@pytest.mark.parametrize("direction,src,delta,t,b,c", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_levels_match_the_per_point_sweep(direction, src, delta, t, b, c):
    try:
        alg, cfg, con = build(direction, src, delta, t, b, c)
    except BudgetExceededError:
        return                      # over the exact budget: the CLI exits 3
    grid = boundary_grid(con)
    g = gen_regular_tree(delta, t + 2)
    try:
        want = verify_speedup_inequality_per_point(g, alg, None, cfg, direction, grid)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            verify_speedup_inequality(g, alg, None, cfg, direction, grid)
        return
    # a fresh construction, and the one the oracle did not touch
    assert_same_report(verify_speedup_inequality(g, alg, None, cfg, direction, grid), want)
    assert_same_report(verify_speedup_inequality(g, alg, con, cfg, direction, grid), want)


@pytest.mark.parametrize("direction,src,delta,t,b,c", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_bisect_level_matches_the_mask_count(direction, src, delta, t, b, c):
    """On the boundary grid, the analysis-optimal f of the derived failures
    at cfg.f and 1/2 (denominators of up to 40 bits), and at 3/2, where the
    clamp shrinks the bound: the bound is ceil(f * 2**bits) clamped to
    2**bits + 1, and the bisect level is the numpy count."""
    try:
        alg, cfg, con = build(direction, src, delta, t, b, c)
    except BudgetExceededError:
        return
    bits = con.completion_bits
    f_stars = [optimizing_f(direction, con.evaluate(f)[0], c, delta)
               for f in (cfg.f, Fraction(1, 2))]
    for f in boundary_grid(con) + f_stars + [Fraction(3, 2)]:
        assert _need(f, bits) == min(math.ceil(f * (1 << bits)), (1 << bits) + 1), f
        assert con.level(f) == level_by_mask(con, f), f


def test_every_fitting_case_is_compared():
    fitting = 0
    for case in CASES:
        try:
            build(*case)
        except BudgetExceededError:
            continue
        fitting += 1
    assert (len(CASES), fitting) == (96, 89)


def distinct_tables(con, thresholds):
    return {tuple(_threshold_mask(d, f, con.completion_bits).tobytes()
                  for d in count_arrays(con))
            for f in thresholds}


@pytest.mark.parametrize("direction,src,delta,t,b,c,levels", [
    (1, "random", 4, 1, 2, 2, 22),
    (1, "random", 6, 1, 2, 4, 11),
    (1, "parity", 6, 1, 1, 4, 3),
    (1, "own-bit", 4, 1, 1, 2, 1),
    (2, "random", 4, 1, 1, 2, 8),
    (2, "random", 6, 1, 1, 4, 18),
    (2, "endpoint-sum", 6, 0, 2, 4, 2),
])
def test_derived_kernel_runs_once_per_level(monkeypatch, direction, src, delta, t, b, c,
                                            levels):
    calls = {"edge": 0, "node": 0}
    real_edge, real_node = speedup.edge_local_failure, speedup.node_local_failure

    def edge_failure(alg):
        calls["edge"] += 1
        return real_edge(alg)

    def node_failure(alg):
        calls["node"] += 1
        return real_node(alg)

    monkeypatch.setattr(speedup, "edge_local_failure", edge_failure)
    monkeypatch.setattr(speedup, "node_local_failure", node_failure)
    alg, cfg, con = build(direction, src, delta, t, b, c)
    grid = default_f_grid(100)
    report = verify_speedup_inequality(gen_regular_tree(delta, t + 2), alg, con, cfg,
                                       direction, grid)
    evaluated = [cfg.f] + ([report.optimal_f] if 0 < report.optimal_f < 1 else []) + grid
    assert report.metrics["grid_points"] == len(evaluated)
    want = len(distinct_tables(con, evaluated))
    assert want == levels
    derived, source = ("edge", "node") if direction == 1 else ("node", "edge")
    assert calls[derived] == want < len(evaluated)
    assert calls[source] == 1
