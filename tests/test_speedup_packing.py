"""The derived node table's colors and the thresholding of the speedup
sweep.

``NodeSpeedupConstruction.node_table`` packs each direction's c-bit
frequent-set mask into one int64 color; past 62 bits it rank-compresses
the running code, and the mask too when the rank leaves no room for it.  The oracle is the rank of each key's whole mask row
(``np.unique(axis=0)``): colors must be equal exactly where the rows are.
``verify_speedup_inequality`` thresholds each direction-1 grid point at
most once: once per level.
"""

from fractions import Fraction

import numpy as np
import pytest

import lclsim.speedup as speedup
from lclsim.graph import gen_regular_tree
from lclsim.oriented import EdgeTable, NodeTable
from lclsim.speedup import (SpeedupConfig, _threshold_mask,
                            constant_edge_algorithm, default_f_grid, edge_to_node_speedup,
                            endpoint_sum_edge_algorithm, node_local_failure,
                            node_to_edge_speedup, random_edge_algorithm,
                            random_node_algorithm, verify_speedup_inequality,
                            xor_edge_algorithm)


def mask_row_ranks(con, f):
    masks = _threshold_mask(con.dists, f, con.completion_bits)
    _, ranks = np.unique(masks, axis=0, return_inverse=True)
    return masks, ranks.reshape(-1)


def same_partition(a, b):
    pairs = {(x, y) for x, y in zip(a.tolist(), b.tolist())}
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_constant_source_delta4_c16_gives_a_non_negative_color():
    alg = constant_edge_algorithm(4, 1, 1, 16, value=15)
    cfg = SpeedupConfig(delta=4, c=16, t=1, f=Fraction(1, 40), b=1)
    table = edge_to_node_speedup(alg, cfg).node_table(cfg.f).table
    assert table.dtype == np.int64
    assert (table >= 0).all() and np.unique(table).size == 1


def test_dimension3_p_bit_delta6_c16_keeps_every_direction():
    """The label is the P endpoint's bit on dimension 3 and 0 elsewhere; a
    node's output follows its own bit, so the failure is 2^-6.  Shifts of
    64 and 80 bits used to drop directions 4 and 5 and report 1."""
    alg = EdgeTable.from_rule(6, 0, 1, 16,
                              lambda dim, bits: bits[("P", ())] & 1 if dim == 3 else 0)
    cfg = SpeedupConfig(delta=6, c=16, t=0, f=Fraction(1, 4), b=1)
    con = edge_to_node_speedup(alg, cfg)
    assert con.local_failure(cfg.f) == Fraction(1, 64)
    _, ranks = mask_row_ranks(con, cfg.f)
    assert same_partition(con.node_table(cfg.f).table, ranks)


SOURCES = {
    "xor": lambda d, t, b, c: xor_edge_algorithm(d, t, b),
    "constant": lambda d, t, b, c: constant_edge_algorithm(d, t, b, c, value=c - 1),
    "endpoint-sum": lambda d, t, b, c: endpoint_sum_edge_algorithm(d, t, b, c),
    "random": lambda d, t, b, c: random_edge_algorithm(d, t, b, c, seed=3),
}


CONFIGS = [(4, 0, 1, 2), (4, 1, 1, 4), (6, 0, 2, 4), (4, 0, 2, 16), (6, 0, 1, 11),
           (6, 0, 2, 16), (4, 1, 1, 20)]


@pytest.mark.parametrize("source,delta,t,b,c", [
    (source, *cfg) for source in SOURCES for cfg in CONFIGS
    if source != "xor" or cfg[3] == 2])      # xor is a 2-label algorithm
def test_node_table_matches_rank_compressed_mask_rows(source, delta, t, b, c):
    alg = SOURCES[source](delta, t, b, c)
    cfg = SpeedupConfig(delta=delta, c=alg.c, t=t, f=Fraction(1, 40), b=b)
    con = edge_to_node_speedup(alg, cfg)
    for f in (Fraction(1, 40), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
        table = con.node_table(f).table
        masks, ranks = mask_row_ranks(con, f)
        assert (table >= 0).all()
        assert same_partition(table, ranks)
        ranked = NodeTable(delta=delta, t=t, b=b, c=ranks.max() + 1, table=ranks)
        assert node_local_failure(con.node_table(f)) == node_local_failure(ranked)
        if delta * alg.c <= 62:     # below 63 bits the color is the plain packing
            shifts = np.arange(delta, dtype=np.int64) * alg.c
            assert np.array_equal(table, np.bitwise_or.reduce(masks << shifts, axis=1))


@pytest.mark.parametrize("c", [56, 62, 63])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_node_table_ranks_the_mask_column_when_the_rank_is_too_wide(c, seed):
    """Past c = 53 the running code's rank plus a c-bit mask can still pass
    bit 62; the mask is then ranked too.  Shifting the whole mask wrapped,
    and reported p' = 17290655/2^34 for 15855363/2^34 (seed 2, c = 56)."""
    alg = random_edge_algorithm(4, 1, 2, c, seed=seed)
    con = edge_to_node_speedup(alg, SpeedupConfig(delta=4, c=c, t=1, f=Fraction(1, 40), b=2))
    levels = {con.level(f): f for f in default_f_grid(100)}
    for f in levels.values():
        table = con.node_table(f).table
        _, ranks = mask_row_ranks(con, f)
        assert (table >= 0).all()
        assert same_partition(table, ranks)


@pytest.mark.parametrize("delta,b,c", [(4, 1, 2), (4, 2, 4), (6, 1, 2)])
def test_direction1_thresholds_each_grid_point_once(monkeypatch, delta, b, c):
    """At most once: the counts are thresholded once per level of the
    evaluated thresholds, inside that level's evaluation."""
    calls = []
    real = speedup._threshold_mask

    def counted(dist, f, free_bits):
        calls.append(f)
        return real(dist, f, free_bits)

    monkeypatch.setattr(speedup, "_threshold_mask", counted)
    alg = random_node_algorithm(delta, 1, b, c, seed=5)
    cfg = SpeedupConfig(delta=delta, c=c, t=1, f=Fraction(1, 40), b=b)
    grid = [Fraction(j, 11) for j in range(1, 11)]
    report = verify_speedup_inequality(gen_regular_tree(delta, 3), alg, None, cfg, 1,
                                       f_grid=grid)
    monkeypatch.setattr(speedup, "_threshold_mask", real)
    con = node_to_edge_speedup(alg, cfg)
    evaluated = [cfg.f, report.optimal_f] + grid
    assert report.metrics["grid_points"] == len(evaluated)
    assert len(calls) == len({con.level(f) for f in evaluated}) < len(evaluated)
    # the shared masks give what each call thresholding for itself gives
    for pt in report.grid:
        assert pt.p_prime == con.local_failure(pt.f)
        assert pt.goodness_violation == con.goodness_violation(pt.f)
