import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lclsim.engine import (Assignment, DirectedPair,
                           local_failure_probability, weak_coloring_failure,
                           weak_edge_coloring_failure)
from lclsim.cli import EDGE_SOURCES, NODE_SOURCES
from lclsim.errors import BudgetExceededError, InvalidParameterError, TotalRuleViolation
from lclsim.graph import gen_regular_tree
from lclsim.oriented import (EdgeTable, NodeTable, ball_paths, edge_positions,
                             endpoint_completion_frame, incident_edge_frame,
                             key_tables, neighbor_frame, pack_edge_view,
                             pack_node_view)
from lclsim.speedup import (SpeedupConfig, as_local_algorithm,
                            ball_parity_node_algorithm,
                            center_mod_node_algorithm,
                            constant_edge_algorithm, constant_node_algorithm,
                            default_f_grid, edge_local_failure,
                            edge_to_node_speedup, inequality_rhs,
                            node_local_failure, node_to_edge_speedup,
                            optimizing_f, own_bit_node_algorithm,
                            random_edge_algorithm, random_node_algorithm,
                            verify_speedup_inequality, xor_edge_algorithm)
from lclsim.views import extract_view
from conftest import relabeled
from oracles import enumerate_assignments, inequality_rhs_fractions, pair_codes, with_bits


def test_coordinates():
    assert ball_paths(4, 0) == ((),)
    assert len(ball_paths(4, 1)) == 5
    assert len(ball_paths(4, 2)) == 17
    assert len(ball_paths(6, 1)) == 7
    assert len(edge_positions(4, 0, 1)) == 2
    assert len(edge_positions(4, 1, 2)) == 8


def test_frames_free_counts():
    fr = neighbor_frame(4, 1, 0)
    assert fr.free_count == 3
    fr0 = neighbor_frame(4, 0, 2)
    assert fr0.free_count == 1
    fe = incident_edge_frame(4, 1, 0, 3)
    assert fe.free_count == 0  # radius-0 edge ball sits inside B_1
    fc = endpoint_completion_frame(4, 1, 0, 1, "P")
    assert fc.free_count == 3


def test_canonical_case_exact_values():
    alg = own_bit_node_algorithm(4, 1, 1, 2)
    assert node_local_failure(alg) == Fraction(1, 16)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1, 40), b=1)
    con = node_to_edge_speedup(alg, cfg)
    assert con.local_failure(Fraction(1, 40)) == Fraction(1, 4)
    assert con.goodness_violation(Fraction(1, 40)) == 0


def test_identity_frequent_labels():
    alg = own_bit_node_algorithm(4, 1, 1, 2)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(9, 10), b=1)
    con = node_to_edge_speedup(alg, cfg)
    masks = con.frequent_masks(Fraction(9, 10))
    table = con.edge_table(Fraction(9, 10))
    code_of = pair_codes(table, masks, 2)
    for dim in (1, 2):
        for key in range(4):
            bits_p, bits_m = key & 1, key >> 1
            assert masks[key, 2 * dim - 2] == 1 << bits_p
            assert masks[key, 2 * dim - 1] == 1 << bits_m
            pair = 1 << bits_p << 2 | 1 << bits_m
            assert table.tables[dim][key] == code_of[pair]


def test_constant_source_labels_all_edges_alike():
    alg = constant_node_algorithm(4, 1, 1, 2, value=1)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1, 2), b=1)
    table = node_to_edge_speedup(alg, cfg).edge_table(Fraction(1, 2))
    for dim in (1, 2):
        assert len(set(table.tables[dim].tolist())) == 1
    con = node_to_edge_speedup(alg, cfg)
    assert con.local_failure(Fraction(1, 2)) == 1
    assert node_local_failure(alg) == 1


def test_high_threshold_empties_frequent_sets():
    # output = XOR of the four neighbors: uniform given any single edge view
    def rule(bits):
        return (bits[(0,)] ^ bits[(1,)] ^ bits[(2,)] ^ bits[(3,)]) & 1
    alg = NodeTable.from_rule(4, 1, 1, 2, rule, name="neighbor-xor")
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(9, 10), b=1)
    con = node_to_edge_speedup(alg, cfg)
    masks = con.frequent_masks(Fraction(9, 10))
    assert not masks.any()
    table = con.edge_table(Fraction(9, 10))
    assert pair_codes(table, masks, 2) == {0: 0}
    for dim in (1, 2):
        assert set(table.tables[dim].tolist()) == set(table.minus[dim].tolist()) == {0}


def test_edge_to_node_xor_example():
    alg = xor_edge_algorithm(4, 0, 1)
    assert edge_local_failure(alg) == Fraction(1, 4)
    cfg = SpeedupConfig(delta=4, c=2, t=0, f=Fraction(2, 5), b=1)
    con = edge_to_node_speedup(alg, cfg)
    nt = con.node_table(Fraction(2, 5))
    assert set(nt.table.tolist()) == {0b11111111}
    assert con.local_failure(Fraction(2, 5)) == 1


def test_edge_to_node_constant():
    alg = constant_edge_algorithm(4, 0, 1, 3, value=2)
    cfg = SpeedupConfig(delta=4, c=3, t=0, f=Fraction(1, 2), b=1)
    nt = edge_to_node_speedup(alg, cfg).node_table(Fraction(1, 2))
    assert len(set(nt.table.tolist())) == 1
    packed = int(nt.table[0])
    for direction in range(4):
        assert (packed >> (direction * 3)) & 0b111 == 0b100  # only color 2


def test_derived_palette_sizes():
    alg = own_bit_node_algorithm(4, 1, 1, 2)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1, 3), b=1)
    con = node_to_edge_speedup(alg, cfg)
    masks = con.frequent_masks(Fraction(1, 3))
    # each endpoint's color is its own bit, seen in the edge view: masks
    # {1, 2}, so 4 of the 2^(2c) = 16 pairs are in use
    assert set(masks.ravel().tolist()) == {1, 2}
    table = con.edge_table(Fraction(1, 3))
    assert table.c == 4
    assert sorted(pair_codes(table, masks, 2)) == [0b0101, 0b0110, 0b1001, 0b1010]
    e = xor_edge_algorithm(4, 0, 1)
    nt = edge_to_node_speedup(e, SpeedupConfig(4, 2, 0, Fraction(1, 3), 1))
    assert all(0 <= x < 2 ** (4 * 2) for x in nt.node_table(Fraction(1, 3)).table)


def test_direction1_failure_counts_only_the_pairs_in_use():
    """The derived kernel counts over the packed pairs that occur, ranked,
    not over the 2^(2c) palette: at c=10 it stays under 10 MB, and p' is
    that of the same rule declared with c=2."""
    f = Fraction(1, 3)
    con = node_to_edge_speedup(own_bit_node_algorithm(4, 1, 1, 10),
                               SpeedupConfig(delta=4, c=10, t=1, f=f, b=1))
    con.frequent_masks(f)       # thresholded first: only the kernel is traced
    tracemalloc.start()
    try:
        p_prime = con.local_failure(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    small = node_to_edge_speedup(own_bit_node_algorithm(4, 1, 1, 2),
                                 SpeedupConfig(delta=4, c=2, t=1, f=f, b=1))
    assert p_prime == small.local_failure(f)


def test_conditional_independence_of_completions():
    """Given the center ball, two neighbors' outputs factorize exactly:
    joint counts over both completion regions equal the product."""
    alg = random_node_algorithm(4, 1, 1, 2, seed=77)
    m = len(ball_paths(4, 1))
    fr0 = neighbor_frame(4, 1, 0)
    fr1 = neighbor_frame(4, 1, 1)
    k0, f0 = key_tables(fr0, 1, m)
    k1, f1 = key_tables(fr1, 1, m)
    for sigma in (0, 5, 17, 31):
        out = int(alg.table[sigma])
        eq0 = (alg.table[k0[sigma] | f0] == out)
        eq1 = (alg.table[k1[sigma] | f1] == out)
        joint = int(np.outer(eq0, eq1).sum())
        assert joint == int(eq0.sum()) * int(eq1.sum())


def test_kernel_matches_monolithic_enumeration():
    alg = random_node_algorithm(4, 1, 1, 2, seed=5)
    g = gen_regular_tree(4, 3)
    est = local_failure_probability(g, as_local_algorithm(alg), 0,
                                    weak_coloring_failure, b=1)
    assert est.value == node_local_failure(alg)


def test_edge_kernel_matches_monolithic_enumeration():
    alg = random_edge_algorithm(4, 0, 1, 3, seed=6)
    g = gen_regular_tree(4, 2)
    est = local_failure_probability(g, as_local_algorithm(alg), 0,
                                    weak_edge_coloring_failure, b=1)
    assert est.value == edge_local_failure(alg)


def test_derived_edge_algorithm_against_direct_simulation():
    """Run the constructed edge algorithm on a concrete tree and recompute
    its frequent sets independently by enumerating the completion bits of
    the actual graph ball."""
    alg = random_node_algorithm(4, 1, 1, 2, seed=9)
    f = Fraction(1, 3)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=f, b=1)
    con = node_to_edge_speedup(alg, cfg)
    table = con.edge_table(f)
    code_of = pair_codes(table, con.frequent_masks(f), 2)
    g = gen_regular_tree(4, 2)
    a = Assignment.random(g, 1, seed=10)
    local = as_local_algorithm(table)
    node_alg = as_local_algorithm(alg)
    for u in g.adjacent(0):
        view = extract_view(g, (0, u), 0, a)
        got = local.evaluate(view)
        dim, sign = g.orientation_at(0, u)
        plus, minus = (0, u) if sign > 0 else (u, 0)
        masks = {}
        for w in (plus, minus):
            ball = sorted(extract_view(g, w, 1).nodes)
            free = [x for x in ball if x not in (plus, minus)]
            counts = [0, 0]
            total = 0
            for bits in enumerate_assignments(free, 1):
                merged = dict(a.bits)
                merged.update(bits)
                out = node_alg.evaluate(extract_view(g, w, 1, with_bits(a, merged)))
                counts[out] += 1
                total += 1
            masks[w] = sum(1 << i for i in (0, 1)
                           if Fraction(counts[i], total) >= f)
        key = pack_edge_view(g, 0, u, 0, 1, a)[1]
        assert con.frequent_masks(f)[key, 2 * dim - 2:2 * dim].tolist() == [
            masks[plus], masks[minus]]
        assert got == DirectedPair(code_of[masks[plus] << 2 | masks[minus]],
                                   code_of[masks[minus] << 2 | masks[plus]])


def test_inequality_report_canonical():
    g = gen_regular_tree(4, 3)
    alg = own_bit_node_algorithm(4, 1, 1, 2)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1, 40), b=1)
    rep = verify_speedup_inequality(g, alg, None, cfg, 1,
                                    f_grid=default_f_grid(25))
    assert rep.p == Fraction(1, 16)
    assert rep.p_prime == Fraction(1, 4)
    assert rep.optimal_f == Fraction(1, 40)
    assert rep.inequality_holds and rep.goodness_holds
    rhs = inequality_rhs(1, Fraction(1, 4), 2, Fraction(1, 40), 4)
    assert rhs == (Fraction(1, 4) - 8 * Fraction(1, 40)) * Fraction(1, 40) ** 4
    assert rep.p >= rhs
    obj = rep.to_json_obj()
    assert obj["p"]["exact"] == "1/16" and obj["p_prime"]["exact"] == "1/4"
    assert len(obj["f_grid_results"]) == 25


def test_inequality_trivial_for_constant():
    g = gen_regular_tree(4, 3)
    alg = constant_node_algorithm(4, 1, 1, 2)
    cfg = SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1, 5), b=1)
    rep = verify_speedup_inequality(g, alg, None, cfg, 1, f_grid=[])
    assert rep.p == 1 and rep.inequality_holds


def test_generalized_delta6():
    g = gen_regular_tree(6, 3)
    alg = ball_parity_node_algorithm(6, 1, 1, 2)
    cfg = SpeedupConfig(delta=6, c=2, t=1, f=Fraction(1, 14), b=1)
    rep = verify_speedup_inequality(g, alg, None, cfg, 1,
                                    f_grid=default_f_grid(10))
    assert rep.inequality_holds and rep.goodness_holds
    # direction-2 exponent check: rhs uses f^(delta-1)
    rhs = inequality_rhs(2, Fraction(1, 2), 2, Fraction(1, 10), 6)
    assert rhs == (Fraction(1, 2) - 5 * 2 * Fraction(1, 10)) * Fraction(1, 10) ** 5


@pytest.mark.parametrize("direction", (1, 2))
@pytest.mark.parametrize("delta", (2, 4, 6, 16))
def test_integer_rhs_matches_the_fraction_expression(direction, delta):
    """The one-reduction right-hand side is the reduced ``Fraction`` of
    (p' - k*c*f) * f^k, negative, zero and positive, on the default grid and
    at the analysis-optimal f of each p'."""
    p_primes = (Fraction(0), Fraction(1), Fraction(1, 2**20), Fraction(3, 7))
    signs = set()
    for c in (2, 3):
        f_stars = [optimizing_f(direction, p, c, delta) for p in p_primes]
        for p_prime in p_primes:
            for f in default_f_grid(100) + f_stars:
                got = inequality_rhs(direction, p_prime, c, f, delta)
                want = inequality_rhs_fractions(direction, p_prime, c, f, delta)
                assert type(got) is Fraction, (p_prime, f)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                signs.add((got > 0) - (got < 0))
    assert signs == {-1, 0, 1}


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        random_edge_algorithm(6, 1, 2, 2, seed=0)


def test_edge_table_rejects_codes_outside_the_palette():
    """A code outside [0, c) in either endpoint's table raises, instead of
    counting in the next row of the kernel's one-hot counts."""
    ok = np.array([0, 1, 1, 0])
    for bad in (np.array([0, 2, 1, 0]), np.array([0, -1, 1, 0])):
        for kw in ({"tables": {1: bad, 2: ok}},
                   {"tables": {1: ok, 2: ok}, "minus": {1: ok, 2: bad}}):
            with pytest.raises(InvalidParameterError, match=r"outside \[0,2\)"):
                EdgeTable(delta=4, t=0, b=1, c=2, **kw)
    assert EdgeTable(delta=4, t=0, b=1, c=2, tables={1: ok, 2: ok}).minus[1] is ok


def test_exact_mode_out_of_budget_at_two_rounds():
    """Exact kernels stop at t >= 2 (conditioning + completion bits exceed
    the budget); the Monte Carlo route through the engine still works."""
    alg = random_node_algorithm(4, 2, 1, 2, seed=1)
    with pytest.raises(BudgetExceededError):
        node_local_failure(alg)
    g = gen_regular_tree(4, 4)
    est = local_failure_probability(
        g, as_local_algorithm(alg), 0, weak_coloring_failure, b=1,
        mode="monte-carlo", samples=300, seed=4)
    assert est.mode == "monte-carlo" and 0 <= est.value <= 1


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        SpeedupConfig(delta=4, c=2, t=1, f=Fraction(1), b=1)
    with pytest.raises(InvalidParameterError):
        SpeedupConfig(delta=3, c=2, t=1, f=Fraction(1, 2), b=1)
    alg = own_bit_node_algorithm(4, 1, 1, 2)
    with pytest.raises(InvalidParameterError):
        node_to_edge_speedup(alg, SpeedupConfig(4, 2, 2, Fraction(1, 2), 1))
    for bad in ({"b": 0}, {"c": 1}, {"t": -1}):
        kw = {"delta": 4, "c": 2, "t": 1, "f": Fraction(1, 2), "b": 1, **bad}
        with pytest.raises(InvalidParameterError):
            SpeedupConfig(**kw)


@pytest.mark.parametrize("make, want", [
    (own_bit_node_algorithm, Fraction(1, 64)),
    (center_mod_node_algorithm, Fraction(1, 64)),
    (constant_node_algorithm, Fraction(1)),
])
def test_node_kernel_counts_past_int64(make, want):
    # delta=6, t=1, b=2: the count reaches 2**(b*(m + free*delta)) = 2**74
    assert node_local_failure(make(6, 1, 2, 2)) == want


def test_edge_kernel_counts_past_int64():
    # delta=8, t=1, b=1: the count reaches 2**(9 + 7*8) = 2**65
    assert edge_local_failure(constant_edge_algorithm(8, 1, 1, 2)) == 1


# ---------------------------------------------------------------------------
# Engine bridge
# ---------------------------------------------------------------------------


def identity_node_table(delta, t, b):
    """A node table whose color is its key."""
    size = 1 << (b * len(ball_paths(delta, t)))
    return NodeTable(delta=delta, t=t, b=b, c=size, table=np.arange(size))


def identity_edge_table(delta, t, b):
    """An edge table whose code is ``(dim - 1) * size + key`` for the
    ``(dim, key)`` that ``pack_edge_view`` returns, and ``size``."""
    dims = range(1, delta // 2 + 1)
    size = 1 << (b * len(edge_positions(delta, t, 1)))
    return EdgeTable(delta=delta, t=t, b=b, c=len(dims) * size,
                     tables={dim: (dim - 1) * size + np.arange(size) for dim in dims}), size


def test_bridge_keys_on_two_trees_at_every_center():
    """One bridged node and edge algorithm, run twice over every center of
    two trees that share node ids but not balls, read the keys that
    ``pack_node_view`` and ``pack_edge_view`` read, and raise on every call
    at a center without a full ball."""
    t, b = 1, 2
    base = gen_regular_tree(4, 3)
    trees = [base, relabeled(base, seed=3)[0]]
    node = as_local_algorithm(identity_node_table(4, t, b))
    edge_table, size = identity_edge_table(4, t, b)
    edge = as_local_algorithm(edge_table)

    def edge_code(dim, key):
        return DirectedPair((dim - 1) * size + key, (dim - 1) * size + key)
    for rnd in range(2):
        for k, g in enumerate(trees):
            a = Assignment.random(g, b, seed=10 * rnd + k)
            packs = {"node": lambda view: pack_node_view(g, view.center, t, b, a),
                     "edge": lambda view: edge_code(*pack_edge_view(g, *view.center,
                                                                    t, b, a))}
            for v in range(g.n):
                for alg, center in [(node, v)] + [(edge, (v, u)) for u in g.adjacent(v)]:
                    view = extract_view(g, center, t, a)
                    try:
                        want = packs[alg.kind](view)
                    except TotalRuleViolation as exc:
                        with pytest.raises(TotalRuleViolation, match=str(exc)):
                            alg.evaluate(view)
                        continue
                    assert alg.evaluate(view) == want


@pytest.mark.parametrize("name,delta,t,b", [(name, 4, 1, 1) for name in NODE_SOURCES]
                         + [("random", 2, 3, 2)])
def test_engine_equals_the_kernel_for_every_node_source(name, delta, t, b):
    """The engine's enumeration through the bridge (2**17 and 2**18
    assignments) against the exact kernel."""
    table = NODE_SOURCES[name](delta, t, b, 3, 1)
    est = local_failure_probability(gen_regular_tree(delta, t + 2),
                                    as_local_algorithm(table), 0,
                                    weak_coloring_failure, b=b)
    assert est.value == node_local_failure(table)


@pytest.mark.parametrize("name", EDGE_SOURCES)
def test_engine_equals_the_kernel_for_every_edge_source(name):
    table = EDGE_SOURCES[name](4, 0, 2, 3, 1)
    est = local_failure_probability(gen_regular_tree(4, 2), as_local_algorithm(table),
                                    0, weak_edge_coloring_failure, b=2)
    assert est.value == edge_local_failure(table)


@pytest.mark.parametrize("c", [2, 12, 31])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("name", NODE_SOURCES)
def test_engine_equals_the_kernel_on_derived_edge_tables(name, b, c):
    """The derived edge table through the bridge, whose labels are pairs of
    ranked codes, against the kernel on the same codes, up to the 2c = 62
    bits a packed pair allows."""
    con = node_to_edge_speedup(NODE_SOURCES[name](4, 1, b, c, 1),
                               SpeedupConfig(delta=4, c=c, t=1, f=Fraction(1, 40), b=b))
    g = gen_regular_tree(4, 2)
    for f in (Fraction(1, 40), Fraction(1, 3), Fraction(2, 3)):
        est = local_failure_probability(g, as_local_algorithm(con.edge_table(f)), 0,
                                        weak_edge_coloring_failure, b=b)
        assert est.value == con.local_failure(f)
