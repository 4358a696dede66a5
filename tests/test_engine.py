import random
from fractions import Fraction

import pytest

from conftest import random_tree
from lclsim.engine import (Assignment, DirectedPair, FailureEstimate,
                           LocalAlgorithm, hoeffding_radius,
                           local_failure_probability, run_edge_algorithm,
                           run_node_algorithm, weak_coloring_failure,
                           weak_edge_coloring_failure)
from lclsim.errors import (BudgetExceededError, InvalidInputError,
                           InvalidInstanceError, TotalRuleViolation)
from lclsim.graph import gen_cycle, gen_regular_tree
from lclsim.views import extract_view
from oracles import enumerate_assignments, with_bits


def own_bit_rule(view):
    return view.bits(view.center_node) & 1


def test_enumerate_assignments_counts():
    assert sum(1 for _ in enumerate_assignments([1, 2, 3], 2)) == 64
    assert list(enumerate_assignments([], 1)) == [{}]
    seen = {tuple(sorted(a.items()))
            for a in enumerate_assignments(range(5), 1)}
    assert len(seen) == 32  # no duplicates


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_assignments(range(30), 1))


def test_run_node_algorithm_first_bit():
    g = gen_regular_tree(4, 2)
    a = Assignment.random(g, b=2, seed=1)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=own_bit_rule)
    out = run_node_algorithm(g, alg, a)
    assert out == {v: a.bits[v] & 1 for v in range(g.n)}


def test_run_node_constant():
    g = gen_regular_tree(4, 1)
    a = Assignment.random(g, b=1, seed=0)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 9)
    assert set(run_node_algorithm(g, alg, a).values()) == {9}


def test_run_edge_xor():
    g = gen_regular_tree(4, 2)
    a = Assignment.random(g, b=1, seed=2)
    alg = LocalAlgorithm(
        rounds=0, kind="edge",
        rule=lambda view: a.bits[view.endpoints[0]] ^ a.bits[view.endpoints[1]])
    out = run_edge_algorithm(g, alg, a)
    for (u, v), lab in out.items():
        assert lab == a.bits[u] ^ a.bits[v]


def test_determinism():
    g = random_tree(60, 4, seed=3)
    a = Assignment.random(g, b=2, seed=4)
    alg = LocalAlgorithm(rounds=1, kind="node",
                         rule=lambda view: view.encoding)
    assert run_node_algorithm(g, alg, a) == run_node_algorithm(g, alg, a)


def test_locality_mutation():
    g = gen_regular_tree(4, 3)
    a = Assignment.random(g, b=1, seed=5)
    alg = LocalAlgorithm(rounds=1, kind="node", rule=lambda v: v.encoding)
    before = alg.evaluate(extract_view(g, 0, 1, a))
    rng = random.Random(6)
    far = [v for v in range(g.n) if v not in extract_view(g, 0, 2, a).nodes]
    for _ in range(10):
        bits = dict(a.bits)
        bits[rng.choice(far)] ^= 1
        after = alg.evaluate(extract_view(g, 0, 1, with_bits(a, bits)))
        assert after == before


def test_exact_failure_own_bit():
    g = gen_regular_tree(4, 2)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=own_bit_rule)
    est = local_failure_probability(g, alg, 0, weak_coloring_failure, b=1)
    assert est.value == Fraction(1, 16)
    assert est.mode == "exact" and est.error == 0


def test_exact_failure_constant_rule():
    g = gen_regular_tree(4, 2)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 1)
    est = local_failure_probability(g, alg, 0, weak_coloring_failure, b=1)
    assert est.value == 1


def test_exact_edge_failure_identity_frequent():
    # t=0 edge rule whose label is the oriented pair of endpoint bits
    g = gen_regular_tree(4, 2)

    def rule(view):
        u, v = view.endpoints
        dim, sign = view.graph.orientation_at(u, v)
        plus, minus = (u, v) if sign > 0 else (v, u)
        return DirectedPair(1 << view.bits(plus), 1 << view.bits(minus))

    alg = LocalAlgorithm(rounds=0, kind="edge", rule=rule)
    est = local_failure_probability(g, alg, 0, weak_edge_coloring_failure, b=1)
    assert est.value == Fraction(1, 4)


def test_budget_exceeded_switches_modes():
    g = gen_regular_tree(4, 3)
    alg = LocalAlgorithm(rounds=1, kind="node", rule=lambda v: 0)
    with pytest.raises(BudgetExceededError):
        local_failure_probability(g, alg, 0, weak_coloring_failure, b=2)
    est = local_failure_probability(g, alg, 0, weak_coloring_failure, b=2,
                                    mode="monte-carlo", samples=50, seed=1)
    assert est.mode == "monte-carlo" and est.samples == 50


def test_ids_read_in_the_ball_and_checked_once():
    """Views see the ids of their own ball.  The caller's ids are checked
    once: after the interior check and the budget or mode errors, and also
    where they repeat outside B_{t+1}(v)."""
    g = gen_regular_tree(4, 3)
    ids = {v: 3 * v + 1 for v in range(g.n)}

    def rule(view):
        return view.bits(view.center_node) ^ view.ident(view.center_node) % 2

    alg = LocalAlgorithm(rounds=0, kind="node", rule=rule)
    region = [0] + g.adjacent(0)
    hits = 0
    for bits in enumerate_assignments(region, 1):
        a = Assignment(b=1, bits=bits, ids=ids)
        labels = {u: alg.evaluate(extract_view(g, u, 0, a)) for u in region}
        hits += weak_coloring_failure(g, 0, labels)
    est = local_failure_probability(g, alg, 0, weak_coloring_failure, b=1, ids=ids)
    assert est.value == Fraction(hits, 32)

    far = dict(ids)
    far[g.n - 1] = far[g.n - 2]     # two leaves, outside B_1(0)
    for mode in ("exact", "monte-carlo"):
        with pytest.raises(InvalidInputError, match="not injective"):
            local_failure_probability(g, alg, 0, weak_coloring_failure, mode=mode,
                                      b=1, ids=far, samples=10)
    with pytest.raises(InvalidInputError, match="unknown mode"):
        local_failure_probability(g, alg, 0, weak_coloring_failure, mode="x", b=1, ids=far)
    wide = LocalAlgorithm(rounds=1, kind="node", rule=lambda view: 0)
    with pytest.raises(BudgetExceededError):
        local_failure_probability(g, wide, 0, weak_coloring_failure, b=2, ids=far)
    with pytest.raises(InvalidInstanceError):
        local_failure_probability(g, wide, g.n - 1, weak_coloring_failure, b=2, ids=far)


def test_boundary_nodes_rejected():
    g = gen_regular_tree(4, 2)
    alg = LocalAlgorithm(rounds=1, kind="node", rule=lambda v: 0)
    with pytest.raises(InvalidInstanceError):
        local_failure_probability(g, alg, 0, weak_coloring_failure, b=1)


def test_monte_carlo_within_hoeffding_of_exact():
    g = gen_regular_tree(4, 2)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=own_bit_rule)
    exact = Fraction(1, 16)
    conf = 0.95
    hits = 0
    trials = 40
    for s in range(trials):
        est = local_failure_probability(
            g, alg, 0, weak_coloring_failure, b=1, mode="monte-carlo",
            samples=1500, confidence=conf, seed=s)
        if abs(est.value - float(exact)) <= est.error:
            hits += 1
    assert hits >= int(conf * trials) - 2


def test_failure_estimate_serialization():
    est = FailureEstimate(value=Fraction(1, 16), mode="exact")
    obj = est.to_json_obj()
    assert set(obj) == {"value", "mode", "error", "samples", "seed", "value_exact"}
    assert obj["value_exact"] == "1/16"
    with pytest.raises(InvalidInputError):
        FailureEstimate(value=1.5, mode="exact")


def test_total_rule_violation_reports_view():
    g = gen_regular_tree(4, 1)
    a = Assignment.random(g, b=1, seed=0)
    alg = LocalAlgorithm(rounds=0, kind="node", table={})
    with pytest.raises(TotalRuleViolation) as err:
        run_node_algorithm(g, alg, a)
    assert err.value.view is not None


def test_assignment_validation():
    g = gen_regular_tree(4, 1)
    with pytest.raises(InvalidInputError):
        Assignment(b=1, bits={0: 2})
    with pytest.raises(InvalidInputError):
        Assignment(b=1, bits={0: 1}, ids={0: 3, 1: 3})
    a = Assignment.random(g, b=2, seed=9, with_ids=True)
    assert sorted(a.ids.values()) == list(range(1, g.n + 1))


def test_execution_independence_at_distance():
    """Outputs of nodes at distance >= 2t+1 factorize exactly; the full
    failure events need distance >= 2t+3 (they read radius t+1)."""
    g = gen_regular_tree(4, 4)
    t, b = 1, 1
    a_nodes = sorted(extract_view(g, 0, t + 1).nodes)
    alg = LocalAlgorithm(rounds=t, kind="node",
                         rule=lambda v: bin(sum(v.bits(x) for x in v.nodes)).count("1") & 1)
    # pick u at distance 3 = 2t+1 from center; B_t balls are disjoint
    dist3 = [v for v in range(g.n)
             if v not in extract_view(g, 0, 2).nodes
             and v in extract_view(g, 0, 3).nodes]
    u = dist3[0]
    region = sorted(set(extract_view(g, 0, t).nodes) | set(extract_view(g, u, t).nodes))
    joint = 0
    lone0 = 0
    lone1 = 0
    total = 0
    for bits in enumerate_assignments(region, b):
        full = {v: 0 for v in range(g.n)}
        full.update(bits)
        asg = Assignment(b=b, bits=full)
        o0 = alg.evaluate(extract_view(g, 0, t, asg))
        o1 = alg.evaluate(extract_view(g, u, t, asg))
        joint += (o0 == 1) and (o1 == 1)
        lone0 += o0 == 1
        lone1 += o1 == 1
        total += 1
    assert Fraction(joint, total) == Fraction(lone0, total) * Fraction(lone1, total)


def test_hoeffding_radius_shape():
    assert hoeffding_radius(10**6, 0.99) < 0.002
    assert hoeffding_radius(100, 0.99) > hoeffding_radius(1000, 0.99)


def test_unoriented_edge_view_with_partial_inputs():
    g = gen_cycle(6)
    for t in (0, 1, 2):
        there = extract_view(g, (0, 1), t, inputs={0: "a"})
        back = extract_view(g, (1, 0), t, inputs={0: "a"})
        assert there.encoding == back.encoding
