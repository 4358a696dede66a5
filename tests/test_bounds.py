import math
from fractions import Fraction

import pytest

from lclsim.bounds import (global_success_upper_bound,
                           id_collision_bound, iterated_log2, log_star,
                           recurrence_bound, zero_round_optimum)
from lclsim.errors import BudgetExceededError, DomainError, InvalidParameterError
from oracles import zero_round_optimum_grid


def test_log_star():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(16) == 3
    assert log_star(65536) == 4
    assert log_star(2**65536) == 5


def test_iterated_log_domain():
    assert float(iterated_log2(256, 2)) == 3.0
    with pytest.raises(DomainError):
        iterated_log2(2, 3)


def test_zero_round_closed_forms():
    z = zero_round_optimum(2, 4)
    assert z.closed_form == Fraction(1, 16)
    assert abs(z.numeric_minimum - 1 / 16) < 1e-6
    assert max(abs(x - 0.5) for x in z.numeric_argmin) < 1e-4
    # independent 1-d grid oracle
    val, argp = zero_round_optimum_grid(2, 4)
    assert abs(val - 1 / 16) < 1e-6 and abs(argp - 0.5) < 1e-3

    assert zero_round_optimum(1, 4).closed_form == 1
    z3 = zero_round_optimum(3, 4)
    assert abs(z3.numeric_minimum - 3.0**-4) < 1e-6


def test_recurrence_examples():
    rb = recurrence_bound(2, Fraction(1, 16), 0, 4)
    assert rb.closed_form == Fraction(1, 160) ** 5
    assert rb.agree
    assert recurrence_bound(2, Fraction(0), 2, 4).closed_form == 0
    for t in (0, 1, 2, 3):
        for c0 in (2, 5, 16):
            rb = recurrence_bound(c0, Fraction(1, c0**4), t, 4)
            assert rb.agree
    rb6 = recurrence_bound(2, Fraction(1, 64), 1, 6)
    assert rb6.closed_form == (Fraction(1, 64) / 14) ** (7 ** 3)
    with pytest.raises(InvalidParameterError):
        recurrence_bound(0, Fraction(1, 2), 1)


def test_global_bound_values():
    gb = global_success_upper_bound(4096, 0, 1)
    assert gb.condition_holds
    assert gb.bound < 0.5
    assert gb.relaxed < 0.5
    assert gb.bound <= gb.relaxed + 1e-12
    assert abs(gb.id_term - 1 / 32) < 1e-12
    # additive term below 1/4 for n > 8
    for n in (9, 100, 10**6):
        assert 1 / (2 * n ** (1 / 3)) < 0.25


def test_global_bound_monotone_in_n():
    vals = [global_success_upper_bound(n, 0, 1).bound
            for n in (2**12, 2**16, 2**20, 2**24)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_global_bound_domain_errors():
    with pytest.raises(DomainError):
        global_success_upper_bound(3, 0, 2)  # log log log log 3 dies mid-tower


def test_claim_ball_radius():
    from oracles import claim_ball_radius
    # delta=4 closes the ball at n^(1/3) = 2*3^k - 1 nodes
    n = (2 * 3**5 - 1) ** 3
    assert abs(claim_ball_radius(n, 4) - 5) < 1e-9
    # generic delta: ball size 1 + delta((delta-1)^k - 1)/(delta-2)
    delta, k = 6, 3
    size = 1 + delta * ((delta - 1) ** k - 1) // (delta - 2)
    assert abs(claim_ball_radius(size**3, delta) - k) < 1e-9


def test_id_collision_examples():
    ib = id_collision_bound(1000)
    assert ib.value == Fraction(9, 200) and ib.bound == Fraction(1, 20)
    assert ib.holds
    ib8 = id_collision_bound(8)
    assert ib8.value == Fraction(1, 8) and ib8.bound == Fraction(1, 4)
    assert ib8.holds
    # leading order ~ n^(-1/3)/2
    big = id_collision_bound(10**9)
    assert abs(float(big.value) / (0.5 * (10**9) ** (-1 / 3)) - 1) < 1e-2
    with pytest.raises(InvalidParameterError):
        id_collision_bound(7)


@pytest.mark.parametrize("delta", [8, 10])
def test_zero_round_optimum_large_delta(delta):
    for c in range(2, 17):
        z = zero_round_optimum(c, delta)
        closed = float(z.closed_form)
        assert abs(z.numeric_minimum - closed) <= 1e-12 * closed
        assert max(abs(x - 1 / c) for x in z.numeric_argmin) <= 1e-4
        assert 1 <= z.iterations <= 30


def test_zero_round_optimum_rejects_delta_below_one():
    for c in (1, 2):
        for delta in (0, -1):
            with pytest.raises(InvalidParameterError):
                zero_round_optimum(c, delta)


def test_recurrence_rejects_delta_below_one():
    """Below 1 the base's denominator (delta+1) c0 is 0 or negative: a
    division by zero, or a "bound" past 1 or below 0."""
    for delta in (0, -1, -2, -3):
        with pytest.raises(InvalidParameterError, match="delta must be >= 1"):
            recurrence_bound(2, Fraction(1, 16), 1, delta)


def test_recurrence_past_the_budget_raises_before_computing():
    """At delta 4 the README's c0=2, p0=1/16 fits up to t=4; t=5 would be
    about 2^28.5 bits and is refused at once."""
    with pytest.raises(BudgetExceededError, match="t=5 recurrence bound"):
        recurrence_bound(2, Fraction(1, 16), 5, 4)
    with pytest.raises(BudgetExceededError):
        recurrence_bound(2, Fraction(1, 16), 10**9, 4)
    with pytest.raises(BudgetExceededError):
        recurrence_bound(2, Fraction(1, 64), 4, 6)
    assert recurrence_bound(2, Fraction(0), 50, 4).closed_form == 0
    assert recurrence_bound(16, Fraction(1, 16**4), 2, 4).agree


def test_recurrence_zero_base_is_zero_at_once():
    """p0 = 0 makes the base 0, so the bound is the exact 0 for every t and
    no power is taken: t = 10**9 returns at once."""
    rb = recurrence_bound(2, Fraction(0), 10**9, 4)
    assert rb.closed_form == rb.iterated == 0 and rb.agree
    assert rb.steps == 2 * 10**9 + 1
    for t in range(4):
        assert recurrence_bound(3, Fraction(0), t, 6).closed_form == 0
