"""Analytic failure-probability bound calculators.

Everything here is desk arithmetic: exact rationals where the quantity is
rational, mpmath at >= 256 bits otherwise.  Logarithms are base 2
throughout (including iterated towers), a fixed convention that makes
every reported number reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import BudgetExceededError, DomainError, InvalidParameterError

PRECISION_BITS = 256

# Largest result recurrence_bound computes, in bits of the exact power's
# denominator; 2**26 keeps t <= 4 at delta 4 (the README's c0=2, p0=1/16
# needs about 2**23.9 bits at t=4 and 2**28.5 at t=5).
RECURRENCE_BUDGET_BITS = 1 << 26

# Cap on the Newton steps of zero_round_optimum; delta <= 16 with c <= 64
# stops after at most 30.
ZERO_ROUND_ITERATIONS = 3000


def log_star(x):
    """Iterated-logarithm count: applications of log2 until the value is <= 1."""
    count = 0
    x = mpmath.mpf(x)
    while x > 1:
        x = mpmath.log(x, 2)
        count += 1
    return count


def iterated_log2(x, times):
    """log2 applied ``times`` times; raises if an intermediate value
    reaches <= 1 before the tower is finished."""
    val = mpmath.mpf(x)
    for i in range(times):
        if val <= 1:
            raise DomainError(
                f"iterated log undefined: value <= 1 after {i} applications")
        val = mpmath.log(val, 2)
    return val


# ---------------------------------------------------------------------------
# Zero-round optimum
# ---------------------------------------------------------------------------


@dataclass
class ZeroRoundOptimum:
    c: int
    delta: int
    closed_form: Fraction          # c**(-delta)
    uniform: tuple
    numeric_minimum: float
    numeric_argmin: tuple
    iterations: int


def zero_round_optimum(c, delta):
    """Minimize the zero-round failure probability sum_i D(i)^(delta+1)
    over color distributions D.

    The symmetric convex objective is minimized by the uniform
    distribution, giving c**(-delta); Newton steps on the simplex confirm
    this numerically from a deliberately lopsided start.  The objective is
    separable, so its Hessian is diagonal, ``(delta+1) delta x^(delta-1)``,
    and the step that keeps ``sum x = 1`` moves x a ``1/delta`` share of the
    way toward ``x^(1-delta)`` normalized to sum 1.  That point is positive,
    so the full step keeps every coordinate positive and needs no damping.
    The steps stop at the first one that moves no coordinate by ``1e-15/c``.
    """
    if c < 1:
        raise InvalidParameterError("palette size must be >= 1")
    if delta < 1:
        raise InvalidParameterError("delta must be >= 1")
    if c == 1:
        return ZeroRoundOptimum(c=1, delta=delta, closed_form=Fraction(1),
                                uniform=(1.0,), numeric_minimum=1.0,
                                numeric_argmin=(1.0,), iterations=0)
    x = np.arange(1.0, c + 1.0)
    x /= x.sum()
    for steps in range(1, ZERO_ROUND_ITERATIONS + 1):
        w = (x.min() / x) ** (delta - 1)     # x^(1-delta), scaled to stay finite
        dx = (w / w.sum() - x) / delta
        x += dx
        if np.abs(dx).max() < 1e-15 / c:
            break
    return ZeroRoundOptimum(
        c=c, delta=delta,
        closed_form=Fraction(1, c**delta),
        uniform=tuple([1.0 / c] * c),
        numeric_minimum=float((x ** (delta + 1)).sum()),
        numeric_argmin=tuple(float(t) for t in x),
        iterations=steps)


# ---------------------------------------------------------------------------
# Palette/failure recurrence
# ---------------------------------------------------------------------------


@dataclass
class RecurrenceBound:
    c0: int
    p0: Fraction
    t: int
    delta: int
    closed_form: Fraction
    iterated: Fraction
    steps: int

    @property
    def agree(self):
        return self.closed_form == self.iterated


def recurrence_bound(c0, p0, t, delta=4):
    """Lower bound (p0/((delta+1) c0))^((delta+1)^(2t+1)) on the local
    failure of a t-round weak 2-coloring algorithm, given that every
    0-round weak c0-coloring fails with probability at least p0.

    Computed twice in exact rational arithmetic: directly, and by raising
    to the (delta+1)-th power 2t+1 times; both must agree bit for bit.
    A result estimated past ``RECURRENCE_BUDGET_BITS`` raises
    :class:`BudgetExceededError` before any power is taken; a zero base
    gives the exact 0 at once, with no power taken either.
    """
    if c0 < 1 or t < 0:
        raise InvalidParameterError("need c0 >= 1 and t >= 0")
    if delta < 1:
        raise InvalidParameterError("delta must be >= 1")
    p0 = Fraction(p0)
    if not 0 <= p0 <= 1:
        raise InvalidParameterError("p0 must be a probability")
    base = p0 / ((delta + 1) * c0)
    steps = 2 * t + 1
    if base == 0:   # 0 to any positive power
        return RecurrenceBound(c0=c0, p0=p0, t=t, delta=delta,
                               closed_form=base, iterated=base, steps=steps)
    if 0 < base < 1:   # the result's denominator has about bits * (delta+1)^steps bits
        log2_bits = math.log2(base.denominator.bit_length()) + steps * math.log2(delta + 1)
        if log2_bits > math.log2(RECURRENCE_BUDGET_BITS):
            raise BudgetExceededError(
                f"the t={t} recurrence bound has about 2^{log2_bits:.1f} bits, past the "
                f"budget of 2^{RECURRENCE_BUDGET_BITS.bit_length() - 1}")
    closed = base ** ((delta + 1) ** steps)
    iterated = base
    for _ in range(steps):
        iterated = iterated ** (delta + 1)
    return RecurrenceBound(c0=c0, p0=p0, t=t, delta=delta,
                           closed_form=closed, iterated=iterated, steps=steps)


# ---------------------------------------------------------------------------
# Global success bound
# ---------------------------------------------------------------------------


@dataclass
class GlobalBound:
    n: int
    t: int
    b: int
    tower: float                   # log^(2b) n
    independent_executions: float  # n^(1/(3(2t+1)))
    bound: float
    relaxed: float                 # e^(-exponent/loglog n) + 1/(2 n^(1/3))
    id_term: float                 # 1/(2 n^(1/3))
    condition_holds: bool          # exponent / loglog n > 2

    def to_json_obj(self):
        return {"inputs": {"n": self.n, "t": self.t, "b": self.b},
                "value": self.bound, "relaxed": self.relaxed,
                "tower": self.tower, "id_term": self.id_term,
                "independent_executions": self.independent_executions,
                "condition_holds": self.condition_holds,
                "precision_bits": PRECISION_BITS}


def global_success_upper_bound(n, t, b):
    """Upper bound (1 - 1/log^(2b) n)^(n^(1/(3(2t+1)))) + 1/(2 n^(1/3)) on
    the probability that a sub-(log*)-round algorithm produces a legal weak
    2-coloring, together with its exponential relaxation."""
    if n < 2 or t < 0 or b < 1:
        raise InvalidParameterError("need n >= 2, t >= 0, b >= 1")
    with mpmath.workprec(PRECISION_BITS):
        nn = mpmath.mpf(n)
        tower = iterated_log2(nn, 2 * b)
        if tower <= 1:
            raise DomainError("log^(2b) n must exceed 1")
        expo = nn ** (mpmath.mpf(1) / (3 * (2 * t + 1)))
        id_term = 1 / (2 * nn ** (mpmath.mpf(1) / 3))
        bound = (1 - 1 / tower) ** expo + id_term
        loglog = iterated_log2(nn, 2)
        relaxed = mpmath.e ** (-expo / loglog) + id_term
        return GlobalBound(
            n=n, t=t, b=b,
            tower=float(tower),
            independent_executions=float(expo),
            bound=float(bound),
            relaxed=float(relaxed),
            id_term=float(id_term),
            condition_holds=bool(expo / loglog > 2))


# ---------------------------------------------------------------------------
# Identifier collisions
# ---------------------------------------------------------------------------


@dataclass
class IdCollisionBound:
    n: int
    value: object                  # Fraction when n is a perfect cube
    bound: object
    holds: bool


def id_collision_bound(n):
    """Probability bound C(n^(1/3), 2)/n on a random {1..n} id assignment
    colliding inside a ball of n^(1/3) nodes, with the strict comparison
    against 1/(2 n^(1/3))."""
    if n < 8:
        raise InvalidParameterError("need n >= 8")
    root = round(n ** (1 / 3))
    if root**3 == n:
        x = Fraction(root)
        value = x * (x - 1) / (2 * n)
        bound = Fraction(1, 2 * root)
        return IdCollisionBound(n=n, value=value, bound=bound,
                                holds=value < bound)
    with mpmath.workprec(PRECISION_BITS):
        x = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        value = x * (x - 1) / (2 * n)
        bound = 1 / (2 * x)
        return IdCollisionBound(n=n, value=float(value), bound=float(bound),
                                holds=bool(value < bound))
