"""Mixed-integer rounding: single cuts, iterated cuts, and the closed-form
subadditive coefficient functions for multi-facility cut-sets.

Everything here is exact arithmetic over anonymous variable indices;
callers map results onto instance variables.  A single cut (``mir_cut``)
is computed on ``Fraction``s.  Iterated rounding of a knapsack cover set
runs on ints: its capacities are ints and its right-hand side a ratio
``p/q``, and after each rounding step the inequality is cleared to coprime
integers, so a step divides by a capacity ``c`` exactly with ``//`` and
``%`` over the common denominator ``q*c``.  A ``BaseInequality`` is built
only for each distinct result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import ZERO, frac, integral_scale


def floor_frac(x: Fraction) -> int:
    return math.floor(x)


def ceil_frac(x: Fraction) -> int:
    return math.ceil(x)


def frac_part(x: Fraction) -> Fraction:
    return x - math.floor(x)


@dataclass
class BaseInequality:
    """``sum a_j x_j + sum c_j y_j >= b`` with continuous x >= 0, integer y >= 0."""

    cont: dict[int, Fraction] = field(default_factory=dict)
    integ: dict[int, Fraction] = field(default_factory=dict)
    rhs: Fraction = ZERO

    def __post_init__(self):
        self.cont = {j: frac(v) for j, v in self.cont.items() if frac(v) != 0}
        self.integ = {j: frac(v) for j, v in self.integ.items()}
        self.rhs = frac(self.rhs)
        if not self.integ:
            raise ValueError("base inequality needs at least one integer variable")

    def integer_normal_form(self) -> tuple[tuple, tuple, Fraction]:
        """Coefficients cleared to coprime integers, for comparisons."""
        scale = integral_scale([*self.cont.values(), *self.integ.values(), self.rhs])
        return (
            tuple(sorted((j, v * scale) for j, v in self.cont.items())),
            tuple(sorted((j, v * scale) for j, v in self.integ.items() if v != 0)),
            self.rhs * scale,
        )


def basic_mir(b) -> tuple[Fraction, int]:
    """Parameters (r, ceil(b)) of ``x + r*y >= r*ceil(b)`` for x + y >= b."""
    b = frac(b)
    return frac_part(b), ceil_frac(b)


def mir_cut(base: BaseInequality) -> BaseInequality:
    """One rounding step applied to a base inequality.

    Negative continuous terms are dropped, each integer coefficient c_j
    becomes ``r*floor(c_j) + min(frac(c_j), r)`` and the right-hand side
    ``r*ceil(b)``, with ``r = frac(b)``.  When b is integral the cut
    degenerates; the base is returned unchanged so iterated application
    can simply skip such steps.
    """
    r = frac_part(base.rhs)
    if r == 0:
        return BaseInequality(dict(base.cont), dict(base.integ), base.rhs)
    cont = {j: v for j, v in base.cont.items() if v > 0}
    integ = {}
    for j, c in base.integ.items():
        rj = frac_part(c)
        integ[j] = r * floor_frac(c) + min(rj, r)
    return BaseInequality(cont, integ, r * ceil_frac(base.rhs))


@dataclass(frozen=True)
class KnapsackCoverSet:
    """Integer points z >= 0 with ``sum c_m z_m >= b`` (c strictly increasing)."""

    capacities: tuple[int, ...]
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "rhs", frac(self.rhs))
        caps = self.capacities
        if any(c <= 0 for c in caps):
            raise ValueError("capacities must be positive integers")
        if any(a >= b for a, b in zip(caps, caps[1:])):
            raise ValueError("capacities must be strictly increasing")


def _rounded(coefs: tuple[int, ...], p: int, q: int, c: int) -> tuple[tuple[int, ...], int]:
    """One rounding step of ``sum a_m z_m >= p/q`` (integer ``a_m``, ``q > 0``)
    divided by ``c``, cleared to coprime integers ``(coefs, rhs)``.

    Over the common denominator ``D = q*c`` the divided inequality has
    numerators ``A_m = a_m*q`` and ``p``.  ``mir_cut``'s remainder is
    ``rho/D`` with ``rho = p % D``, and its coefficients and right-hand
    side are ``rho*(A_m//D) + min(A_m%D, rho)`` and ``rho*ceil(p/D)``
    over ``D``, a positive factor that the clearing drops.  With
    ``rho = 0`` the divided inequality is cleared as it is.
    """
    D = q * c
    rho = p % D
    if rho:
        out = [rho * (a * q // D) + min(a * q % D, rho) for a in coefs]
        rhs = rho * -(-p // D)
    else:
        out = [a * q for a in coefs]
        rhs = p
    g = math.gcd(*out, rhs)
    return tuple(v // g for v in out), rhs // g


def _base(coefs: tuple[int, ...], rhs: int) -> BaseInequality:
    return BaseInequality({}, dict(enumerate(coefs)), rhs)


def iterative_mir(cover: KnapsackCoverSet, subsequence: Sequence[int]) -> BaseInequality:
    """Round repeatedly, dividing by each chosen capacity in turn.

    ``subsequence`` holds indices into ``cover.capacities`` in increasing
    order.  Each round divides the current inequality by the next
    capacity, applies the rounding step, and rescales by the reciprocal
    remainder so the next division sees the inequality in its rounded
    normal form (for an all-integer inequality this makes a divisor-1 step
    literal integer rounding).  Divisors run smallest to largest: that
    ordering, and only that ordering, recovers every hull facet of the
    divisible case -- largest-first misses e.g. ``z1 + 2*z2 >= 6`` for
    capacities (1, 3) with requirement 23/3.  The result is valid for the
    cover set regardless of divisibility.  Each round is one ``_rounded``
    step on ints; the result has coprime integer coefficients.
    """
    idx = list(subsequence)
    if any(a >= b for a, b in zip(idx, idx[1:])) or not idx:
        raise ValueError("subsequence must be nonempty strictly increasing indices")
    if any(i < 0 or i >= len(cover.capacities) for i in idx):
        raise ValueError("subsequence index out of range")
    coefs, p, q = cover.capacities, cover.rhs.numerator, cover.rhs.denominator
    for i in idx:
        coefs, p = _rounded(coefs, p, q, cover.capacities[i])
        q = 1
    return _base(coefs, p)


def all_subsequences(n_facilities: int):
    """Every nonempty increasing index subsequence (meant for small n)."""
    for size in range(1, n_facilities + 1):
        yield from combinations(range(n_facilities), size)


def hull_inequalities(cover: KnapsackCoverSet) -> list[BaseInequality]:
    """Iterated-MIR cuts for every subsequence, deduplicated, in order of
    first occurrence.  Subsequences come shortest first, so each one is a
    single ``_rounded`` step from the result of its prefix."""
    caps = cover.capacities
    reached = {(): (caps, cover.rhs.numerator, cover.rhs.denominator)}
    distinct = {}
    for sub in all_subsequences(len(caps)):
        coefs, p, q = reached[sub[:-1]]
        coefs, p = _rounded(coefs, p, q, caps[sub[-1]])
        reached[sub] = (coefs, p, 1)
        distinct[coefs, p] = None
    return [_base(coefs, p) for coefs, p in distinct]


# -- closed-form subadditive coefficient functions ----------------------------


@dataclass(frozen=True)
class PhiParams:
    """Rounding data of a base facility: divisor c_s, remainder and eta.

    ``c_s`` and ``r`` may be Fractions or, scaled by a common denominator,
    ints: the phi functions are homogeneous in ``(c, c_s, r)``.  The phi
    functions read only ``c_s`` and ``r``; ``eta`` is carried for the
    cut's ``params``, so phi values may be memoized per remainder.
    """

    s: int
    c_s: Fraction | int
    r: Fraction | int
    eta: int

    def __post_init__(self):
        if not 0 <= self.r < self.c_s:
            raise ValueError(f"remainder {self.r} outside [0, {self.c_s})")


def _check_phi_args(p: PhiParams, c):
    if c < 0:
        raise ValueError("phi is defined for nonnegative arguments")
    if p.r == 0:
        raise ValueError("degenerate remainder: the cut vanishes, skip it")


def phi_plus(p: PhiParams, c):
    """Outbound coefficient function; piecewise linear, subadditive.

    Exact for Fraction and int arguments alike; the result has their type.
    """
    _check_phi_args(p, c)
    k = c // p.c_s
    if c < k * p.c_s + p.r:
        return c - k * (p.c_s - p.r)
    return (k + 1) * p.r


def phi_minus(p: PhiParams, c):
    """Inbound coefficient function; mirror of ``phi_plus``."""
    _check_phi_args(p, c)
    k = c // p.c_s
    # intervals [k*c_s - r, k*c_s) take the flat branch
    if c >= (k + 1) * p.c_s - p.r:
        return (k + 1) * (p.c_s - p.r)
    return c - k * p.r
