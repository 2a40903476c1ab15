"""Mixed-integer rounding: iterated cuts of knapsack cover sets, and the
closed-form subadditive coefficient functions for multi-facility cut-sets.

Everything here is exact arithmetic over anonymous variable indices;
callers map results onto instance variables.  Iterated rounding of a
knapsack cover set runs on ints: its capacities are ints and its
right-hand side a ratio ``p/q``, and after each rounding step the
inequality is cleared to coprime integers, so a step divides by a capacity
``c`` exactly with ``//`` and ``%`` over the common denominator ``q*c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from .core import frac


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
    numerators ``A_m = a_m*q`` and ``p``, and remainder ``r = rho/D`` with
    ``rho = p % D``.  The rounding step maps a coefficient ``x`` to
    ``r*floor(x) + min(frac(x), r)`` and the right-hand side ``b`` to
    ``r*ceil(b)``: over ``D``, the numerators
    ``rho*(A_m//D) + min(A_m%D, rho)`` and ``rho*ceil(p/D)``, and the
    clearing drops the positive factor.  With ``rho = 0`` the divided
    inequality is cleared as it is.
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


def all_subsequences(n_facilities: int):
    """Every nonempty increasing index subsequence (meant for small n)."""
    for size in range(1, n_facilities + 1):
        yield from combinations(range(n_facilities), size)


def hull_inequalities(cover: KnapsackCoverSet) -> list[tuple[tuple[int, ...], int]]:
    """Iterated-MIR cuts for every subsequence, deduplicated, in order of
    first occurrence, each ``sum coefs[m] z_m >= rhs`` as the coprime ints
    ``(coefs, rhs)``, ``coefs`` indexed like ``cover.capacities``.

    A subsequence holds increasing indices into ``cover.capacities``; its
    cut divides by each chosen capacity in turn and rounds (``_rounded``),
    and the clearing after each step makes the next division see the
    inequality in its rounded normal form (for an all-integer inequality a
    divisor-1 step is literal integer rounding).  Divisors run smallest to
    largest: that ordering, and only that ordering, recovers every hull
    facet of the divisible case -- largest-first misses e.g.
    ``z1 + 2*z2 >= 6`` for capacities (1, 3) with requirement 23/3.  Every
    cut is valid for the cover set regardless of divisibility.
    Subsequences come shortest first, so each one is a single ``_rounded``
    step from the result of its prefix.
    """
    caps = cover.capacities
    reached = {(): (caps, cover.rhs.numerator, cover.rhs.denominator)}
    distinct = {}
    for sub in all_subsequences(len(caps)):
        coefs, p, q = reached[sub[:-1]]
        coefs, p = _rounded(coefs, p, q, caps[sub[-1]])
        reached[sub] = (coefs, p, 1)
        distinct[coefs, p] = None
    return list(distinct)


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
