"""Valid inequalities and separation for single-arc capacity relaxations.

A relaxation here is ``sum a_i x_i <= a_0 + y`` with ``x`` either boxed in
[0,1] (splittable) or binary (unsplittable) and ``y`` integer.  Cuts are
kept in the natural display form ``sum coef_i x_i <= const + y_coef * y``
(``ArcInequality``) and mapped back onto raw instance variables by the
engine using the relaxation's provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .core import ZERO, Instance, LinearCut, frac, scaled_ints

SPLITTABLE = "splittable"
UNSPLITTABLE = "unsplittable"
C_STRONG_ENUMERATION_CAP = 20  # fractional commodities that separate_c_strong enumerates


@dataclass
class ArcInequality:
    """``sum coefs_i x_i <= const + y_coef * y`` over one arc's commodities."""

    coefs: dict[int, Fraction]
    const: Fraction
    y_coef: Fraction
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coefs = {i: frac(v) for i, v in self.coefs.items() if frac(v) != 0}
        self.const = frac(self.const)
        self.y_coef = frac(self.y_coef)


@dataclass(frozen=True)
class ArcSetRelaxation:
    """Single-arc capacity relaxation over a commodity list."""

    a: tuple[Fraction, ...]
    a0: Fraction
    mode: str
    # provenance for mapping cuts back to instance variables
    arc: int | None = None
    facility: int | None = None
    commodities: tuple[int, ...] | None = None
    demands: tuple[Fraction, ...] | None = None
    capacity: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(frac(v) for v in self.a))
        object.__setattr__(self, "a0", frac(self.a0))
        if self.a0 < 0:
            raise ValueError("existing-capacity term a0 must be nonnegative")
        if any(v < 0 for v in self.a):
            raise ValueError("coefficients must be positive (complement first)")

    @property
    def n(self) -> int:
        return len(self.a)

    def a_sum(self, S: Iterable[int]) -> Fraction:
        return sum((self.a[i] for i in S), ZERO)

    def is_normalized(self) -> bool:
        return all(v < 1 for v in self.a) and self.a0 < 1


def from_capacity_row(instance: Instance, arc: int) -> ArcSetRelaxation:
    """Divide an arc's capacity row by the size of facility 0.

    Commodity demands become the coefficients ``a_i = d_k / c`` and the
    existing capacity the offset ``a_0``; the mode is the instance's.
    Sound only for single-facility instances, the ones the arc-set
    families apply to.
    """
    c = instance.facilities[0].capacity
    demands = tuple(com.total_supply for com in instance.commodities)
    return ArcSetRelaxation(
        a=tuple(d / c for d in demands),
        a0=instance.arcs[arc].existing_capacity / c,
        mode=UNSPLITTABLE if instance.unsplittable else SPLITTABLE,
        arc=arc,
        facility=0,
        commodities=tuple(range(len(instance.commodities))),
        demands=demands,
        capacity=c,
    )


def normalize_unsplittable(rel: ArcSetRelaxation):
    """Reduce to fractional parts; returns ``(reduced, offsets, offset0)``.

    Coefficients with zero fractional part stay as zero entries (their
    variables cannot appear in reduced-space cuts); ``back_map_cut``
    restores the dropped integer parts.
    """
    if rel.mode != UNSPLITTABLE:
        raise ValueError("normalization applies to unsplittable relaxations")
    offsets = tuple(math.floor(v) for v in rel.a)
    off0 = math.floor(rel.a0)
    reduced = ArcSetRelaxation(
        a=tuple(v - off for v, off in zip(rel.a, offsets)),
        a0=rel.a0 - off0,
        mode=UNSPLITTABLE,
        arc=rel.arc,
        facility=rel.facility,
        commodities=rel.commodities,
        demands=rel.demands,
        capacity=rel.capacity,
    )
    return reduced, offsets, off0


def back_map_cut(ineq: ArcInequality, offsets: Sequence[int], offset0: int) -> ArcInequality:
    """Translate a reduced-space cut to the original unsplittable set.

    Substituting the reduced capacity variable ``y' = y + floor(a0)
    - sum floor(a_i) x_i`` turns ``coefs*x <= const + b*y'`` into
    ``(coefs_i + b*floor(a_i))*x <= (const + b*floor(a0)) + b*y``.
    """
    b = ineq.y_coef
    coefs = dict(ineq.coefs)
    for i, off in enumerate(offsets):
        if off:
            coefs[i] = coefs.get(i, ZERO) + b * off
    return ArcInequality(coefs, ineq.const + b * offset0, b, dict(ineq.params))


# -- splittable: residual capacity ---------------------------------------------


def residual_capacity_cut(rel: ArcSetRelaxation, S: Iterable[int]) -> ArcInequality | None:
    """Rounding cut for a commodity subset; ``None`` when it degenerates."""
    S = sorted(set(S))
    if not S:
        raise ValueError("subset must be nonempty")
    gap = rel.a_sum(S) - rel.a0
    r = gap - math.floor(gap)
    if r == 0:
        return None
    eta = math.ceil(gap)
    # sum_{i in S} a_i (1 - x_i) >= r (eta - y), displayed in <= form
    coefs = {i: rel.a[i] for i in S}
    const = rel.a_sum(S) - r * eta
    return ArcInequality(coefs, const, r, params={"S": tuple(S), "r": r, "eta": eta})


def separate_residual_capacity(
    rel: ArcSetRelaxation, xbar: Mapping[int, Fraction] | Sequence, ybar
) -> ArcInequality | None:
    """Exact linear-time separation over all residual capacity cuts, at a
    point satisfying the box bounds and the capacity row: the decision of
    ``residual_capacity_set`` on the relaxation's and the point's ints."""
    xbar, ybar = _as_xmap(rel, xbar), frac(ybar)
    x = [xbar.get(i, ZERO) for i in range(rel.n)]
    A, D = math.lcm(*(v.denominator for v in (rel.a0, *rel.a))), math.lcm(*(v.denominator for v in (ybar, *x)))
    a0_num, *a_num = scaled_ints([rel.a0, *rel.a], A)
    T = residual_capacity_set(a_num, a0_num, A, [(v.numerator, v.denominator) for v in x], *scaled_ints([ybar], D), D)
    return None if T is None else residual_capacity_cut(rel, T)


def residual_capacity_set(
    a_num: Sequence[int], a0_num: int, A: int, x: Sequence[tuple[int, int]], Y: int, D: int
) -> list[int] | None:
    """The subset T whose residual capacity cut is violated, or None, on
    ints: ``a_num[i]`` and ``a0_num`` are ``a_i`` and ``a_0`` times A,
    ``x[i]`` is ``x_i`` as ``(num, den)``, ``Y`` is ``D * ybar``, and D
    clears every ``A * a_i * x_i``.  T holds the commodities whose ``x_i``
    exceeds the fractional part of ``ybar``; its cut is violated when
    ``a_0 + floor(ybar) < a(T) < a_0 + ceil(ybar)`` and the slack ``sum_T
    a_i (1 - x_i - g) + g (a_0 + floor(ybar))``, g = ``ceil(ybar) - ybar``,
    is negative, and if either fails no cut in the family is."""
    floor_y, frac_y = divmod(Y, D)
    T = [i for i, (num, den) in enumerate(x) if num * D > frac_y * den]
    lo = a0_num + floor_y * A
    if not (frac_y and T and lo < sum(a_num[i] for i in T) < lo + A):
        return None
    # A * D times the slack, g * D being D - frac_y
    slack = sum(a_num[i] * frac_y - D * a_num[i] * x[i][0] // x[i][1] for i in T) + (D - frac_y) * lo
    return T if slack < 0 else None


def _as_xmap(rel: ArcSetRelaxation, xbar) -> dict[int, Fraction]:
    if isinstance(xbar, Mapping):
        return {i: frac(v) for i, v in xbar.items()}
    return {i: frac(v) for i, v in enumerate(xbar)}


# -- unsplittable: rounding cuts ------------------------------------------------


def c_strong_value(rel: ArcSetRelaxation, S: Iterable[int]) -> int:
    S = list(S)
    return len(S) - math.ceil(rel.a_sum(S) - rel.a0)


def c_strong_cut(rel: ArcSetRelaxation, S: Iterable[int]) -> ArcInequality:
    """``sum_{i in S} x_i <= c_S + y`` for a normalized unsplittable set."""
    _require_normalized(rel)
    S = sorted(set(S))
    return ArcInequality(
        {i: Fraction(1) for i in S},
        Fraction(c_strong_value(rel, S)),
        Fraction(1),
        params={"S": tuple(S), "c_S": c_strong_value(rel, S)},
    )


def separate_c_strong(
    rel: ArcSetRelaxation, xbar: Mapping[int, Fraction] | Sequence, ybar
) -> ArcInequality | None:
    """Most violated rounding cut; exact on the fractional support.

    Entries at 0 and 1 can be fixed at their values, so only fractional
    commodities are enumerated.  Beyond ``C_STRONG_ENUMERATION_CAP`` of them a
    rounding heuristic (include when >= 1/2) runs instead and the result
    carries ``heuristic: True``.
    """
    _require_normalized(rel)
    xbar = _as_xmap(rel, xbar)
    ybar = frac(ybar)
    ones = [i for i in range(rel.n) if xbar.get(i, ZERO) == 1]
    fracs = [i for i in range(rel.n) if 0 < xbar.get(i, ZERO) < 1]

    def viol(S):
        return sum((xbar.get(i, ZERO) for i in S), ZERO) - c_strong_value(rel, S) - ybar

    heuristic = len(fracs) > C_STRONG_ENUMERATION_CAP
    if heuristic:
        candidates = [ones + [i for i in fracs if xbar[i] >= Fraction(1, 2)]]
    else:
        candidates = [ones + list(sub) for size in range(len(fracs) + 1) for sub in combinations(fracs, size)]
    best, best_v = None, ZERO
    for S in candidates:
        if not S:
            continue
        v = viol(S)
        if v > best_v:
            best, best_v = S, v
    if best is None:
        return None
    cut = c_strong_cut(rel, best)
    cut.params.update({"violation": best_v, "heuristic": heuristic})
    return cut


def k_split_c_strong_cut(rel: ArcSetRelaxation, S: Iterable[int], k: int) -> ArcInequality:
    """Rounding cut for capacity sold in multiples of 1/k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    S = sorted(set(S))
    ceil_in = {i: math.ceil(k * rel.a[i]) for i in S}
    coefs = dict(ceil_in)
    for i in range(rel.n):
        if i not in coefs:
            coefs[i] = Fraction(math.floor(k * rel.a[i]))
    c_sk = sum(ceil_in.values()) - math.ceil(k * (rel.a_sum(S) - rel.a0))
    return ArcInequality(
        {i: Fraction(v) for i, v in coefs.items()},
        Fraction(c_sk),
        Fraction(k),
        params={"S": tuple(S), "k": k, "c_Sk": c_sk},
    )


def _require_normalized(rel: ArcSetRelaxation):
    if rel.mode != UNSPLITTABLE:
        raise ValueError("operation requires an unsplittable relaxation")
    if not rel.is_normalized():
        raise ValueError("normalize the relaxation first")


# -- unsplittable: lifted cover cuts -------------------------------------------


@dataclass(frozen=True)
class CoverSpec:
    """Knapsack restriction (y fixed, some variables pinned) plus its cover."""

    ybar: int
    K0: frozenset[int]
    K1: frozenset[int]
    cover: tuple[int, ...]
    excess: Fraction
    minimal: bool

    @classmethod
    def build(cls, rel: ArcSetRelaxation, ybar: int, K0: Iterable[int], K1: Iterable[int]) -> "CoverSpec":
        K0, K1 = frozenset(K0), frozenset(K1)
        if K0 & K1:
            raise ValueError("fixed-zero and fixed-one sets overlap")
        C = tuple(sorted(set(range(rel.n)) - K0 - K1))
        excess = rel.a_sum(C) + rel.a_sum(K1) - rel.a0 - ybar
        if not C or excess <= 0:
            raise ValueError("remaining variables do not form a cover")
        minimal = all(rel.a[i] >= excess for i in C)
        return cls(ybar=ybar, K0=K0, K1=K1, cover=C, excess=excess, minimal=minimal)


def lifted_cover_cut(rel: ArcSetRelaxation, spec: CoverSpec, order: Sequence[int] | None = None) -> ArcInequality:
    """Sequentially lifted cover inequality.

    The capacity variable is lifted first, taking the largest coefficient
    valid against the restrictions below ``ybar`` (this is what makes the
    whole construction cubic-time).  Pinned variables then enter one at a
    time, fixed-zero before fixed-one, ascending index unless ``order``
    overrides it; every coefficient is the exact optimum of its lifting
    problem.  Non-minimal covers lift to valid (weaker) inequalities;
    ``params["minimal"]`` says which kind the cover was.
    """
    _require_normalized(rel)
    C = list(spec.cover)
    rhs = Fraction(len(C) - 1)

    # state: free 0/1 items with their current inequality coefficients
    items = [(i, Fraction(1)) for i in C]
    fixed_one = set(spec.K1)
    const = ZERO  # accumulated constants from lifted fixed-one terms

    def max_lhs(extra_load: Fraction, alpha: Fraction, include_items):
        """max of current LHS over the set with given extra fixed load."""
        best = None
        load = rel.a_sum(fixed_one) + extra_load
        y_lo = math.ceil(load - rel.a0)
        y_hi = math.ceil(load + sum((rel.a[i] for i, p in include_items if p > 0), ZERO) - rel.a0)
        for y in range(y_lo, y_hi + 1):
            cap = rel.a0 + y - load
            if cap < 0:
                continue
            value = _knapsack_max(rel, include_items, cap) + const + alpha * (spec.ybar - y)
            if best is None or value > best:
                best = value
        return best

    # lift the capacity variable
    phis = {}
    restriction = [(i, Fraction(1)) for i in C]
    load = rel.a_sum(fixed_one)
    y_full = math.ceil(load + rel.a_sum(C) - rel.a0)
    y_lo = max(math.ceil(load - rel.a0), math.ceil(-rel.a0))
    for y in range(y_lo, max(y_full, spec.ybar) + 2):
        cap = rel.a0 + y - load
        if cap < 0:
            continue
        phis[y] = _knapsack_max(rel, restriction, cap)
    uppers = [(rhs - phis[y]) / (spec.ybar - y) for y in phis if y < spec.ybar]
    lowers = [(phis[y] - rhs) / (y - spec.ybar) for y in phis if y > spec.ybar]
    alpha = min(uppers) if uppers else max(lowers)
    if lowers and alpha < max(lowers):
        raise ValueError("no valid linear lifting coefficient for the capacity variable")

    # lift pinned variables: fixed-zero ascending, then fixed-one ascending
    sequence = list(order) if order is not None else sorted(spec.K0) + sorted(spec.K1)
    if set(sequence) != spec.K0 | spec.K1:
        raise ValueError("lifting order must cover exactly the pinned variables")
    alphas = {}
    for j in sequence:
        if j in spec.K0:
            best = max_lhs(rel.a[j], alpha, items)
            aj = rhs - best if best is not None else ZERO
            alphas[j] = aj
            if aj != 0:
                items.append((j, aj))
        else:
            fixed_one.discard(j)
            best = max_lhs(ZERO, alpha, items)
            aj = rhs - best if best is not None else ZERO
            alphas[j] = aj
            const += aj
            if aj != 0:
                items.append((j, -aj))

    coefs = {i: Fraction(1) for i in C}
    for j in spec.K0:
        coefs[j] = alphas[j]
    for j in spec.K1:
        coefs[j] = -alphas[j]
    const_final = rhs - sum((alphas[j] for j in spec.K1), ZERO) - alpha * spec.ybar
    return ArcInequality(
        coefs,
        const_final,
        alpha,
        params={
            "ybar": spec.ybar,
            "C": spec.cover,
            "K0": tuple(sorted(spec.K0)),
            "K1": tuple(sorted(spec.K1)),
            "alpha_y": alpha,
            "alphas": dict(alphas),
            "minimal": spec.minimal,
        },
    )


def _knapsack_max(rel: ArcSetRelaxation, items, cap: Fraction) -> Fraction:
    """Exact 0/1 knapsack maximum of the ``(item, profit)`` pairs ``items``
    under ``cap``, by dynamic programming over the weights'
    common-denominator grid."""
    if cap < 0:
        return ZERO
    live = [(i, p) for i, p in items if p > 0]
    denom = math.lcm(*(rel.a[i].denominator for i, _ in live), cap.denominator)
    W = int(cap * denom)
    dp = [ZERO] * (W + 1)
    for i, p in live:
        w = int(rel.a[i] * denom)
        for c in range(W, w - 1, -1):
            cand = dp[c - w] + p
            if cand > dp[c]:
                dp[c] = cand
    return dp[W]


# -- mapping back to instance variables ----------------------------------------


def to_instance_cut(rel: ArcSetRelaxation, ineq: ArcInequality, family: str) -> LinearCut:
    """Express a relaxation cut over raw flow/installation variables.

    Relaxation flows are fractions of each commodity's supply, so raw
    coefficients are scaled by ``1/d_k``; the inequality flips to the
    ``>=`` orientation used by the pool.
    """
    if rel.arc is None or rel.demands is None:
        raise ValueError("relaxation lacks provenance; build it from a capacity row")
    flow = {}
    for i, coef in ineq.coefs.items():
        ki = rel.commodities[i]
        flow[(rel.arc, ki)] = -coef / rel.demands[i]
    cap = {(rel.arc, rel.facility): ineq.y_coef}
    params = dict(ineq.params)
    params["arc"] = rel.arc
    return LinearCut(flow=flow, cap=cap, rhs=-ineq.const, family=family, params=params)
