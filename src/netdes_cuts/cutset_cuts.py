"""Cut-set, flow-cut-set and multi-facility cut-set inequalities.

All families live on a two-partition (U, V) of the nodes: crossing arcs
carry capacity variables, per-commodity net demands in V give the amount
that must cross, and rounding the aggregated crossing constraint produces
the cuts.  Existing capacities enter through the shifted right-hand side
``b'_Q = b_Q - cbar(S+) + cbar(S-)``, which makes the remainder used for
rounding depend on the chosen arc subsets; separation re-evaluates it in
a short fixed-point loop (a single pass is exact when crossing arcs have
no existing capacity).

Separation (``separate_flow_cutset``, ``separate_multifacility``) scans and
scores candidate selections on integers over a common denominator of the
data and the point, and builds the exact ``LinearCut`` only for the most
violated selection; the cut and its violation are unchanged by the scaling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import ZERO, FractionalPoint, Instance, LinearCut, frac
from .mir import PhiParams, ceil_frac, floor_frac, phi_minus, phi_plus
from . import arc_cuts


@dataclass
class CutSetRelaxation:
    """Crossing structure of a two-partition (U, V)."""

    instance: Instance
    U: tuple[int, ...]
    V: tuple[int, ...]
    A_plus: tuple[int, ...]   # arc indices U -> V
    A_minus: tuple[int, ...]  # arc indices V -> U
    b: tuple[Fraction, ...]   # per-commodity net demand that must cross
    infeasible: bool = False

    def b_sum(self, Q: Iterable[int]) -> Fraction:
        return sum((self.b[k] for k in Q), ZERO)

    def cbar(self, arcs: Iterable[int]) -> Fraction:
        return sum((self.instance.arcs[a].existing_capacity for a in arcs), ZERO)

    def positive_commodities(self) -> tuple[int, ...]:
        return tuple(k for k, v in enumerate(self.b) if v > 0)


@dataclass(frozen=True)
class FlowCutSelection:
    """Arc/commodity subsets entering a flow-cut-set inequality."""

    Q: tuple[int, ...]
    S_plus: tuple[int, ...]
    S_minus: tuple[int, ...]
    facility: int = 0


def build_cutset(instance: Instance, U: Iterable[int], V: Iterable[int] | None = None) -> CutSetRelaxation:
    """Aggregate the design constraints across a node two-partition."""
    U = tuple(dict.fromkeys(U))
    if V is None:
        V = tuple(n for n in instance.nodes if n not in set(U))
    else:
        V = tuple(dict.fromkeys(V))
    if not U or not V or set(U) & set(V) or set(U) | set(V) != set(instance.nodes):
        raise ValueError("(U, V) must be a two-partition of the nodes")
    uset = set(U)
    a_plus, a_minus = [], []
    for ai, arc in enumerate(instance.arcs):
        if arc.tail in uset and arc.head not in uset:
            a_plus.append(ai)
        elif arc.tail not in uset and arc.head in uset:
            a_minus.append(ai)
    b = tuple(
        sum((com.w(n) for n in V), ZERO) for com in instance.commodities
    )
    rel = CutSetRelaxation(
        instance=instance,
        U=U,
        V=V,
        A_plus=tuple(a_plus),
        A_minus=tuple(a_minus),
        b=b,
    )
    if not a_plus and sum(b, ZERO) > rel.cbar(()):
        rel.infeasible = True
    return rel


def cutset_cut(
    rel: CutSetRelaxation, facility: int = 0, capacity=None
) -> LinearCut | None:
    """Rounded capacity requirement ``y(A+) >= ceil((b_K - cbar(A+)) / c)``."""
    c = frac(capacity) if capacity is not None else rel.instance.facilities[facility].capacity
    b_K = rel.b_sum(range(len(rel.b)))
    rhs = ceil_frac((b_K - rel.cbar(rel.A_plus)) / c)
    if rhs <= 0 or not rel.A_plus:
        return None
    return LinearCut(
        flow={},
        cap={(a, facility): Fraction(1) for a in rel.A_plus},
        rhs=Fraction(rhs),
        family="cutset",
        params={"U": rel.U, "rhs": rhs},
    )


def _rounding_data(rel, Q, S_plus, S_minus, c):
    """Remainder r and eta of rounding ``b'_Q / c``."""
    b_prime = rel.b_sum(Q) - rel.cbar(S_plus) + rel.cbar(S_minus)
    return b_prime - floor_frac(b_prime / c) * c, ceil_frac(b_prime / c)


def _phi_cut(rel: CutSetRelaxation, sel: FlowCutSelection, sizes: dict[int, Fraction], family: str) -> LinearCut:
    """Cut-set cut with capacity coefficients ``phi+(c_m)`` on S+ and
    ``phi-(c_m)`` on S- for each facility m of ``sizes`` (index -> size),
    rounded on the base facility ``sel.facility``."""
    c_s = sizes[sel.facility]
    r, eta = _rounding_data(rel, sel.Q, sel.S_plus, sel.S_minus, c_s)
    if r == 0:
        raise ValueError("degenerate remainder; cut is vacuous")
    p = PhiParams(s=sel.facility, c_s=c_s, r=r, eta=eta)
    flow = {}
    for k in sel.Q:
        for a in rel.A_plus:
            if a not in sel.S_plus:
                flow[(a, k)] = flow.get((a, k), ZERO) + 1
        for a in sel.S_minus:
            flow[(a, k)] = flow.get((a, k), ZERO) - 1
    cap = {}
    for arcs, phi in ((sel.S_plus, phi_plus), (sel.S_minus, phi_minus)):
        coefs = {m: phi(p, c) for m, c in sizes.items()}
        for a in arcs:
            for m, coef in coefs.items():
                cap[(a, m)] = coef
    return LinearCut(
        flow=flow,
        cap=cap,
        rhs=r * eta - rel.cbar(sel.S_minus),
        family=family,
        params={"U": rel.U, "Q": tuple(sel.Q), "S+": tuple(sel.S_plus), "S-": tuple(sel.S_minus), "r": r, "eta": eta},
    )


def flow_cutset_cut(rel: CutSetRelaxation, sel: FlowCutSelection, capacity=None) -> LinearCut:
    """Mixed rounding cut over capacity on (S+, S-) and flow elsewhere.

    ``r*y(S+) + x_Q(A+ \\ S+) + (c-r)*y(S-) - x_Q(S-) >= r*eta - cbar(S-)``
    where r and eta come from rounding ``b'_Q / c``.  The existing-capacity
    constant of the inflow bracket ``cbar(S-) + c*y(S-) - x_Q(S-) >= 0``
    lands on the right-hand side; dropping it (as a naive reading of the
    aggregated form suggests) is refuted by brute-force counterexamples
    whenever S- carries existing capacity.  Degenerate remainders (r = 0)
    are rejected: the cut would be implied.  This is the multi-facility cut
    restricted to the one facility, as ``phi+(c) = r`` and ``phi-(c) = c - r``.
    """
    c = frac(capacity) if capacity is not None else rel.instance.facilities[sel.facility].capacity
    return _phi_cut(rel, sel, {sel.facility: c}, "flowcutset")


def _prefer_capacity(cap_term, flow_term) -> bool:
    """Tie policy for the multi-facility scan: dead arcs (both terms zero)
    join the capacity side, so a zero point yields the pure capacity cut.
    The left-hand side is unaffected either way."""
    return cap_term < flow_term or (cap_term == 0 and flow_term == 0)


def _greedy_selection(rel, Q, point, s, facilities, prefer_plus, max_rounds):
    """Most violated ``(S+, S-)`` of the greedy cut-set scan, or None.

    For a given remainder the least left-hand side takes an arc into S+
    (resp. S-) exactly when its capacity term is smaller than its flow
    term (``prefer_plus`` decides S+ and its ties); with existing capacity
    on crossing arcs the remainder moves with the selection, so the pass
    repeats until it stabilizes.  Base facility ``s`` fixes the rounding and
    ``facilities`` lists those whose capacity terms count.

    Everything runs on ints: the crossing arcs' data and the point's
    coordinates on them are scaled by the lcm D of their denominators, so
    flows, remainders and phi values are D-scaled and capacity terms and
    violations D^2-scaled, with every comparison unchanged.
    """
    if not rel.A_plus:
        return None
    caps = rel.instance.facility_capacities()
    arcs = rel.instance.arcs
    crossing = rel.A_plus + rel.A_minus
    xs, ys = point.x, point.y
    dens = {caps[m].denominator for m in facilities}
    dens.update(rel.b[k].denominator for k in Q)
    dens.update(arcs[a].existing_capacity.denominator for a in crossing)
    dens.update(xs.get((a, k), 0).denominator for a in crossing for k in Q)
    dens.update(ys.get((a, m), 0).denominator for a in crossing for m in facilities)
    D = math.lcm(*dens)

    def scaled(v) -> int:
        return v.numerator * (D // v.denominator)

    c_s = scaled(caps[s])
    sizes = [scaled(caps[m]) for m in facilities]
    b_Q = sum(scaled(rel.b[k]) for k in Q)
    cbar = {a: scaled(arcs[a].existing_capacity) for a in crossing}
    flow = {a: D * sum(scaled(xs.get((a, k), 0)) for k in Q) for a in crossing}
    units = {a: [scaled(ys.get((a, m), 0)) for m in facilities] for a in crossing}

    def rounding(selection):
        s_plus, s_minus = selection
        b_prime = b_Q - sum(cbar[a] for a in s_plus) + sum(cbar[a] for a in s_minus)
        return b_prime % c_s, -(-b_prime // c_s)

    def cap_terms(r, eta):
        p = PhiParams(s=s, c_s=c_s, r=r, eta=eta)
        plus = [phi_plus(p, c) for c in sizes]
        minus = [phi_minus(p, c) for c in sizes]
        term = {a: sum(f * u for f, u in zip(plus, units[a])) for a in rel.A_plus}
        term.update((a, sum(f * u for f, u in zip(minus, units[a]))) for a in rel.A_minus)
        return term

    sel = (rel.A_plus, ())
    r, eta = rounding(sel)
    if r == 0:
        return None
    term = cap_terms(r, eta)
    best, best_viol = None, 0
    seen = set()
    for _ in range(max_rounds):
        new = (
            tuple(a for a in rel.A_plus if prefer_plus(term[a], flow[a])),
            tuple(a for a in rel.A_minus if term[a] < flow[a]),
        )
        r, eta = rounding(new)
        if r != 0:
            term = cap_terms(r, eta)
            s_plus = set(new[0])
            lhs = sum(term[a] if a in s_plus else flow[a] for a in rel.A_plus)
            lhs += sum(term[a] - flow[a] for a in new[1])
            v = D * (r * eta - sum(cbar[a] for a in new[1])) - lhs
            if v > best_viol:
                best, best_viol = new, v
        if r == 0 or new in seen or new == sel:
            break
        seen.add(new)
        sel = new
    return best


def separate_flow_cutset(
    rel: CutSetRelaxation,
    Q: Sequence[int],
    point: FractionalPoint,
    facility: int = 0,
    max_rounds: int = 5,
) -> LinearCut | None:
    """Greedy arc selection for fixed commodities, iterated on the remainder.

    Capacity terms ``r*y`` on S+ and ``(c-r)*y`` on S- of the one facility
    compete strictly with the flow terms; see ``_greedy_selection``.
    """
    Q = tuple(Q)
    sel = _greedy_selection(rel, Q, point, facility, (facility,), operator.lt, max_rounds)
    if sel is None:
        return None
    return flow_cutset_cut(rel, FlowCutSelection(Q, sel[0], sel[1], facility))


def separate_commodity_subset(
    rel: CutSetRelaxation,
    S_plus: Sequence[int],
    S_minus: Sequence[int],
    point: FractionalPoint,
    facility: int = 0,
    enumeration_cap: int = 12,
) -> tuple[int, ...] | None:
    """Best commodity subset for fixed arc sets (single facility).

    Reduces to exact residual-capacity separation on an aggregated
    single-arc view: each commodity's crossing shortfall plays the flow
    variable and ``y(S+) - y(S-)`` the capacity variable.  When the view
    leaves the box the reduction needs (reverse flows, negative demands)
    an exhaustive subset search takes over.
    """
    c = rel.instance.facilities[facility].capacity
    S_plus, S_minus = tuple(S_plus), tuple(S_minus)

    def eq_violation(Q):
        r, eta = _rounding_data(rel, Q, S_plus, S_minus, c)
        if r == 0:
            return ZERO
        cut = flow_cutset_cut(rel, FlowCutSelection(tuple(Q), S_plus, S_minus, facility))
        return cut.violation(point)

    positives = rel.positive_commodities()
    # the reduction is exact only when its assumptions verifiably hold:
    # potentials in the unit box, nonnegative net capacity variable, zero
    # shift between the two violation scales, and a feasible view point
    view_ok = bool(positives) and rel.cbar(S_plus) >= rel.cbar(S_minus)
    view_ok = view_ok and all(
        point.y.get((a, facility), ZERO) == 0 for a in S_minus
    )
    xhat = {}
    ybar = ZERO
    if view_ok:
        ybar = sum((point.y.get((a, facility), ZERO) for a in S_plus), ZERO)
        for idx, k in enumerate(positives):
            crossing = rel.b[k]
            bypass = sum(
                (point.x.get((a, k), ZERO) for a in rel.A_plus if a not in S_plus), ZERO
            ) - sum((point.x.get((a, k), ZERO) for a in S_minus), ZERO)
            val = (crossing - bypass) / crossing
            if not 0 <= val <= 1:
                view_ok = False
                break
            xhat[idx] = val
    if view_ok:
        view = arc_cuts.ArcSetRelaxation(
            a=tuple(rel.b[k] / c for k in positives),
            a0=(rel.cbar(S_plus) - rel.cbar(S_minus)) / c,
            mode=arc_cuts.SPLITTABLE,
        )
        load = sum((view.a[i] * xhat[i] for i in range(view.n)), ZERO)
        if load <= view.a0 + ybar:
            found = arc_cuts.separate_residual_capacity(view, xhat, ybar)
            if found is None:
                return None
            Q = tuple(positives[i] for i in found.params["S"])
            return Q if eq_violation(Q) > 0 else None

    # fallback: exhaustive over commodity subsets
    ks = range(len(rel.b))
    if len(rel.b) > enumeration_cap:
        candidates = [positives, tuple(ks)] + [(k,) for k in ks]
    else:
        candidates = [sub for size in range(1, len(rel.b) + 1) for sub in combinations(ks, size)]
    best, best_v = None, ZERO
    for Q in candidates:
        if not Q:
            continue
        v = eq_violation(Q)
        if v > best_v:
            best, best_v = tuple(Q), v
    return best


# -- multiple facilities --------------------------------------------------------


def multifacility_cutset_cut(rel: CutSetRelaxation, sel: FlowCutSelection) -> LinearCut:
    """Flow-cut-set cut with subadditive coefficients for every facility.

    The base facility ``sel.facility`` fixes the rounding parameters; the
    other facilities' capacity variables enter through the closed-form
    functions so the cut stays valid for arbitrary (rational) sizes.  As
    in the single-facility case, existing capacity on S- shifts the
    right-hand side down.
    """
    cut = _phi_cut(rel, sel, dict(enumerate(rel.instance.facility_capacities())), "mf")
    cut.params["s"] = sel.facility
    cut.params["facet_report"] = {
        "s_plus_proper": bool(sel.S_plus) and set(sel.S_plus) != set(rel.A_plus),
        "s_minus_proper": bool(sel.S_minus) and set(sel.S_minus) != set(rel.A_minus),
        "remainder_positive": cut.params["r"] > 0,
        "all_demands_positive": all(rel.b[k] > 0 for k in sel.Q),
    }
    return cut


def separate_multifacility(
    rel: CutSetRelaxation,
    s: int,
    point: FractionalPoint,
    Q: Sequence[int] | None = None,
    max_rounds: int = 5,
) -> LinearCut | None:
    """Greedy arc selection with per-facility coefficient evaluation.

    An arc joins S+ (resp. S-) when its phi-weighted capacity falls below
    its flow, which minimizes the left-hand side arc by arc; phi is
    evaluated once per facility and round, so the scan is linear in arcs
    times facilities.  See ``_greedy_selection``.
    """
    Q = tuple(Q) if Q is not None else tuple(range(len(rel.b)))
    facilities = range(len(rel.instance.facilities))
    sel = _greedy_selection(rel, Q, point, s, facilities, _prefer_capacity, max_rounds)
    if sel is None:
        return None
    return multifacility_cutset_cut(rel, FlowCutSelection(Q, sel[0], sel[1], s))


def two_partitions(nodes: Sequence[int], limit: int = 8):
    """All ordered two-partitions for small node sets (U listed first)."""
    nodes = list(nodes)
    n = len(nodes)
    if n > limit:
        raise ValueError("exhaustive partition enumeration is capped")
    for mask in range(1, (1 << n) - 1):
        U = tuple(nodes[i] for i in range(n) if mask >> i & 1)
        V = tuple(nodes[i] for i in range(n) if not mask >> i & 1)
        yield U, V
