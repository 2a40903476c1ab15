"""LP relaxation of the design model, and exact answers from float solves.

Every LP here shares one column layout: commodity ``ki``'s flow on arc
``ai`` at ``routing_var``, then facility ``mi``'s installation on arc ``ai``
at ``design_var`` (``column_keys`` lists it).  The routing LP
(``RoutingLP``) has the flow columns, one balance row per (commodity,
node) and one capacity row per arc.  The relaxation is the routing LP at
existing capacity with the installed capacity ``c_m·y`` on each capacity
row, plus one ``>=`` row per pooled cut; flow variables carry their
commodity supply as an upper bound (vital: single-arc relaxation cuts are
only valid when flows cannot exceed their commodity's total supply on any
arc).  The loop solves a relaxation
on float rows written from its cuts' ints; its exact rows are built only
for an exact consumer.

Every exact LP answer (``RoutingLP.minimum`` for routability and oracle
prices, ``exact_objective``) comes from ``solve_certified``: one float
solve that counts only with a certificate checked in ``Fraction``s, and
the exact simplex when the certificate fails or the solve stalls.  An
optimum is certified by ``certify``, routing infeasibility by a metric
inequality (``proves_unroutable``).
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

from .core import (
    MAX_DENOMINATOR,
    ZERO,
    FractionalPoint,
    Instance,
    LinearCut,
    format_rational,
    frac,
    rationalize,
    scaled_ints,
)
from .simplex import EQ, GE, LE, LPResult, solve_lp, solve_lp_many  # noqa: F401 (the oracles solve by lp.solve_lp_many)


@dataclass
class LPModel:
    """The relaxation as ``solve_lp`` takes it, over the columns of
    ``column_keys``: balance rows, capacity rows, then one ``>=`` row per
    cut of ``cuts``.  ``float_rows`` are those rows in floats, each
    ``(coefs, sense, rhs)`` the ``float()`` of its exact row with the same
    columns in the same order, and are what ``solve`` solves.  ``fixed``
    are the exact balance and capacity rows; ``rows``, ``fixed`` then the
    exact cut rows, are built on first read, for an exact consumer
    (``exact_objective``, the stall fallback of ``solve``,
    ``to_lp_format``)."""

    instance: Instance
    cuts: list
    fixed: list
    float_rows: list
    objective: dict
    upper: dict

    @cached_property
    def rows(self) -> list:
        return self.fixed + cut_rows(self.instance, self.cuts, Fraction)

    @property
    def n_vars(self) -> int:
        inst = self.instance
        return len(inst.arcs) * (len(inst.commodities) + len(inst.facilities))

    def to_lp_format(self) -> str:
        """Human-readable dump in the common LP text format."""
        inst = self.instance
        names = [
            f"{kind}_a{ai}_{'k' if kind == 'x' else 'm'}{other}" for kind, ai, other in column_keys(inst)
        ]
        labels = RoutingLP(inst).labels() + [f"cut{ci}_{cut.family}" for ci, cut in enumerate(self.cuts)]

        def expr(coefs):
            parts = []
            for j, v in sorted(coefs.items()):
                sign = "+" if v >= 0 else "-"
                parts.append(f"{sign} {format_rational(abs(Fraction(v)))} {names[j]}")
            return " ".join(parts) if parts else "0"

        lines = ["Minimize", f" obj: {expr(self.objective)}", "Subject To"]
        for label, (coefs, sense, rhs) in zip(labels, self.rows):
            lines.append(f" {label}: {expr(coefs)} {sense} {format_rational(rhs)}")
        lines.append("Bounds")
        for j, u in sorted(self.upper.items()):
            lines.append(f" 0 <= {names[j]} <= {format_rational(Fraction(u))}")
        lines.append("End")
        return "\n".join(lines)


@dataclass
class LPSolution(LPResult):
    """``solve_lp``'s answer for a relaxation of ``instance``.  ``start``
    says which solve answered: ``"warm"`` (from the previous optimum's
    tableau), ``"cold"`` or ``"cold-after-warm"`` (the warm re-solve
    stalled); ``iterations`` are the pivots of that solve."""

    exact_fallback: bool = False  # float solve stalled; this result is exact
    start: str = "cold"
    instance: Instance | None = None

    def point(self, max_denominator: int = MAX_DENOMINATOR) -> FractionalPoint:
        """Exact rational snapshot of the (x, y) part of the solution, with
        the largest ``|x_float - x_rational|`` as its ``rationalization_error``.
        An exact zero (``-0.0`` too) is left out unrationalized: it is its
        own rational, with error 0."""
        x, y = {}, {}
        error = 0.0
        for (kind, ai, other), val in zip(column_keys(self.instance), self.x):
            if val == 0:
                continue
            v = rationalize(val, max_denominator)
            error = max(error, abs(float(val) - float(v)))
            if v == 0:
                continue
            if kind == "x":
                x[(ai, other)] = v
            else:
                y[(ai, other)] = v
        return FractionalPoint(x=x, y=y, rationalization_error=error)


def build_relaxation(
    instance: Instance, cuts: Sequence[LinearCut] = (), *, base: LPModel | None = None
) -> LPModel:
    """LP relaxation: the routing LP at existing capacity, each capacity row
    less the installed capacity ``c_m·y``, plus one ``>=`` row per pooled cut.

    ``base`` is a relaxation of ``instance`` whose cuts are a prefix of
    ``cuts`` (the previous round's): the new model shares its balance and
    capacity rows, objective and bounds, copies its float rows and builds
    only the float rows of the later cuts.
    ``base`` is not modified.  A base of another instance, or whose cuts
    are not a prefix of ``cuts``, raises ``ValueError``, as does a key of a
    later cut that names no variable (``LinearCut.check_keys``).
    """
    cuts = list(cuts)
    if base is None:
        routing = RoutingLP(instance)
        fixed = routing.rows([arc.existing_capacity for arc in instance.arcs], installed=True)
        float_rows = [({j: float(v) for j, v in coefs.items()}, sense, float(rhs)) for coefs, sense, rhs in fixed]
        objective = {
            j: instance.flow_costs[ai][other] if kind == "x" else instance.facilities[other].costs[ai]
            for j, (kind, ai, other) in enumerate(column_keys(instance))
        }
        upper, built = routing.upper, 0
    elif base.instance is not instance:
        raise ValueError("the base relaxation is of another instance")
    elif len(base.cuts) > len(cuts) or any(a is not b and a != b for a, b in zip(base.cuts, cuts)):
        raise ValueError("the base relaxation's cuts are not a prefix of the cuts")
    else:
        fixed, float_rows = base.fixed, list(base.float_rows)
        objective, upper, built = base.objective, base.upper, len(base.cuts)
    for cut in cuts[built:]:
        cut.check_keys(instance)
    # numerator / denominator by int true division is the correctly
    # rounded quotient, as float() of the exact value is
    float_rows += cut_rows(instance, cuts[built:], operator.truediv)
    return LPModel(instance, cuts, fixed, float_rows, objective, upper)


def solve(model: LPModel, *, start: LPSolution | None = None) -> LPSolution:
    """Float optimum of ``model``, solved on its ``float_rows``.

    ``start`` is the optimum of a model whose float rows ``model.float_rows``
    extend (same instance, more cuts): when it holds a float tableau the re-solve
    begins there, and a stalled warm re-solve is redone cold.  A stalled
    cold solve is redone exactly and flagged.
    """
    problem = (model.n_vars, model.float_rows, model.objective, model.upper)
    how = "cold"
    if start is not None and start.tableau is not None:
        res = solve_lp(*problem, exact=False, start=start)
        how = "warm" if res.status != "stalled" else "cold-after-warm"
    if how != "warm":
        res = solve_lp(*problem, exact=False)
    stalled = res.status == "stalled"
    if stalled:
        # numerically hard model: exact arithmetic is slower but immune
        res = solve_lp(model.n_vars, model.rows, model.objective, model.upper, exact=True)
    return LPSolution(**vars(res), exact_fallback=stalled, start=how, instance=model.instance)


def exact_objective(model: LPModel, sol: LPSolution) -> Fraction:
    """Exact optimum of ``model`` from its float optimum ``sol``: no solve
    when ``certify`` proves it, else the exact simplex's."""
    bound = safe_lower_bound(model.rows, model.objective, model.upper, sol.duals)
    return solve_certified(model.n_vars, model.rows, model.objective, model.upper, first=sol, bound=bound)[0]


def solve_certified(n_vars: int, rows, objective, upper, refute=None, first: LPResult | None = None, bound=None):
    """Exact ``min objective`` over ``rows`` and ``0 <= x <= upper``.

    Returns ``(value, x)`` in ``Fraction``s, or ``(None, proof)`` when
    ``refute(farkas)`` proves the rows infeasible.  The float solve answers
    only through ``certify`` against its ``safe_lower_bound`` ``bound``, or
    through ``refute``; when both fail or it stalls, the exact simplex
    decides.  A float solve already at hand comes as ``first`` with its
    ``bound`` (``None`` when there is none) and, when infeasible, its Farkas
    vector already refuted in vain: it is not tried again.
    """
    if first is None:
        first = solve_lp(n_vars, rows, objective, upper, exact=False)
        bound = safe_lower_bound(rows, objective, upper, first.duals) if first.status == "optimal" else None
        proof = refute(first.farkas) if first.status == "infeasible" and refute else None
        if proof is not None:
            return None, proof
    answer = None if bound is None else certify(rows, objective, upper, first, bound)
    if answer is not None:
        return answer
    res = solve_lp(n_vars, rows, objective, upper, exact=True)
    if res.status == "optimal":
        return res.objective, res.x
    proof = refute(res.farkas) if res.status == "infeasible" and refute else None
    if proof is None:
        raise RuntimeError(f"exact LP solve ended with {res.status}")
    return None, proof


def certify(rows, objective: Mapping[int, Fraction], upper: Mapping[int, Fraction], res: LPResult, bound: Fraction):
    """Exact ``(value, x)`` from the float optimum ``res``, or ``None``: the
    rationalized primal meets every row and bound, and its objective equals
    ``bound``, a ``safe_lower_bound`` of the rows, so weak duality proves it."""
    x = [rationalize(v) for v in res.x]
    if not _fits(rows, upper, x):
        return None
    value = sum((frac(c) * x[j] for j, c in objective.items()), ZERO)
    return (value, x) if bound == value else None


# -- routing feasibility and metric certificates ------------------------------


@dataclass
class RoutingCertificate:
    """Infeasibility witness ``(v, u)``: arc weights and node potentials."""

    v: dict  # arc index -> Fraction >= 0
    u: dict  # (commodity index, node) -> Fraction, zero at the source

    def demand_side(self, instance: Instance) -> Fraction:
        total = ZERO
        for ki, com in enumerate(instance.commodities):
            for node, w in com.net_demand.items():
                if node != com.source:
                    total += w * self.u.get((ki, node), ZERO)
        return total

    def capacity_side(self, instance: Instance, capacities: Sequence[Fraction]) -> Fraction:
        return sum((capacities[ai] * va for ai, va in self.v.items()), ZERO)


def routing_var(instance: Instance, ai: int, ki: int) -> int:
    """Column of commodity ``ki``'s flow on arc ``ai``."""
    return ki * len(instance.arcs) + ai


def design_var(instance: Instance, ai: int, mi: int) -> int:
    """Column of facility ``mi``'s installation on arc ``ai``, after every flow column."""
    return (len(instance.commodities) + mi) * len(instance.arcs) + ai


def column_keys(instance: Instance) -> list:
    """``(kind, arc, index)`` of each column in order: ``("x", arc, commodity)``
    at ``routing_var``, then ``("y", arc, facility)`` at ``design_var``."""
    arcs = range(len(instance.arcs))
    flows = [("x", ai, ki) for ki in range(len(instance.commodities)) for ai in arcs]
    return flows + [("y", ai, mi) for mi in range(len(instance.facilities)) for ai in arcs]


def cut_rows(instance: Instance, cuts: Sequence[LinearCut], divide) -> list:
    """One ``(coefs, GE, rhs)`` row per cut of ``cuts``: its flow columns
    (``routing_var``), then its capacity columns (``design_var``), each
    value ``divide(numerator, cut.den)`` of the cut's ints, so
    ``operator.truediv`` gives the float rows and ``Fraction`` the exact
    ones, in the same columns and order."""
    # one commodity's, or one facility's, columns are consecutive in arc order
    flow_at = [routing_var(instance, 0, ki) for ki in range(len(instance.commodities))]
    cap_at = [design_var(instance, 0, mi) for mi in range(len(instance.facilities))]
    rows = []
    for cut in cuts:
        den = cut.den
        coefs = {flow_at[ki] + ai: divide(n, den) for (ai, ki), n in cut.flow_num.items()}
        coefs.update({cap_at[mi] + ai: divide(n, den) for (ai, mi), n in cut.cap_num.items()})
        rows.append((coefs, GE, divide(cut.rhs_num, den)))
    return rows


class RoutingLP:
    """The routing LP of ``instance``, made once per oracle call, routability
    check or relaxation build: ``n_vars`` flow columns (``routing_var``),
    each bounded by its commodity's total supply (``upper``), under one
    balance row per (commodity, node), then one capacity row per arc.  Each
    row's coefficients (ints) are made once and shared by every ``rows``
    call, and no code edits them; no code outside this class knows the
    row order."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n_vars = len(instance.arcs) * len(instance.commodities)
        self.balance = []
        for ki, com in enumerate(instance.commodities):
            for node in instance.nodes:
                coefs = {}
                for arcs, sign in ((instance.in_arcs[node], 1), (instance.out_arcs[node], -1)):
                    for ai in arcs:
                        j = routing_var(instance, ai, ki)
                        coefs[j] = coefs.get(j, 0) + sign
                self.balance.append((coefs, EQ, com.w(node)))
        commodities = range(len(instance.commodities))
        self.capacity = [{routing_var(instance, ai, ki): 1 for ki in commodities} for ai in range(len(instance.arcs))]
        supplies = [(ki, com.total_supply) for ki, com in enumerate(instance.commodities)]
        self.upper = {routing_var(instance, ai, ki): u for ki, u in supplies for ai in range(len(instance.arcs))}

    def rows(self, capacities: Sequence[Fraction], installed: bool = False) -> list:
        """The balance rows, then a ``<=`` row per arc ``ai`` with rhs
        ``capacities[ai]``.  With ``installed`` each capacity row also
        holds ``-c_m`` at its arc's design columns (``design_var``), the
        relaxation's installed capacity, in a new dict.  ``capacities``
        holds one capacity per arc, or ``ValueError`` is raised."""
        capacity = self.capacity
        if len(capacities) != len(capacity):
            raise ValueError(f"{len(capacities)} capacities for {len(capacity)} arcs: want one per arc")
        if installed:
            inst = self.instance
            capacity = [
                {**coefs, **{design_var(inst, ai, mi): -fac.capacity for mi, fac in enumerate(inst.facilities)}}
                for ai, coefs in enumerate(capacity)
            ]
        return self.balance + [(coefs, LE, cap) for coefs, cap in zip(capacity, capacities)]

    def labels(self) -> list[str]:
        """The name of each row of ``rows``, in order."""
        inst = self.instance
        labels = [f"bal_k{ki}_n{node}" for ki in range(len(inst.commodities)) for node in inst.nodes]
        return labels + [f"cap_a{ai}" for ai in range(len(inst.arcs))]

    def capacity_part(self, vector: Sequence) -> Sequence:
        """The capacity rows' entries, in arc order, of ``vector``, indexed
        like ``rows``: the rows themselves, a Farkas vector or duals."""
        start = len(self.balance)
        return vector[start : start + len(self.instance.arcs)]

    def columns(self, flow: Mapping[tuple[int, int], Fraction]) -> dict:
        """Flow coefficients keyed ``(arc, commodity)``, keyed by column instead."""
        return {routing_var(self.instance, ai, ki): v for (ai, ki), v in flow.items()}

    def minimum(self, rows: list, objective: Mapping[int, Fraction], first=None, bound=None):
        """Exact minimum of ``objective`` (``columns``) over the routings
        that fit ``rows`` (``rows``), by ``solve_certified`` with ``first``
        and ``bound`` as it takes them: ``(value, flow)`` with the nonzero
        flows keyed ``(arc, commodity)``, or ``(None, RoutingCertificate)``."""
        capacities = [rhs for _, _, rhs in self.capacity_part(rows)]

        def refute(farkas):
            return proves_unroutable(self.instance, capacities, self.capacity_part(farkas))

        value, answer = solve_certified(self.n_vars, rows, objective, self.upper, refute, first, bound)
        if value is None:
            return None, answer  # the refusal certificate
        return value, {(ai, ki): v for (_, ai, ki), v in zip(column_keys(self.instance), answer) if v}


def check_feasible_routing(instance: Instance, capacities: Sequence):
    """Exact routability of all commodities under per-arc ``capacities``:
    ``(True, None)`` or ``(False, RoutingCertificate)``, the minimum of a
    zero objective (``RoutingLP.minimum``)."""
    routing = RoutingLP(instance)
    value, proof = routing.minimum(routing.rows([frac(c) for c in capacities]), {})
    return (True, None) if value is not None else (False, proof)


def proves_unroutable(
    instance: Instance, capacities: Sequence[Fraction], multipliers: Sequence
) -> RoutingCertificate | None:
    """Exact metric-inequality certificate seeded by a routing LP's Farkas vector.

    ``multipliers``, its capacity rows' entries (``RoutingLP.capacity_part``)
    from an infeasible LP (float or exact), rounded to rationals and
    clamped to ``v >= 0``, are the arc weights.  With shortest-path
    potentials ``u`` under ``v`` the pair lies in the metric cone, so
    ``demand_side > capacity_side`` proves that no routing fits
    ``capacities``.  Returns the certificate, or ``None`` when it proves
    nothing; an exact Farkas vector always yields one.  ``capacities`` and
    ``multipliers`` hold one entry per arc, or ``ValueError`` is raised.
    """
    arcs = len(instance.arcs)
    if len(capacities) != arcs or len(multipliers) != arcs:
        raise ValueError(f"{len(capacities)} capacities and {len(multipliers)} multipliers for {arcs} arcs: "
                         "want one of each per arc")
    v = {}
    for ai, lam in enumerate(multipliers):
        # capacity rows are <=, so their multipliers are nonpositive; negate
        weight = -rationalize(lam)
        if weight > 0:
            v[ai] = weight
    cert = RoutingCertificate(v=v, u=shortest_path_potentials(instance, v))
    if cert.demand_side(instance) > cert.capacity_side(instance, capacities):
        return cert
    return None


def metric_bound(instance: Instance, scale: int, cert: RoutingCertificate) -> tuple[int, int, dict[int, int]]:
    """``cert`` as a ``CapacityBounds`` form over capacities given as ints
    ``scale * cap``.  Its ``(v, u)`` lies in the metric cone, which reads no
    capacity, so it refutes every ``cap`` with ``sum(v_a * cap_a)`` below its
    demand side: with ``w = mult * v`` in ints and ``q = demand_side * mult *
    scale``, where the int ``sum(w_a * scaled_cap_a)`` is below ``q``, so
    below ``ceil(q)``, which is where ``(1, ceil(q) - 1, -w)`` reaches 0."""
    mult = math.lcm(*(v.denominator for v in cert.v.values()))
    q = cert.demand_side(instance) * mult * scale
    return 1, math.ceil(q) - 1, {ai: -w for ai, w in zip(cert.v, scaled_ints(cert.v.values(), mult))}


def _signed_dual(sense: str, dual) -> Fraction:
    """``dual`` as a rational, 0 if of the wrong sign: ``<=`` rows take ``pi <= 0``, ``>=`` rows ``pi >= 0``.
    A signed rational is returned as it is."""
    pi = rationalize(dual)
    sign = pi.numerator  # an int test: comparing a Fraction with 0 costs more than the rest
    return ZERO if (sense == LE and sign > 0) or (sense == GE and sign < 0) else pi


def signed_duals(rows: Sequence[tuple], duals: Sequence) -> list[Fraction]:
    """Each row's dual rationalized and signed once (``_signed_dual``), for
    ``safe_lower_bound`` and ``dual_bound`` to share."""
    return [_signed_dual(sense, dual) for (_, sense, _), dual in zip(rows, duals)]


def safe_lower_bound(
    rows: Sequence[tuple],
    objective: Mapping[int, Fraction],
    upper: Mapping[int, Fraction],
    duals: Sequence,
) -> Fraction | None:
    """Exact lower bound on ``min objective`` from approximate row duals.

    The Neumaier-Shcherbina bound ``pi·b + sum(min(0, rc_j) * u_j)`` with
    ``rc = objective - pi·A`` holds for any ``pi`` of the right signs, so the
    float duals are rounded to rationals and clamped (``_signed_dual``) and
    the bound is then exact.  ``rows`` and ``upper`` are as for
    ``solve_lp`` with variables ``>= 0``; ``duals`` are floats or the
    rationals of ``signed_duals``.  Returns ``None`` when a column with
    negative reduced cost has no upper bound.
    """
    bound = ZERO
    rc = {j: frac(c) for j, c in objective.items()}
    for (coefs, sense, rhs), dual in zip(rows, duals):
        pi = _signed_dual(sense, dual)
        if not pi:
            continue
        bound += pi * rhs
        for j, a in coefs.items():
            rc[j] = rc.get(j, ZERO) - pi * a
    for j, r in rc.items():
        if r < 0:
            if j not in upper:
                return None
            bound += r * upper[j]
    return bound


def dual_bound(
    scale: int, scaled_caps: Sequence[int], bound: Fraction, duals: Sequence
) -> tuple[int, int, dict[int, int]]:
    """``bound``, the ``safe_lower_bound`` of a routing LP's duals at
    ``scaled_caps`` (ints ``scale * cap``), as a ``CapacityBounds`` form
    exact at every capacity vector: the reduced costs do not read the rhs,
    so the bound is ``const + sum(pi_a * cap_a)`` with ``pi_a <= 0`` the
    signed capacity-row ``duals`` (``RoutingLP.capacity_part``), floats or
    the rationals of ``signed_duals``."""
    per_unit = {}
    for ai, dual in enumerate(duals):
        pi = _signed_dual(LE, dual)
        if pi:
            per_unit[ai] = pi / scale
    const = bound - sum((r * scaled_caps[ai] for ai, r in per_unit.items()), ZERO)
    mult = math.lcm(const.denominator, *(r.denominator for r in per_unit.values()))
    c0, *w = scaled_ints([const, *per_unit.values()], mult)
    return mult, c0, dict(zip(per_unit, w))


class CapacityBounds:
    """Kept bounds over capacity vectors given as ints ``scale * cap``: each
    form ``(mult, c0, w)`` in ``certificates``, ``mult > 0``, reads ``(c0 +
    sum(w_a * scaled_cap_a)) / mult`` (``metric_bound``, ``dual_bound``)."""

    def __init__(self):
        self.certificates: list[tuple[int, int, dict[int, int]]] = []

    def reaches(self, scaled_caps: Sequence[int], num: int, den: int) -> bool:
        """Does a kept form reach ``num / den`` (``den > 0``) at
        ``scaled_caps``?  The one that does moves to the front."""
        certs, cap, mul = self.certificates, scaled_caps.__getitem__, operator.mul
        for i, (mult, c0, w) in enumerate(certs):
            if (c0 + sum(map(mul, w.values(), map(cap, w)))) * den >= num * mult:
                certs.insert(0, certs.pop(i))
                return True
        return False

    def add(self, form: tuple[int, int, dict[int, int]]) -> None:
        """Keep ``form`` first unless it is kept (points of one optimal basis give one bound)."""
        if form not in self.certificates:
            self.certificates.insert(0, form)


def _fits(rows, upper: Mapping[int, Fraction], x: Sequence[Fraction]) -> bool:
    """Does ``x`` meet every row and ``0 <= x <= upper`` exactly?"""
    if any(v < 0 for v in x) or any(x[j] > u for j, u in upper.items()):
        return False
    for coefs, sense, rhs in rows:
        lhs = sum((a * x[j] for j, a in coefs.items()), ZERO)
        if lhs > rhs if sense == LE else lhs < rhs if sense == GE else lhs != rhs:
            return False
    return True


def shortest_path_potentials(instance: Instance, v: Mapping[int, Fraction]) -> dict:
    """Exact per-commodity shortest-path distances under arc weights ``v``.

    These are the strongest node potentials compatible with given weights:
    ``u_kj <= u_ki + v_ij`` holds with ``u`` maximal on demand nodes, which
    ``Instance`` makes reachable; a node the source does not reach gets 0.
    """
    u = {}
    for ki, com in enumerate(instance.commodities):
        dist = _distances(instance, com.source, v)
        for node in instance.nodes:
            u[(ki, node)] = dist.get(node, ZERO)
    return u


def _distances(instance: Instance, source: int, v: Mapping[int, Fraction]) -> dict:
    """Dijkstra from ``source`` under arc weights ``v``; unreached nodes are absent."""
    dist = {source: ZERO}
    heap = [(ZERO, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if dist.get(node, None) != d:
            continue
        for ai in instance.out_arcs[node]:
            nd = d + v.get(ai, ZERO)
            head = instance.arcs[ai].head
            if head not in dist or nd < dist[head]:
                dist[head] = nd
                heapq.heappush(heap, (nd, head))
    return dist
