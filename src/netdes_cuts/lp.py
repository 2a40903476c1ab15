"""LP relaxation of the design model, and exact answers from float solves.

The relaxation has one balance row per (commodity, node), one capacity row
per arc, and one row per pooled cut; flow variables carry their commodity
supply as an upper bound (vital: single-arc relaxation cuts are only valid
when flows cannot exceed their commodity's total supply on any arc).

Every exact LP answer (``check_feasible_routing``, ``cheapest_routing``,
``exact_objective``) comes from ``solve_certified``: one float solve that
counts only with a certificate checked in ``Fraction``s, and the exact
simplex when the certificate fails or the solve stalls.  An optimum is
certified by ``certify``, routing infeasibility by a metric inequality
(``proves_unroutable``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence

from .core import (
    ZERO,
    FractionalPoint,
    Instance,
    LinearCut,
    format_rational,
    frac,
    rationalize,
)
from .simplex import EQ, GE, LE, LPResult, solve_lp


@dataclass
class LPModel:
    """Sparse rows over named (kind, arc, index) variables."""

    instance: Instance
    var_keys: list = field(default_factory=list)
    var_index: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)  # (coefs, sense, rhs, label)
    objective: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    n_balance: int = 0
    n_capacity: int = 0
    n_cut: int = 0

    def var(self, key) -> int:
        if key not in self.var_index:
            self.var_index[key] = len(self.var_keys)
            self.var_keys.append(key)
        return self.var_index[key]

    def add_row(self, coefs: Mapping[int, Fraction], sense: str, rhs, label: str = "") -> None:
        self.rows.append(({j: frac(v) for j, v in coefs.items() if v != 0}, sense, frac(rhs), label))

    def to_lp_format(self) -> str:
        """Human-readable dump in the common LP text format."""

        def vname(key):
            kind, ai, other = key
            return f"{kind}_a{ai}_{'k' if kind == 'x' else 'm'}{other}"

        def expr(coefs):
            parts = []
            for j, v in sorted(coefs.items()):
                sign = "+" if v >= 0 else "-"
                parts.append(f"{sign} {format_rational(abs(Fraction(v)))} {vname(self.var_keys[j])}")
            return " ".join(parts) if parts else "0"

        lines = ["Minimize", f" obj: {expr(self.objective)}", "Subject To"]
        for i, (coefs, sense, rhs, label) in enumerate(self.rows):
            name = label or f"c{i}"
            lines.append(f" {name}: {expr(coefs)} {sense} {format_rational(rhs)}")
        lines.append("Bounds")
        for j, u in sorted(self.upper.items()):
            lines.append(f" 0 <= {vname(self.var_keys[j])} <= {format_rational(Fraction(u))}")
        lines.append("End")
        return "\n".join(lines)


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded | stalled
    objective: object = None
    primal: dict = field(default_factory=dict)
    duals: list = field(default_factory=list)
    iterations: int = 0
    exact_fallback: bool = False  # float solve stalled; this result is exact

    def point(self, max_denominator: int = 10**6) -> FractionalPoint:
        """Exact rational snapshot of the (x, y) part of the solution."""
        x, y = {}, {}
        for (kind, ai, other), val in self.primal.items():
            v = val if isinstance(val, Fraction) else rationalize(float(val), max_denominator)
            if v == 0:
                continue
            if kind == "x":
                x[(ai, other)] = v
            else:
                y[(ai, other)] = v
        return FractionalPoint(x=x, y=y)


def build_relaxation(instance: Instance, cuts: Sequence[LinearCut] = ()) -> LPModel:
    """LP relaxation: balance and capacity rows plus any pooled cuts."""
    model = LPModel(instance=instance)
    for ki, com in enumerate(instance.commodities):
        for ai in range(len(instance.arcs)):
            j = model.var(("x", ai, ki))
            model.upper[j] = com.total_supply
            model.objective[j] = model.objective.get(j, ZERO) + instance.flow_costs[ai][ki]
    for mi, fac in enumerate(instance.facilities):
        for ai in range(len(instance.arcs)):
            j = model.var(("y", ai, mi))
            model.objective[j] = model.objective.get(j, ZERO) + fac.costs[ai]

    # balance: inflow - outflow equals the node's net demand
    for ki, com in enumerate(instance.commodities):
        for node in instance.nodes:
            coefs = {}
            for ai in instance.in_arcs[node]:
                coefs[model.var(("x", ai, ki))] = Fraction(1)
            for ai in instance.out_arcs[node]:
                coefs[model.var(("x", ai, ki))] = coefs.get(model.var(("x", ai, ki)), ZERO) - 1
            model.add_row(coefs, EQ, com.w(node), f"bal_k{ki}_n{node}")
            model.n_balance += 1

    for ai, arc in enumerate(instance.arcs):
        coefs = {}
        for ki in range(len(instance.commodities)):
            coefs[model.var(("x", ai, ki))] = Fraction(1)
        for mi, fac in enumerate(instance.facilities):
            coefs[model.var(("y", ai, mi))] = -fac.capacity
        model.add_row(coefs, LE, arc.existing_capacity, f"cap_a{ai}")
        model.n_capacity += 1

    for ci, cut in enumerate(cuts):
        coefs = {}
        for (ai, ki), v in cut.flow.items():
            coefs[model.var(("x", ai, ki))] = v
        for (ai, mi), v in cut.cap.items():
            coefs[model.var(("y", ai, mi))] = v
        model.add_row(coefs, GE, cut.rhs, f"cut{ci}_{cut.family}")
        model.n_cut += 1
    return model


def solve(model: LPModel, exact: bool = False) -> LPSolution:
    rows = [(coefs, sense, rhs) for coefs, sense, rhs, _ in model.rows]
    res = solve_lp(len(model.var_keys), rows, model.objective, model.upper, exact=exact)
    if res.status == "stalled" and not exact:
        # numerically hard model: exact arithmetic is slower but immune
        sol = solve(model, exact=True)
        sol.exact_fallback = True
        return sol
    sol = LPSolution(status=res.status, iterations=res.iterations)
    if res.status == "optimal":
        sol.objective = res.objective
        sol.primal = {key: res.x[j] for key, j in model.var_index.items()}
        sol.duals = res.duals
    return sol


def exact_objective(model: LPModel, sol: LPSolution) -> Fraction:
    """Exact optimum of ``model`` from its float optimum ``sol``: no solve
    when ``certify`` proves it, else the exact simplex's."""
    rows = [(coefs, sense, rhs) for coefs, sense, rhs, _ in model.rows]
    first = LPResult(sol.status, [sol.primal[key] for key in model.var_keys], sol.objective, sol.duals)
    return solve_certified(len(model.var_keys), rows, model.objective, model.upper, first=first)[0]


def solve_certified(n_vars: int, rows, objective, upper=None, refute=None, first: LPResult | None = None):
    """Exact ``min objective`` over ``rows`` and ``0 <= x <= upper``.

    Returns ``(value, x)`` in ``Fraction``s, or ``(None, proof)`` when
    ``refute(farkas)`` proves the rows infeasible.  The float solve
    (``first``, if already at hand) answers only through ``certify`` or
    ``refute``; when both fail or it stalls, the exact simplex decides.
    """
    upper = upper or {}
    for exact in (False, True):
        res = solve_lp(n_vars, rows, objective, upper, exact=exact) if exact or first is None else first
        if res.status == "optimal":
            answer = (res.objective, res.x) if exact else certify(rows, objective, upper, res)
            if answer is not None:
                return answer
        elif res.status == "infeasible" and refute is not None:
            proof = refute(res.farkas)
            if proof is not None:
                return None, proof
    raise RuntimeError(f"exact LP solve ended with {res.status}")


def certify(rows, objective: Mapping[int, Fraction], upper: Mapping[int, Fraction], res: LPResult):
    """Exact ``(value, x)`` from the float optimum ``res``, or ``None``: the
    rationalized primal meets every row and bound, and its objective equals
    ``safe_lower_bound`` of the float duals, so weak duality proves it."""
    x = [rationalize(v) for v in res.x]
    if not _fits(rows, upper, x):
        return None
    value = sum((frac(c) * x[j] for j, c in objective.items()), ZERO)
    return (value, x) if safe_lower_bound(rows, objective, upper, res.duals) == value else None


# -- routing feasibility and metric certificates ------------------------------


@dataclass
class RoutingCertificate:
    """Infeasibility witness ``(v, u)``: arc weights and node potentials."""

    v: dict  # arc index -> Fraction >= 0
    u: dict  # (commodity index, node) -> Fraction, zero at the source

    def cone_violations(self, instance: Instance) -> list:
        """Constraints ``v_ij >= u_kj - u_ki`` that fail (empty = member)."""
        bad = []
        for ai, arc in enumerate(instance.arcs):
            va = self.v.get(ai, ZERO)
            for ki in range(len(instance.commodities)):
                lhs = va - self.u.get((ki, arc.head), ZERO) + self.u.get((ki, arc.tail), ZERO)
                if lhs < 0:
                    bad.append((ai, ki, lhs))
        return bad

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
    """Column of commodity ``ki``'s flow on arc ``ai`` in the routing LP."""
    return ki * len(instance.arcs) + ai


def routing_rows(instance: Instance, capacities):
    """Balance and capacity rows of the routing LP under per-arc ``capacities``.

    Returns ``(n_vars, rows)``; columns are numbered by ``routing_var``.
    """
    rows = routing_balance_rows(instance) + routing_capacity_rows(instance, capacities)
    return len(instance.arcs) * len(instance.commodities), rows


def routing_balance_rows(instance: Instance) -> list:
    """The routing LP's balance rows, one per (commodity, node); no capacity enters them."""
    rows = []
    for ki, com in enumerate(instance.commodities):
        for node in instance.nodes:
            coefs = {}
            for ai in instance.in_arcs[node]:
                j = routing_var(instance, ai, ki)
                coefs[j] = coefs.get(j, ZERO) + 1
            for ai in instance.out_arcs[node]:
                j = routing_var(instance, ai, ki)
                coefs[j] = coefs.get(j, ZERO) - 1
            rows.append((coefs, EQ, com.w(node)))
    return rows


def routing_upper(instance: Instance) -> dict:
    """Flow upper bounds of the priced routing LP: each commodity's total supply."""
    return {
        routing_var(instance, ai, ki): com.total_supply
        for ki, com in enumerate(instance.commodities)
        for ai in range(len(instance.arcs))
    }


def routing_objective(instance: Instance, flow: Mapping[tuple[int, int], Fraction]) -> dict:
    """A flow objective keyed ``(arc, commodity)`` as routing LP columns."""
    return {routing_var(instance, ai, ki): v for (ai, ki), v in flow.items()}


def routing_capacity_rows(instance: Instance, capacities) -> list:
    """The routing LP's capacity rows, one per arc, after the balance rows."""
    rows = []
    for ai in range(len(instance.arcs)):
        coefs = {routing_var(instance, ai, ki): Fraction(1) for ki in range(len(instance.commodities))}
        rows.append((coefs, LE, capacities[ai]))
    return rows


def check_feasible_routing(instance: Instance, capacities: Sequence, witness: FractionalPoint | None = None):
    """Exact routability of all commodities under per-arc ``capacities``.

    Returns ``(True, None)`` or ``(False, RoutingCertificate)``.  A
    ``witness`` flow that fits the capacities exactly answers at once;
    otherwise ``cheapest_routing`` decides with a zero objective.
    """
    capacities = [frac(c) for c in capacities]
    if witness is not None:
        n_vars, rows = routing_rows(instance, capacities)
        n_arcs = len(instance.arcs)
        if _fits(rows, {}, [witness.x.get((j % n_arcs, j // n_arcs), ZERO) for j in range(n_vars)]):
            return True, None
    value, proof = cheapest_routing(instance, capacities, {})
    return (True, None) if value is not None else (False, proof)


def cheapest_routing(instance: Instance, capacities: Sequence, objective, first: LPResult | None = None):
    """Exact minimum of a flow ``objective`` over routings under ``capacities``.

    ``objective`` maps ``(arc, commodity)`` to a cost; each commodity's
    flow on an arc is bounded by its total supply.  Returns ``(value,
    flow)`` with the nonzero flows keyed ``(arc, commodity)``, or ``(None,
    RoutingCertificate)`` when no routing fits.  ``first`` is a float solve
    of this LP already at hand.
    """
    capacities = [frac(c) for c in capacities]
    n_vars, rows = routing_rows(instance, capacities)
    refute = partial(proves_unroutable, instance, capacities)
    objective = routing_objective(instance, objective)
    value, answer = solve_certified(n_vars, rows, objective, routing_upper(instance), refute, first)
    if value is None:
        return None, answer  # the refusal certificate
    n_arcs = len(instance.arcs)
    return value, {(j % n_arcs, j // n_arcs): v for j, v in enumerate(answer) if v}


def proves_unroutable(
    instance: Instance, capacities: Sequence[Fraction], farkas: Sequence
) -> RoutingCertificate | None:
    """Exact metric-inequality certificate seeded by a routing LP's Farkas vector.

    ``farkas`` comes from an infeasible ``routing_rows`` LP (float or exact).
    Its capacity-row multipliers, rounded to rationals and clamped to
    ``v >= 0``, are arc weights; with shortest-path potentials ``u`` the pair
    lies in the metric cone, so ``demand_side > capacity_side`` proves that
    no routing fits ``capacities``.  A positive-demand node that no path
    reaches gets the certificate ``v = 0`` with potential 1 on the nodes
    its source cannot reach.  Returns the certificate, or ``None`` when it
    proves nothing; an exact Farkas vector always yields one.
    """
    n_arcs = len(instance.arcs)
    v = {}
    for ai, lam in enumerate(farkas[len(farkas) - n_arcs :]):
        # capacity rows are <=, so their multipliers are nonpositive; negate
        weight = -rationalize(lam)
        if weight > 0:
            v[ai] = weight
    try:
        cert = RoutingCertificate(v=v, u=shortest_path_potentials(instance, v))
    except ValueError:  # no capacity routes this demand
        cert = RoutingCertificate(v={}, u=_cut_off_potentials(instance))
    if cert.demand_side(instance) > cert.capacity_side(instance, capacities):
        return cert
    return None


def safe_lower_bound(
    rows: Sequence[tuple],
    objective: Mapping[int, Fraction],
    upper: Mapping[int, Fraction],
    duals: Sequence,
) -> Fraction | None:
    """Exact lower bound on ``min objective`` from approximate row duals.

    The Neumaier-Shcherbina bound ``pi·b + sum(min(0, rc_j) * u_j)`` with
    ``rc = objective - pi·A`` holds for any ``pi`` of the right signs, so the
    float duals are rounded to rationals and clamped (``<=`` rows to
    ``pi <= 0``, ``>=`` rows to ``pi >= 0``) and the bound is then exact.
    ``rows`` and ``upper`` are as for ``solve_lp`` with variables ``>= 0``.
    Returns ``None`` when a column with negative reduced cost has no upper
    bound.
    """
    bound = ZERO
    rc = {j: frac(c) for j, c in objective.items()}
    for (coefs, sense, rhs), dual in zip(rows, duals):
        pi = rationalize(dual)
        if (sense == LE and pi > 0) or (sense == GE and pi < 0) or pi == 0:
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
    ``u_kj <= u_ki + v_ij`` holds with ``u`` maximal on demand nodes.
    Raises if a positive-demand node is unreachable from its source.
    """
    u = {}
    for ki, com in enumerate(instance.commodities):
        dist = _distances(instance, com.source, v)
        for node in instance.nodes:
            if node in dist:
                u[(ki, node)] = dist[node]
            elif com.w(node) > 0:
                raise ValueError(
                    f"node {node} with positive demand unreachable from {com.source}"
                )
            else:
                u[(ki, node)] = ZERO
    return u


def _cut_off_potentials(instance: Instance) -> dict:
    """Potential 1 on each node its commodity's source cannot reach, else 0.

    With zero arc weights these lie in the metric cone (no arc enters the
    unreachable set from outside it).
    """
    u = {}
    for ki, com in enumerate(instance.commodities):
        reached = _distances(instance, com.source, {})
        for node in instance.nodes:
            u[(ki, node)] = ZERO if node in reached else Fraction(1)
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
