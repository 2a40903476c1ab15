"""LP relaxation of the design model plus the routing-feasibility oracle.

The relaxation has one balance row per (commodity, node), one capacity row
per arc, and one row per pooled cut; flow variables carry their commodity
supply as an upper bound (vital: single-arc relaxation cuts are only valid
when flows cannot exceed their commodity's total supply on any arc).

``check_feasible_routing`` answers whether a capacity vector admits a
multicommodity routing.  On failure it returns dual multipliers shaped as
a pair ``(v, u)`` of arc weights and node potentials that certify
infeasibility: ``v_ij >= u_kj - u_ki`` with ``u_kk = 0`` and the total
demand weighted by ``u`` exceeding the ``v``-weighted capacity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    ZERO,
    FractionalPoint,
    Instance,
    LinearCut,
    Rational,
    format_rational,
    frac,
    rationalize,
)
from .simplex import EQ, GE, LE, solve_lp


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
    farkas: list | None = None
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


def solve(model: LPModel, exact: bool = False, tol: float = 1e-9) -> LPSolution:
    res = solve_lp(
        n_vars=len(model.var_keys),
        rows=[(coefs, sense, rhs) for coefs, sense, rhs, _ in model.rows],
        objective=model.objective,
        upper=model.upper,
        exact=exact,
        tol=tol,
    )
    if res.status == "stalled" and not exact:
        # numerically hard model: exact arithmetic is slower but immune
        sol = solve(model, exact=True, tol=tol)
        sol.exact_fallback = True
        return sol
    sol = LPSolution(status=res.status, iterations=res.iterations)
    if res.status == "optimal":
        sol.objective = res.objective
        sol.primal = {key: res.x[j] for key, j in model.var_index.items()}
        sol.duals = res.duals
    elif res.status == "infeasible":
        sol.farkas = res.farkas
    return sol


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
    for ai in range(len(instance.arcs)):
        coefs = {routing_var(instance, ai, ki): Fraction(1) for ki in range(len(instance.commodities))}
        rows.append((coefs, LE, capacities[ai]))
    return len(instance.arcs) * len(instance.commodities), rows


def check_feasible_routing(
    instance: Instance,
    y: Mapping[tuple[int, int], Rational] | None = None,
    capacities: Sequence | None = None,
    witness: FractionalPoint | None = None,
    exact: bool = True,
):
    """Feasibility of routing all commodities under ``existing + installed``.

    Returns ``(True, None)`` or ``(False, RoutingCertificate)``.  ``y`` maps
    (arc, facility) to installation amounts; alternatively pass per-arc
    ``capacities`` directly.  A ``witness`` flow that fits the capacities
    short-circuits the solve.
    """
    if capacities is None:
        y = y or {}
        capacities = [instance.arc_capacity(ai, y) for ai in range(len(instance.arcs))]
    capacities = [frac(c) for c in capacities]

    if witness is not None and _witness_fits(instance, witness, capacities):
        return True, None

    nvars, rows = routing_rows(instance, capacities)
    res = solve_lp(nvars, rows, objective={}, exact=exact)
    if res.status == "optimal":
        return True, None
    if res.status != "infeasible":
        raise RuntimeError(f"routing feasibility solve ended with {res.status}")

    def _to_frac(val):
        return val if isinstance(val, Fraction) else rationalize(float(val))

    lam = res.farkas
    n_bal = len(instance.commodities) * len(instance.nodes)
    u = {}
    pos = 0
    for ki, com in enumerate(instance.commodities):
        for node in instance.nodes:
            u[(ki, node)] = _to_frac(lam[pos])
            pos += 1
    # capacity rows are <=, so their multipliers are nonpositive; negate
    v = {}
    for ai in range(len(instance.arcs)):
        val = -_to_frac(lam[n_bal + ai])
        if val != 0:
            v[ai] = val
    # potentials are shift-invariant per commodity; pin them to the source
    for ki, com in enumerate(instance.commodities):
        base = u[(ki, com.source)]
        for node in instance.nodes:
            u[(ki, node)] -= base
    cert = RoutingCertificate(v=v, u=u)
    return False, cert


def proves_unroutable(instance: Instance, capacities: Sequence[Fraction], farkas: Sequence) -> bool:
    """Exact metric-inequality check seeded by a routing LP's Farkas vector.

    ``farkas`` comes from an infeasible ``routing_rows`` LP (float or exact).
    Its capacity-row multipliers, rounded to rationals and clamped to
    ``v >= 0``, are arc weights; with shortest-path potentials ``u`` the pair
    lies in the metric cone, so ``demand_side > capacity_side`` proves that
    no routing fits ``capacities``.  False means only "not proved".
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
    except ValueError:  # a demand node no path reaches: left to the exact solve
        return False
    return cert.demand_side(instance) > cert.capacity_side(instance, capacities)


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


def _witness_fits(instance: Instance, point: FractionalPoint, capacities) -> bool:
    """Does the witness satisfy balance and the given capacities exactly?"""
    for ai in range(len(instance.arcs)):
        load = sum(
            (point.x.get((ai, ki), ZERO) for ki in range(len(instance.commodities))), ZERO
        )
        if load > capacities[ai]:
            return False
    for ki, com in enumerate(instance.commodities):
        for node in instance.nodes:
            net = ZERO
            for ai in instance.in_arcs[node]:
                net += point.x.get((ai, ki), ZERO)
            for ai in instance.out_arcs[node]:
                net -= point.x.get((ai, ki), ZERO)
            if net != com.w(node):
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
        dist = {com.source: ZERO}
        heap = [(ZERO, com.source)]
        while heap:
            d, node = heapq.heappop(heap)
            if dist.get(node, None) != d:
                continue
            for ai in instance.out_arcs[node]:
                w = v.get(ai, ZERO)
                head = instance.arcs[ai].head
                nd = d + w
                if head not in dist or nd < dist[head]:
                    dist[head] = nd
                    heapq.heappush(heap, (nd, head))
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
