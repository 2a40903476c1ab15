"""Cutting-plane loop, brute-force oracles and instance generation.

The loop alternates float LP solves with exact separation: the LP point is
rationalized (continued fractions) and every candidate cut is built from
exact instance data, so a cut enters the pool only when its violation is
positive in exact arithmetic.  Oracles enumerate integer installation
grids and validate cuts or compute optima against them; they are bounded
searches with an explicit budget, independent of the separation code.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from . import arc_cuts, cutset_cuts, partition_cuts
from .core import (
    ZERO,
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    frac,
)
from .lp import (
    LPSolution,
    build_relaxation,
    check_feasible_routing,
    proves_unroutable,
    routing_rows,
    routing_var,
    safe_lower_bound,
    solve,
)
from .mir import hull_inequalities
from .simplex import solve_lp, solve_lp_many

FAMILIES = ("rc", "cstrong", "cutset", "flowcutset", "mf", "metric", "partition")

K_SPLIT = (2, 3)             # k of the k-split c-strong cuts
MAX_DENOMINATOR = 10**6      # rationalization of the float LP point
PARTITION_LIMIT = 8          # exhaustive two-partitions up to this many nodes
THREE_PARTITION_LIMIT = 6    # exhaustive three-partitions up to this many nodes
N_RANDOM_PARTITIONS = 20     # sampled partitions above those limits
Q_SUBSET_LIMIT = 6           # exhaustive commodity subsets up to this size


class BudgetExceededError(RuntimeError):
    """The enumeration grid is larger than the oracle budget."""


@dataclass
class Config:
    """Settings of one cutting-plane run.

    ``families`` names the enabled separators, ``max_rounds`` caps the
    solve-separate rounds, a cut is admitted only when its exact violation
    exceeds ``eps``, and ``exact_final`` re-solves the last relaxation in
    exact arithmetic (``LoopResult.exact_bound``).
    """

    families: tuple[str, ...] = FAMILIES
    max_rounds: int = 50
    eps: Fraction = Fraction(1, 10**6)
    exact_final: bool = False

    def __post_init__(self):
        self.eps = frac(self.eps) if not isinstance(self.eps, float) else Fraction(self.eps).limit_denominator(10**9)
        if self.eps <= 0:
            raise ValueError("violation threshold must be positive")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown cut families: {sorted(unknown)}")


@dataclass
class RoundReport:
    index: int
    bound: float
    cuts_added: dict[str, int] = field(default_factory=dict)
    max_violation: float = 0.0
    wall_time: float = 0.0
    exact_fallback: bool = False


class CutPool:
    """Deduplicated cuts with per-family activity counters."""

    def __init__(self):
        self._cuts: dict = {}
        self.counters: dict[str, int] = {}

    def add(self, cut: LinearCut) -> bool:
        key = cut.normalized_key()
        if key in self._cuts:
            return False
        self._cuts[key] = cut
        self.counters[cut.family] = self.counters.get(cut.family, 0) + 1
        return True

    def cuts(self) -> list[LinearCut]:
        return list(self._cuts.values())

    def __len__(self):
        return len(self._cuts)


@dataclass
class LoopResult:
    reports: list[RoundReport]
    pool: CutPool
    final_bound: float
    final_solution: LPSolution
    exact_bound: Fraction | None = None


def cutting_plane_loop(instance: Instance, config: Config | None = None) -> LoopResult:
    """Solve, separate, repeat until no family finds a violated cut."""
    config = config or Config()
    pool = CutPool()
    reports: list[RoundReport] = []
    sol = None
    for rnd in range(config.max_rounds):
        t0 = time.perf_counter()
        sol = solve(build_relaxation(instance, pool.cuts()))
        if sol.status != "optimal":
            raise RuntimeError(f"relaxation solve ended with status {sol.status}")
        point = sol.point(MAX_DENOMINATOR)
        found = separate_all(instance, point, config)
        added: dict[str, int] = {}
        max_violation = ZERO
        for cut, violation in found:
            if pool.add(cut):
                added[cut.family] = added.get(cut.family, 0) + 1
                max_violation = max(max_violation, violation)
        reports.append(
            RoundReport(
                index=rnd,
                bound=float(sol.objective),
                cuts_added=added,
                max_violation=float(max_violation),
                wall_time=time.perf_counter() - t0,
                exact_fallback=sol.exact_fallback,
            )
        )
        if not added:
            break
    else:
        # round cap hit with cuts still arriving: record the resulting bound
        sol = solve(build_relaxation(instance, pool.cuts()))

    result = LoopResult(
        reports=reports,
        pool=pool,
        final_bound=float(sol.objective),
        final_solution=sol,
    )
    if config.exact_final:
        exact_sol = solve(build_relaxation(instance, pool.cuts()), exact=True)
        result.exact_bound = exact_sol.objective
        result.final_solution = exact_sol
    return result


# -- separation orchestration ---------------------------------------------------


def separate_all(instance: Instance, point: FractionalPoint, config: Config):
    """Run every enabled family; returns (cut, exact violation) pairs."""
    found: list[tuple[LinearCut, Fraction]] = []
    single_facility = len(instance.facilities) == 1

    def admit(cut: LinearCut | None):
        if cut is None:
            return
        violation = cut.violation(point)
        if violation > config.eps:
            found.append((cut, violation))

    if "rc" in config.families and single_facility:
        for ai in range(len(instance.arcs)):
            admit(_separate_rc_arc(instance, ai, point))
    if "cstrong" in config.families and single_facility and instance.unsplittable:
        for ai in range(len(instance.arcs)):
            for cut in _separate_unsplittable_arc(instance, ai, point):
                admit(cut)

    partitions = list(_two_partitions(instance))
    relaxations = [cutset_cuts.build_cutset(instance, U, V) for U, V in partitions]

    if "cutset" in config.families and single_facility:
        for rel in relaxations:
            admit(cutset_cuts.cutset_cut(rel))
    if "flowcutset" in config.families and single_facility:
        for rel in relaxations:
            for Q in _commodity_subsets(rel, point):
                admit(cutset_cuts.separate_flow_cutset(rel, Q, point))
    if "mf" in config.families and len(instance.facilities) >= 1:
        for rel in relaxations:
            for s in range(len(instance.facilities)):
                for Q in _commodity_subsets(rel, point):
                    admit(cutset_cuts.separate_multifacility(rel, s, point, Q=Q))
    if "metric" in config.families:
        # the LP point itself witnesses routability, so inside the loop this
        # is a fast no-op; it fires only on externally supplied points
        res = partition_cuts.separate_metric(instance, y=point.y, witness=point, exact=False)
        if res is not None:
            admit(res[1])
    if "partition" in config.families and instance.integral_capacities():
        for U, V in partitions:
            shrunk = partition_cuts.shrink(instance, partition_cuts.NodePartition.of(U, V))
            cover = partition_cuts.knapsack_cover_from_two_partition(shrunk)
            if cover is None:
                continue
            for ineq in hull_inequalities(cover):
                admit(partition_cuts.expand_knapsack_cut(ineq, shrunk))
        for part in _three_partitions(instance):
            candidates = [
                cut
                for cut in (
                    partition_cuts.three_partition_cut(instance, part),
                    partition_cuts.three_partition_metric_cut(instance, part),
                )
                if cut is not None
            ]
            if not candidates:
                continue
            winner = partition_cuts.select_total_capacity_cut(candidates)
            admit(winner)
            fed = partition_cuts.knapsack_from_total_capacity(winner, instance)
            if fed is not None:
                cover, support = fed
                for ineq in hull_inequalities(cover):
                    cap = {}
                    for mi, coef in ineq.integ.items():
                        for ai in support.get(mi, ()):
                            cap[(ai, mi)] = coef
                    if cap:
                        admit(
                            LinearCut({}, cap, ineq.rhs, "partition", {"from": "total-capacity"})
                        )
    return found


def _separate_rc_arc(instance: Instance, ai: int, point: FractionalPoint):
    rel = arc_cuts.from_capacity_row(instance, ai, mode=arc_cuts.SPLITTABLE)
    xhat = _fractional_loads(rel, ai, point)
    ybar = max(point.y.get((ai, 0), ZERO), ZERO)
    ineq = arc_cuts.separate_residual_capacity(rel, xhat, ybar)
    if ineq is None:
        return None
    return arc_cuts.to_instance_cut(rel, ineq, "rc")


def _separate_unsplittable_arc(instance: Instance, ai: int, point: FractionalPoint):
    rel = arc_cuts.from_capacity_row(instance, ai, mode=arc_cuts.UNSPLITTABLE)
    reduced, offsets, off0 = arc_cuts.normalize_unsplittable(rel)
    xhat = _fractional_loads(rel, ai, point)
    ybar = max(point.y.get((ai, 0), ZERO), ZERO)
    # capacity variable of the reduced set absorbs the dropped integer parts
    yred = ybar + off0 - sum((offsets[i] * xhat.get(i, ZERO) for i in range(rel.n)), ZERO)
    cuts = []
    best = arc_cuts.separate_c_strong(reduced, xhat, yred)
    if best is not None:
        mapped = arc_cuts.back_map_cut(best, offsets, off0)
        cuts.append(arc_cuts.to_instance_cut(rel, mapped, "cstrong"))
        S = best.params["S"]
        for k in K_SPLIT:
            cuts.append(arc_cuts.to_instance_cut(rel, arc_cuts.k_split_c_strong_cut(rel, S, k), "ksplit"))
    ones = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 1)
    zeros = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 0)
    if len(ones) + len(zeros) < rel.n:
        try:
            spec = arc_cuts.CoverSpec.build(reduced, max(0, int(round(float(yred)))), zeros, ones)
            lifted = arc_cuts.lifted_cover_cut(reduced, spec)
            mapped = arc_cuts.back_map_cut(lifted, offsets, off0)
            cuts.append(arc_cuts.to_instance_cut(rel, mapped, "liftedcover"))
        except ValueError:
            pass
    return cuts


def _fractional_loads(rel, ai: int, point: FractionalPoint) -> dict[int, Fraction]:
    """Per-commodity loads as supply fractions, clamped into the unit box."""
    xhat = {}
    for i, ki in enumerate(rel.commodities):
        v = point.x.get((ai, ki), ZERO) / rel.demands[i]
        xhat[i] = min(max(v, ZERO), Fraction(1))
    return xhat


def _two_partitions(instance: Instance):
    nodes = list(instance.nodes)
    if len(nodes) <= PARTITION_LIMIT:
        yield from cutset_cuts.two_partitions(nodes)
        return
    rng = random.Random(0)
    seen = set()
    for node in nodes:
        seen.add(frozenset([node]))
        yield (node,), tuple(n for n in nodes if n != node)
        yield tuple(n for n in nodes if n != node), (node,)
    for _ in range(N_RANDOM_PARTITIONS):
        size = rng.randint(2, len(nodes) - 2) if len(nodes) > 3 else 1
        U = frozenset(rng.sample(nodes, size))
        if U in seen:
            continue
        seen.add(U)
        yield tuple(sorted(U)), tuple(sorted(set(nodes) - U))


def _three_partitions(instance: Instance):
    nodes = list(instance.nodes)
    if len(nodes) < 3:
        return
    if len(nodes) <= THREE_PARTITION_LIMIT:
        yield from partition_cuts.all_three_partitions(nodes)
        return
    rng = random.Random(1)
    for _ in range(N_RANDOM_PARTITIONS):
        labels = [rng.randrange(3) for _ in nodes]
        blocks = [[], [], []]
        for node, lab in zip(nodes, labels):
            blocks[lab].append(node)
        if all(blocks):
            yield partition_cuts.NodePartition.of(*blocks)


def _commodity_subsets(rel, point: FractionalPoint):
    n = len(rel.b)
    if n <= Q_SUBSET_LIMIT:
        for size in range(1, n + 1):
            yield from combinations(range(n), size)
        return
    yielded = set()
    for Q in [tuple(range(n)), rel.positive_commodities()] + [(k,) for k in range(n)]:
        if Q and Q not in yielded:
            yielded.add(Q)
            yield Q
    # alternate: best arc subsets for the full set, then re-chosen commodities
    best = cutset_cuts.separate_flow_cutset(rel, tuple(range(n)), point)
    if best is not None:
        Q = cutset_cuts.separate_commodity_subset(
            rel, best.params["S+"], best.params["S-"], point
        )
        if Q and Q not in yielded:
            yield Q


# -- oracles ---------------------------------------------------------------------


def default_y_bounds(instance: Instance, ybound: int | None = None) -> dict[tuple[int, int], int]:
    """Per-variable grid bounds: enough units of each size to ship everything."""
    bounds = {}
    total = instance.demand.total()
    for ai in range(len(instance.arcs)):
        for mi, fac in enumerate(instance.facilities):
            if ybound is not None:
                bounds[(ai, mi)] = ybound
            else:
                need = (total - instance.arcs[ai].existing_capacity) / fac.capacity
                bounds[(ai, mi)] = max(0, -(-need.numerator // need.denominator))
    return bounds


def _grid(instance: Instance, y_bounds: Mapping[tuple[int, int], int], budget: int = 10**6):
    keys = sorted(y_bounds)
    size = 1
    for k in keys:
        size *= y_bounds[k] + 1
        if size > budget:
            raise BudgetExceededError(f"y-grid has more than {budget} points")
    for values in product(*(range(y_bounds[k] + 1) for k in keys)):
        yield dict(zip(keys, (Fraction(v) for v in values)))


def _routing_upper(instance: Instance) -> dict:
    """Flow upper bounds of the routing LP: each commodity's total supply."""
    return {
        routing_var(instance, ai, ki): com.total_supply
        for ki, com in enumerate(instance.commodities)
        for ai in range(len(instance.arcs))
    }


def _routing_objective(instance: Instance, flow: Mapping[tuple[int, int], Fraction]) -> dict:
    return {routing_var(instance, ai, ki): v for (ai, ki), v in flow.items()}


def _min_flow_lp(instance: Instance, capacities, objective: Mapping[tuple[int, int], Fraction], exact: bool):
    """Minimize a flow objective over routings under fixed capacities.

    A stalled float solve is redone in exact arithmetic, so ``None`` always
    means the capacities admit no routing.
    """
    n_vars, rows = routing_rows(instance, capacities)
    upper = _routing_upper(instance)
    obj = _routing_objective(instance, objective)
    res = solve_lp(n_vars, rows, obj, upper=upper, exact=exact)
    if res.status == "stalled" and not exact:
        res = solve_lp(n_vars, rows, obj, upper=upper, exact=True)
    if res.status != "optimal":
        return None
    x = {}
    for ki in range(len(instance.commodities)):
        for ai in range(len(instance.arcs)):
            val = res.x[routing_var(instance, ai, ki)]
            if not isinstance(val, Fraction):
                val = Fraction(float(val)).limit_denominator(10**9)
            if val != 0:
                x[(ai, ki)] = val
    return res.objective, x


def brute_force_ip(
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
    exact: bool = False,
    budget: int = 10**6,
):
    """Exhaustive optimum over integer installations within the grid.

    For each grid point the routing LP (or the unsplittable routing
    enumeration) prices the flows; returns ``(value, point)`` with the
    best total cost, or ``None`` when nothing in the grid is feasible.
    """
    if y_bounds is None:
        y_bounds = default_y_bounds(instance, ybound)
    flow_cost = {
        (ai, ki): instance.flow_costs[ai][ki]
        for ai in range(len(instance.arcs))
        for ki in range(len(instance.commodities))
    }
    routings = _unsplittable_routings(instance) if instance.unsplittable else None
    best = None
    for y in _grid(instance, y_bounds, budget):
        caps = [instance.arc_capacity(ai, y) for ai in range(len(instance.arcs))]
        install = sum(
            (instance.facilities[mi].costs[ai] * cnt for (ai, mi), cnt in y.items()), ZERO
        )
        if routings is None:
            priced = _min_flow_lp(instance, caps, flow_cost, exact)
            if priced is None:
                continue
            flow_val, x = priced
            total = install + flow_val
        else:
            priced = _best_unsplittable(instance, routings, caps, flow_cost)
            if priced is None:
                continue
            flow_val, x = priced
            total = install + flow_val
        if best is None or total < best[0]:
            best = (total, FractionalPoint(x=dict(x), y={k: v for k, v in y.items() if v}))
    return best


def validate_cut(
    cut: LinearCut,
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
    budget: int = 10**6,
):
    """Search the bounded grid for a feasible point violating the cut.

    Returns ``(True, None)`` when no counterexample exists within bounds,
    else ``(False, point)``.  Every verdict is exact; see ``validate_cuts``
    for how each grid point is decided.
    """
    return validate_cuts([cut], instance, y_bounds, ybound, budget)[0]


def validate_cuts(
    cuts: Sequence[LinearCut],
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
    budget: int = 10**6,
):
    """Validate many cuts in one sweep, deciding each grid point once.

    Pure-capacity cuts with nonnegative coefficients get a complete check
    independent of the grid bounds: only installations with left-hand side
    below the rhs can violate, and there are finitely many.  Cuts with
    flow terms are checked on the bounded grid.  At each grid point one
    float routing LP is solved for the objectives of all open cuts (phase 1
    shared) and the float answers are only used as certificates:

    - the point is skipped as unroutable when the Farkas vector yields a
      metric inequality that fails exactly (``lp.proves_unroutable``);
    - a cut holds at the point when its ``y`` part plus a safe dual bound
      on the minimum of its flow part reaches the rhs exactly
      (``lp.safe_lower_bound``);
    - anything left uncertified, a stalled solve included, is decided by
      the exact simplex, which also supplies every counterexample.

    With unsplittable routing the enumeration is exact throughout; points
    with no joint routing are skipped for every cut.
    """
    verdicts: list = [(True, None) for _ in cuts]
    routings = _unsplittable_routings(instance) if instance.unsplittable else None
    grid_idx = []
    for idx, cut in enumerate(cuts):
        if not cut.flow and all(v >= 0 for v in cut.cap.values()):
            verdicts[idx] = _validate_pure_capacity(cut, instance, routings)
        else:
            grid_idx.append(idx)
    if not grid_idx:
        return verdicts

    if y_bounds is None:
        y_bounds = default_y_bounds(instance, ybound)
    upper = _routing_upper(instance)
    objectives = {idx: _routing_objective(instance, cuts[idx].flow) for idx in grid_idx}
    open_idx = set(grid_idx)
    for y in _grid(instance, y_bounds, budget):
        if not open_idx:
            break
        caps = [instance.arc_capacity(ai, y) for ai in range(len(instance.arcs))]
        order = sorted(open_idx)
        if routings is not None:
            if _best_unsplittable(instance, routings, caps, {}) is None:
                continue
            for idx in order:
                cut = cuts[idx]
                lhs_min, x = _best_unsplittable(instance, routings, caps, cut.flow)
                if _ypart(cut, y) + lhs_min < cut.rhs:
                    verdicts[idx] = (False, FractionalPoint(x=dict(x), y=dict(y)))
                    open_idx.discard(idx)
            continue
        n_vars, rows = routing_rows(instance, caps)
        results = solve_lp_many(n_vars, rows, [objectives[idx] for idx in order], upper)
        if results[0].status == "infeasible" and proves_unroutable(instance, caps, results[0].farkas):
            continue
        for idx, res in zip(order, results):
            cut = cuts[idx]
            ypart = _ypart(cut, y)
            if res.status == "optimal":
                bound = safe_lower_bound(rows, objectives[idx], upper, res.duals)
                if bound is not None and ypart + bound >= cut.rhs:
                    continue
            exact_priced = _min_flow_lp(instance, caps, cut.flow, exact=True)
            if exact_priced is not None and ypart + exact_priced[0] < cut.rhs:
                verdicts[idx] = (False, FractionalPoint(x=exact_priced[1], y=dict(y)))
                open_idx.discard(idx)
    return verdicts


def _ypart(cut: LinearCut, y) -> Fraction:
    return sum((coef * y.get(key, ZERO) for key, coef in cut.cap.items()), ZERO)


def _validate_pure_capacity(cut: LinearCut, instance: Instance, routings):
    """Complete validity check for a nonnegative pure-capacity cut.

    Any violating installation keeps the keyed variables below the cut's
    rhs; unkeyed variables can only help feasibility, so they are granted
    ample capacity.  Enumerate the finitely many keyed patterns and test
    routability of each exactly (``_routable``).
    """
    keys = sorted(cut.cap)
    ample = instance.demand.total()

    def capacities(y):
        caps = []
        for ai, arc in enumerate(instance.arcs):
            cap = arc.existing_capacity
            for mi, fac in enumerate(instance.facilities):
                if (ai, mi) in cut.cap:
                    cap += fac.capacity * y.get((ai, mi), ZERO)
                else:
                    cap += ample
            caps.append(cap)
        return caps

    counter = None

    def rec(idx, lhs, current):
        nonlocal counter
        if counter is not None:
            return
        if idx == len(keys):
            caps = capacities(current)
            if routings is None:
                feasible = _routable(instance, caps)
            else:
                feasible = _best_unsplittable(instance, routings, caps, {}) is not None
            if feasible:
                counter = FractionalPoint(x={}, y=dict(current))
            return
        key = keys[idx]
        coef = cut.cap[key]
        units = 0
        while lhs + coef * units < cut.rhs:
            current[key] = Fraction(units)
            rec(idx + 1, lhs + coef * units, current)
            units += 1
        current.pop(key, None)

    rec(0, ZERO, {})
    if counter is None:
        return True, None
    return False, counter


def _routable(instance: Instance, capacities) -> bool:
    """Exact routability; a float Farkas vector certifies most refusals cheaply."""
    n_vars, rows = routing_rows(instance, capacities)
    res = solve_lp(n_vars, rows, {})
    if res.status == "infeasible" and proves_unroutable(instance, capacities, res.farkas):
        return False
    return check_feasible_routing(instance, capacities=capacities, exact=True)[0]


# -- unsplittable routing enumeration --------------------------------------------


def _simple_paths(instance: Instance, src: int, dst: int, cap: int = 400) -> list[frozenset[int]]:
    paths = []

    def walk(node, used_nodes, used_arcs):
        if node == dst:
            paths.append(frozenset(used_arcs))
            return
        if len(paths) >= cap:
            return
        for ai in instance.out_arcs[node]:
            head = instance.arcs[ai].head
            if head not in used_nodes:
                walk(head, used_nodes | {head}, used_arcs + [ai])

    walk(src, {src}, [])
    return paths


def _simple_cycles(instance: Instance, cap: int = 100) -> list[frozenset[int]]:
    cycles = []
    order = {n: i for i, n in enumerate(instance.nodes)}

    def walk(start, node, used_nodes, used_arcs):
        for ai in instance.out_arcs[node]:
            head = instance.arcs[ai].head
            if head == start:
                cycles.append(frozenset(used_arcs + [ai]))
            elif order[head] > order[start] and head not in used_nodes:
                if len(cycles) < cap:
                    walk(start, head, used_nodes | {head}, used_arcs + [ai])

    for start in instance.nodes:
        walk(start, start, {start}, [])
    return cycles


def _unsplittable_routings(instance: Instance, combo_cap: int = 400) -> list[list[frozenset[int]]]:
    """Per commodity: every all-or-nothing flow (a path plus disjoint cycles)."""
    cycles = _simple_cycles(instance)
    per_commodity = []
    for com in instance.commodities:
        if com.sink is None:
            raise ValueError("unsplittable routing needs pair commodities")
        flows = []
        for path in _simple_paths(instance, com.source, com.sink):
            flows.append(path)
            stack = [(path, 0)]
            while stack and len(flows) < combo_cap:
                base, start = stack.pop()
                for idx in range(start, len(cycles)):
                    cyc = cycles[idx]
                    if not (cyc & base):
                        merged = base | cyc
                        flows.append(merged)
                        stack.append((merged, idx + 1))
        per_commodity.append(flows)
    return per_commodity


def _best_unsplittable(instance, routings, capacities, objective):
    """Cheapest joint unsplittable routing under the given capacities."""
    demands = [com.total_supply for com in instance.commodities]
    arc_cost = []
    for ki, flows in enumerate(routings):
        costs = []
        for flow in flows:
            costs.append(
                sum((objective.get((ai, ki), ZERO) * demands[ki] for ai in flow), ZERO)
            )
        arc_cost.append(costs)
    best = None

    def assign(ki, loads, cost, chosen):
        nonlocal best
        if best is not None and cost >= best[0]:
            # pruning only sound when remaining costs cannot be negative
            if all(
                all(c >= 0 for c in arc_cost[kj]) for kj in range(ki, len(routings))
            ):
                return
        if ki == len(routings):
            if best is None or cost < best[0]:
                x = {}
                for kj, flow in enumerate(chosen):
                    for ai in flow:
                        x[(ai, kj)] = demands[kj]
                best = (cost, x)
            return
        for fi, flow in enumerate(routings[ki]):
            new_loads = dict(loads)
            ok = True
            for ai in flow:
                new_loads[ai] = new_loads.get(ai, ZERO) + demands[ki]
                if new_loads[ai] > capacities[ai]:
                    ok = False
                    break
            if ok:
                assign(ki + 1, new_loads, cost + arc_cost[ki][fi], chosen + [flow])

    assign(0, {}, ZERO, [])
    return best


# -- instance generation ----------------------------------------------------------


def generate_instance(
    seed: int,
    nodes: int,
    density: float = 0.5,
    facilities: Sequence[int] = (1, 3),
    demand_scale: int = 1,
    mode: str = "aggregated",
    unsplittable: bool = False,
    existing_capacity_prob: float = 0.3,
    flow_cost_prob: float = 0.5,
) -> Instance:
    """Deterministic random instance: strongly connected, small rationals."""
    if nodes < 2 or not 0 < density < float("inf") or demand_scale < 1:
        raise ValueError("need nodes >= 2, a finite density > 0 and demand_scale >= 1")
    rng = random.Random(seed)
    ids = list(range(1, nodes + 1))
    pairs = [(i, j) for i in ids for j in ids if i != j]
    target = max(nodes, round(density * len(pairs)))
    arc_pairs = [(ids[i], ids[(i + 1) % nodes]) for i in range(nodes)]  # spanning cycle
    rest = [p for p in pairs if p not in set(arc_pairs)]
    rng.shuffle(rest)
    arc_pairs += rest[: max(0, target - len(arc_pairs))]
    arc_pairs.sort()

    arcs = []
    for pair in arc_pairs:
        if rng.random() < existing_capacity_prob:
            cbar = Fraction(rng.randint(1, 2), rng.choice((1, 2)))
        else:
            cbar = ZERO
        arcs.append(Arc(pair[0], pair[1], cbar))

    facs = []
    for cm in facilities:
        costs = tuple(
            Fraction(rng.randint(1, 3) * int(cm) + rng.randint(0, 2), rng.choice((1, 2)))
            for _ in arc_pairs
        )
        facs.append(Facility(Fraction(cm), costs))

    demand = DemandMatrix()
    chosen = [p for p in pairs if rng.random() < 0.3]
    if not chosen:
        chosen = [rng.choice(pairs)]
    for i, j in chosen:
        demand.set(i, j, Fraction(rng.randint(1, 3 * demand_scale), rng.choice((1, 2, 3, 4, 6))))

    flow_costs = []
    for _ in arc_pairs:
        if rng.random() < flow_cost_prob:
            flow_costs.append(Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))))
        else:
            flow_costs.append(ZERO)

    return Instance(
        nodes=ids,
        arcs=arcs,
        facilities=facs,
        demand=demand,
        flow_costs=flow_costs,
        mode=mode,
        unsplittable=unsplittable,
        name=f"rand-{seed}",
    )
