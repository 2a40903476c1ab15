"""Brute-force oracles: exact optima and cut validity on integer grids.

The oracles enumerate integer installation grids, bounded by an explicit
budget, and certify each value from float solves by ``lp.solve_certified``
on the one routing LP (``lp.RoutingLP``) of a call.  They keep the node
cuts and the certificates they prove, metric refutations and safe dual
bounds, as integer capacity bounds (``lp.CapacityBounds``), tried at every
grid point before any LP.  They import no separation module, so no cut is
checked by code that made it (``tests/test_runtime_callers.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul
from typing import Callable, Mapping, Sequence

from . import lp
from .core import ZERO, FractionalPoint, Instance, LinearCut, check_key, scaled_ints
from .lp import (
    CapacityBounds,
    RoutingLP,
    dual_bound,
    metric_bound,
    proves_unroutable,
    safe_lower_bound,
    signed_duals,
)

GRID_BUDGET = 10**6          # installation grid points an oracle enumerates
PATH_CAP = 400               # simple paths per node pair in the unsplittable oracles
CYCLE_CAP = 100              # simple cycles in the unsplittable oracles
FLOW_CAP = 400               # unsplittable flows per commodity


class BudgetExceededError(RuntimeError):
    """An oracle enumeration (the grid, or the unsplittable paths, cycles or
    routings) is larger than its budget."""


def default_y_bounds(instance: Instance, ybound: int | None = None) -> dict[tuple[int, int], int]:
    """Per-variable grid bounds: enough units of each size to ship
    everything, on the instance's ints."""
    total = sum(instance.demand_num.values())
    return {
        (ai, mi): ybound if ybound is not None else max(0, -((cbar - total) // size))
        for ai, cbar in enumerate(instance.cbar_num) for mi, size in enumerate(instance.sizes_num)
    }


def _grid(instance: Instance, y_bounds: Mapping[tuple[int, int], int] | None, ybound: int | None):
    """The installation grid an oracle walks (``_walk``), as ``(keys, bounds)``.

    ``keys`` is ``sorted(y_bounds)``, or the keys of ``default_y_bounds(instance,
    ybound)`` when ``y_bounds`` is None, and ``bounds`` their bounds, in
    order.  A key that names no (arc, facility) pair, or a negative bound,
    raises ``ValueError`` (``core.check_key``); a grid of more than
    ``GRID_BUDGET`` points raises ``BudgetExceededError``.
    """
    if y_bounds is None:
        y_bounds = default_y_bounds(instance, ybound)
    keys = sorted(y_bounds)
    size = 1
    for key in keys:
        check_key(instance, key, "y", y_bounds[key])
        size *= int(y_bounds[key]) + 1  # on Python ints: a numpy bound near 2**63 would wrap
        if size > GRID_BUDGET:
            raise BudgetExceededError(f"y-grid has more than {GRID_BUDGET} points")
    return keys, [y_bounds[key] for key in keys]


def _walk(instance: Instance, keys, bounds, base: Sequence[int], coefs=None, rhs: int = 1):
    """The capacity vectors an oracle decides, as ``(t, caps, lhs)``: an
    odometer over ``keys`` in ``itertools.product`` order, the last key
    turning fastest.  ``t`` holds the counts, each at most its bound;
    ``caps``, each arc's capacity times ``instance.scale``, is ``base`` plus
    the counts' units, in ints, in one list updated in place, so a caller
    copies what it keeps; ``lhs`` sums the int ``coefs`` (0 when None) times
    the counts, and a count turns only while it stays below ``rhs``."""
    arcs, units = [ai for ai, _ in keys], [instance.sizes_num[mi] for _, mi in keys]
    caps, coefs = list(base), coefs or [0] * len(keys)
    t, lhs = [0] * len(keys), 0
    while lhs < rhs:  # false only at the origin, when rhs <= 0; a step keeps lhs below rhs
        yield tuple(t), caps, lhs
        i = len(keys) - 1
        while i >= 0 and (t[i] == bounds[i] or lhs + coefs[i] >= rhs):  # roll these counts back to 0
            caps[arcs[i]] -= units[i] * t[i]
            lhs -= coefs[i] * t[i]
            t[i] = 0
            i -= 1
        if i < 0:
            return
        t[i] += 1
        caps[arcs[i]] += units[i]
        lhs += coefs[i]


class _Routing:
    """Every routing decision of one oracle call, at capacity vectors given
    as ints ``scale * cap``, ``scale`` the instance's (``Instance.scale``).

    The objectives ``flows`` are int forms ``(nums, den)`` keyed ``(arc,
    commodity)``, as a cut holds its flow part, each keyed by its ints over
    their gcd with ``den`` (``parts``).  Holds two kinds of
    ``CapacityBounds``: ``refuted``, the refutations, seeded with the node
    cuts (``_node_cuts``) and then every metric certificate proved on the
    instance, and ``bounds``, safe dual bounds, one store per distinct
    part; and what each decision needs, made when a search first needs it:
    with splittable routing the routing LP (``routing``) and, once per
    distinct part, its columns (``objective``) or, with unsplittable
    routing, the enumerated flows (``priced``), each commodity's demand as
    the int ``scale * demand`` and, once per distinct part, a cost table,
    for a search on ints (``_cheapest``).  The kept forms are tried first,
    and only then a routing LP, with one objective per distinct part.
    Routability is the minimum of an empty flow part.  Unsplittable flows
    are paths, plus disjoint cycles only when some objective has a negative
    coefficient, since a cycle only adds load and a nonnegative cost.
    """

    def __init__(self, instance: Instance, flows: Sequence[tuple[Mapping[tuple[int, int], int], int]]):
        self.instance = instance
        self.scale = instance.scale
        self.refuted = CapacityBounds()
        self.refuted.certificates = _node_cuts(instance)
        self.reduced: dict = {}  # each distinct part's ints, in the order of its first objective
        self.parts = []
        for nums, den in flows:
            g = math.gcd(den, *nums.values())
            ints = {key: n // g for key, n in nums.items()}
            self.parts.append((den // g, frozenset(ints.items())))
            self.reduced.setdefault(self.parts[-1], ints)
        stores = {part: CapacityBounds() for part in self.reduced}  # a dual bound bounds the flow part alone
        self.bounds = [stores[part] for part in self.parts]
        self.made: dict = {}  # each priced part's columns (objective) or cost table (_costs)
        if instance.unsplittable:
            self.supplies = [com.total_supply for com in instance.commodities]
            self.loads = instance.supply_num

    @cached_property
    def routing(self) -> RoutingLP:
        """The instance's routing LP, made when a first LP is solved."""
        return RoutingLP(self.instance)

    @cached_property
    def priced(self) -> list[list[tuple[int, ...]]]:
        """Each commodity's unsplittable flows (``_unsplittable_routings``),
        enumerated when a search first needs them, so that kept forms decide
        without them."""
        cycles = any(n < 0 for ints in self.reduced.values() for n in ints.values())
        return _unsplittable_routings(self.instance, cycles=cycles)

    def objective(self, part) -> dict:
        """The routing LP's objective of the flow part ``part``: its columns
        (``RoutingLP.columns``), made when an LP first prices the part."""
        columns = self.made.get(part)
        if columns is None:
            den = part[0]
            flow = {key: Fraction(n, den) for key, n in self.reduced[part].items()}
            columns = self.made[part] = self.routing.columns(flow)
        return columns

    def minima(self, scaled_caps: Sequence[int], which: Sequence[int], shortfall: Callable):
        """``{i: answer}`` for the objectives ``which`` (indices into
        ``flows``), or ``None`` when no routing fits.

        ``shortfall(i)`` is ``(num, den)``, ``den > 0``, the value objective
        ``i`` must stay below to count, or ``None`` when any value counts.
        The answer is ``None`` when a safe bound on the minimum reaches
        ``num / den``, else the exact ``(value, x)``, the flow ``x`` keyed
        ``(arc, commodity)``.  Kept refutations and bounds answer without
        an LP.  Otherwise the open objectives are grouped by flow part and
        one float routing LP is solved with one objective per part; it
        counts only through certificates: its Farkas vector's metric
        inequality (``lp.proves_unroutable``), each part's safe dual bound
        (``lp.safe_lower_bound``, every one kept), and the price
        ``RoutingLP.minimum`` certifies on the rows solved, against that
        bound, at most one per part.  Each objective of a part is answered
        against its own shortfall.
        """
        if self.refuted.reaches(scaled_caps, 0, 1):
            return None
        answers, open_ = dict.fromkeys(which), {}
        for i in which:
            target = shortfall(i) if self.bounds[i].certificates else None
            if target is None or not self.bounds[i].reaches(scaled_caps, *target):
                open_.setdefault(self.parts[i], []).append(i)
        if not open_:
            return answers
        groups = list(open_.values())
        if self.instance.unsplittable:
            for group in groups:
                table = self._costs(self.parts[group[0]])
                best = self._cheapest(table, scaled_caps)
                if best is None:  # every group searches the same flows
                    return None
                cost, chosen = best
                x = {(ai, ki): self.supplies[ki] for ki, arcs in enumerate(chosen) for ai in arcs}
                answers.update(dict.fromkeys(group, (Fraction(cost, table[1]), x)))
            return answers
        routing = self.routing
        caps = [Fraction(c, self.scale) for c in scaled_caps]
        rows = routing.rows(caps)
        objectives = [self.objective(self.parts[group[0]]) for group in groups]
        results = lp.solve_lp_many(routing.n_vars, rows, objectives, routing.upper)
        if results[0].status == "infeasible":
            cert = proves_unroutable(self.instance, caps, routing.capacity_part(results[0].farkas))
            if cert:
                self.refuted.add(metric_bound(self.instance, self.scale, cert))
                return None
        for group, objective, res in zip(groups, objectives, results):
            first, bound, routed = group[0], None, None
            if res.status == "optimal":
                duals = signed_duals(rows, res.duals)  # rationalized once, for the bound and its form
                bound = safe_lower_bound(rows, objective, routing.upper, duals)
                if bound is not None:
                    self.bounds[first].add(dual_bound(self.scale, scaled_caps, bound, routing.capacity_part(duals)))
            for i in group:
                target = None if bound is None else shortfall(i)
                if target is not None and bound * target[1] >= target[0]:
                    continue
                if routed is None:
                    routed = routing.minimum(rows, objective, res, bound)
                    if routed[0] is None:
                        return None
                answers[i] = routed
        return answers

    def _costs(self, part):
        """The cost table of the flow part ``part`` over ``priced``: ``(costs,
        den, prunable)``, each flow's cost as the int ``den * cost`` per
        commodity, and ``prunable[k]``, no flow of commodity ``k`` or later
        costs less than 0.  Made once per distinct part."""
        table = self.made.get(part)
        if table is None:
            weight = dict(part[1])
            costs = [
                [load * sum(weight.get((ai, ki), 0) for ai in arcs) for arcs in flows]
                for ki, (load, flows) in enumerate(zip(self.loads, self.priced))
            ]
            prunable = [True] * (len(costs) + 1)
            for ki in reversed(range(len(costs))):
                prunable[ki] = prunable[ki + 1] and min(costs[ki], default=0) >= 0
            table = self.made[part] = (costs, part[0] * self.scale, prunable)
        return table

    def _cheapest(self, table, scaled_caps: Sequence[int]):
        """The cheapest joint unsplittable routing at ``scaled_caps``, ``(cost,
        chosen)`` with ``chosen`` each commodity's flow from ``priced`` and
        ``cost`` in the units of ``table`` (``_costs``), or ``None`` when none
        fits.  Depth first over the commodities, in flow order: only a
        strictly cheaper routing replaces the best, and a branch that cannot
        beat it is cut where no later cost is negative, so at zero cost the
        first fit is the answer."""
        costs, _, prunable = table
        room = list(scaled_caps)
        routings, loads, last = self.priced, self.loads, len(self.priced)
        chosen: list = [None] * last
        best = None

        def assign(ki, cost):
            nonlocal best
            if ki == last:
                best = cost, list(chosen)
                return
            load, prune = loads[ki], prunable[ki + 1]
            for arcs, c in zip(routings[ki], costs[ki]):
                if best is not None:
                    if prunable[ki] and cost >= best[0]:
                        return
                    if prune and cost + c >= best[0]:
                        continue
                if all(room[ai] >= load for ai in arcs):
                    for ai in arcs:
                        room[ai] -= load
                    chosen[ki] = arcs
                    assign(ki + 1, cost + c)
                    for ai in arcs:
                        room[ai] += load

        assign(0, 0)
        return best


def _node_cuts(instance: Instance) -> list[tuple[int, int, dict[int, int]]]:
    """The node cuts as ``CapacityBounds`` forms: a node set ``S`` of one or
    two nodes, or of all but one or two, with positive demand leaving it.
    Every proper subset of up to 5 nodes is one; beyond, there are O(n^2)
    of them.  A routing fits only where each cut's leaving capacity reaches
    the demand from ``S`` to the other nodes; both are ints at
    ``Instance.scale``, so the cut's form ``(1, demand - 1, -1 on each
    leaving arc)`` reaches 0 exactly where the capacity falls short.  This
    cut-set inequality is the metric inequality of the cut metric of
    ``S``."""
    nodes = instance.nodes
    small = [frozenset(c) for size in (1, 2) for c in combinations(nodes, size)]
    cuts = []
    for S in dict.fromkeys(small + [frozenset(nodes) - s for s in small]):
        demand = sum(d for (i, j), d in instance.demand_num.items() if i in S and j not in S)
        if demand > 0:
            arcs = [ai for ai, a in enumerate(instance.arcs) if a.tail in S and a.head not in S]
            cuts.append((1, demand - 1, dict.fromkeys(arcs, -1)))
    return cuts


def brute_force_ip(
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
):
    """Exhaustive optimum over integer installations within the grid.

    At each grid point ``_Routing.minima`` prices the flows exactly;
    returns ``(value, point)`` with the best total cost, or ``None`` when
    nothing in the grid is feasible.  A point whose flow cost is proved to
    bring its total to the incumbent is not priced: only a strictly lower
    total replaces the incumbent.  ``validate_instance`` requires
    nonnegative flow costs of unsplittable instances, so their routings are
    paths.  Raises ``ValueError`` on bad grid bounds (see ``_grid``) and
    ``BudgetExceededError`` when the grid or an unsplittable enumeration is
    larger than its budget.
    """
    flow_cost = {(ai, ki): c for ai, row in enumerate(instance.flow_costs) for ki, c in enumerate(row)}
    den = math.lcm(*(c.denominator for c in flow_cost.values()))
    routing = _Routing(instance, [(dict(zip(flow_cost, scaled_ints(flow_cost.values(), den))), den)])
    keys, bounds = _grid(instance, y_bounds, ybound)
    unit_cost = [instance.facilities[mi].costs[ai] for ai, mi in keys]
    best = install = None

    def shortfall(_):  # a point's flow counts only below the incumbent's total
        if best is None:
            return None
        gap = best[0] - install
        return gap.numerator, gap.denominator

    for t, scaled_caps, _ in _walk(instance, keys, bounds, instance.cbar_num):
        install = sum((c * v for c, v in zip(unit_cost, t) if v), ZERO)
        minima = routing.minima(scaled_caps, [0], shortfall)
        if minima is None or minima[0] is None:
            continue
        value, x = minima[0]
        if best is None or install + value < best[0]:
            best = (install + value, FractionalPoint(x=dict(x), y={k: Fraction(v) for k, v in zip(keys, t) if v}))
    return best


def validate_cut(
    cut: LinearCut,
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
):
    """Search the bounded grid for a feasible point violating the cut.

    Returns ``(True, None)`` when no counterexample exists within bounds,
    else ``(False, point)``.  Every verdict is exact; see ``validate_cuts``
    for how each grid point is decided.
    """
    return validate_cuts([cut], instance, y_bounds, ybound)[0]


def validate_cuts(
    cuts: Sequence[LinearCut],
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
):
    """Validate many cuts in one sweep, deciding each grid point once.

    Pure-capacity cuts with nonnegative coefficients get a complete check
    independent of the grid bounds: only installations with left-hand side
    below the rhs can violate, and there are finitely many.  Cuts with
    flow terms are checked on the bounded grid (see ``_grid``): at each
    point ``_Routing.minima`` gives the minimum of each open cut's flow
    part, or proves that it reaches the cut's shortfall there, and a cut
    fails at the first point whose minimum falls short.  Every decision
    shares one ``_Routing``, so a certificate proved for one cut or point
    serves every later one; every verdict and counterexample is exact.  A
    cut key that names no variable raises ``ValueError``.
    """
    for cut in cuts:
        cut.check_keys(instance)
    verdicts: list = [(True, None) for _ in cuts]
    routing = _Routing(instance, [(cut.flow_num, cut.den) for cut in cuts])
    grid_idx = []
    for idx, cut in enumerate(cuts):
        if not cut.flow_num and all(v >= 0 for v in cut.cap_num.values()):
            verdicts[idx] = _validate_pure_capacity(cut, instance, routing, idx)
        else:
            grid_idx.append(idx)
    if not grid_idx:
        return verdicts

    keys, bounds = _grid(instance, y_bounds, ybound)
    shortfalls = {idx: _shortfall(cuts[idx], keys) for idx in grid_idx}
    order = grid_idx  # the open cuts, ascending
    for t, scaled_caps, _ in _walk(instance, keys, bounds, instance.cbar_num):
        if not order:
            break
        failed = set()
        for idx, answer in (routing.minima(scaled_caps, order, lambda i: shortfalls[i](t)) or {}).items():
            if answer is None:
                continue
            (value, x), (num, den) = answer, shortfalls[idx](t)
            if value * den < num:
                verdicts[idx] = (False, FractionalPoint(x=dict(x), y=dict(zip(keys, map(Fraction, t)))))
                failed.add(idx)
        if failed:
            order = [idx for idx in order if idx not in failed]
    return verdicts


def _shortfall(cut: LinearCut, keys) -> Callable[[tuple], tuple[int, int]]:
    """``t -> (num, den)`` with ``num / den = rhs - y part`` of ``cut`` at the
    grid point ``t`` (counts over ``keys``), in ints."""
    position = {key: i for i, key in enumerate(keys)}
    at = [position[key] for key in cut.cap_num if key in position]
    coefs = [cut.cap_num[keys[i]] for i in at]
    rhs, den = cut.rhs_num, cut.den
    return lambda t: (rhs - sum(map(mul, coefs, map(t.__getitem__, at))), den)


def _validate_pure_capacity(cut: LinearCut, instance: Instance, routing: _Routing, idx: int):
    """Complete validity check for a nonnegative pure-capacity cut, the
    objective ``idx`` of ``routing``.

    Any violating installation keeps the keyed variables below the cut's
    rhs; unkeyed variables can only help feasibility, so they are granted
    ample capacity.  ``_walk`` enumerates the keyed patterns below the rhs,
    on ints, and routability is decided exactly at the maximal ones, where
    raising any key would reach the rhs: routability only grows with
    capacity, so a routable pattern below the rhs exists iff a maximal one
    does, and one is routable where ``routing.minima`` of the cut's empty
    flow part answers.  More than ``GRID_BUDGET`` patterns raise
    ``BudgetExceededError``.
    """
    keys = sorted(cut.cap_num)
    coefs = [cut.cap_num[key] for key in keys]
    rhs, least = cut.rhs_num, min(coefs)
    ample = sum(instance.demand_num.values())
    # scaled capacity of each arc with every keyed variable at zero; the walk adds its units
    base = list(instance.cbar_num)
    for ai, mi in product(range(len(instance.arcs)), range(len(instance.facilities))):
        if (ai, mi) not in cut.cap_num:
            base[ai] += ample
    bounds = [(rhs - 1) // coef for coef in coefs]  # the most units of one key alone below the rhs
    for walked, (t, caps, lhs) in enumerate(_walk(instance, keys, bounds, base, coefs, rhs), 1):
        if walked > GRID_BUDGET:
            raise BudgetExceededError(f"pure-capacity check walks more than {GRID_BUDGET} patterns")
        if lhs + least >= rhs and routing.minima(caps, [idx], lambda _: None) is not None:
            return False, FractionalPoint(x={}, y=dict(zip(keys, map(Fraction, t))))
    return True, None


# -- unsplittable routing enumeration --------------------------------------------


def _capped_append(items: list, item, cap: int, what: str) -> None:
    """Append ``item``, or raise ``BudgetExceededError`` when ``items``
    already holds ``cap`` of ``what``: a truncated enumeration would make
    the oracle's answer wrong."""
    if len(items) >= cap:
        raise BudgetExceededError(f"more than {cap} {what}")
    items.append(item)


def _simple_paths(instance: Instance, src: int, dst: int) -> list[frozenset[int]]:
    paths = []
    what = f"simple paths from {src} to {dst} (_simple_paths cap)"

    def walk(node, used_nodes, used_arcs):
        if node == dst:
            _capped_append(paths, frozenset(used_arcs), PATH_CAP, what)
            return
        for ai in instance.out_arcs[node]:
            head = instance.arcs[ai].head
            if head not in used_nodes:
                walk(head, used_nodes | {head}, used_arcs + [ai])

    walk(src, {src}, [])
    return paths


def _simple_cycles(instance: Instance) -> list[frozenset[int]]:
    cycles = []
    order = {n: i for i, n in enumerate(instance.nodes)}
    what = "simple cycles (_simple_cycles cap)"

    def walk(start, node, used_nodes, used_arcs):
        for ai in instance.out_arcs[node]:
            head = instance.arcs[ai].head
            if head == start:
                _capped_append(cycles, frozenset(used_arcs + [ai]), CYCLE_CAP, what)
            elif order[head] > order[start] and head not in used_nodes:
                walk(start, head, used_nodes | {head}, used_arcs + [ai])

    for start in instance.nodes:
        walk(start, start, {start}, [])
    return cycles


def _unsplittable_routings(instance: Instance, cycles: bool = True) -> list[list[tuple[int, ...]]]:
    """Per commodity: every all-or-nothing flow (a path plus disjoint
    cycles), or with ``cycles=False`` every path, as the tuple of its arcs.

    Raises ``BudgetExceededError`` when the paths, the cycles or one
    commodity's flows outgrow their caps.
    """
    cycles = _simple_cycles(instance) if cycles else []
    per_commodity = []
    for com in instance.commodities:
        if com.sink is None:
            raise ValueError("unsplittable routing needs pair commodities")
        what = f"unsplittable flows of commodity {com.source}->{com.sink} (_unsplittable_routings cap)"
        flows = []
        for path in _simple_paths(instance, com.source, com.sink):
            _capped_append(flows, path, FLOW_CAP, what)
            stack = [(path, 0)]
            while stack:
                base, start = stack.pop()
                for idx in range(start, len(cycles)):
                    cyc = cycles[idx]
                    if not (cyc & base):
                        merged = base | cyc
                        _capped_append(flows, merged, FLOW_CAP, what)
                        stack.append((merged, idx + 1))
        per_commodity.append([tuple(flow) for flow in flows])
    return per_commodity
