"""Cutting-plane loop, brute-force oracles and instance generation.

The loop alternates float LP solves with exact separation: the LP point is
rationalized (continued fractions) and every candidate cut is built from
exact instance data, so a cut enters the pool only when its violation is
positive in exact arithmetic.  Oracles enumerate integer installation
grids and validate cuts or compute optima against them; they are bounded
searches with an explicit budget, independent of the separation code.
Exact values (oracle optima, ``LoopResult.exact_bound``) are certified
from float solves by ``lp.solve_certified``.  The oracles keep the
certificates they prove (``MetricCertificates``, ``DualCertificates``) and
try them at later grid points before solving any LP.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, product
from typing import Callable, Iterable, Mapping, Sequence

from . import arc_cuts, cutset_cuts, lp, partition_cuts
from .core import (
    ZERO,
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    frac,
    rationalize,
)
from .lp import (
    LPModel,
    LPSolution,
    RoutingCertificate,
    build_relaxation,
    cheapest_routing,
    check_feasible_routing,
    exact_objective,
    proves_unroutable,
    routing_balance_rows,
    routing_capacity_rows,
    flow_columns,
    routing_upper,
    safe_lower_bound,
    solve,
)
from .mir import hull_inequalities

# solve_lp is not called by this name; the benchmark's tracer (perfbench/spans.py) wraps
# engine.solve_lp.  brute_force_ip calls lp.solve_lp, where the tracer and the tests patch it
from .simplex import solve_lp, solve_lp_many  # noqa: F401

K_SPLIT = (2, 3)             # k of the k-split c-strong cuts
MAX_DENOMINATOR = 10**6      # rationalization of the float LP point
PARTITION_LIMIT = 8          # exhaustive two-partitions up to this many nodes
THREE_PARTITION_LIMIT = 6    # exhaustive three-partitions up to this many nodes
N_RANDOM_PARTITIONS = 20     # sampled partitions above those limits
Q_SUBSET_LIMIT = 6           # exhaustive commodity subsets up to this size


class BudgetExceededError(RuntimeError):
    """An oracle enumeration (the grid, or the unsplittable paths, cycles or
    routings) is larger than its budget."""


# -- the separator table ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A separation family: ``applies(instance)``, and either ``build(sep)``,
    its candidates made once per loop from the instance alone, or
    ``separate(sep, point)``, its candidates at each round's LP point (a
    family that never applies has neither)."""

    name: str
    applies: Callable[[Instance], bool]
    build: Callable[[Separation], Iterable[LinearCut | None]] | None = None
    separate: Callable[[Separation, FractionalPoint], Iterable[LinearCut | None]] | None = None


def _single_facility(instance: Instance) -> bool:
    return len(instance.facilities) == 1


def _rc(sep: Separation, point: FractionalPoint):
    for ai in range(len(sep.instance.arcs)):
        rel = arc_cuts.from_capacity_row(sep.instance, ai, mode=arc_cuts.SPLITTABLE)
        ybar = max(point.y.get((ai, 0), ZERO), ZERO)
        ineq = arc_cuts.separate_residual_capacity(rel, _fractional_loads(rel, ai, point), ybar)
        if ineq is not None:
            yield arc_cuts.to_instance_cut(rel, ineq, "rc")


def _cstrong(sep: Separation, point: FractionalPoint):
    for ai in range(len(sep.instance.arcs)):
        rel = arc_cuts.from_capacity_row(sep.instance, ai, mode=arc_cuts.UNSPLITTABLE)
        reduced, offsets, off0 = arc_cuts.normalize_unsplittable(rel)
        xhat = _fractional_loads(rel, ai, point)
        ybar = max(point.y.get((ai, 0), ZERO), ZERO)
        # capacity variable of the reduced set absorbs the dropped integer parts
        yred = ybar + off0 - sum((offsets[i] * xhat.get(i, ZERO) for i in range(rel.n)), ZERO)
        best = arc_cuts.separate_c_strong(reduced, xhat, yred)
        if best is not None:
            yield arc_cuts.to_instance_cut(rel, arc_cuts.back_map_cut(best, offsets, off0), "cstrong")
            for k in K_SPLIT:
                yield arc_cuts.to_instance_cut(rel, arc_cuts.k_split_c_strong_cut(rel, best.params["S"], k), "ksplit")
        ones = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 1)
        zeros = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 0)
        if len(ones) + len(zeros) < rel.n:
            try:
                spec = arc_cuts.CoverSpec.build(reduced, max(0, int(round(float(yred)))), zeros, ones)
                lifted = arc_cuts.back_map_cut(arc_cuts.lifted_cover_cut(reduced, spec), offsets, off0)
                yield arc_cuts.to_instance_cut(rel, lifted, "liftedcover")
            except ValueError:
                pass


def _flowcutset(sep: Separation, point: FractionalPoint):
    found = sep.cutset_keys
    for rel, subsets in zip(sep.relaxations, sep.subsets(point)):
        for Q in subsets:
            yield _first_of_key(sep, point, cutset_cuts.separate_flow_cutset(rel, Q, point, skip=found))


def _mf(sep: Separation, point: FractionalPoint):
    found = sep.cutset_keys
    for rel, subsets in zip(sep.relaxations, sep.subsets(point)):
        for s in range(len(sep.instance.facilities)):
            for Q in subsets:
                yield _first_of_key(sep, point, cutset_cuts.separate_multifacility(rel, s, point, Q=Q, skip=found))


def _first_of_key(sep: Separation, point: FractionalPoint, cut: LinearCut | None) -> LinearCut | None:
    """``cut`` if it is violated by more than eps, its key then added to
    ``sep.cutset_keys``, which the cut-set separators skip for the rest of
    the round; None otherwise.  A key enters only with a violated cut, as a
    positive multiple of a cut can be violated where the cut is not."""
    if cut is None or not cut.violation(point) > sep.eps:
        return None
    sep.cutset_keys.add(cut.normalized_key())
    return cut


def _partition(sep: Separation):
    """Two-partition hull cuts, then per three-partition the stronger
    total-capacity cut followed by the hull cuts it feeds."""
    instance = sep.instance
    for U, V in sep.partitions:
        shrunk = partition_cuts.shrink(instance, partition_cuts.NodePartition.of(U, V))
        cover = partition_cuts.knapsack_cover_from_two_partition(shrunk)
        if cover is not None:
            for ineq in hull_inequalities(cover):
                yield partition_cuts.expand_knapsack_cut(ineq, shrunk)
    for part in _three_partitions(instance):
        candidates = [cut for cut in partition_cuts.total_capacity_cuts(instance, part) if cut is not None]
        if not candidates:
            continue
        winner = partition_cuts.select_total_capacity_cut(candidates)
        yield winner
        fed = partition_cuts.knapsack_from_total_capacity(winner, instance)
        if fed is not None:
            cover, support = fed
            for ineq in hull_inequalities(cover):
                cap = {(ai, mi): coef for mi, coef in ineq.integ.items() for ai in support.get(mi, ())}
                if cap:
                    yield LinearCut({}, cap, ineq.rhs, "partition", {"from": "total-capacity"})


# table order is admission order.  ``metric`` never applies: every LP point
# carries its own flow, routable under the point's capacities, so no metric
# inequality is violated there; ``partition_cuts.separate_metric`` separates
# capacity vectors from outside the loop.
SEPARATORS = (
    Family("rc", _single_facility, separate=_rc),
    Family("cstrong", lambda inst: _single_facility(inst) and inst.unsplittable, separate=_cstrong),
    Family("cutset", _single_facility, build=lambda sep: map(cutset_cuts.cutset_cut, sep.relaxations)),
    Family("flowcutset", _single_facility, separate=_flowcutset),
    Family("mf", lambda inst: True, separate=_mf),
    Family("metric", lambda inst: False),
    Family("partition", Instance.integral_capacities, build=_partition),
)
FAMILIES = tuple(f.name for f in SEPARATORS)


@dataclass
class Config:
    """Settings of one cutting-plane run.

    ``families`` names the enabled separators, ``max_rounds`` caps the
    solve-separate rounds, and a cut is admitted only when its exact
    violation exceeds ``eps``.
    """

    families: tuple[str, ...] = FAMILIES
    max_rounds: int = 50
    eps: Fraction = Fraction(1, 10**6)

    def __post_init__(self):
        self.eps = rationalize(self.eps, 10**9) if isinstance(self.eps, float) else frac(self.eps)
        if self.eps <= 0:
            raise ValueError("violation threshold must be positive")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown cut families: {sorted(unknown)}")


@dataclass
class RoundReport:
    """One solve-separate round; the fields are the keys, in order, of the
    round's entry in the CLI report.  ``cuts`` counts the pooled cuts by
    cut family; ``families`` holds, for each separator that ran, its
    ``seconds``, its ``candidates`` violated by more than eps (distinct
    cuts for the cut-set families) and how many of them the pool
    ``admitted``.  ``rationalization_error`` is the largest ``|x_float -
    x_rational|`` of the round's LP point.  ``lp_start`` says which solve
    answered the round's LP (``LPSolution.start``: ``"cold"``, ``"warm"``
    from the previous round's tableau, or ``"cold-after-warm"``)."""

    round: int
    bound: float
    cuts: dict[str, int] = field(default_factory=dict)
    max_violation: float = 0.0
    wall_time: float = 0.0
    exact_fallback: bool = False
    lp_start: str = "cold"
    rationalization_error: float = 0.0
    lp_rows: int = 0
    lp_iterations: int = 0
    lp_seconds: float = 0.0
    families: dict[str, dict] = field(default_factory=dict)


class CutPool:
    """Deduplicated cuts, told apart by ``LinearCut.normalized_key()``."""

    def __init__(self):
        self._cuts: dict = {}

    def add(self, cut: LinearCut) -> bool:
        key = cut.normalized_key()
        if key in self._cuts:
            return False
        self._cuts[key] = cut
        return True

    def cuts(self) -> list[LinearCut]:
        return list(self._cuts.values())

    def __len__(self):
        return len(self._cuts)


@dataclass
class LoopResult:
    """``stop`` is ``"no-cuts"`` when a round pooled no new cut and
    ``"round-cap"`` when ``max_rounds`` rounds all did."""

    reports: list[RoundReport]
    pool: CutPool
    final_bound: float
    final_solution: LPSolution
    final_model: LPModel
    stop: str

    @cached_property
    def exact_bound(self) -> Fraction:
        """Exact optimum of the final relaxation (``lp.exact_objective``)."""
        return exact_objective(self.final_model, self.final_solution)


def cutting_plane_loop(instance: Instance, config: Config | None = None) -> LoopResult:
    """Solve, separate, repeat until no family finds a violated cut."""
    config = config or Config()
    pool = CutPool()
    sep = Separation(instance, config)
    reports: list[RoundReport] = []
    sol = None
    for rnd in range(config.max_rounds):
        t0 = time.perf_counter()
        model = build_relaxation(instance, pool.cuts())
        t_lp = time.perf_counter()
        sol = solve(model, start=sol)
        lp_seconds = time.perf_counter() - t_lp
        if sol.status != "optimal":
            raise RuntimeError(f"relaxation solve ended with status {sol.status}")
        point = sol.point(MAX_DENOMINATOR)
        found = iter(separate_all(sep, point))
        families = {name: dict(counts, admitted=0) for name, counts in sep.last_round.items()}
        added: dict[str, int] = {}
        max_violation = ZERO
        for counts in families.values():
            for cut, violation in islice(found, counts["candidates"]):
                if pool.add(cut):
                    counts["admitted"] += 1
                    added[cut.family] = added.get(cut.family, 0) + 1
                    max_violation = max(max_violation, violation)
        reports.append(
            RoundReport(
                round=rnd,
                bound=float(sol.objective),
                cuts=added,
                max_violation=float(max_violation),
                wall_time=time.perf_counter() - t0,
                exact_fallback=sol.exact_fallback,
                lp_start=sol.start,
                rationalization_error=point.rationalization_error,
                lp_rows=len(model.rows),
                lp_iterations=sol.iterations,
                lp_seconds=lp_seconds,
                families=families,
            )
        )
        if not added:
            stop = "no-cuts"
            break
    else:
        # round cap hit with cuts still arriving: record the resulting bound
        stop = "round-cap"
        model = build_relaxation(instance, pool.cuts())
        sol = solve(model, start=sol)

    return LoopResult(
        reports=reports,
        pool=pool,
        final_bound=float(sol.objective),
        final_solution=sol,
        final_model=model,
        stop=stop,
    )


# -- separation orchestration ---------------------------------------------------


class Separation:
    """Separation state of one loop: the enabled families that apply to the
    instance, in table order, and the candidates of each built-once family.
    Partitions and relaxations are made on first use, so nothing is built
    for a family that does not run.  ``last_round`` holds, per family of
    the last ``separate_all`` call, its ``seconds`` and its violated
    ``candidates``, in the order their cuts were returned, and
    ``cutset_keys`` the keys of the ``flowcutset`` and ``mf`` candidates of
    that call."""

    def __init__(self, instance: Instance, config: Config):
        self.instance = instance
        self.eps = config.eps
        self.families = [f for f in SEPARATORS if f.name in config.families and f.applies(instance)]
        self.fixed = {f.name: _distinct(f.build(self)) for f in self.families if f.build}
        self._subsets = (None, [])
        self.last_round: dict[str, dict] = {}
        self.cutset_keys: set = set()

    @cached_property
    def partitions(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return list(_two_partitions(self.instance))

    @cached_property
    def relaxations(self) -> list[cutset_cuts.CutSetRelaxation]:
        return [cutset_cuts.build_cutset(self.instance, U, V) for U, V in self.partitions]

    def subsets(self, point: FractionalPoint) -> list[list[tuple[int, ...]]]:
        """Each relaxation's commodity subsets at ``point``, computed once
        per round and shared by ``flowcutset`` and ``mf``."""
        if self._subsets[0] is not point:
            self._subsets = (point, [list(_commodity_subsets(rel, point)) for rel in self.relaxations])
        return self._subsets[1]


def _distinct(cuts: Iterable[LinearCut | None]) -> list[LinearCut]:
    """The cuts, each ``normalized_key()`` once at its first occurrence."""
    first: dict = {}
    for cut in cuts:
        if cut is not None:
            first.setdefault(cut.normalized_key(), cut)
    return list(first.values())


def separate_all(sep: Separation, point: FractionalPoint):
    """One round: every family of ``sep`` in table order; returns (cut,
    exact violation) pairs for the candidates violated by more than eps
    and records each family's time and count in ``sep.last_round``.  The
    cut-set families ``flowcutset`` and ``mf`` offer each key once per
    round between them, and their cuts carry the exact violation their
    separator scored."""
    found: list[tuple[LinearCut, Fraction]] = []
    sep.last_round = {}
    sep.cutset_keys = set()
    for fam in sep.families:
        t0, before = time.perf_counter(), len(found)
        for cut in sep.fixed[fam.name] if fam.build else fam.separate(sep, point):
            if cut is not None:
                violation = cut.violation(point)
                if violation > sep.eps:
                    found.append((cut, violation))
        sep.last_round[fam.name] = {"seconds": time.perf_counter() - t0, "candidates": len(found) - before}
    return found


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


def _grid(y_bounds: Mapping[tuple[int, int], int], budget: int = 10**6):
    """The grid's points, each a tuple of installation counts over ``sorted(y_bounds)``."""
    keys = sorted(y_bounds)
    size = 1
    for k in keys:
        size *= y_bounds[k] + 1
        if size > budget:
            raise BudgetExceededError(f"y-grid has more than {budget} points")
    yield from product(*(range(y_bounds[k] + 1) for k in keys))


def _capacity_scale(instance: Instance) -> int:
    """Least ``S`` with ``S * cap`` integral for every capacity the oracles
    build: existing capacity plus whole facilities, or the total demand
    (the ample capacity of ``_validate_pure_capacity``)."""
    values = [arc.existing_capacity for arc in instance.arcs] + [fac.capacity for fac in instance.facilities]
    return math.lcm(instance.demand.total().denominator, *(v.denominator for v in values))


def _scaled(values: Iterable[Fraction], scale: int) -> list[int]:
    """``scale * v`` of each value, in ints; ``scale`` is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _grid_capacities(instance: Instance, keys, scale: int) -> Callable[[tuple], list[int]]:
    """``t -> _scaled(caps)``: each arc's capacity at the grid point ``t``
    (counts over ``keys``), built in ints."""
    base = _scaled([arc.existing_capacity for arc in instance.arcs], scale)
    units = _scaled([instance.facilities[mi].capacity for _, mi in keys], scale)
    terms: list[list[tuple[int, int]]] = [[] for _ in instance.arcs]
    for i, ((ai, _), unit) in enumerate(zip(keys, units)):
        terms[ai].append((i, unit))
    return lambda t: [b + sum(c * t[i] for i, c in arc) for b, arc in zip(base, terms)]


class MetricCertificates:
    """Routing refutations proved on ``instance``.

    A metric certificate ``(v, u)`` lies in the metric cone of the
    topology, which does not read the capacities, so ``sum(v_a * cap_a) <
    demand_side`` proves that no routing fits ``cap`` for every capacity
    vector it separates, not only the one it was found at.  Capacities are
    given as ints ``scale * cap``; each certificate is kept as integer arc
    weights ``w`` and a threshold, a positive multiple of its inequality:
    ``sum(w_a * scale * cap_a) < threshold``.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.scale = _capacity_scale(instance)
        self.certificates: list[tuple[dict[int, int], int]] = []

    def refutes(self, scaled_caps: Sequence[int]) -> bool:
        """Does a kept certificate prove ``scaled_caps`` unroutable?  The one
        that does moves to the front."""
        certs = self.certificates
        for i, (w, threshold) in enumerate(certs):
            if sum(c * scaled_caps[ai] for ai, c in w.items()) < threshold:
                certs.insert(0, certs.pop(i))
                return True
        return False

    def add(self, cert: RoutingCertificate) -> None:
        mult = math.lcm(*(v.denominator for v in cert.v.values()))
        # the weighted sum is an int, so ``< q`` is ``< ceil(q)``
        threshold = math.ceil(cert.demand_side(self.instance) * mult * self.scale)
        self.certificates.insert(0, (dict(zip(cert.v, _scaled(cert.v.values(), mult))), threshold))


class DualCertificates:
    """Safe lower bounds on the minimum of one flow objective over the
    routing LP, at capacities given as ints ``scale * cap``.

    The Neumaier-Shcherbina bound (``lp.safe_lower_bound``) holds for any
    row duals of the right signs, and its reduced costs ``c - pi·A`` do not
    read the right-hand side.  Only the capacity rows' rhs changes between
    capacity vectors, so with ``pi_a <= 0`` the clamped dual of arc ``a``'s
    capacity row, ``const + sum(pi_a * cap_a)`` is the bound the same duals
    give at any ``cap``, and it is exact.  Each is kept as ints ``(mult, c0,
    w)`` with ``mult * bound = c0 + sum(w_a * scale * cap_a)``.
    """

    def __init__(self, scale: int):
        self.scale = scale
        self.certificates: list[tuple[int, int, dict[int, int]]] = []

    def reaches(self, scaled_caps: Sequence[int], num: int, den: int) -> bool:
        """Does a kept bound reach ``num / den`` (``den > 0``) at
        ``scaled_caps``?  The one that does moves to the front."""
        certs = self.certificates
        for i, (mult, c0, w) in enumerate(certs):
            if (c0 + sum(c * scaled_caps[ai] for ai, c in w.items())) * den >= num * mult:
                certs.insert(0, certs.pop(i))
                return True
        return False

    def add(self, scaled_caps: Sequence[int], bound: Fraction, duals: Sequence) -> None:
        """Keep ``bound``, ``lp.safe_lower_bound`` of ``duals`` at
        ``scaled_caps`` on a routing LP whose last rows are the capacity rows."""
        per_unit = {}
        for ai, dual in enumerate(duals[len(duals) - len(scaled_caps) :]):
            pi = rationalize(dual)
            if pi < 0:  # safe_lower_bound drops a <= row's positive dual
                per_unit[ai] = pi / self.scale
        const = bound - sum((r * scaled_caps[ai] for ai, r in per_unit.items()), ZERO)
        mult = math.lcm(const.denominator, *(r.denominator for r in per_unit.values()))
        c0, *w = _scaled([const, *per_unit.values()], mult)
        cert = (mult, c0, dict(zip(per_unit, w)))
        if cert not in self.certificates:  # points with one optimal basis give one bound
            self.certificates.insert(0, cert)


def brute_force_ip(
    instance: Instance,
    y_bounds: Mapping[tuple[int, int], int] | None = None,
    ybound: int | None = None,
    budget: int = 10**6,
):
    """Exhaustive optimum over integer installations within the grid.

    For each grid point ``lp.cheapest_routing`` (or the unsplittable routing
    enumeration) prices the flows exactly; returns ``(value, point)`` with
    the best total cost, or ``None`` when nothing in the grid is feasible.
    A point is skipped without an LP when a metric certificate proved at an
    earlier point refutes it, or when a flow-cost dual bound proved at an
    earlier point already brings its total to the incumbent (which only a
    strictly lower total replaces).
    Unsplittable routings are paths only: a cycle only adds load, and
    ``validate_instance`` requires nonnegative flow costs of unsplittable
    instances, so a cycle never makes a routing fit or cost less.
    Raises ``BudgetExceededError`` when the grid or an unsplittable
    enumeration is larger than its budget.
    """
    if y_bounds is None:
        y_bounds = default_y_bounds(instance, ybound)
    keys = sorted(y_bounds)
    unit_cost = [instance.facilities[mi].costs[ai] for ai, mi in keys]
    flow_cost = {(ai, ki): c for ai, row in enumerate(instance.flow_costs) for ki, c in enumerate(row)}
    routings = _unsplittable_routings(instance, cycles=False) if instance.unsplittable else None
    refuted = MetricCertificates(instance)
    scale = refuted.scale
    bounds = DualCertificates(scale)
    capacities = _grid_capacities(instance, keys, scale)
    n_vars = len(instance.arcs) * len(instance.commodities)
    balance, upper = routing_balance_rows(instance), routing_upper(instance)
    objective = flow_columns(instance, flow_cost)
    best = None
    for t in _grid(y_bounds, budget):
        scaled_caps = capacities(t)
        install = sum((c * v for c, v in zip(unit_cost, t) if v), ZERO)
        if routings is None:
            if refuted.refutes(scaled_caps):
                continue
            if best is not None:
                target = best[0] - install
                if bounds.reaches(scaled_caps, target.numerator, target.denominator):
                    continue
        caps = [Fraction(c, scale) for c in scaled_caps]
        if routings is not None:
            flow_val, x = _best_unsplittable(instance, routings, caps, flow_cost) or (None, None)
        else:
            rows = balance + routing_capacity_rows(instance, caps)
            res = lp.solve_lp(n_vars, rows, objective, upper)
            flow_val, x = cheapest_routing(instance, caps, flow_cost, first=res)
            if flow_val is None:
                refuted.add(x)
            elif res.status == "optimal":
                bound = safe_lower_bound(rows, objective, upper, res.duals)
                if bound is not None:
                    bounds.add(scaled_caps, bound, res.duals)
        if flow_val is None:
            continue
        total = install + flow_val
        if best is None or total < best[0]:
            best = (total, FractionalPoint(x=dict(x), y={k: Fraction(v) for k, v in zip(keys, t) if v}))
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
    flow terms are checked on the bounded grid.  Every certificate proved
    on the way is kept, as it carries to other capacity vectors
    (``MetricCertificates``, ``DualCertificates``), so at each grid point:

    - the point is skipped as unroutable when a kept metric certificate
      refutes its capacities;
    - a cut holds at the point when its ``y`` part plus a kept dual bound
      on the minimum of its flow part reaches the rhs;
    - for the cuts left, one float routing LP is solved for all their
      objectives (phase 1 shared), and its answers are only used as
      certificates: the point is skipped when the Farkas vector yields a
      metric inequality that fails exactly (``lp.proves_unroutable``, the
      certificate ``check_feasible_routing`` also gives), and a cut holds
      when its ``y`` part plus a safe dual bound (``lp.safe_lower_bound``)
      reaches the rhs exactly;
    - anything left is priced exactly from the same float solve by
      ``lp.cheapest_routing``, which also supplies every counterexample.

    Every skip rests on an exact inequality, so the verdicts and
    counterexamples are those of solving at every point.  With unsplittable
    routing the enumeration is exact throughout; points with no joint
    routing are skipped for every cut.  Routability is decided on paths
    alone (a cycle only adds load); the flow part of a cut is priced over
    paths plus disjoint cycles, since its coefficients can be negative.
    """
    verdicts: list = [(True, None) for _ in cuts]
    priced = routings = None
    if instance.unsplittable:
        routings = _unsplittable_routings(instance, cycles=False)
        priced = _unsplittable_routings(instance) if any(cut.flow for cut in cuts) else routings
    refuted = MetricCertificates(instance)
    grid_idx = []
    for idx, cut in enumerate(cuts):
        if not cut.flow and all(v >= 0 for v in cut.cap.values()):
            verdicts[idx] = _validate_pure_capacity(cut, instance, routings, refuted)
        else:
            grid_idx.append(idx)
    if not grid_idx:
        return verdicts

    if y_bounds is None:
        y_bounds = default_y_bounds(instance, ybound)
    keys = sorted(y_bounds)
    scale = refuted.scale
    capacities = _grid_capacities(instance, keys, scale)
    upper = routing_upper(instance)
    n_vars = len(instance.arcs) * len(instance.commodities)
    balance = routing_balance_rows(instance)
    objectives = {idx: flow_columns(instance, cuts[idx].flow) for idx in grid_idx}
    # a dual bound bounds the flow part alone: cuts with one flow part share its certificates
    shared: dict = {}
    bounds = {idx: shared.setdefault(frozenset(cuts[idx].flow.items()), DualCertificates(scale)) for idx in grid_idx}
    shortfalls = {idx: _shortfall(cuts[idx], keys) for idx in grid_idx}
    open_idx = set(grid_idx)
    for t in _grid(y_bounds, budget):
        if not open_idx:
            break
        scaled_caps = capacities(t)
        order = sorted(open_idx)
        if routings is None:
            if refuted.refutes(scaled_caps):
                continue
            order = [idx for idx in order if not bounds[idx].reaches(scaled_caps, *shortfalls[idx](t))]
            if not order:
                continue
        y = dict(zip(keys, map(Fraction, t)))
        caps = [Fraction(c, scale) for c in scaled_caps]
        if routings is not None:
            if _best_unsplittable(instance, routings, caps, {}) is None:
                continue
            for idx in order:
                cut = cuts[idx]
                lhs_min, x = _best_unsplittable(instance, priced, caps, cut.flow)
                if _ypart(cut, y) + lhs_min < cut.rhs:
                    verdicts[idx] = (False, FractionalPoint(x=dict(x), y=dict(y)))
                    open_idx.discard(idx)
            continue
        # only the capacity rows depend on the grid point
        rows = balance + routing_capacity_rows(instance, caps)
        results = solve_lp_many(n_vars, rows, [objectives[idx] for idx in order], upper)
        if results[0].status == "infeasible":
            cert = proves_unroutable(instance, caps, results[0].farkas)
            if cert:
                refuted.add(cert)
                continue
        for idx, res in zip(order, results):
            cut = cuts[idx]
            ypart = _ypart(cut, y)
            if res.status == "optimal":
                bound = safe_lower_bound(rows, objectives[idx], upper, res.duals)
                if bound is not None and ypart + bound >= cut.rhs:
                    bounds[idx].add(scaled_caps, bound, res.duals)
                    continue
            value, x = cheapest_routing(instance, caps, cut.flow, first=res)
            if value is not None and ypart + value < cut.rhs:
                verdicts[idx] = (False, FractionalPoint(x=x, y=dict(y)))
                open_idx.discard(idx)
    return verdicts


def _ypart(cut: LinearCut, y) -> Fraction:
    return sum((coef * y.get(key, ZERO) for key, coef in cut.cap.items()), ZERO)


def _shortfall(cut: LinearCut, keys) -> Callable[[tuple], tuple[int, int]]:
    """``t -> (num, den)`` with ``num / den = rhs - y part`` of ``cut`` at the
    grid point ``t`` (counts over ``keys``), in ints."""
    position = {key: i for i, key in enumerate(keys)}
    terms = {position[key]: coef for key, coef in cut.cap.items() if key in position}
    den = math.lcm(cut.rhs.denominator, *(coef.denominator for coef in terms.values()))
    rhs, *coefs = _scaled([cut.rhs, *terms.values()], den)
    terms = list(zip(terms, coefs))
    return lambda t: (rhs - sum(c * t[i] for i, c in terms), den)


def _validate_pure_capacity(cut: LinearCut, instance: Instance, routings, refuted: MetricCertificates):
    """Complete validity check for a nonnegative pure-capacity cut.

    Any violating installation keeps the keyed variables below the cut's
    rhs; unkeyed variables can only help feasibility, so they are granted
    ample capacity.  Enumerate the finitely many keyed patterns and decide
    routability exactly (``check_feasible_routing``) at the maximal ones,
    where raising any key would reach the rhs: routability only grows with
    capacity, so a routable pattern below the rhs exists iff a maximal one
    does.  A pattern that a metric certificate in ``refuted`` refutes needs
    no LP; each new refutation joins ``refuted``.
    """
    keys = sorted(cut.cap)
    least = min(cut.cap.values())
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
            if lhs + least < cut.rhs:
                return
            caps = capacities(current)
            if routings is not None:
                feasible = _best_unsplittable(instance, routings, caps, {}) is not None
            elif refuted.refutes(_scaled(caps, refuted.scale)):
                feasible = False
            else:
                feasible, cert = check_feasible_routing(instance, caps)
                if not feasible:
                    refuted.add(cert)
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


# -- unsplittable routing enumeration --------------------------------------------


def _capped_append(items: list, item, cap: int, what: str) -> None:
    """Append ``item``, or raise ``BudgetExceededError`` when ``items``
    already holds ``cap`` of ``what``: a truncated enumeration would make
    the oracle's answer wrong."""
    if len(items) >= cap:
        raise BudgetExceededError(f"more than {cap} {what}")
    items.append(item)


def _simple_paths(instance: Instance, src: int, dst: int, cap: int = 400) -> list[frozenset[int]]:
    paths = []
    what = f"simple paths from {src} to {dst} (_simple_paths cap)"

    def walk(node, used_nodes, used_arcs):
        if node == dst:
            _capped_append(paths, frozenset(used_arcs), cap, what)
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
    what = "simple cycles (_simple_cycles cap)"

    def walk(start, node, used_nodes, used_arcs):
        for ai in instance.out_arcs[node]:
            head = instance.arcs[ai].head
            if head == start:
                _capped_append(cycles, frozenset(used_arcs + [ai]), cap, what)
            elif order[head] > order[start] and head not in used_nodes:
                walk(start, head, used_nodes | {head}, used_arcs + [ai])

    for start in instance.nodes:
        walk(start, start, {start}, [])
    return cycles


def _unsplittable_routings(
    instance: Instance, cycles: bool = True, combo_cap: int = 400
) -> list[list[frozenset[int]]]:
    """Per commodity: every all-or-nothing flow (a path plus disjoint
    cycles), or with ``cycles=False`` every path.

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
            _capped_append(flows, path, combo_cap, what)
            stack = [(path, 0)]
            while stack:
                base, start = stack.pop()
                for idx in range(start, len(cycles)):
                    cyc = cycles[idx]
                    if not (cyc & base):
                        merged = base | cyc
                        _capped_append(flows, merged, combo_cap, what)
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
    # prune at commodity ki only when no remaining cost can be negative
    prunable = [True] * (len(routings) + 1)
    for ki in reversed(range(len(routings))):
        prunable[ki] = prunable[ki + 1] and all(c >= 0 for c in arc_cost[ki])
    best = None

    def assign(ki, loads, cost, chosen):
        nonlocal best
        if best is not None and cost >= best[0] and prunable[ki]:
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
    if any(a >= b for a, b in zip(facilities, facilities[1:])):
        raise ValueError(f"facility capacities must be strictly increasing, got {tuple(facilities)}")
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
