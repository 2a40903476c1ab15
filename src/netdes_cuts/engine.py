"""Cutting-plane loop, brute-force oracles and instance generation.

The loop alternates float LP solves with exact separation: the LP point is
rationalized (continued fractions) and every candidate cut is built from
exact instance data, so a cut enters the pool only when its violation is
positive in exact arithmetic.  Oracles enumerate integer installation
grids and validate cuts or compute optima against them; they are bounded
searches with an explicit budget, independent of the separation code.
Exact values (oracle optima, ``LoopResult.exact_bound``) are certified
from float solves by ``lp.solve_certified``, the oracle's on the one
routing LP (``lp.RoutingLP``) of its call.  The oracles keep the node
cuts and the certificates they prove, metric refutations and safe dual
bounds, as integer capacity bounds (``lp.CapacityBounds``) and try them at
every grid point before solving any LP.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from . import arc_cuts, cutset_cuts, lp, partition_cuts
from .core import (
    MAX_DENOMINATOR,
    ZERO,
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    check_key,
    frac,
    scaled_ints,
)
from .cutset_cuts import ScaledPoint
from .lp import (
    CapacityBounds,
    LPModel,
    LPSolution,
    RoutingLP,
    build_relaxation,
    dual_bound,
    exact_objective,
    metric_bound,
    proves_unroutable,
    safe_lower_bound,
    signed_duals,
    solve,
)
from .mir import KnapsackCoverSet, hull_inequalities

# solve_lp and check_feasible_routing are not called by these names; the benchmark's tracer
# (perfbench/spans.py) wraps engine.solve_lp and engine.check_feasible_routing.  The oracles
# solve through lp's globals, where the tracer and the tests patch them
from .lp import check_feasible_routing  # noqa: F401
from .simplex import solve_lp  # noqa: F401

K_SPLIT = (2, 3)             # k of the k-split c-strong cuts
N_RANDOM_PARTITIONS = 20     # sampled partitions above the exhaustive enumerations' node limits
Q_SUBSET_LIMIT = 6           # exhaustive commodity subsets up to this size
GRID_BUDGET = 10**6          # installation grid points an oracle enumerates
PATH_CAP = 400               # simple paths per node pair in the unsplittable oracles
CYCLE_CAP = 100              # simple cycles in the unsplittable oracles
FLOW_CAP = 400               # unsplittable flows per commodity


class BudgetExceededError(RuntimeError):
    """An oracle enumeration (the grid, or the unsplittable paths, cycles or
    routings) is larger than its budget."""


class RelaxationError(RuntimeError):
    """A relaxation of the cutting-plane loop has no optimum, as for an
    instance without a facility whose existing capacity cannot route it."""


# -- the separator table ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A separation family: ``applies(instance)`` and ``separate(sep,
    scaled)``, which yields ``(cut, exact violation)`` for its candidates
    violated by more than ``sep.eps`` at the round's one
    ``cutset_cuts.ScaledPoint``.  A built-once family's candidates are
    ``build(sep)``, ``CoverForm``s made once per loop into ``sep.fixed``
    and decided each round on their ints; a candidate's ``LinearCut`` is
    built the first time a round admits it.  ``skipped(sep, scaled)``
    counts the relaxations a family passed over at the point."""

    name: str
    applies: Callable[[Instance], bool]
    separate: Callable[[Separation, ScaledPoint], Iterable[tuple[LinearCut, Fraction]]] | None = None
    build: Callable[[Separation], Iterable[CoverForm]] | None = None
    skipped: Callable[[Separation, ScaledPoint], int] | None = None


def _checked(candidates: Callable[[Separation, ScaledPoint], Iterable[LinearCut | None]]):
    """The ``separate`` of a family whose ``candidates(sep, scaled)`` are
    cuts, or None: (cut, exact violation) for each cut violated by more
    than eps, by ``LinearCut.violation`` with eps, which admits on the
    ints of ``scaled`` and makes a ``Fraction`` only for an admitted cut."""

    def separate(sep: Separation, scaled: ScaledPoint):
        for cut in candidates(sep, scaled):
            if cut is not None and (violation := cut.violation(scaled, sep.eps)) is not None:
                yield cut, violation

    return separate


class CoverForm:
    """A built-once candidate as ints at the instance's scale: the pure
    capacity inequality ``sum_m coefs[m] * y_m(arcs) >= rhs``, ``y_m(arcs)``
    the installations of facility m summed over the arc group ``arcs`` (a
    frozenset).  ``cut`` is its ``LinearCut``, which holds the same ints
    over ``den=1``; ``make()``, the family's builder, makes it on first
    read."""

    __slots__ = ("arcs", "coefs", "rhs", "make", "_cut")

    def __init__(self, arcs: frozenset[int], coefs: tuple[int, ...], rhs: int, make: Callable[[], LinearCut]):
        self.arcs, self.coefs, self.rhs, self.make = arcs, coefs, rhs, make
        self._cut = None

    @property
    def cut(self) -> LinearCut:
        if self._cut is None:
            self._cut = self.make()
        return self._cut


def _built_once(name: str, applies, build) -> Family:
    """A family whose candidates ``build(sep)`` makes once per loop into
    ``sep.fixed[name]``.  Each round sums the scaled point's ``y`` once per
    distinct arc group, ``z_m = sum_{a in arcs} Y[a][m]``, and a form's
    violation is ``slack / D`` with ``slack = rhs * D - sum_m coefs[m] *
    z_m``, compared with eps on ints as ``LinearCut.violation`` compares
    its cut's."""

    def separate(sep: Separation, scaled: ScaledPoint):
        Y, D = scaled.y, scaled.D
        den, above = sep.eps.denominator, sep.eps.numerator * D  # admitted iff slack * den > above
        sums: dict = {}
        for form in sep.fixed[name]:
            z = sums.get(form.arcs)
            if z is None:
                z = sums[form.arcs] = [sum(col) for col in zip(*(Y[a] for a in form.arcs))]
            slack = form.rhs * D - sum(map(mul, form.coefs, z))
            if slack * den > above:
                yield form.cut, Fraction(slack, D)

    return Family(name, applies, separate, build=build)


def _single_facility(instance: Instance) -> bool:
    return len(instance.facilities) == 1


def _rc(sep: Separation, scaled: ScaledPoint):
    """Each arc's residual capacity cut, decided on ints by
    ``arc_cuts.residual_capacity_set``: the coefficients ``d_k / c`` and
    ``cbar / c`` times ``S*c`` (S the instance's scale), and each load
    ``x_k / d_k``, clamped into the unit box, as ``(S*X_k, D*S*d_k)`` with
    ``X = D*x`` of ``scaled``; ``Fraction``s are made only for a cut."""
    inst, D = sep.instance, scaled.D
    S, supplies = inst.scale, inst.supply_num
    for ai, (X, Y, cbar) in enumerate(zip(scaled.x, scaled.y, inst.cbar_num)):
        loads = [(min(max(S * v, 0), D * d), D * d) for v, d in zip(X, supplies)]
        T = arc_cuts.residual_capacity_set(supplies, cbar, inst.sizes_num[0], loads, max(Y[0], 0), D)
        if T is not None:
            rel = sep.capacity_rows[ai]
            yield arc_cuts.to_instance_cut(rel, arc_cuts.residual_capacity_cut(rel, T), "rc")


def _cstrong(sep: Separation, scaled: ScaledPoint):
    point = scaled.point
    for ai, rel in enumerate(sep.capacity_rows):
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


def _cutset_pass(family: str):
    """The ``separate`` of a cut-set family: per relaxation with an arc
    U -> V whose crossing point is off its mixed-integer set (where no
    cut-set cut is violated), its commodity subsets (``Separation.subsets``,
    made once per loop, or per point above ``Q_SUBSET_LIMIT``), then one
    ``cutset_cuts.separate_relaxation`` pass over the base facilities and
    subsets.  A key is offered once per call: it enters the pass's skip set
    only with a cut violated by more than eps, as a positive multiple of a
    cut can be violated where the cut is not."""

    def separate(sep: Separation, scaled: ScaledPoint):
        found: set = set()
        for rel in sep.relaxations:
            if rel.A_plus and not scaled.view(rel).mixed_integer:
                subsets = sep.subsets if sep.subsets is not None else list(_commodity_subsets(rel, scaled))
                for cut, violation in cutset_cuts.separate_relaxation(rel, scaled, subsets, family, sep.eps, found):
                    found.add(cut.normalized_key())
                    yield cut, violation

    return separate


def _mixed_integer_relaxations(sep: Separation, scaled: ScaledPoint) -> int:
    """How many cut-set relaxations the cut-set separators skipped at the
    point of ``scaled``, whose crossing point lies in their mixed-integer set."""
    return sum(scaled.view(rel).mixed_integer for rel in sep.relaxations)


def _cutset(sep: Separation):
    """Per relaxation with an arc U -> V and a positive rounded
    requirement (``cutset_cuts.cutset_rhs``), the form of its
    ``cutset_cut``: ``y(A+) >= rhs`` on the one facility."""
    for rel in sep.relaxations:
        rhs = cutset_cuts.cutset_rhs(rel)
        if rhs > 0 and rel.A_plus:
            yield CoverForm(frozenset(rel.A_plus), (1,), rhs, partial(cutset_cuts.cutset_cut, rel))


def _partition(sep: Separation):
    """Two-partition hull forms, then per three-partition the form of the
    stronger total-capacity cut followed by the hull forms it feeds.  A
    two-partition's cover rhs, demand(U->V) - cbar(A+) times the
    instance's scale, is read off its cut-set relaxation (a positive
    ``b_k`` is commodity k's demand into V), a three-partition's crossing
    arcs and block-pair sums off one ``NodePairTable``.  Many partitions
    share a cover set, keyed by its rhs times that scale, and each
    distinct cover's hull is computed once.  A form's cut is built by
    ``expand_knapsack_cut`` or, for a winner, by ``total_capacity_cut`` of
    the partition's shrink; a partition without a crossing arc or a
    facility, or a hull inequality without a nonzero coefficient, has no
    form, as those builders would give None."""
    instance = sep.instance
    capacities = tuple(int(f.capacity) for f in instance.facilities)
    hulls: dict[int, list] = {}

    def hull_forms(b: int, arcs: Sequence[int], group: frozenset[int], params: dict):
        if b not in hulls:
            hulls[b] = hull_inequalities(KnapsackCoverSet(capacities, Fraction(b, instance.scale)))
        for ineq in hulls[b]:
            if any(ineq[0]):
                yield CoverForm(group, *ineq, partial(partition_cuts.expand_knapsack_cut, ineq, arcs, dict(params)))

    for rel in sep.relaxations:
        b = sum(v for v in rel.b_num if v > 0) - sum(instance.cbar_num[ai] for ai in rel.A_plus)
        if b > 0 and rel.A_plus:
            yield from hull_forms(b, rel.A_plus, frozenset(rel.A_plus), {"blocks": (rel.U, rel.V)})
    table = partition_cuts.NodePairTable(instance)

    def winner(part: partition_cuts.NodePartition) -> LinearCut:
        return partition_cuts.total_capacity_cut(table.shrink(part))

    for part in _three_partitions(instance):
        crossing, net = table.crossing(part)
        if not crossing or not any(capacities):
            continue
        group = frozenset(crossing)
        rhs = partition_cuts.total_capacity_rhs(net, instance.scale)
        yield CoverForm(group, capacities, rhs, partial(winner, part))
        if rhs > 0:
            # the cover over per-facility totals that the winner implies
            yield from hull_forms(rhs * instance.scale, crossing, group, {"from": "total-capacity"})


# table order is admission order.  One cut-set pass runs per instance:
# ``flowcutset`` on one facility, where the multi-facility cut-set inequality
# is the flow-cut-set inequality, and ``mf`` on several; each is one
# ``cutset_cuts.separate_relaxation`` pass per relaxation, which yields the
# violation it scored, and ``rc`` decides each arc on ints.  ``metric`` never applies: every LP
# point carries its own flow, routable under the point's capacities, so no
# metric inequality is violated there; ``partition_cuts.separate_metric``
# separates capacity vectors from outside the loop.
SEPARATORS = (
    Family("rc", _single_facility, _checked(_rc)),
    Family("cstrong", lambda inst: _single_facility(inst) and inst.unsplittable, _checked(_cstrong)),
    _built_once("cutset", _single_facility, _cutset),
    Family("flowcutset", _single_facility, _cutset_pass("flowcutset"), skipped=_mixed_integer_relaxations),
    Family("mf", lambda inst: not _single_facility(inst), _cutset_pass("mf"), skipped=_mixed_integer_relaxations),
    Family("metric", lambda inst: False),
    _built_once("partition", Instance.integral_capacities, _partition),
)
FAMILIES = tuple(f.name for f in SEPARATORS)


@dataclass
class Config:
    """Settings of one cutting-plane run.

    ``families`` names the enabled separators, ``max_rounds`` caps the
    solve-separate rounds, and a cut is admitted only when its exact
    violation exceeds ``eps``, coerced by ``core.frac`` (a float is
    refused).  A bad value raises ``TypeError`` or ``ValueError`` naming
    its field.
    """

    families: tuple[str, ...] = FAMILIES
    max_rounds: int = 50
    eps: Fraction = Fraction(1, 10**6)

    def __post_init__(self):
        if isinstance(self.eps, bool):
            raise TypeError(f"eps must be a rational, got {self.eps!r}")
        try:
            self.eps = frac(self.eps)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"eps: {exc}") from None
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if isinstance(self.max_rounds, bool) or not isinstance(self.max_rounds, int):
            raise TypeError(f"max_rounds must be an int, got {self.max_rounds!r}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if (isinstance(self.families, str) or not isinstance(self.families, Sequence)
                or not all(isinstance(name, str) for name in self.families)):
            raise TypeError(f"families must be a sequence of family names, got {self.families!r}")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"families has unknown names {sorted(unknown)}; known: {FAMILIES}")


@dataclass
class RoundReport:
    """One solve-separate round; the fields are the keys, in order, of the
    round's entry in the CLI report.  ``cuts`` counts the pooled cuts by
    cut family; ``families`` holds, for each separator that ran, its
    ``seconds``, its ``candidates`` violated by more than eps (distinct
    cuts for the cut-set families), the cut-set relaxations it
    ``skipped`` because the round's point lies in their mixed-integer set
    (0 for a family without relaxations) and how many candidates the pool
    ``admitted``.  ``rationalization_error`` is the largest ``|x_float -
    x_rational|`` of the round's LP point.  ``lp_start`` says which solve
    answered the round's LP (``LPSolution.start``: ``"cold"``, ``"warm"``
    from the previous round's tableau, or ``"cold-after-warm"``).
    ``build_seconds`` times the round's ``build_relaxation`` and
    ``point_seconds`` the rationalization of its LP point."""

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
    build_seconds: float = 0.0
    point_seconds: float = 0.0
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
    ``"round-cap"`` when ``max_rounds`` rounds all did.  ``inapplicable``
    names, in table order, the enabled families that do not apply to the
    instance and so never ran."""

    reports: list[RoundReport]
    pool: CutPool
    final_bound: float
    final_solution: LPSolution
    final_model: LPModel
    stop: str
    inapplicable: list[str]

    @cached_property
    def exact_bound(self) -> Fraction:
        """Exact optimum of the final relaxation (``lp.exact_objective``)."""
        return exact_objective(self.final_model, self.final_solution)


def cutting_plane_loop(instance: Instance, config: Config | None = None) -> LoopResult:
    """Solve, separate, repeat until no family finds a violated cut.
    Raises ``RelaxationError`` when a relaxation has no optimum."""
    config = config or Config()
    pool = CutPool()
    sep = Separation(instance, config)
    reports: list[RoundReport] = []
    model = sol = None
    stop = "round-cap"
    # one more solve than rounds: at the round cap, with cuts still
    # arriving, it gives the bound of the resulting relaxation
    for rnd in range(config.max_rounds + 1):
        t0 = time.perf_counter()
        model = build_relaxation(instance, pool.cuts(), base=model)
        t_lp = time.perf_counter()
        sol = solve(model, start=sol)
        lp_seconds = time.perf_counter() - t_lp
        if sol.status != "optimal":
            raise RelaxationError(f"relaxation solve ended with status {sol.status}")
        if rnd == config.max_rounds:
            break
        t_point = time.perf_counter()
        point = sol.point(MAX_DENOMINATOR)
        point_seconds = time.perf_counter() - t_point
        found = separate_all(sep, point)
        families = {name: {"seconds": seconds, "candidates": 0, "skipped": skipped, "admitted": 0}
                    for name, (seconds, skipped) in found.families.items()}
        added: dict[str, int] = {}
        max_violation = ZERO
        for family, cut, violation in found.candidates:
            counts = families[family]
            counts["candidates"] += 1
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
                lp_rows=len(model.float_rows),
                lp_iterations=sol.iterations,
                lp_seconds=lp_seconds,
                build_seconds=t_lp - t0,
                point_seconds=point_seconds,
                families=families,
            )
        )
        if not added:
            stop = "no-cuts"
            break

    return LoopResult(
        reports=reports,
        pool=pool,
        final_bound=float(sol.objective),
        final_solution=sol,
        final_model=model,
        stop=stop,
        inapplicable=sep.inapplicable,
    )


# -- separation orchestration ---------------------------------------------------


class Separation:
    """Separation state of one loop, made from the instance alone: the
    enabled families that apply to the instance, in table order, the
    enabled ones that do not (``inapplicable``, their names), and the
    candidates of each built-once family (``fixed``), pure capacity
    inequalities kept as int ``CoverForm``s, whose ``LinearCut`` is built
    the first time a round admits it and then kept on the form.
    The cut-set relaxations, one per two-partition and read by the cut-set
    and ``partition`` families, commodity subsets and arc rows are made on
    first use (the relaxations in ``__init__`` when ``cutset`` or
    ``partition`` builds its candidates), so nothing is built for a family
    that does not run.  It keeps nothing of a round: ``separate_all``
    returns what a round found."""

    def __init__(self, instance: Instance, config: Config):
        self.instance = instance
        self.eps = config.eps
        enabled = [f for f in SEPARATORS if f.name in config.families]
        self.families = [f for f in enabled if f.applies(instance)]
        self.inapplicable = [f.name for f in enabled if not f.applies(instance)]
        self.fixed = {f.name: _distinct_forms(f.build(self)) for f in self.families if f.build}

    @cached_property
    def relaxations(self) -> list[cutset_cuts.CutSetRelaxation]:
        return [cutset_cuts.build_cutset(self.instance, U, V) for U, V in _two_partitions(self.instance)]

    @cached_property
    def subsets(self) -> list[tuple[int, ...]] | None:
        """Every nonempty commodity subset, made once when there are at most
        ``Q_SUBSET_LIMIT`` commodities, where ``_commodity_subsets`` reads no
        point; else None."""
        n = len(self.instance.commodities)
        return _all_subsets(n) if n <= Q_SUBSET_LIMIT else None

    @cached_property
    def capacity_rows(self) -> list[arc_cuts.ArcSetRelaxation]:
        """Each arc's capacity row as an arc-set relaxation in the instance's mode."""
        return [arc_cuts.from_capacity_row(self.instance, ai) for ai in range(len(self.instance.arcs))]


def _distinct_forms(forms: Iterable[CoverForm]) -> list[CoverForm]:
    """The forms, each key ``(arcs, coefs // g, rhs // g)``, ``g`` the gcd
    of the rhs and coefficients, once at its first occurrence.  A form has
    an arc and a nonzero coefficient, so two keys are equal exactly when
    the built cuts' ``normalized_key()``s are."""
    first: dict = {}
    for form in forms:
        g = math.gcd(form.rhs, *form.coefs)
        first.setdefault((form.arcs, tuple(c // g for c in form.coefs), form.rhs // g), form)
    return list(first.values())


@dataclass
class SeparationRound:
    """One ``separate_all`` call: its ``candidates``, ``(family, cut, exact
    violation)`` in the order the families in table order yielded them
    (``cut.family`` may name a variant, such as ``ksplit`` of ``cstrong``),
    and per family that ran, ``(seconds, skipped)``, its time and skipped
    cut-set relaxations.  Its length is the number of candidates."""

    candidates: list[tuple[str, LinearCut, Fraction]]
    families: dict[str, tuple[float, int]]

    def __len__(self):
        return len(self.candidates)


def separate_all(sep: Separation, point: FractionalPoint) -> SeparationRound:
    """One round: every family of ``sep`` in table order, each yielding
    ``(cut, exact violation)`` for its candidates violated by more than
    eps.  The call makes one ``ScaledPoint`` of ``point`` and gives it to
    every family; the cut-set relaxations share it, each with its view
    made at most once, and the cut-set family that runs (``flowcutset``
    or ``mf``) offers each key once."""
    scaled = ScaledPoint(sep.instance, point)
    found = SeparationRound([], {})
    for fam in sep.families:
        t0 = time.perf_counter()
        found.candidates.extend((fam.name, cut, v) for cut, v in fam.separate(sep, scaled))
        seconds = time.perf_counter() - t0
        found.families[fam.name] = (seconds, fam.skipped(sep, scaled) if fam.skipped else 0)
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
    if len(nodes) <= cutset_cuts.PARTITION_LIMIT:
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
    if len(nodes) <= partition_cuts.THREE_PARTITION_LIMIT:
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


def _all_subsets(n: int) -> list[tuple[int, ...]]:
    """Every nonempty subset of ``range(n)``, by size, each in ``combinations`` order."""
    return [Q for size in range(1, n + 1) for Q in combinations(range(n), size)]


def _commodity_subsets(rel, scaled: ScaledPoint):
    """Every nonempty commodity subset up to ``Q_SUBSET_LIMIT``
    commodities; above it the full set, the positive-demand set, the
    singletons and one alternation: the best subset for the full set's
    greedy arc sets.  The exact subset search keeps up to 2^n - 1 keys, so
    it is capped at ``cutset_cuts.SUBSET_ENUMERATION_CAP`` commodities and
    the alternation stops there."""
    n = len(rel.b_num)
    if n <= Q_SUBSET_LIMIT:
        yield from _all_subsets(n)
        return
    yielded = set()
    for Q in [tuple(range(n)), rel.positive_commodities()] + [(k,) for k in range(n)]:
        if Q and Q not in yielded:
            yielded.add(Q)
            yield Q
    if n > cutset_cuts.SUBSET_ENUMERATION_CAP:
        return
    # alternate: best arc subsets for the full set, then re-chosen commodities
    best = cutset_cuts.separate_flow_cutset(rel, tuple(range(n)), scaled)
    if best is not None:
        Q = cutset_cuts.separate_commodity_subset(rel, best.params["S+"], best.params["S-"], scaled)
        if Q and Q not in yielded:
            yield Q


# -- oracles ---------------------------------------------------------------------


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
        size *= y_bounds[key] + 1
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
    if unsplittable and mode != "disaggregated":
        raise ValueError(f"unsplittable routing requires mode 'disaggregated', got {mode!r}")
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
