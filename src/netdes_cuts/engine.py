"""Cutting-plane loop: the separator table, the cut pool and the rounds.

The loop alternates float LP solves with exact separation: the LP point is
rationalized (continued fractions) and every candidate cut is built from
exact instance data, so a cut enters the pool only when its violation is
positive in exact arithmetic.  ``LoopResult.exact_bound`` is certified
from float solves by ``lp.solve_certified``.  The brute-force oracles that
check the cuts live in ``oracle``, apart from this code.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Sequence

from . import arc_cuts, cutset_cuts, partition_cuts
from .core import MAX_DENOMINATOR, ZERO, FractionalPoint, Instance, LinearCut, frac
from .cutset_cuts import ScaledPoint
from .lp import LPModel, LPSolution, build_relaxation, exact_objective, solve
from .mir import KnapsackCoverSet, hull_inequalities

# Read by the benchmark under these names and not used here: perfbench/bench.py calls
# engine.validate_cuts and engine.generate_instance, and perfbench/spans.py wraps
# engine.validate_cuts, engine.solve_lp and engine.check_feasible_routing.  ROADMAP
# step 16b, which has the benchmark read the run's own reports, removes them
from .core import generate_instance  # noqa: F401
from .lp import check_feasible_routing  # noqa: F401
from .oracle import validate_cuts  # noqa: F401
from .simplex import solve_lp  # noqa: F401

K_SPLIT = (2, 3)             # k of the k-split c-strong cuts
N_RANDOM_PARTITIONS = 20     # sampled partitions above the exhaustive enumerations' node limits
Q_SUBSET_LIMIT = 6           # exhaustive commodity subsets up to this size


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
