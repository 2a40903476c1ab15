"""Instance model, commodity construction, the shared cut representation
and the seeded instance generator (``generate_instance``).

All instance data are exact rationals (``fractions.Fraction``), and each
instance also holds them as ints at one integer scale (``Instance.scale``),
made once.  A cut holds integer numerators over one positive denominator
(``LinearCut``).  LP solves elsewhere may run in floating point, but
anything that ends up in a cut is re-derived or re-checked exactly:
rounding steps (floors/ceilings of right-hand sides) are discontinuous,
so float-derived cuts can silently be invalid.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral, Real

# Exact scalar type used throughout the package.  Fraction already keeps
# itself reduced with a positive denominator, which is all we need.
Rational = Fraction

ZERO = Fraction(0)

MAX_DENOMINATOR = 10**6  # rationalization of a float, such as a float LP point

AGGREGATED = "aggregated"
DISAGGREGATED = "disaggregated"


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction; a
    float or a bool (``True`` is an int equal to 1) is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing to coerce {type(value).__name__} {value!r}; pass a string or Fraction")
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rationalize(x: float, max_denominator: int = MAX_DENOMINATOR) -> Fraction:
    """Nearest rational with bounded denominator: ``Fraction(x).limit_denominator(max_denominator)``,
    its continued-fraction steps run on the ints of ``x.as_integer_ratio()``."""
    if isinstance(x, Fraction):
        return x
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot rationalize {x}")
    n = int(x)
    if n == x:  # most duals and many LP values: its own nearest rational
        return Fraction(n)
    n, d = x.as_integer_ratio()
    if d <= max_denominator:
        return Fraction(n, d)
    p0, q0, p1, q1, num, den = 0, 1, 1, 0, n, d
    while q0 + (a := num // den) * q1 <= max_denominator:
        p0, q0, p1, q1, num, den = p1, q1, p0 + a * p1, q0 + a * q1, den, num - a * den
    k = (max_denominator - q0) // q1
    # p1/q1 lies den/(q1*d) from x and (p0+k*p1)/(q0+k*q1) lies 1/(q1*(q0+k*q1)) from p1/q1,
    # on the other side of x; a tie goes to p1/q1
    if 2 * den * (q0 + k * q1) <= d:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


class InstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    existing_capacity: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "existing_capacity", frac(self.existing_capacity))
        if self.tail == self.head:
            raise InstanceError(f"self-loop arc ({self.tail},{self.head})")
        if self.existing_capacity < 0:
            raise InstanceError(f"arc ({self.tail},{self.head}) has negative existing capacity {self.existing_capacity}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class Facility:
    """A capacity unit installable in integer multiples on each arc."""

    capacity: Fraction
    costs: tuple[Fraction, ...]  # one entry per arc, aligned with Instance.arcs

    def __post_init__(self):
        object.__setattr__(self, "capacity", frac(self.capacity))
        object.__setattr__(self, "costs", tuple(frac(c) for c in self.costs))
        if self.capacity <= 0:
            raise InstanceError(f"facility capacity {self.capacity} not positive")
        for ai, cost in enumerate(self.costs):
            if cost < 0:
                raise InstanceError(f"facility of capacity {self.capacity} has negative installation cost {cost} "
                                    f"on arc {ai}")


class DemandMatrix:
    """Ordered-pair traffic demands ``t[i, j] >= 0`` with ``t[i, i] = 0``."""

    def __init__(self, entries: Mapping[tuple[int, int], Fraction] | None = None):
        self._t: dict[tuple[int, int], Fraction] = {}
        for (i, j), amount in (entries or {}).items():
            self.set(i, j, amount)

    def set(self, i: int, j: int, amount) -> None:
        amount = frac(amount)
        if i == j:
            if amount != 0:
                raise InstanceError(f"diagonal demand t[{i},{i}] must be zero")
            return
        if amount < 0:
            raise InstanceError(f"negative demand t[{i},{j}] = {amount}")
        if amount == 0:
            self._t.pop((i, j), None)
        else:
            self._t[(i, j)] = amount

    def t(self, i: int, j: int) -> Fraction:
        return self._t.get((i, j), ZERO)

    def pairs(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, v) for (i, j), v in sorted(self._t.items())]

    def out_of(self, i: int) -> Fraction:
        return sum((v for (s, _), v in self._t.items() if s == i), ZERO)

    def __eq__(self, other):
        return isinstance(other, DemandMatrix) and self._t == other._t


@dataclass(frozen=True)
class Commodity:
    """One supply node plus the net demand it induces at every node.

    ``net_demand[i]`` is positive where the commodity must be delivered and
    equals minus the total shipped amount at the source, so the entries sum
    to zero.
    """

    source: int
    net_demand: Mapping[int, Fraction]
    sink: int | None = None  # set for pair (disaggregated) commodities

    @property
    def total_supply(self) -> Fraction:
        return -self.net_demand[self.source]

    def w(self, node: int) -> Fraction:
        return self.net_demand.get(node, ZERO)


def build_aggregated_commodities(demand: DemandMatrix, nodes: Sequence[int]) -> list[Commodity]:
    """One commodity per node with positive outgoing demand."""
    out = []
    for k in nodes:
        total = demand.out_of(k)
        if total == 0:
            continue
        w = {i: demand.t(k, i) for i in nodes if i != k and demand.t(k, i) != 0}
        w[k] = -total
        out.append(Commodity(source=k, net_demand=w))
    return out


def build_disaggregated_commodities(demand: DemandMatrix, nodes: Sequence[int]) -> list[Commodity]:
    """One commodity per ordered pair with positive demand."""
    out = []
    for i, j, amount in demand.pairs():
        out.append(Commodity(source=i, net_demand={i: -amount, j: amount}, sink=j))
    return out


class Instance:
    """A directed network design instance of the paper's model.

    Construction refuses data outside the model with an ``InstanceError``
    naming the first problem: facility sizes that do not strictly increase,
    a facility without one cost per arc (after parallel arcs are merged), a
    demand on an unlisted node or without a directed path, and unsplittable
    routing of aggregated commodities or at a negative flow cost.  ``Arc``,
    ``Facility`` and ``DemandMatrix`` refuse negative capacities, costs and
    demands.  So every instance reaching the loop or an oracle is valid.

    Flow variables are implicitly bounded above by their commodity's total
    supply; the oracles and the LP relaxation both enforce that, which is
    what makes single-arc relaxation cuts valid in the presence of cycles.

    ``scale`` is the instance's integer scale S: the lcm of the
    denominators of every facility size, existing capacity and demand
    amount.  At S every net demand, supply and sum of demands is an int
    too.  The int table holds that data times S, made once: ``sizes_num[m]``
    per facility, ``cbar_num[a]`` per arc (after parallel arcs are merged),
    ``demand_num[(i, j)]`` per ordered pair with a demand, in sorted order,
    ``net_num[k][node]`` per commodity, keyed as its ``net_demand``, and
    ``supply_num[k]``, its total supply.
    Every stage that works on ints (cut-set separation, the node-pair
    table, the oracle) reads that table.
    """

    def __init__(
        self,
        nodes: Sequence[int],
        arcs: Sequence[Arc],
        facilities: Sequence[Facility],
        demand: DemandMatrix,
        flow_costs=ZERO,
        mode: str = AGGREGATED,
        unsplittable: bool = False,
        name: str = "",
    ):
        self.nodes = tuple(nodes)
        self.arcs = tuple(self._merge_parallel(arcs))
        self.facilities = tuple(facilities)
        self.demand = demand
        self.mode = mode
        self.unsplittable = unsplittable
        self.name = name

        self.node_index = {}
        for i, v in enumerate(self.nodes):
            if self.node_index.setdefault(v, i) != i:
                raise InstanceError(f"node {v} is listed more than once")
        self.arc_index = {a.pair: i for i, a in enumerate(self.arcs)}
        self.out_arcs = {v: [] for v in self.nodes}
        self.in_arcs = {v: [] for v in self.nodes}
        for ai, a in enumerate(self.arcs):
            if a.tail not in self.node_index or a.head not in self.node_index:
                raise InstanceError(f"arc ({a.tail},{a.head}) references unknown node")
            self.out_arcs[a.tail].append(ai)
            self.in_arcs[a.head].append(ai)
        sizes = self.facility_capacities()
        for prev, size in zip(sizes, sizes[1:]):
            if prev >= size:
                raise InstanceError(f"facility capacities not strictly increasing: {prev} >= {size}")
        for mi, f in enumerate(self.facilities):
            if len(f.costs) != len(self.arcs):
                raise InstanceError(f"facility {mi} has {len(f.costs)} costs for {len(self.arcs)} arcs")
        pairs = demand.pairs()
        for i, j, _ in pairs:
            if i not in self.node_index or j not in self.node_index:
                raise InstanceError(f"demand ({i},{j}) references unknown node")

        if mode == AGGREGATED:
            self.commodities = tuple(build_aggregated_commodities(demand, self.nodes))
        elif mode == DISAGGREGATED:
            self.commodities = tuple(build_disaggregated_commodities(demand, self.nodes))
        else:
            raise InstanceError(f"unknown commodity mode {mode!r}")
        if unsplittable and mode != DISAGGREGATED:
            raise InstanceError("unsplittable routing requires disaggregated commodities")

        self.flow_costs = self._expand_flow_costs(flow_costs)
        if unsplittable and any(c < 0 for row in self.flow_costs for c in row):
            raise InstanceError("unsplittable routing requires nonnegative flow costs")
        self._check_paths(pairs)
        self.scale = S = math.lcm(
            *(c.denominator for c in sizes),
            *(a.existing_capacity.denominator for a in self.arcs),
            *(t.denominator for _, _, t in pairs),
        )
        self.sizes_num = tuple(scaled_ints(sizes, S))
        self.cbar_num = tuple(scaled_ints((a.existing_capacity for a in self.arcs), S))
        self.demand_num = dict(zip(((i, j) for i, j, _ in pairs), scaled_ints((t for _, _, t in pairs), S)))
        self.net_num = tuple(dict(zip(c.net_demand, scaled_ints(c.net_demand.values(), S))) for c in self.commodities)
        self.supply_num = tuple(-net[c.source] for net, c in zip(self.net_num, self.commodities))

    def _check_paths(self, pairs: Sequence[tuple[int, int, Fraction]]) -> None:
        """Raise naming the first demand, in sorted order, whose sink no
        directed path reaches from its source: one search per source."""
        reached: dict = {}
        for i, j, _ in pairs:
            if i not in reached:
                reached[i] = seen = {i}
                frontier = [i]
                while frontier:
                    for ai in self.out_arcs[frontier.pop()]:
                        head = self.arcs[ai].head
                        if head not in seen:
                            seen.add(head)
                            frontier.append(head)
            if j not in reached[i]:
                raise InstanceError(f"demand {i}->{j} has no directed path: unroutable")

    @staticmethod
    def _merge_parallel(arcs: Iterable[Arc]) -> list[Arc]:
        merged: dict[tuple[int, int], Arc] = {}
        for a in arcs:
            if a.pair in merged:
                prev = merged[a.pair]
                merged[a.pair] = Arc(a.tail, a.head, prev.existing_capacity + a.existing_capacity)
            else:
                merged[a.pair] = a
        return list(merged.values())

    def _expand_flow_costs(self, spec) -> tuple[tuple[Fraction, ...], ...]:
        """Expand a flow-cost spec to a full (arc, commodity) table.

        Accepts a scalar, a per-arc sequence of scalars, or a per-arc
        sequence of per-commodity sequences (commodity order is the
        instance's, which is determined by the demand matrix).  A mapping
        entry is refused, naming its arc.
        """
        n_arcs, n_comm = len(self.arcs), len(self.commodities)
        if isinstance(spec, (int, str, Fraction)):
            v = frac(spec)
            return tuple(tuple(v for _ in range(n_comm)) for _ in range(n_arcs))
        spec = list(spec)
        if len(spec) != n_arcs:
            raise InstanceError(f"flow cost list has {len(spec)} entries for {n_arcs} arcs")
        table = []
        for arc, entry in zip(self.arcs, spec):
            if isinstance(entry, Mapping):
                raise InstanceError(
                    f"flow cost of arc ({arc.tail},{arc.head}) is a mapping; give a scalar or a per-commodity list"
                )
            if isinstance(entry, (list, tuple)):
                if len(entry) != n_comm:
                    raise InstanceError(
                        f"per-commodity cost list has {len(entry)} entries for {n_comm} commodities"
                    )
                table.append(tuple(frac(v) for v in entry))
            else:
                v = frac(entry)
                table.append(tuple(v for _ in range(n_comm)))
        return tuple(table)

    # -- derived quantities ------------------------------------------------

    def facility_capacities(self) -> tuple[Fraction, ...]:
        return tuple(f.capacity for f in self.facilities)

    def integral_capacities(self) -> bool:
        return all(f.capacity.denominator == 1 for f in self.facilities)


@dataclass
class FractionalPoint:
    """Exact snapshot of an LP-relaxation solution ``(x, y)``.

    ``x`` is keyed by (arc index, commodity index) and ``y`` by (arc index,
    facility index); missing keys are zero.  ``rationalization_error`` is
    the largest ``|x_float - x_rational|`` over the float solution the point
    was rationalized from (0 for a point given exactly).
    """

    x: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    y: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    rationalization_error: float = field(default=0.0, compare=False)


def _nonzero(coefs: Mapping) -> dict:
    """``coefs`` coerced by ``frac``, without its zero entries."""
    return {k: v for k, v in zip(coefs, map(frac, coefs.values())) if v}


def scaled_ints(values: Iterable[Fraction], scale: int) -> list[int]:
    """``scale * v`` of each value, in ints; ``scale`` is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _over(nums: Mapping[tuple[int, int], int], den: int) -> dict[tuple[int, int], Fraction]:
    """``nums`` over ``den``, one ``Fraction`` per distinct numerator."""
    fractions = {n: Fraction(n, den) for n in set(nums.values())}
    return {k: fractions[n] for k, n in nums.items()}


def cut_key(flow_num: Mapping, cap_num: Mapping, rhs_num: int) -> tuple:
    """The pool key of the cut ``flow·x + cap·y >= rhs`` of these ints, no
    coefficient zero: the sorted items and the rhs over their gcd, shared
    exactly by positive multiples.  Every ``normalized_key()`` is one."""
    g = math.gcd(rhs_num, *flow_num.values(), *cap_num.values())
    flow, cap = flow_num.items(), cap_num.items()
    if g > 1:
        flow, cap, rhs_num = [(k, n // g) for k, n in flow], [(k, n // g) for k, n in cap], rhs_num // g
    return tuple(sorted(flow)), tuple(sorted(cap)), rhs_num


_CUT_FIELDS = ("flow_num", "cap_num", "rhs_num", "den", "family", "params")


class LinearCut:
    """A sparse valid inequality ``flow·x + cap·y >= rhs`` over raw variables.

    ``flow`` is keyed by (arc index, commodity index) and ``cap`` by
    (arc index, facility index); the sense is fixed to ``>=``.  The cut
    holds one form: integer numerators ``flow_num``, ``cap_num`` and
    ``rhs_num`` over one denominator ``den``, the least positive one that
    clears every coefficient, without zero coefficients.  So cuts with
    equal rational values hold equal ints, and ``==`` compares those, the
    ``family`` and the ``params``.

    ``LinearCut(flow, cap, rhs, family, params)`` takes rationals (ints,
    strings like ``"3/4"`` and Fractions; a float is refused) and clears
    them once.  A builder that holds the cut's ints over a common positive
    denominator passes them with ``den=``, and they are reduced; one that
    holds them reduced already calls ``LinearCut.reduced``.  ``flow``,
    ``cap`` and ``rhs`` are read-only ``Fraction`` views, made on first
    read; the ints are not changed after construction.  A cut holds no
    state of the point it was separated at: ``violation`` evaluates it.
    """

    def __init__(self, flow: Mapping, cap: Mapping, rhs, family: str, params: dict | None = None,
                 *, den: int | None = None):
        if den is None:
            flow, cap, rhs = _nonzero(flow), _nonzero(cap), frac(rhs)
            den = math.lcm(rhs.denominator, *(v.denominator for v in (*flow.values(), *cap.values())))
            rhs, *nums = scaled_ints([rhs, *flow.values(), *cap.values()], den)
            flow, cap = dict(zip(flow, nums)), dict(zip(cap, nums[len(flow):]))
        elif den <= 0:
            raise ValueError(f"cut denominator {den} not positive")
        g = math.gcd(den, rhs, *flow.values(), *cap.values())  # a float raises TypeError here
        self._set(
            {k: n // g for k, n in flow.items() if n}, {k: n // g for k, n in cap.items() if n}, rhs // g, den // g,
            family, {} if params is None else params, None, None,
        )

    @classmethod
    def reduced(cls, flow_num: dict, cap_num: dict, rhs_num: int, den: int, family: str,
                make_params: Callable[[], dict], key) -> LinearCut:
        """The cut of ints that are already its form: no zero coefficient,
        and ``den`` and every value without a common factor.  ``key`` is
        its ``normalized_key()``, and ``make_params()`` makes its
        ``params`` on first read.  A cut without a nonzero coefficient or
        with ``den <= 0`` is refused as ``LinearCut(...)`` refuses it."""
        if den <= 0:
            raise ValueError(f"cut denominator {den} not positive")
        cut = cls.__new__(cls)
        cut._set(flow_num, cap_num, rhs_num, den, family, None, make_params, key)
        return cut

    def _set(self, flow_num, cap_num, rhs_num, den, family, params, make_params, key) -> None:
        if not flow_num and not cap_num:
            raise ValueError("cut must have at least one nonzero coefficient")
        self.flow_num, self.cap_num, self.rhs_num, self.den = flow_num, cap_num, rhs_num, den
        self.family = family
        self._params, self._make_params, self._key = params, make_params, key
        self._flow = self._cap = self._rhs = None

    @property
    def params(self) -> dict:
        if self._params is None:
            self._params, self._make_params = self._make_params(), None
        return self._params

    def _fields(self) -> tuple:
        return self.flow_num, self.cap_num, self.rhs_num, self.den, self.family, self.params

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(_CUT_FIELDS, self._fields()))})"

    @property
    def flow(self) -> dict[tuple[int, int], Fraction]:
        if self._flow is None:
            self._flow = _over(self.flow_num, self.den)
        return self._flow

    @property
    def cap(self) -> dict[tuple[int, int], Fraction]:
        if self._cap is None:
            self._cap = _over(self.cap_num, self.den)
        return self._cap

    @property
    def rhs(self) -> Fraction:
        if self._rhs is None:
            self._rhs = Fraction(self.rhs_num, self.den)
        return self._rhs

    def violation(self, point, eps: Fraction | None = None) -> Fraction | None:
        """Positive iff the point violates the cut, exactly, or None when
        ``eps`` is given and the violation is at most eps.  ``point`` is a
        ``FractionalPoint`` or a ``cutset_cuts.ScaledPoint`` of one, whose
        ``x[a][k]`` and ``y[a][m]`` are its coordinates times its D (the
        loop passes the one scaling its separators share): there the
        violation is ``rhs * D - lhs`` over ``den * D``, summed and compared
        with eps on ints, and a ``Fraction`` is made only for a result."""
        X, Y = point.x, point.y
        if isinstance(point, FractionalPoint):
            lhs = sum(n * X.get(key, ZERO) for key, n in self.flow_num.items())
            violation = (self.rhs_num - lhs - sum(n * Y.get(key, ZERO) for key, n in self.cap_num.items())) / self.den
            return violation if eps is None or violation > eps else None
        lhs = sum(n * X[a][k] for (a, k), n in self.flow_num.items())
        slack = self.rhs_num * point.D - lhs - sum(n * Y[a][m] for (a, m), n in self.cap_num.items())
        den = self.den * point.D
        if eps is not None and slack * eps.denominator <= eps.numerator * den:
            return None
        return Fraction(slack, den)

    def normalized_key(self):
        """``cut_key`` of the stored ints, made once."""
        if self._key is None:
            self._key = cut_key(self.flow_num, self.cap_num, self.rhs_num)
        return self._key

    def check_keys(self, instance: Instance) -> None:
        """Each key of the cut, its flow keys of ``x`` and then its capacity
        keys of ``y``, is a pair of ints in range; ``check_key`` raises on
        the first that is not."""
        arcs = len(instance.arcs)
        for kind, nums, count in (("x", self.flow_num, len(instance.commodities)),
                                  ("y", self.cap_num, len(instance.facilities))):
            for key in nums:
                if not (type(key) is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is int
                        and 0 <= key[0] < arcs and 0 <= key[1] < count):
                    check_key(instance, key, kind)

    def __str__(self):
        terms = [f"{format_rational(c)}*x[{a},{k}]" for (a, k), c in sorted(self.flow.items())]
        terms += [f"{format_rational(c)}*y[{a},{m}]" for (a, m), c in sorted(self.cap.items())]
        return " + ".join(terms) + f" >= {format_rational(self.rhs)}"


_KEY_ONLY = object()  # check_key's bound when only the key is checked


def check_key(instance: Instance, key, kind: str, bound=_KEY_ONLY) -> None:
    """Raise ``ValueError`` naming ``key`` unless it names a variable of
    ``instance``: a pair of ints (a bool is refused), an (arc, facility)
    pair of ``y`` (``kind`` ``"y"``) or an (arc, commodity) pair of ``x``
    (``"x"``), and ``bound``, an oracle grid's bound on the key when given,
    is an integer >= 0 (a bool or None is refused, a numpy integer passes)."""
    name, count = ("facility", len(instance.facilities)) if kind == "y" else ("commodity", len(instance.commodities))
    if not (isinstance(key, tuple) and len(key) == 2 and all(type(v) is int for v in key)):
        raise ValueError(f"{kind} key {key!r}: want a pair of ints, an (arc, {name}) pair")
    bounded = bound is not _KEY_ONLY
    if bounded and (isinstance(bound, bool) or not isinstance(bound, Integral)):
        raise ValueError(f"{kind} bound {bound!r} of {key}: want an integer bound")
    ai, other = key
    if not (0 <= ai < len(instance.arcs) and 0 <= other < count) or (bounded and bound < 0):
        what = f"{kind} bound {bound} of {key}: want a bound >= 0" if bounded else f"{kind} key {key}: want a key"
        raise ValueError(f"{what} on an (arc, {name}) pair")


# -- instance file format ----------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    arcs = [
        {"tail": a.tail, "head": a.head, "existing_capacity": format_rational(a.existing_capacity)}
        for a in instance.arcs
    ]
    facilities = [
        {"capacity": format_rational(f.capacity), "cost": [format_rational(c) for c in f.costs]}
        for f in instance.facilities
    ]
    demands = [
        {"from": i, "to": j, "amount": format_rational(v)} for i, j, v in instance.demand.pairs()
    ]
    flow_costs = [
        [format_rational(instance.flow_costs[ai][ki]) for ki in range(len(instance.commodities))]
        for ai in range(len(instance.arcs))
    ]
    return {
        "name": instance.name,
        "commodity_mode": instance.mode,
        "unsplittable": instance.unsplittable,
        "nodes": list(instance.nodes),
        "arcs": arcs,
        "facilities": facilities,
        "demands": demands,
        "flow_costs": flow_costs,
    }


def instance_from_dict(data: Mapping) -> Instance:
    """The instance a JSON document describes; malformed data raises ``InstanceError``."""
    if not isinstance(data, Mapping):
        raise InstanceError(f"an instance document is a JSON object, not a {type(data).__name__}")
    unsplittable = data.get("unsplittable", False)
    if not isinstance(unsplittable, bool):
        raise InstanceError(f"field 'unsplittable' must be true or false, not {unsplittable!r}")
    flow_costs = data.get("flow_costs", ZERO)
    if isinstance(flow_costs, Mapping):  # a JSON object would be read by its keys
        raise InstanceError(f"field 'flow_costs' must be a scalar or a list, not {flow_costs!r}")
    # a document repeats few distinct rationals: each string is parsed once
    rationals = {}

    def num(value) -> Fraction:
        if not isinstance(value, str):
            return frac(value)
        q = rationals.get(value)
        if q is None:
            q = rationals[value] = Fraction(value)
        return q

    def parsed(value):
        """A string that parses, as its Fraction; any other value as it is,
        so that ``Instance`` reads or refuses it in its own order."""
        if isinstance(value, str):
            try:
                return num(value)
            except (ValueError, ZeroDivisionError):
                pass
        return value

    if isinstance(flow_costs, list):
        flow_costs = [list(map(parsed, e)) if isinstance(e, list) else parsed(e) for e in flow_costs]
    else:
        flow_costs = parsed(flow_costs)
    try:
        arcs = [
            Arc(a["tail"], a["head"], num(a.get("existing_capacity", 0))) for a in data["arcs"]
        ]
        facilities = []
        for f in data["facilities"]:
            if not isinstance(f["cost"], list):  # a string or an object would be read by its characters or keys
                raise InstanceError(f"field 'cost' must be a list, not {f['cost']!r}")
            facilities.append(Facility(num(f["capacity"]), tuple(map(num, f["cost"]))))
        demand, listed = DemandMatrix(), set()
        for d in data.get("demands", []):
            pair = (d["from"], d["to"])
            if pair in listed:
                raise InstanceError(f"demand ({pair[0]},{pair[1]}) is listed more than once")
            listed.add(pair)
            demand.set(*pair, num(d["amount"]))
        return Instance(
            nodes=data["nodes"],
            arcs=arcs,
            facilities=facilities,
            demand=demand,
            flow_costs=flow_costs,
            mode=data.get("commodity_mode", AGGREGATED),
            unsplittable=unsplittable,
            name=data.get("name", ""),
        )
    except KeyError as exc:
        raise InstanceError(f"missing field {exc}") from None
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InstanceError(f"malformed field: {exc}") from None


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


# -- instance generation ----------------------------------------------------------


def generate_instance(
    seed: int,
    nodes: int,
    density: float = 0.5,
    facilities: Sequence[int | Fraction] = (1, 3),
    demand_scale: int = 1,
    mode: str = "aggregated",
    unsplittable: bool = False,
    existing_capacity_prob: float = 0.3,
    flow_cost_prob: float = 0.5,
) -> Instance:
    """Deterministic random instance: strongly connected, small rationals.
    A bad argument raises ``ValueError`` naming it, and sizes or a mode
    outside the model the ``InstanceError`` of ``Instance``."""
    for name, value in (("nodes", nodes), ("demand_scale", demand_scale)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    probabilities = (("existing_capacity_prob", existing_capacity_prob), ("flow_cost_prob", flow_cost_prob))
    for name, value in (("density", density), *probabilities):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    for name, value in probabilities:
        if not 0 <= value <= 1:
            raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    if nodes < 2 or not 0 < density < float("inf") or demand_scale < 1:
        raise ValueError("need nodes >= 2, a finite density > 0 and demand_scale >= 1")
    if any(isinstance(c, bool) or not isinstance(c, (Integral, Fraction)) for c in facilities):
        # a float size would be read as its binary value, a bool as 0 or 1
        raise ValueError(f"facilities must be ints or Fractions, got {tuple(facilities)!r}")
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
