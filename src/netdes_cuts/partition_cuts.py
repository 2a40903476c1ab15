"""Node shrinking, metric-inequality separation, and partition-based cuts.

Shrinking a node partition sums, per ordered pair of blocks, the crossing
arcs, their existing capacity and the demand between the blocks.  Those
sums are all the cut builders read: two-block sums yield integer knapsack
cover sets (iterated MIR turns them into partition inequalities), and
three-block sums the total-capacity family, either by summing the six
directed cut-set inequalities or by pairing rounded metric inequalities.
The shrunk network as an ``Instance`` is built only on request
(``ShrunkInstance.instance``); its valid inequalities lift back by copying
coefficients onto crossing arcs (``lift_cut``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .core import (
    ZERO,
    Arc,
    DemandMatrix,
    Facility,
    Instance,
    LinearCut,
)
from .lp import RoutingCertificate, check_feasible_routing
from .mir import KnapsackCoverSet, ceil_frac

# arc weights + node potentials certifying routing infeasibility; also the
# generator data of a metric inequality
MetricVector = RoutingCertificate


@dataclass(frozen=True)
class NodePartition:
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, *blocks: Iterable[int]) -> "NodePartition":
        return cls(tuple(tuple(b) for b in blocks))

    def validate(self, nodes: Sequence[int]) -> None:
        seen = set()
        if len(self.blocks) < 2:
            raise ValueError("a partition needs at least two blocks")
        for b in self.blocks:
            if not b:
                raise ValueError("empty partition block")
            if seen & set(b):
                raise ValueError("partition blocks overlap")
            seen |= set(b)
        if seen != set(nodes):
            raise ValueError("partition does not cover the node set")

    @property
    def p(self) -> int:
        return len(self.blocks)


@dataclass
class ShrunkInstance:
    """A p-node image of an instance with the bookkeeping to lift cuts.

    ``groups``, ``capacity`` and ``demand`` are keyed by block pair
    ``(bi, bj)``: the original arcs crossing from block bi to block bj (in
    order of their first crossing arc), their summed existing capacity,
    and the summed demand between the two blocks.  The cut builders read
    these sums; ``instance``, the shrunk network as an ``Instance`` with
    one arc per crossing pair in sorted order, is built on first use.
    """

    base: Instance
    partition: NodePartition
    block_of: dict[int, int]
    groups: dict[tuple[int, int], tuple[int, ...]]
    capacity: dict[tuple[int, int], Fraction]
    demand: dict[tuple[int, int], Fraction]

    @cached_property
    def arc_groups(self) -> dict[int, tuple[int, ...]]:
        """Crossing groups keyed by the arc index of ``instance``."""
        index = {pair: i for i, pair in enumerate(sorted(self.groups))}
        return {index[pair]: group for pair, group in self.groups.items()}

    @cached_property
    def instance(self) -> Instance:
        base = self.base
        pairs = sorted(self.groups)
        facilities = [
            Facility(f.capacity, tuple(sum((f.costs[ai] for ai in self.groups[pair]), ZERO) for pair in pairs))
            for f in base.facilities
        ]
        return Instance(
            nodes=list(range(self.partition.p)),
            arcs=[Arc(i, j, self.capacity[(i, j)]) for i, j in pairs],
            facilities=facilities,
            demand=DemandMatrix(self.demand),
            flow_costs=ZERO,
            mode="aggregated",
            name=f"{base.name}/shrunk{self.partition.p}",
        )


def shrink(instance: Instance, partition: NodePartition) -> ShrunkInstance:
    """Aggregate nodes blockwise: capacities and demands sum over crossings."""
    partition.validate(instance.nodes)
    block_of = {}
    for bi, block in enumerate(partition.blocks):
        for node in block:
            block_of[node] = bi

    capacity: dict[tuple[int, int], Fraction] = {}
    groups: dict[tuple[int, int], list[int]] = {}
    for ai, arc in enumerate(instance.arcs):
        pair = (block_of[arc.tail], block_of[arc.head])
        if pair[0] == pair[1]:
            continue
        capacity[pair] = capacity.get(pair, ZERO) + arc.existing_capacity
        groups.setdefault(pair, []).append(ai)

    demand: dict[tuple[int, int], Fraction] = {}
    for i, j, amount in instance.demand.pairs():
        pair = (block_of[i], block_of[j])
        if pair[0] != pair[1]:
            demand[pair] = demand.get(pair, ZERO) + amount
    return ShrunkInstance(
        base=instance,
        partition=partition,
        block_of=block_of,
        groups={pair: tuple(idxs) for pair, idxs in groups.items()},
        capacity=capacity,
        demand=demand,
    )


def lift_cut(cut: LinearCut, shrunk: ShrunkInstance) -> LinearCut:
    """Copy a shrunk-space cut onto the original network.

    Capacity coefficients replicate over every original arc in the
    crossing group; flow coefficients replicate additionally over every
    original commodity whose source lies in the shrunk commodity's block.
    The attached report states the conditions under which facets survive
    the lift: pure capacity form, positive rhs, connected blocks.
    """
    arc_groups = shrunk.arc_groups
    flow = {}
    for (s_arc, s_k), coef in cut.flow.items():
        src_block = shrunk.instance.commodities[s_k].source
        originals = [
            ki
            for ki, com in enumerate(shrunk.base.commodities)
            if shrunk.block_of[com.source] == src_block
        ]
        for ai in arc_groups[s_arc]:
            for ki in originals:
                flow[(ai, ki)] = flow.get((ai, ki), ZERO) + coef
    cap = {}
    for (s_arc, mi), coef in cut.cap.items():
        for ai in arc_groups[s_arc]:
            cap[(ai, mi)] = cap.get((ai, mi), ZERO) + coef
    report = {
        "alpha_zero": not cut.flow,
        "rhs_positive": cut.rhs > 0,
        "blocks_connected": all(
            _weakly_connected(shrunk.base, block) for block in shrunk.partition.blocks
        ),
    }
    params = dict(cut.params)
    params["lift_report"] = report
    params["blocks"] = shrunk.partition.blocks
    return LinearCut(flow=flow, cap=cap, rhs=cut.rhs, family=cut.family, params=params)


def _weakly_connected(instance: Instance, nodes: Sequence[int]) -> bool:
    nodes = set(nodes)
    if len(nodes) <= 1:
        return True
    adj = {n: set() for n in nodes}
    for arc in instance.arcs:
        if arc.tail in nodes and arc.head in nodes:
            adj[arc.tail].add(arc.head)
            adj[arc.head].add(arc.tail)
    stack = [next(iter(nodes))]
    seen = set(stack)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == nodes


# -- metric inequalities --------------------------------------------------------


def metric_cut_from_vector(vector: MetricVector, instance: Instance, integral: bool = False) -> LinearCut:
    """Capacity inequality generated by (v, u); optionally integer-rounded."""
    rhs = vector.demand_side(instance) - sum(
        (instance.arcs[ai].existing_capacity * va for ai, va in vector.v.items()), ZERO
    )
    cap = {}
    for ai, va in vector.v.items():
        for mi, f in enumerate(instance.facilities):
            cap[(ai, mi)] = va * f.capacity
    if integral:
        rhs = Fraction(ceil_frac(rhs))
    return LinearCut(
        flow={},
        cap=cap,
        rhs=rhs,
        family="metric-integral" if integral else "metric",
        params={"v": dict(vector.v), "u": dict(vector.u)},
    )


def separate_metric(instance: Instance, capacities: Sequence):
    """Violated metric inequality for a capacity vector from outside the
    loop (the loop's LP points carry their own routable flows), or ``None``.

    ``check_feasible_routing`` decides existence, and its refusal
    certificate (arc weights with shortest-path potentials, exactly in the
    cone and exactly violated) is the inequality; it is only scaled to unit
    total arc weight.
    """
    feasible, cert = check_feasible_routing(instance, capacities)
    if feasible:
        return None
    total = sum(cert.v.values(), ZERO)
    if total <= 0:
        raise ValueError("instance cannot route its demands under any capacity")
    vector = MetricVector(
        v={ai: va / total for ai, va in cert.v.items()},
        u={key: uv / total for key, uv in cert.u.items()},
    )
    return vector, metric_cut_from_vector(vector, instance)


def integral_metric_cut(vector: MetricVector, instance: Instance) -> LinearCut:
    """Rounded metric inequality; requires integral generator data."""
    if any(va.denominator != 1 for va in vector.v.values()) or any(
        uv.denominator != 1 for uv in vector.u.values()
    ):
        raise ValueError("integral rounding needs integral (v, u)")
    if not instance.integral_capacities():
        raise ValueError("integral rounding needs integer facility sizes")
    return metric_cut_from_vector(vector, instance, integral=True)


# -- knapsack covers and partition inequalities ----------------------------------


def knapsack_cover_from_two_partition(shrunk: ShrunkInstance) -> KnapsackCoverSet | None:
    """Crossing-capacity requirement of a 2-block shrunk instance.

    The demand from block 0 into block 1 minus existing crossing capacity
    must be covered by installed units: ``sum c_m z_m >= b`` with ``z_m``
    standing for the total count of facility m on crossing arcs.
    """
    if shrunk.partition.p != 2:
        raise ValueError("expected a two-block partition")
    if not shrunk.base.integral_capacities():
        raise ValueError("knapsack covers need integer facility sizes")
    b = shrunk.demand.get((0, 1), ZERO) - shrunk.capacity.get((0, 1), ZERO)
    if b <= 0:
        return None
    return KnapsackCoverSet(
        capacities=tuple(int(f.capacity) for f in shrunk.base.facilities),
        rhs=b,
    )


def expand_knapsack_cut(ineq, shrunk: ShrunkInstance) -> LinearCut | None:
    """Map a cover-set inequality ``sum alpha_m z_m >= beta`` onto arcs."""
    group = shrunk.groups.get((0, 1))
    if group is None:
        return None
    cap = {}
    for mi, coef in ineq.integ.items():
        if coef == 0:
            continue
        for ai in group:
            cap[(ai, mi)] = coef
    if not cap:
        return None
    return LinearCut(
        flow={},
        cap=cap,
        rhs=ineq.rhs,
        family="partition",
        params={"blocks": shrunk.partition.blocks},
    )


# -- three-partition total-capacity cuts -----------------------------------------


@dataclass
class ThreePartitionData:
    """Per-block surpluses and the six directed metric right-hand sides."""

    s: tuple[Fraction, Fraction, Fraction]  # outgoing traffic minus capacity
    t: tuple[Fraction, Fraction, Fraction]  # incoming traffic minus capacity
    d: dict[tuple[int, int], Fraction]


def three_partition_data(shrunk: ShrunkInstance) -> ThreePartitionData:
    if shrunk.partition.p != 3:
        raise ValueError("expected a three-block partition")

    # traffic minus capacity of each block pair, computed once
    pairs = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    net = {pair: shrunk.demand.get(pair, ZERO) - shrunk.capacity.get(pair, ZERO) for pair in pairs}
    s = tuple(sum((net[(i, j)] for j in range(3) if j != i), ZERO) for i in range(3))
    t = tuple(sum((net[(j, i)] for j in range(3) if j != i), ZERO) for i in range(3))
    d = {(i, j): net[(i, j)] + net[(i, 3 - i - j)] + net[(j, 3 - i - j)] for i, j in pairs}
    return ThreePartitionData(s=s, t=t, d=d)


def _total_capacity_lhs(shrunk: ShrunkInstance) -> dict:
    cap = {}
    for group in shrunk.groups.values():
        for mi, f in enumerate(shrunk.base.facilities):
            for ai in group:
                cap[(ai, mi)] = f.capacity
    return cap


def three_partition_cut(instance: Instance, partition: NodePartition) -> LinearCut | None:
    """Half-sum of the six directed cut-set inequalities, rounded when odd.

    Every crossing capacity variable appears in exactly two of the six
    single-block cut-set inequalities, so their sum has left-hand side
    ``2 sum c_m y``; an odd right-hand side strengthens under division by
    two.  Emitted in the divided normal form either way.
    """
    shrunk, data = _shrunk_three_partition(instance, partition)
    return _three_partition_cut(partition, shrunk, data)


def three_partition_metric_cut(instance: Instance, partition: NodePartition) -> LinearCut | None:
    """Total-capacity cut from paired rounded metric inequalities.

    The six 0/1 generator vectors pair into three complementary couples;
    adding the two couples with the largest rounded right-hand sides and
    halving gives a cut with the same left-hand side as the cut-set sum,
    possibly stronger, possibly weaker.
    """
    shrunk, data = _shrunk_three_partition(instance, partition)
    return _three_partition_metric_cut(partition, shrunk, data)


def total_capacity_cuts(instance: Instance, partition: NodePartition) -> tuple[LinearCut | None, LinearCut | None]:
    """``three_partition_cut`` and ``three_partition_metric_cut`` of one
    three-partition, from one shrink and one ``three_partition_data``."""
    shrunk, data = _shrunk_three_partition(instance, partition)
    return _three_partition_cut(partition, shrunk, data), _three_partition_metric_cut(partition, shrunk, data)


def _shrunk_three_partition(instance: Instance, partition: NodePartition) -> tuple[ShrunkInstance, ThreePartitionData]:
    if not instance.integral_capacities():
        raise ValueError("total-capacity cuts need integer facility sizes")
    shrunk = shrink(instance, partition)
    return shrunk, three_partition_data(shrunk)


def _three_partition_cut(partition, shrunk, data) -> LinearCut | None:
    total = sum(ceil_frac(v) for v in data.s) + sum(ceil_frac(v) for v in data.t)
    cap = _total_capacity_lhs(shrunk)
    if not cap:
        return None
    rounded = total % 2 == 1
    rhs = Fraction(math.ceil(Fraction(total, 2)))
    return LinearCut(
        flow={},
        cap=cap,
        rhs=rhs,
        family="threepartition",
        params={
            "blocks": partition.blocks,
            "s": data.s,
            "t": data.t,
            "sum": total,
            "rounded": rounded,
        },
    )


def _three_partition_metric_cut(partition, shrunk, data) -> LinearCut | None:
    pair_sums = []
    for (i, j), (k, l) in (((0, 1), (2, 1)), ((1, 0), (2, 0)), ((0, 2), (1, 2))):
        pair_sums.append(ceil_frac(data.d[(i, j)]) + ceil_frac(data.d[(k, l)]))
    pair_sums.sort(reverse=True)
    rhs = Fraction(math.ceil(Fraction(pair_sums[0] + pair_sums[1], 2)))
    cap = _total_capacity_lhs(shrunk)
    if not cap:
        return None
    return LinearCut(
        flow={},
        cap=cap,
        rhs=max(rhs, ZERO),
        family="threepartition-metric",
        params={"blocks": partition.blocks, "pair_sums": tuple(pair_sums), "d": dict(data.d)},
    )


def select_total_capacity_cut(candidates: Sequence[LinearCut]) -> LinearCut:
    """Keep the strongest of same-left-hand-side total-capacity cuts."""
    if not candidates:
        raise ValueError("no candidates")
    first = candidates[0]
    for cut in candidates[1:]:
        if cut.cap != first.cap or cut.flow != first.flow:
            raise ValueError("total-capacity candidates must share their left-hand side")
    return max(candidates, key=lambda cut: cut.rhs)


def knapsack_from_total_capacity(cut: LinearCut, instance: Instance) -> tuple[KnapsackCoverSet, dict] | None:
    """Cover set over per-facility totals implied by a total-capacity cut.

    Feeds iterated MIR; returns the cover set plus the arc support of each
    facility variable so resulting inequalities can be expanded back.
    """
    support: dict[int, list[int]] = {}
    for (ai, mi), coef in cut.cap.items():
        if coef != instance.facilities[mi].capacity:
            return None
        support.setdefault(mi, []).append(ai)
    if len(support) != len(instance.facilities) or cut.rhs <= 0:
        return None
    return (
        KnapsackCoverSet(
            capacities=tuple(int(f.capacity) for f in instance.facilities),
            rhs=cut.rhs,
        ),
        {mi: tuple(ais) for mi, ais in support.items()},
    )


# -- partition generators ---------------------------------------------------------


def all_three_partitions(nodes: Sequence[int], cap: int = 7):
    """Every unordered partition into three nonempty blocks (small n only)."""
    nodes = list(nodes)
    n = len(nodes)
    if n > cap:
        raise ValueError("exhaustive three-partition enumeration is capped")
    seen = set()
    for assign in range(3**n):
        blocks = ([], [], [])
        a = assign
        for node in nodes:
            blocks[a % 3].append(node)
            a //= 3
        if any(not b for b in blocks):
            continue
        key = frozenset(frozenset(b) for b in blocks)
        if key in seen:
            continue
        seen.add(key)
        yield NodePartition.of(*blocks)
