"""Node shrinking, metric-inequality separation, and partition-based cuts.

Shrinking a node partition sums, per ordered pair of blocks, the crossing
arcs, their existing capacity and the demand between the blocks.  Those
sums are all the cut builders read: two-block sums yield integer knapsack
cover sets (iterated MIR turns them into partition inequalities; the loop
reads a two-partition's sums off its cut-set relaxation, which is that
shrink summed over commodities), and three-block sums the total-capacity
family, either by summing the six directed cut-set inequalities or by
pairing rounded metric inequalities, both right-hand sides computed by
one function.  The sums are ints over one ``NodePairTable`` of the
instance, and a ``Fraction`` is made only for a cut that is built.  The
shrunk network as an ``Instance`` is built only on request
(``ShrunkInstance.instance``); its valid capacity inequalities lift back by
copying coefficients onto crossing arcs (``lift_cut``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .core import ZERO, Arc, DemandMatrix, Facility, Instance, LinearCut
from .lp import RoutingCertificate, check_feasible_routing

THREE_PARTITION_LIMIT = 6  # nodes of an exhaustive three-partition enumeration

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


class NodePairTable:
    """An instance's demands and existing capacities per ordered node pair,
    as ints, made once and read by every shrink of the instance.

    ``scale`` is the instance's scale (``Instance.scale``), at which its
    int table (``demand_num``, ``cbar_num``) holds every demand amount and
    existing capacity.  ``rows`` holds ``(i, j, demand, capacity, arc)``
    per ordered node pair with an arc or a demand: the pair's demand and
    existing capacity times ``scale`` and its arc index (parallel arcs are
    merged, so a pair has at most one arc), or None.  Rows with an arc
    come first, in arc index order, so a scan of the rows meets the
    crossing arcs of a partition in index order.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        amounts = dict(instance.demand_num)
        self.scale = instance.scale
        self.rows = [(arc.tail, arc.head, amounts.pop(arc.pair, 0), c, ai)
                     for ai, (arc, c) in enumerate(zip(instance.arcs, instance.cbar_num))]
        self.rows += [(i, j, t, 0, None) for (i, j), t in amounts.items()]

    def shrink(self, partition: NodePartition) -> "ShrunkInstance":
        """The block-pair sums of ``partition``, which is not validated."""
        block_of = {node: bi for bi, block in enumerate(partition.blocks) for node in block}
        demand: dict[tuple[int, int], int] = {}
        capacity: dict[tuple[int, int], int] = {}
        groups: dict[tuple[int, int], list[int]] = {}
        for i, j, t, cbar, ai in self.rows:
            pair = (block_of[i], block_of[j])
            if pair[0] == pair[1]:
                continue
            if t:
                demand[pair] = demand.get(pair, 0) + t
            if ai is not None:
                capacity[pair] = capacity.get(pair, 0) + cbar
                groups.setdefault(pair, []).append(ai)
        return ShrunkInstance(
            base=self.instance,
            partition=partition,
            block_of=block_of,
            groups={pair: tuple(idxs) for pair, idxs in groups.items()},
            scale=self.scale,
            capacity=capacity,
            demand=demand,
        )

    def crossing(self, partition: NodePartition) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
        """The arcs crossing between blocks of ``partition``, one list per
        block pair in ``shrink(partition).groups`` order, and per block
        pair its ``ShrunkInstance.net``, without a shrink."""
        block_of = {node: bi for bi, block in enumerate(partition.blocks) for node in block}
        net: dict[tuple[int, int], int] = {}
        groups: dict[tuple[int, int], list[int]] = {}
        for i, j, t, cbar, ai in self.rows:
            pair = (block_of[i], block_of[j])
            if pair[0] != pair[1]:
                net[pair] = net.get(pair, 0) + t - cbar
                if ai is not None:
                    groups.setdefault(pair, []).append(ai)
        return list(groups.values()), net


@dataclass
class ShrunkInstance:
    """A p-node image of an instance with the bookkeeping to lift cuts.

    ``groups``, ``capacity`` and ``demand`` are keyed by block pair
    ``(bi, bj)``: the original arcs crossing from block bi to block bj (in
    order of their first crossing arc), their summed existing capacity,
    and the summed demand between the two blocks, both sums as ints times
    ``scale`` (``NodePairTable.scale``).  The cut builders read these
    sums; ``instance``, the shrunk network as an ``Instance`` with one arc
    per crossing pair in sorted order, is built on first use.
    """

    base: Instance
    partition: NodePartition
    block_of: dict[int, int]
    groups: dict[tuple[int, int], tuple[int, ...]]
    scale: int
    capacity: dict[tuple[int, int], int]
    demand: dict[tuple[int, int], int]

    def net(self, pair: tuple[int, int]) -> int:
        """Demand minus existing capacity from block to block, times ``scale``."""
        return self.demand.get(pair, 0) - self.capacity.get(pair, 0)

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
            arcs=[Arc(i, j, Fraction(self.capacity[(i, j)], self.scale)) for i, j in pairs],
            facilities=facilities,
            demand=DemandMatrix({pair: Fraction(t, self.scale) for pair, t in self.demand.items()}),
            flow_costs=ZERO,
            mode="aggregated",
            name=f"{base.name}/shrunk{self.partition.p}",
        )


def shrink(instance: Instance, partition: NodePartition) -> ShrunkInstance:
    """Aggregate nodes blockwise: capacities and demands sum over crossings."""
    partition.validate(instance.nodes)
    return NodePairTable(instance).shrink(partition)


def lift_cut(cut: LinearCut, shrunk: ShrunkInstance) -> LinearCut:
    """Copy a shrunk-space capacity cut onto the original network: each
    capacity coefficient replicates over every original arc in its crossing
    group.  A cut with flow terms raises ``ValueError``: on a crossing group
    the summed original flows can exceed the shrunk commodity's supply,
    which a flow cut (``rc``) may rely on.  The attached report states the
    conditions under which facets survive the lift: positive rhs,
    connected blocks.
    """
    if cut.flow:
        raise ValueError("only a pure-capacity cut lifts: a shrunk flow cut may not hold on the original network")
    cap = {}
    for (s_arc, mi), coef in cut.cap.items():
        for ai in shrunk.arc_groups[s_arc]:
            cap[(ai, mi)] = cap.get((ai, mi), ZERO) + coef
    report = {
        "rhs_positive": cut.rhs > 0,
        "blocks_connected": all(
            _weakly_connected(shrunk.base, block) for block in shrunk.partition.blocks
        ),
    }
    params = dict(cut.params)
    params["lift_report"] = report
    params["blocks"] = shrunk.partition.blocks
    return LinearCut(flow={}, cap=cap, rhs=cut.rhs, family=cut.family, params=params)


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


def metric_cut_from_vector(vector: MetricVector, instance: Instance) -> LinearCut:
    """Capacity inequality generated by (v, u)."""
    rhs = vector.demand_side(instance) - sum(
        (instance.arcs[ai].existing_capacity * va for ai, va in vector.v.items()), ZERO
    )
    cap = {}
    for ai, va in vector.v.items():
        for mi, f in enumerate(instance.facilities):
            cap[(ai, mi)] = va * f.capacity
    return LinearCut(
        flow={},
        cap=cap,
        rhs=rhs,
        family="metric",
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
    # positive: the certificate's demand side exceeds 0, and its shortest-path potentials are 0 under v = 0
    total = sum(cert.v.values(), ZERO)
    vector = MetricVector(
        v={ai: va / total for ai, va in cert.v.items()},
        u={key: uv / total for key, uv in cert.u.items()},
    )
    return vector, metric_cut_from_vector(vector, instance)


# -- three-partition total-capacity cuts -----------------------------------------


_ORDERED_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _three_partition_sums(nets: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], tuple[int, ...], dict]:
    """Per block its outgoing (``s``) and incoming (``t``) traffic minus
    capacity, and the six directed metric right-hand sides ``d``, as ints
    at the scale of ``nets``, each block pair's demand minus existing
    capacity (a missing pair's is 0)."""
    n01, n02, n10, n12, n20, n21 = (nets.get(pair, 0) for pair in _ORDERED_PAIRS)
    s = (n01 + n02, n10 + n12, n20 + n21)  # s_i: the nets out of block i
    t = (n10 + n20, n01 + n21, n02 + n12)  # t_i: the nets into block i
    # d_ij = net(i, j) + net(i, h) + net(j, h), h the third block, keyed in _ORDERED_PAIRS order
    d = {(0, 1): n01 + n02 + n12, (0, 2): n02 + n01 + n21, (1, 0): n10 + n12 + n02,
         (1, 2): n12 + n10 + n20, (2, 0): n20 + n21 + n01, (2, 1): n21 + n20 + n10}
    return s, t, d


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _integral_shrink(instance: Instance, partition: NodePartition) -> ShrunkInstance:
    if not instance.integral_capacities():
        raise ValueError("total-capacity cuts need integer facility sizes")
    return shrink(instance, partition)


def three_partition_cut(instance: Instance, partition: NodePartition) -> LinearCut | None:
    """Half-sum of the six directed cut-set inequalities, rounded when odd.

    Every crossing capacity variable appears in exactly two of the six
    single-block cut-set inequalities, so their sum has left-hand side
    ``2 sum c_m y``; an odd right-hand side strengthens under division by
    two.  Emitted in the divided normal form either way.
    """
    return _total_capacity(_integral_shrink(instance, partition), metric=False)


def three_partition_metric_cut(instance: Instance, partition: NodePartition) -> LinearCut | None:
    """Total-capacity cut from paired rounded metric inequalities.

    The six 0/1 generator vectors pair into three complementary couples;
    adding the two couples with the largest rounded right-hand sides and
    halving gives a cut with the same left-hand side as the cut-set sum,
    possibly stronger, possibly weaker.
    """
    return _total_capacity(_integral_shrink(instance, partition), metric=True)


def total_capacity(nets: dict[tuple[int, int], int], scale: int, blocks: tuple,
                   metric: bool | None = None) -> tuple[int, str, Callable[[], dict]]:
    """``(rhs, family, params)`` of the cut-set-sum (``metric`` False) or
    metric (True) total-capacity cut of the three-partition ``blocks``
    whose block pairs have the nets ``nets`` (``NodePairTable.crossing``)
    at ``scale``, or with ``metric`` None of the stronger, the cut-set sum
    on a tie; both right-hand sides are computed on ints, and ``params()``
    makes the cut's params."""
    s, t, d = _three_partition_sums(nets)
    total = sum(_ceil_div(v, scale) for v in (*s, *t))
    up = {pair: _ceil_div(v, scale) for pair, v in d.items()}
    pair_sums = tuple(sorted((up[0, 1] + up[2, 1], up[1, 0] + up[2, 0], up[0, 2] + up[1, 2]), reverse=True))
    sum_rhs, metric_rhs = _ceil_div(total, 2), max(_ceil_div(pair_sums[0] + pair_sums[1], 2), 0)
    if metric or (metric is None and metric_rhs > sum_rhs):
        return metric_rhs, "threepartition-metric", lambda: {
            "blocks": blocks, "pair_sums": pair_sums, "d": {pair: Fraction(v, scale) for pair, v in d.items()}}
    return sum_rhs, "threepartition", lambda: {
        "blocks": blocks, "s": tuple(Fraction(v, scale) for v in s), "t": tuple(Fraction(v, scale) for v in t),
        "sum": total, "rounded": total % 2 == 1}


def _total_capacity(shrunk: ShrunkInstance, metric: bool | None) -> LinearCut | None:
    """The ``total_capacity`` cut of a shrunk three-partition: ``c_m`` on
    every crossing ``y`` (integer facility sizes); None without crossing
    arcs."""
    if shrunk.partition.p != 3:
        raise ValueError("expected a three-block partition")
    nets = {pair: shrunk.net(pair) for pair in _ORDERED_PAIRS}
    rhs, family, params = total_capacity(nets, shrunk.scale, shrunk.partition.blocks, metric)
    sizes = [int(f.capacity) for f in shrunk.base.facilities]
    cap = {(ai, mi): c for group in shrunk.groups.values() for mi, c in enumerate(sizes) for ai in group}
    return LinearCut({}, cap, rhs, family, params(), den=1) if cap else None


# -- partition generators ---------------------------------------------------------


def all_three_partitions(nodes: Sequence[int]):
    """Every unordered partition into three nonempty blocks of at most
    ``THREE_PARTITION_LIMIT`` nodes.

    A partition is labeled as the least base-3 number, node i's block
    label as digit i, that gives it: the last node has label 0, and labels
    read from the last node backwards first appear in the order 0, 1, 2.
    Those labelings come in increasing order, and each block keeps the
    node order.
    """
    nodes = list(nodes)
    n = len(nodes)
    if n > THREE_PARTITION_LIMIT:
        raise ValueError("exhaustive three-partition enumeration is capped")
    if n < 3:
        return

    def grow(labels, top):  # labels of the last len(labels) nodes, last node first
        if len(labels) == n:
            if top == 2:
                yield labels
            return
        for label in range(min(top + 1, 2) + 1):
            yield from grow(labels + (label,), max(top, label))

    for labels in grow((0,), 0):
        blocks = ([], [], [])
        for node, label in zip(nodes, reversed(labels)):
            blocks[label].append(node)
        yield NodePartition.of(*blocks)
