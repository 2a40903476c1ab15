import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance, LinearCut, generate_instance
from netdes_cuts.cutset_cuts import build_cutset, cutset_cut
from netdes_cuts.engine import Config, cutting_plane_loop
from netdes_cuts.lp import check_feasible_routing
from netdes_cuts.mir import KnapsackCoverSet, hull_inequalities
from netdes_cuts.oracle import validate_cut, validate_cuts
from netdes_cuts.partition_cuts import (
    MetricVector,
    NodePartition,
    THREE_PARTITION_LIMIT,
    _three_partition_sums,
    all_three_partitions,
    expand_knapsack_cut,
    lift_cut,
    metric_cut_from_vector,
    separate_metric,
    shrink,
    three_partition_cut,
    three_partition_metric_cut,
)

from conftest import make_triangle
from helpers import (
    cone_violations,
    distinct_cuts,
    integral_metric_cut,
    knapsack_from_total_capacity,
    reference_knapsack_cover_from_two_partition,
    reference_partition_candidates,
    reference_shrink,
    reference_three_partition_data,
    routable,
    select_total_capacity_cut,
)


# -- shrinking -----------------------------------------------------------------------


def test_shrink_singletons_isomorphic():
    inst = generate_instance(seed=2, nodes=4, density=0.6)
    part = NodePartition.of(*[[n] for n in inst.nodes])
    sh = shrink(inst, part)
    assert len(sh.instance.nodes) == 4
    assert len(sh.instance.arcs) == len(inst.arcs)
    assert sh.instance.demand.total() == inst.demand.total()
    for ai, arc in enumerate(inst.arcs):
        bi, bj = sh.block_of[arc.tail], sh.block_of[arc.head]
        assert sh.instance.arcs[sh.instance.arc_index[(bi, bj)]].existing_capacity == arc.existing_capacity


def test_shrink_two_blocks_sums_capacity():
    inst = generate_instance(seed=3, nodes=4, density=0.8, existing_capacity_prob=0.8)
    U = inst.nodes[:2]
    part = NodePartition.of(U, inst.nodes[2:])
    sh = shrink(inst, part)
    crossing = sum(
        (a.existing_capacity for a in inst.arcs if a.tail in U and a.head not in U), F(0)
    )
    if (0, 1) in sh.instance.arc_index:
        assert sh.instance.arcs[sh.instance.arc_index[(0, 1)]].existing_capacity == crossing


def test_shrink_preserves_feasibility():
    inst = generate_instance(seed=4, nodes=4, density=0.7, facilities=(1,))
    part = NodePartition.of(inst.nodes[:2], inst.nodes[2:])
    sh = shrink(inst, part)
    # route everything feasibly in the original, then aggregate
    caps = [inst.demand.total() for _ in inst.arcs]
    ok, _ = check_feasible_routing(inst, capacities=caps)
    assert ok
    agg = [
        sum((caps[ai] for ai in group), F(0)) for _, group in sorted(sh.arc_groups.items())
    ]
    ok2, _ = check_feasible_routing(sh.instance, capacities=agg)
    assert ok2


# instances of every facility set the loop's partition family sees, 3-6 nodes,
# aggregated; then disaggregated ones, splittable and unsplittable; then
# demands scaled by 2 and 3
LAZY_SHRINK_CASES = [
    dict(seed=seed, nodes=nodes, density=0.6, facilities=facilities, existing_capacity_prob=0.5)
    for nodes in (3, 4, 5, 6)
    for facilities in ((1,), (1, 3), (2, 5), (1, 2, 4))
    for seed in (nodes, nodes + 10)
] + [
    dict(seed=seed, nodes=nodes, density=0.6, facilities=facilities, existing_capacity_prob=0.5,
         mode="disaggregated", unsplittable=unsplittable)
    for nodes in (3, 4, 5)
    for facilities in ((1,), (1, 3), (2, 5))
    for unsplittable in (False, True)
    for seed in (nodes + 20, nodes + 40)
] + [
    dict(seed=seed, nodes=nodes, density=0.6, facilities=facilities, existing_capacity_prob=0.5, demand_scale=scale)
    for nodes in (4, 5)
    for facilities in ((1,), (1, 3))
    for scale in (2, 3)
    for seed in (nodes + 30,)
]


def _cut_fields(cut):
    return list(cut.flow.items()), list(cut.cap.items()), cut.rhs, cut.family, cut.params


def test_lazy_shrink_gives_the_former_partition_candidates():
    """The built-once ``partition`` candidates, a two-partition's read from
    its cut-set relaxation and a three-partition's from the lazy shrink's
    block-pair sums, with one hull per distinct cover, are those of the
    former eager shrink: same cuts in the same order, each with the same
    coefficients in the same order, rhs, family and params."""
    from netdes_cuts.engine import Config, Separation

    assert len(LAZY_SHRINK_CASES) >= 70
    built = 0
    for gen in LAZY_SHRINK_CASES:
        inst = generate_instance(**gen)
        got = [form.cut for form in Separation(inst, Config(families=("partition",))).fixed["partition"]]
        want = distinct_cuts(reference_partition_candidates(inst))
        assert [_cut_fields(cut) for cut in got] == [_cut_fields(cut) for cut in want]
        built += len(got)
    assert built > 0


# the CI probes and the two 12-node probes; above 8 nodes the two-partitions
# and above 6 the three-partitions are sampled
PROBES = [
    dict(seed=3, nodes=6, density=0.7, facilities=(1, 3)),
    dict(seed=3, nodes=8, density=0.5, facilities=(1, 3)),
    dict(seed=3, nodes=10, density=0.4, facilities=(1,)),
    dict(seed=3, nodes=12, density=0.3, facilities=(1,)),
    dict(seed=3, nodes=12, density=0.3, facilities=(1, 3)),
    dict(seed=3, nodes=16, density=0.25, facilities=(1, 3)),
]


@pytest.mark.parametrize("gen", PROBES, ids=lambda gen: f"{gen['nodes']}n-{len(gen['facilities'])}f")
def test_partition_candidates_match_the_former_build_on_the_probes(gen):
    """On the probes, the candidates built from the integer node-pair table
    with integer iterated MIR are the former ``Fraction`` build's: the same
    cuts in the same order, coefficient order, rhs, family and params."""
    from netdes_cuts.engine import Config, Separation

    inst = generate_instance(**gen)
    got = [form.cut for form in Separation(inst, Config()).fixed["partition"]]
    want = distinct_cuts(reference_partition_candidates(inst))
    assert [_cut_fields(cut) for cut in got] == [_cut_fields(cut) for cut in want]
    assert len(got) > 50


def _assert_same_instance(got, want):
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        assert getattr(got, name) == value, name
    assert got.demand.pairs() == want.demand.pairs()


def test_lazy_shrunk_instance_equals_the_eager_build():
    """``ShrunkInstance.instance``, built on first use, equals the former
    eager build field by field, and so do the crossing groups."""
    from netdes_cuts.engine import _three_partitions, _two_partitions

    for gen in LAZY_SHRINK_CASES:
        inst = generate_instance(**gen)
        parts = [NodePartition.of(U, V) for U, V in _two_partitions(inst)] + list(_three_partitions(inst))
        for part in parts:
            lazy, eager = shrink(inst, part), reference_shrink(inst, part)
            assert "instance" not in vars(lazy)  # nothing built until asked
            _assert_same_instance(lazy.instance, eager.instance)
            assert list(lazy.arc_groups.items()) == list(eager.arc_groups.items())
            assert list(lazy.groups.items()) == list(eager.groups.items())
            assert lazy.block_of == eager.block_of


# -- lifting --------------------------------------------------------------------------


def test_lift_singleton_partition_identity():
    inst = generate_instance(
        seed=3, nodes=3, density=1.0, facilities=(1,), existing_capacity_prob=0.0
    )
    part = NodePartition.of(*[[n] for n in inst.nodes])
    sh = shrink(inst, part)
    cut = cutset_cut(build_cutset(sh.instance, [0]))
    assert cut is not None
    lifted = lift_cut(cut, sh)
    # singleton blocks: the lift is an index relabeling
    assert lifted.rhs == cut.rhs
    assert len(lifted.cap) == len(cut.cap)
    assert sorted(lifted.cap.values()) == sorted(cut.cap.values())


def test_lift_two_partition_matches_direct_cutset(star_instance):
    part = NodePartition.of([1], [2, 3])
    sh = shrink(star_instance, part)
    small_cut = cutset_cut(build_cutset(sh.instance, [0]))
    lifted = lift_cut(small_cut, sh)
    direct = cutset_cut(build_cutset(star_instance, [1]))
    assert lifted.cap == direct.cap and lifted.rhs == direct.rhs
    report = lifted.params["lift_report"]
    assert report["rhs_positive"]
    # nodes 2 and 3 share no arc in the star, and the report says so
    assert not report["blocks_connected"]


def test_lift_report_connected_blocks():
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2), Arc(1, 3), Arc(2, 1), Arc(2, 3), Arc(3, 2)],
        facilities=[Facility(1, (F(1),) * 5)],
        demand=DemandMatrix({(1, 2): F(1, 2)}),
    )
    sh = shrink(inst, NodePartition.of([1], [2, 3]))
    lifted = lift_cut(cutset_cut(build_cutset(sh.instance, [0])), sh)
    assert lifted.params["lift_report"]["blocks_connected"]


def test_lift_reports_disconnected_blocks():
    inst = Instance(
        nodes=[1, 2, 3, 4],
        arcs=[Arc(1, 2), Arc(3, 2), Arc(2, 4), Arc(4, 1)],
        facilities=[Facility(1, (F(1),) * 4)],
        demand=DemandMatrix({(1, 4): F(1, 2)}),
    )
    part = NodePartition.of([1, 3], [2, 4])  # 1 and 3 share no arc
    sh = shrink(inst, part)
    cut = cutset_cut(build_cutset(sh.instance, [0]))
    lifted = lift_cut(cut, sh)
    assert not lifted.params["lift_report"]["blocks_connected"]


def test_lifted_cuts_valid_on_original():
    for seed in (6, 7):
        inst = generate_instance(seed=seed, nodes=4, density=0.8, facilities=(1,), existing_capacity_prob=0.0)
        part = NodePartition.of(inst.nodes[:2], inst.nodes[2:])
        sh = shrink(inst, part)
        cut = cutset_cut(build_cutset(sh.instance, [0]))
        if cut is None:
            continue
        lifted = lift_cut(cut, sh)
        ok, counter = validate_cut(lifted, inst, ybound=2)
        assert ok, counter


_SHRINKS = (([1, 2], [3], [4]), ([1], [2, 3], [4]), ([1, 3], [2, 4]))


def _shrunk_pools(seeds):
    """``(instance, shrunk, pooled cuts)`` of four-round loops on the
    shrunk 4-node instances of ``seeds`` under each of ``_SHRINKS``."""
    for seed in seeds:
        inst = generate_instance(seed, nodes=4, density=0.6, facilities=(1,))
        for blocks in _SHRINKS:
            sh = shrink(inst, NodePartition.of(*blocks))
            yield inst, sh, list(cutting_plane_loop(sh.instance, Config(max_rounds=4)).pool.cuts())


def test_lift_refuses_a_flow_cut():
    """A shrunk ``rc`` cut leans on the shrunk commodity's supply bound,
    which the summed original flows of a crossing group can exceed: lifted,
    seed 3's ``-x[4,0] + 1/3 y[4,0] >= 0`` has a counterexample, so a cut
    with flow terms does not lift."""
    _, sh, cuts = next(_shrunk_pools([3]))  # shrunk to {1, 2} | {3} | {4}
    rc = [cut for cut in cuts if cut.family == "rc"]
    assert rc
    for cut in rc:
        with pytest.raises(ValueError, match="pure-capacity"):
            lift_cut(cut, sh)


def test_lifted_capacity_cuts_of_shrunk_loops_are_valid():
    """Every pure-capacity cut pooled on a shrunk 4-node instance, the
    partition family's among them, lifts to a valid cut of the original."""
    families, lifted = set(), 0
    for inst, sh, cuts in _shrunk_pools(range(1, 40)):
        capacity = [cut for cut in cuts if not cut.flow]
        families.update(cut.family for cut in capacity)
        verdicts = validate_cuts([lift_cut(cut, sh) for cut in capacity], inst, ybound=1)
        assert [counter for ok, counter in verdicts if not ok] == []
        lifted += len(capacity)
    assert lifted == 163 and {"partition", "threepartition", "cutset"} <= families


# -- metric separation ------------------------------------------------------------------


def test_metric_separation_ample_capacity(triangle_half):
    caps = [F(5)] * len(triangle_half.arcs)
    assert separate_metric(triangle_half, capacities=caps) is None


def test_metric_separation_single_arc_max_flow_min_cut():
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(1),))],
        demand=DemandMatrix({(1, 2): F(1)}),
    )
    vec, cut = separate_metric(inst, capacities=[F(0)])
    assert set(vec.v) == {0}
    assert vec.v[0] == 1  # normalized to unit weight
    assert cut.rhs == 1
    assert cut.cap == {(0, 0): F(1)}


def test_metric_separation_triangle_directed_vector(triangle_half):
    # the 0/1 generator with three forward arcs prices three demands: rhs 3/2
    pairs = {a.pair: ai for ai, a in enumerate(triangle_half.arcs)}
    v = {pairs[(1, 2)]: F(1), pairs[(1, 3)]: F(1), pairs[(2, 3)]: F(1)}
    from netdes_cuts.lp import shortest_path_potentials

    u = shortest_path_potentials(triangle_half, v)
    vec = MetricVector(v=v, u=u)
    cut = metric_cut_from_vector(vec, triangle_half)
    assert cut.rhs == F(3, 2)
    rounded = integral_metric_cut(vec, triangle_half)
    assert rounded.rhs == 2


def test_metric_cut_cutset_special_case(star_instance):
    # 0/1 weights across a two-partition reproduce the cut-set inequality
    pairs = {a.pair: ai for ai, a in enumerate(star_instance.arcs)}
    v = {pairs[(1, 2)]: F(1), pairs[(1, 3)]: F(1)}
    from netdes_cuts.lp import shortest_path_potentials

    u = shortest_path_potentials(star_instance, v)
    vec = MetricVector(v=v, u=u)
    rounded = integral_metric_cut(vec, star_instance)
    direct = cutset_cut(build_cutset(star_instance, [1]))
    assert rounded.cap == direct.cap and rounded.rhs == direct.rhs


def test_integral_metric_rejects_fractional():
    inst = make_triangle(F(1, 2))
    pairs = {a.pair: ai for ai, a in enumerate(inst.arcs)}
    vec = MetricVector(v={pairs[(1, 2)]: F(1, 2)}, u={})
    with pytest.raises(ValueError):
        integral_metric_cut(vec, inst)


def test_integral_rounding_identity_when_integral(triangle_half):
    pairs = {a.pair: ai for ai, a in enumerate(triangle_half.arcs)}
    v = {pairs[(1, 2)]: F(2), pairs[(1, 3)]: F(2)}
    from netdes_cuts.lp import shortest_path_potentials

    u = shortest_path_potentials(triangle_half, v)
    vec = MetricVector(v=v, u={k: F(int(val)) for k, val in u.items()})
    plain = metric_cut_from_vector(vec, triangle_half)
    rounded = integral_metric_cut(vec, triangle_half)
    assert plain.rhs == rounded.rhs  # already integral


def test_metric_separation_soundness_and_completeness():
    rng = random.Random(17)
    hits = 0
    for seed in range(50):
        inst = generate_instance(seed=100 + seed, nodes=rng.randint(3, 6), density=0.7)
        caps = [
            F(0) if rng.random() < 0.6 else F(rng.randint(1, 4), rng.choice((1, 2)))
            for _ in inst.arcs
        ]
        res = separate_metric(inst, capacities=caps)
        assert (res is None) == routable(inst, caps)
        if res is not None:
            hits += 1
            vec, cut = res
            assert cone_violations(vec, inst) == []
            assert vec.demand_side(inst) > vec.capacity_side(inst, caps)
            assert all(va >= 0 for va in vec.v.values())
    assert hits > 5  # the sample must actually exercise the violated branch


# -- knapsack covers ---------------------------------------------------------------------


def test_knapsack_cover_matches_cutset(star_instance):
    part = NodePartition.of([1], [2, 3])
    sh = shrink(star_instance, part)
    X = reference_knapsack_cover_from_two_partition(sh)
    assert X == KnapsackCoverSet((1,), F(1, 2))
    cuts = [expand_knapsack_cut(iq, sh.groups[(0, 1)], {"blocks": part.blocks}) for iq in hull_inequalities(X)]
    direct = cutset_cut(build_cutset(star_instance, [1]))
    assert any(c.normalized_key() == direct.normalized_key() for c in cuts if c)


def test_knapsack_cover_two_facilities():
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(1),)), Facility(3, (F(2),))],
        demand=DemandMatrix({(1, 2): F(5)}),
    )
    sh = shrink(inst, NodePartition.of([1], [2]))
    X = reference_knapsack_cover_from_two_partition(sh)
    assert X == KnapsackCoverSet((1, 3), F(5))


def test_knapsack_cover_none_when_covered():
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2, F(3))],
        facilities=[Facility(1, (F(1),))],
        demand=DemandMatrix({(1, 2): F(2)}),
    )
    sh = shrink(inst, NodePartition.of([1], [2]))
    assert reference_knapsack_cover_from_two_partition(sh) is None


# -- three-partition cuts ------------------------------------------------------------------


def test_three_partition_numbers(triangle_half, triangle_third):
    part = NodePartition.of([1], [2], [3])
    for inst, rhs_sum, rhs_metric in ((triangle_half, 3, 4), (triangle_third, 3, 2)):
        c1 = three_partition_cut(inst, part)
        c2 = three_partition_metric_cut(inst, part)
        assert c1.rhs == rhs_sum
        assert c2.rhs == rhs_metric
        winner = select_total_capacity_cut([c1, c2])
        assert winner.rhs == max(rhs_sum, rhs_metric)
    assert select_total_capacity_cut(
        [three_partition_cut(triangle_third, part), three_partition_metric_cut(triangle_third, part)]
    ).family == "threepartition"


def test_three_partition_even_sum_unrounded():
    inst = make_triangle(F(1, 2))
    part = NodePartition.of([1], [2], [3])
    cut = three_partition_cut(inst, part)
    assert not cut.params["rounded"]
    assert cut.params["sum"] == 6
    assert cut.rhs == 3


def test_three_partition_odd_sum_rounds_up():
    # demands 1->2 and 1->3 of one half each: surpluses ceil to 1+1+1 = 3
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j],
        facilities=[Facility(1, (F(1),) * 6)],
        demand=DemandMatrix({(1, 2): F(1, 2), (1, 3): F(1, 2)}),
    )
    part = NodePartition.of([1], [2], [3])
    cut = three_partition_cut(inst, part)
    assert cut.params["rounded"] and cut.params["sum"] == 3
    assert cut.rhs == 2
    ok, _ = validate_cut(cut, inst, ybound=2)
    assert ok


def test_three_partition_zero_demand_vacuous():
    inst = make_triangle(F(0))
    # keep one demand pair so commodities exist elsewhere: fully zero here
    part = NodePartition.of([1], [2], [3])
    cut = three_partition_metric_cut(inst, part)
    assert cut.rhs == 0


def test_three_partition_cuts_valid(triangle_half, triangle_third):
    part = NodePartition.of([1], [2], [3])
    for inst in (triangle_half, triangle_third):
        cuts = [
            three_partition_cut(inst, part),
            three_partition_metric_cut(inst, part),
        ]
        verdicts = validate_cuts(cuts, inst, ybound=2)
        assert all(ok for ok, _ in verdicts), verdicts


def test_three_partition_data_matches_the_former_computation():
    """Each block pair's traffic minus capacity is computed once and summed:
    ``s``, ``t`` and ``d`` of ``_three_partition_sums`` of the shrink's
    block-pair nets, over its scale, are the Fractions, in the same order,
    of the former computation from the shrunk ``Instance``, on every
    three-partition of 30 generated instances with 4-6 nodes."""
    checked = 0
    for seed in range(30):
        inst = generate_instance(seed=seed, nodes=4 + seed % 3, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
        for part in all_three_partitions(inst.nodes):
            shrunk = shrink(inst, part)
            nets = {pair: shrunk.net(pair) for pair in shrunk.demand.keys() | shrunk.groups.keys()}
            s, t, d = _three_partition_sums(nets)
            got = SimpleNamespace(
                s=tuple(F(v, shrunk.scale) for v in s),
                t=tuple(F(v, shrunk.scale) for v in t),
                d={pair: F(v, shrunk.scale) for pair, v in d.items()},
            )
            want = reference_three_partition_data(shrunk)
            assert got.s == want.s and got.t == want.t
            assert list(got.d.items()) == list(want.d.items())
            assert all(type(v) is F for v in (*got.s, *got.t, *got.d.values()))
            checked += 1
    assert checked == 10 * (6 + 25 + 90)


def test_select_rejects_mismatched_lhs(triangle_half):
    part = NodePartition.of([1], [2], [3])
    cut = three_partition_cut(triangle_half, part)
    other = LinearCut({}, {(0, 0): F(1)}, F(1), "cutset")
    with pytest.raises(ValueError):
        select_total_capacity_cut([cut, other])
    assert select_total_capacity_cut([cut]) is cut


def test_total_capacity_feeds_iterated_mir():
    inst = make_triangle(F(5, 6), facility_caps=(1, 3))
    part = NodePartition.of([1], [2], [3])
    winner = select_total_capacity_cut(
        [three_partition_cut(inst, part), three_partition_metric_cut(inst, part)]
    )
    fed = knapsack_from_total_capacity(winner, inst)
    assert fed is not None
    X, support = fed
    assert X.capacities == (1, 3)
    assert set(support) == {0, 1}
    derived = []
    for coefs, rhs in hull_inequalities(X):
        cap = {}
        for mi, coef in enumerate(coefs):
            for ai in support[mi]:
                cap[(ai, mi)] = coef
        derived.append(LinearCut({}, cap, rhs, "partition"))
    verdicts = validate_cuts(derived, inst, ybound=2)
    assert all(ok for ok, _ in verdicts)


def test_all_three_partitions_counts():
    parts = list(all_three_partitions([1, 2, 3, 4]))
    # Stirling number S(4,3) = 6 unordered partitions
    assert len(parts) == 6


def test_all_three_partitions_in_the_former_order():
    """The labelings grown block by block give the former enumeration: of
    every base-3 labeling in increasing order, the first of each unordered
    partition, blocks in label order."""

    def former(nodes):
        seen = set()
        for assign in range(3 ** len(nodes)):
            blocks, a = ([], [], []), assign
            for node in nodes:
                blocks[a % 3].append(node)
                a //= 3
            key = frozenset(frozenset(b) for b in blocks)
            if all(blocks) and key not in seen:
                seen.add(key)
                yield NodePartition.of(*blocks)

    for n in range(THREE_PARTITION_LIMIT + 1):
        nodes = [10 * k + 3 for k in range(n)]
        assert list(all_three_partitions(nodes)) == list(former(nodes))
    # Stirling numbers S(n, 3), up to the one limit the engine also reads
    assert THREE_PARTITION_LIMIT == 6
    assert [len(list(all_three_partitions(range(n)))) for n in range(3, 7)] == [1, 6, 25, 90]
    with pytest.raises(ValueError):
        next(all_three_partitions(range(7)))
