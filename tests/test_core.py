import math
import random
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netdes_cuts import simplex
from netdes_cuts.core import (
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    InstanceError,
    LinearCut,
    build_aggregated_commodities,
    build_disaggregated_commodities,
    cut_key,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    rationalize,
)
from netdes_cuts.lp import build_relaxation

from helpers import demand_total, installation_cost


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


@given(rationals, rationals)
def test_rational_addition_matches_cross_multiplication(a, b):
    total = a + b
    assert total.numerator * a.denominator * b.denominator == (
        a.numerator * b.denominator + b.numerator * a.denominator
    ) * total.denominator


def test_rational_exactness_bulk():
    rng = random.Random(0)
    for _ in range(10**4):
        a = F(rng.randint(-999, 999), rng.randint(1, 999))
        b = F(rng.randint(-999, 999), rng.randint(1, 999))
        s = a + b
        # cross-multiplication oracle plus representation invariants
        assert s * a.denominator * b.denominator == (
            a.numerator * b.denominator + b.numerator * a.denominator
        )
        assert s.denominator > 0
        from math import gcd

        assert gcd(s.numerator, s.denominator) == 1


# -- commodities ------------------------------------------------------------------


_TINY = 2.2250738585072014e-308  # the least positive normal float; below it lie the subnormals
_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-_TINY, max_value=_TINY),
    st.floats(min_value=1e299, max_value=1e301) | st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=1e-301, max_value=1e-299) | st.floats(min_value=-1e-299, max_value=-1e-301),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(math.isfinite),
)


@given(_finite_floats, st.sampled_from([1, 2, 7, 10**6, 10**12]))
@example(5e-324, 10**12)
@example(-0.1, 7)
@example(1 / 3, 10**6)
@example(0.5, 1)  # a tie between the two candidates goes to the convergent, 0
@example(-2.5, 1)
@example(1e300, 1)
def test_rationalize_is_limit_denominator(x, max_denominator):
    """The continued fraction on the ints of ``x.as_integer_ratio()`` is
    ``Fraction.limit_denominator``'s, for a float and for a numpy float64:
    negative, subnormal, near 1e+-300 or any finite bit pattern."""
    want = F(x).limit_denominator(max_denominator)
    for value in (x, np.float64(x)):
        got = rationalize(value, max_denominator)
        assert (got, type(got)) == (want, F)


@pytest.mark.parametrize("x", [0.5, 3.0, -2.25, np.float64(0.1), np.float64(2.0)])
@pytest.mark.parametrize("max_denominator", [0, -1])
def test_rationalize_refuses_a_bound_below_1_as_limit_denominator_does(x, max_denominator):
    with pytest.raises(ValueError) as want:
        F(x).limit_denominator(max_denominator)
    with pytest.raises(ValueError) as got:
        rationalize(x, max_denominator)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("inf")])
def test_rationalize_refuses_nan_and_infinity(x):
    """An LP value that is not a finite number has no nearest rational."""
    with pytest.raises(ValueError, match=f"cannot rationalize {x}"):
        rationalize(x)


def test_single_pair_commodity():
    demand = DemandMatrix({(1, 2): F(1)})
    coms = build_aggregated_commodities(demand, [1, 2])
    assert len(coms) == 1
    assert coms[0].source == 1
    assert coms[0].net_demand == {1: F(-1), 2: F(1)}


def test_zero_demand_no_commodities():
    assert build_aggregated_commodities(DemandMatrix(), [1, 2, 3]) == []


def test_aggregated_three_nodes_balance():
    demand = DemandMatrix({(1, 2): F(1, 2), (1, 3): F(1, 2), (3, 1): F(1, 3)})
    coms = build_aggregated_commodities(demand, [1, 2, 3])
    assert [c.source for c in coms] == [1, 3]
    w1 = coms[0].net_demand
    assert w1[1] == F(-1) and w1[2] == F(1, 2) and w1[3] == F(1, 2)
    for c in coms:
        assert sum(c.net_demand.values()) == 0


def test_disaggregated_matches_aggregated_single_pair():
    demand = DemandMatrix({(1, 2): F(1)})
    agg = build_aggregated_commodities(demand, [1, 2])
    dis = build_disaggregated_commodities(demand, [1, 2])
    assert len(dis) == 1
    assert dis[0].net_demand == agg[0].net_demand


def test_disaggregated_counts():
    demand = DemandMatrix({(1, 2): F(1, 2), (1, 3): F(1, 2)})
    assert len(build_disaggregated_commodities(demand, [1, 2, 3])) == 2
    assert len(build_aggregated_commodities(demand, [1, 2, 3])) == 1
    dense = DemandMatrix({(i, j): F(1) for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    assert len(build_disaggregated_commodities(dense, [1, 2, 3])) == 6


def test_modes_agree_on_total_supply_per_source():
    demand = DemandMatrix({(1, 2): F(1, 2), (1, 3): F(3, 4), (2, 3): F(2)})
    agg = build_aggregated_commodities(demand, [1, 2, 3])
    dis = build_disaggregated_commodities(demand, [1, 2, 3])
    per_source = {}
    for c in dis:
        per_source[c.source] = per_source.get(c.source, F(0)) + c.total_supply
    assert per_source == {c.source: c.total_supply for c in agg}


# -- installation cost --------------------------------------------------------------


def test_installation_cost_zero():
    assert installation_cost(0, 1, 7, 1, F(7, 2)) == 0


def test_installation_cost_staircase():
    # sizes 1 and 7 with 3*d1 < d2 < 4*d1: unit steps then flat at d2
    c1, c2, d1, d2 = 1, 7, F(1), F(7, 2)
    values = [installation_cost(z, c1, c2, d1, d2) for z in range(0, 8)]
    assert values[:4] == [0, 1, 2, 3]
    assert values[4:] == [F(7, 2)] * 4  # cheaper to buy the big unit
    assert installation_cost(F(15, 2), c1, c2, d1, d2) == F(7, 2) + 1


def test_installation_cost_matches_enumeration():
    rng = random.Random(1)
    for _ in range(200):
        c1 = rng.randint(1, 4)
        c2 = c1 + rng.randint(1, 6)
        d2 = F(rng.randint(2, 12), rng.randint(1, 3))
        # force economies of scale
        d1 = d2 / c2 * c1 + F(rng.randint(1, 5), 7)
        z = F(rng.randint(0, 40), rng.randint(1, 4))
        best = min(
            d1 * y1 + d2 * y2
            for y1 in range(0, int(z // c1) + 2)
            for y2 in range(0, int(z // c2) + 2)
            if c1 * y1 + c2 * y2 >= z
        )
        assert installation_cost(z, c1, c2, d1, d2) == best


def test_installation_cost_rejects_negative():
    with pytest.raises(ValueError):
        installation_cost(-1, 1, 2, 2, 3)


# -- instances ------------------------------------------------------------------------


def build_instance(**kwargs):
    defaults = dict(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(1),))],
        demand=DemandMatrix({(1, 2): F(1)}),
    )
    defaults.update(kwargs)
    return Instance(**defaults)


def _refusal_base() -> dict:
    """The document each refusal row edits: a valid instance."""
    arcs = [(1, 2), (2, 3), (3, 1), (2, 1)]
    return {"nodes": [1, 2, 3], "arcs": [{"tail": t, "head": h} for t, h in arcs],
            "facilities": [{"capacity": "1", "cost": ["1"] * 4}],
            "demands": [{"from": 1, "to": 2, "amount": "2"}, {"from": 2, "to": 3, "amount": "1"}]}


def _built(doc: dict) -> Instance:
    """``doc`` built by the constructors directly, without ``instance_from_dict``."""
    return Instance(
        nodes=doc["nodes"],
        arcs=[Arc(a["tail"], a["head"], a.get("existing_capacity", 0)) for a in doc["arcs"]],
        facilities=[Facility(f["capacity"], tuple(f["cost"])) for f in doc["facilities"]],
        demand=DemandMatrix({(d["from"], d["to"]): d["amount"] for d in doc["demands"]}),
        flow_costs=doc.get("flow_costs", 0),
        mode=doc.get("commodity_mode", "aggregated"),
        unsplittable=doc.get("unsplittable", False),
    )


def _facilities(*sizes, costs=("1",) * 4):
    return [{"capacity": size, "cost": list(costs)} for size in sizes]


@pytest.mark.parametrize("edit, problem", [
    (lambda d: {**d, "facilities": _facilities("3", "1")}, "facility capacities not strictly increasing: 3 >= 1"),
    (lambda d: {**d, "facilities": _facilities("1", "1")}, "facility capacities not strictly increasing: 1 >= 1"),
    (lambda d: {**d, "facilities": _facilities("1", costs=("1", "1"))}, "facility 0 has 2 costs for 4 arcs"),
    (lambda d: {**d, "demands": d["demands"] + [{"from": 1, "to": 9, "amount": "1"}]},
     r"demand \(1,9\) references unknown node"),
    (lambda d: {**d, "arcs": [{"tail": 1, "head": 2, "existing_capacity": "-1"}, *d["arcs"][1:]]},
     r"arc \(1,2\) has negative existing capacity -1"),
    (lambda d: {**d, "facilities": _facilities("1", costs=("1", "1", "-1", "1"))},
     "facility of capacity 1 has negative installation cost -1 on arc 2"),
    (lambda d: {**d, "unsplittable": True}, "unsplittable routing requires disaggregated commodities"),
    (lambda d: {**d, "commodity_mode": "disaggregated", "unsplittable": True, "flow_costs": "-1"},
     "unsplittable routing requires nonnegative flow costs"),
    # demand (3,2) with arc (3,1) removed: node 3 has no arc out
    (lambda d: {**d, "arcs": [a for a in d["arcs"] if (a["tail"], a["head"]) != (3, 1)],
                "facilities": _facilities("1", costs=("1",) * 3),
                "demands": d["demands"] + [{"from": 3, "to": 2, "amount": "1"}]},
     "demand 3->2 has no directed path"),
    # the source reaches node 3 but not its sink 2
    (lambda d: {**d, "arcs": [{"tail": 1, "head": 3}, {"tail": 2, "head": 1}],
                "facilities": _facilities("1", costs=("1",) * 2), "demands": [{"from": 1, "to": 2, "amount": "1"}]},
     "demand 1->2 has no directed path"),
    # a mapping was read by commodity source, one cost for every pair from that source
    (lambda d: {**d, "flow_costs": ["1", {"2": "1"}, "1", "1"]}, r"flow cost of arc \(2,3\) is a mapping"),
    (lambda d: {**d, "demands": d["demands"] + [{"from": 1, "to": 3, "amount": "-1"}]},
     r"negative demand t\[1,3\] = -1"),
    (lambda d: {**d, "demands": d["demands"] + [{"from": 1, "to": 1, "amount": "1"}]},
     r"diagonal demand t\[1,1\] must be zero"),
    (lambda d: {**d, "commodity_mode": "pairs"}, "unknown commodity mode 'pairs'"),
    (lambda d: {**d, "flow_costs": ["1", "1"]}, "flow cost list has 2 entries for 4 arcs"),
    # the two commodities are the aggregated ones of sources 1 and 2
    (lambda d: {**d, "flow_costs": [["1", "1", "1"], "1", "1", "1"]},
     "per-commodity cost list has 3 entries for 2 commodities"),
    (lambda d: {**d, "facilities": _facilities("0")}, "facility capacity 0 not positive"),
], ids=["sizes-decreasing", "sizes-equal", "costs-per-arc", "unknown-demand-node", "negative-existing-capacity",
        "negative-installation-cost", "unsplittable-aggregated", "unsplittable-negative-flow-cost", "no-path",
        "unreachable-sink", "flow-cost-mapping", "negative-demand", "diagonal-demand", "unknown-commodity-mode",
        "flow-cost-list-length", "per-commodity-cost-list-length", "zero-facility-capacity"])
def test_instance_refuses_data_outside_the_model(edit, problem):
    """Data outside the paper's model is refused where it is built, by
    ``Instance(...)`` and by ``instance_from_dict`` alike, with an
    ``InstanceError`` that names the problem; the base document builds."""
    base = _refusal_base()
    assert instance_to_dict(_built(base)) == instance_to_dict(instance_from_dict(base))
    doc = edit(base)
    for build in (_built, instance_from_dict):
        with pytest.raises(InstanceError, match=problem):
            build(doc)


def test_parallel_arcs_merge_capacity():
    inst = build_instance(arcs=[Arc(1, 2, F(1, 2)), Arc(1, 2, F(1, 3))])
    assert len(inst.arcs) == 1
    assert inst.arcs[0].existing_capacity == F(5, 6)


def test_self_loop_rejected():
    with pytest.raises(InstanceError):
        Arc(1, 1)


def test_instance_roundtrip_json():
    inst = build_instance(
        arcs=[Arc(1, 2, F(1, 2))],
        facilities=[Facility(1, (F(2, 3),)), Facility(3, (F(5),))],
        flow_costs=[["1/4"]],
    )
    data = instance_to_dict(inst)
    back = instance_from_dict(data)
    assert back.nodes == inst.nodes
    assert back.arcs[0].existing_capacity == F(1, 2)
    assert back.facilities[1].capacity == 3
    assert back.flow_costs == inst.flow_costs
    assert back.demand == inst.demand


@pytest.mark.parametrize("bad, message", [
    (dict(nodes=3.5), "nodes must be an integer, got 3.5"),
    (dict(nodes=True), "nodes must be an integer, got True"),
    (dict(demand_scale=1.5), "demand_scale must be an integer, got 1.5"),
    (dict(demand_scale=True), "demand_scale must be an integer, got True"),
    (dict(existing_capacity_prob=2), r"existing_capacity_prob must be a probability in \[0, 1\], got 2"),
    (dict(existing_capacity_prob=float("nan")), r"existing_capacity_prob must be a probability in \[0, 1\], got nan"),
    (dict(flow_cost_prob=-1), r"flow_cost_prob must be a probability in \[0, 1\], got -1"),
    (dict(facilities=(0.1,)), r"facilities must be ints or Fractions, got \(0\.1,\)"),
    (dict(facilities=(1.5, 3)), r"facilities must be ints or Fractions, got \(1\.5, 3\)"),
    (dict(facilities=(True, 2)), r"facilities must be ints or Fractions, got \(True, 2\)"),
    (dict(density=True), "density must be a real number, got True"),
    (dict(density="0.5"), "density must be a real number, got '0.5'"),
    (dict(existing_capacity_prob=True), "existing_capacity_prob must be a real number, got True"),
    (dict(existing_capacity_prob=None), "existing_capacity_prob must be a real number, got None"),
    (dict(flow_cost_prob=False), "flow_cost_prob must be a real number, got False"),
])
def test_generate_instance_refuses_bad_arguments_by_name(bad, message):
    """A float count failed deep in ``random`` (``demand_scale=1.5``: a
    non-integer stop for ``randrange``), a probability outside [0, 1] was
    taken silently, and so was a float facility size, as its binary value
    (``0.1`` gave capacity 3602879701896397/2**55 and scale 2**55), or a
    bool one, as 0 or 1; a bool density or probability was read as 1.0
    (existing capacity on every arc), a string or None failed in a bare
    comparison; each is refused up front, naming the argument."""
    with pytest.raises(ValueError, match=message):
        generate_instance(**{"seed": 1, "nodes": 3, **bad})
    generate_instance(seed=1, nodes=3, existing_capacity_prob=0, flow_cost_prob=1)  # the ends are probabilities
    generate_instance(seed=1, nodes=3, facilities=(F(3, 2), 2))  # a Fraction size is a size


# loop-4n's 40 instances, then criterion 11's four batch shapes (the first seed of each)
LOADED_INSTANCES = [
    *(dict(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,)) for s in range(1, 41)),
    dict(seed=1001, nodes=3, density=0.9, facilities=(1,), flow_cost_prob=0.4),
    dict(seed=1101, nodes=4, density=0.5, facilities=(1,), flow_cost_prob=0.4),
    dict(seed=1141, nodes=3, density=0.7, facilities=(1, 2), flow_cost_prob=0.4),
    dict(seed=1176, nodes=3, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True,
         flow_cost_prob=0.4),
]


def test_a_loaded_instance_is_the_one_written():
    """``instance_from_dict(instance_to_dict(inst))`` is ``inst`` field by
    field, its int table included, and holds its rationals as Fractions."""
    for gen in LOADED_INSTANCES:
        inst = generate_instance(**gen)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.nodes == inst.nodes and back.arcs == inst.arcs, gen
        assert [(f.capacity, f.costs) for f in back.facilities] == [(f.capacity, f.costs) for f in inst.facilities]
        assert back.demand == inst.demand, gen
        for name in ("flow_costs", "mode", "unsplittable", "scale", "sizes_num", "cbar_num", "demand_num",
                     "net_num", "supply_num"):
            assert getattr(back, name) == getattr(inst, name), (gen, name)
        rationals = [a.existing_capacity for a in back.arcs] + [t for _, _, t in back.demand.pairs()]
        rationals += [v for f in back.facilities for v in (f.capacity, *f.costs)]
        rationals += [v for row in back.flow_costs for v in row]
        assert all(type(v) is F for v in rationals), gen


def test_equal_rational_strings_of_one_document_share_one_fraction():
    """Each distinct rational string of a document is parsed once, into
    one Fraction that every field holding that string shares; a second
    document parses its own."""
    doc = {
        "nodes": [1, 2, 3],
        "arcs": [{"tail": 1, "head": 2, "existing_capacity": "1/2"},
                 {"tail": 2, "head": 3, "existing_capacity": "1/2"}, {"tail": 3, "head": 1}],
        "facilities": [{"capacity": "1/2", "cost": ["3", "3", "1/2"]}],
        "demands": [{"from": 1, "to": 3, "amount": "3"}, {"from": 2, "to": 1, "amount": "1/2"}],
        "flow_costs": ["1/2", ["3", "1/2"], "0"],
    }
    inst = instance_from_dict(doc)
    row0, row1 = inst.flow_costs[:2]  # per commodity: sources 1 and 2
    halves = [inst.arcs[0].existing_capacity, inst.arcs[1].existing_capacity, inst.facilities[0].capacity,
              inst.facilities[0].costs[2], inst.demand.t(2, 1), *row0, row1[1]]
    threes = [*inst.facilities[0].costs[:2], inst.demand.t(1, 3), row1[0]]
    assert halves[0] == F(1, 2) and all(v is halves[0] for v in halves)
    assert threes[0] == 3 and all(v is threes[0] for v in threes)
    assert instance_from_dict(doc).arcs[0].existing_capacity is not halves[0]


def test_instance_scale_is_the_least_int_that_clears_the_data():
    """``Instance.scale`` is the least positive S with ``S * v`` an int for
    every facility size, existing capacity, demand amount, net demand and
    supply, in both commodity modes, with fractional facility sizes, with
    merged parallel arcs and with amounts whose total is integral (seed
    5); every entry of the instance's int table is S times its value, an
    int; and the int stages read it: the node-pair table, a point's
    scaling and the oracle's routing."""
    from netdes_cuts import oracle
    from netdes_cuts.cutset_cuts import ScaledPoint
    from netdes_cuts.partition_cuts import NodePairTable

    fractional = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2, "5/4"), Arc(2, 3), Arc(3, 1, "1/2")],
        facilities=[Facility("7/5", ("1", "1", "1")), Facility("10/3", ("2", "2", "2"))],
        demand=DemandMatrix({(1, 3): F(1, 6), (2, 1): F(5, 6)}),
    )
    parallel = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2, "1/4"), Arc(2, 3), Arc(1, 2, "1/3"), Arc(3, 1)],
        facilities=[Facility("3/2", ("1", "1", "1"))],
        demand=DemandMatrix({(1, 3): F(1, 2), (3, 2): F(2, 5), (1, 2): F(1)}),
        mode="disaggregated",
    )
    seed5 = generate_instance(seed=5, nodes=3, density=0.9, facilities=(1, 2))
    instances = [
        fractional,
        parallel,
        seed5,
        generate_instance(seed=5, nodes=3, density=0.9, facilities=(1, 2), mode="disaggregated"),
        generate_instance(seed=35, nodes=3, density=0.9, facilities=(1, 2)),
        generate_instance(seed=7, nodes=4, density=0.6, facilities=(1,), mode="disaggregated",
                          unsplittable=True),
    ]
    assert fractional.scale == 60 and seed5.scale == 2 and demand_total(seed5) == 3
    assert len(parallel.arcs) == 3 and parallel.scale == 60 and parallel.cbar_num[0] == 35
    rng = random.Random(30)
    for inst in instances:
        S = inst.scale
        values = [f.capacity for f in inst.facilities] + [a.existing_capacity for a in inst.arcs]
        values += [t for _, _, t in inst.demand.pairs()]
        values += [w for com in inst.commodities for w in com.net_demand.values()]
        values += [com.total_supply for com in inst.commodities]
        assert S >= 1 and all((S * v).denominator == 1 for v in values)
        for d in range(1, S):
            if S % d == 0:
                assert any((d * v).denominator != 1 for v in values), (inst.name, S, d)

        assert inst.sizes_num == tuple(S * f.capacity for f in inst.facilities)
        assert inst.cbar_num == tuple(S * a.existing_capacity for a in inst.arcs)
        assert list(inst.demand_num.items()) == [((i, j), S * t) for i, j, t in inst.demand.pairs()]
        assert inst.net_num == tuple({n: S * w for n, w in com.net_demand.items()} for com in inst.commodities)
        assert [list(net) for net in inst.net_num] == [list(com.net_demand) for com in inst.commodities]
        table = (*inst.sizes_num, *inst.cbar_num, *inst.demand_num.values(),
                 *(w for net in inst.net_num for w in net.values()))
        assert all(type(v) is int for v in table)

        # the shrink table holds each pair's demand and existing capacity at the instance's scale
        assert all(t == S * inst.demand.t(i, j) and c == (0 if ai is None else S * inst.arcs[ai].existing_capacity)
                   for i, j, t, c, ai in NodePairTable(inst).rows)
        routing = oracle._Routing(inst, [({}, 1)])
        assert routing.scale == S
        if inst.unsplittable:
            assert routing.loads == tuple(S * com.total_supply for com in inst.commodities)
        arcs, commodities = range(len(inst.arcs)), range(len(inst.commodities))
        point = FractionalPoint(
            x={(ai, ki): F(rng.randint(0, 5), rng.choice((1, 2, 5))) for ai in arcs for ki in commodities},
            y={(ai, mi): F(rng.randint(0, 3), rng.choice((1, 7))) for ai in arcs for mi in range(len(inst.facilities))},
        )
        dens = [v.denominator for v in (*point.x.values(), *point.y.values())]
        scaled = ScaledPoint(inst, point)
        assert scaled.D == math.lcm(S, *dens) and not hasattr(scaled, "point")
        assert scaled.caps == [scaled.D * f.capacity for f in inst.facilities]
        assert scaled.cbar == [scaled.D * a.existing_capacity for a in inst.arcs]
        assert scaled.supplies == [scaled.D * com.total_supply for com in inst.commodities]
        for ai in arcs:
            assert [F(*load) for load in scaled.loads(ai)] == [
                min(max(point.x[(ai, ki)] / com.total_supply, F(0)), F(1)) for ki, com in enumerate(inst.commodities)]


def test_linear_cut_normalization_and_violation():
    cut = LinearCut({(0, 0): F(2)}, {(0, 0): F(4)}, F(6), "test")
    key = cut.normalized_key()
    assert key == ((((0, 0), 1),), (((0, 0), 2),), 3)
    assert LinearCut({(0, 0): F(1)}, {(0, 0): F(2)}, F(3), "other").normalized_key() == key
    point = FractionalPoint(x={(0, 0): F(1)}, y={(0, 0): F(1, 2)})
    assert cut.violation(point) == F(6) - F(2) - F(2)


_coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_entries = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), _coefficient, max_size=4)


def _positive_multiple(a: LinearCut, b: LinearCut) -> bool:
    """Is ``a`` a positive multiple of ``b``?"""
    if a.flow.keys() != b.flow.keys() or a.cap.keys() != b.cap.keys():
        return False
    coefs_a = [a.flow[k] for k in sorted(a.flow)] + [a.cap[k] for k in sorted(a.cap)]
    coefs_b = [b.flow[k] for k in sorted(b.flow)] + [b.cap[k] for k in sorted(b.cap)]
    t = coefs_a[0] / coefs_b[0]
    return t > 0 and [v * t for v in coefs_b] == coefs_a and b.rhs * t == a.rhs


@given(_entries, _entries, _coefficient, st.fractions(min_value=-3, max_value=3, max_denominator=5),
       _entries, _entries, _coefficient, st.integers(1, 6))
def test_normalized_key_shared_exactly_by_positive_multiples(flow, cap, rhs, scale, flow2, cap2, rhs2, times):
    """Two cuts share a ``normalized_key()`` iff one is a positive multiple
    of the other.  ``cut_key`` of a cut's ints over any common positive
    denominator, and of every positive multiple of them, in any item
    order, is the built cut's ``normalized_key()``; so is that of its
    capacity part alone, a pure capacity cut."""
    for flow_part in (flow, {}):
        if any(flow_part.values()) or any(cap.values()):
            den = times * math.lcm(rhs.denominator, *(v.denominator for v in (*flow_part.values(), *cap.values())))
            flow_num, cap_num = ({k: int(v * den) for k, v in part.items() if v} for part in (flow_part, cap))
            want = LinearCut(flow_part, cap, rhs, "a").normalized_key()
            assert cut_key(flow_num, cap_num, int(rhs * den)) == want
            assert cut_key(dict(reversed(flow_num.items())), dict(reversed(cap_num.items())), int(rhs * den)) == want
    if not any(flow.values()) and not any(cap.values()):
        return
    cut = LinearCut(flow, cap, rhs, "a")
    if scale != 0:
        multiple = LinearCut({k: v * scale for k, v in flow.items()}, {k: v * scale for k, v in cap.items()},
                             rhs * scale, "b")
        assert (multiple.normalized_key() == cut.normalized_key()) == (scale > 0)
    if any(flow2.values()) or any(cap2.values()):
        other = LinearCut(flow2, cap2, rhs2, "c")
        assert (other.normalized_key() == cut.normalized_key()) == _positive_multiple(other, cut)


_THREE_ARCS = Instance(
    nodes=[1, 2, 3],
    arcs=[Arc(1, 2), Arc(2, 3), Arc(1, 3)],
    facilities=[Facility(1, (F(1), F(1), F(1))), Facility(3, (F(2), F(2), F(2)))],
    demand=DemandMatrix({(1, 3): F(1), (2, 3): F(2)}),
)


def _float_row(row, negated):
    _, _, vals, rhs, scale = simplex._tableau_rows([(row[0], row[1], row[2], negated)], simplex._FLOAT)
    return [float(v).hex() for v in vals], float(rhs[0]).hex(), float(scale[0]).hex()


@given(_entries, _entries, _coefficient, st.integers(1, 6), _entries, _entries)
def test_cut_built_from_ints_is_the_cut_built_from_fractions(flow, cap, rhs, multiple, x, y):
    """A cut built from ints over a denominator, not necessarily the least,
    is the cut built from the equal ``Fraction``s: equal, with one key, the
    same ``Fraction`` views in the same order, the same violation, the
    same relaxation row and bit-identical float tableau rows."""
    if not any(flow.values()) and not any(cap.values()):
        return
    den = multiple * math.lcm(rhs.denominator, *(v.denominator for v in (*flow.values(), *cap.values())))
    ints = LinearCut({k: int(v * den) for k, v in flow.items()}, {k: int(v * den) for k, v in cap.items()},
                     int(rhs * den), "a", {"p": 1}, den=den)
    fractions = LinearCut(flow, cap, rhs, "a", {"p": 1})
    assert fractions.flow == {k: v for k, v in flow.items() if v} and fractions.rhs == rhs
    assert ints == fractions and ints.normalized_key() == fractions.normalized_key()
    for got, want in ((ints.flow, fractions.flow), (ints.cap, fractions.cap)):
        assert [(k, v, type(v)) for k, v in got.items()] == [(k, v, type(v)) for k, v in want.items()]
    assert (ints.rhs, type(ints.rhs)) == (fractions.rhs, type(fractions.rhs))
    point = FractionalPoint(x=x, y=y)
    assert (ints.violation(point), type(ints.violation(point))) == (fractions.violation(point), F)
    row, = build_relaxation(_THREE_ARCS, [ints]).rows[-1:]
    want, = build_relaxation(_THREE_ARCS, [fractions]).rows[-1:]
    assert list(row[0].items()) == list(want[0].items()) and row[1:] == want[1:]
    for negated in (False, True):
        assert _float_row(row, negated) == _float_row(want, negated)


def test_cut_from_ints_refuses_a_float_a_denominator_and_zeros():
    with pytest.raises(TypeError):
        LinearCut({(0, 0): 1.5}, {}, 1, "a", den=2)
    with pytest.raises(TypeError):
        LinearCut({}, {(0, 0): 1}, 0.5, "a", den=2)
    for den in (0, -1):
        with pytest.raises(ValueError):
            LinearCut({}, {(0, 0): 1}, 1, "a", den=den)
    with pytest.raises(ValueError):
        LinearCut({(0, 0): 0}, {(1, 0): 0}, 1, "a", den=3)


def test_linear_cut_requires_nonzero():
    with pytest.raises(ValueError):
        LinearCut({}, {}, F(1), "empty")
