import copy
import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from netdes_cuts import cutset_cuts
from netdes_cuts.core import (
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    generate_instance,
)
from netdes_cuts.cutset_cuts import (
    GREEDY_ROUNDS,
    ScaledPoint,
    build_cutset,
    cutset_cut,
    separate_commodity_subset,
    separate_flow_cutset,
    separate_multifacility,
    two_partitions,
)
from netdes_cuts.engine import MAX_DENOMINATOR, Q_SUBSET_LIMIT, _commodity_subsets
from netdes_cuts.oracle import validate_cut
from helpers import (
    FlowCutSelection,
    flow_cutset_best_violation,
    flow_cutset_cut,
    in_cutset_mixed_integer_set,
    lhs_value,
    multifacility_best_violation,
    multifacility_cutset_cut,
    reference_commodity_subset,
    reference_flow_cutset,
    reference_flow_cutset_cut,
    reference_multifacility,
    reference_multifacility_cutset_cut,
    relaxation_b,
)


def two_node_instance(demand=F(1), caps=(1,), cbar=F(0)):
    arcs = [Arc(1, 2, cbar), Arc(2, 1)]
    return Instance(
        nodes=[1, 2],
        arcs=arcs,
        facilities=[Facility(c, (F(1), F(1))) for c in caps],
        demand=DemandMatrix({(1, 2): demand}),
    )


def scored_violation(got, rel, scaled, Q, family, s=0):
    """The violation the single-subset ``separate_relaxation`` pass of
    ``family`` on Q and base facility s yields with its cut, which is
    ``got``: the score it admitted the cut on, as the engine reads it."""
    cut, violation = next(cutset_cuts.separate_relaxation(rel, scaled, [tuple(Q)], family, bases=(s,)))
    assert cut == got
    return violation


# -- relaxation construction ---------------------------------------------------------


def test_build_cutset_two_nodes():
    rel = build_cutset(two_node_instance(), U=[1])
    assert rel.A_plus == (0,) and rel.A_minus == (1,)
    assert relaxation_b(rel) == (F(1),)


def test_build_cutset_star(star_instance):
    rel = build_cutset(star_instance, U=[1])
    assert rel.A_plus == (0, 1)
    assert rel.A_minus == (2,)
    assert relaxation_b(rel) == (F(1, 2),)


def test_build_cutset_matches_demand_sum():
    inst = generate_instance(seed=11, nodes=4, density=0.7)
    for U, V in two_partitions(inst.nodes):
        rel = build_cutset(inst, U)
        for ki, com in enumerate(inst.commodities):
            assert relaxation_b(rel)[ki] == sum((com.w(n) for n in V), F(0))


# -- cut-set inequality ----------------------------------------------------------------


def test_cutset_cut_star(star_instance):
    cut = cutset_cut(build_cutset(star_instance, U=[1]))
    assert cut.cap == {(0, 0): F(1), (1, 0): F(1)}
    assert cut.rhs == 1


def test_cutset_cut_none_when_capacity_suffices():
    rel = build_cutset(two_node_instance(demand=F(1), cbar=F(2)), U=[1])
    assert cutset_cut(rel) is None


def test_cutset_cut_rounding():
    rel = build_cutset(two_node_instance(demand=F(7, 3), cbar=F(1)), U=[1])
    cut = cutset_cut(rel)
    assert cut.rhs == 2
    valid, _ = validate_cut(cut, two_node_instance(demand=F(7, 3), cbar=F(1)), ybound=4)
    assert valid


# -- flow-cut-set ------------------------------------------------------------------------


def test_flow_cutset_star_worked_cuts(star_instance):
    rel = build_cutset(star_instance, U=[1])
    cut = flow_cutset_cut(rel, FlowCutSelection((0,), (0,), (2,)))
    assert cut.cap == {(0, 0): F(1, 2), (2, 0): F(1, 2)}
    assert cut.flow == {(1, 0): F(1), (2, 0): F(-1)}
    assert cut.rhs == F(1, 2)
    # cuts off the next fractional vertex
    pt = FractionalPoint(x={(0, 0): F(1), (2, 0): F(1, 2)}, y={(0, 0): F(1), (2, 0): F(1, 2)})
    assert cut.violation(pt) > 0
    valid, _ = validate_cut(cut, star_instance, ybound=3)
    assert valid


def test_flow_cutset_full_selection_scales_cutset(star_instance):
    rel = build_cutset(star_instance, U=[1])
    cut = flow_cutset_cut(rel, FlowCutSelection((0,), tuple(rel.A_plus), ()))
    base = cutset_cut(rel)
    r = cut.params["r"]
    assert cut.flow == {}
    assert cut.cap == {k: r * v for k, v in base.cap.items()}
    assert cut.rhs == r * base.rhs


def test_flow_cutset_rejects_degenerate(star_instance):
    rel = build_cutset(star_instance, U=[1])
    inst2 = two_node_instance(demand=F(2))
    rel2 = build_cutset(inst2, U=[1])
    with pytest.raises(ValueError):
        flow_cutset_cut(rel2, FlowCutSelection((0,), (0,), ()))


def test_flow_cutset_sequence_reaches_integrality(star_instance):
    from netdes_cuts.lp import build_relaxation, design_var
    from netdes_cuts.simplex import solve_lp

    rel = build_cutset(star_instance, U=[1])
    cuts = [
        cutset_cut(rel),
        flow_cutset_cut(rel, FlowCutSelection((0,), (0,), (2,))),
        flow_cutset_cut(rel, FlowCutSelection((0,), (1,), (2,))),
        flow_cutset_cut(rel, FlowCutSelection((0,), (0, 1), (2,))),
    ]
    model = build_relaxation(star_instance, cuts)
    sol = solve_lp(model.n_vars, model.rows, model.objective, model.upper, exact=True)
    assert sol.status == "optimal"
    assert sol.objective == F(1, 2)
    ys = [sol.x[design_var(star_instance, ai, 0)] for ai in range(3)]
    assert all(v.denominator == 1 for v in ys)


def test_separation_none_at_integral_feasible(star_instance):
    rel = build_cutset(star_instance, U=[1])
    pt = FractionalPoint(x={(0, 0): F(1, 2)}, y={(0, 0): F(1)})
    got = separate_flow_cutset(rel, (0,), ScaledPoint(star_instance, pt))
    assert got is None or got.violation(pt) <= 0


def test_separation_worked_point(star_instance):
    rel = build_cutset(star_instance, U=[1])
    pt = FractionalPoint(x={(0, 0): F(1), (2, 0): F(1, 2)}, y={(0, 0): F(1), (2, 0): F(1, 2)})
    cut = separate_flow_cutset(rel, (0,), ScaledPoint(star_instance, pt))
    assert cut is not None
    assert cut.params["S+"] == (0,)
    assert cut.params["S-"] == (2,)
    assert cut.violation(pt) == F(1, 4)


def test_separation_agrees_with_enumeration_zero_cbar():
    rng = random.Random(5)
    for seed in range(100):
        inst = generate_instance(
            seed=seed, nodes=rng.randint(3, 4), density=0.8, facilities=(1,),
            existing_capacity_prob=0.0,
        )
        if len(inst.commodities) == 0:
            continue
        U = [inst.nodes[0]]
        rel = build_cutset(inst, U)
        if not rel.A_plus:
            continue
        Q = tuple(range(len(inst.commodities)))
        pt = FractionalPoint(
            x={(ai, ki): F(rng.randint(0, 4), 4) for ai in range(len(inst.arcs)) for ki in Q},
            y={(ai, 0): F(rng.randint(0, 6), 4) for ai in range(len(inst.arcs))},
        )
        scaled = ScaledPoint(inst, pt)
        got = separate_flow_cutset(rel, Q, scaled)
        best, _ = flow_cutset_best_violation(rel, pt, Q)
        if got is None:
            assert best <= 0
        else:
            assert scored_violation(got, rel, scaled, Q, "flowcutset") == best


def test_commodity_subset_single_commodity(star_instance):
    rel = build_cutset(star_instance, U=[1])
    pt = FractionalPoint(x={(0, 0): F(1), (2, 0): F(1, 2)}, y={(0, 0): F(1), (2, 0): F(1, 2)})
    scaled = ScaledPoint(star_instance, pt)
    Q = separate_commodity_subset(rel, (0,), (2,), scaled)
    assert Q == (0,)
    pt_ok = FractionalPoint(x={(0, 0): F(1, 2)}, y={(0, 0): F(1)})
    assert separate_commodity_subset(rel, (0, 1), (), ScaledPoint(star_instance, pt_ok)) is None
    with pytest.raises(ValueError):
        separate_commodity_subset(rel, (2,), (), scaled)  # arc 2 crosses V -> U


def two_commodity_instance():
    return Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 3), Arc(2, 3), Arc(3, 1)],
        facilities=[Facility(1, (F(1), F(1), F(1)))],
        demand=DemandMatrix({(1, 3): F(1, 2), (2, 3): F(1, 3)}),
    )


def test_commodity_subset_matches_exhaustive():
    inst = two_commodity_instance()
    rel = build_cutset(inst, U=[1, 2])
    rng = random.Random(8)
    for _ in range(60):
        pt = FractionalPoint(
            x={(ai, ki): F(rng.randint(0, 3), 6) for ai in range(3) for ki in range(2)},
            y={(ai, 0): F(rng.randint(0, 5), 4) for ai in range(3)},
        )
        scaled = ScaledPoint(inst, pt)
        for S_plus in [(0,), (1,), (0, 1)]:
            got = separate_commodity_subset(rel, S_plus, (2,), scaled)
            best = F(0)
            best_Q = None
            for size in (1, 2):
                for Q in combinations(range(2), size):
                    try:
                        cut = flow_cutset_cut(rel, FlowCutSelection(Q, S_plus, (2,)))
                    except ValueError:
                        continue
                    v = cut.violation(pt)
                    if v > best:
                        best, best_Q = v, Q
            if got is None:
                assert best <= 0
            else:
                cut = flow_cutset_cut(rel, FlowCutSelection(got, S_plus, (2,)))
                assert cut.violation(pt) == best


def test_commodity_subset_breaks_ties_as_the_scan():
    """Two commodities with equal demand and equal flows tie on every
    score: the search returns what the exhaustive scan returns, so never
    the second singleton, and the singleton tie comes up."""
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 3), Arc(2, 3), Arc(3, 1)],
        facilities=[Facility(1, (F(1), F(1), F(1)))],
        demand=DemandMatrix({(1, 3): F(1, 2), (2, 3): F(1, 2)}),
    )
    rel = build_cutset(inst, U=[1, 2])
    assert relaxation_b(rel) == (F(1, 2), F(1, 2))
    rng = random.Random(21)
    firsts = 0
    for _ in range(60):
        flow = [F(rng.randint(0, 3), 6) for _ in range(3)]
        pt = FractionalPoint(
            x={(ai, ki): flow[ai] for ai in range(3) for ki in range(2)},
            y={(ai, 0): F(rng.randint(0, 5), 4) for ai in range(3)},
        )
        scaled = ScaledPoint(inst, pt)
        for S_plus in [(0,), (1,), (0, 1)]:
            got = separate_commodity_subset(rel, S_plus, (2,), scaled)
            assert got == reference_commodity_subset(rel, S_plus, (2,), pt)
            assert got != (1,)
            firsts += got == (0,)
    assert firsts >= 5, firsts


def test_commodity_subset_takes_a_commodity_of_negative_demand():
    """At the 8-node probe's round-0 point, on U = {3} with S+ = (10, 11)
    and S- = (19, 24), the demands crossing the cut are (-1, 0, 9/4, 0, 0,
    0, 0).  The most violated subset is (0, 2, 4), with violation 5/8: it
    holds the commodity of negative demand, so a search over subsets of
    the positive-demand commodities alone finds no violated cut here."""
    from netdes_cuts.lp import build_relaxation, solve

    inst = generate_instance(seed=3, nodes=8, density=0.5, facilities=(1, 3))
    pt = solve(build_relaxation(inst)).point(MAX_DENOMINATOR)
    rel = build_cutset(inst, U=(3,))
    assert relaxation_b(rel) == (F(-1), 0, F(9, 4), 0, 0, 0, 0)
    S_plus, S_minus = (10, 11), (19, 24)
    Q = separate_commodity_subset(rel, S_plus, S_minus, ScaledPoint(inst, pt))
    assert Q == (0, 2, 4) == reference_commodity_subset(rel, S_plus, S_minus, pt)
    assert flow_cutset_cut(rel, FlowCutSelection(Q, S_plus, S_minus)).violation(pt) == F(5, 8)
    assert flow_cutset_cut(rel, FlowCutSelection((2,), S_plus, S_minus)).violation(pt) <= 0


def test_commodity_subset_beats_singletons():
    inst = two_commodity_instance()
    rel = build_cutset(inst, U=[1, 2])
    rng = random.Random(13)
    for _ in range(40):
        pt = FractionalPoint(
            x={(ai, ki): F(rng.randint(0, 3), 6) for ai in range(3) for ki in range(2)},
            y={(ai, 0): F(rng.randint(0, 5), 4) for ai in range(3)},
        )
        got = separate_commodity_subset(rel, (0, 1), (), ScaledPoint(inst, pt))
        if got is None:
            continue
        got_cut = flow_cutset_cut(rel, FlowCutSelection(got, (0, 1), ()))
        for k in range(2):
            try:
                single = flow_cutset_cut(rel, FlowCutSelection((k,), (0, 1), ()))
            except ValueError:
                continue
            assert got_cut.violation(pt) >= single.violation(pt)


# -- multi-facility ------------------------------------------------------------------------


def test_multifacility_two_sizes_integer_lambda():
    for lam in (2, 3):
        inst = two_node_instance(demand=F(5, 2), caps=(1, lam))
        rel = build_cutset(inst, U=[1])
        cut = multifacility_cutset_cut(rel, FlowCutSelection((0,), (0,), (1,), facility=0))
        r = cut.params["r"]
        assert r == F(1, 2)
        assert cut.cap[(0, 0)] == r
        assert cut.cap[(0, 1)] == lam * r
        assert cut.cap[(1, 0)] == 1 - r
        assert cut.cap[(1, 1)] == lam * (1 - r)
        assert cut.rhs == r * 3


def test_multifacility_base_two():
    lam = 3
    inst = two_node_instance(demand=F(5, 2), caps=(1, lam))
    rel = build_cutset(inst, U=[1])
    cut = multifacility_cutset_cut(rel, FlowCutSelection((0,), (0,), (1,), facility=1))
    r2 = cut.params["r"]
    assert r2 == F(5, 2) - (F(5, 2) // lam) * lam
    assert cut.cap[(0, 0)] == min(F(1), r2)
    assert cut.cap[(0, 1)] == r2
    assert cut.cap[(1, 0)] == min(F(1), lam - r2)
    assert cut.cap[(1, 1)] == lam - r2


def test_multifacility_fractional_size_counterexample():
    """Integer-size coefficients are invalid for fractional sizes."""
    inst = two_node_instance(demand=F(5, 2), caps=(1, F(3, 2)))
    rel = build_cutset(inst, U=[1])
    phi_cut = multifacility_cutset_cut(
        rel, FlowCutSelection((0,), tuple(rel.A_plus), (), facility=0)
    )
    ok, _ = validate_cut(phi_cut, inst, ybound=3)
    assert ok
    # the would-be cut with the integer-lambda coefficient pattern
    from netdes_cuts.core import LinearCut

    r = phi_cut.params["r"]
    naive = LinearCut(
        flow={},
        cap={(0, 0): r, (0, 1): F(3, 2) * r},
        rhs=phi_cut.rhs,
        family="naive",
    )
    ok, counterexample = validate_cut(naive, inst, ybound=3)
    assert not ok
    assert counterexample.y[(0, 1)] >= 1  # a big-facility point breaks it


def test_phi_cut_reduces_to_flow_cutset_single_facility(star_instance):
    rel = build_cutset(star_instance, U=[1])
    selections = [
        FlowCutSelection((0,), S_plus, S_minus)
        for n_plus in range(len(rel.A_plus) + 1)
        for S_plus in combinations(rel.A_plus, n_plus)
        for n_minus in range(len(rel.A_minus) + 1)
        for S_minus in combinations(rel.A_minus, n_minus)
    ]
    assert len(selections) == 8
    for sel in selections:
        phi, single = multifacility_cutset_cut(rel, sel), flow_cutset_cut(rel, sel)
        assert (phi.flow, phi.cap, phi.rhs) == (single.flow, single.cap, single.rhs)


def test_separate_multifacility_zero_point():
    inst = two_node_instance(demand=F(3, 2), caps=(1, 3))
    rel = build_cutset(inst, U=[1])
    pt = FractionalPoint()
    cut = separate_multifacility(rel, 0, ScaledPoint(inst, pt))
    assert cut is not None
    assert set(cut.params["S+"]) == set(rel.A_plus)
    assert cut.violation(pt) > 0


def test_separate_multifacility_matches_enumeration():
    rng = random.Random(21)
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 3), Arc(2, 3), Arc(3, 1)],
        facilities=[Facility(1, (F(1),) * 3), Facility(3, (F(2),) * 3)],
        demand=DemandMatrix({(1, 3): F(3, 4), (2, 3): F(5, 6)}),
    )
    rel = build_cutset(inst, U=[1, 2])
    for _ in range(50):
        pt = FractionalPoint(
            x={(ai, ki): F(rng.randint(0, 3), 4) for ai in range(3) for ki in range(2)},
            y={(ai, mi): F(rng.randint(0, 3), 4) for ai in range(3) for mi in range(2)},
        )
        scaled = ScaledPoint(inst, pt)
        for s in (0, 1):
            got = separate_multifacility(rel, s, scaled)
            best, _ = multifacility_best_violation(rel, pt, s, (0, 1))
            if got is None:
                assert best <= 0
            else:
                assert scored_violation(got, rel, scaled, (0, 1), "mf", s) == best


def test_multifacility_most_violated_across_base_choice():
    inst = two_node_instance(demand=F(7, 3), caps=(1, 3))
    rel = build_cutset(inst, U=[1])
    pt = FractionalPoint(y={(0, 0): F(1, 3), (0, 1): F(1, 2)})
    scaled = ScaledPoint(inst, pt)
    found = [pair for s in (0, 1) for pair in cutset_cuts.separate_relaxation(rel, scaled, [(0,)], "mf", bases=(s,))]
    assert found
    best = max(violation for _, violation in found)
    for s in (0, 1):
        v, _ = multifacility_best_violation(rel, pt, s, (0,))
        assert best >= v


# -- integer kernel against the Fraction reference ------------------------------------------


def _random_coordinate(rng):
    """Zero, small-denominator or LP-like rational, sometimes negative."""
    kind = rng.random()
    if kind < 0.3:
        return F(0)
    d = rng.choice((1, 2, 3, 4, 6)) if kind < 0.7 else rng.randint(1, MAX_DENOMINATOR)
    return F(rng.randint(-d // 2, 3 * d), d)


def _random_separations():
    """240 random (relaxation, point, rng) triples: 1-3 facilities (a size
    3/2 among them), existing capacity on crossing arcs, zero and negative
    coordinates and point denominators up to MAX_DENOMINATOR."""
    rng = random.Random(2011)
    shapes = [(1,), (2,), (1, 3), (1, F(3, 2)), (F(3, 2), 4), (1, F(3, 2), 3)]
    for seed in range(240):
        inst = generate_instance(
            seed=seed, nodes=rng.randint(3, 4), density=0.7,
            facilities=shapes[seed % len(shapes)], existing_capacity_prob=0.6,
        )
        arcs = range(len(inst.arcs))
        pt = FractionalPoint(
            x={(a, k): _random_coordinate(rng) for a in arcs for k in range(len(inst.commodities))},
            y={(a, m): _random_coordinate(rng) for a in arcs for m in range(len(inst.facilities))},
        )
        U, V = rng.choice(list(two_partitions(inst.nodes)))
        yield build_cutset(inst, U, V), pt, rng


def _sampled_subsets(rel, rng, count=3):
    subsets = [Q for n in range(1, len(rel.b_num) + 1) for Q in combinations(range(len(rel.b_num)), n)]
    return rng.sample(subsets, min(count, len(subsets)))


def _shifting_separations():
    """60 (relaxation, point, rng) triples on which the greedy scan's
    remainder moves at every pass.  A star from node 1, cut at U = {1}:
    four arcs out of it and one back, every one with existing capacity.
    On the facility of size c and in units of c/10, the arcs out carry
    existing capacity 2, 2, 2 and 3 plus whole multiples of c, and take
    part in S+ while the remainder stays below 1.5, 3, 5 and 7; the arc
    back always joins S-, and its existing capacity is a multiple of c.
    The remainder starts at 2, so the scan selects three, two, one, none
    and all four arcs out at remainders 2, 4, 6, 8 and 1: five distinct
    selections, the last one scored at the cap on a moved remainder with
    ``y`` on S-.  Facility sets (c,) and (c, 3), c in 1, 2 and 3/2."""
    rng = random.Random(1919)
    for trial in range(60):
        c = (F(1), F(2), F(3, 2))[trial % 3]
        unit = c / 10
        facilities = (c,) if trial % 2 else (c, F(3))
        roles = rng.sample(range(4), 4)  # out-arc i plays role roles[i]
        cbar = [unit * (2, 2, 2, 3)[role] + c * rng.randint(0, 1) for role in roles]
        arcs = [Arc(1, head, cbar[i]) for i, head in enumerate((2, 3, 4, 5))] + [Arc(2, 1, c * rng.randint(1, 2))]
        demand = sum(cbar, F(0)) + 2 * unit + c * rng.randint(0, 2)
        inst = Instance(
            nodes=[1, 2, 3, 4, 5],
            arcs=arcs,
            facilities=[Facility(size, tuple(F(1) for _ in arcs)) for size in facilities],
            demand=DemandMatrix({(1, 2): demand}),
        )
        x, y = {}, {}
        for i, role in enumerate(roles):
            y[(i, 0)] = F(rng.randint(1, 2))
            x[(i, 0)] = y[(i, 0)] * unit * ((F(3, 2), 3, 5, 7)[role] + F(rng.randint(-2, 2), 10))
        y[(4, 0)], x[(4, 0)] = F(1), c
        yield build_cutset(inst, [1]), FractionalPoint(x=x, y=y), rng


def test_separators_match_fraction_reference():
    """Both separators return the reference greedy's cut, and their pass
    yields its exact violation, on 240 random (instance, point) pairs and on the
    60 whose remainder shifts at every pass, where the scan scores at
    least three distinct selections and often runs to ``GREEDY_ROUNDS``."""
    compared = distinct3 = capped = 0
    for rel, pt, rng in chain(_random_separations(), _shifting_separations()):
        scaled = ScaledPoint(rel.instance, pt)
        for Q in _sampled_subsets(rel, rng):
            for m in range(len(rel.instance.facilities)):
                passes_mf, passes_fcs = [], []
                pairs = [
                    ("mf", separate_multifacility(rel, m, scaled, Q=Q),
                     reference_multifacility(rel, m, pt, Q=Q, passes=passes_mf)),
                    ("flowcutset", separate_flow_cutset(rel, Q, scaled, facility=m),
                     reference_flow_cutset(rel, Q, pt, facility=m, passes=passes_fcs)),
                ]
                for family, got, want in pairs:
                    compared += want is not None
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.normalized_key() == want.normalized_key()
                        assert got.params == want.params
                        assert got.family == want.family
                        assert scored_violation(got, rel, scaled, Q, family, m) == want.violation(pt)
                for passes in (passes_mf, passes_fcs):
                    distinct3 += len(set(passes)) >= 3
                    capped += len(set(passes)) == GREEDY_ROUNDS
    assert compared > 600 and distinct3 > 100 and capped > 100, (compared, distinct3, capped)


def _assert_identical_cut(got, want):
    assert (got.flow, got.cap, got.rhs, got.family, got.params) == (want.flow, want.cap, want.rhs, want.family, want.params)
    assert [type(v) for v in (*got.flow.values(), *got.cap.values(), got.rhs, got.params["r"])] == [
        type(v) for v in (*want.flow.values(), *want.cap.values(), want.rhs, want.params["r"])
    ]
    assert type(got.params["eta"]) is int
    # the key the builder recorded is the one the coefficients give
    assert got.normalized_key() == LinearCut(got.flow, got.cap, got.rhs, got.family).normalized_key()


def _resized(rel, m, size):
    """``rel`` built on a copy of its instance whose facility ``m`` has
    ``size``; its A+, A- and b do not read the size."""
    inst = rel.instance
    facilities = [Facility(size, f.costs) if mi == m else f for mi, f in enumerate(inst.facilities)]
    copy = Instance(inst.nodes, inst.arcs, facilities, inst.demand, inst.flow_costs, inst.mode, inst.unsplittable, inst.name)
    return build_cutset(copy, rel.U, rel.V)


def test_integer_cut_matches_fraction_reference():
    """On the 240 pairs, the cut each separator builds on integers equals
    the Fraction reference builder's in flow, cap, rhs, family and params,
    and the violation its pass yields is the exact one; the cut-set builders
    agree with the reference on random selections, also on a copy of the
    instance with another size of the base facility, which the reference
    takes as ``capacity=``."""
    compared = built = 0
    pick = random.Random(12)  # the selections; the pairs' own generator stays untouched
    for rel, pt, rng in _random_separations():
        scaled = ScaledPoint(rel.instance, pt)
        for Q in _sampled_subsets(rel, rng):
            for m in range(len(rel.instance.facilities)):
                pairs = [
                    ("mf", separate_multifacility(rel, m, scaled, Q=Q), reference_multifacility(rel, m, pt, Q=Q)),
                    ("flowcutset", separate_flow_cutset(rel, Q, scaled, facility=m),
                     reference_flow_cutset(rel, Q, pt, facility=m)),
                ]
                for family, got, want in pairs:
                    assert (got is None) == (want is None)
                    if got is not None:
                        compared += 1
                        _assert_identical_cut(got, want)
                        violation = scored_violation(got, rel, scaled, Q, family, m)
                        assert violation == got.rhs - lhs_value(got, pt) == want.violation(pt)
                sel = FlowCutSelection(
                    Q, tuple(a for a in rel.A_plus if pick.random() < 0.5),
                    tuple(a for a in rel.A_minus if pick.random() < 0.5), facility=m,
                )
                builders = [
                    (lambda: multifacility_cutset_cut(rel, sel), lambda: reference_multifacility_cutset_cut(rel, sel)),
                    (lambda: flow_cutset_cut(rel, sel), lambda: reference_flow_cutset_cut(rel, sel)),
                    (lambda: flow_cutset_cut(_resized(rel, m, F(5, 2)), sel),
                     lambda: reference_flow_cutset_cut(rel, sel, capacity=F(5, 2))),
                ]
                for build, reference in builders:
                    try:
                        want = reference()
                    except ValueError:
                        with pytest.raises(ValueError):
                            build()
                        continue
                    built += 1
                    _assert_identical_cut(build(), want)
    assert compared > 500 and built > 500


def test_separators_skip_found_keys():
    """A separator given the key of the cut it would return builds nothing
    and returns None; given other keys it returns the same cut."""
    skipped = 0
    for rel, pt, rng in _random_separations():
        scaled = ScaledPoint(rel.instance, pt)
        for Q in _sampled_subsets(rel, rng):
            for m in range(len(rel.instance.facilities)):
                for separate in (
                    lambda skip: separate_multifacility(rel, m, scaled, Q=Q, skip=skip),
                    lambda skip: separate_flow_cutset(rel, Q, scaled, facility=m, skip=skip),
                ):
                    cut = separate(())
                    if cut is None:
                        continue
                    other = separate({((), (), 1)})
                    assert (other.flow, other.cap, other.rhs, other.params) == (cut.flow, cut.cap, cut.rhs, cut.params)
                    assert separate({cut.normalized_key()}) is None
                    skipped += 1
    assert skipped > 500


def _assert_same_cut(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.normalized_key() == want.normalized_key()
        assert got.params == want.params
        assert got.family == want.family


def test_a_point_changed_in_place_is_separated_as_a_fresh_copy():
    """The round-0 point of the seed-3 4-node (1,) instance, separated on U
    = {1, 2, 3}, then changed in place: ``y`` raised to 100 on every
    crossing arc.  A ``ScaledPoint`` made after the change reads the new
    coordinates, so both separators find what they find at a deep copy of
    the changed point, nothing, and the cut found before is violated by
    -99 there."""
    from netdes_cuts.lp import build_relaxation, solve

    inst = generate_instance(seed=3, nodes=4, facilities=(1,))
    pt = solve(build_relaxation(inst)).point(MAX_DENOMINATOR)
    rel = build_cutset(inst, (1, 2, 3), (4,))
    Q = tuple(range(len(inst.commodities)))
    before = separate_flow_cutset(rel, Q, ScaledPoint(inst, pt))
    assert before is not None and before.violation(pt) == F(1, 4)
    for a in rel.A_plus + rel.A_minus:
        pt.y[(a, 0)] = F(100)
    for point in (pt, copy.deepcopy(pt)):
        scaled = ScaledPoint(inst, point)
        assert separate_flow_cutset(rel, Q, scaled) is None
        assert separate_multifacility(rel, 0, scaled, Q=Q) is None
        assert before.violation(scaled) == before.violation(point) == -99


def test_integer_view_follows_the_point():
    """Two relaxations of one instance separate at point A, then at point
    B, then at A again, each point scaled once: for every Q and base
    facility both separators return the Fraction reference's cut, so the
    view a scaled point keeps of each relaxation is that point's, also
    when A's views are met again, and the two views of one scaled point
    share its one scaling."""
    rng = random.Random(1111)
    shapes = [(1,), (1, 3), (1, F(3, 2)), (F(3, 2), 4)]
    compared = 0
    for seed in range(16):
        inst = generate_instance(
            seed=seed, nodes=4, density=0.7, facilities=shapes[seed % len(shapes)],
            existing_capacity_prob=0.6,
        )
        arcs, facilities = range(len(inst.arcs)), range(len(inst.facilities))

        def random_point():
            return FractionalPoint(
                x={(a, k): _random_coordinate(rng) for a in arcs for k in range(len(inst.commodities))},
                y={(a, m): _random_coordinate(rng) for a in arcs for m in facilities},
            )

        A, B = random_point(), random_point()
        scaled_A, scaled_B = ScaledPoint(inst, A), ScaledPoint(inst, B)
        rels = [build_cutset(inst, U, V) for U, V in rng.sample(list(two_partitions(inst.nodes)), 2)]
        commodities = range(len(inst.commodities))
        subsets = [Q for n in range(1, len(commodities) + 1) for Q in combinations(commodities, n)]
        for turn, (pt, scaled) in enumerate(((A, scaled_A), (B, scaled_B), (A, scaled_A))):
            for rel in rels[::-1] if turn % 2 else rels:
                for Q in subsets:
                    for m in facilities:
                        want = reference_multifacility(rel, m, pt, Q=Q)
                        _assert_same_cut(separate_multifacility(rel, m, scaled, Q=Q), want)
                        compared += want is not None
                        want = reference_flow_cutset(rel, Q, pt, facility=m)
                        _assert_same_cut(separate_flow_cutset(rel, Q, scaled, facility=m), want)
                        compared += want is not None
            first, second = (scaled.view(rel) for rel in rels)
            assert first.D == second.D == scaled.D and first.y is second.y is scaled.y
    assert compared > 600


def _random_path(inst, rng, src, dst):
    """Arc indices of a path from ``src`` to ``dst``, found by a search
    that visits the out-arcs in random order."""
    parent, frontier = {src: None}, [src]
    while dst not in parent:
        node = frontier.pop(rng.randrange(len(frontier)))
        for ai in rng.sample(inst.out_arcs[node], len(inst.out_arcs[node])):
            head = inst.arcs[ai].head
            if head not in parent:
                parent[head] = ai
                frontier.append(head)
    path, node = [], dst
    while parent[node] is not None:
        path.append(parent[node])
        node = inst.arcs[parent[node]].tail
    return path


def _mixed_integer_points():
    """(instance, point) pairs whose point lies in the mixed-integer set of
    every cut-set relaxation: random 3-5-node instances with facility sets
    (1,), (1, 3) and (3/2, 4) and existing capacity on some arcs; each
    demand is routed in one or two parts along random paths, and each arc
    gets random non-negative integer installations that, with its existing
    capacity, carry its load."""
    rng = random.Random(1818)
    shapes = [(1,), (1, 3), (F(3, 2), 4)]
    for seed in range(36):
        inst = generate_instance(
            seed=seed, nodes=rng.randint(3, 5), density=0.6,
            facilities=shapes[seed % len(shapes)], existing_capacity_prob=0.4,
        )
        x = {}
        for k, com in enumerate(inst.commodities):
            for node, w in com.net_demand.items():
                if w <= 0:
                    continue
                share = rng.choice((F(1), F(1, 2), F(1, 3)))
                for part in (share, 1 - share) if share < 1 else (share,):
                    for ai in _random_path(inst, rng, com.source, node):
                        x[(ai, k)] = x.get((ai, k), F(0)) + part * w
        y = {}
        for ai, arc in enumerate(inst.arcs):
            load = sum((v for (a, _), v in x.items() if a == ai), F(0))
            units = [rng.randint(0, 1) for _ in inst.facilities]
            while arc.existing_capacity + sum(c * u for c, u in zip(inst.facility_capacities(), units)) < load:
                units[rng.randrange(len(units))] += 1
            y.update(((ai, m), F(u)) for m, u in enumerate(units) if u)
        yield inst, FractionalPoint(x=x, y=y), rng


def _sampled_relaxations(inst, rng):
    return [build_cutset(inst, U, V) for U, V in rng.sample(list(two_partitions(inst.nodes)), 4)]


def _separations_against_references(rel, pt, scaled, rng):
    """(separator's cut, reference's cut, skip possible) for each base
    facility and up to four commodity subsets Q of ``rel``, the separators
    given ``scaled``, the ``ScaledPoint`` of ``pt``; the
    flow-cut-set cut on one facility of several leaves the others'
    capacity out, so it is not valid for the mixed-integer set and cannot
    be skipped."""
    n_facilities = len(rel.instance.facilities)
    for Q in _sampled_subsets(rel, rng, 4):
        for m in range(n_facilities):
            yield separate_multifacility(rel, m, scaled, Q=Q), reference_multifacility(rel, m, pt, Q=Q), True
            yield (separate_flow_cutset(rel, Q, scaled, facility=m), reference_flow_cutset(rel, Q, pt, facility=m),
                   n_facilities == 1)


def test_mixed_integer_points_are_skipped_and_violate_nothing():
    """At points in a relaxation's mixed-integer set the view says so, and
    neither the Fraction references nor the separators find a violated
    cut, for each sampled Q and base facility, except a flow-cut-set cut
    on one facility of several, which the separators must then still
    find."""
    relaxations = separations = unskippable = 0
    for inst, pt, rng in _mixed_integer_points():
        scaled = ScaledPoint(inst, pt)
        for rel in _sampled_relaxations(inst, rng):
            assert in_cutset_mixed_integer_set(rel, pt) and scaled.view(rel).mixed_integer
            relaxations += 1
            for got, want, skippable in _separations_against_references(rel, pt, scaled, rng):
                if skippable:
                    assert want is None and got is None
                    separations += 1
                else:
                    _assert_same_cut(got, want)
                    unskippable += want is not None
    assert relaxations > 100 and separations > 500 and unskippable > 0


def test_points_one_step_off_the_mixed_integer_set_are_not_skipped():
    """The points above moved off the set by one step each: one ``y`` up or
    down by 1/2 or down by 1, one unused installation to -1, one unused
    flow to -1/10**6, or one commodity's flow on one arc short by
    1/10**6.  Each view's ``mixed_integer`` is the Fraction check's, every
    step takes some relaxations off the set, and both separators return
    the Fraction reference's cut for each sampled Q and base facility."""
    steps = dict.fromkeys(("y+1/2", "y-1/2", "y-1", "y<0", "x<0", "balance"), 0)
    violated = 0
    for inst, pt, rng in _mixed_integer_points():
        arcs = range(len(inst.arcs))
        unused_x = [(a, k) for a in arcs for k in range(len(inst.commodities)) if (a, k) not in pt.x]
        unused_y = [(a, m) for a in arcs for m in range(len(inst.facilities)) if (a, m) not in pt.y]
        moves = [
            ("y+1/2", "y", sorted(pt.y), F(1, 2)),
            ("y-1/2", "y", sorted(pt.y), -F(1, 2)),
            ("y-1", "y", sorted(pt.y), -F(1)),
            ("y<0", "y", unused_y, -F(1)),
            ("x<0", "x", unused_x, -F(1, 10**6)),
            ("balance", "x", sorted(pt.x), -F(1, 10**6)),
        ]
        for step, coords, keys, delta in moves:
            if not keys:
                continue
            key = rng.choice(keys)
            moved = FractionalPoint(x=dict(pt.x), y=dict(pt.y))
            coordinates = getattr(moved, coords)
            coordinates[key] = coordinates.get(key, F(0)) + delta
            scaled = ScaledPoint(inst, moved)
            for rel in _sampled_relaxations(inst, rng):
                view = scaled.view(rel)
                assert view.mixed_integer == in_cutset_mixed_integer_set(rel, moved)
                steps[step] += not view.mixed_integer
                for got, want, skippable in _separations_against_references(rel, moved, scaled, rng):
                    _assert_same_cut(got, want)
                    # cuts an over-eager skip would lose
                    violated += want is not None and skippable and not view.mixed_integer
    assert min(steps.values()) > 20 and violated > 50, (steps, violated)


def _pair_commodity_instance(rng, n_commodities, existing_capacity_prob):
    """Five nodes, ``n_commodities`` pair commodities of small rational demand."""
    nodes = [1, 2, 3, 4, 5]
    pairs = [(i, j) for i in nodes for j in nodes if i != j]
    cycle = [(i, i % 5 + 1) for i in nodes]
    arcs = [
        Arc(i, j, F(rng.randint(1, 2), rng.choice((1, 2))) if rng.random() < existing_capacity_prob else 0)
        for i, j in pairs if (i, j) in cycle or rng.random() < 0.6
    ]
    size = rng.choice((F(1), F(2), F(3, 2)))
    demand = {p: F(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6))) for p in rng.sample(pairs, n_commodities)}
    return Instance(
        nodes=nodes, arcs=arcs, facilities=[Facility(size, tuple(F(1) for _ in arcs))],
        demand=DemandMatrix(demand), mode="disaggregated",
    )


def test_commodity_subset_matches_fraction_reference():
    """The integer subset search returns the first best Q of the
    exhaustive Fraction scan on random relaxations with 1-12 commodities,
    whose demands crossing the cut may be negative.  Points are either
    inside the box where every crossing flow is a share of a positive
    demand, with capacity only on S+, or wild (negative coordinates,
    denominators up to MAX_DENOMINATOR).  In the box, a commodity with no
    positive demand carries no flow, so adding it to a subset of zero
    ``b_k`` changes no score and the best score ties across sizes.
    Thirteen commodities raise.  Further relaxations with 2-8 commodities
    have S- carrying both installations and existing capacity."""
    rng = random.Random(4095)
    found = 0
    for n in range(1, 14):
        for trial in range(2 if 9 <= n <= 12 else 6):
            inst = _pair_commodity_instance(rng, n, existing_capacity_prob=0.4 if trial % 2 else 0)
            U, V = rng.choice([(U, V) for U, V in two_partitions(inst.nodes) if build_cutset(inst, U, V).A_plus])
            rel = build_cutset(inst, U, V)
            S_plus = tuple(a for a in rel.A_plus if rng.random() < 0.6)
            S_minus = tuple(a for a in rel.A_minus if rng.random() < 0.4)
            if trial % 3 == 2:
                coordinate = _random_coordinate
                pt = FractionalPoint(
                    x={(a, k): coordinate(rng) for a in range(len(inst.arcs)) for k in range(n)},
                    y={(a, 0): coordinate(rng) for a in range(len(inst.arcs))},
                )
            else:
                share = len(rel.A_plus)
                pt = FractionalPoint(
                    x={(a, k): relaxation_b(rel)[k] * F(rng.randint(0, 4), 4 * share)
                       for a in rel.A_plus for k in range(n) if rel.b_num[k] > 0},
                    y={(a, 0): F(rng.randint(0, 8), rng.choice((1, 2, 3))) for a in S_plus},
                )
            scaled = ScaledPoint(inst, pt)
            if n > 12:
                with pytest.raises(ValueError):
                    separate_commodity_subset(rel, S_plus, S_minus, scaled)
                continue
            got = separate_commodity_subset(rel, S_plus, S_minus, scaled)
            assert got == reference_commodity_subset(rel, S_plus, S_minus, pt)
            found += got is not None
    assert found >= 10
    # S- carries both installations and existing capacity, so the score
    # of every subset has a y(S-) term and a cbar(S-) shift
    rng = random.Random(4096)
    carried = 0
    for n in range(2, 9):
        for _ in range(4):
            inst = _pair_commodity_instance(rng, n, existing_capacity_prob=1)
            rel = rng.choice([rel for rel in (build_cutset(inst, U, V) for U, V in two_partitions(inst.nodes))
                              if rel.A_plus and rel.A_minus])
            S_plus = tuple(a for a in rel.A_plus if rng.random() < 0.6)
            pt = FractionalPoint(
                x={(a, k): _random_coordinate(rng) for a in range(len(inst.arcs)) for k in range(n)},
                y={(a, 0): F(rng.randint(1, 6), rng.choice((1, 2, 3))) for a in range(len(inst.arcs))},
            )
            got = separate_commodity_subset(rel, S_plus, rel.A_minus, ScaledPoint(inst, pt))
            assert got == reference_commodity_subset(rel, S_plus, rel.A_minus, pt)
            carried += got is not None
    assert carried >= 10, carried


# -- what an integer view memoizes -------------------------------------------------


def _null_commodity_separations():
    """(relaxation, point, rng, null commodities) on random disaggregated
    instances with 1-2 facilities and existing capacity: each relaxation
    has commodities of zero ``b_k``, and the point's flow of each is zero on
    every crossing arc while its other coordinates, ``y`` too, may be
    negative."""
    rng = random.Random(2525)
    shapes = [(1,), (1, 3), (F(3, 2), 4)]
    for seed in range(60):
        inst = generate_instance(
            seed=seed, nodes=4, density=0.7, facilities=shapes[seed % len(shapes)],
            mode="disaggregated", existing_capacity_prob=0.6,
        )
        arcs, facilities = range(len(inst.arcs)), range(len(inst.facilities))
        for U, V in rng.sample(list(two_partitions(inst.nodes)), 3):
            rel = build_cutset(inst, U, V)
            null = [k for k, b_k in enumerate(rel.b_num) if b_k == 0]
            if not rel.A_plus or not null:
                continue
            crossing = set(rel.A_plus + rel.A_minus)
            pt = FractionalPoint(
                x={(a, k): _random_coordinate(rng) for a in arcs for k in range(len(inst.commodities))
                   if not (k in null and a in crossing)},
                y={(a, m): _random_coordinate(rng) - F(1, 2) for a in arcs for m in facilities},
            )
            yield rel, pt, rng, null


def _separators(rel, pt, scaled, m):
    """Both greedy separators on base facility m, given ``scaled``, the
    ``ScaledPoint`` of ``pt``, with their families and references."""
    return [
        ("mf", lambda Q: separate_multifacility(rel, m, scaled, Q=Q),
         lambda Q: reference_multifacility(rel, m, pt, Q=Q)),
        ("flowcutset", lambda Q: separate_flow_cutset(rel, Q, scaled, facility=m),
         lambda Q: reference_flow_cutset(rel, Q, pt, facility=m)),
    ]


def test_a_null_commodity_changes_no_selection_and_needs_no_scan(monkeypatch):
    """A commodity of zero ``b_k`` and no flow on any crossing arc changes
    neither ``b_Q`` nor a flow: both separators on Q and on Q with such a
    commodity k give the same S+, S- and score, the second from the first
    one's scan, and the second cut, the Fraction reference's, names k in
    its flow terms whenever it has some."""
    scans = []
    scan = cutset_cuts._greedy_scan
    monkeypatch.setattr(cutset_cuts, "_greedy_scan", lambda *args: scans.append(args[2]) or scan(*args))
    compared = named = 0
    for rel, pt, rng, null in _null_commodity_separations():
        scaled = ScaledPoint(rel.instance, pt)
        others = [k for k in range(len(rel.b_num)) if k not in null]
        for Q in [Q for n in range(1, len(others) + 1) for Q in combinations(others, n)][:4]:
            k = rng.choice(null)
            with_k = tuple(sorted(Q + (k,)))
            for m in range(len(rel.instance.facilities)):
                for family, separate, reference in _separators(rel, pt, scaled, m):
                    first = separate(Q)
                    done = len(scans)
                    second = separate(with_k)
                    assert len(scans) == done
                    _assert_same_cut(second, reference(with_k))
                    assert (first is None) == (second is None)
                    if first is None:
                        continue
                    compared += 1
                    assert (first.params["S+"], first.params["S-"]) == (second.params["S+"], second.params["S-"])
                    assert (scored_violation(first, rel, scaled, Q, family, m)
                            == scored_violation(second, rel, scaled, with_k, family, m))
                    assert second.params["Q"] == with_k
                    if first.flow:
                        named += 1
                        assert {j for _, j in second.flow} == {j for _, j in first.flow} | {k}
    assert compared > 100 and named > 50, (compared, named)


def test_a_subset_of_null_commodities_alone_is_still_separated():
    """Q of null commodities alone has ``b_Q = 0`` and no flow, but at a
    point with negative ``y`` its pure capacity cut can be violated: both
    separators return the Fraction reference's cut there."""
    violated = 0
    for rel, pt, rng, null in _null_commodity_separations():
        scaled = ScaledPoint(rel.instance, pt)
        for Q in (tuple(null[:1]), tuple(null)):
            for m in range(len(rel.instance.facilities)):
                for _, separate, reference in _separators(rel, pt, scaled, m):
                    want = reference(Q)
                    _assert_same_cut(separate(Q), want)
                    violated += want is not None
    assert violated > 50, violated


def _full_sums(rel, pt, view, Q):
    """``b_Q`` and the per-arc flows of Q, summed in Fractions and scaled."""
    D = view.D
    flows = {a: D * D * sum((pt.x.get((a, k), F(0)) for k in Q), F(0)) for a in rel.A_plus + rel.A_minus}
    return D * sum((relaxation_b(rel)[k] for k in Q), F(0)), flows


def test_subset_flows_from_their_prefix_are_the_full_sums():
    """``IntegerView.commodities`` gives each subset's ``b_Q`` and flows as
    the full sums do, both in ``_commodity_subsets`` order, where every
    subset of two or more commodities up to ``Q_SUBSET_LIMIT`` finds its
    prefix memoized, and shuffled, where a missing prefix is made on the
    way, so that after each call every prefix of the subset is memoized;
    on random relaxations of 1-4 commodities and of 7-12, where the
    subsets above ``Q_SUBSET_LIMIT`` end with the alternation's."""
    rng = random.Random(3131)
    cases = [(rel, pt) for rel, pt, _ in _random_separations()][:60]
    for n in range(Q_SUBSET_LIMIT + 1, 13):
        for _ in range(4):
            inst = _pair_commodity_instance(rng, n, existing_capacity_prob=0.4)
            rel = rng.choice([rel for rel in (build_cutset(inst, U, V) for U, V in two_partitions(inst.nodes))
                              if rel.A_plus])
            pt = FractionalPoint(
                x={(a, k): _random_coordinate(rng) for a in range(len(inst.arcs)) for k in range(n)},
                y={(a, 0): _random_coordinate(rng) for a in range(len(inst.arcs))},
            )
            cases.append((rel, pt))
    checked = alternations = derived = made = 0  # made: a subset of 2 or more whose prefix was made on the way
    for rel, pt in cases:
        subsets = list(_commodity_subsets(rel, ScaledPoint(rel.instance, pt)))
        n = len(rel.b_num)
        alternations += n > Q_SUBSET_LIMIT and len(subsets) > len({tuple(range(n)), rel.positive_commodities()}) + n
        shuffled = rng.sample(subsets, len(subsets))
        for order in (subsets, shuffled):
            point = FractionalPoint(x=dict(pt.x), y=dict(pt.y))
            view = ScaledPoint(rel.instance, point).view(rel)  # a fresh view with an empty memo
            for Q in order:
                prefixed = Q[:-1] in view._by_Q
                if order is subsets and n <= Q_SUBSET_LIMIT and len(Q) > 1:
                    assert prefixed
                b_Q, flow = view.commodities(Q)
                assert (b_Q, flow) == _full_sums(rel, point, view, Q)
                assert all(Q[:i] in view._by_Q for i in range(len(Q) + 1))
                derived += prefixed
                made += len(Q) > 1 and not prefixed
                checked += 1
    assert checked > 1000 and alternations > 5 and derived > 200 and made > 50, (
        checked, alternations, derived, made)


def test_facet_report_matches_the_fraction_reference():
    """Every ``mf`` cut's params, its ``facet_report`` read from the view's
    integers among them, are the Fraction reference builder's, byte for
    byte in their repr, for built and for separated cuts; commodities of
    negative, zero and positive ``b_k`` make ``all_demands_positive`` go
    both ways, and ``remainder_positive`` holds on every built cut."""
    rng = random.Random(4343)
    reports = []
    for seed in range(40):
        inst = generate_instance(seed=seed, nodes=4, density=0.7, facilities=((1, 3), (F(3, 2), 4))[seed % 2],
                                 mode="disaggregated", existing_capacity_prob=0.5)
        arcs, facilities = range(len(inst.arcs)), range(len(inst.facilities))
        pt = FractionalPoint(
            x={(a, k): _random_coordinate(rng) for a in arcs for k in range(len(inst.commodities))},
            y={(a, m): _random_coordinate(rng) for a in arcs for m in facilities},
        )
        scaled = ScaledPoint(inst, pt)
        for U, V in rng.sample(list(two_partitions(inst.nodes)), 3):
            rel = build_cutset(inst, U, V)
            for Q in _sampled_subsets(rel, rng, 4):
                for m in facilities:
                    sel = FlowCutSelection(Q, tuple(a for a in rel.A_plus if rng.random() < 0.5),
                                           tuple(a for a in rel.A_minus if rng.random() < 0.5), facility=m)
                    pairs = [(separate_multifacility(rel, m, scaled, Q=Q), reference_multifacility(rel, m, pt, Q=Q))]
                    try:
                        pairs.append((multifacility_cutset_cut(rel, sel), reference_multifacility_cutset_cut(rel, sel)))
                    except ValueError:
                        pass
                    for got, want in pairs:
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert repr(got.params) == repr(want.params)
                            reports.append(got.params["facet_report"])
    assert all(report["remainder_positive"] for report in reports)
    assert {report["all_demands_positive"] for report in reports} == {True, False}
    assert len(reports) > 500, len(reports)


def _reference_winners(rel, pt, subsets, family):
    """The per-subset ``Fraction`` references' winners, per base facility
    and subset, in that order, as one ``separate_relaxation`` pass meets
    them (None where a scan finds nothing)."""
    facilities = range(len(rel.instance.facilities))
    if family == "mf":
        return [reference_multifacility(rel, s, pt, Q=Q) for s in facilities for Q in subsets]
    return [reference_flow_cutset(rel, Q, pt, facility=s) for s in facilities for Q in subsets]


def test_one_pass_per_relaxation_matches_the_per_subset_references():
    """One ``separate_relaxation`` pass per relaxation, family and eps,
    its skip set taking each yielded key as the engine's does and shared
    by every pass on a point, yields the per-subset references' cuts
    violated by more than eps whose keys it has not taken, in order, with
    their keys, params and families, each with its exact violation; on
    random points, on points whose remainder moves at every
    scan (existing capacity on crossing arcs) and on relaxations with null
    commodities, at an eps that refuses many winners and at one that
    admits most."""
    cases = [(rel, pt) for rel, pt, _ in _random_separations()][:50]
    cases += [(rel, pt) for rel, pt, _ in _shifting_separations()][:20]
    cases += [(rel, pt) for rel, pt, _, _ in _null_commodity_separations()][:40]
    yielded = refused = skipped = 0
    for rel, pt in cases:
        scaled = ScaledPoint(rel.instance, pt)
        subsets = list(_commodity_subsets(rel, scaled))
        winners = {family: _reference_winners(rel, pt, subsets, family) for family in ("flowcutset", "mf")}
        found, want_found = set(), set()
        for eps in (F(1), F(1, 10**6)):
            for family, cuts in winners.items():
                want = []
                for cut in cuts:
                    if cut is None:
                        continue
                    refused += cut.violation(pt) <= eps
                    if cut.violation(pt) > eps:
                        skipped += cut.normalized_key() in want_found
                        if cut.normalized_key() not in want_found:
                            want_found.add(cut.normalized_key())
                            want.append(cut)
                got = []
                for cut, violation in cutset_cuts.separate_relaxation(rel, scaled, subsets, family, eps, found):
                    found.add(cut.normalized_key())
                    got.append((cut, violation))
                assert [(c.normalized_key(), c.params, c.family) for c, _ in got] == [
                    (c.normalized_key(), c.params, c.family) for c in want]
                assert [violation for _, violation in got] == [c.violation(pt) for c in want]
                yielded += len(got)
        assert found == want_found
    assert yielded > 1000 and refused > 200 and skipped > 1000, (yielded, refused, skipped)


def test_a_winner_violated_by_exactly_eps_is_not_admitted():
    """A pass admits a winner on ints only when its violation exceeds eps:
    at eps equal to a single-subset winner's exact violation it yields
    nothing, and 1/10**12 below it yields that cut, for both families."""
    checked = 0
    for rel, pt, rng in list(_random_separations())[:60]:
        scaled = ScaledPoint(rel.instance, pt)
        for Q in _sampled_subsets(rel, rng):
            for family, separate in (("flowcutset", lambda: separate_flow_cutset(rel, Q, scaled)),
                                     ("mf", lambda: separate_multifacility(rel, 0, scaled, Q=Q))):
                cut = separate()
                if cut is None:
                    continue
                violation = cut.violation(scaled)
                for eps, admitted in ((violation, False), (violation - F(1, 10**12), True)):
                    got = list(cutset_cuts.separate_relaxation(rel, scaled, [Q], family, eps, bases=(0,)))
                    assert [c.normalized_key() for c, _ in got] == ([cut.normalized_key()] if admitted else [])
                checked += 1
    assert checked > 100, checked
