import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from netdes_cuts import engine, lp, simplex
from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance, LinearCut, generate_instance
from netdes_cuts.engine import Config, cutting_plane_loop
from netdes_cuts.lp import (
    RoutingLP,
    build_relaxation,
    check_feasible_routing,
    column_keys,
    design_var,
    proves_unroutable,
    routing_var,
    shortest_path_potentials,
    solve,
)
from netdes_cuts.oracle import brute_force_ip
from netdes_cuts.partition_cuts import separate_metric
from netdes_cuts.simplex import LPResult, solve_lp

from helpers import (
    GOLDEN_4_NODE,
    cone_violations,
    criterion_10_sample,
    demand_total,
    reference_build_relaxation,
    reference_point,
    routable,
)


def single_arc_instance(capacity=F(0), demand=F(1)):
    return Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2, capacity)],
        facilities=[Facility(1, (F(1),))],
        demand=DemandMatrix({(1, 2): demand}),
    )


def test_row_counts():
    model = build_relaxation(single_arc_instance())
    assert [sense for _, sense, _ in model.rows] == ["=", "=", "<="]
    assert model.n_vars == 2 and model.cuts == []


def test_star_lp_optimum_is_fractional(star_instance):
    sol = solve(build_relaxation(star_instance))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0)
    point = sol.point()
    assert point.x[(0, 0)] == F(1, 2)
    assert point.y[(0, 0)] == F(1, 2)
    assert (1, 0) not in point.y


def test_adding_cut_changes_the_optimum(star_instance):
    before = solve(build_relaxation(star_instance)).point()
    cut = LinearCut({}, {(0, 0): F(1), (1, 0): F(1)}, F(1), "cutset")
    assert cut.violation(before) > 0
    after = solve(build_relaxation(star_instance, [cut])).point()
    assert cut.violation(after) <= 0
    assert after.y != before.y


def test_simple_min():
    inst = single_arc_instance()
    sol = solve(build_relaxation(inst))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1)  # one unit of capacity


def test_infeasible_toy_has_farkas():
    # two nodes, demand but no arc at all: balance rows are contradictory
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 3), Arc(3, 2)],
        facilities=[Facility(1, (F(1), F(1)))],
        demand=DemandMatrix({(1, 2): F(1)}),
    )
    ok, cert = check_feasible_routing(inst, capacities=[F(1), F(0)])
    assert not ok
    assert cone_violations(cert, inst) == []
    assert cert.demand_side(inst) > cert.capacity_side(inst, [F(1), F(0)])


def test_routing_feasibility_single_arc():
    inst = single_arc_instance()
    ok, _ = check_feasible_routing(inst, capacities=[F(1)])
    assert ok
    ok, cert = check_feasible_routing(inst, capacities=[F(0)])
    assert not ok
    # certificate scales to the max-flow min-cut case: v supported on the arc
    assert set(cert.v) == {0}
    assert cert.v[0] > 0
    assert cert.u[(0, 2)] >= cert.v[0]


def test_triangle_zero_capacity_certificate(triangle_half):
    ok, cert = check_feasible_routing(triangle_half, capacities=[F(0)] * 6)
    assert not ok
    assert cone_violations(cert, triangle_half) == []
    assert cert.demand_side(triangle_half) > 0


def test_strong_duality_on_relaxations():
    for seed in range(5):
        inst = generate_instance(seed=seed, nodes=4, density=0.5, facilities=(1, 3))
        model = build_relaxation(inst)
        sol = solve(model)
        if sol.status != "optimal":
            continue
        dual = sum(float(p) * float(rhs) for p, (_, _, rhs) in zip(sol.duals, model.rows))
        for j in range(model.n_vars):
            if j in model.upper:
                rc = float(model.objective.get(j, 0)) - sum(
                    float(sol.duals[i]) * float(coefs.get(j, 0))
                    for i, (coefs, _, _) in enumerate(model.rows)
                )
                dual += min(0.0, rc) * float(model.upper[j])
        assert dual == pytest.approx(float(sol.objective), abs=1e-6)


def test_cut_never_decreases_bound():
    rng = random.Random(5)
    for seed in range(4):
        inst = generate_instance(seed=seed + 20, nodes=4, density=0.6, facilities=(1,))
        base = solve(build_relaxation(inst))
        # a valid cut: aggregate capacity must cover total demand somewhere
        from netdes_cuts.cutset_cuts import build_cutset

        from helpers import cutset_cut

        for node in inst.nodes:
            rel = build_cutset(inst, [node])
            cut = cutset_cut(rel)
            if cut is None:
                continue
            again = solve(build_relaxation(inst, [cut]))
            assert again.objective >= base.objective - 1e-7


def test_farkas_certificates_rationalize_into_the_cone():
    rng = random.Random(9)
    for seed in range(10):
        inst = generate_instance(seed=seed + 50, nodes=rng.randint(3, 5), density=0.6)
        caps = [F(0) if rng.random() < 0.7 else F(1, 2) for _ in inst.arcs]
        ok, cert = check_feasible_routing(inst, capacities=caps)
        if ok:
            continue
        assert cone_violations(cert, inst) == []
        assert cert.demand_side(inst) > cert.capacity_side(inst, caps)


def test_proves_unroutable_only_when_exactly_unroutable():
    # any Farkas vector, from the float LP or made up, may only prove the truth
    rng = random.Random(17)
    proved = unproved_infeasible = 0
    for trial in range(60):
        inst = generate_instance(seed=trial + 200, nodes=rng.randint(3, 5), density=0.6)
        caps = [F(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 2))) for _ in inst.arcs]
        feasible = routable(inst, caps)
        routing = RoutingLP(inst)
        rows = routing.rows(caps)
        res = solve_lp(routing.n_vars, rows, {})
        candidates = [[rng.uniform(-2, 1) for _ in rows]]
        if res.status == "infeasible":
            candidates.append(res.farkas)
        for farkas in candidates:
            if proves_unroutable(inst, caps, routing.capacity_part(farkas)):
                assert not feasible
                proved += 1
        refuted = res.status == "infeasible" and proves_unroutable(inst, caps, routing.capacity_part(res.farkas))
        if not feasible and res.status == "infeasible" and not refuted:
            unproved_infeasible += 1
    assert proved >= 10
    assert unproved_infeasible == 0


@pytest.mark.parametrize("demand, v, scale, q", [
    (F(1), {0: F(1, 2), 1: F(1, 2), 2: F(1)}, 3, F(6)),
    (F(5, 3), {0: F(1, 3), 1: F(1, 2), 2: F(1)}, 2, F(50, 3)),
])
def test_metric_bound_reaches_zero_exactly_where_the_certificate_refutes(demand, v, scale, q):
    """On random capacity vectors, given as ints ``scale * cap``, the form
    of ``metric_bound`` reaches 0 exactly where the certificate's capacity
    side is below its demand side, for an integer and a non-integer
    ``q = demand_side * mult * scale``, boundary vectors included."""
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2), Arc(2, 3), Arc(1, 3)],
        facilities=[Facility(1, (F(1),) * 3)],
        demand=DemandMatrix({(1, 3): demand}),
    )
    cert = lp.RoutingCertificate(v=v, u=shortest_path_potentials(inst, v))
    mult = math.lcm(*(w.denominator for w in v.values()))
    assert cert.demand_side(inst) * mult * scale == q
    kept = lp.CapacityBounds()
    kept.add(lp.metric_bound(inst, scale, cert))
    rng = random.Random(q.denominator)
    outcomes = set()
    boundary = 0
    for _ in range(400):
        scaled = [rng.randint(0, 4 * scale) for _ in inst.arcs]
        caps = [F(c, scale) for c in scaled]
        refuted = cert.capacity_side(inst, caps) < cert.demand_side(inst)
        assert kept.reaches(scaled, 0, 1) == refuted
        outcomes.add(refuted)
        boundary += cert.capacity_side(inst, caps) * mult * scale in (q, math.ceil(q) - 1)
    assert outcomes == {False, True} and boundary > 0


def test_shortest_path_potentials_satisfy_cone():
    inst = generate_instance(seed=3, nodes=5, density=0.7)
    v = {ai: F(ai % 3, 2) for ai in range(len(inst.arcs))}
    u = shortest_path_potentials(inst, v)
    for ai, arc in enumerate(inst.arcs):
        for ki in range(len(inst.commodities)):
            assert v.get(ai, F(0)) >= u[(ki, arc.head)] - u[(ki, arc.tail)]
    for ki, com in enumerate(inst.commodities):
        assert u[(ki, com.source)] == 0


def test_lp_format_dump():
    model = build_relaxation(single_arc_instance())
    text = model.to_lp_format()
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End")
    assert "cap_a0" in text


def _relaxations_with_pools():
    """The golden 4-node loops' final relaxations, a disaggregated one and
    one with facility sizes (1, 2), each with its loop's pool."""
    gens = [dict(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,)) for s in sorted(GOLDEN_4_NODE)]
    gens += [
        dict(seed=3, nodes=4, density=0.6, facilities=(1,), mode="disaggregated"),
        dict(seed=5, nodes=4, density=0.6, facilities=(1, 2)),
    ]
    for gen in gens:
        inst = generate_instance(**gen)
        res = cutting_plane_loop(inst, Config(max_rounds=10))
        yield inst, res.pool.cuts(), res.final_model


def test_relaxation_matches_reference():
    """The relaxation is the former one: same columns, rows (coefficients in
    the same insertion order), objective, bounds and LP text."""
    families = set()
    for inst, cuts, final_model in _relaxations_with_pools():
        model = build_relaxation(inst, cuts)
        ref = reference_build_relaxation(inst, cuts)
        keys = column_keys(inst)
        assert keys == ref.var_keys and len(keys) == model.n_vars
        for j, (kind, ai, index) in enumerate(keys):
            assert j == (routing_var if kind == "x" else design_var)(inst, ai, index)
        assert [(list(c.items()), sense, rhs) for c, sense, rhs in model.rows] == [
            (list(c.items()), sense, rhs) for c, sense, rhs, _ in ref.rows
        ]
        assert list(model.objective.items()) == list(ref.objective.items())
        assert list(model.upper.items()) == list(ref.upper.items())
        assert model.to_lp_format() == ref.to_lp_format() == final_model.to_lp_format()
        families.update(cut.family for cut in cuts)
    assert len(families) >= 4


@pytest.mark.parametrize("facilities, mode", [
    ((1,), "aggregated"), ((1, 3), "aggregated"), ((1, 2), "disaggregated"),
])
def test_relaxation_fixed_rows_are_the_routing_rows_at_existing_capacity(facilities, mode):
    """The relaxation's balance and capacity rows are ``RoutingLP.rows`` at
    the existing capacities with ``-c_m`` on each capacity row's design
    columns after its flow columns: the same rows in the same order, each
    row's columns in the same order, so its float rows are the routing LP's
    in floats."""
    for seed in range(1, 7):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=facilities, mode=mode)
        routing = RoutingLP(inst)
        want = [(list(c.items()), sense, rhs) for c, sense, rhs in routing.rows([a.existing_capacity for a in inst.arcs])]
        n_balance = len(inst.commodities) * len(inst.nodes)
        assert len(want) == n_balance + len(inst.arcs)
        for ai in range(len(inst.arcs)):
            want[n_balance + ai][0].extend((design_var(inst, ai, mi), -f.capacity) for mi, f in enumerate(inst.facilities))
        model = build_relaxation(inst)
        assert [(list(c.items()), sense, rhs) for c, sense, rhs in model.fixed] == want
        assert [(list(c.items()), sense, rhs) for c, sense, rhs in model.float_rows] == [
            ([(j, float(v)) for j, v in coefs], sense, float(rhs)) for coefs, sense, rhs in want
        ]
        assert model.upper == routing.upper


def test_routing_rows_share_their_coefficients_across_capacity_vectors():
    """Two ``RoutingLP.rows`` calls on one object pair the same coefficient
    dicts with their own right-hand sides; the relaxation's capacity rows
    are new dicts, and making them leaves the routing LP's rows as they were."""
    inst = generate_instance(seed=3, nodes=4, density=0.6, facilities=(1, 3))
    routing = RoutingLP(inst)
    low, high = routing.rows([F(0)] * len(inst.arcs)), routing.rows([F(2)] * len(inst.arcs))
    assert all(a is b for (a, _, _), (b, _, _) in zip(low, high))
    assert [rhs for _, _, rhs in routing.capacity_part(high)] == [F(2)] * len(inst.arcs)
    before = [dict(coefs) for coefs, _, _ in low]
    relaxed = routing.rows([a.existing_capacity for a in inst.arcs], installed=True)
    assert all(a is b for (a, _, _), (b, _, _) in zip(routing.balance, relaxed))
    assert not any(a is b for (a, _, _), (b, _, _) in zip(routing.capacity_part(low), routing.capacity_part(relaxed)))
    assert [coefs for coefs, _, _ in low] == before
    assert build_relaxation(inst).fixed == relaxed


@pytest.mark.parametrize("length", [1, 0, 6], ids=["short", "empty", "long"])
def test_capacity_lists_of_the_wrong_length_are_refused(length):
    """One capacity per arc: a shorter list would leave arcs without a
    capacity row, so that no capacity at all reads as routable, and a
    longer one would be cut short."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    assert len(inst.arcs) == 5
    assert check_feasible_routing(inst, [0] * 5)[0] is False
    message = rf"{length} capacities for 5 arcs: want one per arc"
    with pytest.raises(ValueError, match=message):
        check_feasible_routing(inst, [0] * length)
    with pytest.raises(ValueError, match=message):
        separate_metric(inst, [0] * length)
    with pytest.raises(ValueError, match=message):
        RoutingLP(inst).rows([F(0)] * length, installed=True)


@pytest.mark.parametrize("capacities, multipliers", [(8, 5), (5, 2), (5, 9)],
                         ids=["long-capacities", "short-multipliers", "long-multipliers"])
def test_proves_unroutable_refuses_lists_of_the_wrong_length(capacities, multipliers):
    """One capacity and one multiplier per arc: extra capacities would
    enter the capacity side, missing multipliers would read as weight 0
    and extra ones would index past the arcs."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    assert len(inst.arcs) == 5
    assert proves_unroutable(inst, [F(0)] * 5, [-1] * 5) is not None
    message = rf"{capacities} capacities and {multipliers} multipliers for 5 arcs: want one of each per arc"
    with pytest.raises(ValueError, match=message):
        proves_unroutable(inst, [F(0)] * capacities, [-1] * multipliers)


def test_float_rows_are_the_exact_rows_in_floats(monkeypatch):
    """Every round LP of the golden 4-node loops and of the 5-node seed-7
    loop: each float row ``lp.solve`` passes to the simplex has the columns
    of its exact row (``model.rows``) in the same order and the same sense,
    and its entries and rhs are ``float()`` of the exact ones to the bit;
    each round reports its relaxation's rows, which it never builds."""
    real_solve, real_solve_lp = engine.solve, lp.solve_lp
    solved = []  # (model, the rows of each float solve_lp call)

    def solve_recording(model, **kwargs):
        solved.append((model, []))
        return real_solve(model, **kwargs)

    def solve_lp_recording(n_vars, rows, objective, upper=None, exact=False, **kwargs):
        if not exact:
            solved[-1][1].append(rows)
        return real_solve_lp(n_vars, rows, objective, upper, exact=exact, **kwargs)

    gens = [dict(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,)) for s in sorted(GOLDEN_4_NODE)]
    gens.append(dict(seed=7, nodes=5, density=0.5, facilities=(1, 3)))
    reported = []
    with monkeypatch.context() as patched:
        patched.setattr(engine, "solve", solve_recording)
        patched.setattr(lp, "solve_lp", solve_lp_recording)
        for gen in gens:
            first = len(solved)
            res = cutting_plane_loop(generate_instance(**gen), Config(max_rounds=10))
            rounds = [model for model, _ in solved[first:first + len(res.reports)]]
            assert all("rows" not in vars(model) for model in rounds)  # no exact row was built
            reported += [(rep.lp_rows, model) for rep, model in zip(res.reports, rounds)]
    assert len(solved) == 22
    values = 0
    for model, passed in solved:
        assert passed
        want = [({j: float(v) for j, v in coefs.items()}, sense, float(rhs)) for coefs, sense, rhs in model.rows]
        for rows in passed:
            assert len(rows) == len(want)
            for (coefs, sense, rhs), (want_coefs, want_sense, want_rhs) in zip(rows, want):
                assert list(coefs) == list(want_coefs) and sense == want_sense
                assert [v.hex() for v in coefs.values()] == [v.hex() for v in want_coefs.values()]
                assert rhs.hex() == want_rhs.hex()
                values += len(coefs)
    assert values > 10000
    assert all(lp_rows == len(model.rows) for lp_rows, model in reported)


def test_stalled_status_on_tiny_iteration_cap():
    from netdes_cuts.simplex import solve_lp, GE

    res = solve_lp(3, [({0: 1, 1: 2, 2: 1}, GE, 3)], [1, 1, 1], max_iter=0)
    assert res.status == "stalled"


def stall_float_answers(monkeypatch):
    """Make every float solve in ``lp`` (``solve_lp`` and ``solve_lp_many``)
    stall.  Returns the modes seen."""
    modes = []

    def stalling(real, many):
        def stalled(*args, **kwargs):
            exact = kwargs.get("exact", False)
            modes.append(exact)
            if not exact:
                res = LPResult("stalled", [], None)
                return [res] * len(args[2]) if many else res
            return real(*args, **kwargs)

        return stalled

    monkeypatch.setattr(lp, "solve_lp", stalling(lp.solve_lp, False))
    monkeypatch.setattr(lp, "solve_lp_many", stalling(lp.solve_lp_many, True))
    return modes


def corrupt_float_answers(monkeypatch):
    """Make every float routing answer in ``lp`` (``solve_lp`` and
    ``solve_lp_many``) useless as a certificate: a feasible solve returns
    the zero flow, an infeasible one a zero Farkas vector, so only the
    exact simplex can decide.  Returns the modes seen."""
    modes = []

    def corrupting(real, many):
        def corrupted(*args, **kwargs):
            exact = kwargs.get("exact", False)
            modes.append(exact)
            answer = real(*args, **kwargs)
            if not exact:
                for res in answer if many else [answer]:
                    res.x = [0.0] * len(res.x)
                    res.farkas = None if res.farkas is None else [0.0] * len(res.farkas)
            return answer

        return corrupted

    monkeypatch.setattr(lp, "solve_lp", corrupting(lp.solve_lp, False))
    monkeypatch.setattr(lp, "solve_lp_many", corrupting(lp.solve_lp_many, True))
    return modes


def test_stalled_float_solve_falls_back_to_exact_and_says_so(monkeypatch, star_instance):
    modes = stall_float_answers(monkeypatch)
    sol = solve(build_relaxation(star_instance))
    assert modes == [False, True]
    assert sol.status == "optimal" and sol.exact_fallback
    assert isinstance(sol.objective, F) and sol.objective == 0


def test_stalled_float_routing_solve_falls_back_to_exact(monkeypatch):
    modes = stall_float_answers(monkeypatch)
    inst = generate_instance(seed=3, nodes=4, density=0.6)
    ample = [demand_total(inst)] * len(inst.arcs)
    assert check_feasible_routing(inst, capacities=ample) == (True, None)
    ok, cert = check_feasible_routing(inst, capacities=[F(0)] * len(inst.arcs))
    assert not ok and cert.demand_side(inst) > cert.capacity_side(inst, [F(0)] * len(inst.arcs))
    assert modes == [False, True] * 2


def test_point_skips_zeros_as_rationalizing_every_column_would(monkeypatch):
    """``point`` leaves exact zeros out unrationalized: its x, y and error are
    those of rationalizing every column, on the loops' round optima, on
    their copies with every other zero negated to ``-0.0``, and on an exact
    fallback's ``Fraction``s."""
    insts = [generate_instance(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,)) for s in (1, 6)]
    sols = [sol for _, sol in _round_solves(monkeypatch, insts)]
    signed = [
        dataclasses.replace(sol, x=[(-0.0 if k % 2 else v) if v == 0 else v for k, v in enumerate(sol.x)])
        for sol in sols
    ]
    assert any(v == 0 and math.copysign(1.0, v) < 0 for sol in signed for v in sol.x)
    stall_float_answers(monkeypatch)
    exact = solve(build_relaxation(insts[0]))
    assert exact.exact_fallback and all(type(v) is F for v in exact.x) and F(0) in exact.x
    for sol in sols + signed + [exact]:
        for max_denominator in (10**6, 7):
            point, ref = sol.point(max_denominator), reference_point(sol, max_denominator)
            assert (point.x, point.y) == (ref.x, ref.y)
            assert point.rationalization_error == ref.rationalization_error


def two_way_instance():
    """Nodes 1 and 2 each ship one unit to the other."""
    return Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2), Arc(2, 1)],
        facilities=[Facility(1, (F(1), F(1)))],
        demand=DemandMatrix({(1, 2): F(1), (2, 1): F(1)}),
    )


def test_two_way_demand_at_zero_capacity_is_refused():
    inst = two_way_instance()
    caps = [F(0), F(0)]
    ok, cert = check_feasible_routing(inst, capacities=caps)
    assert not ok
    assert cone_violations(cert, inst) == []
    assert cert.demand_side(inst) > cert.capacity_side(inst, caps)
    assert separate_metric(inst, caps) is not None


def test_certify_refuses_a_negative_flow():
    # commodity 1 "ships" 2 -> 1 as a negative flow on arc 1 -> 2: balanced,
    # zero load, objective equal to the dual bound, yet not a routing
    inst = two_way_instance()
    routing = RoutingLP(inst)
    rows, n_vars = routing.rows([F(1), F(1)]), routing.n_vars
    negative = [0.0] * n_vars
    negative[routing_var(inst, 0, 0)], negative[routing_var(inst, 0, 1)] = 1.0, -1.0
    for coefs, sense, rhs in rows:
        lhs = sum(a * F(negative[j]) for j, a in coefs.items())
        assert lhs <= rhs if sense == simplex.LE else lhs == rhs
    duals = [0.0] * len(rows)
    bound = lp.safe_lower_bound(rows, {}, {}, duals)
    assert lp.certify(rows, {}, {}, LPResult("optimal", negative, 0.0, duals), bound) is None
    # the routing each commodity's own arc gives is certified
    routed = [0.0] * n_vars
    routed[routing_var(inst, 0, 0)] = routed[routing_var(inst, 1, 1)] = 1.0
    assert lp.certify(rows, {}, {}, LPResult("optimal", routed, 0.0, duals), bound) == (0, [F(v) for v in routed])


@pytest.mark.parametrize("spoil", [corrupt_float_answers, stall_float_answers])
def test_failed_float_certificates_fall_back_to_exact(monkeypatch, spoil):
    # verdicts certified from float solves, then the exact simplex's own
    sample = [(inst, caps, check_feasible_routing(inst, caps)[0]) for inst, caps in criterion_10_sample()]
    modes = spoil(monkeypatch)
    infeasible = 0
    for inst, caps, feasible in sample:
        del modes[:]
        ok, cert = check_feasible_routing(inst, capacities=caps)
        assert ok == feasible
        assert modes == [False, True]
        if not ok:
            infeasible += 1
            assert cone_violations(cert, inst) == []
            assert cert.demand_side(inst) > cert.capacity_side(inst, caps)
    assert 10 <= infeasible <= 45


@pytest.mark.parametrize("spoil", [corrupt_float_answers, stall_float_answers])
def test_failed_pricing_and_bound_certificates_fall_back_to_exact(monkeypatch, spoil, star_instance):
    # oracle prices and exact bounds certified from float solves, then the
    # exact simplex's own once no float answer can be certified
    oracle = [star_instance] + [
        generate_instance(seed=s, nodes=3, density=0.9, facilities=(1,), flow_cost_prob=0.4)
        for s in (1002, 1005)
    ]
    relaxed = [star_instance, generate_instance(seed=2, nodes=4, density=0.6, facilities=(1,))]

    def priced():
        answers = [brute_force_ip(inst, ybound=1) for inst in oracle]
        return [(value, point.y) for value, point in answers]

    def bounds():
        return [cutting_plane_loop(inst, Config(families=())).exact_bound for inst in relaxed]

    certified_prices, certified_bounds = priced(), bounds()
    modes = spoil(monkeypatch)
    assert priced() == certified_prices
    assert True in modes
    del modes[:]
    assert bounds() == certified_bounds
    assert True in modes
    assert all(type(value) is F for value, _ in certified_prices)


def test_each_round_builds_on_the_last_and_leaves_it_unchanged(monkeypatch):
    """Each round's relaxation, built on the previous round's, is the one
    built from scratch on that round's pool; a model held from an earlier
    round reads as it did when it was built, after every later round."""
    real_build = engine.build_relaxation
    built = []

    def recording(instance, cuts, **kwargs):
        model = real_build(instance, cuts, **kwargs)
        built.append((model, len(model.rows), model.to_lp_format()))
        return model

    loops = [  # the last stops at its round cap and builds its final relaxation after it
        (dict(seed=6, nodes=4, density=0.6, facilities=(1,)), 10, "no-cuts"),
        (dict(seed=7, nodes=5, density=0.5, facilities=(1, 3)), 10, "no-cuts"),
        (dict(seed=7, nodes=4, density=0.6, facilities=(1, 3)), 2, "round-cap"),
    ]
    with monkeypatch.context() as patched:
        patched.setattr(engine, "build_relaxation", recording)
        for gen, rounds, stop in loops:
            res = cutting_plane_loop(generate_instance(**gen), Config(max_rounds=rounds))
            assert res.stop == stop and built[-1][0] is res.final_model
    assert len(built) == 4 + 3 + 3
    for model, rows, text in built:
        fresh = build_relaxation(model.instance, model.cuts)
        assert len(model.rows) == rows and model.to_lp_format() == text
        assert (model.rows, model.cuts, text) == (fresh.rows, fresh.cuts, fresh.to_lp_format())


def test_a_base_that_the_cuts_do_not_extend_is_refused():
    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    other = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    first, second = LinearCut({(0, 0): F(1)}, {}, F(0), "other"), LinearCut({}, {(0, 0): F(1)}, F(0), "other")
    base = build_relaxation(inst, [first])
    for instance, cuts in [(other, [first, second]), (inst, [second, first]), (inst, [])]:
        with pytest.raises(ValueError):
            build_relaxation(instance, cuts, base=base)
    # an equal cut may stand in for the base's own
    same = LinearCut({(0, 0): F(1)}, {}, F(0), "other")
    assert build_relaxation(inst, [same, second], base=base).rows == build_relaxation(inst, [first, second]).rows


# -- warm-started rounds -----------------------------------------------------------


def _round_solves(monkeypatch, instances):
    """``(model, solution)`` of every relaxation solve of the default
    10-round loop on each of ``instances``, in order."""
    real_solve = engine.solve
    solved = []

    def recording(model, **kwargs):
        sol = real_solve(model, **kwargs)
        solved.append((model, sol))
        return sol

    with monkeypatch.context() as patched:
        patched.setattr(engine, "solve", recording)
        for inst in instances:
            cutting_plane_loop(inst, Config(max_rounds=10))
    return solved


def test_warm_round_lps_certify_with_no_exact_solve(monkeypatch):
    instances = [
        generate_instance(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,))
        for s in sorted(GOLDEN_4_NODE)
    ] + [generate_instance(seed=7, nodes=5, density=0.5, facilities=(1, 3))]
    solved = _round_solves(monkeypatch, instances)
    assert {sol.start for _, sol in solved} == {"cold", "warm"}
    modes = []
    real_solve_lp = lp.solve_lp

    def recording(*args, exact=False, **kwargs):
        modes.append(exact)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", recording)
    for model, sol in solved:
        assert float(lp.exact_objective(model, sol)) == pytest.approx(sol.objective, abs=1e-9)
    assert modes == []


def test_stalled_warm_solve_is_redone_cold(monkeypatch):
    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    solved = _round_solves(monkeypatch, [inst])
    real_dual_loop = simplex._dual_loop
    # the dual simplex gives up before its first pivot
    monkeypatch.setattr(simplex, "_dual_loop", lambda *args: real_dual_loop(*args[:-1], 0))
    for (_, previous), (model, _) in zip(solved, solved[1:]):
        again, cold = solve(model, start=previous), solve(model)
        assert (again.start, cold.start) == ("cold-after-warm", "cold")
        assert again.status == cold.status == "optimal" and not again.exact_fallback
        assert (again.objective, again.x, again.duals) == (cold.objective, cold.x, cold.duals)
        assert again.iterations == cold.iterations
    # every round after the first is then solved cold, as a loop without warm starts does
    res = cutting_plane_loop(inst, Config(max_rounds=10))
    assert [rep.lp_start for rep in res.reports] == ["cold"] + ["cold-after-warm"] * (len(res.reports) - 1)
    assert (len(res.pool), res.exact_bound) == GOLDEN_4_NODE[1]


def test_infeasible_cut_after_warm_start_is_refuted_cold():
    inst = single_arc_instance(capacity=F(0), demand=F(1))
    first = solve(build_relaxation(inst))
    # the flow is bounded by its commodity's supply, 1
    model = build_relaxation(inst, [LinearCut({(0, 0): F(1)}, {}, F(2), "other")])
    sol = solve(model, start=first)
    assert sol.status == "infeasible" and sol.start == "cold-after-warm" and not sol.exact_fallback
    # lam·A <= 0 on the unbounded columns, and lam·b exceeds what the bounded ones can give
    lam = sol.farkas
    activity = [sum(lam[i] * float(coefs.get(j, 0)) for i, (coefs, _, _) in enumerate(model.rows))
                for j in range(model.n_vars)]
    reach = 0.0
    for j, a in enumerate(activity):
        if j in model.upper:
            reach += max(a, 0.0) * float(model.upper[j])
        else:
            assert a <= 1e-9
    assert sum(p * float(rhs) for p, (_, _, rhs) in zip(lam, model.rows)) > reach + 1e-9
