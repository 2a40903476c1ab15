import random
from fractions import Fraction as F

import pytest

from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance, LinearCut
from netdes_cuts.engine import generate_instance
from netdes_cuts.lp import (
    build_relaxation,
    check_feasible_routing,
    proves_unroutable,
    routing_rows,
    shortest_path_potentials,
    solve,
)
from netdes_cuts.simplex import solve_lp


def single_arc_instance(capacity=F(0), demand=F(1)):
    return Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2, capacity)],
        facilities=[Facility(1, (F(1),))],
        demand=DemandMatrix({(1, 2): demand}),
    )


def test_row_counts():
    model = build_relaxation(single_arc_instance())
    assert model.n_balance == 2
    assert model.n_capacity == 1
    assert model.n_cut == 0


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
    assert cert.cone_violations(inst) == []
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
    assert cert.cone_violations(triangle_half) == []
    assert cert.demand_side(triangle_half) > 0


def test_strong_duality_on_relaxations():
    for seed in range(5):
        inst = generate_instance(seed=seed, nodes=4, density=0.5, facilities=(1, 3))
        model = build_relaxation(inst)
        sol = solve(model)
        if sol.status != "optimal":
            continue
        dual = sum(float(p) * float(rhs) for p, (_, _, rhs, _) in zip(sol.duals, model.rows))
        for key, j in model.var_index.items():
            if j in model.upper:
                rc = float(model.objective.get(j, 0)) - sum(
                    float(sol.duals[i]) * float(coefs.get(j, 0))
                    for i, (coefs, _, _, _) in enumerate(model.rows)
                )
                dual += min(0.0, rc) * float(model.upper[j])
        assert dual == pytest.approx(float(sol.objective), abs=1e-6)


def test_cut_never_decreases_bound():
    rng = random.Random(5)
    for seed in range(4):
        inst = generate_instance(seed=seed + 20, nodes=4, density=0.6, facilities=(1,))
        base = solve(build_relaxation(inst))
        # a valid cut: aggregate capacity must cover total demand somewhere
        from netdes_cuts.cutset_cuts import build_cutset, cutset_cut

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
        assert cert.cone_violations(inst) == []
        assert cert.demand_side(inst) > cert.capacity_side(inst, caps)


def test_proves_unroutable_only_when_exactly_unroutable():
    # any Farkas vector, from the float LP or made up, may only prove the truth
    rng = random.Random(17)
    proved = unproved_infeasible = 0
    for trial in range(60):
        inst = generate_instance(seed=trial + 200, nodes=rng.randint(3, 5), density=0.6)
        caps = [F(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 2))) for _ in inst.arcs]
        feasible, _ = check_feasible_routing(inst, capacities=caps)
        n_vars, rows = routing_rows(inst, caps)
        res = solve_lp(n_vars, rows, {})
        candidates = [[rng.uniform(-2, 1) for _ in rows]]
        if res.status == "infeasible":
            candidates.append(res.farkas)
        for farkas in candidates:
            if proves_unroutable(inst, caps, farkas):
                assert not feasible
                proved += 1
        if not feasible and res.status == "infeasible" and not proves_unroutable(inst, caps, res.farkas):
            unproved_infeasible += 1
    assert proved >= 10
    assert unproved_infeasible == 0


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


def test_stalled_status_on_tiny_iteration_cap():
    from netdes_cuts.simplex import solve_lp, GE

    res = solve_lp(3, [({0: 1, 1: 2, 2: 1}, GE, 3)], [1, 1, 1], max_iter=0)
    assert res.status == "stalled"


def test_stalled_float_solve_falls_back_to_exact_and_says_so(monkeypatch, star_instance):
    from netdes_cuts import lp
    from netdes_cuts.simplex import LPResult

    real_solve_lp = lp.solve_lp
    modes = []

    def float_stalls(*args, exact=False, **kwargs):
        modes.append(exact)
        if not exact:
            return LPResult("stalled", [], None)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", float_stalls)
    sol = solve(build_relaxation(star_instance))
    assert modes == [False, True]
    assert sol.status == "optimal" and sol.exact_fallback
    assert isinstance(sol.objective, F) and sol.objective == 0
    assert not solve(build_relaxation(star_instance), exact=True).exact_fallback
