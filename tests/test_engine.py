from fractions import Fraction as F

import pytest

from netdes_cuts.core import (
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    validate_instance,
)
from netdes_cuts.engine import (
    BudgetExceededError,
    Config,
    CutPool,
    brute_force_ip,
    cutting_plane_loop,
    default_y_bounds,
    generate_instance,
    validate_cut,
    validate_cuts,
)


def test_config_validation():
    with pytest.raises(ValueError):
        Config(eps=F(0))
    with pytest.raises(ValueError):
        Config(max_rounds=0)
    with pytest.raises(ValueError):
        Config(families=("nonsense",))


def test_cut_pool_dedup():
    pool = CutPool()
    a = LinearCut({}, {(0, 0): F(1), (1, 0): F(1)}, F(1), "cutset")
    b = LinearCut({}, {(0, 0): F(2), (1, 0): F(2)}, F(2), "cutset")  # same halfspace
    assert pool.add(a)
    assert not pool.add(b)
    assert len(pool) == 1
    assert pool.counters == {"cutset": 1}


def test_loop_no_families_single_round(star_instance):
    res = cutting_plane_loop(star_instance, Config(families=()))
    assert len(res.reports) == 1
    assert res.reports[0].cuts_added == {}
    assert res.final_bound == pytest.approx(0.0)


def test_loop_star_reaches_oracle(star_instance):
    cfg = Config(families=("cutset", "flowcutset"), exact_final=True)
    res = cutting_plane_loop(star_instance, cfg)
    assert len(res.reports) <= 5
    first = res.pool.cuts()[0]
    assert first.family == "cutset"
    assert first.cap == {(0, 0): F(1), (1, 0): F(1)} and first.rhs == 1
    best = brute_force_ip(star_instance, ybound=2, exact=True)
    assert res.exact_bound == best[0] == F(1, 2)


def test_loop_bounds_monotonic_and_sandwich():
    for seed in (1, 3, 5):
        inst = generate_instance(seed=seed, nodes=4, density=0.5, facilities=(1,))
        cfg = Config(max_rounds=8)
        res = cutting_plane_loop(inst, cfg)
        bounds = [r.bound for r in res.reports]
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi >= lo - 1e-7
        try:
            best = brute_force_ip(inst, ybound=2)
        except BudgetExceededError:
            continue
        if best is not None:
            assert res.final_bound <= float(best[0]) + 1e-6


def test_loop_cuts_all_validate():
    inst = generate_instance(seed=9, nodes=3, density=0.9, facilities=(1,))
    res = cutting_plane_loop(inst, Config(max_rounds=6))
    cuts = res.pool.cuts()
    verdicts = validate_cuts(cuts, inst, ybound=2)
    bad = [c for c, (ok, _) in zip(cuts, verdicts) if not ok]
    assert not bad, [str(c) for c in bad]


def test_brute_force_single_arc():
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(2),))],
        demand=DemandMatrix({(1, 2): F(1)}),
        flow_costs="1",
    )
    best = brute_force_ip(inst, ybound=2, exact=True)
    assert best[0] == F(3)  # one unit of capacity (2) plus flow (1)
    assert best[1].y == {(0, 0): F(1)}


def test_brute_force_budget():
    inst = generate_instance(seed=1, nodes=5, density=1.0, facilities=(1, 2, 3))
    with pytest.raises(BudgetExceededError):
        brute_force_ip(inst, ybound=9)


def test_default_y_bounds_cover_demand(star_instance):
    bounds = default_y_bounds(star_instance)
    assert all(b >= 1 for b in bounds.values())


def test_validate_cut_accepts_valid_and_finds_corruption(star_instance):
    cut = LinearCut({}, {(0, 0): F(1), (1, 0): F(1)}, F(1), "cutset")
    ok, _ = validate_cut(cut, star_instance, ybound=2)
    assert ok
    corrupted = LinearCut({}, {(0, 0): F(1), (1, 0): F(1)}, F(2), "cutset")
    ok, counter = validate_cut(corrupted, star_instance, ybound=2)
    assert not ok
    assert sum(counter.y.values()) <= 1


def test_validate_cut_flow_counterexample(star_instance):
    # flow-cut-set form with an inflated rhs has a violating routing
    good = LinearCut(
        {(1, 0): F(1), (2, 0): F(-1)},
        {(0, 0): F(1, 2), (2, 0): F(1, 2)},
        F(1, 2),
        "flowcutset",
    )
    ok, _ = validate_cut(good, star_instance, ybound=2)
    assert ok
    bad = LinearCut(dict(good.flow), dict(good.cap), F(3, 2), "flowcutset")
    ok, counter = validate_cut(bad, star_instance, ybound=2)
    assert not ok and counter is not None


def test_validate_cuts_exact_fallback_when_certificates_fail(monkeypatch, star_instance):
    from netdes_cuts import engine

    families = ("rc", "cutset", "flowcutset", "metric", "partition")
    sweep = []
    for seed in (1001, 1002, 1004):
        inst = generate_instance(seed=seed, nodes=3, density=0.9, facilities=(1,), flow_cost_prob=0.4)
        cuts = cutting_plane_loop(inst, Config(families=families, max_rounds=4)).pool.cuts()
        sweep.append((inst, cuts, validate_cuts(cuts, inst, ybound=1)))
    bad = LinearCut(
        {(1, 0): F(1), (2, 0): F(-1)}, {(0, 0): F(1, 2), (2, 0): F(1, 2)}, F(3, 2), "flowcutset"
    )
    certified = validate_cut(bad, star_instance, ybound=2)

    real_solve_lp = engine.solve_lp
    exact_solves = []

    def counting_solve_lp(*args, exact=False, **kwargs):
        exact_solves.append(exact)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(engine, "proves_unroutable", lambda *args: False)
    monkeypatch.setattr(engine, "safe_lower_bound", lambda *args: None)
    monkeypatch.setattr(engine, "solve_lp", counting_solve_lp)
    for inst, cuts, verdicts in sweep:
        assert validate_cuts(cuts, inst, ybound=1) == verdicts
    assert any(exact_solves)
    ok, counter = validate_cut(bad, star_instance, ybound=2)
    assert not ok and (ok, counter) == certified
    assert bad.violation(counter) > 0
    assert all(isinstance(v, F) for v in counter.x.values())


def test_brute_force_redoes_a_stalled_float_point_exactly(monkeypatch):
    from netdes_cuts import engine
    from netdes_cuts.simplex import LPResult

    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(2),))],
        demand=DemandMatrix({(1, 2): F(1)}),
        flow_costs="1",
    )
    real_solve_lp = engine.solve_lp
    modes = []

    def float_stalls(*args, exact=False, **kwargs):
        modes.append(exact)
        if not exact:
            return LPResult("stalled", [], None)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", float_stalls)
    best = brute_force_ip(inst, ybound=2)
    assert best is not None and best[0] == F(3)
    assert modes == [False, True] * 3


# -- unsplittable oracles ------------------------------------------------------------


def unsplittable_instance():
    return Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2), Arc(1, 3), Arc(3, 2)],
        facilities=[Facility(2, (F(2), F(1), F(1)))],
        demand=DemandMatrix({(1, 2): F(3, 2)}),
        flow_costs="0",
        mode="disaggregated",
        unsplittable=True,
    )


def test_unsplittable_oracle_picks_single_path():
    inst = unsplittable_instance()
    best = brute_force_ip(inst, ybound=2, exact=True)
    # the cheap route is via node 3 (two cost-1 installs beat one cost-2?)
    # direct: y=(1,0,0) cost 2; via 3: y=(0,1,1) cost 2: either optimum is 2
    assert best[0] == F(2)
    x = best[1].x
    # all-or-nothing arc loads
    assert all(v == F(3, 2) for v in x.values())


def test_unsplittable_validate_cstrong_style_cut():
    # two commodities sharing an arc: the rounding cut holds all-or-nothing
    # but a split routing violates it
    kwargs = dict(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2), Arc(1, 3), Arc(2, 3)],
        facilities=[Facility(3, (F(1), F(1), F(1)))],
        demand=DemandMatrix({(1, 2): F(2), (1, 3): F(2)}),
    )
    unsplit = Instance(mode="disaggregated", unsplittable=True, **kwargs)
    split = Instance(mode="disaggregated", **kwargs)
    cut = LinearCut(
        {(0, 0): F(-1, 2), (0, 1): F(-1, 2)}, {(0, 0): F(1)}, F(0), "cstrong"
    )
    ok, _ = validate_cut(cut, unsplit, ybound=2)
    assert ok
    ok, counter = validate_cut(cut, split, ybound=2)
    assert not ok and counter is not None


def test_unsplittable_loop_families():
    inst = unsplittable_instance()
    cfg = Config(families=("rc", "cstrong", "cutset", "flowcutset"), max_rounds=6)
    res = cutting_plane_loop(inst, cfg)
    cuts = res.pool.cuts()
    if cuts:
        verdicts = validate_cuts(cuts, inst, ybound=2)
        assert all(ok for ok, _ in verdicts)
    best = brute_force_ip(inst, ybound=2, exact=True)
    assert res.final_bound <= float(best[0]) + 1e-6


# -- generation ------------------------------------------------------------------------


def test_generate_deterministic():
    a = generate_instance(seed=5, nodes=5, density=0.5)
    b = generate_instance(seed=5, nodes=5, density=0.5)
    assert a.nodes == b.nodes
    assert [arc.pair for arc in a.arcs] == [arc.pair for arc in b.arcs]
    assert a.demand == b.demand
    assert a.flow_costs == b.flow_costs


def test_generate_density_one_complete():
    inst = generate_instance(seed=2, nodes=4, density=1.0)
    assert len(inst.arcs) == 12


def test_generated_instances_validate():
    for seed in range(25):
        inst = generate_instance(
            seed=seed, nodes=3 + seed % 4, density=0.3 + (seed % 5) / 10,
            facilities=(1, 3) if seed % 2 else (2,),
        )
        assert validate_instance(inst) == []
