import random
from fractions import Fraction as F

import pytest

from netdes_cuts import engine, lp
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
from helpers import (
    GOLDEN_4_NODE,
    pure_capacity_counterexamples,
    reference_separate_all,
    reference_validate_cuts,
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
    assert len(pool) == 1 and pool.cuts() == [a]


def test_loop_no_families_single_round(star_instance):
    res = cutting_plane_loop(star_instance, Config(families=()))
    assert len(res.reports) == 1
    assert res.reports[0].cuts == {} and res.reports[0].families == {}
    assert res.stop == "no-cuts"
    assert res.final_bound == pytest.approx(0.0)


def test_loop_reports_stop_reason_and_family_counters(monkeypatch):
    """A loop stops with "round-cap" when its last allowed round still pooled
    cuts and with "no-cuts" otherwise.  Each round reports, per separator
    that ran, its time, its violated candidates (in the order separate_all
    returns them) and how many the pool admitted."""
    from netdes_cuts import engine

    returned = []
    separate_all = engine.separate_all

    def recording(sep, point):
        found = separate_all(sep, point)
        returned.append(len(found))
        return found

    monkeypatch.setattr(engine, "separate_all", recording)
    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    capped = cutting_plane_loop(inst, Config(max_rounds=1))
    assert capped.stop == "round-cap" and capped.reports[0].cuts
    del returned[:]
    done = cutting_plane_loop(inst, Config(max_rounds=50))
    assert done.stop == "no-cuts" and not done.reports[-1].cuts
    assert len(done.reports) >= 2
    for rep, n_found in zip(done.reports, returned):
        # rc, cstrong, cutset and flowcutset need a single facility; metric never applies
        assert list(rep.families) == ["mf", "partition"]
        for counts in rep.families.values():
            assert list(counts) == ["seconds", "candidates", "admitted"]
            assert counts["seconds"] >= 0 and 0 <= counts["admitted"] <= counts["candidates"]
        assert sum(c["candidates"] for c in rep.families.values()) == n_found
        assert sum(c["admitted"] for c in rep.families.values()) == sum(rep.cuts.values())
    assert done.reports[0].families["mf"]["admitted"] > 0


def test_loop_star_reaches_oracle(star_instance):
    cfg = Config(families=("cutset", "flowcutset"))
    res = cutting_plane_loop(star_instance, cfg)
    assert len(res.reports) <= 5
    first = res.pool.cuts()[0]
    assert first.family == "cutset"
    assert first.cap == {(0, 0): F(1), (1, 0): F(1)} and first.rhs == 1
    best = brute_force_ip(star_instance, ybound=2)
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


def count_solves(monkeypatch):
    """Record the mode (exact or not) of every ``lp.solve_lp`` call."""
    from netdes_cuts import lp

    real_solve_lp = lp.solve_lp
    modes = []

    def counting(*args, exact=False, **kwargs):
        modes.append(exact)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counting)
    return modes


@pytest.mark.parametrize("seed", sorted(GOLDEN_4_NODE))
def test_loop_golden_results(monkeypatch, seed):
    inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
    modes = count_solves(monkeypatch)
    res = cutting_plane_loop(inst, Config(max_rounds=10))
    pool, bound = GOLDEN_4_NODE[seed]
    assert len(res.pool) == pool
    assert res.final_bound == pytest.approx(float(bound), abs=1e-9)
    # the exact bound is certified from the last float solve, without a re-solve
    del modes[:]
    assert res.exact_bound == bound
    assert modes == []


def _separation_rounds(monkeypatch, inst, config):
    """Run the loop; return each round's (context, point, found)."""
    from netdes_cuts import engine

    rounds = []
    separate_all = engine.separate_all

    def recording(sep, point):
        found = separate_all(sep, point)
        rounds.append((sep, point, found))
        return found

    monkeypatch.setattr(engine, "separate_all", recording)
    cutting_plane_loop(inst, config)
    return rounds


@pytest.mark.parametrize("seed", sorted(GOLDEN_4_NODE))
def test_round_points_violate_no_metric_inequality(monkeypatch, seed):
    """Why ``metric`` never runs in the loop: each round's point carries its
    own flow, so its ``y`` routes the demand and no metric inequality is
    violated there."""
    from netdes_cuts import partition_cuts

    inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
    rounds = _separation_rounds(monkeypatch, inst, Config(max_rounds=10))
    assert rounds
    for _, point, _ in rounds:
        caps = [inst.arc_capacity(ai, point.y) for ai in range(len(inst.arcs))]
        assert partition_cuts.separate_metric(inst, caps) is None


def _listing(found):
    return [(cut.normalized_key(), cut.family, violation) for cut, violation in found]


# families that offer each key once per round, by the cuts' labels: each
# built-once family, and the cut-set families flowcutset and mf between them
KEYED_ONCE = {"cutset": "cutset", "partition": "partition", "threepartition": "partition",
              "threepartition-metric": "partition", "flowcutset": "cut-set", "mf": "cut-set"}


def _first_of_each_key(found):
    """``found`` without repeats of a key within one group of ``KEYED_ONCE`` (first kept)."""
    seen = set()
    kept = []
    for cut, violation in found:
        family = KEYED_ONCE.get(cut.family)
        if family is not None:
            if (family, cut.normalized_key()) in seen:
                continue
            seen.add((family, cut.normalized_key()))
        kept.append((cut, violation))
    return kept


SEPARATION_CASES = [
    pytest.param(
        dict(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,)),
        Config(max_rounds=10),
        set(),
        id=f"golden-{seed}",
    )
    for seed in sorted(GOLDEN_4_NODE)
] + [
    pytest.param(
        dict(seed=5, nodes=3, density=0.9, facilities=(1, 2)),
        Config(max_rounds=10),
        {"mf", "partition", "threepartition"},
        id="facilities-1-2",
    ),
    pytest.param(
        dict(seed=20, nodes=3, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True),
        Config(families=("rc", "cstrong", "cutset", "flowcutset"), max_rounds=10),
        {"rc", "cstrong", "ksplit", "liftedcover", "flowcutset"},
        id="unsplittable-cstrong",
    ),
]


@pytest.mark.parametrize("gen, config, fired", SEPARATION_CASES)
def test_separation_table_matches_reference(monkeypatch, gen, config, fired):
    """At every round's point, one context per loop gives the candidates of
    the reference if-chain: same cuts, families and violations, same order,
    except that a built-once or cut-set family offers each cut once."""
    inst = generate_instance(**gen)
    rounds = _separation_rounds(monkeypatch, inst, config)
    assert len(rounds) >= 2 and len({id(sep) for sep, _, _ in rounds}) == 1
    for sep, point, found in rounds:
        reference = _first_of_each_key(reference_separate_all(inst, point, config))
        assert _listing(found) == _listing(reference)
    assert fired <= {cut.family for _, _, found in rounds for cut, _ in found}


def test_cutset_families_offer_each_key_once_per_round(monkeypatch):
    """No round's ``separate_all`` output repeats a key among its
    ``flowcutset`` and ``mf`` cuts, and every violation it hands over is
    the cut's exact violation at the round's point."""
    repeats_offered = 0
    for seed in (1, 2, 3):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
        rounds = _separation_rounds(monkeypatch, inst, Config(max_rounds=10))
        for sep, point, found in rounds:
            keys = [cut.normalized_key() for cut, _ in found if cut.family in ("flowcutset", "mf")]
            assert len(keys) == len(set(keys))
            assert all(violation == cut.rhs - cut.lhs_value(point) for cut, violation in found)
            # the former separators offered repeats at these points
            reference = reference_separate_all(inst, point, Config(max_rounds=10))
            keys = [cut.normalized_key() for cut, _ in reference if cut.family in ("flowcutset", "mf")]
            repeats_offered += len(keys) - len(set(keys))
    assert repeats_offered > 0


def test_three_partition_shrunk_once(monkeypatch):
    """The loop shrinks each three-partition once and derives its data
    once for both total-capacity cuts, which equal the public builders'."""
    from netdes_cuts import engine, partition_cuts

    calls = {"shrink": 0, "three_partition_data": 0}

    def counting(name):
        original = getattr(partition_cuts, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(partition_cuts, name, counted)

    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    parts = list(engine._three_partitions(inst))
    for part in parts:
        got = partition_cuts.total_capacity_cuts(inst, part)
        want = (partition_cuts.three_partition_cut(inst, part), partition_cuts.three_partition_metric_cut(inst, part))
        assert got == want
    counting("shrink")
    counting("three_partition_data")
    engine.Separation(inst, Config(families=("partition",)))
    n_two = len(list(engine._two_partitions(inst)))
    assert calls == {"shrink": n_two + len(parts), "three_partition_data": len(parts)}


def test_point_independent_candidates_built_once_per_loop(monkeypatch):
    """A loop of many rounds shrinks, rounds and builds relaxations exactly
    as often as a loop of one; families that need none of it build none."""
    from netdes_cuts import cutset_cuts, engine, partition_cuts

    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(partition_cuts, "shrink")
    counting(engine, "hull_inequalities")
    counting(cutset_cuts, "build_cutset")
    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    counts = []
    for config in (Config(max_rounds=1), Config(max_rounds=10), Config(families=("rc", "metric"))):
        calls.clear()
        res = cutting_plane_loop(inst, config)
        counts.append((len(res.reports), dict(calls)))
    (one, first), (many, loop), (_, unused) = counts
    assert one == 1 and many >= 2
    assert first == loop and first["shrink"] > 0 and first["hull_inequalities"] > 0
    assert unused == {}


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
    best = brute_force_ip(inst, ybound=2)
    assert best[0] == F(3)  # one unit of capacity (2) plus flow (1)
    assert best[1].y == {(0, 0): F(1)}


# optima of the exact simplex at every grid point (ybound=1) on
# generate_instance(seed=s, nodes=3, flow_cost_prob=0.4) with facilities (1,)
# and density 0.9 (s < 1100) or facilities (1, 2) and density 0.7; None: no
# installation in the grid routes the demand
EXACT_ORACLE_3_NODE = {
    1001: None, 1002: F(3), 1003: F(3), 1004: None, 1005: F(59, 6), 1006: F(1),
    1141: F(2), 1142: F(1, 2), 1143: F(1, 3),
}


@pytest.mark.parametrize("seed", sorted(EXACT_ORACLE_3_NODE))
def test_brute_force_answers_are_exact_without_exact_solves(monkeypatch, seed):
    facilities, density = ((1,), 0.9) if seed < 1100 else ((1, 2), 0.7)
    inst = generate_instance(seed=seed, nodes=3, density=density, facilities=facilities, flow_cost_prob=0.4)
    modes = count_solves(monkeypatch)
    best = brute_force_ip(inst, ybound=1)
    assert modes and not any(modes)
    expected = EXACT_ORACLE_3_NODE[seed]
    if expected is None:
        assert best is None
        return
    value, point = best
    assert type(value) is F and value == expected
    # the flow fits its installation exactly and prices to the optimum
    caps = [inst.arc_capacity(ai, point.y) for ai in range(len(inst.arcs))]
    assert all(type(v) is F and v >= 0 for v in point.x.values())
    for ai in range(len(inst.arcs)):
        assert sum((v for (aj, _), v in point.x.items() if aj == ai), F(0)) <= caps[ai]
    for ki, com in enumerate(inst.commodities):
        for node in inst.nodes:
            inflow = sum((point.x.get((ai, ki), F(0)) for ai in inst.in_arcs[node]), F(0))
            outflow = sum((point.x.get((ai, ki), F(0)) for ai in inst.out_arcs[node]), F(0))
            assert inflow - outflow == com.w(node)
    install = sum((inst.facilities[mi].costs[ai] * n for (ai, mi), n in point.y.items()), F(0))
    flow = sum((inst.flow_costs[ai][ki] * v for (ai, ki), v in point.x.items()), F(0))
    assert install + flow == value


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


def test_pure_capacity_verdicts_match_full_enumeration():
    """Routability tested only at maximal keyed patterns gives the verdicts
    of testing every pattern below the rhs, on loop cuts and on copies with
    a raised rhs; each counterexample is one of the enumerated patterns."""
    verdicts = []
    for seed in range(1, 9):
        inst = generate_instance(seed=seed, nodes=3, density=0.8, facilities=(1, 3) if seed % 2 else (1,))
        for cut in cutting_plane_loop(inst, Config(max_rounds=3)).pool.cuts():
            if cut.flow or any(v < 0 for v in cut.cap.values()):
                continue
            for raise_by in (0, 1, 2):
                probe = LinearCut({}, dict(cut.cap), cut.rhs + raise_by, cut.family)
                patterns = 1
                for coef in probe.cap.values():
                    patterns *= -(-probe.rhs // coef)
                if patterns > 64:
                    continue
                ok, counter = validate_cut(probe, inst)
                found = pure_capacity_counterexamples(probe, inst)
                assert ok == (not found)
                if not ok:
                    assert counter.y in found
                verdicts.append(ok)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


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
    from netdes_cuts import engine, lp

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

    # the batch's own certificates, then the optimum certificate that
    # lp.cheapest_routing checks (lp.certify looks its dual bound up in lp)
    monkeypatch.setattr(engine, "proves_unroutable", lambda *args: False)
    monkeypatch.setattr(engine, "safe_lower_bound", lambda *args: None)
    monkeypatch.setattr(lp, "safe_lower_bound", lambda *args: None)
    exact_solves = count_solves(monkeypatch)
    for inst, cuts, verdicts in sweep:
        assert validate_cuts(cuts, inst, ybound=1) == verdicts
    assert any(exact_solves)
    ok, counter = validate_cut(bad, star_instance, ybound=2)
    assert not ok and (ok, counter) == certified
    assert bad.violation(counter) > 0
    assert all(isinstance(v, F) for v in counter.x.values())


# criterion 11's batch shapes: first seed, nodes, density, facilities, families, unsplittable
CRITERION_11_SHAPES = [
    (1001, 3, 0.9, (1,), ("rc", "cutset", "flowcutset", "metric", "partition"), False),
    (1101, 4, 0.5, (1,), ("rc", "cutset", "flowcutset", "partition"), False),
    (1141, 3, 0.7, (1, 2), ("mf", "metric", "partition"), False),
    (1176, 3, 0.9, (1,), ("rc", "cstrong", "cutset", "flowcutset"), True),
]


@pytest.mark.parametrize("first, nodes, density, facilities, families, unsplittable", CRITERION_11_SHAPES)
def test_kept_certificates_leave_verdicts_and_counterexamples_unchanged(
    first, nodes, density, facilities, families, unsplittable
):
    """On criterion 11's batch shapes the sweep that keeps its certificates
    gives the verdicts and counterexample points of the sweep that certifies
    every point afresh, on the loop's cuts and on copies with a raised rhs,
    which fail at grid points reached after certificates were kept."""
    grid_failures = 0
    for seed in range(first, first + 5):
        inst = generate_instance(
            seed=seed, nodes=nodes, density=density, facilities=facilities,
            mode="disaggregated" if unsplittable else "aggregated",
            unsplittable=unsplittable, flow_cost_prob=0.4,
        )
        cuts = cutting_plane_loop(inst, Config(families=families, max_rounds=4)).pool.cuts()
        cuts += [LinearCut(dict(c.flow), dict(c.cap), c.rhs + r, c.family) for c in cuts for r in (F(1, 2), F(1))]
        verdicts = validate_cuts(cuts, inst, ybound=1)
        assert verdicts == reference_validate_cuts(cuts, inst, ybound=1)
        grid_failures += sum(1 for cut, (ok, _) in zip(cuts, verdicts) if cut.flow and not ok)
    assert grid_failures > 0


@pytest.mark.parametrize("nodes, seeds", [(3, range(1, 7)), (4, range(1, 4))])
def test_certificates_carry_soundly_to_other_capacity_vectors(nodes, seeds):
    """A metric certificate taken at one capacity vector refutes only
    vectors that ``check_feasible_routing`` finds unroutable, and a dual
    bound taken at one vector (from the float duals, or from perturbed
    ones) is the safe bound of the same duals at another, never above
    ``cheapest_routing``'s exact minimum there."""
    rng = random.Random(nodes)
    carried_refutations = tight_carried_bounds = 0
    for seed in seeds:
        inst = generate_instance(seed=seed, nodes=nodes, density=0.7, facilities=(1, 2))
        scale = engine.MetricCertificates(inst).scale
        flow = {
            (ai, ki): F(rng.randint(-1, 3), rng.choice((1, 2)))
            for ai in range(len(inst.arcs)) for ki in range(len(inst.commodities))
        }
        columns, upper = lp.flow_columns(inst, flow), lp.routing_upper(inst)
        vectors = [
            [F(0) if rng.random() < 0.3 else F(rng.randint(1, 3 * scale), scale) for _ in inst.arcs]
            for _ in range(10)
        ]
        refutations, bounds, answers = [], [], []
        for i, caps in enumerate(vectors):
            scaled = [c.numerator * (scale // c.denominator) for c in caps]
            n_vars, rows = lp.routing_rows(inst, caps)
            ok, cert = lp.check_feasible_routing(inst, caps)
            answers.append((scaled, rows, ok and lp.cheapest_routing(inst, caps, flow)[0]))
            if not ok:
                refutations.append((i, engine.MetricCertificates(inst)))
                refutations[-1][1].add(cert)
                continue
            duals = lp.solve_lp(n_vars, rows, columns, upper).duals
            if i % 2:  # any duals give a safe bound; wrong-signed ones are dropped
                duals = [d + rng.uniform(-0.5, 0.5) for d in duals]
            kept = engine.DualCertificates(scale)
            kept.add(scaled, lp.safe_lower_bound(rows, columns, upper, duals), duals)
            bounds.append((i, duals, kept))
        for j, (scaled, rows, value) in enumerate(answers):
            for i, refuted in refutations:
                if refuted.refutes(scaled):
                    assert value is False
                    carried_refutations += i != j
            for i, duals, kept in bounds:
                (mult, c0, w), = kept.certificates
                bound = F(c0 + sum(c * scaled[ai] for ai, c in w.items()), mult)
                assert bound == lp.safe_lower_bound(rows, columns, upper, duals)
                if value is not False:
                    assert bound <= value
                    assert kept.reaches(scaled, bound.numerator, bound.denominator)
                    tight_carried_bounds += i != j and bound == value
    assert carried_refutations > 0 and tight_carried_bounds > 0


def test_stubbed_certificates_leave_the_caches_empty(monkeypatch):
    """Certificates that prove nothing (a falsy refutation, no dual bound)
    are never kept; with ``lp.certify``'s dual bound stubbed too, the grid
    points are then priced by exact solves."""
    sweep = []
    for seed in (1001, 1002, 1004):
        inst = generate_instance(seed=seed, nodes=3, density=0.9, facilities=(1,), flow_cost_prob=0.4)
        # cuts with flow terms only: the grid's certificates, not the pure-capacity check's
        cuts = [cut for cut in cutting_plane_loop(inst, Config(max_rounds=4)).pool.cuts() if cut.flow]
        sweep.append((inst, cuts, validate_cuts(cuts, inst, ybound=1)))
    assert all(cuts for _, cuts, _ in sweep)
    made = []

    def recorded(cls):
        def make(*args):
            made.append(cls(*args))
            return made[-1]
        return make

    monkeypatch.setattr(engine, "MetricCertificates", recorded(engine.MetricCertificates))
    monkeypatch.setattr(engine, "DualCertificates", recorded(engine.DualCertificates))
    monkeypatch.setattr(engine, "proves_unroutable", lambda *args: False)
    monkeypatch.setattr(engine, "safe_lower_bound", lambda *args: None)
    monkeypatch.setattr(lp, "safe_lower_bound", lambda *args: None)
    exact_solves = count_solves(monkeypatch)
    for inst, cuts, verdicts in sweep:
        assert validate_cuts(cuts, inst, ybound=1) == verdicts
    assert made and all(not kept.certificates for kept in made)
    assert any(exact_solves)


def test_brute_force_redoes_a_stalled_float_point_exactly(monkeypatch):
    from netdes_cuts import lp
    from netdes_cuts.simplex import LPResult

    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2)],
        facilities=[Facility(1, (F(2),))],
        demand=DemandMatrix({(1, 2): F(1)}),
        flow_costs="1",
    )
    real_solve_lp = lp.solve_lp
    modes = []

    def float_stalls(*args, exact=False, **kwargs):
        modes.append(exact)
        if not exact:
            return LPResult("stalled", [], None)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", float_stalls)
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
    best = brute_force_ip(inst, ybound=2)
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
    best = brute_force_ip(inst, ybound=2)
    assert res.final_bound <= float(best[0]) + 1e-6


def test_unsplittable_enumeration_caps_raise():
    """A truncated path, cycle or flow enumeration would make the oracle's
    answer wrong, so outgrowing a cap raises instead.  Only the pricing of
    a cut's flow part in ``validate_cuts`` enumerates cycles."""
    from netdes_cuts.engine import _simple_paths, _unsplittable_routings

    # complete digraph on 8 nodes: only 1 -> 7 -> 8 has capacity, and it
    # routes the demand at zero cost, but it is not among the first 400 paths
    nodes = list(range(1, 9))
    arcs = [Arc(i, j, 1 if (i, j) in {(1, 7), (7, 8)} else 0) for i in nodes for j in nodes if i != j]
    inst = Instance(
        nodes=nodes,
        arcs=arcs,
        facilities=[Facility(1, (F(1),) * len(arcs))],
        demand=DemandMatrix({(1, 8): F(1)}),
        mode="disaggregated",
        unsplittable=True,
    )
    with pytest.raises(BudgetExceededError, match="more than 100 simple cycles"):
        _unsplittable_routings(inst)
    with pytest.raises(BudgetExceededError, match="more than 400 simple paths from 1 to 8"):
        brute_force_ip(inst, y_bounds={(ai, 0): 0 for ai in range(len(arcs))})
    with pytest.raises(BudgetExceededError, match="more than 400 simple paths from 1 to 8"):
        _simple_paths(inst, 1, 8)
    # 84 cycles and 16 paths per pair, but more than 400 flows for a commodity
    dense = generate_instance(seed=0, nodes=5, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True)
    flow_cut = LinearCut({(0, 0): F(1)}, {(0, 0): F(1)}, F(1), "other")
    with pytest.raises(BudgetExceededError, match="more than 400 unsplittable flows of commodity 1->5"):
        validate_cut(flow_cut, dense, ybound=0)


def test_unsplittable_oracles_on_paths_answer_as_with_cycles(monkeypatch):
    """``brute_force_ip`` and routability enumerate paths only; on 4-node
    instances their optima and every verdict equal those of the full
    enumeration of paths plus disjoint cycles."""
    instances = [
        generate_instance(seed=s, nodes=4, density=0.5, facilities=(1,), mode="disaggregated",
                          unsplittable=True, flow_cost_prob=0.4)
        for s in range(2000, 2006)
    ]

    def answers():
        out = []
        for inst in instances:
            best = brute_force_ip(inst, ybound=2)
            cuts = cutting_plane_loop(inst, Config(families=("rc", "cstrong", "cutset", "flowcutset"),
                                                   max_rounds=2)).pool.cuts()[:8]
            # the same cuts with a larger rhs: some of these fail
            cuts += [LinearCut(cut.flow, cut.cap, cut.rhs + 1, cut.family) for cut in cuts]
            out.append((best and best[0], [ok for ok, _ in validate_cuts(cuts, inst, ybound=1)]))
        return out

    on_paths = answers()
    assert sum(value is not None for value, _ in on_paths) >= 2
    assert not all(all(verdicts) for _, verdicts in on_paths)
    full = engine._unsplittable_routings
    monkeypatch.setattr(engine, "_unsplittable_routings", lambda inst, cycles=True: full(inst))
    assert answers() == on_paths


def test_best_unsplittable_matches_exhaustive_search_with_negative_costs():
    """The joint-routing search prunes a branch only when no later
    commodity has a negative cost: with negative costs on some commodities
    it finds the minimum of the exhaustive search."""
    from itertools import product

    rng = random.Random(5)
    checked = 0
    for seed in range(2000, 2008):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1,), mode="disaggregated",
                                 unsplittable=True)
        routings = engine._unsplittable_routings(inst)
        demands = [com.total_supply for com in inst.commodities]
        caps = [F(rng.randint(1, 4)) for _ in inst.arcs]
        for _ in range(3):
            objective = {
                (ai, ki): F(rng.randint(-2, 2)) if ki else F(rng.randint(0, 2))
                for ai in range(len(inst.arcs)) for ki in range(len(inst.commodities))
            }
            costs = []
            for choice in product(*routings):
                loads = [sum((demands[ki] for ki, flow in enumerate(choice) if ai in flow), F(0))
                         for ai in range(len(inst.arcs))]
                if all(load <= cap for load, cap in zip(loads, caps)):
                    costs.append(sum((objective[(ai, ki)] * demands[ki]
                                      for ki, flow in enumerate(choice) for ai in flow), F(0)))
            best = engine._best_unsplittable(inst, routings, caps, objective)
            assert (best and best[0]) == (min(costs) if costs else None)
            checked += bool(costs)
    assert checked >= 10


def test_brute_force_answers_five_node_unsplittable():
    # the full enumeration of this instance outgrows its 400-flow cap
    inst = generate_instance(seed=0, nodes=5, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True)
    y_bounds = {(ai, 0): 2 if ai in (1, 3, 4, 14, 15) else 0 for ai in range(len(inst.arcs))}
    value, point = brute_force_ip(inst, y_bounds=y_bounds)
    assert value == F(105, 4)
    loads = {}
    for (ai, ki), v in point.x.items():
        assert v == inst.commodities[ki].total_supply  # all or nothing
        loads[ai] = loads.get(ai, 0) + v
    assert all(load <= inst.arc_capacity(ai, point.y) for ai, load in loads.items())
    # splitting flows can only be cheaper
    split = Instance(nodes=inst.nodes, arcs=inst.arcs, facilities=inst.facilities, demand=inst.demand,
                     flow_costs=inst.flow_costs, mode="disaggregated")
    assert brute_force_ip(split, y_bounds=y_bounds)[0] <= value


def test_loop_finishes_n5_s7(monkeypatch):
    """The 5-node instance whose cold re-solves took minutes: warm-started
    rounds finish, and the final bound is certified with no exact solve."""
    inst = generate_instance(seed=7, nodes=5, density=0.5, facilities=(1, 3))
    res = cutting_plane_loop(inst, Config(max_rounds=10))
    assert not any(rep.exact_fallback for rep in res.reports)
    assert {rep.lp_start for rep in res.reports[1:]} == {"warm"}
    modes = []
    real_solve_lp = lp.solve_lp

    def recording(*args, exact=False, **kwargs):
        modes.append(exact)
        return real_solve_lp(*args, exact=exact, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", recording)
    assert float(res.exact_bound) == pytest.approx(res.final_bound, abs=1e-9)
    assert modes == []


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
