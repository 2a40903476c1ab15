import contextlib
import copy
import dataclasses
import gc
import math
import random
import signal
import weakref
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from netdes_cuts import cutset_cuts, engine, lp, oracle
from netdes_cuts.core import (
    Arc,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    LinearCut,
    generate_instance,
    scaled_ints,
    validate_instance,
)
from netdes_cuts.engine import Config, CutPool, cutting_plane_loop
from netdes_cuts.oracle import BudgetExceededError, brute_force_ip, default_y_bounds, validate_cut, validate_cuts
from helpers import (
    GOLDEN_4_NODE,
    arc_capacity,
    distinct_cuts,
    in_cutset_mixed_integer_set,
    int_form,
    lhs_value,
    pure_capacity_counterexamples,
    reference_best_unsplittable,
    reference_cutset_candidates,
    reference_grid,
    reference_partition_candidates,
    reference_rc_arc,
    reference_separate_all,
    reference_validate_cuts,
    select_total_capacity_cut,
)


def test_config_validation():
    with pytest.raises(ValueError):
        Config(eps=F(0))
    with pytest.raises(ValueError):
        Config(max_rounds=0)
    with pytest.raises(ValueError):
        Config(families=("nonsense",))


@pytest.mark.parametrize(
    "kwargs, error, field",
    [
        (dict(max_rounds=2.5), TypeError, "max_rounds"),
        (dict(max_rounds=True), TypeError, "max_rounds"),
        (dict(max_rounds=0), ValueError, "max_rounds"),
        (dict(families="mf"), TypeError, "families"),
        (dict(families=("nonsense",)), ValueError, "families"),
        (dict(families=[["mf"]]), TypeError, "families"),
        (dict(eps=1e-10), TypeError, "eps"),
        (dict(eps=True), TypeError, "eps"),
        (dict(eps="abc"), ValueError, "eps"),
        (dict(eps=F(0)), ValueError, "eps"),
    ],
    ids=["rounds-float", "rounds-bool", "rounds-0", "families-string", "families-unknown", "families-nested",
         "eps-float", "eps-bool", "eps-text", "eps-0"],
)
def test_config_refuses_a_bad_field_by_name(kwargs, error, field):
    """``Config(...)`` itself raises, and the message starts with the field."""
    with pytest.raises(error, match=rf"^{field}\b"):
        Config(**kwargs)


def test_config_accepts_exact_eps_and_family_lists():
    assert Config(eps="1/10000000000").eps == F(1, 10**10)
    assert Config(families=["rc", "mf"], max_rounds=1).families == ["rc", "mf"]


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
        mixed_integer = sum(in_cutset_mixed_integer_set(rel, point) for rel in sep.relaxations)
        returned.append((len(found), mixed_integer))
        return found

    monkeypatch.setattr(engine, "separate_all", recording)
    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    capped = cutting_plane_loop(inst, Config(max_rounds=1))
    assert capped.stop == "round-cap" and capped.reports[0].cuts
    del returned[:]
    done = cutting_plane_loop(inst, Config(max_rounds=50))
    assert done.stop == "no-cuts" and not done.reports[-1].cuts
    assert len(done.reports) >= 2
    for rep, (n_found, mixed_integer) in zip(done.reports, returned):
        # rc, cstrong, cutset and flowcutset need a single facility; metric never applies
        assert list(rep.families) == ["mf", "partition"]
        for counts in rep.families.values():
            assert list(counts) == ["seconds", "candidates", "skipped", "admitted"]
            assert counts["seconds"] >= 0 and 0 <= counts["admitted"] <= counts["candidates"]
        assert sum(c["candidates"] for c in rep.families.values()) == n_found
        assert sum(c["admitted"] for c in rep.families.values()) == sum(rep.cuts.values())
        # mf skips the relaxations whose crossing point is mixed-integer feasible
        assert rep.families["mf"]["skipped"] == mixed_integer
        assert rep.families["partition"]["skipped"] == 0
    assert done.reports[0].families["mf"]["admitted"] > 0
    assert any(rep.families["mf"]["skipped"] for rep in done.reports)


def test_rounds_report_build_and_point_seconds():
    """Each round reports the seconds of its ``build_relaxation`` and of
    rationalizing its LP point: nonnegative floats that, with the LP solve's
    seconds, time disjoint parts of the round."""
    res = cutting_plane_loop(generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3)), Config(max_rounds=3))
    for rep in res.reports:
        assert type(rep.build_seconds) is float and type(rep.point_seconds) is float
        assert rep.build_seconds >= 0 and rep.point_seconds >= 0
        assert rep.build_seconds + rep.lp_seconds + rep.point_seconds <= rep.wall_time


def test_round_cap_solve_is_checked_like_every_round(monkeypatch):
    """The solve after the last allowed round, which gives the round-cap
    bound, meets the status check of every round's: a stalled answer
    raises ``RelaxationError``, not a ``TypeError`` on its missing
    objective."""
    solves = []
    real_solve = engine.solve

    def stalls_second(model, *, start=None):
        solves.append(model)
        if len(solves) == 2:
            return lp.LPSolution("stalled", [], None, instance=model.instance)
        return real_solve(model, start=start)

    monkeypatch.setattr(engine, "solve", stalls_second)
    with pytest.raises(engine.RelaxationError, match="ended with status stalled"):
        cutting_plane_loop(generate_instance(seed=3, nodes=4, density=0.6), Config(max_rounds=1))
    assert len(solves) == 2


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
    """Record the mode (exact or not) of every ``lp.solve_lp`` and
    ``lp.solve_lp_many`` call."""
    from netdes_cuts import lp

    modes = []

    def counting(real):
        def solve(*args, exact=False, **kwargs):
            modes.append(exact)
            return real(*args, exact=exact, **kwargs)

        return solve

    monkeypatch.setattr(lp, "solve_lp", counting(lp.solve_lp))
    monkeypatch.setattr(lp, "solve_lp_many", counting(lp.solve_lp_many))
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
        caps = [arc_capacity(inst, ai, point.y) for ai in range(len(inst.arcs))]
        assert partition_cuts.separate_metric(inst, caps) is None


def _listing(candidates):
    return [(family, cut.normalized_key(), cut.family, violation) for family, cut, violation in candidates]


# the families that offer each key once per round: each built-once family,
# and the one cut-set greedy family that runs
KEYED_ONCE = {"cutset", "partition", "flowcutset", "mf"}


def _first_of_each_key(candidates):
    """``candidates`` without repeats of a key within one family of ``KEYED_ONCE`` (first kept)."""
    seen = set()
    kept = []
    for family, cut, violation in candidates:
        if family in KEYED_ONCE:
            if (family, cut.normalized_key()) in seen:
                continue
            seen.add((family, cut.normalized_key()))
        kept.append((family, cut, violation))
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
        assert _listing(found.candidates) == _listing(reference)
    assert fired <= {cut.family for _, _, found in rounds for _, cut, _ in found.candidates}


def _fraction_admitted(sep, name, point):
    cuts = [form.cut for form in sep.fixed[name]]
    return [(cut, cut.violation(point)) for cut in cuts if cut.violation(point) > sep.eps]


def _separated(sep, name, scaled):
    """What family ``name`` of ``sep`` yields at ``scaled``."""
    return list(next(f for f in sep.families if f.name == name).separate(sep, scaled))


def _scalings(inst, point):
    """The point's shared scaling, whose D also clears the instance's data
    and the point's flows, and one by the lcm of the denominators of its
    ``y`` alone (no flows: a built-once cut has none)."""
    D = math.lcm(*(v.denominator for v in point.y.values()))
    own = SimpleNamespace(D=D, x=None, y=[
        [int(point.y.get((a, m), 0) * D) for m in range(len(inst.facilities))] for a in range(len(inst.arcs))
    ])
    return cutset_cuts.ScaledPoint(inst, point), own


def _assert_same_admission(sep, point):
    """Each built-once family yields what ``cut.violation(point) > eps``
    admits, in order, each with that violation, at either scaling of the
    point."""
    for scaled in _scalings(sep.instance, point):
        for name in sep.fixed:
            got = _separated(sep, name, scaled)
            want = _fraction_admitted(sep, name, point)
            assert [id(cut) for cut, _ in got] == [id(cut) for cut, _ in want]
            assert [(v, type(v)) for _, v in got] == [(v, type(v)) for _, v in want]


def test_rc_decides_each_arc_on_ints_as_the_fraction_reference(monkeypatch):
    """The loop's ``rc`` separator decides each arc on the round's scaled
    point, ``Fraction``s made only for a cut, and yields per arc, in order,
    the cut of the ``Fraction`` reference (the former separator on clamped
    loads): at every round point of the golden one-facility loops, and at
    random points with loads outside the unit box, negative ``y`` and
    integral ``y``; both outcomes occur on many arcs."""
    rng = random.Random(41)
    cuts = no_cuts = 0
    for seed in sorted(GOLDEN_4_NODE):
        if seed % 2:
            continue
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1,))
        points = [point for _, point, _ in _separation_rounds(monkeypatch, inst, Config(max_rounds=10))]
        arcs, commodities = range(len(inst.arcs)), range(len(inst.commodities))
        for trial in range(60):
            x = {(a, k): F(rng.randint(-2, 12), rng.choice((1, 3, 4, 997))) for a in arcs for k in commodities}
            y = {(a, 0): F(rng.randint(-3, 12), rng.choice((1, 1, 2, 5, 1009))) for a in arcs}
            if trial % 2:  # y near the load, where cuts are violated
                y = {(a, 0): sum((x[(a, k)] for k in commodities), F(0)) + F(rng.randint(-4, 4), 7) for a in arcs}
            points.append(FractionalPoint(x=x, y=y))
        sep = engine.Separation(inst, Config(families=("rc",)))
        for point in points:
            got = list(engine._rc(sep, cutset_cuts.ScaledPoint(inst, point)))
            want = [reference_rc_arc(inst, ai, point) for ai in arcs]
            assert [(c.normalized_key(), c.params) for c in got] == [
                (c.normalized_key(), c.params) for c in want if c is not None]
            cuts += len(got)
            no_cuts += len(want) - len(got)
    assert cuts > 100 and no_cuts > 1000, (cuts, no_cuts)


def test_integer_admission_matches_fraction_violation(monkeypatch):
    """Built-once candidates yielded on their ints, at the point's
    shared scaling and at one by its ``y`` alone, are exactly those whose
    ``Fraction`` violation exceeds eps: at every golden round
    point, at random points with denominators up to MAX_DENOMINATOR, and
    at the threshold itself, where a violation of exactly eps is refused
    and one of eps + 1/10**12 admitted."""
    rng = random.Random(16)
    for seed in sorted(GOLDEN_4_NODE):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
        rounds = _separation_rounds(monkeypatch, inst, Config(max_rounds=10))
        sep = rounds[0][0]
        assert {"partition"} <= set(sep.fixed) and all(sep.fixed.values())
        for _, point, _ in rounds:
            _assert_same_admission(sep, point)
        keys = [(ai, mi) for ai in range(len(inst.arcs)) for mi in range(len(inst.facilities))]
        for _ in range(20):
            y = {}
            for key in keys:
                if rng.random() < 0.7:
                    den = rng.randint(1, engine.MAX_DENOMINATOR)
                    y[key] = F(rng.randint(0, 3 * den), den)
            _assert_same_admission(sep, FractionalPoint(y=y))
        # one cut at the threshold: its first key carries lhs = rhs - violation
        for name, forms in sep.fixed.items():
            cut = forms[-1].cut
            key, coef = next(iter(cut.cap.items()))
            for violation, admitted in ((sep.eps, False), (sep.eps + F(1, 10**12), True)):
                point = FractionalPoint(y={key: (cut.rhs - violation) / coef})
                assert cut.violation(point) == violation
                _assert_same_admission(sep, point)
                for scaled in _scalings(inst, point):
                    assert any(c is cut for c, _ in _separated(sep, name, scaled)) == admitted


def test_int_admission_refuses_a_violation_of_exactly_eps_and_admits_one_just_above(monkeypatch):
    """``rc`` and the built-once ``cutset`` and ``partition`` admit on the
    ints of the round's scaled point (``LinearCut.violation`` with eps): on
    one-facility instances of the ``loop-4n`` ladder, each candidate they
    yield at a round point is refused with eps at its exact violation and
    yielded, with the ``Fraction`` that ``LinearCut.violation`` gives, with
    eps 1/10**12 below it, at the scaled point as at the ``FractionalPoint``;
    and ``separate_all`` yields the reference's ``(family, cut,
    violation)`` triples, params included."""
    checked = dict.fromkeys(("rc", "cutset", "partition"), 0)
    for seed in (6, 36):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1,))
        config = Config(max_rounds=10)
        for sep, point, found in _separation_rounds(monkeypatch, inst, config):
            reference = _first_of_each_key(reference_separate_all(inst, point, config))
            assert [(family, cut.params, violation) for family, cut, violation in found.candidates] == [
                (family, cut.params, violation) for family, cut, violation in reference]
            assert _listing(found.candidates) == _listing(reference)
            scaled = cutset_cuts.ScaledPoint(inst, point)
            for fam in sep.families:
                if fam.name not in checked:
                    continue
                for cut, violation in fam.separate(sep, scaled):
                    key = cut.normalized_key()
                    for eps, admitted in ((violation, False), (violation - F(1, 10**12), True)):
                        at = copy.copy(sep)
                        at.eps = eps
                        got = {c.normalized_key(): v for c, v in fam.separate(at, scaled)}
                        assert (key in got) == admitted
                        want = violation if admitted else None
                        assert cut.violation(scaled, eps) == cut.violation(point, eps) == want
                        if admitted:
                            assert (got[key], type(got[key])) == (cut.violation(scaled), F)
                            assert got[key] == cut.violation(point) == eps + F(1, 10**12)
                    checked[fam.name] += 1
    assert all(n >= 4 for n in checked.values()), checked


def test_built_once_keys_are_those_of_the_cut_coefficients():
    """Each built-once candidate's key, read from the ints it was built
    from, is the ``normalized_key()`` a fresh copy of the cut computes
    from its ``Fraction`` coefficients, and the candidates' keys are
    distinct."""
    for gen in (dict(seed=3, nodes=6, density=0.7, facilities=(1, 3)),
                dict(seed=3, nodes=10, density=0.4, facilities=(1,))):
        sep = engine.Separation(generate_instance(**gen), Config())
        for name, forms in sep.fixed.items():
            cuts = [form.cut for form in forms]
            keys = [cut.normalized_key() for cut in cuts]
            assert keys == [LinearCut(c.flow, c.cap, c.rhs, c.family).normalized_key() for c in cuts]
            assert len(set(keys)) == len(keys) > 0, name


# criterion 11's batch shapes: first seed, nodes, density, facilities, families, unsplittable
CRITERION_11_SHAPES = [
    (1001, 3, 0.9, (1,), ("rc", "cutset", "flowcutset", "metric", "partition"), False),
    (1101, 4, 0.5, (1,), ("rc", "cutset", "flowcutset", "partition"), False),
    (1141, 3, 0.7, (1, 2), ("mf", "metric", "partition"), False),
    (1176, 3, 0.9, (1,), ("rc", "cstrong", "cutset", "flowcutset"), True),
]

# the benchmark's loop ladders (perfbench/bench.py) as (generator arguments,
# config), run as netdes-cuts run runs them, and criterion 11's 200 instances
# with their families and four rounds, whose first six of each batch shape are
# the oracle-sweep ladder
LOOP_4N = [(dict(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s % 2 else (1,)), Config(max_rounds=10))
           for s in range(1, 41)]
LOOP_5N = [(dict(seed=s, nodes=5, density=0.5, facilities=(1, 3) if s % 2 else (1,)), Config(max_rounds=10))
           for s in range(1, 9)]
CRITERION_11 = [
    (dict(seed=s, nodes=nodes, density=density, facilities=facilities, flow_cost_prob=0.4,
          mode="disaggregated" if unsplittable else "aggregated", unsplittable=unsplittable),
     Config(families=families, max_rounds=4))
    for (first, nodes, density, facilities, families, unsplittable), count in zip(CRITERION_11_SHAPES, (100, 40, 35, 25))
    for s in range(first, first + count)
]


def _loop_rounds(monkeypatch, ladder):
    """Per instance of ``ladder``, its loop's ``Separation`` and round points."""
    rounds, separate_all = [], engine.separate_all

    def recording(sep, point):
        rounds.append((sep, point))
        return separate_all(sep, point)

    monkeypatch.setattr(engine, "separate_all", recording)
    for gen, config in ladder:
        del rounds[:]
        cutting_plane_loop(generate_instance(**gen), config)
        yield rounds[0][0], [point for _, point in rounds]


def test_built_once_forms_decide_as_their_cuts(monkeypatch):
    """At every round point of the ``loop-4n`` and ``loop-5n`` ladders and
    of criterion 11's instances, each built-once family yields, in order,
    the cut of each form whose cut ``LinearCut.violation(scaled, eps)``
    admits, with that violation; and each form holds its cut's ints: its
    coefficients on each arc of its group, its rhs, over ``den=1``."""
    forms = points = admitted = 0
    for sep, round_points in _loop_rounds(monkeypatch, LOOP_4N + LOOP_5N + CRITERION_11):
        for form in (form for fixed in sep.fixed.values() for form in fixed):
            cut = form.cut
            assert (cut.flow_num, cut.den, cut.rhs_num) == ({}, 1, form.rhs)
            assert cut.cap_num == {(ai, mi): c for mi, c in enumerate(form.coefs) if c for ai in form.arcs}
            forms += 1
        for point in round_points:
            scaled = cutset_cuts.ScaledPoint(sep.instance, point)
            for name, fixed in sep.fixed.items():
                want = [(form.cut, form.cut.violation(scaled, sep.eps)) for form in fixed]
                want = [(cut, v) for cut, v in want if v is not None]
                got = _separated(sep, name, scaled)
                assert [(id(cut), v, type(v)) for cut, v in got] == [(id(cut), v, type(v)) for cut, v in want]
                admitted += len(got)
            points += 1
    assert (forms, points) == (777 + 475 + 1429, 473) and admitted > 1000, (forms, points, admitted)


def test_the_loop_builds_only_the_built_once_cuts_it_yields(monkeypatch):
    """Over one loop, ``cutset`` and ``partition`` make a ``LinearCut``
    once for each distinct candidate a round yields and for no other: on
    the ``loop-4n`` ladder 316 cuts of its 777 candidates."""
    made, yielded, candidates = [], set(), 0
    init, separate_all = LinearCut.__init__, engine.separate_all

    def counting(self, flow, cap, rhs, family, *args, **kwargs):
        made.append(family)
        init(self, flow, cap, rhs, family, *args, **kwargs)

    def recording(sep, point):
        found = separate_all(sep, point)
        yielded.update((name, loop, cut.normalized_key()) for name, cut, _ in found.candidates
                       if name in ("cutset", "partition"))
        return found

    monkeypatch.setattr(LinearCut, "__init__", counting)
    monkeypatch.setattr(engine, "separate_all", recording)
    built = 0
    for loop, (gen, config) in enumerate(LOOP_4N):  # not id(sep): a freed Separation's id is reused
        del made[:]
        sep = engine.Separation(generate_instance(**gen), config)
        candidates += sum(map(len, sep.fixed.values()))
        cutting_plane_loop(generate_instance(**gen), config)
        built += sum(family in ("cutset", "partition", "threepartition", "threepartition-metric") for family in made)
    assert (candidates, built, len(yielded)) == (777, 316, 316)


def test_built_once_forms_build_the_reference_candidates():
    """The built-once forms, in order, build the candidates of the
    ``Fraction`` references (``helpers``) with their first occurrence of
    each key: same cuts, coefficient order, rhs, family and params; on
    seven nodes (sampled three-partitions), ten (sampled two-partitions),
    two, and with a fractional facility size, where ``partition`` does
    not apply."""
    cases = [dict(seed=3, nodes=7, density=0.5, facilities=(1, 3)), dict(seed=3, nodes=10, density=0.4, facilities=(1,)),
             dict(seed=2, nodes=2, density=0.9, facilities=(1,)), dict(seed=3, nodes=4, density=0.6, facilities=(F(3, 2),))]
    for gen in cases:
        inst = generate_instance(**gen)
        want = {}
        if len(inst.facilities) == 1:
            want["cutset"] = distinct_cuts(reference_cutset_candidates(inst))
        if inst.integral_capacities():
            want["partition"] = distinct_cuts(reference_partition_candidates(inst))
        fixed = engine.Separation(inst, Config()).fixed
        assert list(fixed) == list(want) and all(want.values()), gen
        for name, forms in fixed.items():
            fields = [(cut.family, list(cut.cap.items()), cut.rhs, cut.params) for cut in want[name]]
            assert [(c.family, list(c.cap.items()), c.rhs, c.params) for c in (f.cut for f in forms)] == fields


def test_cutset_families_offer_each_key_once_per_round(monkeypatch):
    """No round's ``separate_all`` output repeats a key among its
    ``flowcutset`` and ``mf`` cuts, and every violation it hands over is
    the cut's exact violation at the round's point."""
    repeats_offered = 0
    for seed in (1, 2, 3):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
        rounds = _separation_rounds(monkeypatch, inst, Config(max_rounds=10))
        for sep, point, found in rounds:
            keys = [cut.normalized_key() for _, cut, _ in found.candidates if cut.family in ("flowcutset", "mf")]
            assert len(keys) == len(set(keys))
            assert all(violation == cut.rhs - lhs_value(cut, point) for _, cut, violation in found.candidates)
            # the former separators offered repeats at these points
            reference = reference_separate_all(inst, point, Config(max_rounds=10))
            keys = [cut.normalized_key() for _, cut, _ in reference if cut.family in ("flowcutset", "mf")]
            repeats_offered += len(keys) - len(set(keys))
    assert repeats_offered > 0


# random 3-5-node instances of every facility shape the table tells apart
CONTRACT_SHAPES = [dict(facilities=(1,)), dict(facilities=(1, 3)), dict(facilities=(1, 2)),
                   dict(facilities=(1,), mode="disaggregated", unsplittable=True)]


def test_every_family_yields_its_violated_candidates_with_exact_violations(monkeypatch):
    """At the round points of random 3-5-node loops, every family of
    ``SEPARATORS`` yields ``(cut, violation)`` pairs whose violation is
    ``cut.violation`` at the ``FractionalPoint`` and exceeds eps.  Rerun
    with eps at the least and at the greatest yielded violation, a family
    drops that candidate and still yields each candidate violated by more."""
    rng = random.Random(38)
    yielded, reruns = dict.fromkeys(engine.FAMILIES, 0), 0
    for shape in CONTRACT_SHAPES:
        for _ in range(3):
            inst = generate_instance(seed=rng.randrange(10**6), nodes=rng.randint(3, 5), density=0.7, **shape)
            for sep, point, _ in _separation_rounds(monkeypatch, inst, Config(max_rounds=4)):
                scaled = cutset_cuts.ScaledPoint(inst, point)
                for fam in sep.families:
                    pairs = list(fam.separate(sep, scaled))
                    assert all(v == cut.violation(point) and v > sep.eps for cut, v in pairs)
                    yielded[fam.name] += len(pairs)
                    for cut, v in sorted(pairs, key=lambda pair: pair[1])[::max(1, len(pairs) - 1)]:
                        strict = copy.copy(sep)
                        strict.eps = v
                        again = list(fam.separate(strict, scaled))
                        assert all(u > v for _, u in again) and not any(c == cut for c, _ in again)
                        kept = {(c.normalized_key(), u) for c, u in pairs if u > v}
                        assert kept <= {(c.normalized_key(), u) for c, u in again}
                        reruns += 1
    assert yielded.pop("metric") == 0 and all(yielded.values()) and reruns > 60, (yielded, reruns)


def test_a_finished_loop_keeps_no_round_scaling_alive(monkeypatch):
    """Once ``cutting_plane_loop`` has returned and the collector has run,
    no pooled cut, report or other part of its result keeps a round's
    ``ScaledPoint`` or one of its ``IntegerView``s alive."""
    points, views = [], []

    class TrackedPoint(cutset_cuts.ScaledPoint):
        def __init__(self, *args):
            super().__init__(*args)
            points.append(weakref.ref(self))

    class TrackedView(cutset_cuts.IntegerView):
        def __init__(self, *args):
            super().__init__(*args)
            views.append(weakref.ref(self))

    monkeypatch.setattr(engine, "ScaledPoint", TrackedPoint)
    monkeypatch.setattr(cutset_cuts, "IntegerView", TrackedView)
    for facilities in ((1,), (1, 3)):
        del points[:], views[:]
        res = cutting_plane_loop(generate_instance(seed=3, nodes=4, facilities=facilities), Config(max_rounds=10))
        gc.collect()
        assert len(res.pool) > 0 and len(points) == len(res.reports) and views
        assert all(ref() is None for ref in points + views)


def test_one_cutset_greedy_family_per_instance():
    """``flowcutset`` runs on one facility and ``mf`` on several; the other
    is named inapplicable, as ``metric`` always is."""
    one = generate_instance(seed=2, nodes=4, density=0.6, facilities=(1,))
    two = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    sep = engine.Separation(one, Config())
    assert [f.name for f in sep.families] == ["rc", "cutset", "flowcutset", "partition"]
    assert sep.inapplicable == ["cstrong", "mf", "metric"]
    sep = engine.Separation(two, Config())
    assert [f.name for f in sep.families] == ["mf", "partition"]
    assert sep.inapplicable == ["rc", "cstrong", "cutset", "flowcutset", "metric"]
    assert engine.Separation(one, Config(families=("mf",))).families == []
    assert cutting_plane_loop(one, Config(families=("mf", "partition"))).inapplicable == ["mf"]


def test_mf_on_one_facility_adds_no_bound(monkeypatch):
    """Run with ``mf`` applying to every instance, a one-facility loop ends
    at the exact bound of the one-greedy table, with a pool at least as
    large."""
    instances = [generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1,))
                 for seed in sorted(GOLDEN_4_NODE) if seed % 2 == 0]
    instances.append(generate_instance(seed=3, nodes=10, density=0.4, facilities=(1,)))
    config = Config(max_rounds=10)
    table = engine.SEPARATORS
    everywhere = tuple(dataclasses.replace(f, applies=lambda inst: True) if f.name == "mf" else f for f in table)
    smaller = 0
    for inst in instances:
        new = cutting_plane_loop(inst, config)
        monkeypatch.setattr(engine, "SEPARATORS", everywhere)
        old = cutting_plane_loop(inst, config)
        monkeypatch.setattr(engine, "SEPARATORS", table)
        assert "mf" in old.reports[0].families and "mf" not in new.reports[0].families
        assert new.exact_bound == old.exact_bound
        assert len(new.pool) <= len(old.pool)
        smaller += len(new.pool) < len(old.pool)
    assert smaller > 0


def test_one_separate_all_call_views_each_relaxation_once(monkeypatch):
    """``separate_all`` makes one ``ScaledPoint`` and gives it to every
    family, so within one call each cut-set relaxation's ``IntegerView``
    is built exactly once, though the greedy separators, the skipped count
    and, on the 6-node instance of 10 commodities, the alternation's
    subset search all read it."""
    from collections import Counter

    built, per_call, subset_searches = [], [], []
    view, search, separate_all = cutset_cuts.IntegerView, cutset_cuts.separate_commodity_subset, engine.separate_all

    class CountedView(view):
        def __init__(self, rel, scaled):
            built.append(rel)
            super().__init__(rel, scaled)

    def recording(sep, point):
        del built[:]
        found = separate_all(sep, point)
        per_call.append((sep, Counter(built)))
        return found

    monkeypatch.setattr(cutset_cuts, "IntegerView", CountedView)
    monkeypatch.setattr(cutset_cuts, "separate_commodity_subset",
                        lambda *args: subset_searches.append(1) or search(*args))
    monkeypatch.setattr(engine, "separate_all", recording)
    for gen in (dict(nodes=4, facilities=(1,)), dict(nodes=4, facilities=(1, 3)),
                dict(nodes=6, facilities=(1,), mode="disaggregated")):
        cutting_plane_loop(generate_instance(seed=3, **gen), Config(max_rounds=3))
    assert len(per_call) >= 6 and subset_searches
    for sep, views in per_call:
        assert set(views) == set(sep.relaxations) and set(views.values()) == {1}


def test_cutset_separators_skip_relaxations_without_cuts(monkeypatch):
    """At the golden round points, ``flowcutset`` and ``mf`` run their
    pass (``separate_relaxation``) on every relaxation with an arc U -> V
    whose crossing point lies off its mixed-integer set and on no other,
    and ``separate_all`` still gives the reference's candidates."""
    calls = []
    real = cutset_cuts.separate_relaxation

    def counted(rel, scaled, *args, **kwargs):
        calls.append((rel, scaled.point))
        return real(rel, scaled, *args, **kwargs)

    monkeypatch.setattr(cutset_cuts, "separate_relaxation", counted)
    mixed_integer = separated = 0
    for seed in sorted(GOLDEN_4_NODE):
        inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
        rounds = _separation_rounds(monkeypatch, inst, Config(max_rounds=10))
        per_round = [{id(rel) for rel, at in calls if at is point} for _, point, _ in rounds]
        for (sep, point, found), searched in zip(rounds, per_round):
            for rel in sep.relaxations:
                skip = not rel.A_plus or in_cutset_mixed_integer_set(rel, point)
                assert skip != (id(rel) in searched)
                mixed_integer += bool(rel.A_plus) and skip
                separated += not skip
            reference = _first_of_each_key(reference_separate_all(inst, point, Config(max_rounds=10)))
            assert _listing(found.candidates) == _listing(reference)
        del calls[:]
    assert mixed_integer > 100 and separated > 50, (mixed_integer, separated)


def test_three_partition_shrunk_once(monkeypatch):
    """A ``Separation`` makes one node-pair table of the instance, reads
    each two-partition's sums off its cut-set relaxation and derives each
    three-partition's ``s``, ``t`` and ``d`` once for both total-capacity
    right-hand sides, all with no shrink; a three-partition is shrunk
    once, when its winner's cut is first read, and its sums derived once
    more there.  The cut it keeps is the one ``select_total_capacity_cut``
    (``helpers``) picks from the public builders' pair."""
    from netdes_cuts import engine, partition_cuts

    calls = {"NodePairTable": 0, "shrink": 0, "_three_partition_sums": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    inst = generate_instance(seed=1, nodes=4, density=0.6, facilities=(1, 3))
    parts = list(engine._three_partitions(inst))
    table = partition_cuts.NodePairTable(inst)
    for part in parts:
        got = partition_cuts.total_capacity_cut(table.shrink(part))
        pair = (partition_cuts.three_partition_cut(inst, part), partition_cuts.three_partition_metric_cut(inst, part))
        want = select_total_capacity_cut([cut for cut in pair if cut is not None])
        assert (got, got.params) == (want, want.params)
    monkeypatch.setattr(partition_cuts.NodePairTable, "__init__",
                        counted("NodePairTable", partition_cuts.NodePairTable.__init__))
    monkeypatch.setattr(partition_cuts.NodePairTable, "shrink", counted("shrink", partition_cuts.NodePairTable.shrink))
    monkeypatch.setattr(partition_cuts, "_three_partition_sums",
                        counted("_three_partition_sums", partition_cuts._three_partition_sums))
    sep = engine.Separation(inst, Config(families=("partition",)))
    assert calls == {"NodePairTable": 1, "shrink": 0, "_three_partition_sums": len(parts)}
    for _ in range(2):
        winners = [form for form in sep.fixed["partition"] if form.cut.family.startswith("threepartition")]
        assert calls == {"NodePairTable": 1, "shrink": len(winners), "_three_partition_sums": len(parts) + len(winners)}
    assert len(winners) == len(parts)


def test_point_independent_candidates_built_once_per_loop(monkeypatch):
    """A loop of many rounds makes its node-pair table, sums partitions,
    rounds each distinct cover once and builds relaxations and arc rows
    exactly as often as a loop of one; it shrinks a three-partition only to
    build an admitted winner, at most once; families that need none of it
    build none."""
    from netdes_cuts import arc_cuts, cutset_cuts, engine, partition_cuts

    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(partition_cuts.NodePairTable, "shrink")
    counting(partition_cuts.NodePairTable, "crossing")
    counting(partition_cuts, "NodePairTable")
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
    parts = len(list(engine._three_partitions(inst)))
    assert 0 < first.pop("shrink") <= loop.pop("shrink") <= parts
    assert first == loop and first["NodePairTable"] == 1 and first["crossing"] == parts
    # one hull per distinct cover: the covers of the two-partitions with a
    # positive requirement and of the winners with a positive rhs
    table = partition_cuts.NodePairTable(inst)
    covers = {table.shrink(partition_cuts.NodePartition.of(U, V)).net((0, 1))
              for U, V in engine._two_partitions(inst)}
    for part in engine._three_partitions(inst):
        winner = partition_cuts.total_capacity_cut(table.shrink(part))
        if winner is not None:
            covers.add(winner.rhs * table.scale)
    covers = {b for b in covers if b > 0}
    assert first["hull_inequalities"] == len(covers) > 1
    assert unused == {}
    # rc and cstrong read each arc's capacity row, made once per loop in the instance's mode
    counting(arc_cuts, "from_capacity_row")
    inst = generate_instance(seed=20, nodes=3, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True)
    counts = []
    for max_rounds in (1, 10):
        calls.clear()
        res = cutting_plane_loop(inst, Config(families=("rc", "cstrong"), max_rounds=max_rounds))
        counts.append((len(res.reports), dict(calls)))
    (one, first), (many, loop) = counts
    assert one == 1 and many >= 2
    assert first == loop == {"from_capacity_row": len(inst.arcs)}


@pytest.mark.parametrize("families", [("flowcutset", "partition"), ("partition",), ("mf", "partition")])
def test_one_cut_set_relaxation_per_two_partition_per_loop(monkeypatch, families):
    """The ``partition`` family reads its two-partitions off the cut-set
    relaxations the cut-set families read: a whole loop builds one per
    ordered two-partition, with or without a cut-set family running."""
    built = []
    build_cutset = cutset_cuts.build_cutset
    monkeypatch.setattr(cutset_cuts, "build_cutset", lambda *args: built.append(args[1:]) or build_cutset(*args))
    for facilities in ((1,), (1, 3)):
        inst = generate_instance(seed=1, nodes=5, density=0.6, facilities=facilities)
        del built[:]
        res = cutting_plane_loop(inst, Config(families=families, max_rounds=10))
        assert len(res.reports) >= 2 and len(res.pool) > 0
        assert "partition" in res.reports[0].families
        assert built == list(engine._two_partitions(inst))
        assert len(built) == 2 ** len(inst.nodes) - 2


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


# optima of the exact simplex at every grid point (ybound=1) on criterion
# 11's batch instances (see CRITERION_11_SHAPES): (value, y, x) of the
# optimum, or None when no installation in the grid routes the demand
EXACT_ORACLE = {
    1001: None,
    1002: (F(3), {(0, 0): 1}, {(0, 0): F(1, 6)}),
    1003: (F(3), {(2, 0): 1, (3, 0): 1}, {(2, 0): F(1, 2), (3, 0): F(1, 2), (3, 1): F(1, 2)}),
    1004: None,
    1005: (F(59, 6), {(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1},
           {(1, 0): F(3, 4), (2, 1): F(1, 3), (3, 1): F(1, 3), (4, 2): F(1, 3)}),
    1006: (F(1), {(2, 0): 1}, {(2, 0): F(1, 2), (3, 0): F(1, 2)}),
    1101: None,
    1102: (F(25, 3), {(5, 0): 1},
           {(0, 1): F(1, 2), (1, 1): 1, (3, 0): F(1, 6), (3, 1): F(1, 2), (4, 0): F(1, 6), (5, 1): F(3, 2)}),
    1103: (F(32, 3), {(2, 0): 1, (3, 0): 1, (4, 0): 1, (5, 0): 1},
           {(0, 0): 1, (2, 1): F(2, 3), (3, 2): 1, (4, 1): F(2, 3), (4, 2): F(1, 3), (5, 1): F(2, 3)}),
    1104: None,
    1105: None,
    1106: None,
    1141: (F(2), {(0, 1): 1}, {(0, 0): 2, (1, 0): 1}),
    1142: (F(1, 2), {(1, 0): 1}, {(1, 0): F(1, 3)}),
    1143: (F(1, 3), {}, {(3, 0): F(1, 3)}),
    1176: (F(1, 4), {}, {(3, 0): F(1, 4)}),
    1177: None,
    1178: (F(1, 6), {}, {(4, 0): F(1, 6)}),
    1179: None,
    1180: (F(11, 6), {(0, 0): 1}, {(0, 0): F(1, 6)}),
    1181: (F(4), {(2, 0): 1, (4, 0): 1}, {(2, 0): F(1, 2), (4, 1): 1}),
}


def criterion_11_instance(seed):
    """The instance of ``seed`` in criterion 11's batch that contains it."""
    first, nodes, density, facilities, _, unsplittable = [s for s in CRITERION_11_SHAPES if s[0] <= seed][-1]
    return generate_instance(
        seed=seed, nodes=nodes, density=density, facilities=facilities,
        mode="disaggregated" if unsplittable else "aggregated", unsplittable=unsplittable, flow_cost_prob=0.4,
    )


@pytest.mark.parametrize("seed", sorted(EXACT_ORACLE))
def test_brute_force_answers_are_exact_without_exact_solves(monkeypatch, seed):
    inst = criterion_11_instance(seed)
    modes = count_solves(monkeypatch)
    best = brute_force_ip(inst, ybound=1)
    # float solves only, and none where the unsplittable enumeration decides
    # or where node cuts refute every grid point (no installation routes the demand)
    assert bool(modes) == (not inst.unsplittable and EXACT_ORACLE[seed] is not None) and not any(modes)
    expected = EXACT_ORACLE[seed]
    if expected is None:
        assert best is None
        return
    value, point = best
    assert type(value) is F and value == expected[0]
    assert (point.y, point.x) == expected[1:]
    # the flow fits its installation exactly and prices to the optimum
    caps = [arc_capacity(inst, ai, point.y) for ai in range(len(inst.arcs))]
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


class _Hung(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds: int):
    """Raise ``_Hung`` in the body after ``seconds``, so a walk that never
    stops fails the test instead of hanging the run."""

    def hung(signum, frame):
        raise _Hung(f"no answer in {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bounds, message", [
    (dict(ybound=-1), r"y bound -1 of \(0, 0\): want a bound >= 0"),
    (dict(y_bounds={(0, 0): 1, (1, 0): -1}), r"y bound -1 of \(1, 0\): want a bound >= 0"),
    (dict(y_bounds={(0, 5): 1}), r"y bound 1 of \(0, 5\): want a bound >= 0 on an \(arc, facility\) pair"),
    (dict(y_bounds={(-1, 0): 1}), r"y bound 1 of \(-1, 0\): want a bound >= 0 on an \(arc, facility\) pair"),
    (dict(y_bounds={(0, 0): 1.5}), r"y bound 1.5 of \(0, 0\): want an integer bound"),
    (dict(y_bounds={(0, 0): 1.0}), r"y bound 1.0 of \(0, 0\): want an integer bound"),
    (dict(y_bounds={(0, 0): True}), r"y bound True of \(0, 0\): want an integer bound"),
    (dict(y_bounds={(0, 0): "1"}), r"y bound '1' of \(0, 0\): want an integer bound"),
    (dict(y_bounds={(0, 0): None}), r"y bound None of \(0, 0\): want an integer bound"),
    (dict(y_bounds={(0, 0): F(1)}), r"y bound Fraction\(1, 1\) of \(0, 0\): want an integer bound"),
    (dict(ybound=1.5), r"y bound 1.5 of \(0, 0\): want an integer bound"),
    (dict(ybound=True), r"y bound True of \(0, 0\): want an integer bound"),
])
def test_oracles_refuse_bad_grid_bounds(bounds, message):
    """A negative bound would leave the grid empty, where every grid cut
    holds and nothing is feasible, and a key naming no (arc, facility) pair
    installs nothing; under a bound of 1.5 the odometer never meets its
    bound and the walk never stops, True would count as 1, and a string or
    None would fail deep in the walk.  ``_grid`` and both oracles refuse
    each, naming key and value, before any point is walked."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    cut = LinearCut({(0, 0): F(1)}, {(0, 0): F(1)}, F(100), "other")
    assert validate_cut(cut, inst, ybound=1)[0] is False
    with pytest.raises(ValueError, match=message):
        oracle._grid(inst, bounds.get("y_bounds"), bounds.get("ybound"))
    with _alarm(20):
        with pytest.raises(ValueError, match=message):
            validate_cut(cut, inst, **bounds)
        with pytest.raises(ValueError, match=message):
            brute_force_ip(inst, **bounds)


@pytest.mark.parametrize("flow, cap, message", [
    ({(5, 0): -1}, {}, r"x key \(5, 0\): want a key on an \(arc, commodity\) pair"),
    ({(0, 2): 1}, {(0, 0): 1}, r"x key \(0, 2\): want a key on an \(arc, commodity\) pair"),
    ({}, {(-1, 0): 1}, r"y key \(-1, 0\): want a key on an \(arc, facility\) pair"),
    ({}, {(99, 0): 1}, r"y key \(99, 0\): want a key on an \(arc, facility\) pair"),
    ({(0, 0): 1}, {(0, 1): 1}, r"y key \(0, 1\): want a key on an \(arc, facility\) pair"),
], ids=["arc-past-the-end", "commodity-past-the-end", "negative-arc", "arc-99", "facility-past-the-end"])
def test_cut_keys_that_name_no_variable_are_refused(flow, cap, message):
    """A cut key outside the instance would alias another column (arc 5 of
    commodity 0 is column 5, commodity 1's flow on arc 0), index from the
    end or fall off a list; ``validate_cuts`` and ``build_relaxation``, with
    or without a base, refuse it, naming the key."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    assert (len(inst.arcs), len(inst.commodities), len(inst.facilities)) == (5, 2, 1)
    good, bad = LinearCut({(4, 1): 1}, {(4, 0): 1}, 1, "x"), LinearCut(flow, cap, 1, "x")
    with pytest.raises(ValueError, match=message):
        validate_cuts([good, bad], inst, ybound=1)
    with pytest.raises(ValueError, match=message):
        lp.build_relaxation(inst, [good, bad])
    with pytest.raises(ValueError, match=message):
        lp.build_relaxation(inst, [good, bad], base=lp.build_relaxation(inst, [good]))


@pytest.mark.parametrize("key, message", [
    ((1, 0.0), r"y key \(1, 0\.0\): want a pair of ints, an \(arc, facility\) pair"),
    (("1", 0), r"y key \('1', 0\): want a pair of ints"),
    ((1,), r"y key \(1,\): want a pair of ints"),
    ((1, 0, 0), r"y key \(1, 0, 0\): want a pair of ints"),
    (None, r"y key None: want a pair of ints"),
    ((1.0, 0), r"y key \(1\.0, 0\): want a pair of ints"),
    ((True, 0), r"y key \(True, 0\): want a pair of ints"),
], ids=["float-facility", "string-arc", "one-int", "three-ints", "none", "float-arc", "bool-arc"])
def test_cut_keys_that_are_no_pair_of_ints_are_refused(key, message):
    """A key of the wrong type would fail deep inside a row build (a float
    index), fail to compare (a string), fail to unpack (one or three
    entries, None) or pass as the arc it equals (1.0 and True as arc 1);
    ``validate_cuts`` and ``build_relaxation`` refuse each, naming the key."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    bad = LinearCut({}, {key: 1}, 1, "x")
    with pytest.raises(ValueError, match=message):
        validate_cuts([bad], inst, ybound=1)
    with pytest.raises(ValueError, match=message):
        lp.build_relaxation(inst, [bad])


@pytest.mark.parametrize("rhs", [0, -1])
def test_a_pure_capacity_cut_with_rhs_at_most_0_holds_without_a_routing_decision(monkeypatch, rhs):
    """A nonnegative pure-capacity cut with rhs <= 0 holds everywhere: no
    pattern lies below its rhs, not even the origin, so nothing is decided.
    At rhs 1 the origin is the one pattern, and it is decided."""
    calls, minima = [], oracle._Routing.minima
    monkeypatch.setattr(oracle._Routing, "minima", lambda self, *args: calls.append(args) or minima(self, *args))
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    assert validate_cut(LinearCut({}, {(0, 0): 1}, rhs, "x"), inst) == (True, None)
    assert calls == []
    validate_cut(LinearCut({}, {(0, 0): 1}, 1, "x"), inst)
    assert len(calls) == 1


def test_brute_force_budget():
    inst = generate_instance(seed=1, nodes=5, density=1.0, facilities=(1, 2, 3))
    with pytest.raises(BudgetExceededError):
        brute_force_ip(inst, ybound=9)


@pytest.mark.parametrize("gen, y_bounds, rhs", [
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), None, None),
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), {(0, 0): 2, (1, 0): 0, (3, 0): 1, (4, 0): 3}, None),
    (dict(seed=2, nodes=3, density=0.9, facilities=(1, 3)), None, None),
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), None, 4),
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), {(0, 0): 2, (1, 0): 0, (3, 0): 1, (4, 0): 3}, 6),
    (dict(seed=2, nodes=3, density=0.9, facilities=(1, 3)), None, 5),
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), None, 0),
    (dict(seed=1, nodes=3, density=0.9, facilities=(1,)), None, -1),
], ids=["default", "explicit-with-zero", "two-facilities", "default-under-rhs", "explicit-under-rhs",
        "two-facilities-under-rhs", "rhs-0", "rhs-negative"])
def test_grid_walk_matches_the_reference_formula(gen, y_bounds, rhs):
    """``_walk`` steps one count at a time and updates the arcs' scaled
    capacities in one list, in place; copied at each step, its vectors are
    the points of summing every point afresh (``reference_grid``), in
    ``itertools.product`` order: default bounds, explicit ones with a zero
    bound and an unkeyed arc, and two facility sizes.  Given positive
    coefficients and an rhs, it walks those points whose keyed sum, its
    ``lhs``, stays below the rhs, in the same order, and none for an rhs
    <= 0."""
    inst = generate_instance(**gen)
    keys, bounds = oracle._grid(inst, y_bounds, None)
    limit = () if rhs is None else ([1 + i % 3 for i in range(len(keys))], rhs)
    walked = [(t, list(caps), lhs) for t, caps, lhs in oracle._walk(inst, keys, bounds, inst.cbar_num, *limit)]
    want_keys, points = reference_grid(inst, y_bounds or default_y_bounds(inst))
    sums = [sum(c * n for c, n in zip(limit[0], t)) if limit else 0 for t, _ in points]
    want = [(t, caps, lhs) for (t, caps), lhs in zip(points, sums) if rhs is None or lhs < rhs]
    assert keys == want_keys and walked == want
    assert len(points) == math.prod(1 + b for b in (y_bounds or default_y_bounds(inst)).values())
    if rhs is not None:  # both limits bind: the rhs leaves points out, and some walked count reaches its bound
        assert (0 < len(walked) < len(points)) == (rhs > 0)
        assert any(n == b for t, _, _ in walked for n, b in zip(t, bounds) if b) == (rhs > 0)


def test_grid_refuses_bad_keys_and_budget_before_walking(monkeypatch):
    """``_grid`` checks every key and the grid size when called, before any
    point is walked."""
    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    with pytest.raises(ValueError, match="want a bound >= 0 on an"):
        oracle._grid(inst, {(0, 0): 1, (9, 0): 1}, None)
    monkeypatch.setattr(oracle, "GRID_BUDGET", 383)  # the default grid has 384 points
    with pytest.raises(BudgetExceededError, match="more than 383 points"):
        oracle._grid(inst, None, None)


def test_numpy_integer_grid_bounds_pass():
    """A numpy integer is an integer bound, and walks as the int would."""
    import numpy as np

    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    assert oracle._grid(inst, {(0, 0): np.int64(2)}, None) == ([(0, 0)], [2])
    assert oracle._grid(inst, None, np.int64(1)) == oracle._grid(inst, None, 1)


@pytest.mark.parametrize("given", ["y_bounds", "ybound"])
def test_numpy_integer_grid_bounds_near_2_63_exceed_the_budget(given):
    """The grid's size is counted on Python ints: ``np.int64(2**63 - 1) + 1``
    would wrap to a negative size below ``GRID_BUDGET``, and the oracles
    would walk about 9.2e18 points."""
    import numpy as np

    inst = generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    huge = np.int64(2**63 - 1)
    bounds = dict(y_bounds={**default_y_bounds(inst), (0, 0): huge}) if given == "y_bounds" else dict(ybound=huge)
    cut = LinearCut({(0, 0): F(1)}, {(0, 0): F(1)}, F(100), "other")
    with _alarm(20):
        with pytest.raises(BudgetExceededError, match="more than 1000000 points"):
            oracle._grid(inst, bounds.get("y_bounds"), bounds.get("ybound"))
        with pytest.raises(BudgetExceededError, match="more than 1000000 points"):
            validate_cut(cut, inst, **bounds)
        with pytest.raises(BudgetExceededError, match="more than 1000000 points"):
            brute_force_ip(inst, **bounds)


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


def test_pure_capacity_check_has_a_work_budget(monkeypatch):
    """The pure-capacity check walks every keyed pattern below the rhs and
    raises ``BudgetExceededError`` past ``GRID_BUDGET`` patterns instead of
    running on.  Two of the widest cut-set cuts of a 6-node instance with
    demand scaled by 20 have 9 keys: rhs 12 walks more than 1,000 patterns
    and fewer than ``GRID_BUDGET``; rhs 34 walks more."""
    inst = generate_instance(seed=3, nodes=6, density=0.9, facilities=(1,), demand_scale=20)
    relaxations = [cutset_cuts.build_cutset(inst, U, V) for U, V in engine._two_partitions(inst)]
    cuts = [cut for cut in map(cutset_cuts.cutset_cut, relaxations) if cut is not None]
    small = next(cut for cut in cuts if (len(cut.cap_num), cut.rhs_num) == (9, 12))
    wide = max(cuts, key=lambda cut: (len(cut.cap_num), cut.rhs_num))
    assert (len(wide.cap_num), wide.rhs_num) == (9, 34)
    assert validate_cut(small, inst) == (True, None)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "GRID_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="1000 patterns"):
            validate_cut(small, inst)
    with pytest.raises(BudgetExceededError, match="patterns"):
        validate_cut(wide, inst)


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

    # the batch's own certificates: with no safe bound, RoutingLP.minimum
    # certifies no price from the batch's solve and goes to the exact simplex
    monkeypatch.setattr(oracle, "proves_unroutable", lambda *args: False)
    monkeypatch.setattr(oracle, "safe_lower_bound", lambda *args: None)
    exact_solves = count_solves(monkeypatch)
    for inst, cuts, verdicts in sweep:
        assert validate_cuts(cuts, inst, ybound=1) == verdicts
    assert any(exact_solves)
    ok, counter = validate_cut(bad, star_instance, ybound=2)
    assert not ok and (ok, counter) == certified
    assert bad.violation(counter) > 0
    assert all(isinstance(v, F) for v in counter.x.values())


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


def test_node_cuts_and_per_part_pricing_change_no_oracle_answer(monkeypatch):
    """On the loop cuts of criterion 11's batch shapes (their first 6
    seeds), with raised-rhs copies that share each cut's flow part, and on
    ``brute_force_ip`` at every ``EXACT_ORACLE`` seed, the oracles answer as
    they do with the node cuts emptied: the same verdicts, counterexample
    points and optima.  Node-cut forms refute some capacity vectors, and
    only vectors that ``check_feasible_routing`` finds unroutable."""
    made, fired = {}, {}

    def recording(instance):
        forms = real_node_cuts(instance)
        made.update((id(form), (instance, form)) for form in forms)  # the form kept alive keeps its id
        return forms

    def reaches(self, scaled_caps, num, den):
        hit = real_reaches(self, scaled_caps, num, den)
        if hit and id(self.certificates[0]) in made:  # the form that reached moved to the front
            instance = made[id(self.certificates[0])][0]
            fired[(id(instance), tuple(scaled_caps))] = instance, list(scaled_caps)
        return hit

    def answers():
        out = []
        for first, nodes, density, facilities, families, unsplittable in CRITERION_11_SHAPES:
            for seed in range(first, first + 6):
                inst = criterion_11_instance(seed)
                cuts = cutting_plane_loop(inst, Config(families=families, max_rounds=4)).pool.cuts()
                cuts += [LinearCut(dict(c.flow), dict(c.cap), c.rhs + r, c.family) for c in cuts for r in (F(1, 2), F(1))]
                out.append(validate_cuts(cuts, inst, ybound=1))
        for seed in sorted(EXACT_ORACLE):
            out.append(brute_force_ip(criterion_11_instance(seed), ybound=1))
        return out

    real_node_cuts, real_reaches = oracle._node_cuts, lp.CapacityBounds.reaches
    monkeypatch.setattr(oracle, "_node_cuts", recording)
    monkeypatch.setattr(lp.CapacityBounds, "reaches", reaches)
    shipped = answers()
    assert fired
    for inst, scaled in fired.values():
        assert not lp.check_feasible_routing(inst, [F(c, inst.scale) for c in scaled])[0]
    assert sum(not ok for verdicts in shipped[:24] for ok, _ in verdicts) > 0
    monkeypatch.setattr(oracle, "_node_cuts", lambda instance: [])
    assert answers() == shipped


@pytest.mark.parametrize("nodes, seeds", [(3, range(1, 7)), (4, range(1, 4))])
def test_certificates_carry_soundly_to_other_capacity_vectors(nodes, seeds):
    """A metric certificate taken at one capacity vector refutes only
    vectors that ``check_feasible_routing`` finds unroutable, and so does
    each node-cut form (``oracle._node_cuts``), taken at no vector; a dual
    bound taken at one vector (from the float duals, or from perturbed
    ones) is the safe bound of the same duals at another, never above
    the exact minimum there (``lp.RoutingLP.minimum``).  On one arc of capacity 1
    carrying a demand of 1 the node cut is tight: it refutes capacity 0
    and not capacity 1."""
    rng = random.Random(nodes)
    carried_refutations = tight_carried_bounds = node_cut_refutations = 0
    for seed in seeds:
        inst = generate_instance(seed=seed, nodes=nodes, density=0.7, facilities=(1, 2))
        scale = inst.scale
        node_cuts = []
        for form in oracle._node_cuts(inst):
            node_cuts.append((None, lp.CapacityBounds()))
            node_cuts[-1][1].add(form)
        flow = {
            (ai, ki): F(rng.randint(-1, 3), rng.choice((1, 2)))
            for ai in range(len(inst.arcs)) for ki in range(len(inst.commodities))
        }
        routing = lp.RoutingLP(inst)
        columns, upper = routing.columns(flow), routing.upper
        vectors = [
            [F(0) if rng.random() < 0.3 else F(rng.randint(1, 3 * scale), scale) for _ in inst.arcs]
            for _ in range(10)
        ]
        refutations, bounds, answers = [], [], []
        for i, caps in enumerate(vectors):
            scaled = [c.numerator * (scale // c.denominator) for c in caps]
            rows = routing.rows(caps)
            ok, cert = lp.check_feasible_routing(inst, caps)
            answers.append((scaled, rows, ok and routing.minimum(rows, columns)[0]))
            if not ok:
                refutations.append((i, lp.CapacityBounds()))
                refutations[-1][1].add(lp.metric_bound(inst, scale, cert))
                continue
            duals = lp.solve_lp(routing.n_vars, rows, columns, upper).duals
            if i % 2:  # any duals give a safe bound; wrong-signed ones are dropped
                duals = [d + rng.uniform(-0.5, 0.5) for d in duals]
            kept = lp.CapacityBounds()
            bound = lp.safe_lower_bound(rows, columns, upper, duals)
            kept.add(lp.dual_bound(scale, scaled, bound, routing.capacity_part(duals)))
            bounds.append((i, duals, kept))
        for j, (scaled, rows, value) in enumerate(answers):
            for i, refuted in refutations + node_cuts:
                if refuted.reaches(scaled, 0, 1):
                    assert value is False
                    carried_refutations += i is not None and i != j
                    node_cut_refutations += i is None
            for i, duals, kept in bounds:
                (mult, c0, w), = kept.certificates
                bound = F(c0 + sum(c * scaled[ai] for ai, c in w.items()), mult)
                assert bound == lp.safe_lower_bound(rows, columns, upper, duals)
                if value is not False:
                    assert bound <= value
                    assert kept.reaches(scaled, bound.numerator, bound.denominator)
                    tight_carried_bounds += i != j and bound == value
    assert carried_refutations > 0 and tight_carried_bounds > 0 and node_cut_refutations > 0

    tight = Instance(
        nodes=[1, 2], arcs=[Arc(1, 2)], facilities=[Facility(1, (F(1),))], demand=DemandMatrix({(1, 2): F(1)}),
    )
    (form,) = oracle._node_cuts(tight)
    kept = lp.CapacityBounds()
    kept.add(form)
    for cap in range(3):
        routable = lp.check_feasible_routing(tight, [F(cap)])[0]
        assert routable == (cap >= 1)
        assert kept.reaches([cap * tight.scale], 0, 1) == (not routable)


def test_stubbed_certificates_leave_the_caches_empty(monkeypatch):
    """Certificates that prove nothing (a falsy refutation, no dual bound)
    are never kept; with no dual bound no price is certified either, so the
    grid points are then priced by exact solves.  Node cuts, whose
    certificates are checked exactly and kept, are emptied."""
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

    monkeypatch.setattr(oracle, "CapacityBounds", recorded(oracle.CapacityBounds))
    monkeypatch.setattr(oracle, "_node_cuts", lambda inst: [])
    monkeypatch.setattr(oracle, "proves_unroutable", lambda *args: False)
    monkeypatch.setattr(oracle, "safe_lower_bound", lambda *args: None)
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
    modes = []

    def float_stalls(real, many):
        def solve(*args, exact=False, **kwargs):
            modes.append(exact)
            if not exact:
                stalled = LPResult("stalled", [], None)
                return [stalled] * len(args[2]) if many else stalled
            return real(*args, exact=exact, **kwargs)

        return solve

    monkeypatch.setattr(lp, "solve_lp", float_stalls(lp.solve_lp, False))
    monkeypatch.setattr(lp, "solve_lp_many", float_stalls(lp.solve_lp_many, True))
    best = brute_force_ip(inst, ybound=2)
    assert best is not None and best[0] == F(3)
    # y = 0 leaves capacity 0 below demand 1 out of node 1: a node cut refutes it, no LP
    assert modes == [False, True] * 2


def test_brute_force_prices_each_part_on_the_rows_it_solved(monkeypatch):
    """``brute_force_ip`` builds the routing LP's balance rows once per
    call (``lp.RoutingLP``) and takes one safe dual bound per priced part:
    the price is certified against the bound the oracle took from the same
    solve, on the same rows."""
    counts = dict.fromkeys(("routing", "bound", "priced"), 0)

    def counted(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(lp.RoutingLP, "__init__", counted("routing", lp.RoutingLP.__init__))
    monkeypatch.setattr(oracle, "safe_lower_bound", counted("bound", oracle.safe_lower_bound))
    monkeypatch.setattr(lp, "safe_lower_bound", counted("bound", lp.safe_lower_bound))
    monkeypatch.setattr(lp, "certify", counted("priced", lp.certify))
    inst = generate_instance(seed=4, nodes=3, density=0.9, facilities=(1, 2))
    assert brute_force_ip(inst, ybound=1)[0] == F(25, 6)
    assert counts == {"routing": 1, "bound": 4, "priced": 4}


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


def test_generate_instance_refuses_unsplittable_aggregated_commodities():
    """Unsplittable routing is defined on pair commodities only, so a
    generated instance that no oracle or loop would accept is refused."""
    for mode in ({}, {"mode": "aggregated"}):
        with pytest.raises(ValueError, match="unsplittable routing requires mode 'disaggregated'"):
            generate_instance(seed=1, nodes=3, unsplittable=True, **mode)
    inst = generate_instance(seed=1, nodes=3, mode="disaggregated", unsplittable=True)
    assert inst.unsplittable and validate_instance(inst) == []


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


def test_unsplittable_pricing_adds_cycles_for_a_negative_coefficient():
    """A cycle lowers a flow part with a negative coefficient on its arcs:
    ``-x[2->3] >= 0`` fails only at the routing 1 -> 2 plus the cycle
    2 -> 3 -> 2, so the unsplittable pricing must enumerate cycles."""
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 2), Arc(2, 3), Arc(3, 2)],
        facilities=[Facility(1, (F(1),) * 3)],
        demand=DemandMatrix({(1, 2): F(1)}),
        mode="disaggregated",
        unsplittable=True,
    )
    ok, counter = validate_cut(LinearCut({(1, 0): F(-1)}, {}, F(0), "other"), inst, ybound=1)
    assert not ok and counter.x == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


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
    a cut's flow part in ``validate_cuts`` enumerates cycles, at the first
    grid point that the kept forms do not decide."""
    from netdes_cuts.oracle import _simple_paths, _unsplittable_routings

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
    # 84 cycles and 16 paths per pair, but more than 400 flows for a commodity;
    # the node cuts refute the grid of ybound 0, so the cut holds without them
    dense = generate_instance(seed=0, nodes=5, density=0.9, facilities=(1,), mode="disaggregated", unsplittable=True)
    flow_cut = LinearCut({(0, 0): F(-1)}, {(0, 0): F(1)}, F(1), "other")
    assert validate_cut(flow_cut, dense, ybound=0) == (True, None)
    with pytest.raises(BudgetExceededError, match="more than 400 unsplittable flows of commodity 1->5"):
        validate_cut(flow_cut, dense, ybound=1)


def test_unsplittable_oracles_on_paths_answer_as_with_cycles(monkeypatch):
    """``brute_force_ip`` and routability enumerate paths only, and so does
    the pricing of a batch of cuts whose flow coefficients are all
    nonnegative; on 4-node instances their optima, every verdict and every
    counterexample point equal those of the full enumeration of paths plus
    disjoint cycles.  A batch with a negative coefficient is priced over
    cycles too: without them, a cut whose every counterexample routes a
    commodity over an arc on none of its simple paths would pass."""
    batches = []
    for seed in range(2000, 2006):
        inst = generate_instance(seed=seed, nodes=4, density=0.5, facilities=(1,), mode="disaggregated",
                                 unsplittable=True, flow_cost_prob=0.4)
        cuts = cutting_plane_loop(inst, Config(families=("rc", "cstrong", "cutset", "flowcutset"),
                                               max_rounds=2)).pool.cuts()[:8]
        # the same cuts with a larger rhs: some of these fail
        cuts += [LinearCut(cut.flow, cut.cap, cut.rhs + 1, cut.family) for cut in cuts]
        # and with every flow coefficient made nonnegative
        nonnegative = [LinearCut({k: abs(v) for k, v in cut.flow.items()}, cut.cap, cut.rhs, cut.family)
                       for cut in cuts if cut.flow]
        # "commodity k never uses arc a", for an arc on none of k's simple
        # paths: only a path plus a cycle through a refutes it
        for ki, com in enumerate(inst.commodities):
            on_paths = frozenset().union(*oracle._simple_paths(inst, com.source, com.sink))
            cuts += [LinearCut({(ai, ki): F(-1)}, {}, F(0), "off-path")
                     for ai in range(len(inst.arcs)) if ai not in on_paths]
        batches.append((inst, cuts, nonnegative))

    def answers():
        out = []
        for inst, cuts, nonnegative in batches:
            best = brute_force_ip(inst, ybound=2)
            # ybound=2: none of the six instances has a routable point at ybound=1
            out.append((best and (best[0], best[1].x, best[1].y), validate_cuts(cuts, inst, ybound=2),
                        validate_cuts(nonnegative, inst, ybound=2)))
        return out

    on_paths = answers()
    assert sum(best is not None for best, _, _ in on_paths) >= 2
    assert not all(all(ok for ok, _ in verdicts) for _, verdicts, _ in on_paths)
    assert not all(all(ok for ok, _ in verdicts) for _, _, verdicts in on_paths)
    assert any(verdicts for _, _, verdicts in on_paths)
    # mixed-sign cuts fail at routable points, and off-path cuts at cycles
    failed = [(cut, point) for (_, cuts, _), (_, verdicts, _) in zip(batches, on_paths)
              for cut, (ok, point) in zip(cuts, verdicts) if not ok]
    assert any(cut.family != "off-path" and cut.flow and point.x for cut, point in failed)
    assert any(cut.family == "off-path" for cut, _ in failed)
    full = oracle._unsplittable_routings
    monkeypatch.setattr(oracle, "_unsplittable_routings", lambda inst, cycles=True: full(inst))
    assert answers() == on_paths
    monkeypatch.setattr(oracle, "_unsplittable_routings", lambda inst, cycles=True: full(inst, cycles=False))
    assert answers() != on_paths


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
        routings = oracle._unsplittable_routings(inst)
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
            routing = oracle._Routing(inst, [int_form(objective)])
            best = routing.minima(scaled_ints(caps, routing.scale), [0], lambda i: None)
            assert (best and best[0][0]) == (min(costs) if costs else None)
            checked += bool(costs)
    assert checked >= 10


def test_cuts_with_one_flow_part_share_one_part_objective_and_bound_store():
    """``_Routing`` keys each objective by its flow part on ints, a cut's
    ``flow_num`` over its gcd with ``den``: two cuts with equal flow parts
    but different right-hand sides, so different stored ints, share one
    part, one objective (columns made once, by ``_Routing.objective``) and
    one bound store, and on an unsplittable instance one cost table; a cut
    with another flow part has its own."""
    flow = {(0, 0): F(1), (1, 0): F(-1, 2)}
    a = LinearCut(flow, {(0, 0): F(1)}, F(1, 3), "flowcutset")
    b = LinearCut(flow, {(1, 0): F(2)}, F(5), "flowcutset")
    c = LinearCut({(0, 0): F(2), (1, 0): F(-1, 2)}, {}, F(1), "flowcutset")
    assert (a.flow_num, a.den) != (b.flow_num, b.den) and a.flow == b.flow
    splittable = generate_instance(seed=1103, nodes=4, density=0.5, facilities=(1,))
    unsplittable = generate_instance(seed=7, nodes=4, density=0.6, facilities=(1,), mode="disaggregated",
                                     unsplittable=True)
    for inst in (splittable, unsplittable):
        routing = oracle._Routing(inst, [(cut.flow_num, cut.den) for cut in (a, b, c)])
        assert routing.parts[0] == routing.parts[1] != routing.parts[2]
        assert routing.bounds[0] is routing.bounds[1] and routing.bounds[0] is not routing.bounds[2]
        if inst.unsplittable:
            tables = [routing._costs(part) for part in routing.parts]
            assert tables[0] is tables[1] and tables[0] is not tables[2]
        else:
            objectives = [routing.objective(part) for part in routing.parts]
            assert objectives[0] is objectives[1]
            assert objectives[0] is not objectives[2]
            assert objectives[0] == routing.routing.columns(a.flow)


def test_a_batch_decided_by_kept_forms_builds_no_objective_columns(monkeypatch):
    """``_Routing`` makes its routing LP when it first solves one and a
    flow part's objective columns when an LP first prices the part: on
    seed 1101's 4-node grid no point routes and the node cuts refute every
    point, so two flow cuts are decided with neither made."""
    solves = []
    monkeypatch.setattr(lp, "solve_lp_many", lambda *args, **kwargs: solves.append(args))
    inst = generate_instance(seed=1101, nodes=4, density=0.5, facilities=(1,))
    cuts = [LinearCut({(ai, 0): F(1)}, {(ai, 0): F(1)}, F(1), "other") for ai in range(2)]
    routing = oracle._Routing(inst, [(cut.flow_num, cut.den) for cut in cuts])
    keys, bounds = oracle._grid(inst, None, 1)
    points = oracle._walk(inst, keys, bounds, inst.cbar_num)
    assert all(routing.minima(caps, [0, 1], lambda i: None) is None for _, caps, _ in points)
    assert routing.made == {} and "routing" not in vars(routing) and solves == []
    assert validate_cuts(cuts, inst, ybound=1) == [(True, None)] * 2
    assert solves == []


def test_unsplittable_flows_are_enumerated_only_for_a_search():
    """The unsplittable oracle enumerates flows at its first search, so a
    cut the node cuts decide is proved valid on an instance whose
    enumeration outgrows its cap: the 8-node complete instance has more
    than ``PATH_CAP`` paths between two nodes, and the cut-set cut of
    ``{4}`` (rhs 1 on the 7 arcs leaving node 4) has one pattern below its
    rhs, which the node cut of ``{4}`` refutes."""
    inst = generate_instance(seed=5, nodes=8, density=1.0, facilities=(1,), mode="disaggregated", unsplittable=True)
    cut = cutset_cuts.cutset_cut(cutset_cuts.build_cutset(inst, [4]))
    assert cut.rhs == 1 and sorted(cut.cap.values()) == [1] * 7 and not cut.flow
    with pytest.raises(BudgetExceededError, match="more than 400 simple paths"):
        oracle._unsplittable_routings(inst, cycles=False)
    assert validate_cuts([cut], inst) == [(True, None)]


def test_integer_unsplittable_search_matches_the_fraction_reference():
    """``_Routing`` prices each unsplittable objective on ints, and answers
    ``None`` where no routing fits: loads at the instance's scale, costs
    over one denominator.  On random instances, capacity vectors and objectives
    (empty, nonnegative, with negative costs and so priced over cycles,
    with fractional coefficients) its answers, the value, the flow ``x`` in
    its key order, or ``None``, equal those of the ``Fraction`` search
    ``reference_best_unsplittable``, also on instances whose total demand
    has a smaller denominator than some demand (seed 7: 1/3, 2/3 and 3/4,
    in total 7/4)."""
    rng = random.Random(29)
    specs = [dict(seed=7, nodes=4, density=0.6), dict(seed=2004, nodes=3, density=0.9)]
    specs += [dict(seed=seed, nodes=rng.choice((3, 4)), density=rng.choice((0.5, 0.6))) for seed in range(3000, 3012)]
    compared = priced_cycles = unroutable = 0
    for spec in specs:
        inst = generate_instance(facilities=(1,), mode="disaggregated", unsplittable=True, **spec)
        scale = inst.scale
        assert all((com.total_supply * scale).denominator == 1 for com in inst.commodities)
        pairs = [(ai, ki) for ai in range(len(inst.arcs)) for ki in range(len(inst.commodities))]
        objectives = [
            {},
            {key: F(rng.randint(0, 3)) for key in pairs},
            {key: F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for key in pairs},
            {key: F(rng.randint(0, 4), rng.choice((1, 2, 3))) for key in pairs if rng.random() < 0.5},
        ]
        objectives[2][pairs[0]] = F(-1)
        routing = oracle._Routing(inst, [int_form(objective) for objective in objectives])
        paths = oracle._unsplittable_routings(inst, cycles=False)
        priced = oracle._unsplittable_routings(inst)
        priced_cycles += priced != paths
        for _ in range(8):
            scaled = [rng.randint(scale // 2, 3 * scale) for _ in inst.arcs]
            caps = [F(c, scale) for c in scaled]
            fits = reference_best_unsplittable(inst, paths, caps, {})
            answers = routing.minima(scaled, range(len(objectives)), lambda i: None)
            if fits is None:
                assert answers is None
                compared += len(objectives)
                unroutable += 1
                continue
            for i, objective in enumerate(objectives):
                value, x = reference_best_unsplittable(inst, priced, caps, objective)
                assert answers[i][0] == value
                assert list(answers[i][1].items()) == list(x.items())
                compared += 1
    assert compared >= 200 and 0 < unroutable < len(specs) * 8
    assert priced_cycles > 0


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
    assert all(load <= arc_capacity(inst, ai, point.y) for ai, load in loads.items())
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
