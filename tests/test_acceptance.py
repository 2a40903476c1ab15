"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n PASS|FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and asserts the criterion
at its stated tolerance: worked-example reproductions are exact rational
comparisons, LP-vs-oracle equalities are exact, float bounds use 1e-6.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from netdes_cuts.arc_cuts import (
    SPLITTABLE,
    ArcSetRelaxation,
    CoverSpec,
    k_split_c_strong_cut,
    lifted_cover_cut,
    residual_capacity_cut,
    separate_residual_capacity,
)
from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance, LinearCut, generate_instance
from netdes_cuts.cutset_cuts import build_cutset
from netdes_cuts.engine import Config, cutting_plane_loop
from netdes_cuts.mir import KnapsackCoverSet, hull_inequalities
from netdes_cuts.oracle import brute_force_ip, validate_cut, validate_cuts
from netdes_cuts.partition_cuts import (
    NodePartition,
    separate_metric,
    three_partition_cut,
    three_partition_metric_cut,
)
from netdes_cuts.simplex import GE, LE, solve_lp

from conftest import make_triangle
from helpers import (
    FlowCutSelection,
    arc_violation,
    cone_violations,
    criterion_10_sample,
    fu_points,
    holds,
    is_maximal_c_strong,
    knapsack_min,
    min_over_fs,
    multifacility_cutset_cut,
    normalized,
    rc_best_violation,
    routable,
    select_total_capacity_cut,
)


def report(n, ok, message):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}  {message}")
    assert ok, f"criterion {n}: {message}"


@pytest.fixture
def fs_rel():
    return ArcSetRelaxation(a=(F(1, 3), F(2, 3), F(2, 3)), a0=0, mode=SPLITTABLE)


@pytest.fixture
def fu_rel():
    from netdes_cuts.arc_cuts import UNSPLITTABLE

    return ArcSetRelaxation(
        a=(F(1, 3), F(1, 3), F(1, 3), F(1, 2), F(2, 3)), a0=0, mode=UNSPLITTABLE
    )


def test_criterion_01_residual_capacity_table(fs_rel):
    t0 = time.perf_counter()
    expected = {
        (0,): F(1, 3),
        (1,): F(2, 3),
        (2,): F(2, 3),
        (1, 2): F(1, 3),
        (0, 1, 2): F(2, 3),
    }
    display = {
        (0,): ({0: 1}, 0, 1),
        (1,): ({1: 1}, 0, 1),
        (2,): ({2: 1}, 0, 1),
        (1, 2): ({1: 2, 2: 2}, 2, 1),
        (0, 1, 2): ({0: 1, 1: 2, 2: 2}, 1, 2),
    }
    produced = {}
    for size in range(1, 4):
        for S in combinations(range(3), size):
            cut = residual_capacity_cut(fs_rel, S)
            if cut is not None:
                produced[S] = cut
    ok = set(produced) == set(expected)
    ok = ok and all(produced[S].params["r"] == r for S, r in expected.items())
    from netdes_cuts.arc_cuts import ArcInequality

    for S, (coefs, const, y) in display.items():
        ref = ArcInequality({i: F(v) for i, v in coefs.items()}, F(const), F(y))
        ok = ok and normalized(produced[S]) == normalized(ref)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"five residual capacity cuts with exact remainders ({elapsed:.3f}s)")


def test_criterion_02_hull_of_splittable_set(fs_rel):
    cuts = [
        c
        for size in range(1, 4)
        for S in combinations(range(3), size)
        if (c := residual_capacity_cut(fs_rel, S)) is not None
    ]
    rng = random.Random(0)
    n = 3
    ok = True
    for _ in range(50):
        obj_x = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        obj_y = F(rng.randint(1, 6), rng.choice((1, 2)))
        rows = [({**{i: fs_rel.a[i] for i in range(n)}, n: F(-1)}, LE, fs_rel.a0)]
        for cut in cuts:
            rows.append(({**cut.coefs, n: -cut.y_coef}, LE, cut.const))
        res = solve_lp(
            n + 1,
            rows,
            {**{i: v for i, v in enumerate(obj_x)}, n: obj_y},
            upper={i: F(1) for i in range(n)},
            exact=True,
        )
        best = min_over_fs(fs_rel.a, fs_rel.a0, obj_x, obj_y, range(0, 4))
        ok = ok and res.status == "optimal" and res.objective == best
    report(2, ok, "cut LP equals parametric enumeration on 50 exact objectives")


def test_criterion_03_exact_separation():
    rng = random.Random(42)
    disagreements = 0
    for trial in range(500):
        n = rng.randint(1, 8)
        rel = ArcSetRelaxation(
            a=tuple(F(rng.randint(1, 11), 12) for _ in range(n)),
            a0=F(rng.randint(0, 8), 12),
            mode=SPLITTABLE,
        )
        x = [F(rng.randint(0, 8), 8) for _ in range(n)]
        load = sum((a * xi for a, xi in zip(rel.a, x)), F(0))
        ybar = max(F(0), load - rel.a0) + F(rng.randint(0, 9), 4)
        got = separate_residual_capacity(rel, x, ybar)
        best, _ = rc_best_violation(rel, {i: v for i, v in enumerate(x)}, ybar)
        if (got is None) != (best == 0):
            disagreements += 1
        elif got is not None and arc_violation(got, {i: v for i, v in enumerate(x)}, ybar) != best:
            disagreements += 1
    report(3, disagreements == 0, f"500 random points, {disagreements} disagreements")


def test_criterion_04_unsplittable_family(fu_rel):
    maximal = [
        S
        for size in range(1, 6)
        for S in combinations(range(5), size)
        if is_maximal_c_strong(fu_rel, S)
    ]
    # the definition-consistent family (the pair {3,4} appears in place of
    # the dominated singletons)
    expected = sorted(
        [(0,), (1,), (2,), (3, 4)]
        + [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)]
        + [(0, 1, 2, 3, 4)]
    )
    ok = sorted(maximal) == expected and len(maximal) == 11
    two = normalized(k_split_c_strong_cut(fu_rel, (1, 2), 2))
    from netdes_cuts.arc_cuts import ArcInequality

    ok = ok and two == normalized(ArcInequality({1: F(1), 2: F(1), 3: F(1), 4: F(1)}, F(0), F(2)))
    three = normalized(k_split_c_strong_cut(fu_rel, (3,), 3))
    ok = ok and three == normalized(ArcInequality(
        {0: F(1), 1: F(1), 2: F(1), 3: F(2), 4: F(2)}, F(0), F(3)
    ))
    rng = random.Random(1)
    rejected = 0
    tried = 0
    while tried < 20:
        size = rng.randint(1, 5)
        S = tuple(sorted(rng.sample(range(5), size)))
        if S in maximal:
            continue
        tried += 1
        if not is_maximal_c_strong(fu_rel, S):
            rejected += 1
    ok = ok and rejected == 20
    report(4, ok, "eleven maximal rounding cuts, both split cuts, 20 rejections")


def test_criterion_05_lifted_cover_table(fu_rel):
    rows = [
        (CoverSpec.build(fu_rel, 1, {0, 4}, set()), None,
         ({1: 1, 2: 1, 3: 1, 4: 1}, 0, 2)),
        (CoverSpec.build(fu_rel, 1, {1, 2}, set()), None,
         ({0: 1, 1: 1, 3: 1, 4: 1}, 0, 2)),
        (CoverSpec.build(fu_rel, 1, {1, 2}, set()), [2, 1],
         ({0: 1, 2: 1, 3: 1, 4: 1}, 0, 2)),
        (CoverSpec.build(fu_rel, 2, set(), {4}), None,
         ({0: 1, 1: 1, 2: 1, 3: 1, 4: 2}, 1, 2)),
        (CoverSpec.build(fu_rel, 2, set(), {3}), None,
         ({0: 1, 1: 1, 2: 1, 3: 2, 4: 1}, 1, 2)),
    ]
    from netdes_cuts.arc_cuts import ArcInequality

    ok = True
    for spec, order, (coefs, const, y) in rows:
        cut = lifted_cover_cut(fu_rel, spec, order=order)
        ref = ArcInequality({i: F(v) for i, v in coefs.items()}, F(const), F(y))
        ok = ok and normalized(cut) == normalized(ref)
        valid = all(
            holds(cut, x, yv) for x, yv in fu_points(fu_rel.a, fu_rel.a0, range(0, 5))
        )
        ok = ok and valid
    report(5, ok, "all four lifted-cover rows reproduced and enumeration-valid")


def test_criterion_06_star_end_to_end(star_instance):
    cfg = Config(families=("cutset", "flowcutset"))
    res = cutting_plane_loop(star_instance, cfg)
    first = res.pool.cuts()[0]
    ok = first.family == "cutset"
    ok = ok and first.cap == {(0, 0): F(1), (1, 0): F(1)} and first.rhs == 1
    ok = ok and len(res.reports) <= 5
    oracle = brute_force_ip(star_instance, ybound=2)
    ok = ok and oracle is not None and res.exact_bound == oracle[0]
    report(6, ok, f"loop bound {res.exact_bound} meets the oracle in {len(res.reports)} rounds")


def test_criterion_07_phi_identities():
    from netdes_cuts.mir import PhiParams, phi_minus, phi_plus

    ok = True
    for lam in (2, 3):
        for b in (F(5, 2), F(7, 3), F(13, 4)):
            r = b - int(b)
            p = PhiParams(c_s=F(1), r=r)
            ok = ok and phi_plus(p, 1) == r and phi_plus(p, lam) == lam * r
            ok = ok and phi_minus(p, 1) == 1 - r and phi_minus(p, lam) == lam * (1 - r)
    # fractional size: the naive pattern admits a counterexample, the
    # subadditive form does not
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2), Arc(2, 1)],
        facilities=[Facility(1, (F(1), F(1))), Facility(F(3, 2), (F(2), F(2)))],
        demand=DemandMatrix({(1, 2): F(5, 2)}),
    )
    rel = build_cutset(inst, U=[1])
    phi_cut = multifacility_cutset_cut(
        rel, FlowCutSelection((0,), tuple(rel.A_plus), (), facility=0)
    )
    ok_phi, _ = validate_cut(phi_cut, inst, ybound=3)
    r = phi_cut.params["r"]
    naive = LinearCut(
        flow={}, cap={(0, 0): r, (0, 1): F(3, 2) * r}, rhs=phi_cut.rhs, family="naive"
    )
    ok_naive, counterexample = validate_cut(naive, inst, ybound=3)
    ok = ok and ok_phi and not ok_naive and counterexample is not None
    report(7, ok, "closed-form coefficients match and survive the fractional size")


def test_criterion_08_divisible_hulls():
    rng = random.Random(8)
    ok = True
    for caps in ((1, 2), (1, 3), (1, 2, 4), (1, 2, 6)):
        for b in (F(1, 2), F(5, 3), F(5), F(7), F(23, 3)):
            X = KnapsackCoverSet(caps, b)
            cuts = hull_inequalities(X)
            rows = [(dict(enumerate(coefs)), GE, rhs) for coefs, rhs in cuts]
            for _ in range(100):
                obj = [F(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in caps]
                res = solve_lp(
                    len(caps), rows, {i: v for i, v in enumerate(obj)}, exact=True
                )
                best = knapsack_min(caps, b, obj)
                if not (res.status == "optimal" and res.objective == best):
                    ok = False
    report(8, ok, "iterated rounding describes all divisible cover hulls exactly")


def test_criterion_09_three_partition_numbers():
    part = NodePartition.of([1], [2], [3])
    ok = True
    for t, rhs_sum, rhs_metric, family in (
        (F(1, 2), 3, 4, "threepartition-metric"),
        (F(1, 3), 3, 2, "threepartition"),
    ):
        inst = make_triangle(t)
        c1 = three_partition_cut(inst, part)
        c2 = three_partition_metric_cut(inst, part)
        winner = select_total_capacity_cut([c1, c2])
        ok = ok and c1.rhs == rhs_sum and c2.rhs == rhs_metric and winner.family == family
    report(9, ok, "both uniform-demand cases give the documented right-hand sides")


def test_criterion_10_metric_soundness_completeness():
    ok = True
    violated_seen = 0
    for inst, caps in criterion_10_sample():
        res = separate_metric(inst, capacities=caps)
        if (res is None) != routable(inst, caps):
            ok = False
        if res is not None:
            violated_seen += 1
            vec, cut = res
            if cone_violations(vec, inst):
                ok = False
            if vec.demand_side(inst) <= vec.capacity_side(inst, caps):
                ok = False
    ok = ok and 10 <= violated_seen <= 45  # both branches exercised
    report(10, ok, f"separation agreed on 50 instances ({violated_seen} infeasible)")


def test_criterion_11_global_validity_sweep():
    t0 = time.perf_counter()
    rng = random.Random(123)
    counterexamples = 0
    instances = 0
    cuts_checked = 0
    batches = [
        # (count, nodes, density, facilities, families, unsplittable)
        (100, 3, 0.9, (1,), ("rc", "cutset", "flowcutset", "metric", "partition"), False),
        (40, 4, 0.5, (1,), ("rc", "cutset", "flowcutset", "partition"), False),
        (35, 3, 0.7, (1, 2), ("mf", "metric", "partition"), False),
        (25, 3, 0.9, (1,), ("rc", "cstrong", "cutset", "flowcutset"), True),
    ]
    seed = 1000
    for count, nodes, density, facilities, families, unsplittable in batches:
        for _ in range(count):
            seed += 1
            inst = generate_instance(
                seed=seed,
                nodes=nodes,
                density=density,
                facilities=facilities,
                mode="disaggregated" if unsplittable else "aggregated",
                unsplittable=unsplittable,
                flow_cost_prob=0.4,
            )
            instances += 1
            res = cutting_plane_loop(inst, Config(families=families, max_rounds=4))
            cuts = res.pool.cuts()
            cuts_checked += len(cuts)
            verdicts = validate_cuts(cuts, inst, ybound=1)
            for cut, (valid, counter) in zip(cuts, verdicts):
                if not valid:
                    counterexamples += 1
                    print("counterexample:", inst.name, cut.family, cut, counter)
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and instances == 200
    report(
        11,
        ok,
        f"{cuts_checked} cuts over {instances} instances, "
        f"{counterexamples} counterexamples ({elapsed:.1f}s)",
    )
