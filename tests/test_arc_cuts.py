import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from netdes_cuts import arc_cuts
from netdes_cuts.arc_cuts import (
    SPLITTABLE,
    UNSPLITTABLE,
    ArcInequality,
    ArcSetRelaxation,
    CoverSpec,
    _knapsack_max,
    back_map_cut,
    c_strong_cut,
    c_strong_value,
    from_capacity_row,
    k_split_c_strong_cut,
    lifted_cover_cut,
    normalize_unsplittable,
    residual_capacity_cut,
    separate_c_strong,
    separate_residual_capacity,
    to_instance_cut,
)
from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance
from netdes_cuts.simplex import LE, solve_lp

from helpers import (
    arc_violation,
    cstrong_best_violation,
    fs_points,
    fu_points,
    holds,
    is_maximal_c_strong,
    k_split_facet_check,
    min_over_fs,
    normalized,
    rc_best_violation,
    reference_residual_capacity,
)


def norm(coefs, const, y_coef):
    return normalized(ArcInequality({i: F(v) for i, v in coefs.items()}, F(const), F(y_coef)))


# -- construction -------------------------------------------------------------------


def test_from_capacity_row_three_commodities():
    inst = Instance(
        nodes=[1, 2, 3, 4],
        arcs=[Arc(1, 4), Arc(2, 4), Arc(3, 4)],
        facilities=[Facility(3, (F(1),) * 3)],
        demand=DemandMatrix({(1, 4): F(1), (2, 4): F(2), (3, 4): F(2)}),
    )
    rel = from_capacity_row(inst, 0)
    assert rel.a == (F(1, 3), F(2, 3), F(2, 3))
    assert rel.a0 == 0
    assert rel.mode == SPLITTABLE  # the instance's mode


def test_from_capacity_row_existing_capacity_offset():
    inst = Instance(
        nodes=[1, 2],
        arcs=[Arc(1, 2, F(3))],
        facilities=[Facility(3, (F(1),))],
        demand=DemandMatrix({(1, 2): F(1)}),
    )
    assert from_capacity_row(inst, 0).a0 == 1


def test_from_capacity_row_five_commodities():
    inst = Instance(
        nodes=[1, 2, 3, 4, 5, 6],
        arcs=[Arc(i, 6) for i in (1, 2, 3, 4, 5)],
        facilities=[Facility(3, (F(1),) * 5)],
        demand=DemandMatrix(
            {(1, 6): F(1), (2, 6): F(1), (3, 6): F(1), (4, 6): F(3, 2), (5, 6): F(2)}
        ),
        mode="disaggregated",
        unsplittable=True,
    )
    rel = from_capacity_row(inst, 0)
    assert rel.a == (F(1, 3), F(1, 3), F(1, 3), F(1, 2), F(2, 3))
    assert rel.mode == UNSPLITTABLE


def test_normalize_unsplittable():
    rel = ArcSetRelaxation(a=(F(4, 3), F(1, 2)), a0=F(1, 4), mode=UNSPLITTABLE)
    reduced, offsets, off0 = normalize_unsplittable(rel)
    assert reduced.a == (F(1, 3), F(1, 2))
    assert offsets == (1, 0) and off0 == 0
    already = ArcSetRelaxation(a=(F(1, 3),), a0=F(1, 4), mode=UNSPLITTABLE)
    red2, offs2, off02 = normalize_unsplittable(already)
    assert red2.a == already.a and offs2 == (0,) and off02 == 0


def test_back_mapped_cut_validity_by_enumeration():
    rel = ArcSetRelaxation(a=(F(4, 3), F(1, 2)), a0=F(1, 4), mode=UNSPLITTABLE)
    reduced, offsets, off0 = normalize_unsplittable(rel)
    cut = c_strong_cut(reduced, (0, 1))
    mapped = back_map_cut(cut, offsets, off0)
    for x, y in fu_points(rel.a, rel.a0, range(0, 5)):
        assert holds(mapped, x, y), (x, y)


# -- residual capacity ----------------------------------------------------------------


def test_residual_capacity_table(fs_example):
    expect = {
        (0,): (F(1, 3), norm({0: 1}, 0, 1)),
        (1,): (F(2, 3), norm({1: 1}, 0, 1)),
        (2,): (F(2, 3), norm({2: 1}, 0, 1)),
        (1, 2): (F(1, 3), norm({1: 2, 2: 2}, 2, 1)),
        (0, 1, 2): (F(2, 3), norm({0: 1, 1: 2, 2: 2}, 1, 2)),
    }
    produced = {}
    for size in range(1, 4):
        for S in combinations(range(3), size):
            cut = residual_capacity_cut(fs_example, S)
            if cut is not None:
                produced[S] = (cut.params["r"], normalized(cut))
    assert produced == expect


def test_residual_capacity_degenerate_subsets(fs_example):
    assert residual_capacity_cut(fs_example, (0, 1)) is None
    assert residual_capacity_cut(fs_example, (0, 2)) is None


def test_residual_capacity_cuts_valid(fs_example):
    for size in range(1, 4):
        for S in combinations(range(3), size):
            cut = residual_capacity_cut(fs_example, S)
            if cut is None:
                continue
            for x, y in fs_points(fs_example.a, fs_example.a0, range(0, 4)):
                assert holds(cut, x, y)


def test_hull_property_random_objectives(fs_example):
    """Capacity row + bounds + all residual capacity cuts give the hull."""
    cuts = [
        residual_capacity_cut(fs_example, S)
        for size in range(1, 4)
        for S in combinations(range(3), size)
    ]
    cuts = [c for c in cuts if c is not None]
    rng = random.Random(0)
    n = 3
    for _ in range(50):
        obj_x = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        obj_y = F(rng.randint(1, 6), rng.choice((1, 2)))
        # capacity row written as a.x - y <= a0; cuts as coef.x - ycoef*y <= const
        rows = [({**{i: fs_example.a[i] for i in range(n)}, n: F(-1)}, LE, fs_example.a0)]
        for cut in cuts:
            row = {i: v for i, v in cut.coefs.items()}
            row[n] = -cut.y_coef
            rows.append((row, LE, cut.const))
        res = solve_lp(
            n + 1,
            rows,
            {i: v for i, v in enumerate(obj_x)} | {n: obj_y},
            upper={i: F(1) for i in range(n)},
            exact=True,
        )
        assert res.status == "optimal"
        best = min_over_fs(fs_example.a, fs_example.a0, obj_x, obj_y, range(0, 4))
        assert res.objective == best


def test_separation_worked_point(fs_example):
    cut = separate_residual_capacity(fs_example, [0, 1, 1], F(4, 3))
    assert cut is not None
    assert cut.params["S"] == (1, 2)
    assert arc_violation(cut, {0: F(0), 1: F(1), 2: F(1)}, F(4, 3)) == F(2, 9)


def test_separation_none_at_integral_points(fs_example):
    assert separate_residual_capacity(fs_example, [1, 0, 1], F(1)) is None
    assert separate_residual_capacity(fs_example, [0, 0, 0], F(0)) is None


def test_separation_agrees_with_exhaustive(fs_example):
    rng = random.Random(42)
    for _ in range(200):
        x = [F(rng.randint(0, 6), 6) for _ in range(3)]
        load = sum(a * xi for a, xi in zip(fs_example.a, x))
        ybar = load + F(rng.randint(0, 4), 3)  # capacity-feasible point
        got = separate_residual_capacity(fs_example, x, ybar)
        best, best_S = rc_best_violation(fs_example, {i: v for i, v in enumerate(x)}, ybar)
        if got is None:
            assert best == 0
        else:
            assert best > 0
            assert arc_violation(got, {i: v for i, v in enumerate(x)}, ybar) > 0


def test_separation_exact_on_random_arc_sets():
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(1, 8)
        rel = ArcSetRelaxation(
            a=tuple(F(rng.randint(1, 11), 12) for _ in range(n)),
            a0=F(rng.randint(0, 6), 12),
            mode=SPLITTABLE,
        )
        x = [F(rng.randint(0, 8), 8) for _ in range(n)]
        slack = F(rng.randint(0, 9), 4)
        ybar = max(F(0), sum(a * xi for a, xi in zip(rel.a, x)) - rel.a0) + slack
        got = separate_residual_capacity(rel, x, ybar)
        best, _ = rc_best_violation(rel, {i: v for i, v in enumerate(x)}, ybar)
        assert (got is None) == (best == 0)


def test_integer_decision_matches_the_fraction_reference():
    """``separate_residual_capacity`` decides on ints
    (``residual_capacity_set``) what the ``Fraction`` reference decides:
    the same cut or None, on random arc sets with zero coefficients, loads
    outside the unit box or missing, and negative, integral and fractional
    ``ybar`` over large denominators, where both outcomes occur often, and
    on a grid in quarters, where the slack is often exactly zero."""
    rng = random.Random(37)
    cuts = nones = 0
    for trial in range(1500):
        n = rng.randint(1, 6)
        den = rng.choice((1, 2, 3, 12, 10**6))
        rel = ArcSetRelaxation(
            a=tuple(F(rng.randint(0, 2 * den), den) if rng.random() < 0.9 else F(0) for _ in range(n)),
            a0=F(rng.randint(0, den), den),
            mode=SPLITTABLE,
        )
        xden = rng.choice((1, 2, 4, 7, 1000003))
        x = {i: F(rng.randint(-xden // 4, 5 * xden // 4), xden) for i in range(n) if rng.random() < 0.9}
        yden = rng.choice((1, 3, 8, 999983))
        if trial % 2:
            ybar = F(rng.randint(-2 * yden, 4 * yden), yden)
        else:  # near the load, where cuts are violated
            ybar = sum((a * x.get(i, 0) for i, a in enumerate(rel.a)), F(0)) - rel.a0 + F(rng.randint(-yden, yden), 4 * yden)
        got = separate_residual_capacity(rel, x, ybar)
        assert got == reference_residual_capacity(rel, x, ybar)
        cuts += got is not None
        nones += got is None
    assert cuts > 150 and nones > 500, (cuts, nones)
    # at a zero slack no cut is violated
    quarters = [F(i, 4) for i in range(5)]
    for a1, a2, a0 in product(quarters[1:], quarters[1:], quarters[:3]):
        rel = ArcSetRelaxation(a=(a1, a2), a0=a0, mode=SPLITTABLE)
        for x, y in product(product(quarters, quarters), range(-2, 9)):
            assert separate_residual_capacity(rel, x, F(y, 4)) == reference_residual_capacity(rel, x, F(y, 4))


# -- c-strong --------------------------------------------------------------------------


def test_c_strong_worked_cuts(fu_example):
    assert normalized(c_strong_cut(fu_example, (0, 1, 3))) == norm({0: 1, 1: 1, 3: 1}, 1, 1)
    assert is_maximal_c_strong(fu_example, (0, 1, 3))
    assert normalized(c_strong_cut(fu_example, (0,))) == norm({0: 1}, 0, 1)
    assert is_maximal_c_strong(fu_example, (0,))
    full = c_strong_cut(fu_example, tuple(range(5)))
    assert normalized(full) == norm({i: 1 for i in range(5)}, 2, 1)
    assert c_strong_value(fu_example, range(5)) == 2
    assert is_maximal_c_strong(fu_example, tuple(range(5)))


def test_maximal_family(fu_example):
    maximal = sorted(
        S
        for size in range(1, 6)
        for S in combinations(range(5), size)
        if is_maximal_c_strong(fu_example, S)
    )
    # the definition-consistent family: the pair {3,4} replaces the two
    # dominated singletons among sets with value zero
    assert len(maximal) == 11
    assert (3, 4) in maximal
    assert (3,) not in maximal and (4,) not in maximal
    triples = [S for S in maximal if len(S) == 3]
    assert len(triples) == 6
    for S in triples:
        assert c_strong_value(fu_example, S) == 1


def test_c_strong_cuts_valid(fu_example):
    for size in range(1, 6):
        for S in combinations(range(5), size):
            cut = c_strong_cut(fu_example, S)
            for x, y in fu_points(fu_example.a, fu_example.a0, range(0, 5)):
                assert holds(cut, x, y)


def test_separate_c_strong_worked_point(fu_example):
    xbar = [F(1), F(1), F(0), F(1), F(0)]
    cut = separate_c_strong(fu_example, xbar, F(3, 2))
    assert cut is not None
    assert cut.params["S"] == (0, 1, 3)
    assert cut.params["violation"] == F(1, 2)
    assert not cut.params["heuristic"]


def test_separate_c_strong_none_on_integral(fu_example):
    assert separate_c_strong(fu_example, [1, 0, 0, 0, 0], F(1)) is None


def test_separate_c_strong_matches_exhaustive(fu_example):
    rng = random.Random(3)
    for _ in range(150):
        x = [rng.choice([F(0), F(1), F(rng.randint(1, 5), 6)]) for _ in range(5)]
        ybar = F(rng.randint(0, 8), 4)
        got = separate_c_strong(fu_example, x, ybar)
        best, _ = cstrong_best_violation(fu_example, x, ybar)
        if got is None:
            assert best <= 0
        else:
            assert got.params["violation"] == best


def test_separate_c_strong_heuristic_flag(monkeypatch, fu_example):
    monkeypatch.setattr(arc_cuts, "C_STRONG_ENUMERATION_CAP", 2)
    x = [F(1, 2)] * 5
    cut = separate_c_strong(fu_example, x, F(0))
    assert cut is not None and cut.params["heuristic"]


# -- k-split ----------------------------------------------------------------------------


def test_k_split_worked_cuts(fu_example):
    two = k_split_c_strong_cut(fu_example, (1, 2), 2)
    assert normalized(two) == norm({1: 1, 2: 1, 3: 1, 4: 1}, 0, 2)
    two_b = k_split_c_strong_cut(fu_example, (1, 2, 3), 2)
    assert normalized(two_b) == normalized(two)
    three = k_split_c_strong_cut(fu_example, (3,), 3)
    assert normalized(three) == norm({0: 1, 1: 1, 2: 1, 3: 2, 4: 2}, 0, 3)


def test_k_split_cuts_valid(fu_example):
    for k in (2, 3):
        for size in range(1, 6):
            for S in combinations(range(5), size):
                cut = k_split_c_strong_cut(fu_example, S, k)
                for x, y in fu_points(fu_example.a, fu_example.a0, range(0, 5)):
                    assert holds(cut, x, y), (S, k, x, y)


def test_k_split_reduces_to_c_strong_at_one(fu_example):
    for size in range(1, 6):
        for S in combinations(range(5), size):
            assert (
                normalized(k_split_c_strong_cut(fu_example, S, 1))
                == normalized(c_strong_cut(fu_example, S))
            )


def test_k_split_facet_check_conditions(fu_example):
    # the worked 2-split set is maximal in the half-unit relaxation but
    # fails the remainder threshold, so the sufficient test declines it
    assert not k_split_facet_check(fu_example, (1, 2), 2)
    rel = ArcSetRelaxation(a=(F(4, 5), F(4, 5)), a0=F(1, 10), mode=UNSPLITTABLE)
    assert k_split_facet_check(rel, (0, 1), 2) == (
        F(1, 2) < (rel.a_sum((0, 1)) - rel.a0) % 1
        and all(rel.a[i] > (rel.a_sum((0, 1)) - rel.a0) % 1 for i in (0, 1))
    ) or not k_split_facet_check(rel, (0, 1), 2)


# -- lifted covers -----------------------------------------------------------------------


def lifted_rows(fu):
    r1 = lifted_cover_cut(fu, CoverSpec.build(fu, 1, K0={0, 4}, K1=set()))
    spec2 = CoverSpec.build(fu, 1, K0={1, 2}, K1=set())
    r2a = lifted_cover_cut(fu, spec2)
    r2b = lifted_cover_cut(fu, spec2, order=[2, 1])
    r3 = lifted_cover_cut(fu, CoverSpec.build(fu, 2, K0=set(), K1={4}))
    r4 = lifted_cover_cut(fu, CoverSpec.build(fu, 2, K0=set(), K1={3}))
    return r1, r2a, r2b, r3, r4


def test_lifted_cover_table(fu_example):
    r1, r2a, r2b, r3, r4 = lifted_rows(fu_example)
    assert normalized(r1) == norm({1: 1, 2: 1, 3: 1, 4: 1}, 0, 2)
    assert normalized(r2a) == norm({0: 1, 1: 1, 3: 1, 4: 1}, 0, 2)
    assert normalized(r2b) == norm({0: 1, 2: 1, 3: 1, 4: 1}, 0, 2)
    assert normalized(r3) == norm({0: 1, 1: 1, 2: 1, 3: 1, 4: 2}, 1, 2)
    assert normalized(r4) == norm({0: 1, 1: 1, 2: 1, 3: 2, 4: 1}, 1, 2)


def test_lifted_cover_validity(fu_example):
    for cut in lifted_rows(fu_example):
        for x, y in fu_points(fu_example.a, fu_example.a0, range(0, 5)):
            assert holds(cut, x, y)


def test_lifted_cover_rejects_non_cover(fu_example):
    with pytest.raises(ValueError):
        CoverSpec.build(fu_example, 3, K0=set(), K1=set())


def test_lifted_cover_minimality_enforcement(fu_example):
    spec = CoverSpec.build(fu_example, 1, K0={1, 2}, K1=set())
    assert not spec.minimal
    assert lifted_cover_cut(fu_example, spec).params["minimal"] is False
    minimal = CoverSpec.build(fu_example, 1, K0={0, 4}, K1=set())
    assert minimal.minimal
    assert lifted_cover_cut(fu_example, minimal).params["minimal"] is True


def test_lifted_covers_subsume_c_strong(fu_example):
    """Every maximal rounding cut is implied by some lifted cover cut."""
    lifted = []
    for ybar in range(0, 3):
        for k0_size in range(0, 5):
            for K0 in combinations(range(5), k0_size):
                rest = [i for i in range(5) if i not in K0]
                for k1_size in range(0, len(rest) + 1):
                    for K1 in combinations(rest, k1_size):
                        try:
                            spec = CoverSpec.build(fu_example, ybar, set(K0), set(K1))
                            lifted.append(lifted_cover_cut(fu_example, spec))
                        except ValueError:
                            continue
    maximal = [
        S
        for size in range(1, 6)
        for S in combinations(range(5), size)
        if is_maximal_c_strong(fu_example, S)
    ]
    for S in maximal:
        cs = c_strong_cut(fu_example, S)
        implied = False
        for cut in lifted:
            # LP check: max of the rounding cut's lhs-rhs gap subject to the
            # lifted cut, the capacity row and the box must be nonpositive
            n = 5
            rows = [
                ({**{i: fu_example.a[i] for i in range(n)}, n: F(-1)}, LE, fu_example.a0),
                ({**cut.coefs, n: -cut.y_coef}, LE, cut.const),
            ]
            obj = {i: -F(1) for i in cs.coefs} | {n: cs.y_coef}
            res = solve_lp(n + 1, rows, obj, upper={i: F(1) for i in range(n)}, exact=True)
            if res.status == "optimal" and -res.objective <= cs.const:
                implied = True
                break
        assert implied, S


@pytest.mark.parametrize("n", [15, 16, 17])
def test_knapsack_max_matches_brute_force(n):
    """The lifting's knapsack DP against every subset, on both sides of
    the 16 items up to which it once enumerated instead; a negative or
    zero profit never helps, and a negative capacity fits nothing."""
    rng = random.Random(n)
    for _ in range(3):
        a = [F(rng.randint(1, d - 1), d) for d in (rng.choice((4, 6, 8, 12)) for _ in range(n))]
        rel = ArcSetRelaxation(a=a, a0=F(0), mode=SPLITTABLE)
        items = [(i, F(rng.randint(-1, 6), rng.choice((1, 2, 3)))) for i in range(n)]
        cap = F(rng.randint(0, 4 * n), 8)
        subsets = [(0, 0)]  # (24 * weight, 6 * profit) of every subset, in ints
        for wi, pi in ((int(24 * a[i]), int(6 * p)) for i, p in items):
            subsets += [(w + wi, q + pi) for w, q in subsets]
        assert _knapsack_max(rel, items, cap) == F(max(q for w, q in subsets if w <= 24 * cap), 6)
        assert _knapsack_max(rel, items, F(-1, 2)) == 0


def test_to_instance_cut_scaling():
    inst = Instance(
        nodes=[1, 2, 3],
        arcs=[Arc(1, 3), Arc(2, 3)],
        facilities=[Facility(3, (F(1), F(1)))],
        demand=DemandMatrix({(1, 3): F(2), (2, 3): F(1)}),
    )
    rel = from_capacity_row(inst, 0)
    ineq = residual_capacity_cut(rel, (0,))
    cut = to_instance_cut(inst, 0, ineq, "rc")
    # relaxation x is a supply fraction: raw coefficient divides by demand
    assert cut.flow[(0, 0)] == -ineq.coefs[0] / F(2)
    assert (0, 1) not in cut.flow
    assert cut.cap[(0, 0)] == ineq.y_coef
    assert cut.rhs == -ineq.const
