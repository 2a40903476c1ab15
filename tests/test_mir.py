import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdes_cuts.mir import (
    KnapsackCoverSet,
    PhiParams,
    hull_inequalities,
    phi_minus,
    phi_plus,
)

from helpers import (
    MixedBase,
    basic_mir,
    integer_normal_form,
    knapsack_min,
    mir_cut,
    reference_hull_inequalities,
    reference_iterative_mir,
)

small_fraction = st.fractions(min_value=0, max_value=8, max_denominator=6)


def test_basic_mir_integer_rhs_degenerates():
    r, up = basic_mir(3)
    assert r == 0 and up == 3


def test_basic_mir_fractional():
    r, up = basic_mir(F(5, 3))
    assert (r, up) == (F(2, 3), 2)
    # tight at (0, ceil b) and (r, floor b)
    assert 0 + r * up == r * up
    assert r + r * 1 == r * up
    assert basic_mir(F(1, 2)) == (F(1, 2), 1)


@given(st.fractions(min_value=-5, max_value=8, max_denominator=9))
def test_basic_mir_tight_points(b):
    r, up = basic_mir(b)
    if r > 0:
        assert 0 + r * up == r * up
        assert r + r * (up - 1) == r * up


def test_mir_cut_pure_integer_example():
    base = MixedBase({}, {0: F(1, 3), 1: 1}, F(5, 3))
    cut = mir_cut(base)
    assert integer_normal_form(cut) == ((), ((0, F(1)), (1, F(2))), F(4))
    # valid with two tight integer points on the 0..6 grid
    tight = 0
    for z in product(range(7), repeat=2):
        if F(1, 3) * z[0] + z[1] >= F(5, 3):
            lhs = sum(cut.integ[j] * z[j] for j in (0, 1))
            assert lhs >= cut.rhs
            tight += lhs == cut.rhs
    assert tight >= 2


def test_mir_cut_integer_rhs_passthrough():
    base = MixedBase({0: F(1)}, {0: F(3, 2)}, F(2))
    cut = mir_cut(base)
    assert cut.rhs == base.rhs and cut.integ == base.integ


def test_mir_cut_arc_base_complemented():
    # complemented capacity row for the subset {2,3} of the splittable
    # three-commodity example: x-part dropped, remainder 1/3
    base = MixedBase(
        {},
        {"y": 1},
        F(4, 3),
    )
    cut = mir_cut(base)
    # 1/3 * ceil(4/3) = 2/3: y >= 2 scaled by r
    assert cut.rhs == F(2, 3)
    assert cut.integ["y"] == F(1, 3)


@settings(max_examples=200)
@given(
    st.lists(small_fraction, min_size=1, max_size=3),
    st.lists(small_fraction, min_size=1, max_size=3),
    st.fractions(min_value=0, max_value=10, max_denominator=6),
)
def test_mir_cut_validity_by_enumeration(cont, integ, rhs):
    base = MixedBase(
        {i: v for i, v in enumerate(cont)},
        {i: v for i, v in enumerate(integ)},
        rhs,
    )
    cut = mir_cut(base)
    # vertices of the mixed set: integer y on a grid, x scaled to equality
    for y in product(range(6), repeat=len(integ)):
        gap = rhs - sum(v * y[i] for i, v in base.integ.items())
        # continuous part must cover `gap`; try axis points (vertices)
        for j, aj in base.cont.items():
            if aj == 0:
                continue
            x = {j: max(F(0), gap) / aj}
            lhs = sum(cut.cont.get(i, F(0)) * x.get(i, F(0)) for i in base.cont)
            lhs += sum(cut.integ[i] * y[i] for i in base.integ)
            assert lhs >= cut.rhs - F(0)
        if gap <= 0:
            lhs = sum(cut.integ[i] * y[i] for i in base.integ)
            assert lhs >= cut.rhs


# -- iterated MIR -----------------------------------------------------------------


def test_iterative_mir_single_divisor_examples():
    X = KnapsackCoverSet((1, 3), F(5))
    assert integer_normal_form(reference_iterative_mir(X, (1,))) == ((), ((0, F(1)), (1, F(2))), F(4))
    # divisor one with integral rhs: plain rounding leaves the base
    assert integer_normal_form(reference_iterative_mir(X, (0,))) == ((), ((0, F(1)), (1, F(3))), F(5))


def test_iterative_mir_validity_by_enumeration():
    X = KnapsackCoverSet((1, 3), F(5))
    for coefs, rhs in hull_inequalities(X):
        for z in product(range(7), range(4)):
            if z[0] + 3 * z[1] >= 5:
                assert sum(coefs[i] * z[i] for i in range(2)) >= rhs


def test_iterative_mir_always_valid_non_divisible():
    rng = random.Random(2)
    for _ in range(40):
        caps = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
        X = KnapsackCoverSet(tuple(caps), F(rng.randint(1, 30), rng.choice((1, 2, 3))))
        for coefs, rhs in hull_inequalities(X):
            zmax = [int(X.rhs // c) + 1 for c in caps]
            for z in product(*(range(b + 1) for b in zmax)):
                if sum(c * zi for c, zi in zip(caps, z)) >= X.rhs:
                    lhs = sum(coefs[i] * z[i] for i in range(len(caps)))
                    assert lhs >= rhs, (caps, X.rhs, coefs, rhs, z)


def test_hull_inequalities_describe_divisible_hulls():
    rng = random.Random(4)
    from netdes_cuts.simplex import GE, solve_lp

    for caps, b in [((1, 2), F(7, 2)), ((1, 3), F(5)), ((1, 2, 4), F(7))]:
        X = KnapsackCoverSet(caps, b)
        cuts = hull_inequalities(X)
        for _ in range(30):
            obj = [F(rng.randint(0, 9), rng.choice((1, 2))) for _ in caps]
            rows = [(dict(enumerate(coefs)), GE, rhs) for coefs, rhs in cuts]
            res = solve_lp(len(caps), rows, {i: v for i, v in enumerate(obj)}, exact=True)
            assert res.status == "optimal"
            assert res.objective == knapsack_min(caps, b, obj)


DIVISIBLE_CASES = [
    (caps, b) for caps in ((1, 2), (1, 3), (1, 2, 4), (1, 2, 6)) for b in (F(1, 2), F(5, 3), F(5), F(7), F(23, 3))
]


def _assert_integer_mir_matches_the_reference(X):
    got, want = hull_inequalities(X), reference_hull_inequalities(X)
    # same cuts in the same order, as the same ints
    assert repr(got) == repr(want)
    assert [integer_normal_form(c) for c in got] == [integer_normal_form(c) for c in want]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3, unique=True),
    st.integers(min_value=-6, max_value=60),
    st.integers(min_value=1, max_value=12),
)
@example([1, 3], 5, 1)  # divisor 1 on an integral rhs: remainder 0
@example([2, 4], 8, 1)  # remainder 0 at both divisors
@example([3, 5, 7], 35, 3)
def test_integer_iterated_mir_matches_the_fraction_reference(caps, p, q):
    """The integer ``hull_inequalities`` gives the cuts of the former
    ``Fraction`` computation: the same list in the same order, equal
    ``integer_normal_form``s, for 1-3 strictly increasing capacities and
    integer, fractional and nonpositive right-hand sides."""
    _assert_integer_mir_matches_the_reference(KnapsackCoverSet(tuple(sorted(caps)), F(p, q)))


def test_integer_iterated_mir_matches_the_reference_on_divisible_hulls(monkeypatch):
    """Criterion 8's divisible cover sets give the reference's hull cuts,
    and some of their rounding steps have remainder 0."""
    from netdes_cuts import mir

    remainders = []
    original = mir._rounded

    def recording(coefs, p, q, c):
        remainders.append(p % (q * c))
        return original(coefs, p, q, c)

    monkeypatch.setattr(mir, "_rounded", recording)
    for caps, b in DIVISIBLE_CASES:
        _assert_integer_mir_matches_the_reference(KnapsackCoverSet(caps, b))
    assert 0 in remainders and any(remainders)


# -- phi functions ------------------------------------------------------------------


def test_phi_zero():
    p = PhiParams(c_s=F(3), r=F(2))
    assert phi_plus(p, 0) == 0
    assert phi_minus(p, 0) == 0


def test_phi_rejects_degenerate_remainder():
    p = PhiParams(c_s=F(3), r=F(0))
    with pytest.raises(ValueError):
        phi_plus(p, 1)
    with pytest.raises(ValueError):
        phi_minus(p, 1)


def test_phi_two_facility_values():
    p = PhiParams(c_s=F(1), r=F(1, 2))
    lam = 2
    assert phi_plus(p, 1) == F(1, 2)
    assert phi_plus(p, lam) == lam * F(1, 2)
    assert phi_minus(p, 1) == F(1, 2)
    assert phi_minus(p, lam) == lam * F(1, 2)


def test_phi_subadditive_and_monotone_on_grid():
    p = PhiParams(c_s=F(3), r=F(2))
    for phi in (phi_plus, phi_minus):
        grid = [F(i, 2) for i in range(0, 25)]
        vals = {g: phi(p, g) for g in grid}
        for u in grid:
            for v in grid:
                if u + v in vals:
                    assert vals[u + v] <= vals[u] + vals[v]
        for lo, hi in zip(grid, grid[1:]):
            assert vals[lo] <= vals[hi]


def test_phi_at_base_capacity_equals_remainder():
    for c_s, r in [(F(1), F(1, 2)), (F(3), F(2)), (F(5, 2), F(1, 3))]:
        p = PhiParams(c_s=c_s, r=r)
        assert phi_plus(p, c_s) == r


@given(
    c=small_fraction,
    c_s=st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
    share=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: 0 < t < 1),
    lam=st.fractions(min_value=F(1, 12), max_value=40, max_denominator=12),
)
def test_phi_homogeneous_fractions(c, c_s, share, lam):
    p = PhiParams(c_s=c_s, r=share * c_s)
    scaled = PhiParams(c_s=lam * c_s, r=lam * share * c_s)
    for phi in (phi_plus, phi_minus):
        assert phi(scaled, lam * c) == lam * phi(p, c)


@given(
    c=st.integers(min_value=0, max_value=200),
    c_s=st.integers(min_value=2, max_value=30),
    r=st.integers(min_value=1, max_value=29),
    lam=st.integers(min_value=1, max_value=50),
)
def test_phi_homogeneous_ints(c, c_s, r, lam):
    r = min(r, c_s - 1)
    p = PhiParams(c_s=c_s, r=r)
    scaled = PhiParams(c_s=lam * c_s, r=lam * r)
    exact = PhiParams(c_s=F(c_s), r=F(r))
    for phi in (phi_plus, phi_minus):
        value = phi(p, c)
        assert type(value) is int
        assert phi(scaled, lam * c) == lam * value
        assert phi(exact, F(c)) == value
