import random
from fractions import Fraction as F

import pytest

from netdes_cuts.lp import safe_lower_bound
from netdes_cuts.simplex import EQ, GE, LE, solve_lp, solve_lp_many


def test_min_with_lower_bound_row():
    res = solve_lp(1, [({0: 1}, GE, 3)], [1])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3)
    assert res.objective == pytest.approx(3)
    assert res.duals[0] == pytest.approx(1)


def test_infeasible_farkas():
    res = solve_lp(1, [({0: 1}, GE, 1), ({0: 1}, LE, 0)], [0])
    assert res.status == "infeasible"
    lam = res.farkas
    # aggregated certificate: lam.A <= 0 on the column, lam.b > 0
    assert lam[0] + lam[1] == pytest.approx(0)
    assert lam[0] * 1 + lam[1] * 0 > 0
    assert lam[0] >= 0 and lam[1] <= 0


def test_unbounded():
    assert solve_lp(1, [({0: 1}, GE, 0)], [-1]).status == "unbounded"


def test_upper_bounds_respected():
    res = solve_lp(2, [({0: 1, 1: 1}, LE, 4)], [-1, -1], upper={0: 2, 1: 3})
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4)
    assert res.x[0] <= 2 + 1e-9 and res.x[1] <= 3 + 1e-9


def test_exact_mode_returns_fractions():
    res = solve_lp(
        2,
        [({0: 1, 1: 1}, EQ, F(5, 2)), ({0: 1, 1: -1}, GE, F(1, 3))],
        [2, 3],
        exact=True,
    )
    assert res.status == "optimal"
    assert res.objective == F(5)
    assert res.x == [F(5, 2), F(0)]


def test_exact_mode_returns_only_fractions():
    rng = random.Random(13)
    statuses = set()
    for trial in range(60):
        n = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coefs = {j: rng.randint(-3, 5) for j in rng.sample(range(n), rng.randint(1, n))}
            rows.append((coefs, rng.choice([LE, GE, EQ]), rng.randint(-2, 6)))
        obj = {j: rng.randint(-2, 4) for j in range(n)}
        upper = {j: rng.randint(0, 5) for j in range(n) if rng.random() < 0.5}
        res = solve_lp(n, rows, obj, upper=upper, exact=True)
        statuses.add(res.status)
        numbers = list(res.x) + list(res.duals or []) + list(res.farkas or [])
        if res.objective is not None:
            numbers.append(res.objective)
        assert all(type(v) is F for v in numbers)
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def test_bounded_infeasibility_certificate():
    res = solve_lp(2, [({0: 1, 1: 1}, GE, 5)], [0, 0], upper={0: 1, 1: 2})
    assert res.status == "infeasible"
    lam = res.farkas
    # with finite bounds: lam.b must exceed sum of positive column activity * u
    activity = lam[0]
    assert lam[0] * 5 > max(activity, 0) * 1 + max(activity, 0) * 2 - 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_random_lps_strong_duality(exact):
    rng = random.Random(7)
    noise = random.Random(8)
    for trial in range(25):
        n = rng.randint(2, 5)
        m = rng.randint(1, 4)
        rows = []
        for _ in range(m):
            coefs = {j: F(rng.randint(-3, 5)) for j in rng.sample(range(n), rng.randint(1, n))}
            sense = rng.choice([LE, GE, EQ])
            rows.append((coefs, sense, F(rng.randint(0, 6))))
        obj = {j: F(rng.randint(0, 4)) for j in range(n)}
        upper = {j: F(rng.randint(1, 5)) for j in range(n) if rng.random() < 0.5}
        res = solve_lp(n, rows, obj, upper=upper, exact=exact)
        if res.status != "optimal":
            continue
        # primal feasibility
        for coefs, sense, rhs in rows:
            v = sum(F(c) * (res.x[j] if exact else F(res.x[j]).limit_denominator(10**9)) for j, c in coefs.items())
            if sense == LE:
                assert float(v) <= float(rhs) + 1e-6
            elif sense == GE:
                assert float(v) >= float(rhs) - 1e-6
            else:
                assert abs(float(v) - float(rhs)) < 1e-6
        # duality: obj = pi.b + sum over bounded vars of min(0, reduced cost)*u
        pi = res.duals
        dual_val = sum(float(p) * float(rhs) for p, (_, _, rhs) in zip(pi, rows))
        for j, u in upper.items():
            rc = float(obj.get(j, 0)) - sum(
                float(pi[i]) * float(coefs.get(j, 0)) for i, (coefs, _, _) in enumerate(rows)
            )
            dual_val += min(0.0, rc) * float(u)
        assert dual_val == pytest.approx(float(res.objective), abs=1e-6)
        # the safe bound is exact and never above the optimum, from these
        # duals or from any others
        optimum = res.objective if exact else solve_lp(n, rows, obj, upper=upper, exact=True).objective
        for duals in (pi, [float(p) + noise.uniform(-2, 2) for p in pi]):
            safe = safe_lower_bound(rows, obj, upper, duals)
            assert safe is None or safe <= optimum


def test_exact_and_float_agree():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(1, 3)):
            coefs = {j: F(rng.randint(-2, 4)) for j in range(n)}
            rows.append((coefs, rng.choice([LE, GE]), F(rng.randint(1, 5))))
        obj = {j: F(rng.randint(1, 3)) for j in range(n)}
        upper = {j: F(3) for j in range(n)}
        f = solve_lp(n, rows, obj, upper=upper, exact=False)
        e = solve_lp(n, rows, obj, upper=upper, exact=True)
        assert f.status == e.status
        if f.status == "optimal":
            assert f.objective == pytest.approx(float(e.objective), abs=1e-7)



@pytest.mark.parametrize("exact", [False, True])
def test_solve_lp_many_matches_separate_solves(exact):
    rng = random.Random(5)
    statuses = set()
    for trial in range(30):
        n = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coefs = {j: F(rng.randint(-3, 5)) for j in rng.sample(range(n), rng.randint(1, n))}
            rows.append((coefs, rng.choice([LE, GE, EQ]), F(rng.randint(0, 6))))
        upper = {j: F(rng.randint(1, 5)) for j in range(n) if rng.random() < 0.7}
        objectives = [{j: F(rng.randint(-2, 4)) for j in range(n)} for _ in range(3)] + [{}]
        batch = solve_lp_many(n, rows, objectives, upper=upper, exact=exact)
        assert len(batch) == len(objectives)
        for objective, many in zip(objectives, batch):
            one = solve_lp(n, rows, objective, upper=upper, exact=exact)
            statuses.add(one.status)
            assert many.status == one.status
            assert many.iterations == one.iterations
            assert list(many.x) == list(one.x)
            assert many.objective == one.objective
            assert many.duals == one.duals
            assert many.farkas == one.farkas
    assert {"optimal", "infeasible", "unbounded"} <= statuses
