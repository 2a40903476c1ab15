import math
import random
from fractions import Fraction as F

import pytest

from netdes_cuts import lp, simplex
from netdes_cuts.core import generate_instance
from netdes_cuts.engine import Config, cutting_plane_loop
from netdes_cuts.lp import RoutingLP, safe_lower_bound
from netdes_cuts.simplex import _FLOAT, EQ, GE, LE, solve_lp, solve_lp_many

from helpers import GOLDEN_4_NODE, reference_resolve, reference_solve_lp_many, reference_tableau_row


def solve_many(n_vars, rows, objectives, upper=None, exact=False):
    """The answers ``solve_lp_many`` gives in floats; exact ones from
    ``solve_lp``, once per objective."""
    if exact:
        return [solve_lp(n_vars, rows, objective, upper, exact=True) for objective in objectives]
    return solve_lp_many(n_vars, rows, objectives, upper)


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
    """One shared phase 1 gives each objective the answer of its own
    solve; the package solves batches in floats only, so the exact batch
    is the former kernel's (``reference_solve_lp_many``)."""
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
        if exact:
            batch = reference_solve_lp_many(n, rows, objectives, upper, exact=True)
        else:
            batch = solve_lp_many(n, rows, objectives, upper)
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


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("upper", [-1, F(-1, 2), float("nan")])
def test_negative_or_nan_upper_bound_refused(exact, upper):
    # 0 <= x <= -1 is empty; answering "optimal" at x = 0 would break x <= u
    with pytest.raises(ValueError):
        solve_lp(1, [({0: 1}, LE, 5)], {0: 1}, {0: upper}, exact=exact)
    with pytest.raises(ValueError):
        solve_many(1, [({0: 1}, LE, 5)], [{0: 1}, {}], {0: upper}, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_an_lp_without_columns_is_optimal_at_zero(exact):
    """No variable and no row: nothing can enter, and the optimum is 0."""
    for res in (solve_lp(0, [], {}, exact=exact), *solve_many(0, [], [{}, {}], exact=exact)):
        assert (res.status, res.x, res.objective, res.duals, res.iterations) == ("optimal", [], 0, [], 0)
        if exact:
            assert type(res.objective) is F
        else:
            assert math.copysign(1.0, res.objective) == 1.0  # +0.0, which prints as 0


def _assert_same_result(new, ref):
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    for field in ("x", "duals", "farkas"):
        a, b = getattr(new, field), getattr(ref, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert list(a) == list(b)
            assert [type(v) for v in a] == [type(v) for v in b]
    assert new.objective == ref.objective
    assert type(new.objective) is type(ref.objective)


def _random_lp(rng):
    """Small LP with integer data: many ties, so Bland's tie rule decides."""
    n = rng.randint(2, 8)
    rows = []
    for _ in range(rng.randint(1, 7)):
        coefs = {j: F(rng.randint(-3, 5)) for j in rng.sample(range(n), rng.randint(1, n))}
        rows.append((coefs, rng.choice([LE, GE, EQ]), F(rng.randint(-4, 6))))
    upper = {j: F(rng.randint(0, 5)) for j in range(n) if rng.random() < 0.5}
    objectives = [{j: F(rng.randint(-2, 4)) for j in range(n)} for _ in range(rng.randint(1, 3))]
    return n, rows, objectives, upper


def _loop_lps(monkeypatch):
    """Every round's LP of the golden 4-node loops and of seed 14's, whose
    tableaux outgrow the whole-tableau float update, as ``solve_lp`` received it."""
    real_solve_lp = lp.solve_lp
    lps = []

    def recording(n_vars, rows, objective, upper=None, **kwargs):
        lps.append((n_vars, list(rows), [objective], upper))
        return real_solve_lp(n_vars, rows, objective, upper, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(lp, "solve_lp", recording)
        for seed in sorted(GOLDEN_4_NODE) + [14]:
            inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
            cutting_plane_loop(inst, Config(max_rounds=10))
    return lps


def _routing_lps(count):
    """Routing LPs under random capacities, each with several flow objectives."""
    rng = random.Random(23)
    lps = []
    for seed in range(count):
        inst = generate_instance(seed=500 + seed, nodes=rng.randint(3, 4), density=0.7, facilities=(1, 2))
        caps = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 4), rng.choice((1, 2))) for _ in inst.arcs]
        routing = RoutingLP(inst)
        flows = [
            {(ai, ki): F(rng.randint(-2, 3)) for ai in range(len(inst.arcs)) for ki in range(len(inst.commodities))}
            for _ in range(3)
        ]
        objectives = [routing.columns(flow) for flow in flows] + [{}]
        lps.append((routing.n_vars, routing.rows(caps), objectives, routing.upper))
    return lps


def _layout_rows(rng, count, floats):
    """``_Layout.rows`` entries: Fraction, int or float values, empty rows
    and negated rows among them."""
    rows = []
    for _ in range(count):
        n = rng.choice((0, 1, 3, 6))
        coefs = {j: F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 7))) for j in rng.sample(range(12), n)}
        rhs = F(rng.randint(-5, 5), rng.choice((1, 3)))
        if floats:
            coefs, rhs = {j: float(v) for j, v in coefs.items()}, float(rhs)
        elif rng.random() < 0.3:
            coefs = {j: int(v) for j, v in coefs.items() if int(v)}
        rows.append((coefs, rng.choice([LE, GE, EQ]), rhs, rng.random() < 0.4))
    return rows


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_row_intake_matches_the_former_row_by_row_conversion(exact):
    """``_tableau_rows`` converts a batch in one pass as the former
    conversion did row by row: the same coefficients in the same rows and
    columns, rhs and row scales, bit for bit in floats and of the same
    type in Fractions, on rows of every kind and on no row at all."""
    from netdes_cuts.simplex import _EXACT, _tableau_rows

    arith = _EXACT if exact else _FLOAT
    rng = random.Random(53)
    batches = [[]] + [_layout_rows(rng, rng.randint(1, 9), floats=False) for _ in range(150)]
    if not exact:
        batches += [_layout_rows(rng, rng.randint(1, 9), floats=True) for _ in range(150)]
    for rows in batches:
        at, cols, vals, rhs, scale = _tableau_rows(rows, arith)
        want = [reference_tableau_row(coefs, b, negated, arith) for coefs, _, b, negated in rows]
        assert at.tolist() == [i for i, (coefs, _, _, _) in enumerate(rows) for _ in coefs]
        assert cols.tolist() == [j for coefs, _, _, _ in rows for j in coefs]
        got = (list(vals), list(rhs), list(scale))
        expected = ([v for row_vals, _, _ in want for v in row_vals], [b for _, b, _ in want], [c for _, _, c in want])
        if exact:
            assert got == expected
            assert all(type(v) is F for part in got for v in part)
        else:
            assert [[float(v).hex() for v in part] for part in got] == [[float(v).hex() for v in part] for part in expected]


def test_float_row_intake_converts_wide_values_as_to_float():
    """The float intake converts a batch with one ``np.array`` call, and
    it gives the bytes of the former per-value ``_to_float`` conversion
    (``helpers.reference_tableau_row``) for coefficients and rhs, and so
    for the row scales, on rows that mix floats, -0.0, ints beyond 2**53
    and 2**64 and ``Fraction``s with 80-bit terms, negated or not."""
    import numpy as np

    from netdes_cuts.simplex import _tableau_rows

    rng = random.Random(80)
    makers = [
        lambda: rng.uniform(-1e6, 1e6),
        lambda: -0.0,
        lambda: rng.choice((1, -1)) * rng.randrange(2**53, 2**54),
        lambda: rng.choice((1, -1)) * rng.randrange(2**64, 2**66),
        lambda: F(rng.randrange(-2**80, 2**80), rng.randrange(2**79, 2**80)),
        lambda: rng.randint(-3, 3),
    ]
    values = 0
    for _ in range(200):
        rows = []
        for _ in range(rng.randint(1, 8)):
            coefs = {j: rng.choice(makers)() for j in rng.sample(range(30), rng.randint(0, 12))}
            rows.append((coefs, LE, rng.choice(makers)(), rng.random() < 0.5))
            values += len(coefs) + 1
        _, _, vals, rhs, scale = _tableau_rows(rows, _FLOAT)
        want = [reference_tableau_row(coefs, b, negated, _FLOAT) for coefs, _, b, negated in rows]
        assert vals.tobytes() == np.array([v for row_vals, _, _ in want for v in row_vals], dtype=np.float64).tobytes()
        assert rhs.tobytes() == np.array([b for _, b, _ in want], dtype=np.float64).tobytes()
        assert scale.tobytes() == np.array([c for _, _, c in want], dtype=np.float64).tobytes()
    assert values > 5000, values


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_kernel_matches_reference(monkeypatch, exact):
    """The kernel takes the same pivots as the former one, which updated the
    whole tableau and priced one numpy element at a time: every field of
    every result, number types included, is equal."""
    rng = random.Random(31)
    lps = [_random_lp(rng) for _ in range(400)] + _routing_lps(60)
    if not exact:
        # the loop's relaxations are solved in floats only
        lps += _loop_lps(monkeypatch)
    statuses = set()
    for n_vars, rows, objectives, upper in lps:
        for max_iter in (None, 1):
            with monkeypatch.context() as patch:
                if max_iter is not None:
                    patch.setattr(simplex, "_default_max_iter", lambda layout: max_iter)
                new = solve_many(n_vars, rows, objectives, upper, exact)
            ref = reference_solve_lp_many(n_vars, rows, objectives, upper, exact=exact, max_iter=max_iter)
            assert len(new) == len(ref) == len(objectives)
            for a, b in zip(new, ref):
                _assert_same_result(a, b)
                statuses.add(a.status)
    assert {"optimal", "infeasible", "unbounded", "stalled"} <= statuses


# -- warm starts ---------------------------------------------------------------


def _split_lps(count):
    """Random LPs, each with a prefix of rows whose float optimum exists and
    the rows appended to it (every sense, negative right-hand sides)."""
    rng = random.Random(41)
    lps = []
    while len(lps) < count:
        n, rows, objectives, upper = _random_lp(rng)
        rows += [
            ({j: F(rng.randint(-3, 5)) for j in rng.sample(range(n), rng.randint(1, n))},
             rng.choice([LE, GE, EQ]), F(rng.randint(-4, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        m = rng.randint(1, len(rows) - 1)
        objective = {j: abs(v) for j, v in objectives[0].items()}  # bounded below
        first = solve_lp(n, rows[:m], objective, upper)
        if first.status == "optimal":
            lps.append((n, rows, objective, upper, first))
    return lps


def _certified(rows, objective, upper, res):
    """``lp.certify`` of ``res`` against the safe bound of its own duals."""
    return lp.certify(rows, objective, upper, res, safe_lower_bound(rows, objective, upper, res.duals))


def _warm_matches_cold(n, rows, objective, upper, first):
    cold = solve_lp(n, rows, objective, upper)
    warm = solve_lp(n, rows, objective, upper, start=first)
    if cold.status != "optimal":
        # an infeasible extension leaves the dual simplex no entering column
        assert cold.status == "infeasible" and warm.status == "stalled"
        return cold.status
    assert warm.status == "optimal" and warm.tableau is not None
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    proved = _certified(rows, objective, upper, cold)
    if proved is not None:
        # the optimum may sit at another vertex, but it is the same exact value
        again = _certified(rows, objective, upper, warm)
        assert again is not None and again[0] == proved[0]
    return cold.status


def test_warm_start_matches_cold_solve():
    statuses = [_warm_matches_cold(*case) for case in _split_lps(500)]
    assert statuses.count("optimal") >= 150 and statuses.count("infeasible") >= 50


def _loop_warm_solves(monkeypatch):
    """Every warm solve of the golden 4-node loops and of seed 14's, as
    ``(n_vars, rows, objective, upper, start)``."""
    real_solve_lp = lp.solve_lp
    solves = []

    def recording(n_vars, rows, objective, upper=None, **kwargs):
        if kwargs.get("start") is not None:
            solves.append((n_vars, list(rows), objective, upper, kwargs["start"]))
        return real_solve_lp(n_vars, rows, objective, upper, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(lp, "solve_lp", recording)
        for seed in sorted(GOLDEN_4_NODE) + [14]:
            inst = generate_instance(seed=seed, nodes=4, density=0.6, facilities=(1, 3) if seed % 2 else (1,))
            cutting_plane_loop(inst, Config(max_rounds=10))
    return solves


def _assert_same_tableau(new, ref):
    (state, layout), (ref_state, ref_layout) = new.tableau, ref.tableau
    for name in ("T", "basis", "is_basic", "flipped", "upper", "allow", "row_scale"):
        a, b = getattr(state, name), getattr(ref_state, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert state.iterations == ref_state.iterations
    assert (layout.rows, layout.slack_col, layout.art_col, layout.ncols) == (
        ref_layout.rows, ref_layout.slack_col, ref_layout.art_col, ref_layout.ncols
    )


def _complemented_row_lp():
    """A warm start whose one new row holds 40 complemented columns with
    coefficients from 1/3 to 1e15/3: the float sum of its rhs shift depends
    on the order of its terms, so only the former per-row dot reproduces it."""
    rng = random.Random(47)
    n = 40
    upper = {j: F(rng.randint(1, 9), 7) for j in range(n)}
    objective = {j: -1 for j in range(n)}
    rows = [({j: F(1) for j in range(n)}, LE, F(1000))]
    first = solve_lp(n, rows, objective, upper)
    assert all(first.tableau[0].flipped[:n])  # every column sits at its upper bound
    coefs = {j: F(rng.choice((-1, 1)) * 10 ** rng.randint(0, 15), 3) for j in range(n)}
    # with rhs 0 the row's tableau rhs is its shift, to the last bit
    rows.append((coefs, GE, F(0)))
    vals, _, _ = reference_tableau_row(coefs, F(0), True, _FLOAT)
    terms = [v * float(upper[j]) for j, v in zip(coefs, vals)]
    assert sum(terms) != sum(reversed(terms))
    return n, rows, objective, upper, first


def test_warm_start_matches_reference(monkeypatch):
    """The warm start places its new rows in one scatter and reads values and
    duals with vector operations, where the former one appended each row
    alone and read one element at a time: every result field, number types
    included, and the kept tableau are the same to the bit, on random
    splits, with no new row, and on every warm solve of the loops."""
    cases = _split_lps(500)
    cases += [(n, rows[: len(first.tableau[1].rows)], objective, upper, first)
              for n, rows, objective, upper, first in cases[:100]]
    cases += _loop_warm_solves(monkeypatch)
    cases.append(_complemented_row_lp())
    statuses = set()
    for n, rows, objective, upper, first in cases:
        for max_iter in (None, 1):
            new = solve_lp(n, rows, objective, upper, max_iter=max_iter, start=first)
            ref = reference_resolve(first, rows, max_iter)
            _assert_same_result(new, ref)
            assert (new.tableau is None) == (ref.tableau is None)
            if new.tableau is not None:
                _assert_same_tableau(new, ref)
            statuses.add(new.status)
    assert statuses == {"optimal", "stalled"}


def test_warm_start_leaves_at_upper_bound():
    # min x0 + 10 x1 with x0 <= 1: appending x0 + x1 >= 3 first lifts x0 to
    # 3, above its bound, so x0 leaves at its bound and x1 takes the rest
    upper = {0: F(1), 1: F(10)}
    rows = [({0: F(1), 1: F(1)}, LE, F(20))]
    first = solve_lp(2, rows, {0: 1, 1: 10}, upper)
    rows.append(({0: F(1), 1: F(1)}, GE, F(3)))
    warm = solve_lp(2, rows, {0: 1, 1: 10}, upper, start=first)
    assert warm.status == "optimal" and warm.iterations == 2
    assert warm.x == pytest.approx([1, 2]) and warm.objective == pytest.approx(21)
    assert _certified(rows, {0: 1, 1: 10}, upper, warm) == (F(21), [F(1), F(2)])
    # with x0 at its bound, x0 + x1 = 1 forces x1 = 0 against x0 + x1 >= 3
    infeasible = rows[:1] + [({0: F(1), 1: F(1)}, EQ, F(1)), rows[1]]
    assert solve_lp(2, infeasible, {0: 1, 1: 10}, upper, start=first).status == "stalled"


def test_only_single_float_optima_keep_a_tableau():
    rows = [({0: F(1), 1: F(1)}, GE, F(1))]
    assert solve_lp(2, rows, {0: 1, 1: 2}).tableau is not None
    assert solve_lp(2, rows, {0: 1, 1: 2}, exact=True).tableau is None
    assert all(res.tableau is None for res in solve_lp_many(2, rows, [{0: 1}, {1: 1}]))
    assert solve_lp(2, rows + [({0: F(1)}, LE, F(-1))], {0: 1}).tableau is None


def test_warm_start_refuses_a_start_it_cannot_extend():
    rows = [({0: F(1), 1: F(1)}, GE, F(1)), ({0: F(1)}, LE, F(3))]
    first = solve_lp(2, rows, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        solve_lp(3, rows, {0: 1, 1: 2}, start=first)
    with pytest.raises(ValueError):
        solve_lp(2, rows[:1], {0: 1, 1: 2}, start=first)
    with pytest.raises(ValueError):
        solve_lp(2, rows, {0: 1, 1: 2}, exact=True, start=first)
    with pytest.raises(ValueError):
        solve_lp(2, rows, {0: 1, 1: 2}, start=solve_lp(2, rows, {0: 1, 1: 2}, exact=True))
