"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's cut machinery: validity is decided
by enumerating feasible points, optima by scanning integer capacities with
a plain LP (or by full enumeration), and separation claims by exhaustive
subset search.
"""

from fractions import Fraction as F
from itertools import combinations, product
from math import ceil

from netdes_cuts.simplex import LE, solve_lp

ZERO = F(0)

# pool size and final bound of the loop (default families, 10 rounds) on
# generate_instance(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s is
# odd else (1,)); a speed-up of the loop must reproduce them
GOLDEN_4_NODE = {
    1: (42, F(173, 18)),
    2: (12, F(3)),
    3: (19, F(17, 4)),
    4: (28, F(5)),
    5: (12, F(14)),
    6: (43, F(11)),
    7: (31, F(127, 12)),
    8: (18, F(55, 9)),
}


# -- arc sets -------------------------------------------------------------------


def arcset_vertices(a, a0, y):
    """Vertices of {x in [0,1]^n : a.x <= a0 + y} for fixed integer y.

    Knapsack-polytope vertices have at most one fractional coordinate, so
    enumerating 0/1 patterns with one coordinate filled to capacity is a
    complete list (plus the all-0/1 feasible patterns themselves).
    """
    n = len(a)
    cap = a0 + y
    out = []
    for pattern in product((0, 1), repeat=n):
        load = sum((a[i] for i in range(n) if pattern[i]), ZERO)
        if load <= cap:
            out.append(tuple(F(v) for v in pattern))
            room = cap - load
            for j in range(n):
                if not pattern[j] and 0 < room < a[j]:
                    x = list(F(v) for v in pattern)
                    x[j] = room / a[j]
                    out.append(tuple(x))
    return out


def fs_points(a, a0, y_range):
    for y in y_range:
        for x in arcset_vertices(a, a0, y):
            yield x, y


def fu_points(a, a0, y_range):
    for y in y_range:
        cap = a0 + y
        for x in product((0, 1), repeat=len(a)):
            if sum((a[i] for i in range(len(a)) if x[i]), ZERO) <= cap:
                yield tuple(F(v) for v in x), y


def holds(ineq, x, y) -> bool:
    """Evaluate an ArcInequality at an exact point."""
    lhs = sum((coef * x[i] for i, coef in ineq.coefs.items()), ZERO)
    return lhs <= ineq.const + ineq.y_coef * F(y)


def min_over_fs(a, a0, obj_x, obj_y, y_range):
    """Exact min of a linear objective over the splittable arc set.

    Parametric in the integer capacity: every y in range prices an LP over
    the box-and-knapsack polytope in x.
    """
    best = None
    n = len(a)
    for y in y_range:
        rows = [({i: a[i] for i in range(n)}, LE, a0 + y)]
        res = solve_lp(n, rows, {i: obj_x[i] for i in range(n)}, upper={i: F(1) for i in range(n)}, exact=True)
        if res.status != "optimal":
            continue
        value = res.objective + obj_y * y
        if best is None or value < best:
            best = value
    return best


def rc_best_violation(rel, xbar, ybar):
    """Exhaustive most-violated residual capacity cut over all subsets."""
    from netdes_cuts.arc_cuts import residual_capacity_cut

    best = ZERO
    best_S = None
    for size in range(1, rel.n + 1):
        for S in combinations(range(rel.n), size):
            cut = residual_capacity_cut(rel, S)
            if cut is None:
                continue
            v = cut.violation(xbar, ybar)
            if v > best:
                best, best_S = v, S
    return best, best_S


def cstrong_best_violation(rel, xbar, ybar):
    from netdes_cuts.arc_cuts import c_strong_value

    best = ZERO
    best_S = None
    for size in range(1, rel.n + 1):
        for S in combinations(range(rel.n), size):
            v = sum((xbar[i] for i in S), ZERO) - c_strong_value(rel, S) - ybar
            if v > best:
                best, best_S = v, S
    return best, best_S


# -- knapsack cover sets ----------------------------------------------------------


def knapsack_min(capacities, rhs, obj):
    """Exact integer minimum of ``obj . z`` over ``c . z >= rhs, z >= 0``.

    A grid bound of ceil(rhs / c_m) per coordinate suffices for
    nonnegative objectives: any larger entry can be reduced.
    """
    bounds = [max(0, ceil(F(rhs) / c)) for c in capacities]
    best = None
    for z in product(*(range(b + 1) for b in bounds)):
        if sum(c * zi for c, zi in zip(capacities, z)) >= rhs:
            val = sum((o * zi for o, zi in zip(obj, z)), ZERO)
            if best is None or val < best:
                best = val
    return best


# -- cut-set relaxations ------------------------------------------------------------


def flow_cutset_best_violation(rel, point, capacity, Q):
    """Exhaustive most-violated flow-cut-set inequality over arc subsets."""
    from netdes_cuts.cutset_cuts import FlowCutSelection, flow_cutset_cut

    best, best_sel = ZERO, None
    for sp_size in range(len(rel.A_plus) + 1):
        for S_plus in combinations(rel.A_plus, sp_size):
            for sm_size in range(len(rel.A_minus) + 1):
                for S_minus in combinations(rel.A_minus, sm_size):
                    sel = FlowCutSelection(tuple(Q), S_plus, S_minus)
                    try:
                        cut = flow_cutset_cut(rel, sel, capacity)
                    except ValueError:
                        continue
                    v = cut.violation(point)
                    if v > best:
                        best, best_sel = v, sel
    return best, best_sel


def multifacility_best_violation(rel, point, s, Q):
    from netdes_cuts.cutset_cuts import FlowCutSelection, multifacility_cutset_cut

    best, best_sel = ZERO, None
    for sp_size in range(len(rel.A_plus) + 1):
        for S_plus in combinations(rel.A_plus, sp_size):
            for sm_size in range(len(rel.A_minus) + 1):
                for S_minus in combinations(rel.A_minus, sm_size):
                    sel = FlowCutSelection(tuple(Q), S_plus, S_minus, facility=s)
                    try:
                        cut = multifacility_cutset_cut(rel, sel)
                    except ValueError:
                        continue
                    v = cut.violation(point)
                    if v > best:
                        best, best_sel = v, sel
    return best, best_sel


def _rounding_data(rel, Q, S_plus, S_minus, c):
    """Remainder r and eta of rounding ``b'_Q / c``."""
    b_prime = rel.b_sum(Q) - rel.cbar(S_plus) + rel.cbar(S_minus)
    return b_prime - (b_prime // c) * c, -(-b_prime // c)


def _phi_cut(rel, sel, sizes, family):
    """Cut-set cut with capacity coefficients ``phi+(c_m)`` on S+ and
    ``phi-(c_m)`` on S- for each facility m of ``sizes`` (index -> size),
    rounded on the base facility ``sel.facility``, built in Fractions (the
    library's former builder)."""
    from netdes_cuts.core import LinearCut
    from netdes_cuts.mir import PhiParams, phi_minus, phi_plus

    c_s = sizes[sel.facility]
    r, eta = _rounding_data(rel, sel.Q, sel.S_plus, sel.S_minus, c_s)
    if r == 0:
        raise ValueError("degenerate remainder; cut is vacuous")
    p = PhiParams(s=sel.facility, c_s=c_s, r=r, eta=eta)
    flow = {}
    for k in sel.Q:
        for a in rel.A_plus:
            if a not in sel.S_plus:
                flow[(a, k)] = flow.get((a, k), ZERO) + 1
        for a in sel.S_minus:
            flow[(a, k)] = flow.get((a, k), ZERO) - 1
    cap = {}
    for arcs, phi in ((sel.S_plus, phi_plus), (sel.S_minus, phi_minus)):
        coefs = {m: phi(p, c) for m, c in sizes.items()}
        for a in arcs:
            for m, coef in coefs.items():
                cap[(a, m)] = coef
    return LinearCut(
        flow=flow,
        cap=cap,
        rhs=r * eta - rel.cbar(sel.S_minus),
        family=family,
        params={"U": rel.U, "Q": tuple(sel.Q), "S+": tuple(sel.S_plus), "S-": tuple(sel.S_minus), "r": r, "eta": eta},
    )


def reference_flow_cutset_cut(rel, sel, capacity=None):
    """Fraction reference for ``cutset_cuts.flow_cutset_cut``."""
    c = F(capacity) if capacity is not None else rel.instance.facilities[sel.facility].capacity
    return _phi_cut(rel, sel, {sel.facility: c}, "flowcutset")


def reference_multifacility_cutset_cut(rel, sel):
    """Fraction reference for ``cutset_cuts.multifacility_cutset_cut``."""
    cut = _phi_cut(rel, sel, dict(enumerate(rel.instance.facility_capacities())), "mf")
    cut.params["s"] = sel.facility
    cut.params["facet_report"] = {
        "s_plus_proper": bool(sel.S_plus) and set(sel.S_plus) != set(rel.A_plus),
        "s_minus_proper": bool(sel.S_minus) and set(sel.S_minus) != set(rel.A_minus),
        "remainder_positive": cut.params["r"] > 0,
        "all_demands_positive": all(rel.b[k] > 0 for k in sel.Q),
    }
    return cut


def _point_flow(point, a, Q):
    return sum((point.x.get((a, k), ZERO) for k in Q), ZERO)


def _greedy_fraction(rel, Q, point, s, facilities, prefer_plus, build, max_rounds):
    """The greedy cut-set scan on Fractions, building and scoring every
    selection as a Fraction cut (the library's former implementation)."""
    from netdes_cuts.cutset_cuts import FlowCutSelection
    from netdes_cuts.mir import PhiParams, phi_minus, phi_plus

    if not rel.A_plus:
        return None
    caps = rel.instance.facility_capacities()
    s_plus, s_minus = tuple(rel.A_plus), ()
    best, best_viol = None, ZERO
    seen = set()
    for _ in range(max_rounds):
        r, eta = _rounding_data(rel, Q, s_plus, s_minus, caps[s])
        if r == 0:
            break
        p = PhiParams(s=s, c_s=caps[s], r=r, eta=eta)

        def cap_term(a, phi):
            return sum((phi(p, caps[m]) * point.y.get((a, m), ZERO) for m in facilities), ZERO)

        new_plus = tuple(
            a for a in rel.A_plus if prefer_plus(cap_term(a, phi_plus), _point_flow(point, a, Q))
        )
        new_minus = tuple(
            a for a in rel.A_minus if cap_term(a, phi_minus) < _point_flow(point, a, Q)
        )
        r2, _ = _rounding_data(rel, Q, new_plus, new_minus, caps[s])
        if r2 != 0:
            cut = build(rel, FlowCutSelection(Q, new_plus, new_minus, s))
            v = cut.violation(point)
            if v > best_viol:
                best, best_viol = cut, v
        if (new_plus, new_minus) in seen or (new_plus, new_minus) == (s_plus, s_minus):
            break
        seen.add((new_plus, new_minus))
        s_plus, s_minus = new_plus, new_minus
    return best


def reference_flow_cutset(rel, Q, point, facility=0, max_rounds=5):
    """Fraction reference for ``cutset_cuts.separate_flow_cutset``."""
    return _greedy_fraction(
        rel, tuple(Q), point, facility, (facility,), lambda cap, flow: cap < flow,
        reference_flow_cutset_cut, max_rounds,
    )


def reference_multifacility(rel, s, point, Q=None, max_rounds=5):
    """Fraction reference for ``cutset_cuts.separate_multifacility``."""
    Q = tuple(Q) if Q is not None else tuple(range(len(rel.b)))
    return _greedy_fraction(
        rel, Q, point, s, range(len(rel.instance.facilities)),
        lambda cap, flow: cap < flow or (cap == 0 and flow == 0),
        reference_multifacility_cutset_cut, max_rounds,
    )


def reference_commodity_subset(rel, S_plus, S_minus, point, facility=0, enumeration_cap=12):
    """Fraction reference for ``cutset_cuts.separate_commodity_subset``:
    the library's former scan, which builds and scores a cut per subset."""
    from netdes_cuts import arc_cuts
    from netdes_cuts.cutset_cuts import FlowCutSelection

    c = rel.instance.facilities[facility].capacity
    S_plus, S_minus = tuple(S_plus), tuple(S_minus)

    def eq_violation(Q):
        r, eta = _rounding_data(rel, Q, S_plus, S_minus, c)
        if r == 0:
            return ZERO
        cut = reference_flow_cutset_cut(rel, FlowCutSelection(tuple(Q), S_plus, S_minus, facility))
        return cut.violation(point)

    positives = rel.positive_commodities()
    # the reduction is exact only when its assumptions verifiably hold:
    # potentials in the unit box, nonnegative net capacity variable, zero
    # shift between the two violation scales, and a feasible view point
    view_ok = bool(positives) and rel.cbar(S_plus) >= rel.cbar(S_minus)
    view_ok = view_ok and all(
        point.y.get((a, facility), ZERO) == 0 for a in S_minus
    )
    xhat = {}
    ybar = ZERO
    if view_ok:
        ybar = sum((point.y.get((a, facility), ZERO) for a in S_plus), ZERO)
        for idx, k in enumerate(positives):
            crossing = rel.b[k]
            bypass = sum(
                (point.x.get((a, k), ZERO) for a in rel.A_plus if a not in S_plus), ZERO
            ) - sum((point.x.get((a, k), ZERO) for a in S_minus), ZERO)
            val = (crossing - bypass) / crossing
            if not 0 <= val <= 1:
                view_ok = False
                break
            xhat[idx] = val
    if view_ok:
        view = arc_cuts.ArcSetRelaxation(
            a=tuple(rel.b[k] / c for k in positives),
            a0=(rel.cbar(S_plus) - rel.cbar(S_minus)) / c,
            mode=arc_cuts.SPLITTABLE,
        )
        load = sum((view.a[i] * xhat[i] for i in range(view.n)), ZERO)
        if load <= view.a0 + ybar:
            found = arc_cuts.separate_residual_capacity(view, xhat, ybar)
            if found is None:
                return None
            Q = tuple(positives[i] for i in found.params["S"])
            return Q if eq_violation(Q) > 0 else None

    # fallback: exhaustive over commodity subsets
    ks = range(len(rel.b))
    if len(rel.b) > enumeration_cap:
        candidates = [positives, tuple(ks)] + [(k,) for k in ks]
    else:
        candidates = [sub for size in range(1, len(rel.b) + 1) for sub in combinations(ks, size)]
    best, best_v = None, ZERO
    for Q in candidates:
        if not Q:
            continue
        v = eq_violation(Q)
        if v > best_v:
            best, best_v = tuple(Q), v
    return best


# -- the loop's separation -----------------------------------------------------------


def reference_separate_all(instance, point, config):
    """Reference for ``engine.separate_all``: the former if-chain, which
    rebuilds every candidate each round (same families, same order) and
    evaluates each violation from the cut's coefficients.  ``metric`` never
    runs in the loop, so it has no branch here."""
    from netdes_cuts import cutset_cuts, engine, partition_cuts
    from netdes_cuts.core import LinearCut

    found = []
    single_facility = len(instance.facilities) == 1

    def admit(cut):
        if cut is None:
            return
        violation = cut.rhs - cut.lhs_value(point)
        if violation > config.eps:
            found.append((cut, violation))

    if "rc" in config.families and single_facility:
        for ai in range(len(instance.arcs)):
            admit(_reference_rc_arc(instance, ai, point))
    if "cstrong" in config.families and single_facility and instance.unsplittable:
        for ai in range(len(instance.arcs)):
            for cut in _reference_unsplittable_arc(instance, ai, point):
                admit(cut)

    partitions = list(engine._two_partitions(instance))
    relaxations = [cutset_cuts.build_cutset(instance, U, V) for U, V in partitions]

    if "cutset" in config.families and single_facility:
        for rel in relaxations:
            admit(cutset_cuts.cutset_cut(rel))
    flowcutset = "flowcutset" in config.families and single_facility
    if flowcutset or "mf" in config.families:
        subsets = [list(engine._commodity_subsets(rel, point)) for rel in relaxations]
    if flowcutset:
        for rel, rel_subsets in zip(relaxations, subsets):
            for Q in rel_subsets:
                admit(cutset_cuts.separate_flow_cutset(rel, Q, point))
    if "mf" in config.families:
        for rel, rel_subsets in zip(relaxations, subsets):
            for s in range(len(instance.facilities)):
                for Q in rel_subsets:
                    admit(cutset_cuts.separate_multifacility(rel, s, point, Q=Q))
    if "partition" in config.families and instance.integral_capacities():
        for U, V in partitions:
            shrunk = partition_cuts.shrink(instance, partition_cuts.NodePartition.of(U, V))
            cover = partition_cuts.knapsack_cover_from_two_partition(shrunk)
            if cover is None:
                continue
            for ineq in engine.hull_inequalities(cover):
                admit(partition_cuts.expand_knapsack_cut(ineq, shrunk))
        for part in engine._three_partitions(instance):
            candidates = [
                cut
                for cut in (
                    partition_cuts.three_partition_cut(instance, part),
                    partition_cuts.three_partition_metric_cut(instance, part),
                )
                if cut is not None
            ]
            if not candidates:
                continue
            winner = partition_cuts.select_total_capacity_cut(candidates)
            admit(winner)
            fed = partition_cuts.knapsack_from_total_capacity(winner, instance)
            if fed is not None:
                cover, support = fed
                for ineq in engine.hull_inequalities(cover):
                    cap = {}
                    for mi, coef in ineq.integ.items():
                        for ai in support.get(mi, ()):
                            cap[(ai, mi)] = coef
                    if cap:
                        admit(LinearCut({}, cap, ineq.rhs, "partition", {"from": "total-capacity"}))
    return found


def _reference_rc_arc(instance, ai, point):
    from netdes_cuts import arc_cuts, engine

    rel = arc_cuts.from_capacity_row(instance, ai, mode=arc_cuts.SPLITTABLE)
    xhat = engine._fractional_loads(rel, ai, point)
    ybar = max(point.y.get((ai, 0), ZERO), ZERO)
    ineq = arc_cuts.separate_residual_capacity(rel, xhat, ybar)
    if ineq is None:
        return None
    return arc_cuts.to_instance_cut(rel, ineq, "rc")


def _reference_unsplittable_arc(instance, ai, point):
    from netdes_cuts import arc_cuts, engine

    rel = arc_cuts.from_capacity_row(instance, ai, mode=arc_cuts.UNSPLITTABLE)
    reduced, offsets, off0 = arc_cuts.normalize_unsplittable(rel)
    xhat = engine._fractional_loads(rel, ai, point)
    ybar = max(point.y.get((ai, 0), ZERO), ZERO)
    yred = ybar + off0 - sum((offsets[i] * xhat.get(i, ZERO) for i in range(rel.n)), ZERO)
    cuts = []
    best = arc_cuts.separate_c_strong(reduced, xhat, yred)
    if best is not None:
        mapped = arc_cuts.back_map_cut(best, offsets, off0)
        cuts.append(arc_cuts.to_instance_cut(rel, mapped, "cstrong"))
        S = best.params["S"]
        for k in engine.K_SPLIT:
            cuts.append(arc_cuts.to_instance_cut(rel, arc_cuts.k_split_c_strong_cut(rel, S, k), "ksplit"))
    ones = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 1)
    zeros = frozenset(i for i in range(rel.n) if xhat.get(i, ZERO) == 0)
    if len(ones) + len(zeros) < rel.n:
        try:
            spec = arc_cuts.CoverSpec.build(reduced, max(0, int(round(float(yred)))), zeros, ones)
            lifted = arc_cuts.lifted_cover_cut(reduced, spec)
            mapped = arc_cuts.back_map_cut(lifted, offsets, off0)
            cuts.append(arc_cuts.to_instance_cut(rel, mapped, "liftedcover"))
        except ValueError:
            pass
    return cuts


# -- routing and pure-capacity cuts ----------------------------------------------------


def routable(instance, capacities):
    """Do ``capacities`` admit a routing?  The routing LP, solved in Fractions."""
    from netdes_cuts.lp import routing_rows

    n_vars, rows = routing_rows(instance, capacities)
    return solve_lp(n_vars, rows, {}, exact=True).status == "optimal"


def criterion_10_sample():
    """Criterion 10's 50 ``(instance, capacities)`` pairs, starved and ample."""
    import random

    from netdes_cuts.engine import generate_instance

    rng = random.Random(17)
    for seed in range(50):
        inst = generate_instance(seed=300 + seed, nodes=rng.randint(3, 6), density=0.7)
        scale = rng.choice((0, 1, 1, 2, 4))  # mix starved and ample networks
        caps = [
            F(0) if rng.random() < 0.4 else F(scale * rng.randint(1, 3), rng.choice((1, 2)))
            for _ in inst.arcs
        ]
        yield inst, caps


def pure_capacity_counterexamples(cut, instance):
    """Every keyed installation below the cut's rhs under which all demand
    routes, with ample capacity on unkeyed variables (full enumeration,
    each pattern decided by the exact routing LP)."""
    keys = sorted(cut.cap)
    ample = instance.demand.total()
    bounds = [ceil(cut.rhs / cut.cap[k]) for k in keys]
    found = []
    for units in product(*(range(b) for b in bounds)):
        y = dict(zip(keys, (F(u) for u in units)))
        if sum((cut.cap[k] * v for k, v in y.items()), ZERO) >= cut.rhs:
            continue
        caps = [
            arc.existing_capacity + sum(
                (fac.capacity * y.get((ai, mi), ZERO) if (ai, mi) in cut.cap else ample
                 for mi, fac in enumerate(instance.facilities)),
                ZERO,
            )
            for ai, arc in enumerate(instance.arcs)
        ]
        if routable(instance, caps):
            found.append(y)
    return found


def reference_validate_cuts(cuts, instance, ybound):
    """``engine.validate_cuts`` as it was before certificates were kept: one
    float routing LP for the open cuts at every grid point, each answer
    certified afresh (the Farkas vector's metric inequality, then each
    cut's safe dual bound, then exact pricing), and routability decided
    anew at every maximal pure-capacity pattern."""
    from netdes_cuts.engine import _best_unsplittable, _unsplittable_routings, default_y_bounds
    from netdes_cuts.core import FractionalPoint
    from netdes_cuts.lp import (
        cheapest_routing, check_feasible_routing, flow_columns, proves_unroutable,
        routing_balance_rows, routing_capacity_rows, routing_upper, safe_lower_bound,
    )
    from netdes_cuts.simplex import solve_lp_many

    def ypart(cut, y):
        return sum((coef * y.get(key, ZERO) for key, coef in cut.cap.items()), ZERO)

    def pure_capacity(cut, routings):
        keys = sorted(cut.cap)
        least = min(cut.cap.values())
        ample = instance.demand.total()

        def rec(idx, lhs, current):
            if idx == len(keys):
                if lhs + least < cut.rhs:
                    return None
                caps = [
                    arc.existing_capacity + sum(
                        (fac.capacity * current.get((ai, mi), ZERO) if (ai, mi) in cut.cap else ample
                         for mi, fac in enumerate(instance.facilities)),
                        ZERO,
                    )
                    for ai, arc in enumerate(instance.arcs)
                ]
                if routings is None:
                    feasible = check_feasible_routing(instance, caps)[0]
                else:
                    feasible = _best_unsplittable(instance, routings, caps, {}) is not None
                return FractionalPoint(x={}, y=dict(current)) if feasible else None
            key, units = keys[idx], 0
            while lhs + cut.cap[key] * units < cut.rhs:
                current[key] = F(units)
                counter = rec(idx + 1, lhs + cut.cap[key] * units, current)
                if counter is not None:
                    return counter
                units += 1
            current.pop(key, None)
            return None

        counter = rec(0, ZERO, {})
        return (True, None) if counter is None else (False, counter)

    verdicts = [(True, None) for _ in cuts]
    priced = routings = None
    if instance.unsplittable:
        routings = _unsplittable_routings(instance, cycles=False)
        priced = _unsplittable_routings(instance) if any(cut.flow for cut in cuts) else routings
    grid_idx = []
    for idx, cut in enumerate(cuts):
        if not cut.flow and all(v >= 0 for v in cut.cap.values()):
            verdicts[idx] = pure_capacity(cut, routings)
        else:
            grid_idx.append(idx)
    y_bounds = default_y_bounds(instance, ybound)
    keys = sorted(y_bounds)
    upper = routing_upper(instance)
    n_vars = len(instance.arcs) * len(instance.commodities)
    balance = routing_balance_rows(instance)
    objectives = {idx: flow_columns(instance, cuts[idx].flow) for idx in grid_idx}
    open_idx = set(grid_idx)
    for values in product(*(range(y_bounds[k] + 1) for k in keys)):
        if not open_idx:
            break
        y = dict(zip(keys, (F(v) for v in values)))
        caps = [instance.arc_capacity(ai, y) for ai in range(len(instance.arcs))]
        order = sorted(open_idx)
        if routings is not None:
            if _best_unsplittable(instance, routings, caps, {}) is None:
                continue
            for idx in order:
                lhs_min, x = _best_unsplittable(instance, priced, caps, cuts[idx].flow)
                if ypart(cuts[idx], y) + lhs_min < cuts[idx].rhs:
                    verdicts[idx] = (False, FractionalPoint(x=dict(x), y=dict(y)))
                    open_idx.discard(idx)
            continue
        rows = balance + routing_capacity_rows(instance, caps)
        results = solve_lp_many(n_vars, rows, [objectives[idx] for idx in order], upper)
        if results[0].status == "infeasible" and proves_unroutable(instance, caps, results[0].farkas):
            continue
        for idx, res in zip(order, results):
            cut = cuts[idx]
            if res.status == "optimal":
                bound = safe_lower_bound(rows, objectives[idx], upper, res.duals)
                if bound is not None and ypart(cut, y) + bound >= cut.rhs:
                    continue
            value, x = cheapest_routing(instance, caps, cut.flow, first=res)
            if value is not None and ypart(cut, y) + value < cut.rhs:
                verdicts[idx] = (False, FractionalPoint(x=x, y=dict(y)))
                open_idx.discard(idx)
    return verdicts


def random_rational(rng, lo=0, hi=2, denoms=(1, 2, 3, 4, 6)):
    d = rng.choice(denoms)
    return F(rng.randint(int(lo * d), int(hi * d)), d)


# -- the simplex kernel --------------------------------------------------------------


def reference_solve_lp_many(n_vars, rows, objectives, upper=None, exact=False, max_iter=None):
    """Reference for ``simplex.solve_lp_many``: the former kernel, which
    updates the whole tableau at every float pivot and prices and runs the
    ratio test one numpy element at a time.  Layout, state and result types
    are the library's."""
    from netdes_cuts.simplex import _EXACT, _FLOAT, LPResult, _default_max_iter, _Layout, _sparse

    arith = _EXACT if exact else _FLOAT
    layout = _Layout(n_vars, rows)
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    start = _reference_phase1(layout, upper or {}, arith, max_iter)
    if isinstance(start, LPResult):
        return [start] * len(objectives)
    results = []
    for k, objective in enumerate(objectives):
        state = start if k == len(objectives) - 1 else start.copy()
        results.append(_reference_phase2(layout, state, _sparse(objective), arith, max_iter))
    return results


def _reference_phase1(layout, upper_map, arith, max_iter):
    import numpy as np

    from netdes_cuts.simplex import _INF, GE, ITER_LIMIT, LE, LPResult, _State

    m, N = len(layout.rows), layout.ncols
    zero, one = arith.zero, arith.one
    T = np.full((m + 1, N + 1), zero, dtype=arith.dtype)
    upper = np.full(N, _INF, dtype=arith.dtype)
    for j, u in upper_map.items():
        upper[j] = arith.num(u)
    basis = np.full(m, -1, dtype=np.int64)
    is_basic = np.zeros(N, dtype=np.uint8)
    flipped = np.zeros(N, dtype=np.uint8)
    allow = np.ones(N, dtype=np.uint8)
    allow[upper <= arith.tol] = 0

    row_scale = np.full(m, one, dtype=arith.dtype)
    for i, (coefs, sense, rhs, _) in enumerate(layout.rows):
        if arith.exact:
            for j, v in coefs.items():
                T[i, j] = F(v)
            T[i, N] = F(rhs)
        else:
            fcoefs = [(j, float(v)) for j, v in coefs.items()]
            biggest = max((abs(v) for _, v in fcoefs), default=0.0)
            scale = 1.0 / biggest if biggest > 0 else 1.0
            row_scale[i] = scale
            for j, v in fcoefs:
                T[i, j] = v * scale
            T[i, N] = float(rhs) * scale
        if sense == LE:
            T[i, layout.slack_col[i]] = one
        elif sense == GE:
            T[i, layout.slack_col[i]] = -one
        if layout.art_col[i] >= 0:
            T[i, layout.art_col[i]] = one
            basis[i] = layout.art_col[i]
        else:
            basis[i] = layout.slack_col[i]
        is_basic[basis[i]] = 1

    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m] -= T[i]
    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m, layout.art_col[i]] += one

    status, it1 = _reference_pivot_loop(T, basis, is_basic, flipped, upper, allow, arith, max_iter)
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=it1)
    if -T[m, N] > arith.feas_tol:
        lam = []
        for i in range(m):
            col, is_art = layout.marker(i)
            pi = ((one if is_art else zero) - T[m, col]) * row_scale[i]
            lam.append(-pi if layout.rows[i][3] else pi)
        return LPResult("infeasible", [], None, farkas=lam, iterations=it1)

    _reference_drive_out_artificials(T, basis, is_basic, layout, arith)
    allow[layout.first_art :] = 0
    return _State(T, basis, is_basic, flipped, upper, allow, row_scale, it1)


def _reference_phase2(layout, state, obj, arith, max_iter):
    import numpy as np

    from netdes_cuts.simplex import ITER_LIMIT, UNBOUNDED, LPResult

    T, basis, flipped, upper = state.T, state.basis, state.flipped, state.upper
    m, N = len(layout.rows), layout.ncols
    T[m, :] = arith.zero
    const = arith.zero
    eff = np.full(N, arith.zero, dtype=arith.dtype)
    for j, v in obj.items():
        v = arith.num(v)
        if flipped[j]:
            eff[j] = -v
            const += v * upper[j]
        else:
            eff[j] = v
    T[m, :N] = eff
    for i in range(m):
        cb = eff[basis[i]]
        if cb != 0:
            T[m] -= cb * T[i]
    T[m, N] -= const

    status, it2 = _reference_pivot_loop(T, basis, state.is_basic, flipped, upper, state.allow, arith, max_iter)
    iters = state.iterations + it2
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=iters)
    if status == UNBOUNDED:
        return LPResult("unbounded", [], None, iterations=iters)

    values = np.full(N, arith.zero, dtype=arith.dtype)
    for i in range(m):
        values[basis[i]] = T[i, N]
    for j in range(N):
        if flipped[j]:
            values[j] = upper[j] - values[j]
    duals = []
    for i in range(m):
        col, _ = layout.marker(i)
        pi = -T[m, col] * state.row_scale[i]
        duals.append(-pi if layout.rows[i][3] else pi)
    return LPResult("optimal", list(values[: layout.n_vars]), -T[m, N], duals=duals, iterations=iters)


def _reference_drive_out_artificials(T, basis, is_basic, layout, arith):
    m = T.shape[0] - 1
    for i in range(m):
        if basis[i] < layout.first_art:
            continue
        for j in range(layout.first_art):
            if not is_basic[j] and abs(T[i, j]) > arith.feas_tol:
                lv = basis[i]
                _reference_pivot(T, i, j, arith)
                basis[i] = j
                is_basic[j] = 1
                is_basic[lv] = 0
                break


def _reference_pivot_loop(T, basis, is_basic, flipped, upper, allow, arith, max_iter):
    from netdes_cuts.simplex import _INF, ITER_LIMIT, OPTIMAL, UNBOUNDED

    m = T.shape[0] - 1
    n = T.shape[1] - 1
    obj = T[m]
    tol, zero = arith.tol, arith.zero
    iters = 0
    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        enter = -1
        for j in range(n):
            if allow[j] and not is_basic[j] and obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, iters
        best_t = upper[enter]
        leave_row = -1
        leave_at_upper = False
        for i in range(m):
            d = T[i, enter]
            if d > tol:
                t = max(T[i, n], zero) / d
                hits_upper = False
            elif d < -tol and upper[basis[i]] != _INF:
                t = max(upper[basis[i]] - T[i, n], zero) / (-d)
                hits_upper = True
            else:
                continue
            if t < best_t - tol or (
                t <= best_t + tol and (leave_row < 0 or basis[i] < basis[leave_row])
            ):
                best_t = t
                leave_row = i
                leave_at_upper = hits_upper
        if best_t == _INF:
            return UNBOUNDED, iters
        iters += 1
        if leave_row < 0:
            _reference_flip(T, flipped, upper, enter)
            continue
        lv = basis[leave_row]
        _reference_pivot(T, leave_row, enter, arith)
        basis[leave_row] = enter
        is_basic[enter] = 1
        is_basic[lv] = 0
        if leave_at_upper:
            _reference_flip(T, flipped, upper, lv)


def _reference_pivot(T, row, col, arith):
    import numpy as np

    T[row] /= T[row, col]
    if arith.exact:
        for i in np.flatnonzero(T[:, col]):
            if i != row:
                T[i] -= T[i, col] * T[row]
    else:
        column = T[:, col].copy()
        column[row] = 0.0
        T -= np.outer(column, T[row])
    T[:, col] = arith.zero
    T[row, col] = arith.one


def _reference_flip(T, flipped, upper, j):
    T[:, -1] -= T[:, j] * upper[j]
    T[:, j] *= -1
    flipped[j] ^= 1


# -- the LP relaxation ------------------------------------------------------------------


class ReferenceLPModel:
    """Reference for ``lp.LPModel``: the former model, with its own named
    variable index and row labels (``build_relaxation`` and ``to_lp_format``
    as they were)."""

    def __init__(self, instance):
        self.instance = instance
        self.var_keys = []
        self.var_index = {}
        self.rows = []  # (coefs, sense, rhs, label)
        self.objective = {}
        self.upper = {}

    def var(self, key) -> int:
        if key not in self.var_index:
            self.var_index[key] = len(self.var_keys)
            self.var_keys.append(key)
        return self.var_index[key]

    def add_row(self, coefs, sense, rhs, label=""):
        from netdes_cuts.core import frac

        self.rows.append(({j: frac(v) for j, v in coefs.items() if v != 0}, sense, frac(rhs), label))

    def to_lp_format(self) -> str:
        from netdes_cuts.core import format_rational

        def vname(key):
            kind, ai, other = key
            return f"{kind}_a{ai}_{'k' if kind == 'x' else 'm'}{other}"

        def expr(coefs):
            parts = []
            for j, v in sorted(coefs.items()):
                sign = "+" if v >= 0 else "-"
                parts.append(f"{sign} {format_rational(abs(F(v)))} {vname(self.var_keys[j])}")
            return " ".join(parts) if parts else "0"

        lines = ["Minimize", f" obj: {expr(self.objective)}", "Subject To"]
        for i, (coefs, sense, rhs, label) in enumerate(self.rows):
            name = label or f"c{i}"
            lines.append(f" {name}: {expr(coefs)} {sense} {format_rational(rhs)}")
        lines.append("Bounds")
        for j, u in sorted(self.upper.items()):
            lines.append(f" 0 <= {vname(self.var_keys[j])} <= {format_rational(F(u))}")
        lines.append("End")
        return "\n".join(lines)


def reference_build_relaxation(instance, cuts=()):
    """Reference for ``lp.build_relaxation``: balance and capacity rows built
    over the model's own variable index, plus any pooled cuts."""
    from netdes_cuts.simplex import EQ, GE

    model = ReferenceLPModel(instance)
    for ki, com in enumerate(instance.commodities):
        for ai in range(len(instance.arcs)):
            j = model.var(("x", ai, ki))
            model.upper[j] = com.total_supply
            model.objective[j] = model.objective.get(j, ZERO) + instance.flow_costs[ai][ki]
    for mi, fac in enumerate(instance.facilities):
        for ai in range(len(instance.arcs)):
            j = model.var(("y", ai, mi))
            model.objective[j] = model.objective.get(j, ZERO) + fac.costs[ai]

    # balance: inflow - outflow equals the node's net demand
    for ki, com in enumerate(instance.commodities):
        for node in instance.nodes:
            coefs = {}
            for ai in instance.in_arcs[node]:
                coefs[model.var(("x", ai, ki))] = F(1)
            for ai in instance.out_arcs[node]:
                coefs[model.var(("x", ai, ki))] = coefs.get(model.var(("x", ai, ki)), ZERO) - 1
            model.add_row(coefs, EQ, com.w(node), f"bal_k{ki}_n{node}")

    for ai, arc in enumerate(instance.arcs):
        coefs = {}
        for ki in range(len(instance.commodities)):
            coefs[model.var(("x", ai, ki))] = F(1)
        for mi, fac in enumerate(instance.facilities):
            coefs[model.var(("y", ai, mi))] = -fac.capacity
        model.add_row(coefs, LE, arc.existing_capacity, f"cap_a{ai}")

    for ci, cut in enumerate(cuts):
        coefs = {}
        for (ai, ki), v in cut.flow.items():
            coefs[model.var(("x", ai, ki))] = v
        for (ai, mi), v in cut.cap.items():
            coefs[model.var(("y", ai, mi))] = v
        model.add_row(coefs, GE, cut.rhs, f"cut{ci}_{cut.family}")
    return model
