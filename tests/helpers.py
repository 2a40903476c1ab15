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


def _rounding(rel, Q, S_plus, S_minus, c):
    b_prime = rel.b_sum(Q) - rel.cbar(S_plus) + rel.cbar(S_minus)
    return b_prime - (b_prime // c) * c, -(-b_prime // c)


def _point_flow(point, a, Q):
    return sum((point.x.get((a, k), ZERO) for k in Q), ZERO)


def _greedy_fraction(rel, Q, point, s, facilities, prefer_plus, build, max_rounds):
    """The greedy cut-set scan on Fractions, building and scoring every
    selection as a cut (the library's former implementation)."""
    from netdes_cuts.cutset_cuts import FlowCutSelection
    from netdes_cuts.mir import PhiParams, phi_minus, phi_plus

    if not rel.A_plus:
        return None
    caps = rel.instance.facility_capacities()
    s_plus, s_minus = tuple(rel.A_plus), ()
    best, best_viol = None, ZERO
    seen = set()
    for _ in range(max_rounds):
        r, eta = _rounding(rel, Q, s_plus, s_minus, caps[s])
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
        r2, _ = _rounding(rel, Q, new_plus, new_minus, caps[s])
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
    from netdes_cuts.cutset_cuts import flow_cutset_cut

    return _greedy_fraction(
        rel, tuple(Q), point, facility, (facility,), lambda cap, flow: cap < flow,
        flow_cutset_cut, max_rounds,
    )


def reference_multifacility(rel, s, point, Q=None, max_rounds=5):
    """Fraction reference for ``cutset_cuts.separate_multifacility``."""
    from netdes_cuts.cutset_cuts import multifacility_cutset_cut

    Q = tuple(Q) if Q is not None else tuple(range(len(rel.b)))
    return _greedy_fraction(
        rel, Q, point, s, range(len(rel.instance.facilities)),
        lambda cap, flow: cap < flow or (cap == 0 and flow == 0),
        multifacility_cutset_cut, max_rounds,
    )


# -- the loop's separation -----------------------------------------------------------


def reference_separate_all(instance, point, config):
    """Reference for ``engine.separate_all``: the former if-chain, which
    rebuilds every candidate each round (same families, same order)."""
    from netdes_cuts import cutset_cuts, engine, partition_cuts
    from netdes_cuts.core import LinearCut

    found = []
    single_facility = len(instance.facilities) == 1

    def admit(cut):
        if cut is None:
            return
        violation = cut.violation(point)
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
    if "metric" in config.families:
        caps = [instance.arc_capacity(ai, point.y) for ai in range(len(instance.arcs))]
        res = partition_cuts.separate_metric(instance, caps, witness=point)
        if res is not None:
            admit(res[1])
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


def random_rational(rng, lo=0, hi=2, denoms=(1, 2, 3, 4, 6)):
    d = rng.choice(denoms)
    return F(rng.randint(int(lo * d), int(hi * d)), d)
