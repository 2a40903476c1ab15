"""Independent brute-force oracles, the paper's checkers and reference
implementations used by the tests.

The oracles deliberately avoid the library's cut machinery: validity is
decided by enumerating feasible points, optima by scanning integer
capacities with a plain LP (or by full enumeration), and separation claims
by exhaustive subset search.  The checkers are the constructions of the
paper that no run of the library calls: facet and maximality tests, the
single rounding step, cone membership of a metric vector, and the
one-facility and multi-facility cut-set cuts for a given arc selection.
The ``reference_*`` functions are former implementations (mostly in
``Fraction``s) that the library's integer paths are compared with.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil
from pathlib import Path

from netdes_cuts.simplex import LE, solve_lp

ZERO = F(0)

# every pinned result, checked by test_golden.py and, for GOLDEN_4_NODE, the loop tests
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

# pool size and final bound of the loop (default families, 10 rounds) on
# generate_instance(seed=s, nodes=4, density=0.6, facilities=(1, 3) if s is
# odd else (1,)); a speed-up of the loop must reproduce them
GOLDEN_4_NODE = {int(seed): (pooled, F(bound)) for seed, (pooled, bound) in GOLDEN["loop_4_node"].items()}


def untimed_report(path):
    """A ``netdes-cuts run`` report read from ``path``, without its timing
    fields: each round's wall_time, lp_seconds, build_seconds and
    point_seconds and each family's seconds."""
    report = json.loads(Path(path).read_text())
    for entry in report["rounds"]:
        for key in ("wall_time", "lp_seconds", "build_seconds", "point_seconds"):
            del entry[key]
        for counts in entry["families"].values():
            del counts["seconds"]
    return report


# -- the paper's checkers and builders that only the tests call ---------------------


def integral_scale(values):
    """Positive factor that clears ``values`` to coprime integers.

    The lcm of the denominators over the gcd of the numerators it scales
    to; 1 when every value is zero.
    """
    values = list(values)
    lcm = math.lcm(*(v.denominator for v in values))
    return F(lcm, math.gcd(*(v.numerator * (lcm // v.denominator) for v in values)) or 1)


def int_form(flow):
    """``(nums, den)`` of a map of rationals: each value times ``den``, the
    lcm of their denominators, in ints (an objective of ``oracle._Routing``)."""
    den = math.lcm(*(F(v).denominator for v in flow.values()))
    return {key: int(F(v) * den) for key, v in flow.items()}, den


def installation_cost(z, c1, c2, d1, d2):
    """Least cost of covering ``z`` units with two facility sizes.

    Exact integer-programming minimum of ``d1*y1 + d2*y2`` subject to
    ``c1*y1 + c2*y2 >= z`` over nonnegative integers.  Requires ``c1 < c2``
    and economies of scale ``d1/c1 > d2/c2``.
    """
    from netdes_cuts.core import frac

    z, c1, c2, d1, d2 = frac(z), frac(c1), frac(c2), frac(d1), frac(d2)
    if z < 0:
        raise ValueError(f"negative capacity requirement {z}")
    if not (0 < c1 < c2):
        raise ValueError("facility sizes must satisfy 0 < c1 < c2")
    if d1 / c1 <= d2 / c2:
        raise ValueError("expected economies of scale d1/c1 > d2/c2")
    if z == 0:
        return ZERO
    best = None
    for y2 in range(math.ceil(z / c2) + 1):
        rest = z - c2 * y2
        y1 = max(0, math.ceil(rest / c1))
        cost = d1 * y1 + d2 * y2
        if best is None or cost < best:
            best = cost
    return best


def arc_capacity(instance, ai, y):
    """Total capacity of arc ``ai`` under installation vector ``y``."""
    cap = instance.arcs[ai].existing_capacity
    for mi, f in enumerate(instance.facilities):
        cap += f.capacity * y.get((ai, mi), ZERO)
    return cap


def lhs_value(cut, point):
    """A ``LinearCut``'s left-hand side at ``point``, from its ``Fraction`` views."""
    lhs = sum((c * point.x.get(key, ZERO) for key, c in cut.flow.items()), ZERO)
    return lhs + sum((c * point.y.get(key, ZERO) for key, c in cut.cap.items()), ZERO)


def arc_violation(ineq, xbar, ybar):
    """An ``ArcInequality``'s violation at ``(xbar, ybar)``, positive iff violated."""
    from netdes_cuts.core import frac

    lhs = sum((v * frac(xbar.get(i, 0)) for i, v in ineq.coefs.items()), ZERO)
    return lhs - ineq.const - ineq.y_coef * frac(ybar)


def normalized(ineq):
    """An ``ArcInequality`` as an integer-cleared canonical tuple, for equality checks."""
    s = integral_scale([*ineq.coefs.values(), ineq.const, ineq.y_coef])
    return (
        tuple(sorted((i, v * s) for i, v in ineq.coefs.items())),
        ineq.const * s,
        ineq.y_coef * s,
    )


def is_maximal_c_strong(rel, S):
    """Facet test: dropping keeps c_S, adding raises it by exactly one."""
    from netdes_cuts.arc_cuts import _require_normalized, c_strong_value

    _require_normalized(rel)
    S = set(S)
    c0 = c_strong_value(rel, S)
    for i in S:
        if c_strong_value(rel, S - {i}) != c0:
            return False
    for i in range(rel.n):
        if i not in S and c_strong_value(rel, S | {i}) != c0 + 1:
            return False
    return True


def k_split_facet_check(rel, S, k):
    """Sufficient facet conditions for the k-split cut (not necessary)."""
    from netdes_cuts.arc_cuts import _require_normalized

    _require_normalized(rel)
    S = set(S)
    rho = [k * v - math.floor(k * v) for v in rel.a]
    rho0 = k * rel.a0 - math.floor(k * rel.a0)

    def g(T):
        return len(T) - math.ceil(sum((rho[i] for i in T), ZERO) - rho0)

    g0 = g(S)
    for i in S:
        if g(S - {i}) != g0:
            return False
    for i in range(rel.n):
        if i not in S and g(S | {i}) != g0 + 1:
            return False
    gap = rel.a_sum(S) - rel.a0
    f_S = gap - math.floor(gap)
    if not (f_S > F(k - 1, k) and rel.a0 >= 0):
        return False
    if any(rel.a[i] <= f_S for i in S):
        return False
    if any(rel.a[i] >= 1 - f_S for i in range(rel.n) if i not in S):
        return False
    return True


@dataclass
class MixedBase:
    """``sum a_j x_j + sum c_j y_j >= b`` with continuous x >= 0 and integer
    y >= 0: the base inequality of one rounding step (``mir_cut``); with
    no continuous part, also the ``Fraction`` form of a cover-set
    inequality of the iterated-MIR reference (``reference_iterative_mir``)."""

    cont: dict = field(default_factory=dict)
    integ: dict = field(default_factory=dict)
    rhs: F = ZERO

    def __post_init__(self):
        self.cont = {j: F(v) for j, v in self.cont.items() if v != 0}
        self.integ = {j: F(v) for j, v in self.integ.items()}
        self.rhs = F(self.rhs)
        if not self.integ:
            raise ValueError("base inequality needs at least one integer variable")


def integer_normal_form(base):
    """A ``MixedBase``'s or a ``mir.hull_inequalities`` ``(coefs, rhs)``'s
    coefficients cleared to coprime integers, for comparisons."""
    if isinstance(base, tuple):
        coefs, rhs = base
        base = MixedBase({}, dict(enumerate(coefs)), rhs)
    cont = base.cont
    scale = integral_scale([*cont.values(), *base.integ.values(), base.rhs])
    return (
        tuple(sorted((j, v * scale) for j, v in cont.items())),
        tuple(sorted((j, v * scale) for j, v in base.integ.items() if v != 0)),
        base.rhs * scale,
    )


def basic_mir(b):
    """Parameters (r, ceil(b)) of ``x + r*y >= r*ceil(b)`` for x + y >= b."""
    from netdes_cuts.core import frac

    b = frac(b)
    return b - math.floor(b), math.ceil(b)


def mir_cut(base):
    """One rounding step applied to a ``MixedBase``.

    Negative continuous terms are dropped, each integer coefficient c_j
    becomes ``r*floor(c_j) + min(frac(c_j), r)`` and the right-hand side
    ``r*ceil(b)``, with ``r = frac(b)``.  When b is integral the cut
    degenerates; the base is returned unchanged so iterated application
    can simply skip such steps.
    """
    r = base.rhs - math.floor(base.rhs)
    if r == 0:
        return MixedBase(dict(base.cont), dict(base.integ), base.rhs)
    cont = {j: v for j, v in base.cont.items() if v > 0}
    integ = {}
    for j, c in base.integ.items():
        rj = c - math.floor(c)
        integ[j] = r * math.floor(c) + min(rj, r)
    return MixedBase(cont, integ, r * math.ceil(base.rhs))


def cone_violations(vector, instance):
    """Constraints ``v_ij >= u_kj - u_ki`` of a metric vector ``(v, u)``
    that fail (empty = member of the metric cone)."""
    bad = []
    for ai, arc in enumerate(instance.arcs):
        va = vector.v.get(ai, ZERO)
        for ki in range(len(instance.commodities)):
            lhs = va - vector.u.get((ki, arc.head), ZERO) + vector.u.get((ki, arc.tail), ZERO)
            if lhs < 0:
                bad.append((ai, ki, lhs))
    return bad


def integral_metric_cut(vector, instance):
    """Rounded metric inequality; requires integral generator data."""
    from netdes_cuts.core import LinearCut
    from netdes_cuts.partition_cuts import metric_cut_from_vector

    if any(va.denominator != 1 for va in vector.v.values()) or any(
        uv.denominator != 1 for uv in vector.u.values()
    ):
        raise ValueError("integral rounding needs integral (v, u)")
    if not instance.integral_capacities():
        raise ValueError("integral rounding needs integer facility sizes")
    cut = metric_cut_from_vector(vector, instance)
    return LinearCut({}, cut.cap, ceil(cut.rhs), "metric-integral", cut.params)


@dataclass(frozen=True)
class FlowCutSelection:
    """Arc/commodity subsets entering a flow-cut-set inequality."""

    Q: tuple[int, ...]
    S_plus: tuple[int, ...]
    S_minus: tuple[int, ...]
    facility: int = 0


def _zero_point_cut(rel, sel, family):
    from netdes_cuts.core import FractionalPoint
    from netdes_cuts.cutset_cuts import ScaledPoint, _cut

    scaled = ScaledPoint(rel.instance, FractionalPoint())
    view = scaled.view(rel)
    Q, S_plus, S_minus = tuple(sel.Q), tuple(sel.S_plus), tuple(sel.S_minus)
    cbar_minus, c_s = view.cbar_sum(S_minus), view.caps[sel.facility]
    b_prime = sum(view.b[k] for k in Q) - view.cbar_sum(S_plus) + cbar_minus
    r, eta = b_prime % c_s, -(-b_prime // c_s)
    if r == 0:
        raise ValueError("degenerate remainder; cut is vacuous")
    return _cut(rel, scaled, Q, (S_plus, S_minus, None, r, eta, cbar_minus), sel.facility, family)


def flow_cutset_cut(rel, sel):
    """Mixed rounding cut over capacity on (S+, S-) and flow elsewhere, on
    the base facility ``sel.facility`` alone (see ``cutset_cuts._cut``)."""
    return _zero_point_cut(rel, sel, "flowcutset")


def multifacility_cutset_cut(rel, sel):
    """Flow-cut-set cut with subadditive coefficients for every facility,
    rounded on the base facility ``sel.facility`` (see ``cutset_cuts._cut``)."""
    return _zero_point_cut(rel, sel, "mf")


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
            v = arc_violation(cut, xbar, ybar)
            if v > best:
                best, best_S = v, S
    return best, best_S


def reference_residual_capacity(rel, xbar, ybar):
    """Fraction reference for ``arc_cuts.separate_residual_capacity`` (the
    library's former implementation): the set T of loads above the
    fractional part of ``ybar``, the test ``a_0 + floor(ybar) < a(T) <
    a_0 + ceil(ybar)`` and the slack sign, in ``Fraction``s."""
    from netdes_cuts.arc_cuts import residual_capacity_cut

    xbar = {i: F(v) for i, v in (xbar.items() if isinstance(xbar, dict) else enumerate(xbar))}
    ybar = F(ybar)
    fy = ybar - math.floor(ybar)
    T = [i for i in range(rel.n) if xbar.get(i, ZERO) > fy]
    if not T:
        return None
    lo, hi = rel.a0 + math.floor(ybar), rel.a0 + math.ceil(ybar)
    if not lo < rel.a_sum(T) < hi:
        return None
    gap = math.ceil(ybar) - ybar
    slack = sum((rel.a[i] * (1 - xbar.get(i, ZERO) - gap) for i in T), ZERO) + gap * lo
    return residual_capacity_cut(rel, T) if slack < 0 else None


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


def flow_cutset_best_violation(rel, point, Q):
    """Exhaustive most-violated flow-cut-set inequality over arc subsets."""
    best, best_sel = ZERO, None
    for sp_size in range(len(rel.A_plus) + 1):
        for S_plus in combinations(rel.A_plus, sp_size):
            for sm_size in range(len(rel.A_minus) + 1):
                for S_minus in combinations(rel.A_minus, sm_size):
                    sel = FlowCutSelection(tuple(Q), S_plus, S_minus)
                    try:
                        cut = flow_cutset_cut(rel, sel)
                    except ValueError:
                        continue
                    v = cut.violation(point)
                    if v > best:
                        best, best_sel = v, sel
    return best, best_sel


def multifacility_best_violation(rel, point, s, Q):
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


def relaxation_b(rel):
    """The cut-set relaxation's per-commodity crossing demands in
    Fractions: ``b_num`` over the instance's scale."""
    return tuple(F(n, rel.instance.scale) for n in rel.b_num)


def _cbar(rel, arcs):
    return sum((rel.instance.arcs[a].existing_capacity for a in arcs), ZERO)


def _rounding_data(rel, Q, S_plus, S_minus, c):
    """Remainder r and eta of rounding ``b'_Q / c``."""
    b_prime = sum((relaxation_b(rel)[k] for k in Q), ZERO) - _cbar(rel, S_plus) + _cbar(rel, S_minus)
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
        rhs=r * eta - _cbar(rel, sel.S_minus),
        family=family,
        params={"U": rel.U, "Q": tuple(sel.Q), "S+": tuple(sel.S_plus), "S-": tuple(sel.S_minus), "r": r, "eta": eta},
    )


def reference_flow_cutset_cut(rel, sel, capacity=None):
    """Fraction reference for ``flow_cutset_cut``."""
    c = F(capacity) if capacity is not None else rel.instance.facilities[sel.facility].capacity
    return _phi_cut(rel, sel, {sel.facility: c}, "flowcutset")


def reference_multifacility_cutset_cut(rel, sel):
    """Fraction reference for ``multifacility_cutset_cut``."""
    cut = _phi_cut(rel, sel, dict(enumerate(rel.instance.facility_capacities())), "mf")
    cut.params["s"] = sel.facility
    cut.params["facet_report"] = {
        "s_plus_proper": bool(sel.S_plus) and set(sel.S_plus) != set(rel.A_plus),
        "s_minus_proper": bool(sel.S_minus) and set(sel.S_minus) != set(rel.A_minus),
        "remainder_positive": cut.params["r"] > 0,
        "all_demands_positive": all(rel.b_num[k] > 0 for k in sel.Q),
    }
    return cut


def _point_flow(point, a, Q):
    return sum((point.x.get((a, k), ZERO) for k in Q), ZERO)


def _greedy_fraction(rel, Q, point, s, facilities, prefer_plus, build, max_rounds, passes=None):
    """The greedy cut-set scan on Fractions, building and scoring every
    selection as a Fraction cut (the library's former implementation).
    Each pass's ``(S+, S-)`` is appended to the list ``passes`` when given."""
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
        if passes is not None:
            passes.append((new_plus, new_minus))
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


def reference_flow_cutset(rel, Q, point, facility=0, max_rounds=5, passes=None):
    """Fraction reference for ``cutset_cuts.separate_flow_cutset``."""
    return _greedy_fraction(
        rel, tuple(Q), point, facility, (facility,), lambda cap, flow: cap < flow,
        reference_flow_cutset_cut, max_rounds, passes,
    )


def reference_multifacility(rel, s, point, Q=None, max_rounds=5, passes=None):
    """Fraction reference for ``cutset_cuts.separate_multifacility``."""
    Q = tuple(Q) if Q is not None else tuple(range(len(rel.b_num)))
    return _greedy_fraction(
        rel, Q, point, s, range(len(rel.instance.facilities)),
        lambda cap, flow: cap < flow or (cap == 0 and flow == 0),
        reference_multifacility_cutset_cut, max_rounds, passes,
    )


def in_cutset_mixed_integer_set(rel, point):
    """Does ``point`` lie in the mixed-integer set of the cut-set relaxation
    ``rel``: every crossing ``y`` a non-negative integer, every crossing
    ``x`` non-negative, each crossing arc's flow within its capacity and
    each commodity's net crossing flow at least ``b_k``, in Fractions."""
    caps = rel.instance.facility_capacities()
    commodities = range(len(rel.b_num))
    for a in rel.A_plus + rel.A_minus:
        ys = [point.y.get((a, m), ZERO) for m in range(len(caps))]
        xs = [point.x.get((a, k), ZERO) for k in commodities]
        if any(v < 0 or v.denominator != 1 for v in ys) or any(v < 0 for v in xs):
            return False
        if sum(xs, ZERO) > rel.instance.arcs[a].existing_capacity + sum(c * v for c, v in zip(caps, ys)):
            return False
    return all(
        sum((_point_flow(point, a, (k,)) for a in rel.A_plus), ZERO)
        - sum((_point_flow(point, a, (k,)) for a in rel.A_minus), ZERO) >= relaxation_b(rel)[k]
        for k in commodities
    )


def reference_commodity_subset(rel, S_plus, S_minus, point):
    """Fraction reference for ``cutset_cuts.separate_commodity_subset``: an
    exhaustive scan that builds and scores a cut per nonempty subset, by
    size and then in lexicographic order, and keeps the first of the most
    violated, rounded on facility 0."""
    c = rel.instance.facilities[0].capacity
    S_plus, S_minus = tuple(S_plus), tuple(S_minus)
    ks = range(len(rel.b_num))
    best, best_v = None, ZERO
    for size in range(1, len(rel.b_num) + 1):
        for Q in combinations(ks, size):
            r, _ = _rounding_data(rel, Q, S_plus, S_minus, c)
            if r == 0:
                continue
            v = reference_flow_cutset_cut(rel, FlowCutSelection(Q, S_plus, S_minus)).violation(point)
            if v > best_v:
                best, best_v = Q, v
    return best


def distinct_cuts(cuts):
    """The cuts, each ``normalized_key()`` once at its first occurrence."""
    first = {}
    for cut in cuts:
        if cut is not None:
            first.setdefault(cut.normalized_key(), cut)
    return list(first.values())


# -- the loop's separation -----------------------------------------------------------


def reference_separate_all(instance, point, config):
    """Reference for ``engine.separate_all``'s candidates, ``(family, cut,
    violation)``: the former if-chain, which rebuilds every candidate each
    round (same families, same order) and evaluates each violation from the
    cut's coefficients.  ``metric`` never runs in the loop, so it has no
    branch here."""
    from netdes_cuts import cutset_cuts, engine, partition_cuts
    from netdes_cuts.core import LinearCut

    found = []
    single_facility = len(instance.facilities) == 1

    def admit(cut, family):
        if cut is None:
            return
        violation = cut.rhs - lhs_value(cut, point)
        if violation > config.eps:
            found.append((family, cut, violation))

    if "rc" in config.families and single_facility:
        for ai in range(len(instance.arcs)):
            admit(reference_rc_arc(instance, ai, point), "rc")
    if "cstrong" in config.families and single_facility and instance.unsplittable:
        for ai in range(len(instance.arcs)):
            for cut in _reference_unsplittable_arc(instance, ai, point):
                admit(cut, "cstrong")

    partitions = list(engine._two_partitions(instance))
    relaxations = [cutset_cuts.build_cutset(instance, U, V) for U, V in partitions]

    if "cutset" in config.families and single_facility:
        for rel in relaxations:
            admit(cutset_cuts.cutset_cut(rel), "cutset")
    flowcutset = "flowcutset" in config.families and single_facility
    mf = "mf" in config.families and not single_facility
    if flowcutset or mf:
        scaled = cutset_cuts.ScaledPoint(instance, point)
        subsets = [list(engine._commodity_subsets(rel, scaled)) for rel in relaxations]
    if flowcutset:
        for rel, rel_subsets in zip(relaxations, subsets):
            for Q in rel_subsets:
                admit(cutset_cuts.separate_flow_cutset(rel, Q, scaled), "flowcutset")
    if mf:
        for rel, rel_subsets in zip(relaxations, subsets):
            for s in range(len(instance.facilities)):
                for Q in rel_subsets:
                    admit(cutset_cuts.separate_multifacility(rel, s, scaled, Q=Q), "mf")
    if "partition" in config.families and instance.integral_capacities():
        for U, V in partitions:
            shrunk = partition_cuts.shrink(instance, partition_cuts.NodePartition.of(U, V))
            cover = reference_knapsack_cover_from_two_partition(shrunk)
            if cover is None:
                continue
            crossing = shrunk.groups.get((0, 1), ())
            for ineq in engine.hull_inequalities(cover):
                blocks = {"blocks": shrunk.partition.blocks}
                admit(partition_cuts.expand_knapsack_cut(ineq, crossing, blocks), "partition")
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
            winner = select_total_capacity_cut(candidates)
            admit(winner, "partition")
            fed = knapsack_from_total_capacity(winner, instance)
            if fed is not None:
                cover, support = fed
                for coefs, rhs in engine.hull_inequalities(cover):
                    cap = {}
                    for mi, coef in enumerate(coefs):
                        for ai in support.get(mi, ()):
                            cap[(ai, mi)] = coef
                    if cap:
                        admit(LinearCut({}, cap, rhs, "partition", {"from": "total-capacity"}), "partition")
    return found


def select_total_capacity_cut(candidates):
    """Keep the strongest of same-left-hand-side total-capacity cuts."""
    if not candidates:
        raise ValueError("no candidates")
    first = candidates[0]
    for cut in candidates[1:]:
        if cut.cap != first.cap or cut.flow != first.flow:
            raise ValueError("total-capacity candidates must share their left-hand side")
    return max(candidates, key=lambda cut: cut.rhs)


def knapsack_from_total_capacity(cut, instance):
    """Cover set over per-facility totals implied by a total-capacity cut.

    Feeds iterated MIR; returns the cover set plus the arc support of each
    facility variable so resulting inequalities can be expanded back.
    """
    from netdes_cuts.mir import KnapsackCoverSet

    support = {}
    for (ai, mi), coef in cut.cap.items():
        if coef != instance.facilities[mi].capacity:
            return None
        support.setdefault(mi, []).append(ai)
    if len(support) != len(instance.facilities) or cut.rhs <= 0:
        return None
    return (
        KnapsackCoverSet(
            capacities=tuple(int(f.capacity) for f in instance.facilities),
            rhs=cut.rhs,
        ),
        {mi: tuple(ais) for mi, ais in support.items()},
    )


def reference_shrink(instance, partition):
    """The former eager ``partition_cuts.shrink``: the p-node ``Instance``
    built at once, crossing groups keyed by its arc index, and ``groups``
    keyed by block pair in the same order, read back from that instance."""
    from types import SimpleNamespace

    from netdes_cuts.core import Arc, DemandMatrix, Facility, Instance

    partition.validate(instance.nodes)
    block_of = {}
    for bi, block in enumerate(partition.blocks):
        for node in block:
            block_of[node] = bi
    cap, groups, cost_sum = {}, {}, {}
    n_fac = len(instance.facilities)
    for ai, arc in enumerate(instance.arcs):
        bi, bj = block_of[arc.tail], block_of[arc.head]
        if bi == bj:
            continue
        cap[(bi, bj)] = cap.get((bi, bj), ZERO) + arc.existing_capacity
        groups.setdefault((bi, bj), []).append(ai)
        costs = cost_sum.setdefault((bi, bj), [ZERO] * n_fac)
        for mi, f in enumerate(instance.facilities):
            costs[mi] += f.costs[ai]
    demand = DemandMatrix()
    for i, j, amount in instance.demand.pairs():
        bi, bj = block_of[i], block_of[j]
        if bi != bj:
            demand.set(bi, bj, demand.t(bi, bj) + amount)
    arcs = [Arc(i, j, cap[(i, j)]) for (i, j) in sorted(groups)]
    facilities = [
        Facility(f.capacity, tuple(cost_sum[a.pair][mi] for a in arcs))
        for mi, f in enumerate(instance.facilities)
    ]
    small = Instance(
        nodes=list(range(partition.p)),
        arcs=arcs,
        facilities=facilities,
        demand=demand,
        flow_costs=ZERO,
        mode="aggregated",
        name=f"{instance.name}/shrunk{partition.p}",
    )
    arc_groups = {small.arc_index[pair]: tuple(idxs) for pair, idxs in groups.items()}
    return SimpleNamespace(
        base=instance,
        partition=partition,
        instance=small,
        block_of=block_of,
        arc_groups=arc_groups,
        groups={small.arcs[s_arc].pair: group for s_arc, group in arc_groups.items()},
    )


def reference_knapsack_cover_from_two_partition(shrunk):
    """The former cover builder, reading the shrunk ``Instance``."""
    from netdes_cuts.mir import KnapsackCoverSet

    small = shrunk.instance
    b = small.demand.t(0, 1) - (
        small.arcs[small.arc_index[(0, 1)]].existing_capacity
        if (0, 1) in small.arc_index
        else ZERO
    )
    if b <= 0:
        return None
    return KnapsackCoverSet(
        capacities=tuple(int(f.capacity) for f in small.facilities),
        rhs=b,
    )


def reference_three_partition_data(shrunk):
    """The former ``three_partition_data``, reading the shrunk ``Instance``:
    per block its outgoing (``s``) and incoming (``t``) traffic minus
    capacity, and the six directed metric right-hand sides ``d``."""
    from types import SimpleNamespace

    small = shrunk.instance

    def tt(i, j):
        return small.demand.t(i, j)

    def cc(i, j):
        if (i, j) in small.arc_index:
            return small.arcs[small.arc_index[(i, j)]].existing_capacity
        return ZERO

    s = tuple(sum((tt(i, j) - cc(i, j) for j in range(3) if j != i), ZERO) for i in range(3))
    t = tuple(sum((tt(j, i) - cc(j, i) for j in range(3) if j != i), ZERO) for i in range(3))
    d = {}
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        h = 3 - i - j
        d[(i, j)] = (tt(i, j) + tt(i, h) + tt(j, h)) - (cc(i, j) + cc(i, h) + cc(j, h))
    return SimpleNamespace(s=s, t=t, d=d)


def _reference_total_capacity_lhs(shrunk):
    cap = {}
    for group in shrunk.groups.values():
        for mi, f in enumerate(shrunk.base.facilities):
            for ai in group:
                cap[(ai, mi)] = f.capacity
    return cap


def _reference_three_partition_cut(partition, shrunk, data):
    """The former cut-set-sum total-capacity cut, from ``Fraction`` data."""
    from math import ceil

    from netdes_cuts.core import LinearCut

    total = sum(ceil(v) for v in data.s) + sum(ceil(v) for v in data.t)
    cap = _reference_total_capacity_lhs(shrunk)
    if not cap:
        return None
    params = {"blocks": partition.blocks, "s": data.s, "t": data.t, "sum": total, "rounded": total % 2 == 1}
    return LinearCut({}, cap, F(ceil(F(total, 2))), "threepartition", params)


def _reference_three_partition_metric_cut(partition, shrunk, data):
    """The former paired-metric total-capacity cut, from ``Fraction`` data."""
    from math import ceil

    from netdes_cuts.core import LinearCut

    pair_sums = []
    for (i, j), (k, l) in (((0, 1), (2, 1)), ((1, 0), (2, 0)), ((0, 2), (1, 2))):
        pair_sums.append(ceil(data.d[(i, j)]) + ceil(data.d[(k, l)]))
    pair_sums.sort(reverse=True)
    rhs = F(ceil(F(pair_sums[0] + pair_sums[1], 2)))
    cap = _reference_total_capacity_lhs(shrunk)
    if not cap:
        return None
    params = {"blocks": partition.blocks, "pair_sums": tuple(pair_sums), "d": dict(data.d)}
    return LinearCut({}, cap, max(rhs, ZERO), "threepartition-metric", params)


def reference_iterative_mir(cover, subsequence):
    """The former ``Fraction`` iterated MIR: each round scales the
    inequality by the reciprocal of the next capacity, applies
    ``mir_cut`` and clears the result to coprime integers with
    ``integer_normal_form``, a ``MixedBase`` without continuous part."""
    ineq = MixedBase({}, dict(enumerate(cover.capacities)), cover.rhs)
    for i in subsequence:
        factor = F(1, cover.capacities[i])
        scaled = MixedBase({}, {j: v * factor for j, v in ineq.integ.items()}, ineq.rhs * factor)
        _, integ, rhs = integer_normal_form(mir_cut(scaled))
        ineq = MixedBase({}, dict(integ), rhs)
    return ineq


def reference_hull_inequalities(cover):
    """The former ``Fraction`` ``hull_inequalities``: ``reference_iterative_mir``
    for every subsequence, the first of each ``integer_normal_form``, in
    the form ``hull_inequalities`` gives: the ints ``(coefs, rhs)``, coefs
    indexed like ``cover.capacities``."""
    from netdes_cuts.mir import all_subsequences

    def integer(v):
        if v.denominator != 1:
            raise ValueError(f"reference hull coefficient {v} is not an integer")
        return v.numerator

    n = len(cover.capacities)
    seen = {}
    for sub in all_subsequences(n):
        ineq = reference_iterative_mir(cover, sub)
        seen.setdefault(integer_normal_form(ineq), ineq)
    return [(tuple(integer(ineq.integ.get(m, ZERO)) for m in range(n)), integer(ineq.rhs)) for ineq in seen.values()]


def reference_partition_candidates(instance):
    """The built-once ``partition`` candidates as the loop made them before
    the shrink was lazy, the hulls shared and the sums integer: an eager
    shrink per partition, the covers and three-partition data read from
    its ``Instance``, both total-capacity cuts built, and one
    ``Fraction`` hull (``reference_hull_inequalities``) per cover."""
    from netdes_cuts import engine, partition_cuts
    from netdes_cuts.core import LinearCut

    hull_inequalities = reference_hull_inequalities

    for U, V in engine._two_partitions(instance):
        shrunk = reference_shrink(instance, partition_cuts.NodePartition.of(U, V))
        cover = reference_knapsack_cover_from_two_partition(shrunk)
        if cover is not None:
            crossing = shrunk.groups.get((0, 1), ())
            for ineq in hull_inequalities(cover):
                yield partition_cuts.expand_knapsack_cut(ineq, crossing, {"blocks": shrunk.partition.blocks})
    for part in engine._three_partitions(instance):
        shrunk = reference_shrink(instance, part)
        data = reference_three_partition_data(shrunk)
        candidates = [
            cut
            for cut in (
                _reference_three_partition_cut(part, shrunk, data),
                _reference_three_partition_metric_cut(part, shrunk, data),
            )
            if cut is not None
        ]
        if not candidates:
            continue
        winner = select_total_capacity_cut(candidates)
        yield winner
        fed = knapsack_from_total_capacity(winner, instance)
        if fed is not None:
            cover, support = fed
            for coefs, rhs in hull_inequalities(cover):
                cap = {(ai, mi): coef for mi, coef in enumerate(coefs) for ai in support.get(mi, ())}
                if cap:
                    yield LinearCut({}, cap, rhs, "partition", {"from": "total-capacity"})


def reference_cutset_candidates(instance):
    """The built-once ``cutset`` candidates from ``Fraction`` data of an
    eager shrink per two-partition: ``y(A+) >= ceil((T(U->V) - T(V->U) -
    cbar(A+)) / c)``, the net demand that must cross, on the one
    facility, for each two-partition with an arc U -> V and a positive
    rhs."""
    from math import ceil

    from netdes_cuts import engine, partition_cuts
    from netdes_cuts.core import LinearCut

    size = instance.facilities[0].capacity
    for U, V in engine._two_partitions(instance):
        shrunk = reference_shrink(instance, partition_cuts.NodePartition.of(U, V))
        small, crossing = shrunk.instance, shrunk.groups.get((0, 1), ())
        cbar = small.arcs[small.arc_index[(0, 1)]].existing_capacity if crossing else ZERO
        rhs = ceil((small.demand.t(0, 1) - small.demand.t(1, 0) - cbar) / size)
        if rhs > 0 and crossing:
            yield LinearCut({}, {(ai, 0): 1 for ai in crossing}, rhs, "cutset", {"U": U, "rhs": rhs})


def reference_rc_arc(instance, ai, point):
    from netdes_cuts import arc_cuts, engine

    rel = arc_cuts.from_capacity_row(instance, ai, mode=arc_cuts.SPLITTABLE)
    xhat = engine._fractional_loads(rel, ai, point)
    ybar = max(point.y.get((ai, 0), ZERO), ZERO)
    ineq = reference_residual_capacity(rel, xhat, ybar)
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
    from netdes_cuts.lp import RoutingLP

    routing = RoutingLP(instance)
    return solve_lp(routing.n_vars, routing.rows(capacities), {}, exact=True).status == "optimal"


def criterion_10_sample():
    """Criterion 10's 50 ``(instance, capacities)`` pairs, starved and ample."""
    import random

    from netdes_cuts.core import generate_instance

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


def reference_best_unsplittable(instance, routings, capacities, objective):
    """Cheapest joint unsplittable routing under the given ``Fraction``
    capacities, over ``routings`` (each commodity's flows as arc sets), as
    ``(value, x)`` or ``None``; with an empty ``objective`` every cost is
    zero, and this is the first joint routing that fits.  The reference
    for ``oracle._Routing``'s search on scaled ints."""
    demands = [com.total_supply for com in instance.commodities]
    if not objective:
        arc_cost = [[ZERO] * len(flows) for flows in routings]
    else:
        arc_cost = [
            [sum((objective.get((ai, ki), ZERO) * demands[ki] for ai in flow), ZERO) for flow in flows]
            for ki, flows in enumerate(routings)
        ]
    # prune at commodity ki only when no remaining cost can be negative
    prunable = [True] * (len(routings) + 1)
    for ki in reversed(range(len(routings))):
        prunable[ki] = prunable[ki + 1] and all(c >= 0 for c in arc_cost[ki])
    best = None

    def assign(ki, loads, cost, chosen):
        nonlocal best
        if best is not None and cost >= best[0] and prunable[ki]:
            return
        if ki == len(routings):
            if best is None or cost < best[0]:
                x = {}
                for kj, flow in enumerate(chosen):
                    for ai in flow:
                        x[(ai, kj)] = demands[kj]
                best = (cost, x)
            return
        for fi, flow in enumerate(routings[ki]):
            new_loads = dict(loads)
            ok = True
            for ai in flow:
                new_loads[ai] = new_loads.get(ai, ZERO) + demands[ki]
                if new_loads[ai] > capacities[ai]:
                    ok = False
                    break
            if ok:
                assign(ki + 1, new_loads, cost + arc_cost[ki][fi], chosen + [flow])

    assign(0, {}, ZERO, [])
    return best


def reference_validate_cuts(cuts, instance, ybound):
    """``oracle.validate_cuts`` as it was before certificates were kept: one
    float routing LP for the open cuts at every grid point, each answer
    certified afresh (the Farkas vector's metric inequality, then each
    cut's safe dual bound, then exact pricing), and routability decided
    anew at every maximal pure-capacity pattern."""
    from netdes_cuts.oracle import _unsplittable_routings, default_y_bounds
    from netdes_cuts.core import FractionalPoint
    from netdes_cuts.lp import RoutingLP, check_feasible_routing, proves_unroutable, safe_lower_bound
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
                    feasible = reference_best_unsplittable(instance, routings, caps, {}) is not None
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
    routing = RoutingLP(instance)
    objectives = {idx: routing.columns(cuts[idx].flow) for idx in grid_idx}
    open_idx = set(grid_idx)
    for values in product(*(range(y_bounds[k] + 1) for k in keys)):
        if not open_idx:
            break
        y = dict(zip(keys, (F(v) for v in values)))
        caps = [arc_capacity(instance, ai, y) for ai in range(len(instance.arcs))]
        order = sorted(open_idx)
        if routings is not None:
            if reference_best_unsplittable(instance, routings, caps, {}) is None:
                continue
            for idx in order:
                lhs_min, x = reference_best_unsplittable(instance, priced, caps, cuts[idx].flow)
                if ypart(cuts[idx], y) + lhs_min < cuts[idx].rhs:
                    verdicts[idx] = (False, FractionalPoint(x=dict(x), y=dict(y)))
                    open_idx.discard(idx)
            continue
        rows = routing.rows(caps)
        results = solve_lp_many(routing.n_vars, rows, [objectives[idx] for idx in order], routing.upper)
        farkas = results[0].farkas
        if results[0].status == "infeasible" and proves_unroutable(instance, caps, routing.capacity_part(farkas)):
            continue
        for idx, res in zip(order, results):
            cut, bound = cuts[idx], None
            if res.status == "optimal":
                bound = safe_lower_bound(rows, objectives[idx], routing.upper, res.duals)
                if bound is not None and ypart(cut, y) + bound >= cut.rhs:
                    continue
            value, x = routing.minimum(rows, objectives[idx], res, bound)
            if value is not None and ypart(cut, y) + value < cut.rhs:
                verdicts[idx] = (False, FractionalPoint(x=x, y=dict(y)))
                open_idx.discard(idx)
    return verdicts


def reference_grid(instance, y_bounds):
    """``oracle._grid``'s points as it formed them before its walk updated
    one list in place: ``(keys, [(t, scaled_caps), ...])`` in
    ``itertools.product`` order, each point's capacities summed afresh from
    the instance's ints."""
    keys = sorted(y_bounds)
    terms = [[] for _ in instance.arcs]
    for i, (ai, mi) in enumerate(keys):
        terms[ai].append((i, instance.sizes_num[mi]))
    points = product(*(range(y_bounds[k] + 1) for k in keys))
    return keys, [(t, [b + sum(c * t[i] for i, c in arc) for b, arc in zip(instance.cbar_num, terms)]) for t in points]


# -- the simplex kernel --------------------------------------------------------------


def _marker(layout, i):
    """Column whose reduced cost encodes row ``i``'s dual in ``layout`` (a
    ``simplex._Layout``), and whether it is an artificial."""
    if layout.art_col[i] >= 0:
        return layout.art_col[i], True
    return layout.slack_col[i], False


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
    for i, (coefs, sense, rhs, negated) in enumerate(layout.rows):
        if negated:
            coefs, rhs = {j: -v for j, v in coefs.items()}, -rhs
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
            col, is_art = _marker(layout, i)
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
        col, _ = _marker(layout, i)
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


def reference_tableau_row(coefs, rhs, negated, arith):
    """Reference for ``simplex._tableau_rows``: the former conversion of one
    row, ``(vals, rhs, scale)``, ``vals`` in the order of ``coefs``; a
    negated row is negated after conversion, as ``zero - v``, and a float
    row is equilibrated to unit max coefficient."""
    vals, rhs = [arith.num(v) for v in coefs.values()], arith.num(rhs)
    if negated:
        vals, rhs = [arith.zero - v for v in vals], arith.zero - rhs
    if arith.exact:
        return vals, rhs, arith.one
    biggest = max(map(abs, vals), default=0.0)
    scale = 1.0 / biggest if biggest > 0 else 1.0
    return [v * scale for v in vals], rhs * scale, scale


def reference_resolve(start, rows, max_iter=None):
    """Reference for ``simplex._resolve``: the former warm start, which
    appends the new rows one at a time and reads values and duals one
    numpy element at a time.  Pivots are the library's (``_dual_loop`` and
    ``_pivot_loop``); the result keeps its tableau as the library's does."""
    import numpy as np

    from netdes_cuts.simplex import (
        _FLOAT, _INF, EQ, ITER_LIMIT, OPTIMAL, UNBOUNDED, LPResult, _default_max_iter, _dual_loop,
        _pivot_loop, _State,
    )

    old_state, old = start.tableau
    layout = old.appended(rows[len(old.rows) :])
    m0, m, N0, N = len(old.rows), len(layout.rows), old.ncols, layout.ncols
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    T = np.zeros((m + 1, N + 1))
    T[np.ix_([*range(m0), m], [*range(N0), N])] = old_state.T
    slack_upper = np.array([0.0 if sense == EQ else _INF for _, sense, _, _ in layout.rows[m0:]])
    upper = np.concatenate([old_state.upper, slack_upper])
    flipped = np.concatenate([old_state.flipped, np.zeros(m - m0, dtype=np.uint8)])
    row_scale = np.concatenate([old_state.row_scale, np.ones(m - m0)])
    for i in range(m0, m):
        coefs, _, rhs, negated = layout.rows[i]
        vals, T[i, N], row_scale[i] = reference_tableau_row(coefs, rhs, negated, _FLOAT)
        cols, vals = np.fromiter(coefs, np.int64, len(coefs)), np.array(vals)
        comp = flipped[cols] != 0
        T[i, N] -= vals[comp] @ upper[cols[comp]]
        vals[comp] = -vals[comp]
        T[i, cols] = vals
    new = T[m0:m]
    new -= new[:, old_state.basis] @ T[:m0]
    new[:, old_state.basis] = 0.0
    new[np.arange(m - m0), np.arange(N0, N)] = 1.0
    state = _State(
        T,
        np.concatenate([old_state.basis, np.arange(N0, N)]),
        np.concatenate([old_state.is_basic, np.ones(m - m0, dtype=np.uint8)]),
        flipped,
        upper,
        np.concatenate([old_state.allow, (slack_upper > _FLOAT.tol).astype(np.uint8)]),
        row_scale,
        0,
    )
    basis = state.basis
    status, state.iterations = _dual_loop(T, basis, state.is_basic, flipped, upper, state.allow, _FLOAT, max_iter)
    if status != OPTIMAL:
        return LPResult("stalled", [], None, iterations=state.iterations)
    status, it2 = _pivot_loop(T, basis, state.is_basic, flipped, upper, state.allow, _FLOAT, max_iter)
    iters = state.iterations + it2
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=iters)
    if status == UNBOUNDED:
        return LPResult("unbounded", [], None, iterations=iters)
    values = np.zeros(N)
    for i in range(m):
        values[basis[i]] = T[i, N]
    for j in range(N):
        if flipped[j]:
            values[j] = upper[j] - values[j]
    duals = []
    for i in range(m):
        col, _ = _marker(layout, i)
        pi = -T[m, col] * row_scale[i]
        duals.append(-pi if layout.rows[i][3] != bool(flipped[col]) else pi)
    res = LPResult("optimal", list(values[: layout.n_vars]), -T[m, N], duals=duals, iterations=iters)
    res.tableau = (state, layout)
    return res


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


def reference_point(sol, max_denominator=10**6):
    """Reference for ``lp.LPSolution.point``: the former snapshot, which
    rationalizes every column, zeros included."""
    from netdes_cuts.core import FractionalPoint, rationalize
    from netdes_cuts.lp import column_keys

    x, y = {}, {}
    error = 0.0
    for (kind, ai, other), val in zip(column_keys(sol.instance), sol.x):
        v = rationalize(val, max_denominator)
        error = max(error, abs(float(val) - float(v)))
        if v == 0:
            continue
        if kind == "x":
            x[(ai, other)] = v
        else:
            y[(ai, other)] = v
    return FractionalPoint(x=x, y=y, rationalization_error=error)


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
