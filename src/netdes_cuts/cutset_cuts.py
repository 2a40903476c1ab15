"""Cut-set, flow-cut-set and multi-facility cut-set inequalities.

All families live on a two-partition (U, V) of the nodes: crossing arcs
carry capacity variables, per-commodity net demands in V give the amount
that must cross, and rounding the aggregated crossing constraint produces
the cuts.  Existing capacities enter through the shifted right-hand side
``b'_Q = b_Q - cbar(S+) + cbar(S-)``, which makes the remainder used for
rounding depend on the chosen arc subsets; separation re-evaluates it in
a short fixed-point loop (a single pass is exact when crossing arcs have
no existing capacity), one pass over the crossing arcs per distinct
selection.

Separation scores on integers.  A ``ScaledPoint``, made once per LP
point and the only form of it that a separation family reads, raises the
instance's int table (``Instance.sizes_num``, ``cbar_num``,
``supply_num``) from its scale to one common denominator D of the
point's coordinates and multiplies those by D.  It also holds what
relaxations share: phi values and each arc's capacity terms per base
facility and remainder, and per arc whether the point meets the arc's
mixed-integer conditions.  Each relaxation's
``IntegerView``, made on first request (``ScaledPoint.view``), takes its
crossing slice from that scaling and memoizes per commodity subset Q the
flow sums and ``b_Q``, from those of ``Q[:-1]``, and per distinct subset
without its null commodities one greedy scan.

``separate_relaxation`` is the one separator of both greedy families: one
pass over a relaxation's base facilities and commodity subsets, each scan
reading its capacity terms at its remainder from the scaled point.  It
admits a winner on ints, D^2 times its violation against eps, before any
cut is built, and builds each admitted cut once (``_cut``): the flow
coefficients D, the phi values and the right-hand side reduced by one
gcd, its key (``core.cut_key``) made from them first, so a key already
found in the round (``skip``) builds nothing, and its params made on
first read.  It yields the cut with its exact violation as a pair of
ints, ``(score, D^2)``.
``separate_flow_cutset`` and ``separate_multifacility`` are its
single-subset calls; the exact subset search ``separate_commodity_subset``
scores on the same view.  The phi functions are homogeneous, and every
score, key and coefficient is homogeneous in D, so the scaling changes no
comparison and no result.

The flow-cut-set and multi-facility cut-set inequalities are MIR cuts of
the relaxation's mixed-integer set: non-negative integer ``y`` and
non-negative ``x`` on the crossing arcs, each crossing arc's flow within
its capacity, and each commodity's net crossing flow at least ``b_k``
(Raack, Koster, Orlowski & Wessäly, Networks 2011; Achterberg & Raack,
Math. Prog. Comp. 2010).  Being valid for that set, none cuts off a point
in it.  Each view tests exactly, on its integers, whether its crossing
point lies in the set (``IntegerView.mixed_integer``), from the per-arc
checks of the scaled point; where it does, a pass finds nothing for any Q
or base facility and returns at once.  A cut whose capacity terms leave a
facility out (a flow-cut-set cut on one facility of several) is not valid
for the set and is never skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, le, mul
from typing import Container, Iterable, Sequence

from .core import ZERO, FractionalPoint, Instance, LinearCut, cut_key, scaled_ints
from .mir import PhiParams, phi_minus, phi_plus

GREEDY_ROUNDS = 5             # passes of the greedy arc selection on a moving remainder
SUBSET_ENUMERATION_CAP = 12   # commodities of the subset search: at most 2^12 - 1 keys b_Q
PARTITION_LIMIT = 8           # nodes of an exhaustive two-partition enumeration


@dataclass(eq=False)
class CutSetRelaxation:
    """Crossing structure of a two-partition (U, V); compared and hashed by
    identity, as a ``ScaledPoint`` keys its views by the relaxation."""

    instance: Instance
    U: tuple[int, ...]
    V: tuple[int, ...]
    A_plus: tuple[int, ...]   # arc indices U -> V
    A_minus: tuple[int, ...]  # arc indices V -> U
    b_num: tuple[int, ...]    # per-commodity net demand that must cross, times instance.scale

    def positive_commodities(self) -> tuple[int, ...]:
        return tuple(k for k, v in enumerate(self.b_num) if v > 0)


class ScaledPoint:
    """An instance's data and one point's coordinates times D, on integers.

    D is the lcm of the instance's scale (``Instance.scale``) and the
    denominators of the point's ``x`` and ``y``, read when the scaled
    point is made.  ``caps[m]``, ``cbar[a]``, ``supplies[k]``, ``x[a][k]``
    and ``y[a][m]`` hold the scaled values, indexed by facility, arc and
    commodity; the first three are the instance's ``sizes_num``,
    ``cbar_num`` and ``supply_num`` times ``up``, D over the scale.  Since
    D is a multiple of the instance's scale, it also clears every value
    derived from the demands, such as a relaxation's ``b_k``.
    ``fits[a]`` says whether arc a meets the arc conditions of every
    relaxation's mixed-integer set: every ``y`` a non-negative integer,
    every ``x`` non-negative and the flow ``sum_k x_k`` within ``cbar +
    sum_m c_m y_m``.  Every field is set when the scaled point is made.
    """

    def __init__(self, instance: Instance, point: FractionalPoint):
        arcs = range(len(instance.arcs))
        commodities = range(len(instance.commodities))
        facilities = range(len(instance.facilities))
        dens = {v.denominator for v in point.x.values()}
        dens.update(v.denominator for v in point.y.values())
        self.D = D = math.lcm(instance.scale, *dens)
        self.up = up = D // instance.scale
        self.caps = [c * up for c in instance.sizes_num]
        self.cbar = [c * up for c in instance.cbar_num]
        self.supplies = [d * up for d in instance.supply_num]
        self.x = [scaled_ints([point.x.get((a, k), ZERO) for k in commodities], D) for a in arcs]
        self.y = [scaled_ints([point.y.get((a, m), ZERO) for m in facilities], D) for a in arcs]
        self.fits = [
            all(v >= 0 and not v % D for v in ya) and all(v >= 0 for v in xa)
            and sum(xa) <= cbar + sum(c * (v // D) for c, v in zip(self.caps, ya))
            for xa, ya, cbar in zip(self.x, self.y, self.cbar)
        ]
        self._views: dict[CutSetRelaxation, IntegerView] = {}
        self._phis: dict = {}
        self._terms: dict = {}

    def loads(self, a: int) -> list[tuple[int, int]]:
        """Each commodity's load ``x_k / d_k`` on arc a, d_k its supply, clamped into the
        unit box, as ints ``(num, den)``: ``x[a][k]`` clamped to ``[0, supplies[k]]`` over ``supplies[k]``."""
        return [(min(max(v, 0), d), d) for v, d in zip(self.x[a], self.supplies)]

    def view(self, rel: CutSetRelaxation) -> IntegerView:
        """The integer view of ``rel`` at this point, made on first request
        and kept as long as this scaled point."""
        view = self._views.get(rel)
        if view is None:
            view = self._views[rel] = IntegerView(rel, self)
        return view

    def phis(self, s: int, r: int) -> tuple[list[int], list[int]]:
        """``phi+(c_m)`` and ``phi-(c_m)`` of every facility m, D-scaled,
        rounded on facility ``s`` with remainder r."""
        got = self._phis.get((s, r))
        if got is None:
            p = PhiParams(c_s=self.caps[s], r=r)
            got = self._phis[(s, r)] = ([phi_plus(p, c) for c in self.caps], [phi_minus(p, c) for c in self.caps])
        return got

    def terms(self, s: int, r: int, mf: bool) -> tuple[list[int], list[int]]:
        """Per arc a, the D^2-scaled capacity terms of ``phis(s, r)``:
        ``sum_m phi+(c_m) * y[a][m]`` and ``sum_m phi-(c_m) * y[a][m]``
        with ``mf``, else those of facility s alone, made once per base
        facility, remainder and family for every relaxation."""
        got = self._terms.get((s, r, mf))
        if got is None:
            plus, minus = self.phis(s, r)
            if mf:
                got = ([sum(map(mul, plus, ya)) for ya in self.y], [sum(map(mul, minus, ya)) for ya in self.y])
            else:
                got = ([plus[s] * ya[s] for ya in self.y], [minus[s] * ya[s] for ya in self.y])
            self._terms[(s, r, mf)] = got
        return got


class IntegerView:
    """A relaxation's data and one point's crossing coordinates on integers.

    The values are those of a ``ScaledPoint``, all times its
    D: ``caps``, ``cbar[a]`` and ``y[a][m]`` are the scaling's own lists,
    ``x[a]`` its rows of the crossing arcs, and ``b`` the relaxation's
    demands, ``b_num`` raised from the instance's scale to D.
    Remainders and phi values are then D-scaled and flow terms, capacity
    terms and violations D^2-scaled; the phi functions are homogeneous, so
    every comparison is the one the exact rationals make.  Per commodity
    subset Q the view memoizes ``b_Q`` and the per-arc flow sums, each
    from those of ``Q[:-1]`` plus commodity ``Q[-1]``, and per base
    facility, family and distinct scan the greedy's winner (see
    ``_greedy_scan``).  ``cbar_plus`` is ``cbar(A+)``.

    ``mixed_integer`` says whether the crossing point lies in the
    relaxation's mixed-integer set: each crossing arc meets its conditions
    (``ScaledPoint.fits``) and each commodity's net crossing flow ``x_k(A+)
    - x_k(A-)`` is at least ``b_k``, read from per-commodity sums over the
    crossing rows.  Every cut of the relaxation whose
    capacity terms count every facility is valid for that set, so none is
    violated there.
    """

    def __init__(self, rel: CutSetRelaxation, scaled: ScaledPoint):
        self.A_plus, self.A_minus = A_plus, A_minus = rel.A_plus, rel.A_minus
        self.D = scaled.D
        self.caps, self.cbar, self.y = scaled.caps, scaled.cbar, scaled.y
        self.b = b = [b * scaled.up for b in rel.b_num]
        X, fits = scaled.x, scaled.fits
        self.x = x = {a: X[a] for a in A_plus + A_minus}
        zero = [0] * len(b)  # the column sums x_k(A+) and x_k(A-) of the crossing rows
        inflow = map(sum, zip(zero, *(X[a] for a in A_plus)))
        outflow = map(sum, zip(zero, *(X[a] for a in A_minus)))
        self.mixed_integer = all(fits[a] for a in x) and all(map(le, map(add, b, outflow), inflow))
        self.cbar_plus = self.cbar_sum(A_plus)
        self._by_Q: dict = {}
        self._greedy: dict = {}

    def cbar_sum(self, arcs: Iterable[int]) -> int:
        return sum(self.cbar[a] for a in arcs)

    def commodities(self, Q: tuple[int, ...]) -> tuple[int, dict[int, int]]:
        """``b_Q`` and, per crossing arc, the D^2-scaled flow ``x_Q(a)``:
        those of the prefix ``Q[:-1]``, memoized or made so, plus commodity
        ``Q[-1]``'s."""
        got = self._by_Q.get(Q)
        if got is None:
            if Q:
                k, D, x = Q[-1], self.D, self.x
                b_prefix, flow = self.commodities(Q[:-1])
                got = (b_prefix + self.b[k], {a: f + D * x[a][k] for a, f in flow.items()})
            else:
                got = (0, dict.fromkeys(self.x, 0))
            self._by_Q[Q] = got
        return got


def build_cutset(instance: Instance, U: Iterable[int]) -> CutSetRelaxation:
    """Aggregate the design constraints across the node two-partition of U
    and V, the other nodes in node order, each commodity's crossing demand
    summed on ints at the instance's scale."""
    U = tuple(dict.fromkeys(U))
    uset = set(U)
    V = tuple(n for n in instance.nodes if n not in uset)
    if not U or not V or len(U) + len(V) != len(instance.nodes):
        raise ValueError("U must be a nonempty proper subset of the nodes")
    a_plus, a_minus = [], []
    for ai, arc in enumerate(instance.arcs):
        if arc.tail in uset and arc.head not in uset:
            a_plus.append(ai)
        elif arc.tail not in uset and arc.head in uset:
            a_minus.append(ai)
    b_num = tuple(sum(w for n, w in net.items() if n not in uset) for net in instance.net_num)
    return CutSetRelaxation(
        instance=instance,
        U=U,
        V=V,
        A_plus=tuple(a_plus),
        A_minus=tuple(a_minus),
        b_num=b_num,
    )


def cutset_rhs(rel: CutSetRelaxation) -> int:
    """``ceil((b_K - cbar(A+)) / c)`` of facility 0, on ints at the
    instance's scale S: ``ceil((S*b_K - S*cbar(A+)) / (S*c))``."""
    inst = rel.instance
    need = sum(rel.b_num) - sum(inst.cbar_num[a] for a in rel.A_plus)
    return -(-need // inst.sizes_num[0])


def _cut(
    rel: CutSetRelaxation, scaled: ScaledPoint, Q: tuple[int, ...], winner: tuple, s: int, family: str,
    skip: Container = (),
) -> LinearCut | None:
    """Cut-set cut of the selection ``winner``, a ``_greedy_scan`` winner
    ``(S+, S-, score, r, eta, cbar(S-))``: flow on ``A+ \\ S+`` and ``S-``,
    capacity coefficients ``phi+(c_m)`` on S+ and ``phi-(c_m)`` on S- for
    each facility m (``"mf"``) or for the base facility s alone
    (``"flowcutset"``), rounded on s with the winner's remainder ``r > 0``
    and ``eta``, from the integers of ``scaled`` over its D.  On one
    facility it reads
    ``r*y(S+) + x_Q(A+ \\ S+) + (c-r)*y(S-) - x_Q(S-) >= r*eta - cbar(S-)``,
    as ``phi+(c) = r`` and ``phi-(c) = c - r``.  The existing-capacity
    constant of the inflow bracket ``cbar(S-) + c*y(S-) - x_Q(S-) >= 0``
    lands on the right-hand side; dropping it (as a naive reading of the
    aggregated form suggests) is refuted by brute-force counterexamples
    whenever S- carries existing capacity.

    The cut's ints are made reduced: one gcd over D, the rhs and the phi
    values in use divides them all; flow coefficients run over Q, each
    over ``A+ \\ S+`` then S-, and capacity ones over S+ then S-, each
    arc's in facility order.  Its key is ``cut_key`` of them, and a key
    in ``skip`` gives None; else the cut is
    ``LinearCut.reduced``, its params (``_params``) made on first read."""
    S_plus, S_minus, _, r, eta, cbar_minus = winner
    D = scaled.D
    plus, minus = scaled.phis(s, r)
    if family != "mf":  # facility s alone
        plus, minus = [0] * s + [plus[s]], [0] * s + [minus[s]]
    rhs = r * eta - cbar_minus
    g = math.gcd(D, rhs, *(plus if S_plus else ()), *(minus if S_minus else ()))
    step, rhs = D // g, rhs // g
    # +-D over the gcd on the arcs of A+ \ S+ and S-
    terms = [(a, step) for a in rel.A_plus if a not in S_plus] + [(a, -step) for a in S_minus]
    flow = {(a, k): v for k in Q for a, v in terms}
    cap = {}
    if S_plus:
        plus = [(m, v // g) for m, v in enumerate(plus) if v]
        cap = {(a, m): v for a in S_plus for m, v in plus}
    if S_minus:
        minus = [(m, v // g) for m, v in enumerate(minus) if v]
        cap.update({(a, m): v for a in S_minus for m, v in minus})
    key = cut_key(flow, cap, rhs)
    if key in skip:
        return None
    return LinearCut.reduced(flow, cap, rhs, step, family, partial(_params, rel, Q, winner, s, family, D), key)


def _params(rel: CutSetRelaxation, Q: tuple[int, ...], winner: tuple, s: int, family: str, D: int) -> dict:
    """The params of ``_cut``'s cut: the partition's U, Q, S+, S-, the
    remainder ``r`` over D and ``eta``.  An ``mf`` cut's also name the base
    facility ``s`` and a ``facet_report`` on the proper arc subsets (S+ and
    S- are subsequences of A+ and A-, so proper by their lengths), the
    remainder and the demands of Q."""
    S_plus, S_minus, _, r, eta, _ = winner
    params = {"U": rel.U, "Q": Q, "S+": S_plus, "S-": S_minus, "r": Fraction(r, D), "eta": eta}
    if family == "mf":
        params["s"] = s
        params["facet_report"] = {
            "s_plus_proper": 0 < len(S_plus) < len(rel.A_plus),
            "s_minus_proper": 0 < len(S_minus) < len(rel.A_minus),
            "remainder_positive": r > 0,
            "all_demands_positive": all(rel.b_num[k] > 0 for k in Q),
        }
    return params


def _greedy_scan(view: IntegerView, scaled: ScaledPoint, Q: tuple[int, ...], s: int, mf: bool):
    """Most violated ``(S+, S-, score, r, eta, cbar(S-))`` of the greedy
    cut-set scan on base facility s, with its D^2-scaled violation
    ``score`` and the remainder ``r > 0`` and ``eta`` of rounding its
    ``b'_Q`` on s, or None.

    For a given remainder the least left-hand side takes an arc into S+
    (resp. S-) exactly when its capacity term is smaller than its flow
    term.  With ``mf`` the capacity terms count every facility and a dead
    arc (both terms zero) joins S+, so a zero point yields the pure capacity
    cut; otherwise they count facility s alone.  The terms are those of the
    phi values at the scan's remainder, read from ``scaled.terms``, made
    once for every relaxation at the point.  With
    existing capacity on crossing arcs the remainder moves with the
    selection, so the pass repeats until it stabilizes, at most
    ``GREEDY_ROUNDS`` times.  Everything runs on the integers of ``view``,
    one pass over the arcs per distinct selection: a score depends on the
    selection alone, so the scan stops before a repeat and right after a
    selection whose remainder its terms came from.
    """
    A_plus, A_minus, cbar, D, terms = view.A_plus, view.A_minus, view.cbar, view.D, scaled.terms
    b_Q, flow = view.commodities(Q)
    c_s = view.caps[s]
    r = (b_Q - view.cbar_plus) % c_s
    if r == 0:
        return None
    best, best_viol = None, 0
    scored = ()  # the selections scored on a moved remainder
    for _ in range(GREEDY_ROUNDS):
        tp, tm = terms(s, r, mf)
        s_plus, s_minus = [], []
        cbar_plus = cbar_minus = cap_lhs = flow_lhs = 0
        for a in A_plus:
            t, f = tp[a], flow[a]
            if t < f or (mf and t == 0 == f):
                s_plus.append(a)
                cbar_plus += cbar[a]
                cap_lhs += t
            else:
                flow_lhs += f
        for a in A_minus:
            t, f = tm[a], flow[a]
            if t < f:
                s_minus.append(a)
                cbar_minus += cbar[a]
                cap_lhs += t
                flow_lhs -= f
        sel = (tuple(s_plus), tuple(s_minus))
        if sel in scored:
            break
        b_prime = b_Q - cbar_plus + cbar_minus
        r_sel = b_prime % c_s
        if r_sel == 0:
            break
        moved = r_sel != r
        if moved:
            tp, tm = terms(s, r_sel, mf)
            cap_lhs = sum(tp[a] for a in s_plus) + sum(tm[a] for a in s_minus)
        # D^2 times the violation: D * (r * eta - cbar(S-)) less both parts
        eta = -(-b_prime // c_s)
        v = D * (r_sel * eta - cbar_minus) - cap_lhs - flow_lhs
        if v > best_viol:
            best, best_viol = (*sel, v, r_sel, eta, cbar_minus), v
        if not moved:
            break
        scored += (sel,)
        r = r_sel
    return best


def separate_relaxation(
    rel: CutSetRelaxation,
    scaled: ScaledPoint,
    subsets: Sequence[tuple[int, ...]],
    family: str,
    eps: Fraction = ZERO,
    skip: Container = (),
    bases: Iterable[int] | None = None,
):
    """``(cut, (num, den))`` for the ``family`` cuts (``"flowcutset"`` or
    ``"mf"``) of ``rel`` violated by more than eps at the point of
    ``scaled``, in one pass: per base
    facility s of ``bases`` (every facility by default) and per commodity
    subset Q of ``subsets``, in that order, the winner of the greedy scan
    (``_greedy_scan``) unless its ``normalized_key()`` is in ``skip``.

    A winner is admitted on its ints, ``score * eps.denominator >
    eps.numerator * D^2``, before its cut is built (``_cut``), and its
    exact violation is the score over D^2, yielded as the pair ``(score,
    D^2)``.  A point in the relaxation's
    mixed-integer set violates no cut whose capacity terms count every
    facility, so there the pass yields nothing.  A null commodity of the
    view (``b_k = 0`` and no flow on any crossing arc) changes neither
    ``b_Q`` nor any flow, so the view keeps one scan per Q without its null
    commodities (those keys made once per call), base facility and family;
    a subset of null commodities alone is scanned too, as capacity terms
    alone can be violated.
    """
    view = scaled.view(rel)
    mf = family == "mf"
    if not rel.A_plus or (view.mixed_integer and (mf or len(view.caps) == 1)):
        return
    D, b, x = view.D, view.b, view.x.values()
    bar, eps_den = eps.numerator * D * D, eps.denominator
    null = {k for k, b_k in enumerate(b) if b_k == 0 and all(xa[k] == 0 for xa in x)}
    reduced = [tuple(k for k in Q if k not in null) for Q in subsets] if null else subsets
    for s in range(len(view.caps)) if bases is None else bases:
        memo = view._greedy.setdefault((s, mf), {})
        for Q, key in zip(subsets, reduced):
            if key in memo:
                found = memo[key]
            else:
                found = memo[key] = _greedy_scan(view, scaled, key, s, mf)
            if found is not None and found[2] * eps_den > bar:
                cut = _cut(rel, scaled, Q, found, s, family, skip)
                if cut is not None:
                    yield cut, (found[2], D * D)


def separate_flow_cutset(rel: CutSetRelaxation, Q: Sequence[int], scaled: ScaledPoint) -> LinearCut | None:
    """Greedy arc selection for fixed commodities, iterated on the remainder,
    at the point of ``scaled``: the ``separate_relaxation`` pass of
    ``"flowcutset"`` on one subset Q and base facility 0.

    Capacity terms ``r*y`` on S+ and ``(c-r)*y`` on S- of the one facility
    compete strictly with the flow terms; see ``_greedy_scan``.
    """
    return next((cut for cut, _ in separate_relaxation(rel, scaled, [tuple(Q)], "flowcutset", bases=(0,))), None)


def separate_commodity_subset(
    rel: CutSetRelaxation,
    S_plus: Sequence[int],
    S_minus: Sequence[int],
    scaled: ScaledPoint,
) -> tuple[int, ...] | None:
    """Most violated nonempty commodity subset for fixed arc sets, rounded
    on facility 0 alone, at the point of ``scaled``: the smallest and then
    the lexicographically first of ties, as a scan in ``combinations``
    order finds it; None when none violates.

    Subsets are scored on the integers of ``scaled.view(rel)``.  A score
    reads Q only through ``b_Q`` and the flow part ``net_Q``, the sum of
    ``x_k(A+ \\ S+) - x_k(S-)`` over Q: the remainder and the capacity part
    ``phi+ y(S+) + phi- y(S-)`` (``y(S+)`` and ``y(S-)`` summed once)
    depend on ``b_Q`` alone, and ``net_Q`` is subtracted.  So the search is
    exact over the least ``(net_Q, |Q|, Q)`` per distinct ``b_Q``, which a
    dynamic program over the commodities keeps: adding a commodity to two
    subsets keeps their order.  Q is a bitmask with commodity k on bit
    ``n-1-k``, so of two subsets of one size the larger mask is
    lexicographically first.  Each key is scored once.  More than
    ``SUBSET_ENUMERATION_CAP`` commodities raise ``ValueError``.
    """
    S_plus, S_minus = tuple(S_plus), tuple(S_minus)
    if not (set(S_plus) <= set(rel.A_plus) and set(S_minus) <= set(rel.A_minus)):
        raise ValueError("S+ and S- must be subsets of the crossing arcs A+ and A-")
    n = len(rel.b_num)
    if n > SUBSET_ENUMERATION_CAP:
        raise ValueError("exact commodity-subset search is capped")
    view = scaled.view(rel)
    D, c = view.D, view.caps[0]
    bypass_arcs = [a for a in rel.A_plus if a not in S_plus]
    cbar_minus = view.cbar_sum(S_minus)
    b_shift = cbar_minus - view.cbar_sum(S_plus)  # b'_Q - b_Q
    Y_plus = sum(view.y[a][0] for a in S_plus)
    Y_minus = sum(view.y[a][0] for a in S_minus)

    # per b_Q, the least (net_Q, |Q|, -mask) over the nonempty subsets seen
    least: dict[int, tuple[int, int, int]] = {}
    for k in range(n):
        # D^2 * (x_k(A+ \ S+) - x_k(S-)), the flow part of commodity k
        net_k = D * (sum(view.x[a][k] for a in bypass_arcs) - sum(view.x[a][k] for a in S_minus))
        b_k, bit = view.b[k], 1 << (n - 1 - k)
        for b_Q, (net_Q, size, neg_mask) in [(0, (0, 0, 0)), *least.items()]:
            grown = (net_Q + net_k, size + 1, neg_mask - bit)
            got = least.get(b_Q + b_k)
            if got is None or grown < got:
                least[b_Q + b_k] = grown

    best = None  # (score, -|Q|, mask) of the winner
    for b_Q, (net_Q, size, neg_mask) in least.items():
        r, eta = (b_Q + b_shift) % c, -(-(b_Q + b_shift) // c)
        if r == 0:
            continue
        plus, minus = scaled.phis(0, r)
        # D^2 times the violation: D * (r * eta - cbar(S-)) less the capacity and flow parts
        score = D * (r * eta - cbar_minus) - plus[0] * Y_plus - minus[0] * Y_minus - net_Q
        if score > 0 and (best is None or (score, -size, -neg_mask) > best):
            best = (score, -size, -neg_mask)
    if best is None:
        return None
    return tuple(k for k in range(n) if best[2] >> (n - 1 - k) & 1)


# -- multiple facilities --------------------------------------------------------


def separate_multifacility(
    rel: CutSetRelaxation,
    s: int,
    scaled: ScaledPoint,
    Q: Sequence[int] | None = None,
    skip: Container = (),
) -> LinearCut | None:
    """Greedy arc selection with per-facility coefficient evaluation, at
    the point of ``scaled``: the ``separate_relaxation`` pass of ``"mf"``
    on one subset Q (every commodity by default) and base facility s.

    An arc joins S+ (resp. S-) when its phi-weighted capacity falls below
    its flow, which minimizes the left-hand side arc by arc; phi is
    evaluated once per facility and remainder, so the scan is linear in
    arcs times facilities.  See ``_greedy_scan``.  A winner whose
    ``normalized_key()`` is in ``skip`` is not returned: None.
    """
    Q = tuple(Q) if Q is not None else tuple(range(len(rel.b_num)))
    return next((cut for cut, _ in separate_relaxation(rel, scaled, [Q], "mf", skip=skip, bases=(s,))), None)


def two_partitions(nodes: Sequence[int]):
    """U of every ordered two-partition (U, V) of at most ``PARTITION_LIMIT``
    nodes, V being the other nodes."""
    nodes = list(nodes)
    n = len(nodes)
    if n > PARTITION_LIMIT:
        raise ValueError("exhaustive partition enumeration is capped")
    for mask in range(1, (1 << n) - 1):
        yield tuple(nodes[i] for i in range(n) if mask >> i & 1)
