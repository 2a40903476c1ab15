"""Two-phase bounded-variable simplex, dense tableau, Bland's rule.

Sized for desk-scale models (up to a couple thousand rows).  One algorithm
runs in two arithmetics: float64 for the loop's relaxations and exact
rational (``Fraction``) where a result must be certified.  Bland's
smallest-index rule everywhere, which prevents cycling.  Variables at their
upper bound are kept complemented (column negated, rhs shifted) so every
nonbasic variable sits at zero.

Phase 1, the drive-out of artificials, phase 2, the pivot loop, the pivot
and the bound flip are shared; the arithmetic (``_FLOAT`` or ``_EXACT``)
differs only in

- tolerances: float tests reduced costs and pivot entries against ``1e-9``
  and phase-1 infeasibility and drive-out pivots against ``1e-7``; exact
  tests against zero;
- row scaling: float rows are equilibrated to unit max coefficient; exact
  rows are not scaled;
- the pivot update: both skip the columns where the pivot row is zero
  (they would only subtract zero); float subtracts one outer product over
  the others, exact also skips the rows whose pivot-column entry is zero.

Pricing keeps a mask of the columns that may enter and takes the first
with a negative reduced cost in one masked ``argmax``; the ratio test reads
the pivot column and the basic values once per pivot as plain Python
numbers, keeps the basis and its bounds as plain numbers from pivot to
pivot, and applies Bland's tie rule to them row by row.  The dual loop
keeps its mask and its rows' basic bounds the same way.

Row duals are read off the final objective row under each row's marker
column (its slack, or its artificial for ``>=``/``=`` rows).  When phase 1
ends with a positive objective the same trick yields a Farkas certificate:
multipliers ``lam`` with ``lam·A <= 0`` on all columns (for columns with a
finite upper bound, ``sum(max(lam·A_j,0)*u_j) < lam·b`` instead) proving
the system empty.

``solve_lp_many`` solves one LP for several objectives: phase 1 does not
read the objective, so it runs once and each phase 2 starts from a copy of
its tableau.

``solve_lp(..., start=)`` re-solves in floats from the kept tableau of an
earlier optimum whose rows the new LP extends, and pays only for the new
rows: all are converted in one pass (``_tableau_rows``) and placed in one
scatter, each with its slack basic (its marker), which keeps the basis dual
feasible, and one product eliminates the old basis from them.  A bounded
dual simplex (``_dual_loop``) restores primal feasibility before the primal
pivot loop and the same result reader finish, with no phase 1.  Phase 1
converts its rows the same way and places them, their slacks and their
artificials in one scatter each; the reader takes values and duals with
vector operations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# the one float backend, named in benchmark environment stamps
KERNEL = "python"

OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2

_INF = float("inf")

LE, GE, EQ = "<=", ">=", "="

_FLIP = {LE: GE, GE: LE, EQ: EQ}


@dataclass
class LPResult:
    status: str  # optimal | infeasible | unbounded | stalled
    x: list
    objective: object
    duals: list | None = None
    farkas: list | None = None
    iterations: int = 0
    # (_State, _Layout) of a float optimum from solve_lp: a warm start's tableau
    tableau: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Arithmetic:
    """Number type and tolerances of one simplex run."""

    exact: bool
    dtype: object  # tableau dtype
    num: type  # converts input coefficients
    zero: object
    one: object
    tol: object  # reduced costs, pivot entries and ratio ties
    feas_tol: object  # phase-1 infeasibility and drive-out pivots


def _to_float(v) -> float:
    """``float(v)``; a Fraction's numerator and denominator are divided
    directly, the same correctly rounded quotient without the generic
    conversion's overhead, which dominated setting up the oracle's tiny
    routing LPs."""
    if type(v) is Fraction:
        return v.numerator / v.denominator
    return float(v)


_FLOAT = _Arithmetic(False, np.float64, _to_float, 0.0, 1.0, 1e-9, 1e-7)
_EXACT = _Arithmetic(True, object, Fraction, Fraction(0), Fraction(1), 0, 0)


class _Layout:
    """Column layout and normalized row data shared by both modes."""

    def __init__(self, n_vars: int, rows: Sequence[tuple]):
        self.n_vars = n_vars
        # (coefs, sense, rhs, negated): the model's coefs and rhs and the
        # tableau row's sense; a negated row enters the tableau as -coefs
        # and -rhs (``_tableau_rows``), and its dual changes sign
        self.rows = [
            (coefs, _FLIP[sense], rhs, True) if rhs < 0 else (coefs, sense, rhs, False)
            for coefs, sense, rhs in rows
        ]
        m = len(self.rows)
        ncols = n_vars
        self.slack_col = [-1] * m
        self.art_col = [-1] * m
        for i, (_, sense, _, _) in enumerate(self.rows):
            if sense == LE:
                self.slack_col[i] = ncols
                ncols += 1
            elif sense == GE:
                self.slack_col[i] = ncols  # surplus, coefficient -1
                ncols += 1
        self.first_art = ncols
        for i, (_, sense, _, _) in enumerate(self.rows):
            if sense in (GE, EQ):
                self.art_col[i] = ncols
                ncols += 1
        self.ncols = ncols
        art = np.array(self.art_col, dtype=np.int64)
        self.markers = np.where(art >= 0, art, np.array(self.slack_col, dtype=np.int64))
        self.negated = np.array([row[3] for row in self.rows], dtype=bool)

    def appended(self, rows: Sequence[tuple]) -> "_Layout":
        """This layout with ``rows`` after its own, each with a new slack
        column after every existing column and no artificial: a ``>=`` row
        is negated to ``<=``, and an ``=`` row's slack is fixed at zero."""
        new = copy.copy(self)
        new.rows = self.rows + [
            (coefs, LE, rhs, True) if sense == GE else (coefs, sense, rhs, False)
            for coefs, sense, rhs in rows
        ]
        new.slack_col = self.slack_col + list(range(self.ncols, self.ncols + len(rows)))
        new.art_col = self.art_col + [-1] * len(rows)
        new.ncols = self.ncols + len(rows)
        new.markers = np.concatenate([self.markers, np.arange(self.ncols, new.ncols)])
        new.negated = np.concatenate([self.negated, np.array([sense == GE for _, sense, _ in rows], dtype=bool)])
        return new


def solve_lp(
    n_vars: int,
    rows: Sequence[tuple],
    objective: Mapping[int, object] | Sequence,
    upper: Mapping[int, object] | None = None,
    exact: bool = False,
    max_iter: int | None = None,
    *,
    start: LPResult | None = None,
) -> LPResult:
    """Minimize ``objective`` over ``rows`` with ``0 <= x <= upper``.

    ``rows`` is a sequence of ``(coefs, sense, rhs)`` with sparse ``coefs``
    mappings; ``upper`` maps variable indices to finite upper bounds, and a
    negative or NaN one raises ``ValueError``.  With ``exact`` every number
    in the result is a ``Fraction``.  A float optimum keeps its tableau.

    ``start`` is a float optimum of this function for the same ``n_vars``,
    ``objective`` and ``upper`` whose rows are ``rows[:m]``: the re-solve
    begins from its tableau (see ``_resolve``) and ends ``"stalled"`` when
    it cannot finish.  Another ``n_vars``, more than ``len(rows)`` rows, a
    ``start`` without a tableau or ``exact`` raise ``ValueError``.
    """
    if start is None:
        return _solve(n_vars, rows, [objective], upper, exact, max_iter, keep=not exact)[0]
    if start.tableau is None or exact:
        raise ValueError("a warm start needs a float optimum of solve_lp and a float re-solve")
    layout = start.tableau[1]
    if layout.n_vars != n_vars or len(layout.rows) > len(rows):
        raise ValueError(
            f"start has {layout.n_vars} variables and {len(layout.rows)} rows, "
            f"the LP {n_vars} variables and {len(rows)} rows"
        )
    return _resolve(start, rows, max_iter)


def solve_lp_many(
    n_vars: int,
    rows: Sequence[tuple],
    objectives: Sequence[Mapping[int, object] | Sequence],
    upper: Mapping[int, object] | None = None,
) -> list[LPResult]:
    """``solve_lp`` in floats for several objectives over the same feasible
    set.

    Phase 1 never reads the objective, so it runs once; phase 2 runs for
    each objective on a copy of the phase-1 tableau.  When phase 1 ends
    infeasible or stalled, every entry is that result.  No result keeps its
    tableau.
    """
    return _solve(n_vars, rows, objectives, upper, False, None, keep=False)


def _solve(n_vars, rows, objectives, upper, exact, max_iter, keep) -> list[LPResult]:
    """``solve_lp_many`` from the artificial basis; with ``keep`` the last
    result, when optimal, keeps the tableau it was read from."""
    upper = upper or {}
    for j, u in upper.items():
        if not u >= 0:  # also refuses NaN
            raise ValueError(f"upper bound {u} of variable {j} is not nonnegative")
    arith = _EXACT if exact else _FLOAT
    layout = _Layout(n_vars, rows)
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    start = _phase1(layout, upper, arith, max_iter)
    if isinstance(start, LPResult):
        return [start] * len(objectives)
    results = []
    for k, objective in enumerate(objectives):
        # the last objective may consume the phase-1 tableau itself
        state = start if k == len(objectives) - 1 else start.copy()
        results.append(_phase2(layout, state, _sparse(objective), arith, max_iter))
    if keep and results[-1].status == "optimal":
        results[-1].tableau = (state, layout)
    return results


def _sparse(objective) -> dict:
    if isinstance(objective, Mapping):
        return dict(objective)
    return {j: v for j, v in enumerate(objective) if v}


def _default_max_iter(layout: _Layout) -> int:
    return 10000 + 60 * (len(layout.rows) + layout.ncols)


@dataclass
class _State:
    """Tableau and basis at the end of phase 1."""

    T: np.ndarray
    basis: np.ndarray
    is_basic: np.ndarray
    flipped: np.ndarray
    upper: np.ndarray
    allow: np.ndarray
    row_scale: np.ndarray
    iterations: int

    def copy(self) -> "_State":
        """Copy of what phase 2 modifies; ``upper``, ``allow`` and ``row_scale`` are shared."""
        return _State(
            self.T.copy(), self.basis.copy(), self.is_basic.copy(), self.flipped.copy(),
            self.upper, self.allow, self.row_scale, self.iterations,
        )


def _tableau_rows(rows, arith: _Arithmetic):
    """``rows`` (``_Layout.rows`` entries) in tableau numbers, flattened for
    one scatter: ``(at, cols, vals, rhs, scale)``, where coefficient ``k``
    sits in row ``at[k]`` (an index into ``rows``, in ascending order) and
    column ``cols[k]``, each row's coefficients in the order of its
    ``coefs``, and ``rhs`` and ``scale`` hold one entry per row.

    Every value is converted in one pass: exact values by ``arith.num``,
    float ones by one ``np.array`` call, which converts an int or a
    ``Fraction`` as ``float()`` does, correctly rounded, and keeps a
    float's bits.  A negated row's values are negated after conversion,
    which is sign-symmetric, as ``zero - v`` so that a zero stays +0.0.
    Float rows are then equilibrated to unit max coefficient: wide
    magnitude ranges (scaled cut rows) otherwise invite tiny-pivot
    blowups.  Exact rows are not scaled.
    """
    cols, vals, rhs, sizes, negated = [], [], [], [], []
    for coefs, _, b, neg in rows:
        cols += coefs
        vals += coefs.values()
        rhs.append(b)
        sizes.append(len(coefs))
        negated.append(neg)
    at = np.repeat(np.arange(len(rows)), sizes)
    if arith.exact:
        vals, rhs = [Fraction(v) for v in vals], [Fraction(v) for v in rhs]
    vals, rhs = np.array(vals, dtype=arith.dtype), np.array(rhs, dtype=arith.dtype)
    negated = np.array(negated, dtype=bool)
    flip = np.flatnonzero(negated[at])
    vals[flip] = arith.zero - vals[flip]
    rhs[negated] = arith.zero - rhs[negated]
    scale = np.full(len(rows), arith.one, dtype=arith.dtype)
    if not arith.exact and vals.size:
        biggest = np.zeros(len(rows))
        filled = np.flatnonzero(sizes)
        biggest[filled] = np.maximum.reduceat(np.abs(vals), np.searchsorted(at, filled))
        np.divide(1.0, biggest, out=scale, where=biggest > 0)
        vals *= scale[at]
        rhs *= scale
    return at, np.array(cols, dtype=np.int64), vals, rhs, scale


def _phase1(layout: _Layout, upper_map, arith: _Arithmetic, max_iter) -> _State | LPResult:
    """Build the tableau and reach a feasible basis, or end infeasible/stalled."""
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
    allow[upper <= arith.tol] = 0  # fixed variables never enter

    at, cols, vals, rhs, row_scale = _tableau_rows(layout.rows, arith)
    # one scatter each for the rows, the slacks and the artificials: a
    # write per row or per entry costs a numpy call each
    T[at, cols] = vals
    T[:m, N] = rhs
    slack, art = np.array(layout.slack_col, dtype=np.int64), np.array(layout.art_col, dtype=np.int64)
    le = np.array([sense == LE for _, sense, _, _ in layout.rows], dtype=bool)
    ge = np.array([sense == GE for _, sense, _, _ in layout.rows], dtype=bool)
    T[le.nonzero()[0], slack[le]] = one
    T[ge.nonzero()[0], slack[ge]] = -one
    has_art = art >= 0
    T[has_art.nonzero()[0], art[has_art]] = one
    basis[:] = np.where(has_art, art, slack)
    is_basic[basis] = 1

    # phase 1: minimize the artificial total
    for i in np.flatnonzero(has_art).tolist():
        T[m] -= T[i]
    T[m, art[has_art]] += one

    status, it1 = _pivot_loop(T, basis, is_basic, flipped, upper, allow, arith, max_iter)
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=it1)
    if -T[m, N] > arith.feas_tol:
        # each row's entry read at its marker, as ``_optimize`` reads duals
        pi = (np.where(has_art, one, zero) - T[m, layout.markers]) * row_scale
        return LPResult("infeasible", [], None, farkas=list(np.where(layout.negated, -pi, pi)), iterations=it1)

    _drive_out_artificials(T, basis, is_basic, layout, arith)
    allow[layout.first_art :] = 0
    return _State(T, basis, is_basic, flipped, upper, allow, row_scale, it1)


def _phase2(layout: _Layout, state: _State, obj, arith: _Arithmetic, max_iter) -> LPResult:
    """Minimize ``obj`` from the phase-1 basis in ``state`` (modified in place)."""
    T, basis, flipped, upper = state.T, state.basis, state.flipped, state.upper
    m, N = len(layout.rows), layout.ncols
    # phase 2 objective row, accounting for already-complemented columns
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
    cb = eff[basis]
    for i in np.flatnonzero(cb).tolist():
        T[m] -= cb[i] * T[i]
    T[m, N] -= const
    return _optimize(layout, state, arith, max_iter)


def _optimize(layout: _Layout, state: _State, arith: _Arithmetic, max_iter) -> LPResult:
    """Primal pivots from the feasible basis in ``state`` (modified in
    place) to the optimum, read off with each row's dual at its marker."""
    T, basis, flipped, upper = state.T, state.basis, state.flipped, state.upper
    m, N = len(layout.rows), layout.ncols
    status, it2 = _pivot_loop(T, basis, state.is_basic, flipped, upper, state.allow, arith, max_iter)
    iters = state.iterations + it2
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=iters)
    if status == UNBOUNDED:
        return LPResult("unbounded", [], None, iterations=iters)

    values = np.full(N, arith.zero, dtype=arith.dtype)
    values[basis] = T[:m, N]
    at_upper = flipped != 0
    values[at_upper] = upper[at_upper] - values[at_upper]
    markers = layout.markers
    pi = -T[m, markers] * state.row_scale
    # a complemented marker (an appended "=" row's slack) shows -d_j
    negate = layout.negated != at_upper[markers]
    duals = list(np.where(negate, -pi, pi))
    # the objective is -T[m, N], taken as ``zero - v`` so that a zero optimum is +0.0
    objective = arith.zero - T[m, N]
    return LPResult("optimal", list(values[: layout.n_vars]), objective, duals=duals, iterations=iters)


def _resolve(start: LPResult, rows: Sequence[tuple], max_iter) -> LPResult:
    """Float optimum over ``rows`` from the tableau of ``start``, the
    optimum over ``rows[:m]``.

    The rows of ``rows[m:]`` are set as ``_Layout.appended`` sets them and
    scaled as ``_phase1`` scales rows, then placed in one scatter with
    their complemented columns substituted and their basic columns
    eliminated; each one's slack is basic.  The basis stays dual feasible,
    so ``_dual_loop`` restores primal feasibility and ``_optimize``
    finishes.  ``start`` is not modified.
    """
    old_state, old = start.tableau
    layout = old.appended(rows[len(old.rows) :])
    m0, m, N0, N = len(old.rows), len(layout.rows), old.ncols, layout.ncols
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    T = np.zeros((m + 1, N + 1))
    T[:m0, :N0], T[:m0, N] = old_state.T[:m0, :N0], old_state.T[:m0, N0]
    T[m, :N0], T[m, N] = old_state.T[m0, :N0], old_state.T[m0, N0]
    slack_upper = np.array([0.0 if sense == EQ else _INF for _, sense, _, _ in layout.rows[m0:]])
    upper = np.concatenate([old_state.upper, slack_upper])
    flipped = np.concatenate([old_state.flipped, np.zeros(m - m0, dtype=np.uint8)])
    at, cols, vals, rhs, scale = _tableau_rows(layout.rows[m0:], _FLOAT)
    row_scale = np.concatenate([old_state.row_scale, scale])
    # complemented columns hold u_j - x_j: a row holding one drops its part
    # from its rhs by one dot over that row's terms in order, the sum a row
    # appended alone gets (the order of a float sum changes its bits)
    comp = flipped[cols] != 0
    shifted, terms, bounds = at[comp].tolist(), vals[comp], upper[cols[comp]]
    starts = [k for k, i in enumerate(shifted) if k == 0 or i != shifted[k - 1]]
    for lo, hi in zip(starts, starts[1:] + [len(shifted)]):
        rhs[shifted[lo]] -= terms[lo:hi] @ bounds[lo:hi]
    vals[comp] = -vals[comp]
    T[m0 + at, cols] = vals
    T[m0:m, N] = rhs
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
    status, state.iterations = _dual_loop(
        T, state.basis, state.is_basic, flipped, upper, state.allow, _FLOAT, max_iter
    )
    if status != OPTIMAL:
        return LPResult("stalled", [], None, iterations=state.iterations)
    res = _optimize(layout, state, _FLOAT, max_iter)
    if res.status == "optimal":
        res.tableau = (state, layout)
    return res


def _dual_loop(T, basis, is_basic, flipped, upper, allow, arith, max_iter):
    """Bounded dual simplex in place, from a basis whose allowed nonbasic
    columns have nonnegative reduced costs, until every basic value lies
    within its bounds; arguments as for ``_pivot_loop``.

    The leaving row is the infeasible one with the smallest basic index;
    the entering column is the allowed nonbasic column whose pivot entry
    moves that value toward its bound with the least ``max(d_j, 0) /
    |T[r, j]|``, ties to the smallest column.  A variable leaving at its
    upper bound is complemented.  Returns ``(OPTIMAL, iters)`` once primal
    feasible, ``(UNBOUNDED, iters)`` when no column can enter (the rows are
    then infeasible) or ``(ITER_LIMIT, iters)``.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    tol = arith.tol
    enterable = (allow != 0) & (is_basic == 0)
    ceiling = upper[basis] + tol  # each row's basic bound, plus the tolerance
    iters = 0
    while True:
        values = T[:m, n]
        above = values > ceiling
        rows = ((values < -tol) | above).nonzero()[0]
        if not rows.size:
            return OPTIMAL, iters
        if iters >= max_iter:
            return ITER_LIMIT, iters
        r = int(rows[basis[rows].argmin()])
        entries = T[r, :n]
        right_sign = entries > tol if above[r] else entries < -tol
        cols = (right_sign & enterable).nonzero()[0]
        if not cols.size:
            return UNBOUNDED, iters
        ratios = np.maximum(T[m, cols], 0) / np.abs(entries[cols])
        enter = int(cols[ratios.argmin()])
        lv = _pivot(T, basis, is_basic, r, enter, arith)
        iters += 1
        enterable[enter] = False
        enterable[lv] = allow[lv] != 0
        ceiling[r] = upper[enter] + tol
        if above[r]:
            _flip(T, flipped, upper, lv)


def _drive_out_artificials(T, basis, is_basic, layout, arith):
    """Degenerate pivots removing artificials from the basis where possible."""
    first = layout.first_art
    for i in np.flatnonzero(basis >= first).tolist():
        eligible = np.flatnonzero((is_basic[:first] == 0) & (np.abs(T[i, :first]) > arith.feas_tol))
        if eligible.size:  # else the row is redundant, artificial stays at zero
            _pivot(T, basis, is_basic, i, int(eligible[0]), arith)


def _pivot_loop(T, basis, is_basic, flipped, upper, allow, arith, max_iter):
    """Run Bland-rule pivots in place until optimal/unbounded/cap.

    T        : (m+1, n+1) tableau of ``arith.dtype``; last row = reduced
               costs with T[m, n] = -objective, last column = basic values.
    basis    : int64[m], variable index basic in each row.
    is_basic : uint8[n] membership flags.
    flipped  : uint8[n], 1 when the column is complemented (var at upper).
    upper    : [n] upper bounds of ``arith.dtype`` (inf allowed).
    allow    : uint8[n], 0 bars a column from entering.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    if not n:  # an LP without columns: none can enter, so the basis is optimal
        return OPTIMAL, 0
    obj = T[m, :n]
    tol, zero = arith.tol, arith.zero
    enterable = (allow != 0) & (is_basic == 0)
    # the basis and its bounds as plain numbers, kept up to date per pivot:
    # numpy scalars cost more than the arithmetic of the ratio test
    upper_of = upper.tolist()
    basic = basis.tolist()
    bounds = [upper_of[j] for j in basic]
    iters = 0
    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        # entering column: smallest index with negative reduced cost
        priced = enterable & (obj < -tol)
        enter = int(priced.argmax())
        if not priced[enter]:
            return OPTIMAL, iters
        # ratio test against basic bounds plus the entering bound flip
        column = T[:m, enter].tolist()
        values = T[:m, n].tolist()
        best_t = upper_of[enter]
        leave_row = -1
        leave_at_upper = False
        for i, d in enumerate(column):
            # float basic values may dip a hair below their bounds;
            # clamping keeps step lengths nonnegative
            if d > tol:
                v = values[i]
                t = (zero if zero > v else v) / d
                hits_upper = False
            elif d < -tol and bounds[i] != _INF:
                v = bounds[i] - values[i]
                t = (zero if zero > v else v) / (-d)
                hits_upper = True
            else:
                continue
            # ties (exact equality when tol is 0) go to the smallest basic index
            if t < best_t - tol or (
                t <= best_t + tol and (leave_row < 0 or basic[i] < basic[leave_row])
            ):
                best_t = t
                leave_row = i
                leave_at_upper = hits_upper
        if best_t == _INF:
            return UNBOUNDED, iters
        iters += 1
        if leave_row < 0:
            _flip(T, flipped, upper, enter)
            continue
        lv = _pivot(T, basis, is_basic, leave_row, enter, arith)
        basic[leave_row], bounds[leave_row] = enter, upper_of[enter]
        enterable[enter] = False
        enterable[lv] = allow[lv] != 0
        if leave_at_upper:
            # the leaving variable exits at its upper bound; complement it
            # so the rhs column is a correct basic solution again
            _flip(T, flipped, upper, lv)


def _pivot(T, basis, is_basic, row, col, arith) -> int:
    """Pivot on ``T[row, col]``: column ``col`` enters the basis in
    ``row``; returns the column that leaves it."""
    T[row] /= T[row, col]
    pivot_row = T[row]
    column = T[:, col].copy()
    column[row] = arith.zero
    # columns where the pivot row is zero would only subtract zero
    cols = pivot_row.nonzero()[0]
    if arith.exact:
        # Fraction arithmetic dominates: touch only the rows where the
        # pivot column is nonzero too
        entries = pivot_row[cols]
        for i in np.flatnonzero(column):
            T[i, cols] -= column[i] * entries
    else:
        block = T.take(cols, axis=1)
        block -= column[:, None] * block[row]
        T[:, cols] = block
    T[:, col] = arith.zero
    T[row, col] = arith.one
    leaving = int(basis[row])
    basis[row] = col
    is_basic[col] = 1
    is_basic[leaving] = 0
    return leaving


def _flip(T, flipped, upper, j):
    T[:, -1] -= T[:, j] * upper[j]
    T[:, j] *= -1
    flipped[j] ^= 1
