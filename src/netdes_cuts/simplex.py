"""Two-phase bounded-variable simplex, dense tableau, Bland's rule.

Sized for desk-scale models (up to a couple thousand rows).  Two numeric
modes share the same algorithm: float64 (numpy tableau) for the loop's
relaxations and exact rational (``Fraction`` tableau) where a result must
be certified.  Bland's smallest-index rule everywhere, which prevents
cycling.  Variables at their upper bound are kept complemented (column
negated, rhs shifted) so every nonbasic variable sits at zero.

Row duals are read off the final objective row under each row's marker
column (its slack, or its artificial for ``>=``/``=`` rows).  When phase 1
ends with a positive objective the same trick yields a Farkas certificate:
multipliers ``lam`` with ``lam·A <= 0`` on all columns (for columns with a
finite upper bound, ``sum(max(lam·A_j,0)*u_j) < lam·b`` instead) proving
the system empty.

``solve_lp_many`` solves one float LP for several objectives: phase 1 does
not read the objective, so it runs once and each phase 2 starts from a copy
of its tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class _Layout:
    """Column layout and normalized row data shared by both modes."""

    def __init__(self, n_vars: int, rows: Sequence[tuple]):
        self.n_vars = n_vars
        self.rows = []  # (coefs, sense, rhs, flipped_sign)
        for coefs, sense, rhs in rows:
            if rhs < 0:
                coefs = {j: -v for j, v in coefs.items()}
                rhs, sense = -rhs, _FLIP[sense]
                self.rows.append((coefs, sense, rhs, True))
            else:
                self.rows.append((dict(coefs), sense, rhs, False))
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

    def marker(self, i: int) -> tuple[int, bool]:
        """Column whose reduced cost encodes row i's dual (col, is_artificial)."""
        if self.art_col[i] >= 0:
            return self.art_col[i], True
        return self.slack_col[i], False


def solve_lp(
    n_vars: int,
    rows: Sequence[tuple],
    objective: Mapping[int, object] | Sequence,
    upper: Mapping[int, object] | None = None,
    exact: bool = False,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> LPResult:
    """Minimize ``objective`` over ``rows`` with ``0 <= x <= upper``.

    ``rows`` is a sequence of ``(coefs, sense, rhs)`` with sparse ``coefs``
    mappings; ``upper`` maps variable indices to finite upper bounds.
    """
    if not exact:
        return solve_lp_many(n_vars, rows, [objective], upper, tol, max_iter)[0]
    layout = _Layout(n_vars, rows)
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    return _solve_exact(layout, _sparse(objective), upper or {}, max_iter)


def solve_lp_many(
    n_vars: int,
    rows: Sequence[tuple],
    objectives: Sequence[Mapping[int, object] | Sequence],
    upper: Mapping[int, object] | None = None,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> list[LPResult]:
    """Float ``solve_lp`` for several objectives over the same feasible set.

    Phase 1 never reads the objective, so it runs once; phase 2 runs for
    each objective on a copy of the phase-1 tableau.  When phase 1 ends
    infeasible or stalled, every entry is that result.
    """
    layout = _Layout(n_vars, rows)
    if max_iter is None:
        max_iter = _default_max_iter(layout)
    start = _phase1_float(layout, upper or {}, tol, max_iter)
    if isinstance(start, LPResult):
        return [start] * len(objectives)
    results = []
    for k, objective in enumerate(objectives):
        # the last objective may consume the phase-1 tableau itself
        state = start if k == len(objectives) - 1 else start.copy()
        results.append(_phase2_float(layout, state, _sparse(objective), tol, max_iter))
    return results


def _sparse(objective) -> dict:
    if isinstance(objective, Mapping):
        return dict(objective)
    return {j: v for j, v in enumerate(objective) if v}


def _default_max_iter(layout: _Layout) -> int:
    return 10000 + 60 * (len(layout.rows) + layout.ncols)


# -- float mode ---------------------------------------------------------------


@dataclass
class _FloatState:
    """Float tableau and basis at the end of phase 1."""

    T: np.ndarray
    basis: np.ndarray
    is_basic: np.ndarray
    flipped: np.ndarray
    upper: np.ndarray
    allow: np.ndarray
    row_scale: np.ndarray
    iterations: int

    def copy(self) -> "_FloatState":
        """Copy of what phase 2 modifies; ``upper``, ``allow`` and ``row_scale`` are shared."""
        return _FloatState(
            self.T.copy(), self.basis.copy(), self.is_basic.copy(), self.flipped.copy(),
            self.upper, self.allow, self.row_scale, self.iterations,
        )


def _phase1_float(layout: _Layout, upper_map, tol, max_iter) -> _FloatState | LPResult:
    """Build the tableau and reach a feasible basis, or end infeasible/stalled."""
    m, N = len(layout.rows), layout.ncols
    T = np.zeros((m + 1, N + 1))
    upper = np.full(N, np.inf)
    for j, u in upper_map.items():
        upper[j] = float(u)
    basis = np.full(m, -1, dtype=np.int64)
    is_basic = np.zeros(N, dtype=np.uint8)
    flipped = np.zeros(N, dtype=np.uint8)
    allow = np.ones(N, dtype=np.uint8)
    allow[upper <= tol] = 0  # fixed variables never enter

    # rows are equilibrated to unit max coefficient: wide magnitude ranges
    # (scaled cut rows) otherwise invite tiny-pivot blowups
    row_scale = np.ones(m)
    for i, (coefs, sense, rhs, _) in enumerate(layout.rows):
        fcoefs = [(j, float(v)) for j, v in coefs.items()]
        biggest = max((abs(v) for _, v in fcoefs), default=0.0)
        scale = 1.0 / biggest if biggest > 0 else 1.0
        row_scale[i] = scale
        for j, v in fcoefs:
            T[i, j] = v * scale
        T[i, N] = float(rhs) * scale
        if sense == LE:
            T[i, layout.slack_col[i]] = 1.0
        elif sense == GE:
            T[i, layout.slack_col[i]] = -1.0
        if layout.art_col[i] >= 0:
            T[i, layout.art_col[i]] = 1.0
            basis[i] = layout.art_col[i]
        else:
            basis[i] = layout.slack_col[i]
        is_basic[basis[i]] = 1

    # phase 1: minimize the artificial total
    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m] -= T[i]
    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m, layout.art_col[i]] += 1.0

    status, it1 = _pivot_loop(T, basis, is_basic, flipped, upper, allow, tol, max_iter)
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=it1)
    infeas = -T[m, N]
    if infeas > 1e-7:
        lam = []
        for i in range(m):
            col, is_art = layout.marker(i)
            pi = ((1.0 if is_art else 0.0) - T[m, col]) * row_scale[i]
            lam.append(-pi if layout.rows[i][3] else pi)
        return LPResult("infeasible", [], None, farkas=lam, iterations=it1)

    _drive_out_artificials(T, basis, is_basic, layout, tol)
    allow[layout.first_art :] = 0
    return _FloatState(T, basis, is_basic, flipped, upper, allow, row_scale, it1)


def _phase2_float(layout: _Layout, state: _FloatState, obj, tol, max_iter) -> LPResult:
    """Minimize ``obj`` from the phase-1 basis in ``state`` (modified in place)."""
    T, basis, flipped, upper = state.T, state.basis, state.flipped, state.upper
    m, N = len(layout.rows), layout.ncols
    # phase 2 objective row, accounting for already-complemented columns
    T[m, :] = 0.0
    const = 0.0
    eff = np.zeros(N)
    for j, v in obj.items():
        if flipped[j]:
            eff[j] = -float(v)
            const += float(v) * upper[j]
        else:
            eff[j] = float(v)
    T[m, :N] = eff
    for i in range(m):
        cb = eff[basis[i]]
        if cb != 0.0:
            T[m] -= cb * T[i]
    T[m, N] -= const

    status, it2 = _pivot_loop(T, basis, state.is_basic, flipped, upper, state.allow, tol, max_iter)
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
        col, _ = layout.marker(i)
        pi = -T[m, col] * state.row_scale[i]
        duals.append(-pi if layout.rows[i][3] else pi)
    return LPResult("optimal", list(values[: layout.n_vars]), -T[m, N], duals=duals, iterations=iters)


def _drive_out_artificials(T, basis, is_basic, layout, tol):
    """Degenerate pivots removing artificials from the basis where possible."""
    m = T.shape[0] - 1
    for i in range(m):
        if basis[i] < layout.first_art:
            continue
        for j in range(layout.first_art):
            if not is_basic[j] and abs(T[i, j]) > max(tol, 1e-7):
                lv = basis[i]
                _pivot(T, i, j)
                basis[i] = j
                is_basic[j] = 1
                is_basic[lv] = 0
                break
        # no eligible column: the row is redundant, artificial stays at zero


def _pivot_loop(T, basis, is_basic, flipped, upper, allow, tol, max_iter):
    """Run Bland-rule pivots in place until optimal/unbounded/cap.

    T        : (m+1, n+1) float64 tableau; last row = reduced costs with
               T[m, n] = -objective, last column = basic values.
    basis    : int64[m], variable index basic in each row.
    is_basic : uint8[n] membership flags.
    flipped  : uint8[n], 1 when the column is complemented (var at upper).
    upper    : float64[n] upper bounds (inf allowed).
    allow    : uint8[n], 0 bars a column from entering.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    obj = T[m]
    iters = 0
    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        # entering column: smallest index with negative reduced cost
        enter = -1
        for j in range(n):
            if allow[j] and not is_basic[j] and obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, iters
        # ratio test against basic bounds plus the entering bound flip
        best_t = upper[enter]
        leave_row = -1
        leave_at_upper = False
        for i in range(m):
            d = T[i, enter]
            # basic values may dip a hair below their bounds numerically;
            # clamping keeps step lengths nonnegative
            if d > tol:
                t = max(T[i, n], 0.0) / d
                hits_upper = False
            elif d < -tol and upper[basis[i]] != _INF:
                t = max(upper[basis[i]] - T[i, n], 0.0) / (-d)
                hits_upper = True
            else:
                continue
            if t < best_t - tol or (
                t < best_t + tol and (leave_row < 0 or basis[i] < basis[leave_row])
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
        lv = basis[leave_row]
        _pivot(T, leave_row, enter)
        basis[leave_row] = enter
        is_basic[enter] = 1
        is_basic[lv] = 0
        if leave_at_upper:
            # the leaving variable exits at its upper bound; complement it
            # so the rhs column is a correct basic solution again
            _flip(T, flipped, upper, lv)


def _pivot(T, row, col):
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _flip(T, flipped, upper, j):
    T[:, -1] -= T[:, j] * upper[j]
    T[:, j] *= -1.0
    flipped[j] ^= 1


# -- exact mode ---------------------------------------------------------------

F0 = Fraction(0)
F1 = Fraction(1)


def _solve_exact(layout: _Layout, obj, upper_map, max_iter) -> LPResult:
    m, N = len(layout.rows), layout.ncols
    T = [[F0] * (N + 1) for _ in range(m + 1)]
    upper: list[Fraction | None] = [None] * N
    for j, u in upper_map.items():
        upper[j] = Fraction(u)
    basis = [-1] * m
    is_basic = [False] * N
    flipped = [False] * N
    allow = [True] * N
    for j in range(N):
        if upper[j] is not None and upper[j] == 0:
            allow[j] = False

    for i, (coefs, sense, rhs, _) in enumerate(layout.rows):
        row = T[i]
        for j, v in coefs.items():
            row[j] = Fraction(v)
        row[N] = Fraction(rhs)
        if sense == LE:
            row[layout.slack_col[i]] = F1
        elif sense == GE:
            row[layout.slack_col[i]] = -F1
        if layout.art_col[i] >= 0:
            row[layout.art_col[i]] = F1
            basis[i] = layout.art_col[i]
        else:
            basis[i] = layout.slack_col[i]
        is_basic[basis[i]] = True

    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m] = [a - b for a, b in zip(T[m], T[i])]
    for i in range(m):
        if layout.art_col[i] >= 0:
            T[m][layout.art_col[i]] += F1

    status, it1 = _pivot_loop_exact(T, basis, is_basic, flipped, upper, allow, max_iter)
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=it1)
    if -T[m][N] > 0:
        lam = []
        for i in range(m):
            col, is_art = layout.marker(i)
            pi = (F1 if is_art else F0) - T[m][col]
            lam.append(-pi if layout.rows[i][3] else pi)
        return LPResult("infeasible", [], None, farkas=lam, iterations=it1)

    for i in range(m):
        if basis[i] >= layout.first_art:
            for j in range(layout.first_art):
                if not is_basic[j] and T[i][j] != 0:
                    lv = basis[i]
                    _pivot_exact(T, i, j)
                    basis[i] = j
                    is_basic[j] = True
                    is_basic[lv] = False
                    break
    for j in range(layout.first_art, N):
        allow[j] = False

    T[m] = [F0] * (N + 1)
    const = F0
    for j, v in obj.items():
        v = Fraction(v)
        if flipped[j]:
            T[m][j] = -v
            const += v * upper[j]
        else:
            T[m][j] = v
    for i in range(m):
        cb = T[m][basis[i]]
        if cb != 0:
            T[m] = [a - cb * b for a, b in zip(T[m], T[i])]
    T[m][N] -= const

    status, it2 = _pivot_loop_exact(T, basis, is_basic, flipped, upper, allow, max_iter)
    iters = it1 + it2
    if status == ITER_LIMIT:
        return LPResult("stalled", [], None, iterations=iters)
    if status == UNBOUNDED:
        return LPResult("unbounded", [], None, iterations=iters)

    values = [F0] * N
    for i in range(m):
        values[basis[i]] = T[i][N]
    for j in range(N):
        if flipped[j]:
            values[j] = upper[j] - values[j]
    duals = []
    for i in range(m):
        col, _ = layout.marker(i)
        pi = -T[m][col]
        duals.append(-pi if layout.rows[i][3] else pi)
    return LPResult("optimal", values[: layout.n_vars], -T[m][N], duals=duals, iterations=iters)


def _pivot_loop_exact(T, basis, is_basic, flipped, upper, allow, max_iter):
    """Fraction twin of the float kernel; tolerances are exact zero tests."""
    m = len(T) - 1
    n = len(T[0]) - 1
    iters = 0
    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        obj = T[m]
        enter = -1
        for j in range(n):
            if allow[j] and not is_basic[j] and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, iters
        best_t = upper[enter]  # None means unbounded direction so far
        leave_row = -1
        leave_at_upper = False
        for i in range(m):
            d = T[i][enter]
            if d > 0:
                t = T[i][n] / d
                hits_upper = False
            elif d < 0 and upper[basis[i]] is not None:
                t = (upper[basis[i]] - T[i][n]) / (-d)
                hits_upper = True
            else:
                continue
            if (
                best_t is None
                or t < best_t
                or (t == best_t and (leave_row < 0 or basis[i] < basis[leave_row]))
            ):
                best_t = t
                leave_row = i
                leave_at_upper = hits_upper
        if best_t is None:
            return UNBOUNDED, iters
        iters += 1
        if leave_row < 0:
            _flip_exact(T, flipped, upper, enter)
            continue
        lv = basis[leave_row]
        _pivot_exact(T, leave_row, enter)
        basis[leave_row] = enter
        is_basic[enter] = True
        is_basic[lv] = False
        if leave_at_upper:
            _flip_exact(T, flipped, upper, lv)


def _pivot_exact(T, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for i in range(len(T)):
        if i == row:
            continue
        factor = T[i][col]
        if factor != 0:
            T[i] = [a - factor * b for a, b in zip(T[i], prow)]


def _flip_exact(T, flipped, upper, j):
    u = upper[j]
    n = len(T[0]) - 1
    for i in range(len(T)):
        row = T[i]
        if row[j] != 0:
            row[n] -= row[j] * u
            row[j] = -row[j]
    flipped[j] = not flipped[j]
