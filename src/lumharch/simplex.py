"""Bounded-variable dual simplex on a factorized basis.

Solves  min c.x  s.t.  the rows of a :class:`Rows`,  l <= x <= u  with
finite bounds on all structural variables.  The rows arrive as arrays (the
row, column and coefficient of each nonzero, a relation code and a
right-hand side per row), and a form is built from them in one scatter.

One loop, a bounded dual simplex, solves every LP, from one of two starts.
The cold start (the root, and every fallback) is the slack basis with each
structural nonbasic at the bound its cost favours: the upper bound where
``c_j < 0``, the lower bound otherwise.  Every reduced cost is then ``c_j``
with the sign optimality needs, so the start is dual feasible and no
phase 1 is needed; that is why every structural must be boxed, and why
:func:`build_standard_form` rejects a bound that is not finite.  The warm
start is a parent's optimal :class:`Basis`: a branch-and-bound child
differs from its parent only in a structural bound, so the parent's basis
stays dual feasible and ``solve_lp(form, bounds, warm=parent.basis)``
re-optimizes from it, where ``bounds`` patches the form's bounds column by
column, ``{column: (lower, upper)}``.

Rows can be appended to a solved LP (``solve_lp(..., separate=...)``,
which the solver uses for its lazy rows).  :func:`append_rows` puts them
below the old rows and their slacks after the last column, so every old
row and column keeps its index.  The last optimal basis extends with the
new slacks, basic in their own rows.  Their duals are zero, so every reduced
cost is unchanged and the extended basis is dual feasible; a violated row
makes its slack primal infeasible, which is the start the warm dual
simplex takes.  The new rows are basic-slack rows, so the inverted block
of basic structural columns does not grow.  A warm start may come from
an earlier form of the same LP with fewer rows, and is extended the same
way; the solver's lazy rows are global, so a child's parent may have been
solved before the latest of them were appended.

The leaving row maximizes ``infeas_i**2 / w_i`` over the primal
infeasibilities beyond 1e-9.  On the cold start ``w_i`` is the exact dual
steepest-edge weight ``||e_i B^-1||**2`` (Forrest & Goldfarb 1992): 1 for
the slack basis, whose ``B`` is ``diag(+-1)``, then updated at each pivot
with one extra ``ftran`` of the leaving row of ``B^-1``.  An update that
falls below its Cauchy-Schwarz lower bound ``(alpha_i / alpha_r)**2 /
||a_p||**2``, where ``a_p`` is the leaving column, is raised to it.  The warm
start keeps ``w = 1``, the largest infeasibility, because a child takes
few pivots.  The entering column is the smallest dual ratio, ties broken
by the largest ``|alpha_j|`` and then the lowest index.

The form stores only the structural block of ``[A | S]``: slack i is the
signed unit column ``sign_i e_i``, so every product with ``[A | S]`` takes
its slack part from the sign vector.  For the same reason only the k x k
block of basic structural columns over the rows whose slack is nonbasic
is inverted (k = 15-35 against m = 142-203 rows on the warm starts of the
benchmark's deep NSF and COST239 solves; k = 0 at the slack basis).
``B^-1`` is applied in block form through that inverse, and each pivot
appends one eta vector (product form).  Every 32 etas the basis is
factorized afresh and the basic values and reduced costs are recomputed
from the original ``A``.  Row r of ``B^-1 A`` is ``e_r B^-1 A`` over the
nonzero entries of ``e_r B^-1``, and the entering column is ``B^-1 a_q``.
The block is inverted by LAPACK (``np.linalg.inv``).

Only the cold start may report "infeasible", and only with a certificate:
when the ratio test finds no entering column, the row ``e_r B^-1 A x =
e_r B^-1 b`` must admit no point within the bounds (see
:func:`_certified`).  A warm attempt falls back to the cold start, and
adds its pivots to the returned ``iterations``, when the structural block
is singular or nearly so (an entry of its inverse above 1e11, or not
finite), on an entering pivot ``(B^-1 a_q)_r`` below 1e-11, when the ratio
test finds no entering column, after one pivot per standard-form column,
when the final point misses ``A x = b`` by more than 1e-7 or leaves its
bounds, and when a final reduced cost, recomputed from a fresh ``btran``,
has the wrong sign.  The same failures on the cold start, a failed
certificate, or more than four pivots per column, raise
:class:`SimplexError`; they never return a wrong answer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
WARM_TOL = 1e-7
REFACTOR_ETAS = 32
COLD_PIVOTS_PER_COLUMN = 4

AT_LOWER = 0
AT_UPPER = 1


class SimplexError(RuntimeError):
    """Numerical breakdown or iteration explosion; the caller must abort.
    ``pivots`` counts the pivots made before it."""

    def __init__(self, message: str, pivots: int = 0) -> None:
        super().__init__(message)
        self.pivots = pivots


@dataclass(frozen=True)
class Basis:
    """A basis over standard-form columns (structurals, then slacks)."""

    columns: np.ndarray  # the basic column of each row
    at_upper: np.ndarray  # per column: nonbasic at its upper bound


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible"
    value: float
    x: np.ndarray | None
    iterations: int
    basis: Basis | None = None  # set when status is "optimal"
    form: StandardForm | None = None  # the form solved, appended rows included


# Relation codes: the sign that ``rhs - lhs`` may take in a row.
LE, EQ, GE = 1, 0, -1


@dataclass(frozen=True, eq=False)
class Rows:
    """Constraint rows as arrays: nonzero k of the matrix is ``coef[k]`` at
    ``(row[k], col[k])``, no row holds a column twice, and row i reads
    ``A_i x  rel[i]  rhs[i]`` with ``rel[i]`` one of ``LE``, ``GE``, ``EQ``."""

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray

    def __len__(self) -> int:
        return len(self.rel)


@dataclass
class StandardForm:
    """Equality system [A | S] x = b with per-column bounds, built once per
    model and re-solved under different structural bounds during search.

    Only the m x n structural block ``A`` is stored.  ``S`` is
    ``diag(sign)``: the slack of row i is column ``n + i``, with coefficient
    +1 in a ``<=`` or ``=`` row (fixed at 0 in an equality) and -1 in a
    ``>=`` row."""

    a: np.ndarray  # m x n, the structural columns
    sign: np.ndarray  # per row: its slack's coefficient
    b: np.ndarray
    c: np.ndarray  # per column, structurals then slacks
    lower: np.ndarray
    upper: np.ndarray

    def column(self, j: int) -> np.ndarray:
        """Column j of ``[A | S]``."""
        m, n = self.a.shape
        if j < n:
            return self.a[:, j]
        col = np.zeros(m)
        col[j - n] = self.sign[j - n]
        return col

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``[A | S] x``."""
        n = self.a.shape[1]
        return self.a @ x[:n] + self.sign * x[n:]

    def rmatvec(self, y: np.ndarray, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """``y [A | S]``, summed over ``rows`` only (``y`` must be zero on the
        others)."""
        return np.concatenate((y[rows] @ self.a[rows], y * self.sign))


def build_standard_form(c: np.ndarray, rows: Rows, lower: np.ndarray, upper: np.ndarray) -> StandardForm:
    """The form of ``min c.x`` over ``rows`` and ``lower <= x <= upper``.
    Raises ``ValueError`` on a structural bound that is not finite: the cold
    start is dual feasible only when every structural is boxed."""
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("every structural bound must be finite")
    empty = StandardForm(a=np.zeros((0, len(c))), sign=np.zeros(0), b=np.zeros(0), c=c, lower=lower, upper=upper)
    return append_rows(empty, rows)


def append_rows(form: StandardForm, rows: Rows) -> StandardForm:
    """A new form with ``rows`` added below the rows of ``form``, each row's
    slack added after the last column, so every old row and column keeps its
    index; ``form`` is left as it is."""
    (m, n), k = form.a.shape, len(rows)
    if np.any(np.abs(rows.rel) > 1):
        raise ValueError("bad relation code")
    a = np.zeros((m + k, n))
    a[:m] = form.a
    a[m + rows.row, rows.col] = rows.coef
    return StandardForm(
        a=a,
        sign=np.concatenate((form.sign, np.where(rows.rel == GE, -1.0, 1.0))),
        b=np.concatenate((form.b, rows.rhs)),
        c=np.concatenate((form.c, np.zeros(k))),
        lower=np.concatenate((form.lower, np.zeros(k))),
        upper=np.concatenate((form.upper, np.where(rows.rel == EQ, 0.0, np.inf))),
    )


def solve_lp(
    form: StandardForm,
    bounds: dict[int, tuple[float, float]] | None = None,
    warm: Basis | None = None,
    separate: Callable[[LpSolution], Rows] | None = None,
) -> LpSolution:
    """Optimize with the form's bounds patched by ``bounds``, a map from a
    column to its ``(lower, upper)``; ``warm`` is a basis that is optimal
    under bounds the patch only tightens, for this form or for an earlier
    form of it with fewer rows (see :func:`append_rows`).

    ``separate``, when given, is called with each optimal solution and
    returns rows to add (none ends the rounds).  The rows are appended with
    :func:`append_rows`, and the LP is re-optimized from the last basis.
    The returned ``form`` is the form of the last round, and ``iterations``
    counts the pivots of every round.  Raises :class:`SimplexError` when a
    cold start breaks down."""
    lo, up = form.lower.copy(), form.upper.copy()
    for j, (low, high) in (bounds or {}).items():
        lo[j], up[j] = low, high
    if np.any(lo > up + FEAS_TOL):
        return LpSolution(status="infeasible", value=np.inf, x=None, iterations=0, form=form)
    sol = _solve(form, lo, up, warm)
    while separate is not None and sol.status == "optimal":
        rows = separate(sol)
        if not rows:
            break
        total = len(form.c)
        form = append_rows(form, rows)
        lo = np.concatenate((lo, form.lower[total:]))
        up = np.concatenate((up, form.upper[total:]))
        pivots = sol.iterations
        sol = _solve(form, lo, up, sol.basis)
        sol.iterations += pivots
    sol.form = form
    return sol


def _extended(basis: Basis, form: StandardForm) -> Basis:
    """``basis``, of ``form`` or of an earlier form of it with fewer rows,
    extended by the later rows' slacks, each basic in its own row."""
    total, k = len(basis.at_upper), len(form.c) - len(basis.at_upper)
    return Basis(
        columns=np.concatenate((basis.columns, np.arange(total, total + k))),
        at_upper=np.concatenate((basis.at_upper, np.zeros(k, dtype=bool))),
    )


def _solve(form: StandardForm, lo: np.ndarray, up: np.ndarray, warm: Basis | None) -> LpSolution:
    """The warm attempt from ``warm`` (see :func:`_extended`), if any, then
    the cold start."""
    pivots = 0
    if warm is not None:
        try:
            return _run(form, lo, up, _extended(warm, form), cold=False)
        except SimplexError as err:
            pivots = err.pivots
    m, n = form.a.shape
    at_upper = np.zeros(n + m, dtype=bool)
    at_upper[:n] = form.c[:n] < 0
    sol = _run(form, lo, up, Basis(columns=np.arange(n, n + m), at_upper=at_upper), cold=True)
    sol.iterations += pivots
    return sol


class _Factor:
    """The inverse of a basis ``A[:, columns]`` in product form: a block
    inverse of the starting basis, then one eta vector per pivot.

    A basic slack's column is a signed unit column.  With the rows whose
    slack is nonbasic (``free``) first and the basic slacks' rows
    (``fixed``) last, the starting basis is block lower triangular,
    ``[[B11, 0], [B21, diag(sign)]]``, so only the k x k block ``B11`` of
    basic structural columns is inverted.  A pivot at position r whose
    entering column has ``ftran`` ``col`` multiplies ``B^-1`` on the left by
    ``I - eta e_r^T``, with ``eta = col / col[r]`` except
    ``eta[r] = 1 - 1 / col[r]``.  Raises ``LinAlgError`` when ``B11`` is
    singular or nearly so.  LAPACK raises only on an exactly singular block,
    so an inverse with an entry above ``1 / PIVOT_TOL``, or one that is not
    finite, is rejected too: for ``[[1, 1], [2, 2 + 1e-13]]`` LAPACK returns
    a finite inverse with entries near 1e13.
    """

    def __init__(self, form: StandardForm, columns: np.ndarray) -> None:
        a, n = form.a, form.a.shape[1]
        struct = columns < n
        self.pos_struct = np.flatnonzero(struct)
        self.pos_slack = np.flatnonzero(~struct)
        self.fixed = columns[self.pos_slack] - n
        free = np.ones(a.shape[0], dtype=bool)
        free[self.fixed] = False
        self.free = np.flatnonzero(free)
        cols = columns[self.pos_struct]
        self.inv = np.linalg.inv(a[np.ix_(self.free, cols)])
        if not np.all(np.abs(self.inv) <= 1.0 / PIVOT_TOL):
            raise np.linalg.LinAlgError("basis block is nearly singular")
        self.b21 = a[np.ix_(self.fixed, cols)]
        self.sign = form.sign[self.fixed]
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` for ``v`` over rows; the result is over basis positions."""
        y = np.empty(v.shape[0])
        ys = self.inv @ v[self.free]
        y[self.pos_struct] = ys
        y[self.pos_slack] = (v[self.fixed] - self.b21 @ ys) / self.sign
        for r, eta in self.etas:
            if y[r] != 0.0:
                y -= eta * y[r]
        return y

    def btran(self, w: np.ndarray) -> np.ndarray:
        """``w B^-1`` for ``w`` over basis positions; the result is over rows."""
        w = w.copy()
        for r, eta in reversed(self.etas):
            w[r] -= eta @ w
        u = np.empty(w.shape[0])
        us = w[self.pos_slack] / self.sign
        u[self.fixed] = us
        u[self.free] = (w[self.pos_struct] - us @ self.b21) @ self.inv
        return u

    def replace(self, r: int, col: np.ndarray) -> None:
        """The column whose ``ftran`` is ``col`` takes basis position r."""
        eta = col / col[r]
        eta[r] = 1.0 - 1.0 / col[r]
        self.etas.append((r, eta))


def _run(form: StandardForm, lo: np.ndarray, up: np.ndarray, start: Basis, cold: bool) -> LpSolution:
    """The bounded dual simplex from ``start``, which must be dual feasible.
    ``cold`` turns on dual steepest-edge pricing, the looser pivot cap and
    the certified "infeasible".  Raises :class:`SimplexError`, with the
    pivots made, on any breakdown."""
    m, n = form.a.shape
    total = n + m
    basis = start.columns.copy()
    status = np.where(start.at_upper & np.isfinite(up), AT_UPPER, AT_LOWER).astype(np.int8)
    nonbasic = np.ones(total, dtype=bool)
    nonbasic[basis] = False
    movable = (up - lo) > FEAS_TOL
    pivots = 0

    def factorize() -> tuple[_Factor, np.ndarray, np.ndarray]:
        """A fresh factor of the basis, with the basic values and reduced
        costs recomputed from the original ``A``."""
        try:
            factor = _Factor(form, basis)
        except np.linalg.LinAlgError as err:
            raise SimplexError(str(err), pivots) from None
        x = np.where(status == AT_UPPER, up, lo)
        x[basis] = 0.0
        return factor, factor.ftran(form.b - form.matvec(x)), form.c - form.rmatvec(factor.btran(form.c[basis]))

    factor, beta, d = factorize()
    if not _dual_feasible(d, status, movable & nonbasic):
        raise SimplexError("start is not dual feasible")
    # One pivot per column is a generous warm budget: longer is cycling.
    limit = COLD_PIVOTS_PER_COLUMN * total if cold else total
    weights = np.ones(m)
    unit = np.zeros(m)
    while True:
        if len(factor.etas) >= REFACTOR_ETAS:
            factor, beta, d = factorize()
        infeas = np.maximum(lo[basis] - beta, beta - up[basis])
        infeas[infeas <= FEAS_TOL] = 0.0
        r = int(np.argmax(infeas * infeas / weights))
        if infeas[r] == 0.0:
            break
        if pivots >= limit:
            raise SimplexError("pivot cap reached", pivots)
        leaving = int(basis[r])
        to_upper = beta[r] > up[leaving]
        # Row r of B^-1 A, over the rows where row r of B^-1 is nonzero.
        unit[r] = 1.0
        rho = factor.btran(unit)
        unit[r] = 0.0
        rows = np.flatnonzero(rho)
        alpha = form.rmatvec(rho, rows)
        s = alpha if to_upper else -alpha
        at_lo = status == AT_LOWER
        cand = np.flatnonzero(movable & nonbasic & ((at_lo & (s > FEAS_TOL)) | (~at_lo & (s < -FEAS_TOL))))
        if cand.size == 0:
            if cold and _certified(alpha, rho[rows] @ form.b[rows], basis, r, lo, up):
                return LpSolution(status="infeasible", value=np.inf, x=None, iterations=pivots)
            raise SimplexError("dual ratio test found no entering column", pivots)
        ratios = np.maximum(np.where(at_lo[cand], d[cand], -d[cand]), 0.0) / np.abs(s[cand])
        tied = cand[ratios <= ratios.min() + FEAS_TOL]
        q = int(tied[int(np.argmax(np.abs(alpha[tied])))])

        pivots += 1
        col = factor.ftran(form.column(q))
        if abs(col[r]) < PIVOT_TOL:
            raise SimplexError("pivot element vanished", pivots)
        if cold:
            leaving_col = form.column(leaving)
            _update_weights(weights, r, col, factor.ftran(rho), leaving_col @ leaving_col)
        step = (beta[r] - (up[leaving] if to_upper else lo[leaving])) / alpha[q]
        enter_val = (lo[q] if status[q] == AT_LOWER else up[q]) + step
        theta = d[q] / alpha[q]
        beta -= col * step
        beta[r] = enter_val
        d -= theta * alpha
        d[leaving] = -theta
        d[q] = 0.0
        status[leaving] = AT_UPPER if to_upper else AT_LOWER
        nonbasic[leaving] = True
        nonbasic[q] = False
        basis[r] = q
        factor.replace(r, col)

    x = np.where(status == AT_UPPER, up, lo)
    x[basis] = beta
    if (
        not np.all(np.isfinite(x))
        or np.max(np.abs(form.matvec(x) - form.b), initial=0.0) > WARM_TOL
        or np.any(x < lo - WARM_TOL)
        or np.any(x > up + WARM_TOL)
    ):
        raise SimplexError("final point drifted off A x = b or its bounds", pivots)
    d = form.c - form.rmatvec(factor.btran(form.c[basis]))
    if not _dual_feasible(d, status, movable & nonbasic):
        raise SimplexError("final reduced costs are not dual feasible", pivots)
    return LpSolution(
        status="optimal",
        value=float(form.c @ x),
        x=x[:n].copy(),
        iterations=pivots,
        basis=Basis(columns=basis, at_upper=nonbasic & (status == AT_UPPER)),
    )


def _update_weights(w: np.ndarray, r: int, col: np.ndarray, tau: np.ndarray, leaving_norm2: float) -> None:
    """Dual steepest-edge weights ``w_i = ||e_i B^-1||**2`` after the pivot
    in row r, in place (Forrest & Goldfarb 1992).  ``col`` is the entering
    column's ``ftran``, ``tau`` the ``ftran`` of ``rho = e_r B^-1`` (so
    ``w_r = ||rho||**2``) and ``leaving_norm2`` the leaving column's squared
    norm.  Row i of the new inverse is ``e_i B^-1 - (col_i / col_r) rho``,
    and its product with the leaving column is ``-col_i / col_r``, so by
    Cauchy-Schwarz no weight is below ``(col_i / col_r)**2 / leaving_norm2``;
    a rounded update is raised to that bound."""
    w_r = w[r]
    ratio = col / col[r]
    nz = np.flatnonzero(ratio)
    k = ratio[nz]
    w[nz] = np.maximum(w[nz] - 2.0 * k * tau[nz] + k * k * w_r, k * k / leaving_norm2)
    w[r] = w_r / (col[r] * col[r])


def _certified(alpha: np.ndarray, rhs: float, basis: np.ndarray, r: int, lo: np.ndarray, up: np.ndarray) -> bool:
    """True when the row ``alpha . x = rhs``, row r of ``B^-1 A x = B^-1 b``,
    proves the LP infeasible: ``rhs`` lies more than ``WARM_TOL`` outside
    the range of ``alpha . x`` over the bounds.  Entries within ``FEAS_TOL``
    of zero count as zero, and the basic columns' entries as the unit row
    they are in exact arithmetic."""
    alpha = np.where(np.abs(alpha) > FEAS_TOL, alpha, 0.0)
    alpha[basis] = 0.0
    alpha[basis[r]] = 1.0
    nz = np.flatnonzero(alpha)
    coef = alpha[nz]
    pos = coef > 0
    least = coef @ np.where(pos, lo[nz], up[nz])
    most = coef @ np.where(pos, up[nz], lo[nz])
    return bool(rhs < least - WARM_TOL or rhs > most + WARM_TOL)


def _dual_feasible(d: np.ndarray, status: np.ndarray, free: np.ndarray) -> bool:
    """No movable nonbasic column could improve the objective."""
    at_lo = status == AT_LOWER
    return not np.any(free & ((at_lo & (d < -WARM_TOL)) | (~at_lo & (d > WARM_TOL))))
