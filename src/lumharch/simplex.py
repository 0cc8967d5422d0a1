"""Bounded-variable dual simplex on a factorized basis.

Solves  min c.x  s.t.  rows of (terms, relation, rhs),  l <= x <= u  with
finite bounds on all structural variables.

One loop, a bounded dual simplex, solves every LP, from one of two starts.
The cold start (the root, and every fallback) is the slack basis with each
structural nonbasic at the bound its cost favours: the upper bound where
``c_j < 0``, the lower bound otherwise.  Every reduced cost is then ``c_j``
with the sign optimality needs, so the start is dual feasible and no
phase 1 is needed; that is why every structural must be boxed, and why
:func:`build_standard_form` rejects a bound that is not finite.  The warm
start is a parent's optimal :class:`Basis`: a branch-and-bound child
differs from its parent only in a structural bound, so the parent's basis
stays dual feasible and ``solve_lp(..., warm=parent.basis)`` re-optimizes
from it.

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

A basic slack's column is a signed unit column, so only the k x k block
of basic structural columns over the rows whose slack is nonbasic is
inverted (k = 53-104 against m = 345-427 rows on the children of the
benchmark's deep NSF and COST239 solves; k = 0 at the slack basis).
``B^-1`` is applied in block form through that inverse, and each pivot
appends one eta vector (product form).  Every 32 etas the basis is
factorized afresh and the basic values and reduced costs are recomputed
from the original ``A``.  Row r of ``B^-1 A`` is ``e_r B^-1 A`` over the
nonzero entries of ``e_r B^-1``, and the entering column is ``B^-1 a_q``.
The block is inverted by Gauss-Jordan exchanges in elementwise numpy, not
LAPACK: the first LAPACK call of a process pages in about 0.5 MB, which
showed as +0.5 MB of peak memory on the deep NSF benchmark workload.

Only the cold start may report "infeasible", and only with a certificate:
when the ratio test finds no entering column, the row ``e_r B^-1 A x =
e_r B^-1 b`` must admit no point within the bounds (see
:func:`_certified`).  A warm attempt falls back to the cold start, and
adds its pivots to the returned ``iterations``, when the structural block
is singular (a Gauss-Jordan pivot below 1e-11) or its inverse is not
finite, on an entering pivot ``(B^-1 a_q)_r`` below 1e-11, when the ratio
test finds no entering column, after one pivot per standard-form column,
when the final point misses ``A x = b`` by more than 1e-7 or leaves its
bounds, and when a final reduced cost, recomputed from a fresh ``btran``,
has the wrong sign.  The same failures on the cold start, a failed
certificate, or more than four pivots per column, raise
:class:`SimplexError`; they never return a wrong answer.
"""

from __future__ import annotations

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


@dataclass
class StandardForm:
    """Equality system [A | S] x = b with per-column bounds, built once per
    model and re-solved under different structural bounds during search."""

    a: np.ndarray  # m rows, structural columns then one slack per row
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_struct: int


def build_standard_form(
    n_struct: int,
    objective: list[tuple[int, int]],
    rows: list[tuple[tuple[tuple[int, int], ...], str, float]],
    lower: np.ndarray,
    upper: np.ndarray,
) -> StandardForm:
    """rows are (terms, relation, rhs) with relation one of '<=', '>=', '='.
    Raises ``ValueError`` on a structural bound that is not finite: the cold
    start is dual feasible only when every structural is boxed."""
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("every structural bound must be finite")
    m = len(rows)
    total = n_struct + m
    a = np.zeros((m, total))
    b = np.zeros(m)
    lo = np.zeros(total)
    up = np.full(total, np.inf)
    lo[:n_struct] = lower
    up[:n_struct] = upper
    for i, (terms, rel, rhs) in enumerate(rows):
        for j, coef in terms:
            a[i, j] += coef
        b[i] = rhs
        slack = n_struct + i
        if rel == "<=":
            a[i, slack] = 1.0
        elif rel == ">=":
            a[i, slack] = -1.0
        elif rel == "=":
            a[i, slack] = 1.0
            up[slack] = 0.0
        else:
            raise ValueError(f"bad relation {rel!r}")
    c = np.zeros(total)
    for j, coef in objective:
        c[j] = float(coef)
    return StandardForm(a=a, b=b, c=c, lower=lo, upper=up, n_struct=n_struct)


def solve_lp(
    form: StandardForm,
    lower_override: np.ndarray | None = None,
    upper_override: np.ndarray | None = None,
    warm: Basis | None = None,
) -> LpSolution:
    """Optimize under the overridden structural bounds; ``warm`` is a basis
    that is optimal for the same form under bounds these only tighten.
    Raises :class:`SimplexError` when the cold start breaks down."""
    lo = form.lower.copy()
    up = form.upper.copy()
    if lower_override is not None:
        lo[: form.n_struct] = lower_override
    if upper_override is not None:
        up[: form.n_struct] = upper_override
    if np.any(lo > up + FEAS_TOL):
        return LpSolution(status="infeasible", value=np.inf, x=None, iterations=0)
    pivots = 0
    if warm is not None:
        sol, pivots = _dual_simplex(form, lo, up, warm)
        if sol is not None:
            return sol
    n, m = form.n_struct, form.a.shape[0]
    at_upper = np.zeros(n + m, dtype=bool)
    at_upper[:n] = form.c[:n] < 0
    sol = _run(form, lo, up, Basis(columns=np.arange(n, n + m), at_upper=at_upper), cold=True)
    sol.iterations += pivots
    return sol


def _dual_simplex(
    form: StandardForm, lo: np.ndarray, up: np.ndarray, warm: Basis
) -> tuple[LpSolution | None, int]:
    """The warm attempt from ``warm``; returns (None, pivots spent) when it
    must fall back to the cold start."""
    try:
        sol = _run(form, lo, up, warm, cold=False)
    except SimplexError as err:
        return None, err.pivots
    return sol, sol.iterations


def _invert(block: np.ndarray) -> np.ndarray:
    """Inverse of a square block by Gauss-Jordan exchanges with partial
    pivoting, in elementwise numpy (see the module docstring for why not
    LAPACK).  Each exchange updates only the rows where the pivot column is
    nonzero.  Raises ``LinAlgError`` when the block is not square, a pivot
    falls below ``PIVOT_TOL`` or the result is not finite."""
    k = block.shape[0]
    if block.shape[1] != k:
        raise np.linalg.LinAlgError("basis block is not square")
    t = block.copy()
    avail = np.ones(k)
    order = np.empty(k, dtype=np.int64)
    for j in range(k):
        size = np.abs(t[:, j]) * avail
        i = int(np.argmax(size))
        if size[i] < PIVOT_TOL:
            raise np.linalg.LinAlgError("singular basis block")
        pivot = t[i, j]
        col = t[:, j] / pivot
        row = t[i].copy()
        live = np.flatnonzero(col)
        t[live] -= np.multiply.outer(col[live], row)
        t[i] = row / -pivot
        t[:, j] = col
        t[i, j] = 1.0 / pivot
        avail[i] = 0.0
        order[j] = i
    if not np.all(np.isfinite(t)):
        raise np.linalg.LinAlgError("basis inverse is not finite")
    inv = np.empty_like(t)
    inv[:, order] = t[order]
    return inv


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
    singular or its inverse is not finite.
    """

    def __init__(self, a: np.ndarray, columns: np.ndarray, n: int) -> None:
        struct = columns < n
        self.pos_struct = np.flatnonzero(struct)
        self.pos_slack = np.flatnonzero(~struct)
        self.fixed = columns[self.pos_slack] - n
        free = np.ones(a.shape[0], dtype=bool)
        free[self.fixed] = False
        self.free = np.flatnonzero(free)
        cols = columns[self.pos_struct]
        self.inv = _invert(a[np.ix_(self.free, cols)])
        self.b21 = a[np.ix_(self.fixed, cols)]
        self.sign = a[self.fixed, n + self.fixed]
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` for ``v`` over rows; the result is over basis positions."""
        y = np.empty(v.shape[0])
        ys = self.inv @ v[self.free]
        y[self.pos_struct] = ys
        y[self.pos_slack] = (v[self.fixed] - self.b21 @ ys) / self.sign
        for r, eta in self.etas:
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
    m, total = form.a.shape
    n = form.n_struct
    a = form.a
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
            factor = _Factor(a, basis, n)
        except np.linalg.LinAlgError as err:
            raise SimplexError(str(err), pivots) from None
        x = np.where(status == AT_UPPER, up, lo)
        x[basis] = 0.0
        return factor, factor.ftran(form.b - a @ x), form.c - factor.btran(form.c[basis]) @ a

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
        alpha = rho[rows] @ a[rows]
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
        col = factor.ftran(a[:, q])
        if abs(col[r]) < PIVOT_TOL:
            raise SimplexError("pivot element vanished", pivots)
        if cold:
            _update_weights(weights, r, col, factor.ftran(rho), a[:, leaving] @ a[:, leaving])
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
        or np.max(np.abs(a @ x - form.b), initial=0.0) > WARM_TOL
        or np.any(x < lo - WARM_TOL)
        or np.any(x > up + WARM_TOL)
    ):
        raise SimplexError("final point drifted off A x = b or its bounds", pivots)
    d = form.c - factor.btran(form.c[basis]) @ a
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
