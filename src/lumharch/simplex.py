"""Bounded-variable simplex: dense tableaus cold, a factorized basis warm.

Solves  min c.x  s.t.  rows of (terms, relation, rhs),  l <= x <= u  with
finite bounds on all structural variables.

Cold solves use a two-phase primal simplex: artificial variables absorb
whatever the slack basis cannot, then the true objective is optimized with
artificials pinned to zero.  Pivoting is deterministic.  The entering
column is chosen by exact steepest edge: among the candidates, the largest
``z_j**2 / (1 + ||T[:, j]||**2)``, with each candidate's column norm
computed fresh from the current tableau (no reference weights are kept)
and lowest-index tie breaks.  On the degenerate WDM models it takes a third
to a half of the pivots that Dantzig's largest ``|z_j|`` takes.  The
leaving row is the lowest variable index among ratio ties, and a long run
of degenerate steps switches to Bland's rule so cycling cannot occur.
Feasibility tolerance is 1e-9.

Every optimal solution carries its final :class:`Basis`.  A branch-and-bound
child differs from its parent only in a structural bound, so the parent's
basis stays dual feasible and ``solve_lp(..., warm=parent.basis)``
re-optimizes with a bounded dual simplex instead, on a factorized basis
and without a tableau.  A basic slack's column is a signed unit column, so
only the k x k block of basic structural columns over the rows whose slack
is nonbasic is inverted (k = 45-115 against m = 345-427 rows on the
children of the benchmark's deep NSF and COST239 solves).  ``B^-1`` is
applied in block form through that inverse, and each dual pivot appends
one eta vector (product form).  Row r of ``B^-1 A`` is ``e_r B^-1 A`` over
the nonzero entries of ``e_r B^-1``, and the entering column is
``B^-1 a_q``.  The block is inverted by Gauss-Jordan exchanges in
elementwise numpy, not LAPACK: the first LAPACK call of a process pages in
about 0.5 MB, which showed as +0.5 MB of peak memory on the deep NSF
benchmark workload.  Inverting the block is about 30 % of a warm child's
time (2.1 of 7.2 ms a child, replaying those children on a 2-core host),
and a child peaks at about 1.1 MB of live arrays, where rebuilding its
m x ncols tableau would peak at 3.0 MB.

Cold pivots touch only the rows where the pivot column is nonzero and the
columns where the pivot row is nonzero: the rank-1 update would change
every other entry by exactly zero.

The cold path is the reference.  A warm attempt falls back to it, and adds
its pivots to the returned ``iterations``, when the structural block is
singular (a Gauss-Jordan pivot below 1e-11) or its inverse is not finite,
on an entering pivot ``(B^-1 a_q)_r`` below 1e-11, when the dual ratio
test finds no entering column (only the cold path may report
"infeasible"), at the iteration cap, when the final point misses
``A x = b`` by more than 1e-7 or leaves its bounds, and when a final
reduced cost, recomputed from a fresh ``btran``, has the wrong sign.  Cold
failures raise :class:`SimplexError`; they never return a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
RC_TOL = 1e-9
PIVOT_TOL = 1e-11
WARM_TOL = 1e-7
DEGENERATE_LIMIT = 1000
MAX_ITER = 200_000

AT_LOWER = 0
AT_UPPER = 1


class SimplexError(RuntimeError):
    """Numerical breakdown or iteration explosion; the caller must abort."""


@dataclass(frozen=True)
class Basis:
    """An optimal basis over standard-form columns (structurals, then slacks)."""

    columns: np.ndarray  # the basic column of each row
    at_upper: np.ndarray  # per column: nonbasic at its upper bound


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
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
    """rows are (terms, relation, rhs) with relation one of '<=', '>=', '='."""
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


def _pivot(tableau: np.ndarray, leave: int, j: int) -> None:
    """Make column j the unit column of row ``leave`` in place."""
    pivot = tableau[leave, j]
    if abs(pivot) < PIVOT_TOL:
        raise SimplexError("pivot element vanished")
    prow = tableau[leave] / pivot
    tableau[leave] = prow
    rows = np.flatnonzero(tableau[:, j])
    rows = rows[rows != leave]
    cols = np.flatnonzero(prow)
    tableau[np.ix_(rows, cols)] -= np.outer(tableau[rows, j], prow[cols])


def solve_lp(
    form: StandardForm,
    lower_override: np.ndarray | None = None,
    upper_override: np.ndarray | None = None,
    warm: Basis | None = None,
) -> LpSolution:
    """Optimize under the overridden structural bounds; ``warm`` is a basis
    that is optimal for the same form under bounds these only tighten."""
    lo = form.lower.copy()
    up = form.upper.copy()
    if lower_override is not None:
        lo[: form.n_struct] = lower_override
    if upper_override is not None:
        up[: form.n_struct] = upper_override
    if np.any(lo > up + FEAS_TOL):
        return LpSolution(status="infeasible", value=np.inf, x=None, iterations=0)
    if warm is None:
        return _two_phase(form, lo, up)
    sol, pivots = _dual_simplex(form, lo, up, warm)
    if sol is None:
        sol = _two_phase(form, lo, up)
        sol.iterations += pivots
    return sol


def _two_phase(form: StandardForm, lo: np.ndarray, up: np.ndarray) -> LpSolution:
    """Cold two-phase bounded primal simplex from the slack basis."""
    m, total = form.a.shape
    # All columns start nonbasic at their (finite) lower bound; the slack
    # absorbs each row's residual where its bounds allow, otherwise an
    # artificial column takes over.
    residual = form.b - form.a @ lo[:total]
    basis = np.empty(m, dtype=np.int64)
    art_rows: list[int] = []
    for i in range(m):
        slack = total - m + i
        coef = form.a[i, slack]
        val = residual[i] / coef
        if lo[slack] - FEAS_TOL <= val <= up[slack] + FEAS_TOL:
            basis[i] = slack
        else:
            basis[i] = -1
            art_rows.append(i)

    n_art = len(art_rows)
    ncols = total + n_art
    tableau = np.zeros((m, ncols))
    tableau[:, :total] = form.a
    lo_full = np.concatenate([lo, np.zeros(n_art)])
    up_full = np.concatenate([up, np.full(n_art, np.inf)])
    for k, i in enumerate(art_rows):
        tableau[i, total + k] = 1.0 if residual[i] >= 0 else -1.0
        basis[i] = total + k

    status = np.full(ncols, AT_LOWER, dtype=np.int8)
    beta = residual.copy()
    for i in range(m):
        pivot = tableau[i, basis[i]]
        if pivot != 1.0:
            tableau[i] /= pivot
            beta[i] /= pivot

    movable = (up_full - lo_full) > FEAS_TOL
    iterations = 0

    def run_phase(cost: np.ndarray, banned: np.ndarray) -> str:
        nonlocal iterations, beta
        degenerate_run = 0
        use_bland = False
        while True:
            iterations += 1
            if iterations > MAX_ITER:
                raise SimplexError("iteration limit exceeded")
            z = cost - cost[basis] @ tableau
            eligible = movable & ~banned
            eligible[basis] = False
            can_up = eligible & (status == AT_LOWER) & (z < -RC_TOL)
            can_dn = eligible & (status == AT_UPPER) & (z > RC_TOL)
            candidates = np.flatnonzero(can_up | can_dn)
            if candidates.size == 0:
                return "optimal"
            if use_bland:
                j = int(candidates[0])
            else:
                # Exact steepest edge: the reduced cost per unit length of
                # the edge (1, -T[:, j]) the entering column moves along.
                cols = tableau[:, candidates]
                score = z[candidates] ** 2 / (1.0 + np.einsum("ij,ij->j", cols, cols))
                # Free the copy before _pivot allocates its temporaries: held
                # through the pivot, it raised the 2-thread batch's peak RSS
                # by about 2 MB.
                del cols
                j = int(candidates[int(np.argmax(score))])
            direction = 1.0 if status[j] == AT_LOWER else -1.0
            d = tableau[:, j] * direction

            bl = lo_full[basis]
            bu = up_full[basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_dn = np.where(d > FEAS_TOL, np.maximum(beta - bl, 0.0) / np.where(d > FEAS_TOL, d, 1.0), np.inf)
                up_ok = (d < -FEAS_TOL) & np.isfinite(bu)
                t_up = np.where(up_ok, np.maximum(bu - beta, 0.0) / np.where(up_ok, -d, 1.0), np.inf)
            t_rows = np.minimum(t_dn, t_up)
            t_min = float(t_rows.min()) if m else np.inf
            t_flip = up_full[j] - lo_full[j]

            if not np.isfinite(min(t_min, t_flip)):
                return "unbounded"

            if t_min <= t_flip + FEAS_TOL:
                tied = np.flatnonzero(t_rows <= t_min + FEAS_TOL)
                leave = int(tied[int(np.argmin(basis[tied]))])
                t_step = float(t_rows[leave])
            else:
                leave = -1
                t_step = float(t_flip)

            if t_step <= FEAS_TOL:
                degenerate_run += 1
                if degenerate_run >= DEGENERATE_LIMIT:
                    use_bland = True
            else:
                degenerate_run = 0

            if leave == -1:
                beta = beta - d * t_step
                status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
                continue

            enter_val = (lo_full[j] if status[j] == AT_LOWER else up_full[j]) + direction * t_step
            leaving = basis[leave]
            status[leaving] = AT_LOWER if d[leave] > 0 else AT_UPPER
            beta = beta - d * t_step
            beta[leave] = enter_val
            basis[leave] = j
            _pivot(tableau, leave, j)

    def current_x(cost_len: int) -> np.ndarray:
        x = np.where(status == AT_UPPER, up_full, lo_full).astype(float)
        x[~np.isfinite(x)] = 0.0
        x[basis] = beta
        return x[:cost_len]

    banned = np.zeros(ncols, dtype=bool)
    if n_art:
        phase1_cost = np.zeros(ncols)
        phase1_cost[total:] = 1.0
        outcome = run_phase(phase1_cost, banned)
        if outcome == "unbounded":
            raise SimplexError("feasibility phase reported unbounded")
        art_total = float(current_x(ncols)[total:].sum())
        if art_total > 1e-7:
            return LpSolution(status="infeasible", value=np.inf, x=None, iterations=iterations)
        up_full[total:] = 0.0
        movable[total:] = False
        banned[total:] = True

    phase2_cost = np.concatenate([form.c, np.zeros(n_art)])
    outcome = run_phase(phase2_cost, banned)
    if outcome == "unbounded":
        return LpSolution(status="unbounded", value=-np.inf, x=None, iterations=iterations)

    x_full = current_x(ncols)
    value = float(phase2_cost @ x_full)
    # An artificial still basic (at zero) is +-e_i, the column of row i's
    # slack up to sign, and that slack cannot be basic too: export it.
    columns = basis.copy()
    art = columns >= total
    columns[art] = form.n_struct + np.asarray(art_rows)[columns[art] - total]
    at_upper = status[:total] == AT_UPPER
    at_upper[columns] = False
    return LpSolution(
        status="optimal",
        value=value,
        x=x_full[: form.n_struct].copy(),
        iterations=iterations,
        basis=Basis(columns=columns, at_upper=at_upper),
    )


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


def _dual_simplex(
    form: StandardForm, lo: np.ndarray, up: np.ndarray, warm: Basis
) -> tuple[LpSolution | None, int]:
    """Bounded dual simplex from ``warm``; returns (None, pivots spent) when
    the attempt must fall back to the cold path."""
    m, total = form.a.shape
    n = form.n_struct
    try:
        factor = _Factor(form.a, warm.columns, n)
    except np.linalg.LinAlgError:
        return None, 0
    basis = warm.columns.copy()
    status = np.where(warm.at_upper & np.isfinite(up), AT_UPPER, AT_LOWER).astype(np.int8)
    nonbasic = np.ones(total, dtype=bool)
    nonbasic[basis] = False
    x = np.where(nonbasic & (status == AT_UPPER), up, lo)
    x[basis] = 0.0
    beta = factor.ftran(form.b - form.a @ x)
    d = form.c - factor.btran(form.c[basis]) @ form.a
    movable = (up - lo) > FEAS_TOL
    if not _dual_feasible(d, status, movable & nonbasic):
        return None, 0

    pivots = 0
    unit = np.zeros(m)
    while True:
        infeas = np.maximum(lo[basis] - beta, beta - up[basis])
        r = int(np.argmax(infeas))
        if infeas[r] <= FEAS_TOL:
            break
        if pivots >= total:  # one pivot per column: longer is cycling
            return None, pivots
        leaving = int(basis[r])
        to_upper = beta[r] > up[leaving]
        # Row r of B^-1 A, over the rows where row r of B^-1 is nonzero.
        unit[r] = 1.0
        rho = factor.btran(unit)
        unit[r] = 0.0
        rows = np.flatnonzero(rho)
        alpha = rho[rows] @ form.a[rows]
        s = alpha if to_upper else -alpha
        eligible = movable & nonbasic
        at_lo = status == AT_LOWER
        cand = np.flatnonzero(eligible & ((at_lo & (s > FEAS_TOL)) | (~at_lo & (s < -FEAS_TOL))))
        if cand.size == 0:
            return None, pivots
        ratios = np.maximum(np.where(at_lo[cand], d[cand], -d[cand]), 0.0) / np.abs(s[cand])
        tied = cand[ratios <= ratios.min() + FEAS_TOL]
        q = int(tied[int(np.argmax(np.abs(alpha[tied])))])

        pivots += 1
        col = factor.ftran(form.a[:, q])
        if abs(col[r]) < PIVOT_TOL:
            return None, pivots
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
        or np.max(np.abs(form.a @ x - form.b), initial=0.0) > WARM_TOL
        or np.any(x < lo - WARM_TOL)
        or np.any(x > up + WARM_TOL)
    ):
        return None, pivots
    d = form.c - factor.btran(form.c[basis]) @ form.a
    if not _dual_feasible(d, status, movable & nonbasic):
        return None, pivots
    at_upper = nonbasic & (status == AT_UPPER)
    return (
        LpSolution(
            status="optimal",
            value=float(form.c @ x),
            x=x[:n].copy(),
            iterations=pivots,
            basis=Basis(columns=basis, at_upper=at_upper),
        ),
        pivots,
    )


def _dual_feasible(d: np.ndarray, status: np.ndarray, free: np.ndarray) -> bool:
    """No movable nonbasic column could improve the objective."""
    at_lo = status == AT_LOWER
    return not np.any(free & ((at_lo & (d < -WARM_TOL)) | (~at_lo & (d > WARM_TOL))))
