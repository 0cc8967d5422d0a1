"""Bounded-variable primal simplex over dense numpy tableaus.

Solves  min c.x  s.t.  rows of (terms, relation, rhs),  l <= x <= u  with
finite bounds on all structural variables.  Two phases: artificial
variables absorb whatever the slack basis cannot, then the true objective
is optimized with artificials pinned to zero.

Pivoting is deterministic: Dantzig entering choice with lowest-index tie
breaks, lowest-variable-index leaving among ratio ties, and a switch to
Bland's rule after a long run of degenerate steps so cycling cannot
occur.  Feasibility tolerance is 1e-9; failures raise, they never return
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
RC_TOL = 1e-9
DEGENERATE_LIMIT = 1000
MAX_ITER = 200_000

AT_LOWER = 0
AT_UPPER = 1


class SimplexError(RuntimeError):
    """Numerical breakdown or iteration explosion; the caller must abort."""


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray | None
    iterations: int


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


def solve_lp(
    form: StandardForm,
    lower_override: np.ndarray | None = None,
    upper_override: np.ndarray | None = None,
) -> LpSolution:
    """Two-phase bounded simplex; overrides replace structural bounds."""
    m, total = form.a.shape
    lo = form.lower.copy()
    up = form.upper.copy()
    if lower_override is not None:
        lo[: form.n_struct] = lower_override
    if upper_override is not None:
        up[: form.n_struct] = upper_override
    if np.any(lo > up + FEAS_TOL):
        return LpSolution(status="infeasible", value=np.inf, x=None, iterations=0)

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
        nonlocal iterations, beta, tableau
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
                j = int(candidates[int(np.argmax(np.abs(z[candidates])))])
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
            pivot = tableau[leave, j]
            if abs(pivot) < 1e-11:
                raise SimplexError("pivot element vanished")
            tableau[leave] = tableau[leave] / pivot
            col = tableau[:, j].copy()
            col[leave] = 0.0
            tableau -= np.outer(col, tableau[leave])

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
    return LpSolution(
        status="optimal", value=value, x=x_full[: form.n_struct].copy(), iterations=iterations
    )
