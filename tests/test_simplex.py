from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from lumharch import Mode, SolveStatus, build_model, builtin_topology, make_session, simplex, solve
from lumharch.cli import generate_sessions
from lumharch.network import Network, NodeKind
from lumharch.simplex import build_standard_form, solve_lp
from lumharch.solver import _standard_form


def _random_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    c = rng.integers(-5, 6, size=n).astype(float)
    upper = rng.integers(1, 5, size=n).astype(float)
    lower = np.zeros(n)
    for j in range(n):
        if rng.random() < 0.2:
            lower[j] = float(rng.integers(0, int(upper[j]) + 1))
    rows, a_ub, b_ub, a_eq, b_eq = [], [], [], [], []
    for _ in range(m):
        coefs = rng.integers(-4, 5, size=n)
        if not coefs.any():
            continue
        rel = ["<=", ">=", "="][int(rng.integers(0, 3))]
        rhs = float(rng.integers(-6, 10))
        rows.append((tuple((j, int(coefs[j])) for j in range(n) if coefs[j]), rel, rhs))
        if rel == "<=":
            a_ub.append(coefs)
            b_ub.append(rhs)
        elif rel == ">=":
            a_ub.append(-coefs)
            b_ub.append(-rhs)
        else:
            a_eq.append(coefs)
            b_eq.append(rhs)
    return n, c, lower, upper, rows, a_ub, b_ub, a_eq, b_eq

def _assert_matches_scipy(sols, lp, lower, upper):
    """Each solution of the ``_random_lp`` under these bounds agrees with
    HiGHS in status and, when optimal, in value."""
    _, c, _, _, _, a_ub, b_ub, a_eq, b_eq = lp
    ref = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq or None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    ref_status = "optimal" if ref.status == 0 else "infeasible" if ref.status == 2 else "other"
    for sol in sols:
        assert sol.status == ref_status, (sol.status, ref_status)
        if ref_status == "optimal":
            assert abs(sol.value - ref.fun) <= 1e-6


def _random_form(lp):
    n, c, lower, upper, rows, *_ = lp
    return build_standard_form(n, [(j, c[j]) for j in range(n)], rows, lower, upper)


def test_matches_scipy_on_random_lps():
    rng = np.random.default_rng(987654321)
    checked = 0
    for _ in range(250):
        lp = _random_lp(rng)
        _, _, lower, upper, rows, *_ = lp
        if not rows:
            continue
        mine = solve_lp(_random_form(lp))
        _assert_matches_scipy([mine], lp, lower, upper)
        checked += mine.status == "optimal"
    assert checked >= 80

def test_hand_infeasible():
    # x >= 2 with x <= 1
    form = build_standard_form(1, [(0, 1)], [(((0, 1),), ">=", 2.0)], np.zeros(1), np.ones(1))
    assert solve_lp(form).status == "infeasible"

def test_hand_equality_and_upper_bound():
    # min -x - y  s.t.  x + y = 3, x <= 2, y <= 2
    form = build_standard_form(
        2, [(0, -1), (1, -1)], [(((0, 1), (1, 1)), "=", 3.0)], np.zeros(2), np.full(2, 2.0)
    )
    sol = solve_lp(form)
    assert sol.status == "optimal"
    assert abs(sol.value + 3.0) < 1e-9
    assert abs(sol.x.sum() - 3.0) < 1e-9

def test_bound_overrides():
    # min x + y  s.t.  x + y >= 1;  then force x to 1 exactly
    form = build_standard_form(2, [(0, 1), (1, 1)], [(((0, 1), (1, 1)), ">=", 1.0)], np.zeros(2), np.ones(2))
    free = solve_lp(form)
    assert abs(free.value - 1.0) < 1e-9
    pinned = solve_lp(form, lower_override=np.array([1.0, 0.0]), upper_override=np.array([1.0, 1.0]))
    assert pinned.status == "optimal"
    assert abs(pinned.value - 1.0) < 1e-9
    assert abs(pinned.x[0] - 1.0) < 1e-9
    crossed = solve_lp(form, lower_override=np.array([2.0, 0.0]), upper_override=np.array([1.0, 1.0]))
    assert crossed.status == "infeasible"

def test_degenerate_lp_terminates():
    # Many redundant rows pinning the same corner.
    rows = [(((0, 1), (1, 1)), "<=", 1.0)] * 6 + [(((0, 1),), "<=", 1.0), (((1, 1),), "<=", 1.0)]
    form = build_standard_form(2, [(0, -1), (1, -1)], rows, np.zeros(2), np.ones(2))
    sol = solve_lp(form)
    assert sol.status == "optimal"
    assert abs(sol.value + 1.0) < 1e-9

def test_relaxation_bounds_fig3(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    relax = solve_lp(_standard_form(model))
    report = solve(model)
    assert relax.status == "optimal"
    assert relax.value <= report.objective + 1e-6
    assert relax.value <= 3 * 8 + 1  # loose structural upper bound on the bound
    assert relax.x.shape == (len(model.vars),)

def test_relaxation_with_fixed_pattern_equals_objective(fig3, fig3_session):
    # With every link/wavelength indicator pinned to a feasible hierarchy the
    # relaxation has no freedom left that affects the objective.
    model = build_model(fig3, fig3_session, Mode.LH, True)
    report = solve(model)
    form = _standard_form(model)
    lower = np.array([float(v.lower) for v in model.vars])
    upper = np.array([float(v.upper) for v in model.vars])
    for v in model.vars:
        if v.kind.value in ("L", "w"):
            lower[v.index] = upper[v.index] = float(report.assignment.values[v.index])
    sol = solve_lp(form, lower_override=lower, upper_override=upper)
    assert sol.status == "optimal"
    assert abs(sol.value - report.objective) < 1e-6

def test_relaxation_infeasible_disconnected_destination():
    net = Network(
        nodes=(("s", NodeKind.MI), ("d", NodeKind.MI), ("x", NodeKind.MI), ("y", NodeKind.MI)),
        edges=(("s", "d", 1), ("x", "y", 1)),
        wavelengths=1,
    )
    ms = make_session(net, "s", ["y"])
    model = build_model(net, ms, Mode.LH, True)
    relax = solve_lp(_standard_form(model))
    assert relax.status == "infeasible"

def test_lower_bound_monotonicity_under_branching(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    form = _standard_form(model)
    root = solve_lp(form)
    assert root.status == "optimal"
    frac = [
        v.index
        for v in model.vars
        if v.kind.value in ("L", "w") and 1e-6 < root.x[v.index] < 1 - 1e-6
    ]
    assert frac, "expected a fractional root relaxation on fig3"
    lower = np.array([float(v.lower) for v in model.vars])
    upper = np.array([float(v.upper) for v in model.vars])
    for idx in frac[:4]:
        for fixed in (0.0, 1.0):
            lo, up = lower.copy(), upper.copy()
            lo[idx] = up[idx] = fixed
            for warm in (None, root.basis):
                child = solve_lp(form, lower_override=lo, upper_override=up, warm=warm)
                if child.status == "optimal":
                    assert child.value >= root.value - 1e-6


def _record_warm_attempts(monkeypatch):
    """Record (solution or None, pivots) of every warm attempt."""
    attempts = []
    dual = simplex._dual_simplex

    def recorded(*args):
        result = dual(*args)
        attempts.append(result)
        return result

    monkeypatch.setattr(simplex, "_dual_simplex", recorded)
    return attempts


def test_warm_start_matches_cold_on_random_children(monkeypatch):
    # Each child tightens one bound of its parent's optimum by floor or ceil,
    # the way branch and bound does; the warm re-solve must agree with a
    # cold one in status and value.
    attempts = _record_warm_attempts(monkeypatch)
    rng = np.random.default_rng(20240611)
    children = 0
    for _ in range(120):
        n, c, lower, upper, rows, *_ = _random_lp(rng)
        if not rows:
            continue
        form = build_standard_form(n, [(j, c[j]) for j in range(n)], rows, lower, upper)
        parent = solve_lp(form)
        if parent.status != "optimal":
            continue
        for j in range(n):
            for bound in ("floor", "ceil"):
                lo, up = lower.copy(), upper.copy()
                if bound == "floor":
                    up[j] = math.floor(parent.x[j] + 1e-9)
                else:
                    lo[j] = math.ceil(parent.x[j] - 1e-9)
                cold = solve_lp(form, lo, up)
                warm = solve_lp(form, lo, up, warm=parent.basis)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert abs(warm.value - cold.value) <= 1e-6
                    assert warm.basis is not None
                children += 1
    assert children >= 300
    fallbacks = sum(1 for sol, _ in attempts if sol is None)
    assert len(attempts) == children and 0 < fallbacks < children // 4


def test_warm_start_from_basis_with_equality_slack(monkeypatch):
    # min -x - 2y  s.t.  x + y = 1.5,  2x + 2y = 3,  0 <= x, y <= 1.  The rows
    # are dependent, so phase 1 leaves an artificial basic at zero; the
    # exported basis names row 1's slack (column 3) in its place.
    attempts = _record_warm_attempts(monkeypatch)
    rows = [(((0, 1), (1, 1)), "=", 1.5), (((0, 2), (1, 2)), "=", 3.0)]
    form = build_standard_form(2, [(0, -1), (1, -2)], rows, np.zeros(2), np.ones(2))
    parent = solve_lp(form)
    assert parent.status == "optimal" and abs(parent.value + 2.5) < 1e-9
    assert 3 in parent.basis.columns
    child = solve_lp(form, np.array([1.0, 0.0]), np.ones(2), warm=parent.basis)
    assert child.status == "optimal"
    assert abs(child.value + 2.0) < 1e-9
    assert np.allclose(child.x, [1.0, 0.5])
    [(sol, pivots)] = attempts
    assert sol is child and pivots == child.iterations == 1


def test_warm_start_on_infeasible_child_falls_back_to_cold(monkeypatch):
    # min 3x - 4y  s.t.  -3x + 4y <= 0,  x + 4y = 5,  0 <= x, y <= 3 has its
    # optimum at (1.25, 0.9375).  With y <= 0 the row forces x = 5 > 3.  The
    # dual simplex pivots once before its ratio test runs dry; only the cold
    # path may call the child infeasible, and the abandoned pivot is counted.
    rows = [(((0, -3), (1, 4)), "<=", 0.0), (((0, 1), (1, 4)), "=", 5.0)]
    form = build_standard_form(2, [(0, 3), (1, -4)], rows, np.zeros(2), np.full(2, 3.0))
    parent = solve_lp(form)
    assert parent.status == "optimal" and np.allclose(parent.x, [1.25, 0.9375])
    lo, up = np.zeros(2), np.array([3.0, 0.0])
    cold = solve_lp(form, lo, up)
    attempts = _record_warm_attempts(monkeypatch)
    warm = solve_lp(form, lo, up, warm=parent.basis)
    assert cold.status == warm.status == "infeasible"
    [(sol, pivots)] = attempts
    assert sol is None and pivots >= 1
    assert warm.iterations == cold.iterations + pivots


def test_bland_fallback_matches_scipy(monkeypatch):
    # Bland's rule is the anti-cycling guard behind the steepest-edge
    # pricing, but it only takes over after DEGENERATE_LIMIT degenerate steps
    # in a row, which no small LP reaches.  At 1, the first degenerate step of
    # a phase hands it the entering choice; cold solves and warm floor/ceil
    # children must still agree with HiGHS.
    rng = np.random.default_rng(987654321)
    lps = [lp for lp in (_random_lp(rng) for _ in range(250)) if lp[4]]
    steepest = [solve_lp(_random_form(lp)).iterations for lp in lps]
    monkeypatch.setattr(simplex, "DEGENERATE_LIMIT", 1)
    changed = children = 0
    for lp, iterations in zip(lps, steepest):
        n, _, lower, upper, *_ = lp
        form = _random_form(lp)
        parent = solve_lp(form)
        _assert_matches_scipy([parent], lp, lower, upper)
        changed += parent.iterations != iterations
        if parent.status != "optimal":
            continue
        for j in range(n):
            for bound in ("floor", "ceil"):
                lo, up = lower.copy(), upper.copy()
                if bound == "floor":
                    up[j] = math.floor(parent.x[j] + 1e-9)
                else:
                    lo[j] = math.ceil(parent.x[j] - 1e-9)
                sols = [solve_lp(form, lo, up, warm=warm) for warm in (None, parent.basis)]
                _assert_matches_scipy(sols, lp, lo, up)
                children += 1
    # Bland's rule really ran: it changed the pivot count of some solves.
    assert changed >= 10
    assert children >= 300


def _assert_root_pivots(net, index, value, pivots):
    """The cold root LP of seed-1 |D|=3 session ``index`` takes exactly
    ``pivots[mode]`` pivots and agrees with HiGHS on ``value``."""
    session = generate_sessions(net, 3, index + 1, seed=1)[index]
    for mode in (Mode.LH, Mode.LT):
        form = _standard_form(build_model(net, session, mode, True))
        root = solve_lp(form)
        ref = linprog(form.c, A_eq=form.a, b_eq=form.b, bounds=list(zip(form.lower, form.upper)), method="highs")
        assert root.status == "optimal" and ref.status == 0
        assert abs(root.value - ref.fun) <= 1e-6
        assert abs(root.value - value) <= 1e-6
        assert root.iterations == pivots[mode], (mode, root.iterations)


# Exact root pivot counts pin the cold pricing path: a change to the entering
# or leaving rule must update them on purpose.


def test_root_pivots_on_nsf_deep_session():
    # NSF seed-1 |D|=3 sessions 3 and 4 are degenerate enough that Dantzig
    # pricing takes 372 (LH) and 400 (LT) root pivots on session 3.
    net = builtin_topology("nsf")
    _assert_root_pivots(net, 3, 50 / 3, {Mode.LH: 125, Mode.LT: 122})
    _assert_root_pivots(net, 4, 15.5, {Mode.LH: 85, Mode.LT: 135})


def test_root_pivots_on_cost239_session():
    net = builtin_topology("cost239", splitters=("3", "8"))
    _assert_root_pivots(net, 0, 12.0, {Mode.LH: 148, Mode.LT: 151})


def test_pivot_changes_only_the_returned_columns():
    # The cold path recomputes the steepest-edge norm of only the columns
    # _pivot returns, so every other column must come out bit-identical
    # (signed zeros included).  Column j becomes the unit column of row
    # ``leave``, and the tableau equals the dense rank-1 update.
    rng = np.random.default_rng(271828)
    pivots = 0
    for _ in range(150):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 14))
        # Structural zeros, about a third of them negative zeros.
        tableau = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.35)
        for _ in range(4):
            usable = np.argwhere(np.abs(tableau) > 1e-3)
            if not usable.size:
                break
            leave, j = (int(k) for k in usable[rng.integers(len(usable))])
            before = tableau.copy()
            prow = before[leave] / before[leave, j]
            dense = before - np.outer(before[:, j], prow)
            dense[leave] = prow
            changed = simplex._pivot(tableau, leave, j)
            assert np.array_equal(changed, np.flatnonzero(before[leave]))
            kept = np.setdiff1d(np.arange(n), changed)
            assert tableau[:, kept].tobytes() == before[:, kept].tobytes()
            unit = np.zeros(m)
            unit[leave] = 1.0
            assert np.array_equal(tableau[:, j], unit)
            assert np.array_equal(tableau, dense)
            pivots += 1
    assert pivots >= 400


def _assert_factor_solves(form, factor, columns, rng):
    basis = form.a[:, columns]
    m = form.a.shape[0]
    for _ in range(3):
        v = rng.normal(size=m)
        assert np.max(np.abs(basis @ factor.ftran(v) - v)) <= 1e-9
        assert np.max(np.abs(factor.btran(v) @ basis - v)) <= 1e-9


def test_factor_solves_with_its_basis_after_etas():
    # The block inverse of a parent basis, then a few eta updates: ftran and
    # btran must solve with A[:, basis] after each one.  Includes the basis
    # that names an equality slack in place of an artificial.
    rng = np.random.default_rng(31415)
    forms = []
    for _ in range(150):
        lp = _random_lp(rng)
        if lp[4]:
            forms.append(_random_form(lp))
    rows = [(((0, 1), (1, 1)), "=", 1.5), (((0, 2), (1, 2)), "=", 3.0)]
    forms.append(build_standard_form(2, [(0, -1), (1, -2)], rows, np.zeros(2), np.ones(2)))
    factored = etas = 0
    for form in forms:
        parent = solve_lp(form)
        if parent.status != "optimal":
            continue
        columns = parent.basis.columns.copy()
        factor = simplex._Factor(form.a, columns, form.n_struct)
        _assert_factor_solves(form, factor, columns, rng)
        factored += 1
        for q in rng.permutation(form.a.shape[1])[:3]:
            if q in columns:
                continue
            col = factor.ftran(form.a[:, q])
            r = int(np.argmax(np.abs(col)))
            if abs(col[r]) < 1e-6:
                continue
            factor.replace(r, col)
            columns[r] = q
            _assert_factor_solves(form, factor, columns, rng)
            etas += 1
    assert 3 in solve_lp(forms[-1]).basis.columns
    assert factored >= 60 and etas >= 60


def test_warm_attempts_make_no_tableau_pivots(monkeypatch):
    # The warm path re-optimizes on a factorized basis: no tableau pivot
    # (``_pivot``) runs inside a warm attempt, and every pivot made, warm or
    # cold, is counted in lp_iterations.
    counts = {"pivot": 0, "warm_pivot_calls": 0}
    warm_pivots: list[int] = []
    cold_iterations: list[int] = []
    in_warm = [False]
    pivot, dual, two_phase = simplex._pivot, simplex._dual_simplex, simplex._two_phase

    def counted_pivot(*args):
        counts["pivot"] += 1
        counts["warm_pivot_calls"] += in_warm[0]
        return pivot(*args)

    def recorded_dual(*args):
        in_warm[0] = True
        try:
            result = dual(*args)
        finally:
            in_warm[0] = False
        warm_pivots.append(result[1])
        return result

    def recorded_two_phase(*args):
        sol = two_phase(*args)
        cold_iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_dual_simplex", recorded_dual)
    monkeypatch.setattr(simplex, "_two_phase", recorded_two_phase)
    net = builtin_topology("nsf")
    session = generate_sessions(net, 3, 4, seed=1)[3]
    for mode in (Mode.LH, Mode.LT):
        counts.update(pivot=0, warm_pivot_calls=0)
        warm_pivots.clear()
        cold_iterations.clear()
        report = solve(build_model(net, session, mode, True))
        assert report.status == SolveStatus.OPTIMAL
        assert len(warm_pivots) >= 10 and sum(warm_pivots) > 0
        assert counts["warm_pivot_calls"] == 0
        assert sum(warm_pivots) + sum(cold_iterations) == report.lp_iterations
        assert counts["pivot"] + sum(warm_pivots) <= report.lp_iterations


def test_singular_structural_block_falls_back_to_cold(monkeypatch):
    # min -x - y  s.t.  x + y <= 3,  2x + 2y <= 8,  0 <= x, y <= 2.  A basis
    # with x and y basic in both rows has the singular structural block
    # [[1, 1], [2, 2]]: the warm attempt spends no pivot and returns the cold
    # answer, and no LinAlgError reaches the caller.
    rows = [(((0, 1), (1, 1)), "<=", 3.0), (((0, 2), (1, 2)), "<=", 8.0)]
    form = build_standard_form(2, [(0, -1), (1, -1)], rows, np.zeros(2), np.full(2, 2.0))
    singular = simplex.Basis(columns=np.array([0, 1]), at_upper=np.zeros(4, dtype=bool))
    lo, up = np.zeros(2), np.array([1.0, 2.0])
    cold = solve_lp(form, lo, up)
    attempts = _record_warm_attempts(monkeypatch)
    warm = solve_lp(form, lo, up, warm=singular)
    assert attempts == [(None, 0)]
    assert warm.status == cold.status == "optimal"
    assert abs(warm.value - cold.value) <= 1e-9 and abs(cold.value + 3.0) <= 1e-9
    assert warm.iterations == cold.iterations
