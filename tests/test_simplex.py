from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lumharch import Mode, SolveStatus, build_model, builtin_topology, make_session, simplex, solve
from lumharch.cli import generate_sessions
from lumharch.model import Relation
from lumharch.network import Network, NodeKind
from lumharch.simplex import EQ, GE, LE, Rows, SimplexError, build_standard_form, solve_lp
from lumharch.solver import _standard_form

FORM_FIELDS = ("a", "sign", "b", "c", "lower", "upper")


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


def _rows(rows):
    """``Rows`` arrays for (terms, relation, rhs) tuples, relation one of
    '<=', '>=', '='."""
    return Rows(
        row=np.repeat(np.arange(len(rows)), [len(terms) for terms, _, _ in rows]),
        col=np.array([j for terms, _, _ in rows for j, _ in terms], dtype=np.intp),
        coef=np.array([coef for terms, _, _ in rows for _, coef in terms], dtype=float),
        rel=np.array([{"<=": LE, ">=": GE, "=": EQ}[rel] for _, rel, _ in rows], dtype=np.int8),
        rhs=np.array([rhs for _, _, rhs in rows], dtype=float),
    )


def _random_form(lp):
    _, c, lower, upper, rows, *_ = lp
    return build_standard_form(c, _rows(rows), lower, upper)


def _dense(form):
    """The explicit ``[A | S]`` of a form, with ``S = diag(sign)``."""
    return np.hstack((form.a, np.diag(form.sign)))


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
    form = build_standard_form(np.ones(1), _rows([(((0, 1),), ">=", 2.0)]), np.zeros(1), np.ones(1))
    assert solve_lp(form).status == "infeasible"

def test_hand_equality_and_upper_bound():
    # min -x - y  s.t.  x + y = 3, x <= 2, y <= 2
    form = build_standard_form(
        np.array([-1.0, -1.0]), _rows([(((0, 1), (1, 1)), "=", 3.0)]), np.zeros(2), np.full(2, 2.0)
    )
    sol = solve_lp(form)
    assert sol.status == "optimal"
    assert abs(sol.value + 3.0) < 1e-9
    assert abs(sol.x.sum() - 3.0) < 1e-9

def test_bound_overrides():
    # min x + y  s.t.  x + y >= 1;  then force x to 1 exactly
    form = build_standard_form(np.ones(2), _rows([(((0, 1), (1, 1)), ">=", 1.0)]), np.zeros(2), np.ones(2))
    free = solve_lp(form)
    assert abs(free.value - 1.0) < 1e-9
    pinned = solve_lp(form, {0: (1.0, 1.0)})
    assert pinned.status == "optimal"
    assert abs(pinned.value - 1.0) < 1e-9
    assert abs(pinned.x[0] - 1.0) < 1e-9
    crossed = solve_lp(form, {0: (2.0, 1.0)})
    assert crossed.status == "infeasible"
    # the patch applies to a copy: the form keeps its own bounds
    assert form.lower.tolist() == [0.0, 0.0, 0.0]
    assert form.upper.tolist() == [1.0, 1.0, math.inf]

def test_degenerate_lp_terminates():
    # Many redundant rows pinning the same corner.
    rows = [(((0, 1), (1, 1)), "<=", 1.0)] * 6 + [(((0, 1),), "<=", 1.0), (((1, 1),), "<=", 1.0)]
    form = build_standard_form(np.array([-1.0, -1.0]), _rows(rows), np.zeros(2), np.ones(2))
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
    sol = solve_lp(form, dict(enumerate(zip(lower, upper))))
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
                child = solve_lp(form, dict(enumerate(zip(lo, up))), warm=warm)
                if child.status == "optimal":
                    assert child.value >= root.value - 1e-6


def _record_warm_attempts(monkeypatch):
    """Record (solution, pivots) of every warm attempt, or (None, pivots)
    when it raises and falls back to the cold start."""
    attempts = []
    run = simplex._run

    def recorded(form, lo, up, start, cold):
        if cold:
            return run(form, lo, up, start, cold)
        try:
            sol = run(form, lo, up, start, cold)
        except SimplexError as err:
            attempts.append((None, err.pivots))
            raise
        attempts.append((sol, sol.iterations))
        return sol

    monkeypatch.setattr(simplex, "_run", recorded)
    return attempts


def test_warm_start_matches_cold_on_random_children(monkeypatch):
    # Each child tightens one bound of its parent's optimum by floor or ceil,
    # the way branch and bound does; the warm and cold re-solves must agree
    # with each other and with HiGHS in status and value.
    attempts = _record_warm_attempts(monkeypatch)
    rng = np.random.default_rng(20240611)
    children = 0
    for _ in range(120):
        lp = _random_lp(rng)
        n, c, lower, upper, rows, *_ = lp
        if not rows:
            continue
        form = build_standard_form(c, _rows(rows), lower, upper)
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
                bounds = dict(enumerate(zip(lo, up)))
                cold = solve_lp(form, bounds)
                warm = solve_lp(form, bounds, warm=parent.basis)
                _assert_matches_scipy([cold, warm], lp, lo, up)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert abs(warm.value - cold.value) <= 1e-6
                    assert warm.basis is not None
                children += 1
    assert children >= 300
    fallbacks = sum(1 for sol, _ in attempts if sol is None)
    assert len(attempts) == children and 0 < fallbacks < children // 4


def test_appended_rows_match_the_full_lp(monkeypatch):
    # Rows fed to solve_lp by ``separate`` in two rounds give the form built
    # with every row at once, and the same status and value as HiGHS on the
    # full LP; each round re-optimizes from the last basis plus the new rows'
    # slacks, which start basic.  Appending a second, different row set to
    # the same parent leaves the parent and the first child as they were.
    attempts = _record_warm_attempts(monkeypatch)
    rng = np.random.default_rng(8080)
    rounds = 0
    for _ in range(300):
        lp = _random_lp(rng)
        _, c, lower, upper, rows, *_ = lp
        if len(rows) < 2:
            continue
        head, tail = rows[: len(rows) // 2], rows[len(rows) // 2 :]
        chunks = [chunk for chunk in (tail[:1], tail[1:]) if chunk]
        fed = len(chunks)

        def separate(sol):
            return _rows(chunks.pop(0) if chunks else [])

        form = build_standard_form(c, _rows(head), lower, upper)
        sol = solve_lp(form, separate=separate)
        _assert_matches_scipy([sol], lp, lower, upper)
        if sol.status == "optimal":
            full = build_standard_form(c, _rows(rows), lower, upper)
            first = simplex.append_rows(form, _rows(tail))
            kept = [(f, {name: getattr(f, name).copy() for name in FORM_FIELDS}) for f in (form, first)]
            simplex.append_rows(form, _rows(head))
            for name in FORM_FIELDS:
                assert np.array_equal(getattr(sol.form, name), getattr(full, name)), name
                assert np.array_equal(getattr(first, name), getattr(full, name)), name
                for f, fields in kept:
                    assert np.array_equal(getattr(f, name), fields[name]), name
            assert not chunks and len(sol.basis.columns) == len(rows)
            rounds += fed
    assert rounds >= 100 and len(attempts) >= rounds


def test_warm_basis_of_a_shorter_form_is_extended(monkeypatch):
    # A basis optimal before append_rows warm-starts the appended form:
    # solve_lp extends it by the new rows' slacks, basic in their own rows,
    # and reaches the cold start's optimal value without a cold fallback.
    attempts = _record_warm_attempts(monkeypatch)
    rng = np.random.default_rng(4242)
    warm_solves = warm_pivots = 0
    for _ in range(300):
        lp = _random_lp(rng)
        _, c, lower, upper, rows, *_ = lp
        if len(rows) < 2:
            continue
        head, tail = rows[: len(rows) // 2], rows[len(rows) // 2 :]
        parent = solve_lp(build_standard_form(c, _rows(head), lower, upper))
        if parent.status != "optimal":
            continue
        form = simplex.append_rows(parent.form, _rows(tail))
        cold = solve_lp(form)
        if cold.status != "optimal":
            continue
        tried = len(attempts)
        warm = solve_lp(form, warm=parent.basis)
        assert [sol is not None for sol, _ in attempts[tried:]] == [True]
        assert warm.status == "optimal" and abs(warm.value - cold.value) <= 1e-9
        assert len(warm.basis.columns) == len(rows)
        warm_solves += 1
        warm_pivots += warm.iterations
    assert warm_solves >= 80 and warm_pivots >= warm_solves


def test_form_products_match_the_dense_matrix():
    # Every product the simplex takes of [A | S], on forms with <=, >= and =
    # rows, some of them appended, equals the same product on the explicit
    # dense matrix: a column, [A | S] x, y [A | S], and y [A | S] over the
    # rows where y is nonzero.
    rng = np.random.default_rng(2718)
    signs = set()
    checked = 0
    for _ in range(120):
        lp = _random_lp(rng)
        n, c, lower, upper, rows, *_ = lp
        if not rows:
            continue
        split = int(rng.integers(0, len(rows) + 1))
        form = build_standard_form(c, _rows(rows[:split]), lower, upper)
        form = simplex.append_rows(form, _rows(rows[split:]))
        dense = _dense(form)
        m, total = dense.shape
        assert (m, total) == (len(rows), n + len(rows)) == (len(form.b), len(form.c))
        signs.update(form.sign.tolist())
        for j in range(total):
            assert np.array_equal(form.column(j), dense[:, j]), j
        x = rng.normal(size=total)
        assert np.allclose(form.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)
        y = rng.normal(size=m)
        assert np.allclose(form.rmatvec(y), y @ dense, rtol=1e-12, atol=1e-12)
        y[rng.random(m) < 0.5] = 0.0
        assert np.allclose(form.rmatvec(y, np.flatnonzero(y)), y @ dense, rtol=1e-12, atol=1e-12)
        checked += 1
    assert checked >= 80 and signs == {1.0, -1.0}


def _form_row_by_row(model):
    """The fields of the standard form, built row by row from
    ``model.constraints``."""
    m, n = len(model.constraints), len(model.vars)
    a, sign, b, up = np.zeros((m, n)), np.ones(m), np.zeros(m), np.full(m, np.inf)
    for i, con in enumerate(model.constraints):
        for j, coef in con.terms:
            a[i, j] += coef
        b[i] = con.rhs
        if con.relation is Relation.GE:
            sign[i] = -1.0
        elif con.relation is Relation.EQ:
            up[i] = 0.0
    c = np.zeros(n + m)
    for j, coef in model.objective:
        c[j] = coef
    lower = np.array([float(v.lower) for v in model.vars] + [0.0] * m)
    upper = np.concatenate(([float(v.upper) for v in model.vars], up))
    return {"a": a, "sign": sign, "b": b, "c": c, "lower": lower, "upper": upper}


def test_standard_form_is_the_models_rows_bit_for_bit(fig3, fig3_session, fig5, fig5_session):
    # The one scatter from the model's arrays gives, byte for byte, the form
    # a row-by-row build over model.constraints gives, on every kind of row.
    nsf, cost239 = builtin_topology("nsf"), builtin_topology("cost239", splitters=("3", "8"))
    cases = [(fig3, fig3_session), (fig5, fig5_session)]
    cases += [(net, ms) for net in (nsf, cost239) for ms in generate_sessions(net, 3, 2, seed=1)]
    cases += [(nsf, generate_sessions(nsf, 1, 1, seed=1)[0])]
    for net, ms in cases:
        for mode in (Mode.LH, Mode.LT):
            for conn in (True, False):
                model = build_model(net, ms, mode, conn)
                form, expected = _standard_form(model), _form_row_by_row(model)
                for name in FORM_FIELDS:
                    got = getattr(form, name)
                    assert got.dtype == expected[name].dtype and got.shape == expected[name].shape, name
                    assert got.tobytes() == expected[name].tobytes(), name


def test_warm_start_from_basis_with_equality_slack(monkeypatch):
    # min -x - 2y  s.t.  x + y = 1.5,  2x + 2y = 3,  0 <= x, y <= 1.  The rows
    # are dependent, so the optimal basis keeps an equality slack (column 2
    # or 3) basic at zero.
    attempts = _record_warm_attempts(monkeypatch)
    rows = [(((0, 1), (1, 1)), "=", 1.5), (((0, 2), (1, 2)), "=", 3.0)]
    form = build_standard_form(np.array([-1.0, -2.0]), _rows(rows), np.zeros(2), np.ones(2))
    parent = solve_lp(form)
    assert parent.status == "optimal" and abs(parent.value + 2.5) < 1e-9
    assert {2, 3} & set(parent.basis.columns.tolist())
    child = solve_lp(form, {0: (1.0, 1.0)}, warm=parent.basis)
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
    form = build_standard_form(np.array([3.0, -4.0]), _rows(rows), np.zeros(2), np.full(2, 3.0))
    parent = solve_lp(form)
    assert parent.status == "optimal" and np.allclose(parent.x, [1.25, 0.9375])
    lo, up = np.zeros(2), np.array([3.0, 0.0])
    bounds = dict(enumerate(zip(lo, up)))
    cold = solve_lp(form, bounds)
    attempts = _record_warm_attempts(monkeypatch)
    warm = solve_lp(form, bounds, warm=parent.basis)
    assert cold.status == warm.status == "infeasible"
    [(sol, pivots)] = attempts
    assert sol is None and pivots >= 1
    assert warm.iterations == cold.iterations + pivots


def _assert_root_pivots(net, index, value, pivots):
    """The cold root LP of seed-1 |D|=3 session ``index``, on the flow-free
    form the solver starts from, takes exactly ``pivots[mode]`` pivots and
    agrees with HiGHS on ``value``."""
    session = generate_sessions(net, 3, index + 1, seed=1)[index]
    for mode in (Mode.LH, Mode.LT):
        form = _standard_form(build_model(net, session, mode, False))
        root = solve_lp(form)
        ref = linprog(form.c, A_eq=_dense(form), b_eq=form.b, bounds=list(zip(form.lower, form.upper)), method="highs")
        assert root.status == "optimal" and ref.status == 0
        assert abs(root.value - ref.fun) <= 1e-6
        assert abs(root.value - value) <= 1e-6
        assert root.iterations == pivots[mode], (mode, root.iterations)


# Exact root pivot counts pin the cold pricing path: a change to the entering
# or leaving rule, or to the weight update, must update them on purpose.


def test_root_pivots_on_nsf_deep_session():
    # NSF seed-1 |D|=3 sessions 3 and 4 are the sessions of the deep NSF
    # benchmark workload.
    net = builtin_topology("nsf")
    _assert_root_pivots(net, 3, 13.0, {Mode.LH: 20, Mode.LT: 20})
    _assert_root_pivots(net, 4, 15.5, {Mode.LH: 27, Mode.LT: 27})


def test_root_pivots_on_cost239_session():
    net = builtin_topology("cost239", splitters=("3", "8"))
    _assert_root_pivots(net, 0, 10.0, {Mode.LH: 22, Mode.LT: 22})


def test_cold_weights_equal_fresh_row_norms(monkeypatch):
    # After every cold pivot, each dual steepest-edge weight that its lower
    # bound did not clamp equals ||e_i B^-1||**2 of the new basis.
    update, replace = simplex._update_weights, simplex._Factor.replace
    pending = []
    checked = []  # the number of weights checked at each pivot

    def recorded_update(w, r, col, tau, leaving_norm2):
        update(w, r, col, tau, leaving_norm2)
        pending.append((w, r, (col / col[r]) ** 2 / leaving_norm2))

    def checked_replace(self, r, col):
        replace(self, r, col)
        w, row, bound = pending.pop()
        unclamped = w != bound
        unclamped[row] = True
        exact = np.array([rho @ rho for rho in map(self.btran, np.eye(len(w)))])
        assert np.allclose(w[unclamped], exact[unclamped], rtol=1e-8, atol=0.0)
        checked.append(int(unclamped.sum()))

    monkeypatch.setattr(simplex, "_update_weights", recorded_update)
    monkeypatch.setattr(simplex._Factor, "replace", checked_replace)
    rng = np.random.default_rng(161803)
    for _ in range(150):
        lp = _random_lp(rng)
        if lp[4]:
            _assert_matches_scipy([solve_lp(_random_form(lp))], lp, lp[2], lp[3])
    assert len(checked) >= 150
    checked.clear()
    net = builtin_topology("nsf")
    session = generate_sessions(net, 3, 4, seed=1)[3]
    root = solve_lp(_standard_form(build_model(net, session, Mode.LH, True)))
    assert root.status == "optimal" and len(checked) == root.iterations
    assert sum(checked) >= 0.9 * len(checked) * len(root.basis.columns)


def test_certified_needs_the_bounds_to_exclude_the_row():
    # Row 0 of B^-1 A x = B^-1 b, with columns 3 and 4 basic in rows 0 and 1:
    # 0.7 on column 3 is its exact 1 after rounding, 0.3 on column 4 its
    # exact 0, and 1e-12 on column 2 counts as 0.  Over 0 <= x0, x1 <= 1 and
    # 0 <= x3 <= 2 the row x0 - x1 + x3 then spans [-1, 3], although columns
    # 2 and 4 have no upper bound.
    alpha = np.array([1.0, -1.0, 1e-12, 0.7, 0.3])
    basis = np.array([3, 4])
    lo, up = np.zeros(5), np.array([1.0, 1.0, np.inf, 2.0, np.inf])
    for rhs, infeasible in ((2.5, False), (-1.0, False), (3.0 + 1e-8, False), (3.5, True), (-1.5, True)):
        assert simplex._certified(alpha, rhs, basis, 0, lo, up) is infeasible, rhs
    # A negative entry on a column without an upper bound covers every rhs
    # below the rest of the range.
    assert not simplex._certified(np.array([1.0, 0.0, -1.0, 0.0, 0.0]), -5.0, basis, 0, lo, up)


def test_standard_form_rejects_unbounded_structurals():
    rows = [(((0, 1), (1, 1)), "<=", 1.0)]
    for lower, upper in (
        (np.zeros(2), np.array([1.0, np.inf])),
        (np.array([-np.inf, 0.0]), np.ones(2)),
        (np.array([0.0, np.nan]), np.ones(2)),
    ):
        with pytest.raises(ValueError, match="finite"):
            build_standard_form(np.array([1.0, 0.0]), _rows(rows), lower, upper)


def _assert_factor_solves(form, factor, columns, rng):
    basis = _dense(form)[:, columns]
    m = form.a.shape[0]
    for _ in range(3):
        v = rng.normal(size=m)
        assert np.max(np.abs(basis @ factor.ftran(v) - v)) <= 1e-9
        assert np.max(np.abs(factor.btran(v) @ basis - v)) <= 1e-9


def test_factor_solves_with_its_basis_after_etas():
    # The block inverse of a parent basis, then a few eta updates: ftran and
    # btran must solve with A[:, basis] after each one.  Includes a basis
    # with an equality slack basic at zero.
    rng = np.random.default_rng(31415)
    forms = []
    for _ in range(150):
        lp = _random_lp(rng)
        if lp[4]:
            forms.append(_random_form(lp))
    rows = [(((0, 1), (1, 1)), "=", 1.5), (((0, 2), (1, 2)), "=", 3.0)]
    forms.append(build_standard_form(np.array([-1.0, -2.0]), _rows(rows), np.zeros(2), np.ones(2)))
    factored = etas = 0
    for form in forms:
        parent = solve_lp(form)
        if parent.status != "optimal":
            continue
        columns = parent.basis.columns.copy()
        dense = _dense(form)
        factor = simplex._Factor(form, columns)
        _assert_factor_solves(form, factor, columns, rng)
        factored += 1
        for q in rng.permutation(dense.shape[1])[:3]:
            if q in columns:
                continue
            col = factor.ftran(dense[:, q])
            r = int(np.argmax(np.abs(col)))
            if abs(col[r]) < 1e-6:
                continue
            factor.replace(r, col)
            columns[r] = q
            _assert_factor_solves(form, factor, columns, rng)
            etas += 1
    assert factored >= 60 and etas >= 60


def test_warm_attempts_make_no_tableau_pivots(monkeypatch):
    # Every pivot made, by a warm attempt or by the cold start it falls back
    # to, is counted in lp_iterations.
    attempts = _record_warm_attempts(monkeypatch)
    cold_pivots: list[int] = []
    run = simplex._run

    def recorded_run(form, lo, up, start, cold):
        sol = run(form, lo, up, start, cold)
        if cold:
            cold_pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(simplex, "_run", recorded_run)
    # NSF seed-1 |D|=4 session 3 and |D|=3 session 7 in LT mode make 9 and
    # 10 warm attempts with BLAS on one thread (cut rounds and children; 2
    # and 5 nodes).
    net = builtin_topology("nsf")
    warm_attempts = 0
    for size, index in ((4, 3), (3, 7)):
        session = generate_sessions(net, size, index + 1, seed=1)[index]
        attempts.clear()
        cold_pivots.clear()
        report = solve(build_model(net, session, Mode.LT, True))
        assert report.status == SolveStatus.OPTIMAL and report.nodes_explored >= 2
        warm_pivots = [pivots for _, pivots in attempts]
        assert sum(warm_pivots) > 0
        assert sum(warm_pivots) + sum(cold_pivots) == report.lp_iterations
        warm_attempts += len(warm_pivots)
    assert warm_attempts >= 10


def test_singular_structural_block_falls_back_to_cold(monkeypatch):
    # min -x - y  s.t.  x + y <= 3,  2x + (2 + eps)y <= 8,  0 <= x, y <= 2.
    # A basis with x and y basic in both rows has the structural block
    # [[1, 1], [2, 2 + eps]]: singular at eps = 0, and nearly so at
    # eps = 1e-13, where LAPACK still returns a finite inverse.  The warm
    # attempt spends no pivot and returns the cold answer, and no
    # LinAlgError reaches the caller.
    singular = simplex.Basis(columns=np.array([0, 1]), at_upper=np.zeros(4, dtype=bool))
    lo, up = np.zeros(2), np.array([1.0, 2.0])
    for eps in (0.0, 1e-13):
        rows = [(((0, 1), (1, 1)), "<=", 3.0), (((0, 2), (1, 2 + eps)), "<=", 8.0)]
        form = build_standard_form(np.array([-1.0, -1.0]), _rows(rows), np.zeros(2), np.full(2, 2.0))
        bounds = dict(enumerate(zip(lo, up)))
        cold = solve_lp(form, bounds)
        attempts = _record_warm_attempts(monkeypatch)
        warm = solve_lp(form, bounds, warm=singular)
        assert attempts == [(None, 0)]
        assert warm.status == cold.status == "optimal"
        assert abs(warm.value - cold.value) <= 1e-9 and abs(cold.value + 3.0) <= 1e-9
        assert warm.iterations == cold.iterations
