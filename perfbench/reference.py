"""Independent check: re-solve lumharch's ILPs with HiGHS (scipy.optimize.milp).

The model is rebuilt from ``IlpModel.vars``, ``constraints`` and
``objective`` only, so the check shares no code with lumharch's simplex or
branch-and-bound.  HiGHS times are a yardstick, never a gated metric.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from lumharch.model import Assignment, IlpModel, Relation, check_feasible


def highs_optimum(model: IlpModel) -> tuple[tuple[int, int, int] | None, float]:
    """((objective, total_cost, wavelength_count) or None if infeasible, seconds)."""
    t0 = time.perf_counter()
    n = len(model.vars)
    c = np.zeros(n)
    for i, coef in model.objective:
        c[i] += coef
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for i, coef in con.terms:
            rows.append(r)
            cols.append(i)
            vals.append(coef)
        lo.append(-np.inf if con.relation is Relation.LE else con.rhs)
        hi.append(np.inf if con.relation is Relation.GE else con.rhs)
    a = coo_array((vals, (rows, cols)), shape=(len(model.constraints), n)).tocsr()
    res = milp(
        c,
        constraints=LinearConstraint(a, lo, hi),
        integrality=np.ones(n),
        bounds=Bounds([v.lower for v in model.vars], [v.upper for v in model.vars]),
        options={"mip_rel_gap": 0.0},
    )
    elapsed = time.perf_counter() - t0
    if res.status == 2:
        return None, elapsed
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    x = Assignment(values=tuple(int(round(v)) for v in res.x))
    if not check_feasible(model, x).ok:
        raise RuntimeError("HiGHS returned a point that violates the model")
    return (model.objective_value(x), model.cost_value(x), model.wavelengths_value(x)), elapsed
