"""Where each lumharch layer is traced, and the per-layer metrics and
reconciliation computed from the spans of one traced pass."""

from __future__ import annotations

from collections import defaultdict

import lumharch.cli
import lumharch.hierarchy
import lumharch.solver
from tracer import Span, Tracer, self_times

__all__ = ["Tracer", "instrument", "layer_metrics", "reconcile", "session_key"]

# Full passes over the m x ncols tableau in one pivot of simplex.run_phase:
# read it for the reduced costs (cost[basis] @ tableau), write the np.outer
# temporary, then read tableau and temporary and write tableau (tableau -= ...).
TABLEAU_PASSES_PER_PIVOT = 5


def session_key(net, ms) -> str:
    """'source>d1,d2,...' with destinations in the network's node order."""
    return f"{ms.source}>{','.join(ms.sorted_destinations(net))}"


def _build_id(net, ms, mode="LH", connectivity=True):
    return (session_key(net, ms), getattr(mode, "value", mode))


def _solve_id(model, opts=None):
    return (session_key(model.net, model.session), model.mode.value)


def instrument(tracer: Tracer) -> None:
    """Wrap every name on the solve path where its caller looks it up."""
    cli, solver, hierarchy = lumharch.cli, lumharch.solver, lumharch.hierarchy
    tracer.wrap(cli, "run_experiment", "cli.run_experiment", root=True)
    tracer.wrap(cli, "builtin_topology", "network.load")
    tracer.wrap(cli, "parse_network", "network.load")
    tracer.wrap(cli, "generate_sessions", "network.sessions")
    tracer.wrap(
        cli, "build_model", "model.build", solve_id=_build_id,
        note=lambda m: (len(m.constraints), len(m.vars), sum(len(c.terms) for c in m.constraints)),
    )
    tracer.wrap(
        cli, "solve", "solver.solve", solve_id=_solve_id,
        note=lambda r: (r.status.value, r.objective, r.nodes_explored, r.lp_iterations),
    )
    tracer.wrap(cli, "extract_structures", "model.verify")
    tracer.wrap(solver, "extract_structures", "model.verify")
    tracer.wrap(solver, "check_feasible", "model.verify")
    tracer.wrap(
        solver, "build_standard_form", "simplex.form",
        note=lambda f: (f.a.shape[0], f.a.shape[1], int((f.a != 0).sum())),
    )
    tracer.wrap(solver, "solve_lp", "simplex.solve_lp", note=lambda s: (s.status, s.iterations, s.value))
    tracer.wrap(solver, "integralize_flows", "flow.integralize")
    tracer.wrap(hierarchy, "validate", "hierarchy.validate")
    tracer.wrap(hierarchy, "uses_cps", "hierarchy.cps")


def _lp_by_solve(spans: list[Span]) -> dict[int, list[Span]]:
    """solve_lp spans grouped under their solve span, in call order."""
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.name == "simplex.solve_lp":
            out[id(s.parent)].append(s)
    for calls in out.values():
        calls.sort(key=lambda s: s.start)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by[n])

    solves = by["solver.solve"]
    lp_of = _lp_by_solve(spans)
    form_of = {id(s.parent): s.note for s in by["simplex.form"] if s.note}
    root_piv = root_calls = child_piv = child_calls = 0
    bytes_weighted = 0.0
    gap_num = gap_den = 0.0
    for sv in solves:
        calls = [c for c in lp_of.get(id(sv), []) if c.error is None]
        for i, c in enumerate(lp_of.get(id(sv), [])):
            if c.error is not None:
                continue
            if i == 0:
                root_piv += c.note[1]
                root_calls += 1
            else:
                child_piv += c.note[1]
                child_calls += 1
        m, ncols, _ = form_of.get(id(sv), (0, 0, 0))
        bytes_weighted += 8.0 * m * ncols * TABLEAU_PASSES_PER_PIVOT * sum(c.note[1] for c in calls)
        first = lp_of.get(id(sv), [None])[0]
        if sv.note and sv.note[0] == "Optimal" and first is not None and first.note and first.note[0] == "optimal":
            gap_num += sv.note[1] - first.note[2]
            gap_den += sv.note[1]

    lp = by["simplex.solve_lp"]
    pivots = sum(s.note[1] for s in lp if s.error is None)
    lp_s = total("simplex.solve_lp")
    forms = [s.note for s in by["simplex.form"] if s.note]
    builds = [s.note for s in by["model.build"] if s.note]
    flows = by["flow.integralize"]
    rejects = sum(1 for s in flows if s.error == "FlowIntegralizationError")

    def mean(rows, k):
        return sum(r[k] for r in rows) / len(rows) if rows else 0.0

    return {
        "simplex.lp_calls": len(lp),
        "simplex.pivots": pivots,
        "simplex.root_pivots_per_call": root_piv / root_calls if root_calls else 0.0,
        "simplex.child_pivots_per_call": child_piv / child_calls if child_calls else 0.0,
        "simplex.lp_s": lp_s,
        "simplex.pivots_per_s": pivots / lp_s if lp_s else 0.0,
        "simplex.infeasible_calls": sum(1 for s in lp if s.note and s.note[0] == "infeasible"),
        "simplex.errors": sum(1 for s in lp if s.error == "SimplexError"),
        "simplex.form_s": total("simplex.form"),
        "simplex.form_rows": mean(forms, 0),
        "simplex.form_cols": mean(forms, 1),
        "simplex.form_nnz": mean(forms, 2),
        "simplex.bytes_per_pivot_computed": bytes_weighted / pivots if pivots else 0.0,
        "solver.solves": len(solves),
        "solver.bb_nodes": sum(s.note[2] for s in solves if s.note),
        "solver.root_gap": gap_num / gap_den if gap_den else 0.0,
        "solver.self_s": sum(selfs[id(s)] for s in solves),
        "model.build_s": total("model.build"),
        "model.rows": mean(builds, 0),
        "model.cols": mean(builds, 1),
        "model.nnz": mean(builds, 2),
        "model.verify_s": total("model.verify"),
        "flow.candidates": len(flows),
        "flow.rejects": rejects,
        "flow.accept_ratio": (len(flows) - rejects) / len(flows) if flows else 1.0,
        "flow.s": total("flow.integralize"),
        "hierarchy.validate_s": total("hierarchy.validate"),
        "hierarchy.cps_s": total("hierarchy.cps"),
        "network.load_s": total("network.load"),
        "network.sessions_s": total("network.sessions"),
        "cli.self_s": sum(selfs[id(s)] for s in by["cli.run_experiment"]),
    }


def reconcile(spans: list[Span]) -> dict:
    """Check the trace against SolveReport: one solve_lp call per B&B node,
    and pivots of the calls that returned equal to ``lp_iterations``."""
    problems = []
    error_solves = []
    lp_of = _lp_by_solve(spans)
    solves = [s for s in spans if s.name == "solver.solve"]
    calls = sum(len(v) for v in lp_of.values())
    nodes = sum(s.note[2] for s in solves if s.note)
    if calls != nodes:
        problems.append(f"solve_lp calls {calls} != nodes_explored {nodes}")
    for sv in solves:
        if sv.note is None:
            problems.append(f"solve {sv.solve_id} raised {sv.error}")
            continue
        lps = lp_of.get(id(sv), [])
        if any(c.error == "SimplexError" for c in lps):
            error_solves.append(list(sv.solve_id))
        pivots = sum(c.note[1] for c in lps if c.error is None)
        if pivots != sv.note[3]:
            problems.append(f"solve {sv.solve_id}: pivots {pivots} != lp_iterations {sv.note[3]}")
        if any(c.solve_id != sv.solve_id for c in lps):
            problems.append(f"solve {sv.solve_id}: an LP span carries another solve id")
    return {"problems": problems, "simplex_error_solves": error_solves}
