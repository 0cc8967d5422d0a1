from __future__ import annotations

import itertools
import time
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from lumharch import (
    Assignment,
    FlowIntegralizationError,
    Mode,
    SolveOptions,
    SolveStatus,
    VarKind,
    build_model,
    builtin_topology,
    check_feasible,
    emit_lp,
    extract_structures,
    integralize_flows,
    make_session,
    parse_network,
    solve,
    solve_session,
    validate,
)
from lumharch import solver
from lumharch.cli import generate_sessions
from lumharch.hierarchy import cps_nodes
from lumharch.model import Relation
from tests.conftest import FIG3_LH_EXHIBIT_LINKS

STAR_W1 = """
NODE s MI
NODE c MI
NODE d1 MI
NODE d2 MI
EDGE s c 1
EDGE c d1 1
EDGE c d2 1
WAVELENGTHS 1
"""


def test_fig3_lh_optimum(fig3, fig3_session):
    # The round trip through d2 (tap and continue) undercuts the classic
    # 8-link crossing by one: s-1-2-3-d2-3-4-d1 costs 7 on one wavelength.
    model, rep = solve_session(fig3, fig3_session, Mode.LH)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.total_cost == 7
    assert rep.wavelength_count == 1
    assert rep.objective == 3 * 7 + 1 == 22
    lss = extract_structures(model, rep.assignment)
    assert len(lss.structures) == 1
    assert cps_nodes(lss.structures[0], fig3) == {"3"}
    assert validate(fig3, lss).ok


def test_fig3_lt_optimum(fig3, fig3_session):
    _, rep = solve_session(fig3, fig3_session, Mode.LT)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.total_cost == 9
    assert rep.wavelength_count == 2
    assert rep.objective == 3 * 9 + 2 == 29


def test_fig3_hierarchy_beats_tree(fig3, fig3_session):
    _, lh = solve_session(fig3, fig3_session, Mode.LH)
    _, lt = solve_session(fig3, fig3_session, Mode.LT)
    assert lh.total_cost < lt.total_cost
    assert lh.objective < lt.objective


def test_fig4a_splitter_plus_crossing(fig4a):
    # MC node 1 duplicates the signal; the cheapest hierarchy taps d1 and
    # re-enters MI node 4 (cost 6, one wavelength), while trees need two
    # wavelengths and cost 8.
    ms = make_session(fig4a, "s", ["d1", "d2"])
    model, lh = solve_session(fig4a, ms, Mode.LH)
    assert (lh.total_cost, lh.wavelength_count) == (6, 1)
    lss = extract_structures(model, lh.assignment)
    assert {m for ls in lss.structures for m in cps_nodes(ls, fig4a)} == {"4"}
    _, lt = solve_session(fig4a, ms, Mode.LT)
    assert (lt.total_cost, lt.wavelength_count) == (8, 2)


def test_unicast_adjacent(fig5):
    ms = make_session(fig5, "s", ["d1"])
    _, rep = solve_session(fig5, ms, Mode.LH)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == 3 * 1 + 1 == 4
    assert rep.total_cost == 1 and rep.wavelength_count == 1


def test_fig5_structure_only_vs_connected(fig5, fig5_session):
    model_off, rep_off = solve_session(fig5, fig5_session, Mode.LH, connectivity=False)
    assert rep_off.status is SolveStatus.OPTIMAL
    assert rep_off.total_cost == 3
    lss = extract_structures(model_off, rep_off.assignment)
    report = validate(fig5, lss)
    assert not report.ok
    assert "connectivity" in report.rules()

    model_on, rep_on = solve_session(fig5, fig5_session, Mode.LH, connectivity=True)
    assert rep_on.status is SolveStatus.OPTIMAL
    assert rep_on.total_cost == 5
    lss_on = extract_structures(model_on, rep_on.assignment)
    assert validate(fig5, lss_on).ok


def test_lt_infeasible_star_single_wavelength():
    net = parse_network(STAR_W1)
    ms = make_session(net, "s", ["d1", "d2"])
    _, rep = solve_session(net, ms, Mode.LT)
    assert rep.status is SolveStatus.INFEASIBLE
    assert rep.objective is None and rep.assignment is None
    # the hierarchy route serves both via the round trip through d1
    _, lh = solve_session(net, ms, Mode.LH)
    assert lh.status is SolveStatus.OPTIMAL
    assert lh.total_cost == 4 and lh.wavelength_count == 1


def test_determinism_including_counters(fig3, fig3_session):
    runs = [solve_session(fig3, fig3_session, Mode.LH)[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs_lt = [solve_session(fig3, fig3_session, Mode.LT)[1] for _ in range(2)]
    assert runs_lt[0] == runs_lt[1]


@pytest.mark.parametrize(
    "topology, connectivity, counters",
    [("fig3", True, (7, 100)), ("fig4a", True, (5, 91)), ("fig4a", False, (4, 38))],
)
def test_branching_search_path_is_pinned(request, topology, connectivity, counters):
    # Three LT solves of s -> d1, d2 that branch past the root.  Their
    # (nodes_explored, lp_iterations) read the same whatever the BLAS thread
    # count, so a change to branching, bound patches or the cut separator
    # that alters the search path shows here.  The first two solve the
    # flow-free LP with lazy rows at every node, the third without them.
    net = request.getfixturevalue(topology)
    model = build_model(net, make_session(net, "s", ["d1", "d2"]), Mode.LT, connectivity)
    rep = solve(model)
    assert rep.status is SolveStatus.OPTIMAL
    assert (rep.nodes_explored, rep.lp_iterations) == counters


def test_greedy_incumbent_is_feasible_upper_bound(fig3, fig3_session):
    # The seed only prunes: it must be feasible and never beat the optimum.
    # On fig3 LH, attaching to the structure reaches the optimum (22, where
    # routing each destination from the source gave 29); on the branching
    # model it is strictly worse (26 vs 25), so the check has teeth.
    models = [build_model(fig3, fig3_session, mode, True) for mode in (Mode.LH, Mode.LT)]
    models.append(_branching_model())
    objectives = []
    for model in models:
        seed = solver._greedy_incumbent(model)
        assert seed is not None
        assert check_feasible(model, seed).ok
        objectives.append((model.objective_value(seed), solve(model).objective))
        assert objectives[-1][0] >= objectives[-1][1]
    assert objectives[0] == (22, 22)
    assert objectives[2][0] > objectives[2][1]


@pytest.mark.parametrize("seed", [1, 7])
def test_greedy_incumbent_single_destination_is_shortest_path(seed):
    # With one destination the only attach node is the source: the seed is
    # the source's shortest path on wavelength 0, as the nsf-root workload
    # relies on.
    net = builtin_topology("nsf")
    for ms in generate_sessions(net, 1, 70, seed):
        (d,) = ms.destinations
        path = list(itertools.pairwise(net.shortest_path(ms.source, d)))
        for mode in (Mode.LH, Mode.LT):
            model = build_model(net, ms, mode, True)
            expected = {model.wave_index[0]} | {model.light_index[(u, v, 0)] for u, v in path}
            a = solver._greedy_incumbent(model)
            placed = {v.index for v in model.vars if v.kind in (VarKind.LIGHT, VarKind.WAVE) and a.values[v.index]}
            assert placed == expected


def test_greedy_incumbent_seeds_large_groups():
    # NSF |D|=8 (generator seed 3): routing every destination from the
    # source found no seed in 10 of these 12 models; attaching to the
    # structure finds one in each.
    net = builtin_topology("nsf")
    for ms in generate_sessions(net, 8, 6, seed=3):
        for mode in (Mode.LH, Mode.LT):
            model = build_model(net, ms, mode, True)
            seed = solver._greedy_incumbent(model)
            assert seed is not None and check_feasible(model, seed).ok


def test_attaching_seed_closes_large_group_at_the_root():
    # COST239 MC(3,8), |W|=2, |D|=8, generator-seed-3 session 3 in LH mode:
    # the source-routed seed (29) left 65 nodes to search; the attached seed
    # is the optimum, so the root's cut rounds close the solve.
    net = builtin_topology("cost239", splitters=("3", "8")).with_overrides(wavelengths=2)
    model = build_model(net, generate_sessions(net, 8, 4, seed=3)[3], Mode.LH, True)
    rep = solve(model, SolveOptions(node_limit=5))
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == 25 == _highs_objective(model)


def _branching_model():
    """NSF seed-1 |D|=4 session 3 (source 12, destinations 3, 6, 7, 14) in LT
    mode: it still branches after the root's cut rounds (2 nodes with BLAS
    on one thread or two)."""
    net = builtin_topology("nsf")
    return build_model(net, generate_sessions(net, 4, 4, seed=1)[3], Mode.LT, True)


def test_node_limit_reached():
    model = _branching_model()
    rep = solve(model, SolveOptions(node_limit=1))
    assert rep.status is SolveStatus.LIMIT_REACHED
    # the greedy incumbent still rides along, checked, without structures
    assert rep.objective is not None
    assert check_feasible(model, rep.assignment).ok
    assert rep.structures is None


def test_rejected_candidates_end_limit_reached(fig3, fig3_session, monkeypatch):
    # Every candidate incumbent passes the one gate.  With check_feasible
    # rejecting all of them there is no greedy seed, and each integral LP
    # point counts as numerical trouble: the solve ends LimitReached (not
    # Infeasible, so the tree did reach integral points) with no assignment,
    # and nothing raises.
    monkeypatch.setattr(solver, "check_feasible", lambda model, a: types.SimpleNamespace(ok=False))
    rep = solve(build_model(fig3, fig3_session, Mode.LH, True))
    assert rep.status is SolveStatus.LIMIT_REACHED
    assert rep.assignment is None and rep.objective is None and rep.structures is None


def test_report_structures_only_when_optimal(fig3, fig3_session, fig5, fig5_session):
    # An Optimal report carries the structures of its assignment, which has
    # passed check_feasible; structures are returned without the flow layer
    # too, where validate does not run.  Any other status carries none.
    models = [
        build_model(fig3, fig3_session, Mode.LH, True),
        build_model(fig3, fig3_session, Mode.LT, True),
        build_model(fig5, fig5_session, Mode.LH, False),
        _branching_model(),
    ]
    for model in models:
        rep = solve(model)
        assert rep.status is SolveStatus.OPTIMAL and check_feasible(model, rep.assignment).ok
        assert rep.structures == extract_structures(model, rep.assignment)
    net = parse_network(STAR_W1)
    _, rep = solve_session(net, make_session(net, "s", ["d1", "d2"]), Mode.LT)
    assert rep.status is SolveStatus.INFEASIBLE and rep.structures is None


def test_bad_options_rejected():
    with pytest.raises(ValueError):
        SolveOptions(node_limit=0)
    with pytest.raises(ValueError):
        SolveOptions(time_limit_ms=0)


def _relaxation_sweep():
    """(network, session) pairs for LT with and without the LH relaxation:
    fig3 s -> d1, d2, whose LH optimum of 7 returns from d2 and is no tree;
    fig5 s -> d1, d2, d3; NSF and COST239 MC(3,8) seed-1 |D|=3 sessions 0-5
    (NSF session 3's LH optimum is no tree either)."""
    fig3, fig5 = builtin_topology("fig3"), builtin_topology("fig5")
    cases = [(fig3, make_session(fig3, "s", ["d1", "d2"])), (fig5, make_session(fig5, "s", ["d1", "d2", "d3"]))]
    for net in (builtin_topology("nsf"), builtin_topology("cost239", splitters=("3", "8"))):
        cases += [(net, ms) for ms in generate_sessions(net, 3, 6, seed=1)]
    return cases


def test_lh_relaxation_closes_lt_exactly_when_its_optimum_is_a_tree():
    closed = 0
    for net, ms in _relaxation_sweep():
        lh_model, lt_model = build_model(net, ms, Mode.LH, True), build_model(net, ms, Mode.LT, True)
        lh = solve(lh_model)
        cold = solve(lt_model)
        rep = solve(lt_model, SolveOptions(relaxation=(lh_model, lh)))
        key = (ms.source, sorted(ms.destinations))
        assert rep.status is cold.status is SolveStatus.OPTIMAL, key
        assert (rep.objective, rep.total_cost, rep.wavelength_count) == (
            cold.objective,
            cold.total_cost,
            cold.wavelength_count,
        ), key
        assert check_feasible(lt_model, rep.assignment).ok and validate(net, rep.structures).ok, key
        is_tree = check_feasible(lt_model, lh.assignment).ok
        assert (rep.nodes_explored == rep.lp_iterations == 0) is is_tree, key
        if is_tree:  # the LH report itself, certified once
            assert rep == replace(lh, nodes_explored=0, lp_iterations=0), key
        closed += is_tree
    assert closed == 12  # all but fig3 and NSF session 3


def test_lh_floor_ends_lt_once_an_incumbent_meets_it():
    # NSF seed-1 |D|=2 session 5: the LH optimum (19) is no tree, but the
    # LT greedy seed reaches 19 too, so the floor prunes the root node
    # before its LP, where the solve without it needs one.
    net = builtin_topology("nsf")
    ms = generate_sessions(net, 2, 6, seed=1)[5]
    lh_model, lt_model = build_model(net, ms, Mode.LH, True), build_model(net, ms, Mode.LT, True)
    lh = solve(lh_model)
    assert not check_feasible(lt_model, lh.assignment).ok
    cold = solve(lt_model)
    rep = solve(lt_model, SolveOptions(relaxation=(lh_model, lh)))
    assert rep.status is cold.status is SolveStatus.OPTIMAL
    assert rep.objective == cold.objective == lh.objective == 19
    assert (cold.nodes_explored, rep.nodes_explored, rep.lp_iterations) == (1, 0, 0)


def test_closing_lh_optimum_builds_no_form_cuts_or_seed(fig5, fig5_session, monkeypatch):
    # A closed solve checks the LH optimum against the LT rows and reuses
    # the LH report: no flows, structures or validation are redone.
    lh_model = build_model(fig5, fig5_session, Mode.LH, True)
    lh = solve(lh_model)
    lt_model = build_model(fig5, fig5_session, Mode.LT, True)
    structures = extract_structures(lt_model, lh.assignment)
    for name in ("_standard_form", "_dicut_separator", "_greedy_incumbent", "integralize_flows", "extract_structures"):
        monkeypatch.setattr(solver, name, lambda *args: pytest.fail("called for a closed solve"))
    monkeypatch.setattr(solver.hierarchy, "validate", lambda *args: pytest.fail("called for a closed solve"))
    rep = solve(lt_model, SolveOptions(relaxation=(lh_model, lh)))
    assert (rep.status, rep.nodes_explored, rep.lp_iterations) == (SolveStatus.OPTIMAL, 0, 0)
    assert rep == replace(lh, nodes_explored=0, lp_iterations=0)
    assert rep.structures == structures


def test_relaxation_that_is_not_optimal_changes_nothing():
    # COST239 MC(3,8) seed-1 |D|=6 session 4 branches in LH mode, so one node
    # leaves it LimitReached, holding a tree of objective 22 above the LT
    # optimum (19).  The LT report, counters included, is the one without a
    # relaxation.
    net = builtin_topology("cost239", splitters=("3", "8"))
    ms = generate_sessions(net, 6, 5, seed=1)[4]
    lh_model, lt_model = build_model(net, ms, Mode.LH, True), build_model(net, ms, Mode.LT, True)
    lh = solve(lh_model, SolveOptions(node_limit=1))
    assert lh.status is SolveStatus.LIMIT_REACHED and lh.assignment is not None
    assert solve(lt_model, SolveOptions(relaxation=(lh_model, lh))) == solve(lt_model)


def test_relaxation_of_another_model_is_rejected(fig3, fig3_session):
    lh_model = build_model(fig3, fig3_session, Mode.LH, True)
    lh = solve(lh_model)
    lt_model = build_model(fig3, fig3_session, Mode.LT, True)
    other_session = build_model(fig3, make_session(fig3, "s", ["d1"]), Mode.LT, True)
    other_network = build_model(fig3.with_overrides(wavelengths=3), fig3_session, Mode.LT, True)
    other_connectivity = build_model(fig3, fig3_session, Mode.LT, False)
    for model, relaxation in (
        (other_session, (lh_model, lh)),
        (other_network, (lh_model, lh)),
        (other_connectivity, (lh_model, lh)),
        (lt_model, (lt_model, solve(lt_model))),
    ):
        with pytest.raises(ValueError, match="LH model of the same network, session and connectivity"):
            solve(model, SolveOptions(relaxation=relaxation))


def test_time_limit_reached():
    model = _branching_model()
    rep = solve(model, SolveOptions(time_limit_ms=1))
    assert rep.status is SolveStatus.LIMIT_REACHED


def test_deadline_between_cut_rounds_reports_limit(monkeypatch):
    # A clock that moves one second per separation round: the 1.5 s limit
    # passes after the second round has added its cuts, so the third round
    # is never separated, and the solve must not claim optimality even if
    # the tree it then searches would close.
    clock = [0.0]
    monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    separator, rounds = solver._dicut_separator, []

    def slow_separator(model):
        separate = separator(model)

        def timed(x):
            clock[0] += 1.0
            rows = separate(x)
            rounds.append(len(rows))
            return rows

        return timed

    monkeypatch.setattr(solver, "_dicut_separator", slow_separator)
    model = _branching_model()
    rep = solve(model, SolveOptions(time_limit_ms=1500))
    assert len(rounds) == 2 and all(rounds)
    assert rep.status is SolveStatus.LIMIT_REACHED
    assert rep.nodes_explored == 1
    assert rep.objective is not None and check_feasible(model, rep.assignment).ok


def test_solve_lp_calls_reconcile_with_cut_rounds(monkeypatch):
    # The invariants the benchmark's trace run checks: each node's lazy rows
    # are added inside its one solve_lp call, so calls equal nodes_explored
    # and their pivots sum to lp_iterations.
    calls = []
    solve_lp = solver.solve_lp

    def recorded(form, *args, **kwargs):
        sol = solve_lp(form, *args, **kwargs)
        calls.append((form.a.shape[0], sol.form.a.shape[0], sol.iterations))
        return sol

    monkeypatch.setattr(solver, "solve_lp", recorded)
    model = _branching_model()
    rep = solve(model)
    assert rep.status is SolveStatus.OPTIMAL
    assert len(calls) == rep.nodes_explored >= 2
    assert sum(pivots for _, _, pivots in calls) == rep.lp_iterations
    rows_in, rows_out, _ = calls[0]
    flow_free = build_model(model.net, model.session, model.mode, connectivity=False)
    assert rows_in == len(flow_free.rows) < rows_out
    # every node starts from the form the last one returned, rows are only
    # ever appended, and children may add rows too: the form never shrinks
    rows = [r for call in calls for r in call[:2]]
    assert rows == sorted(rows)
    assert all(calls[i][1] == calls[i + 1][0] for i in range(len(calls) - 1))


def test_no_cuts_without_the_flow_layer(fig5, fig5_session, monkeypatch):
    # Without the flow layer a detached cycle may serve a destination, so a
    # directed cut is not valid: nothing is separated and the structure-only
    # optimum stays 3.
    built = []
    separator = solver._dicut_separator
    monkeypatch.setattr(solver, "_dicut_separator", lambda model: built.append(model) or separator(model))
    _, rep = solve_session(fig5, fig5_session, Mode.LH, connectivity=False)
    assert rep.status is SolveStatus.OPTIMAL and rep.total_cost == 3
    assert built == []
    _, rep = solve_session(fig5, fig5_session, Mode.LH, connectivity=True)
    assert rep.total_cost == 5 and len(built) == 1


def _separated(net, source, links):
    """The nodes that ``source`` cannot reach on any wavelength once the
    links ``(u, v, lam)`` are removed from the mesh."""
    cut_off = set(net.index)
    for lam in range(net.wavelengths):
        seen, stack = {source}, [source]
        while stack:
            u = stack.pop()
            for a, b in net.directed_links:
                if a == u and b not in seen and (a, b, lam) not in links:
                    seen.add(b)
                    stack.append(b)
        cut_off -= seen
    return cut_off


def test_back_cuts_separate_the_source_from_a_destination(fig3, fig3_session, fig5, fig5_session):
    # Every row the separator returns in the root rounds, run without an
    # incumbent to stop them, is sum L >= 1 over a set of links whose
    # removal cuts some destination off the source on every wavelength.
    nsf = builtin_topology("nsf")
    cost239 = builtin_topology("cost239", splitters=("3", "8"))
    cases = [(fig3, fig3_session), (fig5, fig5_session)]
    cases += [(nsf, ms) for ms in generate_sessions(nsf, 3, 5, seed=1)[3:]]
    cases += [(cost239, ms) for ms in generate_sessions(cost239, 3, 2, seed=1)]
    checked = 0
    for net, ms in cases:
        for mode in (Mode.LH, Mode.LT):
            lp = build_model(net, ms, mode, connectivity=False)
            separator = solver._dicut_separator(lp)

            def separate(sol):
                nonlocal checked
                rows = separator(sol.x)
                for i in range(len(rows)):
                    on = rows.row == i
                    assert rows.rel[i] == solver.GE and rows.rhs[i] == 1.0
                    assert rows.coef[on].tolist() == [1.0] * int(on.sum())
                    links = {(v.tail, v.head, v.wavelength) for v in map(lp.vars.__getitem__, rows.col[on])}
                    assert _separated(net, ms.source, links) & ms.destinations, (ms, links)
                    assert sol.x[rows.col[on]].sum() < 1.0
                checked += len(rows)
                return rows

            assert solver.solve_lp(solver._standard_form(lp), separate=separate).status == "optimal"
    assert checked >= 40


def test_back_cuts_end_the_cut_round_stall():
    # NSF |W|=3 |D|=8, generator-seed-3 session 5 (source 10): with the
    # minimum cut nearest the source, the LT rounds after the LH handoff
    # grew a form whose cold re-solve hit the pivot cap, and the solve ended
    # LimitReached.  With back cuts both modes end Optimal at HiGHS's 41.
    net = builtin_topology("nsf", wavelengths=3)
    ms = generate_sessions(net, 8, 6, seed=3)[5]
    assert ms.source == "10"
    lh = build_model(net, ms, Mode.LH, True)
    lh_rep = solve(lh)
    lt_rep = solve(build_model(net, ms, Mode.LT, True), SolveOptions(relaxation=(lh, lh_rep)))
    assert (lh_rep.status, lh_rep.objective) == (SolveStatus.OPTIMAL, 41)
    assert (lt_rep.status, lt_rep.objective) == (SolveStatus.OPTIMAL, 41)


def test_dicuts_leave_the_model_and_its_lp_text_unchanged():
    model = _branching_model()
    text = emit_lp(model)
    constraints = model.constraints
    rep = solve(model)
    assert rep.status is SolveStatus.OPTIMAL
    assert model.constraints is constraints and emit_lp(model) == text


def test_verbose_logging_goes_to_stderr(fig3, fig3_session, capsys):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    quiet = solve(model, SolveOptions(verbosity=0))
    assert capsys.readouterr().err == ""
    loud = solve(model, SolveOptions(verbosity=2))
    err = capsys.readouterr().err
    assert "node 1:" in err
    assert quiet.objective == loud.objective and quiet.nodes_explored == loud.nodes_explored
    solve(model, SolveOptions(verbosity=1))
    assert capsys.readouterr().err == "no-good rows: 0\n"


def test_integralize_flows_fig3_exhibit_unique(fig3, fig3_session):
    # The only integral flow on the 8-link exhibit (checked by exhaustive
    # enumeration over {1,2}^8): the main run carries 2 until d1 absorbs.
    model = build_model(fig3, fig3_session, Mode.LH, True)
    values = [0] * len(model.vars)
    for u, v in FIG3_LH_EXHIBIT_LINKS:
        values[model.by_name[f"L_{u}_{v}_0"].index] = 1
    values[model.by_name["w_0"].index] = 1
    a = integralize_flows(model, Assignment(values=tuple(values)))
    expected = {
        ("s", "1"): 2,
        ("1", "2"): 2,
        ("2", "3"): 2,
        ("3", "5"): 2,
        ("5", "d1"): 2,
        ("d1", "4"): 1,
        ("4", "3"): 1,
        ("3", "d2"): 1,
    }
    for (u, v), f in expected.items():
        assert a.values[model.by_name[f"F_{u}_{v}_0"].index] == f
    assert check_feasible(model, a).ok


def test_integralize_flows_single_path(fig5):
    ms = make_session(fig5, "s", ["d3"])
    model = build_model(fig5, ms, Mode.LH, True)
    values = [0] * len(model.vars)
    for u, v in (("s", "d1"), ("d1", "d2"), ("d2", "d3")):
        values[model.by_name[f"L_{u}_{v}_0"].index] = 1
    values[model.by_name["w_0"].index] = 1
    a = integralize_flows(model, Assignment(values=tuple(values)))
    for u, v in (("s", "d1"), ("d1", "d2"), ("d2", "d3")):
        assert a.values[model.by_name[f"F_{u}_{v}_0"].index] == 1


def test_integralize_flows_rejects_floating_cycle(fig5, fig5_session):
    model = build_model(fig5, fig5_session, Mode.LH, True)
    values = [0] * len(model.vars)
    for u, v in (("s", "d1"), ("d2", "d3"), ("d3", "d2")):
        values[model.by_name[f"L_{u}_{v}_0"].index] = 1
    values[model.by_name["w_0"].index] = 1
    with pytest.raises(FlowIntegralizationError):
        integralize_flows(model, Assignment(values=tuple(values)))


def test_nogood_row_cuts_off_a_point_only_the_flow_layer_rejects(fig5, fig5_session):
    # s -> d1 -> d2 -> d3 on both wavelengths: d3 is a leaf on each, so it
    # would absorb two units.  Every directed cut and every flow-free row
    # holds, but no integral flow exists; the no-good row cuts the point off
    # and holds at the solve's optimum.
    model = build_model(fig5, fig5_session, Mode.LH, True)
    lp = build_model(fig5, fig5_session, Mode.LH, False)
    names = [f"L_{u}_{v}_{lam}" for lam in (0, 1) for u, v in (("s", "d1"), ("d1", "d2"), ("d2", "d3"))]
    point = np.zeros(len(lp.vars), dtype=int)
    point[[lp.by_name[name].index for name in names + ["w_0", "w_1"]]] = 1
    assert len(solver._dicut_separator(lp)(point.astype(float))) == 0
    assert check_feasible(lp, Assignment(values=tuple(point.tolist()))).ok
    values = [0] * len(model.vars)
    for v in lp.vars:
        values[model.by_name[v.name].index] = int(point[v.index])
    with pytest.raises(FlowIntegralizationError):
        integralize_flows(model, Assignment(values=tuple(values)))

    row = solver._nogood(point)
    assert row.rel.tolist() == [solver.LE] and row.col.tolist() == list(range(len(lp.vars)))
    assert row.coef @ point > row.rhs[0]
    rep = solve(model)
    assert rep.status is SolveStatus.OPTIMAL
    optimum = np.array([rep.assignment.values[model.by_name[v.name].index] for v in lp.vars])
    assert row.coef @ optimum <= row.rhs[0]


def test_optimum_extraction_validates(fig3, fig4a, fig4b):
    cases = [
        (fig3, make_session(fig3, "s", ["d1", "d2"])),
        (fig4a, make_session(fig4a, "s", ["d1", "d2"])),
        (fig4b, make_session(fig4b, "s", ["d1", "d2"])),
    ]
    for net, ms in cases:
        for mode in (Mode.LH, Mode.LT):
            model, rep = solve_session(net, ms, mode)
            if rep.status is not SolveStatus.OPTIMAL:
                continue
            lss = extract_structures(model, rep.assignment)
            assert validate(net, lss).ok, f"{mode} on {len(net.node_ids)}-node net"


def test_fig3_runtime_budget(fig3, fig3_session):
    start = time.perf_counter()
    solve_session(fig3, fig3_session, Mode.LH)
    solve_session(fig3, fig3_session, Mode.LT)
    assert time.perf_counter() - start < 5.0


def _highs_objective(model):
    """Optimal objective from HiGHS (scipy.optimize.milp), or None if infeasible."""
    n = len(model.vars)
    c = np.zeros(n)
    for i, coef in model.objective:
        c[i] = coef
    a = np.zeros((len(model.constraints), n))
    lb = np.full(len(model.constraints), -np.inf)
    ub = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for i, coef in con.terms:
            a[r, i] += coef
        if con.relation is not Relation.GE:
            ub[r] = con.rhs
        if con.relation is not Relation.LE:
            lb[r] = con.rhs
    res = milp(
        c,
        constraints=LinearConstraint(a, lb, ub),
        integrality=np.ones(n),
        bounds=Bounds([v.lower for v in model.vars], [v.upper for v in model.vars]),
        options={"mip_rel_gap": 0},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("mode", [Mode.LH, Mode.LT])
def test_matches_external_milp_solver(fig3, fig3_session, fig5, fig5_session, mode):
    for net, ms in ((fig3, fig3_session), (fig5, fig5_session)):
        model = build_model(net, ms, mode, True)
        rep = solve(model)
        external = _highs_objective(model)
        mine = rep.objective if rep.status is SolveStatus.OPTIMAL else None
        assert mine == external


# Seed-2 sessions above the oracle's 8-node limit that need real search
# (11-51 B&B nodes): NSF |D|=2 sessions 1 and 3, COST239 with MC splitters
# at nodes 3 and 8, |D|=3, sessions 0 and 1.
HIGHS_CASES = [("nsf", (), 2, (1, 3)), ("cost239", ("3", "8"), 3, (0, 1))]


@pytest.mark.parametrize("mode", [Mode.LH, Mode.LT])
def test_matches_external_milp_solver_on_backbones(mode):
    for topology, splitters, size, picks in HIGHS_CASES:
        net = builtin_topology(topology, splitters=splitters or None)
        sessions = generate_sessions(net, size, max(picks) + 1, seed=2)
        for i in picks:
            model = build_model(net, sessions[i], mode, True)
            rep = solve(model)
            assert rep.status is SolveStatus.OPTIMAL
            external = _highs_objective(model)
            assert rep.objective == external, (topology, i)
            # cost first, wavelengths second: objective = (|W| + 1) cost + wavelengths
            assert divmod(external, net.wavelengths + 1) == (rep.total_cost, rep.wavelength_count)


@pytest.mark.parametrize("session", [0, 5])
@pytest.mark.parametrize("mode", [Mode.LH, Mode.LT])
def test_flow_free_lp_closes_large_groups(session, mode):
    # COST239, |W|=2, |D|=10, generator-seed-3 sessions 0 and 5: with the
    # flow layer in the LP the cold root stalled into LimitReached; the
    # flow-free LP with lazy rows closes each at the root, at HiGHS's optimum.
    net = builtin_topology("cost239")
    model = build_model(net, generate_sessions(net, 10, 6, seed=3)[session], mode, True)
    rep = solve(model)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == 31 == _highs_objective(model)
