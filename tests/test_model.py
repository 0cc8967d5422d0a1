from __future__ import annotations

import pytest

from lumharch import (
    Assignment,
    Mode,
    VarKind,
    build_model,
    check_feasible,
    emit_lp,
    extract_structures,
    import_solution,
    make_session,
    solve,
)
from lumharch.hierarchy import cps_nodes, is_light_tree
from lumharch.model import Relation


def _kind_counts(model):
    counts = {k: 0 for k in VarKind}
    for v in model.vars:
        counts[v.kind] += 1
    return counts


def test_fig3_variable_counts(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, connectivity=True)
    counts = _kind_counts(model)
    assert counts[VarKind.LIGHT] == 2 * 8 * 2
    assert counts[VarKind.FLOW] == 2 * 8 * 2
    assert counts[VarKind.WAVE] == 2
    assert len(model.vars) == 66
    assert model.delta == 3


def test_no_connectivity_drops_flow_vars(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, connectivity=False)
    counts = _kind_counts(model)
    assert counts[VarKind.FLOW] == 0
    assert len(model.vars) == 34
    assert not any(c.name.startswith("flow_") for c in model.constraints)


def test_dense_indices_deterministic(fig3, fig3_session):
    m1 = build_model(fig3, fig3_session, Mode.LH, True)
    m2 = build_model(fig3, fig3_session, Mode.LH, True)
    assert [v.name for v in m1.vars] == [v.name for v in m2.vars]
    assert [v.index for v in m1.vars] == list(range(len(m1.vars)))


def test_unicast_drops_dest_upper_bound(fig5):
    ms = make_session(fig5, "s", ["d1"])
    model = build_model(fig5, ms, Mode.LH, True)
    names = [c.name for c in model.constraints]
    assert "dest_in_lo_d1" in names
    assert "dest_in_hi_d1" not in names


def test_multicast_keeps_dest_upper_bound(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    names = [c.name for c in model.constraints]
    assert "dest_in_hi_d1" in names and "dest_in_hi_d2" in names
    hi = next(c for c in model.constraints if c.name == "dest_in_hi_d1")
    assert hi.relation is Relation.LE and hi.rhs == 1


def test_lt_mode_adds_tree_rows(fig3, fig3_session):
    lh = build_model(fig3, fig3_session, Mode.LH, True)
    lt = build_model(fig3, fig3_session, Mode.LT, True)
    lh_names = {c.name for c in lh.constraints}
    lt_names = {c.name for c in lt.constraints}
    assert lh_names < lt_names
    assert any(n.startswith("tree_in_") for n in lt_names)
    assert any(n.startswith("tree_out_") for n in lt_names)
    # trees constrain MI output only; the MC variant has no tree_out row
    mc_net = fig3.with_overrides(splitters=("3",))
    lt_mc = build_model(mc_net, fig3_session, Mode.LT, True)
    assert "tree_out_3_0" not in {c.name for c in lt_mc.constraints}
    assert "tree_in_3_0" in {c.name for c in lt_mc.constraints}


def test_emit_lp_shape(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    text = emit_lp(model)
    assert "Minimize" in text
    assert "3 L_s_1_0" in text  # delta * unit cost
    assert "Subject To" in text and "Bounds" in text and "Binary" in text and "General" in text
    assert text.rstrip().endswith("End")
    bounds = text.split("Bounds")[1].split("Binary")[0]
    for v in model.vars:
        assert bounds.count(f" 0 <= {v.name} <= ") == 1
    assert " w_0\n" in text and "F_s_1_0" in text


def test_emit_lp_deterministic(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    assert emit_lp(model) == emit_lp(model)


def test_import_solution_tolerance(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    a = import_solution(model, "L_s_1_0 0.9999999\n")
    assert a.values[model.by_name["L_s_1_0"].index] == 1
    assert sum(a.values) == 1  # everything else defaults to 0


def test_import_solution_rejects_fractional(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    with pytest.raises(ValueError, match="not integral"):
        import_solution(model, "L_s_1_0 0.5\n")


def test_import_solution_rejects_unknown_and_bounds(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    with pytest.raises(ValueError, match="unknown variable"):
        import_solution(model, "L_zz_1_0 1\n")
    with pytest.raises(ValueError, match="outside bounds"):
        import_solution(model, "L_s_1_0 2\n")
    with pytest.raises(ValueError, match="bad numeric"):
        import_solution(model, "L_s_1_0 abc\n")
    with pytest.raises(ValueError, match="expected"):
        import_solution(model, "L_s_1_0\n")
    with pytest.raises(ValueError, match=r"line 3: variable 'L_s_1_0' already given on line 1"):
        import_solution(model, "L_s_1_0 1\n# comment\nL_s_1_0 0\n")


def test_import_solution_accepts_comments_and_blanks(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    a = import_solution(model, "# comment\n\nw_0 1\n")
    assert model.wavelengths_value(a) == 1


def test_all_zero_import_fails_feasibility_later(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    a = import_solution(model, "")
    report = check_feasible(model, a)
    assert not report.ok
    assert any(v.rule == "src_out_lo" for v in report.violations)


def test_check_feasible_accepts_solver_optimum(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    rep = solve(model)
    assert check_feasible(model, rep.assignment).ok


def test_check_feasible_flags_fig5_false_result(fig5, fig5_session):
    model = build_model(fig5, fig5_session, Mode.LH, connectivity=True)
    values = [0] * len(model.vars)
    for name in ("L_s_d1_0", "L_d2_d3_0", "L_d3_d2_0", "w_0",
                 "F_s_d1_0", "F_d2_d3_0", "F_d3_d2_0"):
        values[model.by_name[name].index] = 1
    report = check_feasible(model, Assignment(values=tuple(values)))
    assert not report.ok
    assert any(v.rule.startswith("flow_") for v in report.violations)
    assert any(v.rule == "flow_src" for v in report.violations)


def test_check_feasible_flags_bounds(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    values = [0] * len(model.vars)
    values[model.by_name["F_s_1_0"].index] = 99
    report = check_feasible(model, Assignment(values=tuple(values)))
    assert any(v.rule == "bounds" for v in report.violations)


def test_extract_structures_lh_optimum(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    rep = solve(model)
    lss = extract_structures(model, rep.assignment)
    assert len(lss.structures) == 1
    (ls,) = lss.structures
    assert sum(fig3.link_cost[l] for l in ls.links) == rep.total_cost
    assert cps_nodes(ls, fig3) == {"3"}


def test_extract_structures_lt_optimum(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LT, True)
    rep = solve(model)
    lss = extract_structures(model, rep.assignment)
    assert len(lss.structures) == 2
    assert all(is_light_tree(ls) for ls in lss.structures)
    assert sum(fig3.link_cost[l] for ls in lss.structures for l in ls.links) == 9


def test_extract_structures_unicast(fig5):
    ms = make_session(fig5, "s", ["d1"])
    model = build_model(fig5, ms, Mode.LH, True)
    rep = solve(model)
    lss = extract_structures(model, rep.assignment)
    assert len(lss.structures) == 1
    assert lss.structures[0].links == (("s", "d1"),)


def test_objective_is_lexicographic(fig3, fig3_session):
    # delta = |W| + 1 makes the scalar objective order equal the
    # (cost, wavelengths) lexicographic order whenever wavelengths <= |W|.
    delta = fig3.wavelengths + 1
    pairs = [(c, w) for c in range(0, 12) for w in range(0, fig3.wavelengths + 1)]
    for c1, w1 in pairs:
        for c2, w2 in pairs:
            scalar = (delta * c1 + w1) - (delta * c2 + w2)
            lex = ((c1, w1) > (c2, w2)) - ((c1, w1) < (c2, w2))
            assert (scalar > 0) == (lex > 0) and (scalar < 0) == (lex < 0)


def test_flow_light_coupling_at_optimum(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    rep = solve(model)
    values = rep.assignment.values
    for v in model.vars:
        if v.kind is VarKind.FLOW:
            light = values[model.light_index[(v.tail, v.head, v.wavelength)]]
            flow = values[v.index]
            assert (flow >= 1) == (light == 1)


def test_tree_solutions_remain_hierarchy_feasible(fig3, fig3_session):
    # Feasible-set nesting: LT adds rows, so its optimum satisfies LH.
    lt_model = build_model(fig3, fig3_session, Mode.LT, True)
    lh_model = build_model(fig3, fig3_session, Mode.LH, True)
    rep = solve(lt_model)
    assert [v.name for v in lt_model.vars] == [v.name for v in lh_model.vars]
    assert check_feasible(lh_model, rep.assignment).ok


def test_lp_names_roundtrip_solver_solution(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    rep = solve(model)
    text = "\n".join(f"{v.name} {rep.assignment.values[v.index]}" for v in model.vars)
    again = import_solution(model, text)
    assert again == rep.assignment
    assert model.objective_value(again) == rep.objective
