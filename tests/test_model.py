from __future__ import annotations

import functools
import hashlib
import random
import sys
import threading

import numpy as np
import pytest

from lumharch import (
    Assignment,
    Mode,
    VarKind,
    build_model,
    builtin_topology,
    check_feasible,
    emit_lp,
    extract_structures,
    import_solution,
    make_session,
    solve,
)
from lumharch import solver
from lumharch.cli import generate_sessions
from lumharch.hierarchy import cps_nodes, is_light_tree
from lumharch.model import Relation
from lumharch.network import MulticastSession


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


def test_source_among_destinations_is_rejected(fig3):
    # A node is the source, a destination or neither; a session that makes
    # its source a destination too has no model.
    ms = MulticastSession("s", frozenset({"s", "d1"}))
    for mode in (Mode.LH, Mode.LT):
        with pytest.raises(ValueError, match="^source must not be a destination$"):
            build_model(fig3, ms, mode, True)


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


def _relaxation_pairs():
    """(LH, LT) model pairs: fig3, fig5, NSF and COST239 MC(3,8) sessions at
    |D| = 1-3, with and without the flow layer."""
    nets = (
        builtin_topology("fig3"),
        builtin_topology("fig5"),
        builtin_topology("nsf"),
        builtin_topology("cost239", splitters=("3", "8")),
    )
    for net in nets:
        for size in (1, 2, 3):
            for ms in generate_sessions(net, size, 2, seed=1):
                for conn in (True, False):
                    yield build_model(net, ms, Mode.LH, conn), build_model(net, ms, Mode.LT, conn)


def test_lt_model_is_the_lh_model_plus_rows():
    # SolveOptions.relaxation rests on this: the LT model has the LH model's
    # variables and objective, and every LH row unchanged, so the LH optimum
    # bounds the LT optimum from below.  An LH-only row would break that.
    for lh, lt in _relaxation_pairs():
        assert lt.vars == lh.vars and lt.objective == lh.objective
        lt_rows = {c.name: c for c in lt.constraints}
        for c in lh.constraints:
            assert lt_rows.get(c.name) == c, (lh.session, lh.connectivity, c.name)
        assert len(lt_rows) > len(lh.constraints)


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


# sha256 of emit_lp, recorded before the model held its rows as arrays:
# fig3 and fig5 with and without the flow layer, and seed-1 |D|=3 sessions
# 0-2 on NSF and on COST239 with splitters at 3 and 8.  The |D| = 1 models
# (no dest_in_hi row, flow_hi scaled by 1) and NSF session 0 without the
# flow layer were recorded before the rows came from a per-network template.
EMIT_LP_SHA256 = {
    "fig3-LH-conn": "91e1206eb646622e7ba021ca0375520aa073e25bb3af06d7b1d840a63a3170a8",
    "fig3-LH-noconn": "1052e9c6396aead49b68d8da084d0230d83d7176235549eaf1690c7a9676084a",
    "fig3-LT-conn": "3e72b0925ea80221f783ec22c5c8c89e23e84d7655eb2894cf5d46b075461ab8",
    "fig3-LT-noconn": "a543da44bddeebb3a5e8bdb70185db64c84ac752d1be0d2ba2ac68696b027ab3",
    "fig5-LH-conn": "c8713ab1bb6acd787a0148464e92ca9e89d7e075cd055090330a78e1002191f5",
    "fig5-LH-noconn": "7d4d0552156c5de0ccc3b14f598612294960cd67b6499ab432f0079c109f94cf",
    "fig5-LT-conn": "ad6455de3facaff1f1bb70c24c46e5f3208c7831f2acf43267128900ea8af4fa",
    "fig5-LT-noconn": "259324a8dcf85e479287c0c067acbff4ec2f8c33273b77a5bfc9101319187dca",
    "nsf-s0-LH": "7143c8d7697cfa4c9a99f2912afc4f7a81c3543acd18ced9a79ea39ed3f7e9e1",
    "nsf-s0-LT": "2b7bde9e52c188e1949e1e6e879d5e89f7136543a2cfa9d7d6fefed5c27b4145",
    "nsf-s1-LH": "721909800748b749d040295cb1d086a59ba0792896db9ccfbf3206578c14306d",
    "nsf-s1-LT": "f09048ff37dbff8223b6fd85cdf86b5bd60e47c7b067ee0ba4eb4956522f1cfb",
    "nsf-s2-LH": "9f11991fe66e3a48e398e6bec327930bd332ffb2f01d19ebadb37902a7519e6a",
    "nsf-s2-LT": "d4904d996aa154992da9485699ec4ef97ed101aa687dc371e6cdafb6705c7664",
    "cost239-mc38-s0-LH": "311fa466b04f99460277ed7e3bd5459e6f839ac71d4e3144ab468f488aba4b8c",
    "cost239-mc38-s0-LT": "55c0b807ba31eab068e69b8c96374b405c31711993c9db4931fc9f1fa9e8e72a",
    "cost239-mc38-s1-LH": "6682bf38d64bcb5490bb3b7631b83681e53cd648b96e3c78e65e0ccdfce9fcf9",
    "cost239-mc38-s1-LT": "40ffe5e40f1fe4eb0b209827b74e23fdb7be110f85ad2a09f9d222c824bde876",
    "cost239-mc38-s2-LH": "a98d229b42854f1eb602cf8120d89cb47d4fc50a272c4facdbd47a1602ac8e3a",
    "cost239-mc38-s2-LT": "e0a5acd50cbde7b757a123217f6d5e153c129161bc9984d7acf3bf07d5abba94",
    "nsf-s0-LT-noconn": "13cdca32ac0974f1cabf856905e94fd563b1a3bb8e5e7ea51b935998ab9287ea",
    "nsf-d1-s0-LH": "d232b8a0546976940ec47069b9042612d996f709f272faec840cafa527447542",
    "nsf-d1-s0-LT": "a9550b3b09fd2c1a3ce7bbe8150f955c68d6715f3438dbcfb2b68f152d0723e7",
    "nsf-d1-s1-LH": "4e103767d4f22dfdfbe06128aa87922adc01b0381a910aa7cba1fb5cdbed8dc1",
    "nsf-d1-s1-LT": "0fb0bed4dd62e0fdbcdc591f795ea738e736f9a4d5c526cc7d02051eae7eca5b",
    "cost239-mc38-d1-s0-LH": "c6a5642cd66fb95d6b2487361b69a7efa4a5987318b3303be70801c08d399204",
    "cost239-mc38-d1-s0-LT": "fcb2fb2f7a82531084df613ebc485db2eea1f8dcebb9333339e8770ac5201ff4",
}


def _pinned_models():
    fig3, fig5 = builtin_topology("fig3"), builtin_topology("fig5")
    for name, net, dests in (("fig3", fig3, ["d1", "d2"]), ("fig5", fig5, ["d1", "d2", "d3"])):
        ms = make_session(net, "s", dests)
        for mode in (Mode.LH, Mode.LT):
            for conn in (True, False):
                yield f"{name}-{mode.value}-{'conn' if conn else 'noconn'}", build_model(net, ms, mode, conn)
    nsf, mc38 = builtin_topology("nsf"), builtin_topology("cost239", splitters=("3", "8"))
    for name, net in (("nsf", nsf), ("cost239-mc38", mc38)):
        for i, ms in enumerate(generate_sessions(net, 3, 3, seed=1)):
            for mode in (Mode.LH, Mode.LT):
                yield f"{name}-s{i}-{mode.value}", build_model(net, ms, mode, True)
    yield "nsf-s0-LT-noconn", build_model(nsf, generate_sessions(nsf, 3, 1, seed=1)[0], Mode.LT, False)
    for name, net, count in (("nsf", nsf, 2), ("cost239-mc38", mc38, 1)):
        for i, ms in enumerate(generate_sessions(net, 1, count, seed=1)):
            for mode in (Mode.LH, Mode.LT):
                yield f"{name}-d1-s{i}-{mode.value}", build_model(net, ms, mode, True)


def test_emit_lp_bytes_are_pinned():
    digests = {key: hashlib.sha256(emit_lp(model).encode()).hexdigest() for key, model in _pinned_models()}
    assert digests == EMIT_LP_SHA256


def test_model_arrays_leave_equality_and_hashing_alone(fig3, fig3_session):
    lh, again = build_model(fig3, fig3_session, Mode.LH, True), build_model(fig3, fig3_session, Mode.LH, True)
    assert lh == again and hash(lh) == hash(again) and lh.rows is not again.rows
    assert lh != build_model(fig3, fig3_session, Mode.LT, True)


def _snapshot(model):
    """A model's rows, row names, variables, objective and bounds as plain values."""
    r = model.rows
    arrays = tuple((a.dtype.str, tuple(a.tolist())) for a in (r.row, r.col, r.coef, r.rel, r.rhs))
    return arrays, model.row_names, model.vars, model.objective, model.bounds.tolist()


def _cold_network(name, splitters, wavelengths):
    """A new network equal to ``builtin_topology(name, splitters=...,
    wavelengths=...)``, whose table of templates no build has filled yet."""
    net = builtin_topology(name).with_overrides(splitters=splitters, wavelengths=wavelengths)
    assert not net.model_templates
    return net


def test_build_order_does_not_change_a_model():
    # Sessions in one order, then in reverse order on a fresh, equal network
    # whose templates start cold.
    fresh = functools.partial(_cold_network, "nsf", splitters=("5", "12"), wavelengths=3)
    net = fresh()
    sessions = generate_sessions(net, 3, 4, seed=2) + generate_sessions(net, 1, 3, seed=2)
    sessions += generate_sessions(net, 2, 3, seed=2)
    jobs = [(ms, mode, conn) for ms in sessions for mode in (Mode.LH, Mode.LT) for conn in (True, False)]
    first = [_snapshot(build_model(net, *job)) for job in jobs]
    del net
    net = fresh()
    second = [_snapshot(build_model(net, *job)) for job in reversed(jobs)]
    assert first == second[::-1]


def test_models_do_not_share_writable_arrays():
    net = builtin_topology("cost239", splitters=("3", "8"))
    ms0, ms1 = generate_sessions(net, 3, 2, seed=1)
    model = build_model(net, ms0, Mode.LT, True)
    expected = [_snapshot(build_model(net, ms, Mode.LT, True)) for ms in (ms0, ms1)]
    r = model.rows
    for a in (r.row, r.col, r.coef, r.rel, r.rhs):
        a += 1
    assert [_snapshot(build_model(net, ms, Mode.LT, True)) for ms in (ms0, ms1)] == expected
    with pytest.raises(ValueError, match="read-only"):
        model.bounds[1, 0] = 5
    for a in vars(net.model_templates[(Mode.LT, True, 3)]).values():
        if isinstance(a, np.ndarray) and len(a):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    with pytest.raises(TypeError):
        model.light_index[("3", "8", 0)] = 0


def test_concurrent_builds_on_a_cold_network_match_a_sequential_build():
    fresh = functools.partial(_cold_network, "cost239", splitters=("2", "7"), wavelengths=3)
    net = fresh()
    sessions = generate_sessions(net, 2, 4, seed=5)
    jobs = [(ms, mode) for ms in sessions for mode in (Mode.LH, Mode.LT)]
    expected = [_snapshot(build_model(net, ms, mode, True)) for ms, mode in jobs]
    del net
    net = fresh()
    barrier = threading.Barrier(2)
    results: list = [None, None]

    def work(k: int) -> None:
        order = jobs if k == 0 else jobs[::-1]
        barrier.wait()
        results[k] = [_snapshot(build_model(net, ms, mode, True)) for ms, mode in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == expected and results[1] == expected[::-1]


def _row_by_row(model, a):
    """The violations of ``a``, evaluated bound by bound and row by row over
    ``model.constraints``, as (rule, subject, message)."""
    out = []
    for v in model.vars:
        x = a.values[v.index]
        if not v.lower <= x <= v.upper:
            out.append(("bounds", v.name, f"value {x} outside [{v.lower}, {v.upper}]"))
    for c in model.constraints:
        lhs = sum(coef * a.values[i] for i, coef in c.terms)
        ok = {Relation.LE: lhs <= c.rhs, Relation.GE: lhs >= c.rhs, Relation.EQ: lhs == c.rhs}[c.relation]
        if not ok:
            out.append((c.name, c.name, f"lhs {lhs} {c.relation.value} {c.rhs} violated (slack {c.rhs - lhs})"))
    return out


def test_check_feasible_matches_a_row_by_row_evaluation(fig3, fig3_session, fig5, fig5_session):
    # Optimal and greedy-seed assignments, each also with a few entries
    # moved to -1 .. upper + 1 (bound violations included): the one matvec
    # names the same violations, in the same order, with the same messages.
    nsf = builtin_topology("nsf")
    cases = [(fig3, fig3_session), (fig5, fig5_session)] + [(nsf, ms) for ms in generate_sessions(nsf, 3, 2, seed=1)]
    rng = random.Random(17)
    checked = violated = bounds = 0
    for net, ms in cases:
        for mode in (Mode.LH, Mode.LT):
            for conn in (True, False):
                model = build_model(net, ms, mode, conn)
                starts = [solve(model).assignment, solver._greedy_incumbent(model)]
                for start in filter(None, starts):
                    for k in range(8):
                        values = list(start.values)
                        for _ in range(k):
                            v = model.vars[rng.randrange(len(values))]
                            values[v.index] = rng.randint(v.lower - 1, v.upper + 1)
                        a = Assignment(values=tuple(values))
                        got = [(x.rule, x.subject, x.message) for x in check_feasible(model, a).violations]
                        assert got == _row_by_row(model, a)
                        checked += 1
                        violated += bool(got)
                        bounds += any(rule == "bounds" for rule, _, _ in got)
    assert checked == 256 and violated >= 200 and bounds >= 150


def test_import_solution_tolerance(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    a = import_solution(model, "L_s_1_0 0.9999999\n")
    assert a.values[model.by_name["L_s_1_0"].index] == 1
    assert sum(a.values) == 1  # everything else defaults to 0


def test_import_solution_rejects_fractional(fig3, fig3_session):
    model = build_model(fig3, fig3_session, Mode.LH, True)
    with pytest.raises(ValueError, match="not integral"):
        import_solution(model, "L_s_1_0 0.5\n")
    for value in ("inf", "-inf", "1e400", "nan"):
        with pytest.raises(ValueError, match=f"line 2: value '{value}' for L_s_1_0 is not finite"):
            import_solution(model, f"# header\nL_s_1_0 {value}\n")


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


def test_cost_value_matches_the_per_link_sum(fig3, fig3_session, fig5, fig5_session):
    # cost_value reads the cost off the objective; it must equal the sum of
    # link cost times L over every light column, at optima, greedy seeds and
    # random integer points (out-of-bounds values included), on fig3, fig5
    # and the networks and sessions of the benchmark workloads.
    nsf, cost239 = builtin_topology("nsf"), builtin_topology("cost239", splitters=("3", "8"))
    solved = [(fig3, fig3_session), (fig5, fig5_session)]
    cases = solved + [(nsf, ms) for ms in generate_sessions(nsf, 3, 5, seed=1)[3:]]
    cases += [(nsf, ms) for seed in (1, 7) for ms in generate_sessions(nsf, 1, 4, seed)]
    cases += [(cost239, ms) for ms in generate_sessions(cost239, 3, 12, seed=1)]
    rng = random.Random(29)
    checked = 0
    for net, ms in cases:
        for mode in (Mode.LH, Mode.LT):
            for conn in (True, False):
                model = build_model(net, ms, mode, conn)
                points = [solver._greedy_incumbent(model)]
                if (net, ms) in solved:
                    points.append(solve(model).assignment)
                points += [
                    Assignment(values=tuple(rng.randint(v.lower - 1, v.upper + 1) for v in model.vars))
                    for _ in range(3)
                ]
                for a in filter(None, points):
                    per_link = sum(
                        net.link_cost[(v.tail, v.head)] * a.values[v.index]
                        for v in model.vars
                        if v.kind is VarKind.LIGHT
                    )
                    assert model.cost_value(a) == per_link
                    checked += 1
    assert checked >= 300


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
