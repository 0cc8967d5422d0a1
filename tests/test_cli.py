from __future__ import annotations

import types

import pytest

from lumharch import build_model, builtin_topology, make_session, solve, solver
from lumharch.cli import (
    CSV_HEADER,
    ExperimentConfig,
    Splitmix64,
    _load_topology,
    generate_sessions,
    main,
    run_experiment,
)
from lumharch.hierarchy import parse_dump
from lumharch.model import Mode
from lumharch.network import NodeKind

FIG5B_DUMP = "λ0: (s(l_sd1,d1)),(d2(l_d2d3,d3(l_d3d2,d2)))\n"


def run_cli(*args: str) -> int:
    return main(list(args))


# --- session generation -----------------------------------------------------


def test_generate_sessions_contract():
    nsf = builtin_topology("nsf")
    sessions = generate_sessions(nsf, 6, 100, seed=42)
    assert len(sessions) == 100
    for ms in sessions:
        assert len(ms.destinations) == 6
        assert ms.source not in ms.destinations


def test_generate_sessions_deterministic():
    nsf = builtin_topology("nsf")
    assert generate_sessions(nsf, 6, 50, seed=7) == generate_sessions(nsf, 6, 50, seed=7)


def test_generate_sessions_golden_and_seed_sensitivity():
    nsf = builtin_topology("nsf")
    s1 = generate_sessions(nsf, 6, 3, seed=1)
    s2 = generate_sessions(nsf, 6, 3, seed=2)
    assert s1 != s2
    assert s1[0].source == "10"
    assert sorted(s1[0].destinations, key=nsf.index.__getitem__) == ["3", "5", "7", "8", "11", "12"]
    assert s2[0].source == "5"
    assert sorted(s2[0].destinations, key=nsf.index.__getitem__) == ["3", "6", "11", "12", "13", "14"]


def test_generate_sessions_rejects_oversized_group():
    net = builtin_topology("fig5")
    with pytest.raises(ValueError):
        generate_sessions(net, 4, 1, seed=1)


def test_splitmix_is_stable():
    rng = Splitmix64(0)
    assert [rng.next() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


# --- experiments -------------------------------------------------------------


def test_fig3_forced_session_saving(fig3_session):
    cfg = ExperimentConfig(
        topology="fig3",
        group_size=2,
        session_count=1,
        seed=1,
        wavelengths=2,
        modes=(Mode.LH, Mode.LT),
        forced_sessions=(fig3_session,),
    )
    metrics, csv_text = run_experiment(cfg)
    # hierarchy 7 vs tree 9: saving (9-7)/9
    assert metrics.total_cost == {"LH": 7, "LT": 9}
    assert metrics.cost_saving_percent == pytest.approx(100 * 2 / 9)
    assert metrics.r_cps == 1
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_experiment_lh_only_has_no_lt_rows(fig3_session):
    cfg = ExperimentConfig(
        topology="fig3",
        group_size=2,
        session_count=1,
        modes=(Mode.LH,),
        forced_sessions=(fig3_session,),
    )
    metrics, csv_text = run_experiment(cfg)
    assert metrics.cost_saving_percent is None
    assert ",LT," not in csv_text
    assert ",LH," in csv_text


def test_experiment_config_rejects_empty_or_repeated_modes():
    for modes in ((), (Mode.LH, Mode.LH), (Mode.LT, Mode.LH, Mode.LT)):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            ExperimentConfig(topology="fig3", modes=modes)


def test_experiment_dominance_small_nsf():
    cfg = ExperimentConfig(topology="nsf", group_size=2, session_count=3, seed=5, modes=(Mode.LH, Mode.LT))
    metrics, _ = run_experiment(cfg)
    assert metrics.total_cost["LH"] <= metrics.total_cost["LT"]
    assert metrics.cost_saving_percent is None or metrics.cost_saving_percent >= 0


def test_experiment_rows_follow_modes_whatever_the_solve_order():
    # LH is solved first in every session, since its optimum bounds and may
    # close the LT solve, but rows still come in --modes order.
    base = dict(topology="nsf", group_size=3, session_count=4, seed=1)
    m_lh_lt, lh_lt = run_experiment(ExperimentConfig(**base, modes=(Mode.LH, Mode.LT)))
    m_lt_lh, lt_lh = run_experiment(ExperimentConfig(**base, modes=(Mode.LT, Mode.LH)))
    a = [line.rsplit(",", 1)[0] for line in lh_lt.splitlines()[1:]]  # without the ms column
    b = [line.rsplit(",", 1)[0] for line in lt_lh.splitlines()[1:]]
    assert [row.split(",")[3] for row in a] == ["LH", "LT"] * 4
    assert [row.split(",")[3] for row in b] == ["LT", "LH"] * 4
    assert a[0::2] == b[1::2] and a[1::2] == b[0::2]
    assert m_lh_lt == m_lt_lh


def test_experiment_deterministic_csv():
    cfg = ExperimentConfig(topology="fig3", group_size=2, session_count=4, seed=11)
    _, first = run_experiment(cfg)
    _, second = run_experiment(cfg)
    assert first == second
    assert all(line.endswith(",") for line in first.strip().splitlines()[1:])  # ms column empty


def test_experiment_timing_column_filled():
    cfg = ExperimentConfig(topology="fig3", group_size=2, session_count=1, seed=11, timing=True)
    _, text = run_experiment(cfg)
    for line in text.strip().splitlines()[1:]:
        assert line.rsplit(",", 1)[1].isdigit()


def test_experiment_golden_csv():
    # Rows come session by session, each in cfg.modes order.  nodes_explored
    # and cps_used are left out: they may move at equal optima when the
    # B&B search path changes.
    cfg = ExperimentConfig(topology="fig3", group_size=2, session_count=3, seed=3)
    _, text = run_experiment(cfg)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == CSV_HEADER
    assert all(line.count(",") == 9 for line in lines)
    kept = [0, 1, 2, 3, 4, 5, 7, 9]  # every column but cps_used and nodes_explored
    rows = [",".join(line.split(",")[i] for i in kept) for line in lines[1:]]
    assert rows == [
        "0,5,3;4,LH,2,1,Optimal,",
        "0,5,3;4,LT,2,1,Optimal,",
        "1,d2,2;3,LH,2,1,Optimal,",
        "1,d2,2;3,LT,2,1,Optimal,",
        "2,s,1;4,LH,4,1,Optimal,",
        "2,s,1;4,LT,4,1,Optimal,",
    ]


# --- command surface ---------------------------------------------------------


def test_solve_command(capsys):
    code = run_cli("solve", "--topology", "fig3", "--source", "s", "--dest", "d1,d2", "--mode", "lh")
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Optimal" in out
    assert "total cost: 7" in out
    assert "cps nodes: 3" in out


def test_solve_writes_dump(tmp_path, capsys):
    dump = tmp_path / "structures.txt"
    code = run_cli(
        "solve", "--topology", "fig3", "--source", "s", "--dest", "d1,d2", "--dump", str(dump)
    )
    assert code == 0
    assert dump.read_text(encoding="utf-8").startswith("λ")


@pytest.mark.parametrize(
    "topology, dests, mode", [("fig3", "d1,d2", "lh"), ("fig5", "d1,d2,d3", "lt")]
)
def test_no_connectivity_optimum_without_a_port_pairing(tmp_path, capsys, topology, dests, mode):
    # Without the flow layer these optima hold a detached cycle, which has no
    # rooted port pairing: solve, --dump and import-sol write it as extra
    # components after the rooted one and exit 0.  The dump round-trips
    # through parse_dump, and validate reports the detached cycle (exit 2),
    # not a parse error.
    session = ("--topology", topology, "--source", "s", "--dest", dests, "--mode", mode, "--no-connectivity")
    dump = tmp_path / "structures.txt"
    assert run_cli("solve", *session, "--dump", str(dump)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "status: Optimal" in out
    text = dump.read_text(encoding="utf-8")
    assert text in out and text.startswith("λ0: (s(") and "),(" in text

    net = builtin_topology(topology)
    model = build_model(net, make_session(net, "s", dests.split(",")), Mode(mode.upper()), False)
    rep = solve(model)
    assert parse_dump(text, model.session) == rep.structures
    checked = ("--topology", topology, "--source", "s", "--dest", dests)
    assert run_cli("validate", *checked, str(dump)) == 2
    out, err = capsys.readouterr()
    assert err == "" and "[connectivity]" in out and "not reachable from source s" in out

    sol = tmp_path / "model.sol"
    sol.write_text("\n".join(f"{v.name} {rep.assignment.values[v.index]}" for v in model.vars), encoding="utf-8")
    assert run_cli("import-sol", *session, "--solution", str(sol)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert f"objective: {rep.objective}" in out
    assert text in out


def test_splitters_replace_a_file_networks_mc_nodes(tmp_path):
    # --splitters makes exactly the named nodes MC, so on a file network it
    # demotes the file's own MC nodes; an empty value keeps them.
    path = tmp_path / "mc.net"
    path.write_text("NODE a MC\nNODE b MI\nNODE c MI\nEDGE a b 1\nEDGE b c 1\nWAVELENGTHS 1\n", encoding="utf-8")
    for splitters, mc in (((), {"a"}), (("c",), {"c"}), (("a", "b"), {"a", "b"})):
        net = _load_topology(str(path), splitters, None)
        assert {n for n, kind in net.nodes if kind is NodeKind.MC} == mc, splitters


def test_builtin_loads_share_one_network():
    # Each batch pass loads its topology again; a builtin (with or without
    # splitters) comes back as the same network, so its model templates stay.
    net = _load_topology("cost239", ("3", "8"), None)
    assert _load_topology("COST239", ("3", "8"), None) is net
    assert {n for n, kind in net.nodes if kind is NodeKind.MC} == {"3", "8"}
    assert _load_topology("nsf", (), None) is _load_topology("nsf", (), None)
    assert _load_topology("nsf", (), 3).wavelengths == 3


def test_solve_infeasible_exit_code(tmp_path, capsys):
    star = tmp_path / "star.net"
    star.write_text(
        "NODE s MI\nNODE c MI\nNODE d1 MI\nNODE d2 MI\n"
        "EDGE s c 1\nEDGE c d1 1\nEDGE c d2 1\nWAVELENGTHS 1\n",
        encoding="utf-8",
    )
    code = run_cli("solve", "--topology", str(star), "--source", "s", "--dest", "d1,d2", "--mode", "lt")
    assert code == 3


def test_solve_limit_exit_code(capsys):
    # NSF seed-1 |D|=4 session 3 in LT mode still branches after the root's
    # cut rounds.
    code = run_cli(
        "solve", "--topology", "nsf", "--source", "12", "--dest", "3,6,7,14", "--mode", "lt", "--node-limit", "1"
    )
    assert code == 4


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--topology", "fig3")
    assert exc.value.code == 1


def test_input_validation_exit_code(tmp_path, capsys):
    assert run_cli("solve", "--topology", "nosuch", "--source", "s", "--dest", "d") == 2
    assert run_cli("solve", "--topology", "fig3", "--source", "zz", "--dest", "d1") == 2
    csv = tmp_path / "out.csv"
    assert run_cli("batch", "--topology", "fig3", "--group-size", "2", "--modes", ",", "--csv", str(csv)) == 2
    assert "error: no modes requested" in capsys.readouterr().err
    assert not csv.exists()
    # a value that is not finite is bad input naming its line, not a traceback
    sol = tmp_path / "inf.sol"
    sol.write_text("L_s_1_0 inf\n", encoding="utf-8")
    args = ("import-sol", "--topology", "fig3", "--source", "s", "--dest", "d1,d2", "--solution", str(sol))
    assert run_cli(*args) == 2
    assert "error: line 1: value 'inf' for L_s_1_0 is not finite" in capsys.readouterr().err


def test_compare_command(capsys):
    code = run_cli("compare", "--topology", "fig3", "--source", "s", "--dest", "d1,d2")
    out = capsys.readouterr().out
    assert code == 0
    assert "cost delta (LT - LH): 2" in out
    assert "saving: 22.22%" in out


def test_validate_command_accepts_good_dump(tmp_path, capsys):
    dump = tmp_path / "good.txt"
    dump.write_text("λ0: (s(l_sd1,d1(l_d1d2,d2(l_d2d3,d3))))\n", encoding="utf-8")
    code = run_cli("validate", "--topology", "fig5", "--source", "s", "--dest", "d1,d2,d3", str(dump))
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_validate_command_rejects_fig5_false_result(tmp_path, capsys):
    dump = tmp_path / "false.txt"
    dump.write_text(FIG5B_DUMP, encoding="utf-8")
    code = run_cli("validate", "--topology", "fig5", "--source", "s", "--dest", "d1,d2,d3", str(dump))
    out = capsys.readouterr().out
    assert code == 2
    assert "connectivity" in out


def test_batch_command_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = run_cli(
        "batch", "--topology", "fig3", "--group-size", "2", "--sessions", "2",
        "--seed", "9", "--csv", str(csv_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    text = csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert "R(CPS):" in out


def test_batch_with_splitters(tmp_path, capsys):
    csv_path = tmp_path / "caseb.csv"
    code = run_cli(
        "batch", "--topology", "nsf", "--group-size", "2", "--sessions", "2",
        "--seed", "12", "--splitters", "5,8", "--csv", str(csv_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "LH: solved 2/2" in out and "LT: solved 2/2" in out


def test_batch_excludes_a_session_whose_candidates_fail_the_check(tmp_path, capsys, monkeypatch):
    # A rejected incumbent ends the solve LimitReached: the batch counts the
    # session as excluded and writes its rows instead of dying.
    monkeypatch.setattr(solver, "check_feasible", lambda model, a: types.SimpleNamespace(ok=False))
    csv_path = tmp_path / "out.csv"
    code = run_cli(
        "batch", "--topology", "fig3", "--group-size", "2", "--sessions", "1",
        "--seed", "9", "--csv", str(csv_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "LH: solved 0/1" in out and "excluded (not solved to optimality in every mode): 1" in out
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[7] for row in rows] == ["LimitReached", "LimitReached"]


def test_batch_byte_identical(tmp_path):
    args = [
        "batch", "--topology", "fig3", "--group-size", "2", "--sessions", "3",
        "--seed", "4",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--csv", str(a)) == 0
    assert run_cli(*args, "--csv", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_emit_lp_and_import_sol_round_trip(tmp_path, capsys):
    lp_path = tmp_path / "model.lp"
    code = run_cli(
        "emit-lp", "--topology", "fig3", "--source", "s", "--dest", "d1,d2", "--out", str(lp_path)
    )
    assert code == 0
    assert "Minimize" in lp_path.read_text(encoding="utf-8")

    # Solve with the library, feed the solution text back through the CLI.
    from lumharch import Mode as M, build_model, solve

    net = builtin_topology("fig3")
    ms = make_session(net, "s", ["d1", "d2"])
    model = build_model(net, ms, M.LH, True)
    rep = solve(model)
    sol_path = tmp_path / "model.sol"
    sol_path.write_text(
        "\n".join(f"{v.name} {rep.assignment.values[v.index]}" for v in model.vars),
        encoding="utf-8",
    )
    capsys.readouterr()
    code = run_cli(
        "import-sol", "--topology", "fig3", "--source", "s", "--dest", "d1,d2",
        "--solution", str(sol_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"objective: {rep.objective}" in out


def test_import_sol_flags_infeasible(tmp_path, capsys):
    sol_path = tmp_path / "zeros.sol"
    sol_path.write_text("", encoding="utf-8")
    code = run_cli(
        "import-sol", "--topology", "fig3", "--source", "s", "--dest", "d1,d2",
        "--solution", str(sol_path),
    )
    assert code == 3
    assert "infeasible" in capsys.readouterr().out
