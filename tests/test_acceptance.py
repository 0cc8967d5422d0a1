"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import contextlib
import time

import pytest

from lumharch import (
    LightStructure,
    LightStructureSet,
    Mode,
    SolveOptions,
    SolveStatus,
    build_model,
    builtin_topology,
    cps_nodes,
    emit_lp,
    extract_structures,
    import_solution,
    make_session,
    parse_network,
    solve,
    solve_session,
    uses_cps,
    validate,
)
from lumharch.cli import ExperimentConfig, Splitmix64, generate_sessions, run_experiment
from lumharch.network import Network, NodeKind
from lumharch.oracle import enumerate_optimal
from tests.conftest import FIG4A_TEXT, FIG4B_TEXT, FIG3_LH_EXHIBIT_LINKS


@contextlib.contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def _random_instance(rng: Splitmix64):
    n = 5 + rng.below(3)  # 5..7 nodes
    names = [f"n{i}" for i in range(n)]
    kinds = [NodeKind.MC if rng.below(4) == 0 else NodeKind.MI for _ in range(n)]
    edges = []
    present = set()
    for i in range(1, n):
        j = rng.below(i)
        edges.append((names[i], names[j], 1))
        present.add(frozenset((names[i], names[j])))
    extra = 1 + rng.below(3)
    tries = 0
    while extra and tries < 20:
        tries += 1
        i, j = rng.below(n), rng.below(n)
        if i != j and frozenset((names[i], names[j])) not in present:
            present.add(frozenset((names[i], names[j])))
            edges.append((names[i], names[j], 1))
            extra -= 1
    net = Network(nodes=tuple(zip(names, kinds)), edges=tuple(edges), wavelengths=1 + rng.below(2))
    source = names[rng.below(n)]
    pool = [m for m in names if m != source]
    for i in range(len(pool)):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    ms = make_session(net, source, pool[: 1 + rng.below(3)])
    return net, ms


@pytest.fixture(scope="module")
def random_corpus():
    """50 seeded random instances with oracle and solver results per mode."""
    rng = Splitmix64(20260810)
    corpus = []
    for _ in range(50):
        net, ms = _random_instance(rng)
        per_mode = {}
        for mode in (Mode.LH, Mode.LT):
            oracle_res = enumerate_optimal(net, ms, mode)
            _, report = solve_session(net, ms, mode)
            per_mode[mode] = (oracle_res, report)
        corpus.append((net, ms, per_mode))
    return corpus


def test_criterion_1_fig3_reproduction():
    with _criterion(1, "fig3 reproduction"):
        start = time.perf_counter()
        net = builtin_topology("fig3")
        ms = make_session(net, "s", ["d1", "d2"])
        model_lh, rep_lh = solve_session(net, ms, Mode.LH)
        _, rep_lt = solve_session(net, ms, Mode.LT)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
        assert rep_lt.status is SolveStatus.OPTIMAL
        assert rep_lt.total_cost == 9, f"LT optimum {rep_lt.total_cost} != 9"
        assert rep_lh.status is SolveStatus.OPTIMAL
        lss = extract_structures(model_lh, rep_lh.assignment)
        assert any(cps_nodes(ls, net) == {"3"} for ls in lss.structures), "no CPS at node 3"
        # Stated shipping target. The model's true optimum on this topology
        # is 7: destination d2 may tap the signal and send it back
        # (s-1-2-3-d2-3-4-d1), the same move as the legal 2-d1-2 round trip,
        # so the classic 8-link crossing exhibit is undercut by one. The
        # brute-force oracle confirms 7 independently.
        assert rep_lh.total_cost == 8, (
            f"LH optimum is {rep_lh.total_cost}, stated target 8 "
            "(the 8-link crossing exhibit is not the ILP optimum here)"
        )


def test_criterion_2_fig5_regression():
    with _criterion(2, "fig5 connectivity regression"):
        start = time.perf_counter()
        net = builtin_topology("fig5")
        ms = make_session(net, "s", ["d1", "d2", "d3"])
        model_off, rep_off = solve_session(net, ms, Mode.LH, connectivity=False)
        assert rep_off.status is SolveStatus.OPTIMAL
        assert rep_off.total_cost == 3, f"structure-only optimum {rep_off.total_cost} != 3"
        report_off = validate(net, extract_structures(model_off, rep_off.assignment))
        assert not report_off.ok, "structure-only optimum unexpectedly validates"
        assert "connectivity" in report_off.rules()

        model_on, rep_on = solve_session(net, ms, Mode.LH, connectivity=True)
        assert rep_on.status is SolveStatus.OPTIMAL
        assert rep_on.total_cost == 5, f"connected optimum {rep_on.total_cost} != 5"
        assert validate(net, extract_structures(model_on, rep_on.assignment)).ok
        assert time.perf_counter() - start < 5.0


def test_criterion_3_oracle_equivalence(random_corpus):
    with _criterion(3, "oracle equivalence on 50 random instances"):
        start = time.perf_counter()
        for idx, (net, ms, per_mode) in enumerate(random_corpus):
            for mode, (oracle_res, report) in per_mode.items():
                if oracle_res.feasible:
                    oracle_obj = (net.wavelengths + 1) * oracle_res.best_cost + oracle_res.best_wavelengths
                    assert report.status is SolveStatus.OPTIMAL, f"instance {idx} {mode}: solver {report.status}"
                    assert report.objective == oracle_obj, (
                        f"instance {idx} {mode}: solver {report.objective} != oracle {oracle_obj}"
                    )
                else:
                    assert report.status is SolveStatus.INFEASIBLE, (
                        f"instance {idx} {mode}: oracle infeasible but solver says {report.status}"
                    )
        assert time.perf_counter() - start < 600.0


def test_criterion_4_dominance_and_strictness(random_corpus):
    with _criterion(4, "hierarchy-vs-tree dominance"):
        strict = 0
        for idx, (net, ms, per_mode) in enumerate(random_corpus):
            lh_res, _ = per_mode[Mode.LH]
            lt_res, _ = per_mode[Mode.LT]
            if lt_res.feasible:
                assert lh_res.feasible, f"instance {idx}: LT feasible but LH not"
                assert lh_res.best_cost <= lt_res.best_cost, f"instance {idx}: LH > LT"
                if lh_res.best_cost < lt_res.best_cost:
                    strict += 1
        if strict == 0:
            # Seeded instance with a degree-4 MI node (its crossing makes
            # the hierarchy strictly cheaper than any tree pair).
            net = builtin_topology("fig3")
            ms = make_session(net, "s", ["d1", "d2"])
            lh = enumerate_optimal(net, ms, Mode.LH)
            lt = enumerate_optimal(net, ms, Mode.LT)
            assert net.degree("3") == 4
            assert lh.best_cost < lt.best_cost
            strict += 1
        assert strict >= 1


def test_criterion_5_nsf_directional():
    with _criterion(5, "NSF directional properties"):
        start = time.perf_counter()
        net = builtin_topology("nsf", wavelengths=2)  # no splitters: Case A
        sessions = generate_sessions(net, 2, 10, seed=20260810)
        opts = SolveOptions(node_limit=200_000)
        rows = []
        for ms in sessions:
            entry = {}
            for mode in (Mode.LH, Mode.LT):
                model = build_model(net, ms, mode=mode, connectivity=True)
                entry[mode] = solve(model, opts)
            rows.append(entry)
        solved = [r for r in rows if all(rep.status is SolveStatus.OPTIMAL for rep in r.values())]
        skipped = len(rows) - len(solved)
        if skipped:
            print(f"  (criterion 5: {skipped} session(s) hit solver limits and were excluded)")
        assert len(solved) >= 7, f"only {len(solved)}/10 sessions solved to optimality"
        lh_cost = sum(r[Mode.LH].total_cost for r in solved)
        lt_cost = sum(r[Mode.LT].total_cost for r in solved)
        assert lh_cost <= lt_cost, f"LH total {lh_cost} > LT total {lt_cost}"
        lh_waves = sum(r[Mode.LH].wavelength_count for r in solved)
        lt_waves = sum(r[Mode.LT].wavelength_count for r in solved)
        assert lh_waves <= lt_waves, f"LH wavelengths {lh_waves} > LT {lt_waves}"
        for i, r in enumerate(solved):
            lh_rep, lt_rep = r[Mode.LH], r[Mode.LT]
            if lh_rep.total_cost < lt_rep.total_cost:
                assert uses_cps(lh_rep.structures, net), f"session {i}: strict saving without CPS"
        assert time.perf_counter() - start < 1800.0


def test_criterion_6_lp_solution_round_trip():
    with _criterion(6, "LP text and solution round trip"):
        rng = Splitmix64(987)
        checked = 0
        while checked < 20:
            net, ms = _random_instance(rng)
            mode = Mode.LH if checked % 2 == 0 else Mode.LT
            model = build_model(net, ms, mode=mode, connectivity=True)
            report = solve(model)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            text = emit_lp(model)
            for v in model.vars:
                assert f" {v.name}" in text or f"-{v.name}" in text, f"{v.name} missing from LP text"
            sol_text = "\n".join(f"{v.name} {report.assignment.values[v.index]}" for v in model.vars)
            back = import_solution(model, sol_text)
            assert model.objective_value(back) == report.objective
            checked += 1


def test_criterion_7_batch_determinism(tmp_path):
    with _criterion(7, "batch determinism"):
        cfg = ExperimentConfig(topology="nsf", group_size=2, session_count=3, seed=77)
        _, first = run_experiment(cfg)
        _, second = run_experiment(cfg)
        assert first == second
        assert first.encode() == second.encode()


def test_criterion_8_validator_corpus():
    with _criterion(8, "validator corpus"):
        fig3 = builtin_topology("fig3")
        fig4a = parse_network(FIG4A_TEXT)
        fig4b = parse_network(FIG4B_TEXT)
        fig5 = builtin_topology("fig5")

        s_fig3 = make_session(fig3, "s", ["d1", "d2"])
        s_fig4 = make_session(fig4a, "s", ["d1", "d2"])
        s_fig4b = make_session(fig4b, "s", ["d1", "d2"])
        s_fig5 = make_session(fig5, "s", ["d1", "d2", "d3"])
        s_fig5_unicast = make_session(fig5, "s", ["d3"])
        s_fig5_pair = make_session(fig5, "s", ["d1", "d2"])

        def S(lam, links):
            return LightStructure(wavelength=lam, root="s", links=tuple(links))

        exhibit = FIG3_LH_EXHIBIT_LINKS
        cases = [
            # rule (a): one directed link used twice
            ("duplicate_link", fig3, s_fig3,
             (S(0, (("s", "1"), ("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1"))),),
             False, {"a"}),
            # rule (b): a link whose tail nobody feeds
            ("headless_link", fig3, s_fig3,
             (S(0, (("s", "1"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1"))),),
             False, {"b"}),
            # cycles are permitted: tap-and-return through both destinations
            ("cycle_permitted", fig5, s_fig5_pair,
             (S(0, (("s", "d1"), ("d1", "d2"), ("d2", "d1"))),),
             True, set()),
            # rule (d): two structures on one wavelength
            ("duplicate_wavelength", fig3, s_fig3,
             (S(0, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "d1"))),
              S(0, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2")))),
             False, {"d"}),
            # rule (e): three links across one node pair
            ("triple_link_pair", fig3, s_fig3,
             (S(0, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2"), ("3", "d2"), ("d2", "3"),
                    ("3", "4"), ("4", "d1"))),),
             False, {"e"}),
            # rule (f): an MI node splitting 1 input into 2 outputs
            ("mi_split", fig3, s_fig3,
             (S(0, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("3", "d2"), ("4", "d1"))),),
             False, {"f"}),
            ("fig4a_crossing", fig4a, s_fig4,
             (S(0, (("s", "1"), ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "d1"), ("4", "d2"))),),
             True, set()),
            ("fig4b_round_trip", fig4b, s_fig4b,
             (S(0, (("s", "2"), ("2", "d1"), ("d1", "2"), ("2", "d2"))),),
             True, set()),
            ("fig3_hierarchy_exhibit", fig3, s_fig3, (S(0, exhibit),), True, set()),
            ("fig3_tree_pair", fig3, s_fig3,
             (S(0, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "5"), ("5", "d1"))),
              S(1, (("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2")))),
             True, set()),
            ("floating_cycle", fig5, s_fig5,
             (S(0, (("s", "d1"), ("d2", "d3"), ("d3", "d2"))),),
             False, {"connectivity"}),
            ("unicast_path", fig5, s_fig5_unicast,
             (S(0, (("s", "d1"), ("d1", "d2"), ("d2", "d3"))),),
             True, set()),
        ]
        assert len(cases) == 12
        for name, net, ms, structures, expect_ok, expect_rules in cases:
            report = validate(net, LightStructureSet(session=ms, structures=structures))
            assert report.ok == expect_ok, f"{name}: ok={report.ok}, expected {expect_ok}\n{report}"
            missing = expect_rules - report.rules()
            assert not missing, f"{name}: missing expected rule(s) {missing}\n{report}"
            print(f"  corpus case {name}: ok")
