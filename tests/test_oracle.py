from __future__ import annotations

import pytest

from lumharch import (
    Mode,
    OracleGuardError,
    SolveOptions,
    SolveStatus,
    build_model,
    builtin_topology,
    enumerate_optimal,
    make_session,
    parse_network,
    solve_session,
    solver,
    validate,
)
from lumharch.oracle import enumerate_optimal_unpruned
from lumharch.simplex import GE, solve_lp

TINY_TRIANGLE = """
NODE s MI
NODE a MC
NODE d MI
EDGE s a 1
EDGE a d 1
EDGE s d 3
WAVELENGTHS 2
"""

TINY_Y = """
NODE s MI
NODE c MC
NODE d1 MI
NODE d2 MI
EDGE s c 1
EDGE c d1 1
EDGE c d2 1
WAVELENGTHS 2
"""

TINY_STAR_MI = """
NODE s MI
NODE c MI
NODE d1 MI
NODE d2 MI
EDGE s c 1
EDGE c d1 1
EDGE c d2 1
WAVELENGTHS 2
"""


def test_fig3_lh_cost(fig3, fig3_session):
    res = enumerate_optimal(fig3, fig3_session, Mode.LH)
    assert res.feasible
    # classic exhibit costs 8; the tap-and-return through d2 reaches 7
    assert res.best_cost == 7
    assert res.best_wavelengths == 1
    assert validate(fig3, res.witness).ok


def test_fig3_lt_cost(fig3, fig3_session):
    res = enumerate_optimal(fig3, fig3_session, Mode.LT)
    assert res.best_cost == 9
    assert res.best_wavelengths == 2
    assert validate(fig3, res.witness).ok


def test_fig5_path(fig5, fig5_session):
    res = enumerate_optimal(fig5, fig5_session, Mode.LH)
    assert res.best_cost == 5
    assert res.best_wavelengths == 1
    (ls,) = res.witness.structures
    assert sorted(ls.links) == [("d1", "d2"), ("d2", "d3"), ("s", "d1")]


def test_guard_rejects_large_instances():
    big = parse_network(
        "\n".join([f"NODE n{i} MI" for i in range(9)])
        + "\n"
        + "\n".join(f"EDGE n{i} n{i + 1} 1" for i in range(8))
        + "\nWAVELENGTHS 1\n"
    )
    ms = make_session(big, "n0", ["n8"])
    with pytest.raises(OracleGuardError):
        enumerate_optimal(big, ms, Mode.LH)

    wavy = builtin_topology("fig5", wavelengths=3)
    ms5 = make_session(wavy, "s", ["d3"])
    with pytest.raises(OracleGuardError):
        enumerate_optimal(wavy, ms5, Mode.LH)

    squeeze = builtin_topology("fig3")
    ms4 = make_session(squeeze, "s", ["d1", "d2", "4", "5"])
    with pytest.raises(OracleGuardError):
        enumerate_optimal(squeeze, ms4, Mode.LH)


def test_infeasible_reported():
    net = parse_network(TINY_STAR_MI.replace("WAVELENGTHS 2", "WAVELENGTHS 1"))
    ms = make_session(net, "s", ["d1", "d2"])
    res = enumerate_optimal(net, ms, Mode.LT)
    assert not res.feasible
    assert res.witness is None and res.best_cost is None


@pytest.mark.parametrize("mode", [Mode.LH, Mode.LT])
@pytest.mark.parametrize("text,source,dests", [
    (TINY_TRIANGLE, "s", ["d"]),
    (TINY_Y, "s", ["d1", "d2"]),
    (TINY_STAR_MI, "s", ["d1", "d2"]),
])
def test_self_check_pruned_equals_raw(text, source, dests, mode):
    net = parse_network(text)
    ms = make_session(net, source, dests)
    pruned = enumerate_optimal(net, ms, mode)
    raw = enumerate_optimal_unpruned(net, ms, mode)
    assert (pruned.best_cost, pruned.best_wavelengths) == (raw.best_cost, raw.best_wavelengths)
    if pruned.feasible:
        assert validate(net, pruned.witness).ok


def test_raw_enumeration_guard(fig3, fig3_session):
    with pytest.raises(OracleGuardError):
        enumerate_optimal_unpruned(fig3, fig3_session, Mode.LH)


@pytest.mark.parametrize("seed", [777, 778, 7979])
def test_self_check_on_random_tiny_instances(seed):
    from lumharch.cli import Splitmix64
    from lumharch.network import Network, NodeKind

    rng = Splitmix64(seed)
    n = 4 + rng.below(2)
    names = [f"n{i}" for i in range(n)]
    kinds = [NodeKind.MC if rng.below(4) == 0 else NodeKind.MI for _ in range(n)]
    edges, present = [], set()
    for i in range(1, n):
        j = rng.below(i)
        edges.append((names[i], names[j], 1 + rng.below(2)))
        present.add(frozenset((names[i], names[j])))
    while len(edges) < 5:
        i, j = rng.below(n), rng.below(n)
        if i != j and frozenset((names[i], names[j])) not in present:
            present.add(frozenset((names[i], names[j])))
            edges.append((names[i], names[j], 1 + rng.below(2)))
    net = Network(nodes=tuple(zip(names, kinds)), edges=tuple(edges), wavelengths=1 + rng.below(2))
    source = names[rng.below(n)]
    pool = [m for m in names if m != source]
    for i in range(len(pool)):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    ms = make_session(net, source, pool[: 1 + rng.below(2)])
    for mode in (Mode.LH, Mode.LT):
        pruned = enumerate_optimal(net, ms, mode)
        raw = enumerate_optimal_unpruned(net, ms, mode)
        assert (pruned.best_cost, pruned.best_wavelengths) == (raw.best_cost, raw.best_wavelengths)


def test_lh_never_worse_than_lt():
    for text, source, dests in [
        (TINY_TRIANGLE, "s", ["d"]),
        (TINY_Y, "s", ["d1", "d2"]),
        (TINY_STAR_MI, "s", ["d1", "d2"]),
    ]:
        net = parse_network(text)
        ms = make_session(net, source, dests)
        lh = enumerate_optimal(net, ms, Mode.LH)
        lt = enumerate_optimal(net, ms, Mode.LT)
        if lt.feasible:
            assert lh.feasible
            assert lh.best_cost <= lt.best_cost


def test_explored_counter_positive(fig5, fig5_session):
    res = enumerate_optimal(fig5, fig5_session, Mode.LH)
    assert res.explored > 0


def _weighted_random_instances(seed: int, count: int):
    """Random tiny (network, session) pairs with costs 1-4: 5-7 nodes, a
    random spanning tree plus up to three edges, 1-2 wavelengths and 1-3
    destinations."""
    from lumharch.cli import Splitmix64
    from lumharch.network import Network, NodeKind

    rng = Splitmix64(seed)
    for _ in range(count):
        n = 5 + rng.below(3)
        names = [f"n{i}" for i in range(n)]
        kinds = [NodeKind.MC if rng.below(4) == 0 else NodeKind.MI for _ in range(n)]
        edges, present = [], set()
        for i in range(1, n):
            j = rng.below(i)
            edges.append((names[i], names[j], 1 + rng.below(4)))
            present.add(frozenset((names[i], names[j])))
        extra, tries = 1 + rng.below(3), 0
        while extra and tries < 20:
            tries += 1
            i, j = rng.below(n), rng.below(n)
            if i != j and frozenset((names[i], names[j])) not in present:
                present.add(frozenset((names[i], names[j])))
                edges.append((names[i], names[j], 1 + rng.below(4)))
                extra -= 1
        net = Network(nodes=tuple(zip(names, kinds)), edges=tuple(edges), wavelengths=1 + rng.below(2))
        source = names[rng.below(n)]
        pool = [m for m in names if m != source]
        for i in range(len(pool)):
            j = i + rng.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        yield net, make_session(net, source, pool[: 1 + rng.below(3)])


def _assert_matches_oracle(net, ms, mode, report):
    res = enumerate_optimal(net, ms, mode)
    if res.feasible:
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective == (net.wavelengths + 1) * res.best_cost + res.best_wavelengths
    else:
        assert report.status is SolveStatus.INFEASIBLE


def test_weighted_random_instances_match_solver():
    # Non-unit costs exercise the cost-based pruning paths on both routes.
    for net, ms in _weighted_random_instances(424242, 15):
        for mode in (Mode.LH, Mode.LT):
            _assert_matches_oracle(net, ms, mode, solve_session(net, ms, mode)[1])


def test_lt_with_the_lh_relaxation_matches_oracle(fig3, fig4a, fig4b, fig5):
    cases = [
        (fig3, make_session(fig3, "s", ["d1", "d2"])),
        (fig4a, make_session(fig4a, "s", ["d1", "d2"])),
        (fig4b, make_session(fig4b, "s", ["d1", "d2"])),
        (fig5, make_session(fig5, "s", ["d1", "d2", "d3"])),
        (fig5, make_session(fig5, "d2", ["s", "d3"])),
    ]
    for text, dests in ((TINY_TRIANGLE, ["d"]), (TINY_Y, ["d1", "d2"]), (TINY_STAR_MI, ["d1", "d2"])):
        net = parse_network(text)
        cases.append((net, make_session(net, "s", dests)))
    cases += list(_weighted_random_instances(515151, 15))
    for net, ms in cases:
        lh_model = build_model(net, ms, Mode.LH, True)
        relaxation = SolveOptions(relaxation=(lh_model, solver.solve(lh_model)))
        _assert_matches_oracle(net, ms, Mode.LT, solver.solve(build_model(net, ms, Mode.LT, True), relaxation))


def _root_cuts(model):
    """Every directed cut the root rounds separate when no incumbent stops
    them, and the root LP after the last round."""
    separator = solver._dicut_separator(model)
    cuts = []

    def separate(sol):
        rows = separator(sol.x)
        for i in range(len(rows)):
            on = rows.row == i
            cuts.append((tuple(zip(rows.col[on].tolist(), rows.coef[on].tolist())), rows.rel[i], rows.rhs[i]))
        return rows

    return cuts, solve_lp(solver._standard_form(model), separate=separate)


def test_dicuts_hold_at_the_oracle_optimum(fig3, fig4a, fig4b, fig5):
    # A directed cut is valid when every feasible point meets it, so every
    # cut separated at the root must hold at the oracle's optimum, and the
    # root bound after the rounds can never pass the optimum.
    cases = [
        (fig3, "s", ["d1", "d2"]),
        (fig4a, "s", ["d1", "d2"]),
        (fig4b, "s", ["d1", "d2"]),
        (fig5, "s", ["d1", "d2", "d3"]),
        (fig5, "d2", ["s", "d3"]),
        (parse_network(TINY_Y), "s", ["d1", "d2"]),
        (parse_network(TINY_STAR_MI), "s", ["d1", "d2"]),
    ]
    separated = 0
    for net, source, dests in cases:
        ms = make_session(net, source, dests)
        for mode in (Mode.LH, Mode.LT):
            res = enumerate_optimal(net, ms, mode)
            model = build_model(net, ms, mode, True)
            cuts, root = _root_cuts(model)
            if not res.feasible:
                assert root.status == "infeasible"
                continue
            used = {
                model.light_index[(u, v, ls.wavelength)] for ls in res.witness.structures for u, v in ls.links
            }
            for terms, relation, rhs in cuts:
                assert relation == GE and rhs == 1.0
                assert sum(coef for j, coef in terms if j in used) >= 1, (source, dests, mode)
            assert root.value <= model.delta * res.best_cost + res.best_wavelengths + 1e-6
            separated += len(cuts)
    assert separated >= 10
