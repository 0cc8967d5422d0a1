from __future__ import annotations

import math

from lumharch.flow import feasible_flow, max_flow, service_flow


def test_feasible_flow_simple_path():
    arcs = [("a", "b", 0, 5), ("b", "c", 0, 5)]
    flows = feasible_flow(arcs, {"a": 2, "c": -2})
    assert flows == [2, 2]


def test_feasible_flow_respects_lower_bounds():
    arcs = [("a", "b", 2, 5), ("a", "c", 0, 5), ("b", "d", 0, 5), ("c", "d", 0, 5)]
    flows = feasible_flow(arcs, {"a": 3, "d": -3})
    assert flows is not None
    assert flows[0] >= 2
    assert flows[0] + flows[1] == 3


def test_feasible_flow_infeasible_when_bounds_conflict():
    # the lower bound forces 3 units but the sink only absorbs 1
    arcs = [("a", "b", 3, 5)]
    assert feasible_flow(arcs, {"a": 1, "b": -1}) is None
    assert feasible_flow([("a", "b", 4, 2)], {"a": 1, "b": -1}) is None


def test_feasible_flow_circulation():
    # a cycle can carry flow with zero balances as long as bounds allow
    arcs = [("a", "b", 1, 2), ("b", "a", 1, 2)]
    flows = feasible_flow(arcs, {})
    assert flows is not None
    assert flows[0] == flows[1]


def test_service_flow_tap_and_continue_chain():
    links = (("s", "d1"), ("d1", "d2"))
    flows = service_flow([(0, links)], "s", frozenset({"d1", "d2"}), 2)
    assert flows == {("s", "d1", 0): 2, ("d1", "d2", 0): 1}


def test_service_flow_splits_across_wavelengths():
    flows = service_flow(
        [(0, (("s", "d1"),)), (1, (("s", "d2"),))],
        "s",
        frozenset({"d1", "d2"}),
        2,
    )
    assert flows == {("s", "d1", 0): 1, ("s", "d2", 1): 1}


def test_service_flow_rejects_detached_cycle():
    links = (("s", "d1"), ("d2", "d3"), ("d3", "d2"))
    flows = service_flow([(0, links)], "s", frozenset({"d1", "d2", "d3"}), 3)
    assert flows is None


def test_service_flow_rejects_double_leaf_consumption():
    # d1 is a leaf on both wavelengths: it would have to absorb twice
    flows = service_flow(
        [(0, (("s", "d1"),)), (1, (("s", "d1"), ("s", "d2")))],
        "s",
        frozenset({"d1", "d2"}),
        2,
    )
    assert flows is None


def test_service_flow_pass_through_destination_is_fine():
    # d1 absorbs on wavelength 0 and merely forwards on wavelength 1
    flows = service_flow(
        [(0, (("s", "d1"),)), (1, (("s", "d1"), ("d1", "d2")))],
        "s",
        frozenset({"d1", "d2"}),
        2,
    )
    assert flows is not None
    assert flows[("s", "d1", 0)] == 1
    assert flows[("d1", "d2", 1)] == 1


def test_service_flow_pinned_consumption():
    # The oracle pins which destinations absorb on a structure by passing
    # only those as destinations.  d1 present but consuming elsewhere must
    # pass through, which a leaf position cannot do.
    links = (("s", "d1"),)
    assert service_flow([(0, links)], "s", frozenset(), 2) is None
    assert service_flow([(0, links)], "s", frozenset({"d1"}), 2) is not None


def test_service_flow_structure_with_no_consumption_is_rejected():
    # every used link must carry a unit, but nothing absorbs on wavelength 1
    flows = service_flow(
        [(0, (("s", "d1"),)), (1, (("s", "d2"), ("d2", "d3")))],
        "s",
        frozenset({"d1"}),
        1,
    )
    assert flows is None


def _assert_is_flow(n, arcs, s, t, value, flow):
    """Each arc's flow lies within its capacity, flow is conserved at every
    node but s and t, and the flow out of s equals the value."""
    assert len(flow) == len(arcs)
    assert all(0 <= f <= c for f, (_, _, c) in zip(flow, arcs))
    net = [0] * n
    for f, (u, v, _) in zip(flow, arcs):
        net[u] += f
        net[v] -= f
    assert all(net[v] == 0 for v in range(n) if v not in (s, t))
    assert net[s] == value == -net[t]


def test_float_max_flow_returns_the_min_cut_arcs():
    # A two-wavelength layered graph with dyadic capacities, so the float
    # arithmetic is exact: super-source 0 feeds the source copies 1 and 2,
    # the sink copies 5 and 6 feed the super-sink 7.  The flow is 0.375;
    # 4 still reaches 7 through 4 -> 6, but 3 does not (3 -> 6 is
    # saturated), so the cut is 1 -> 4 and 3 -> 6 on one wavelength and
    # 2 -> 5 on the other.
    inf = math.inf
    arcs = [
        (0, 1, inf), (0, 2, inf),
        (1, 3, 0.5), (1, 4, 0.125), (3, 6, 0.125), (4, 6, 1.0),
        (2, 5, 0.125), (5, 7, inf), (6, 7, inf),
    ]
    value, flow, sink_side = max_flow(8, arcs, 0, 7, 1e-9)
    assert value == 0.375
    _assert_is_flow(8, arcs, 0, 7, value, flow)
    assert [i for i in range(8) if sink_side[i]] == [4, 5, 6, 7]
    cut = [(u, v) for u, v, _ in arcs if sink_side[v] and not sink_side[u]]
    assert cut == [(1, 4), (3, 6), (2, 5)]
    assert all(f == c for f, (u, v, c) in zip(flow, arcs) if (u, v) in cut)
    assert sum(c for u, v, c in arcs if (u, v) in cut) == value


def test_float_max_flow_counts_residuals_only_above_tol():
    # 1e-12 of capacity on 1 -> 2 is below the tolerance: the arc counts
    # as saturated, nothing flows and 1 does not reach 2.
    arcs = [(0, 1, 1.0), (1, 2, 1e-12)]
    value, flow, sink_side = max_flow(3, arcs, 0, 2, 1e-9)
    assert value == 0 and sink_side == [False, False, True]
    _assert_is_flow(3, arcs, 0, 2, value, flow)
    arcs = [(0, 1, 3), (1, 2, 2)]
    value, flow, sink_side = max_flow(3, arcs, 0, 2)
    assert (value, sink_side) == (2, [False, False, True])
    _assert_is_flow(3, arcs, 0, 2, value, flow)


def _source_side(n, arcs, flow, s, tol):
    """The nodes s reaches in the residual graph of ``flow``."""
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for (a, b, c), f in zip(arcs, flow):
            for tail, head, residual in ((a, b, c - f), (b, a, f)):
                if tail == u and head not in seen and residual > tol:
                    seen.add(head)
                    stack.append(head)
    return [v in seen for v in range(n)]


def test_max_flow_returns_the_cut_nearest_the_sink():
    # s -> a -> b at capacity 0.5 each: both arcs are minimum cuts.  The
    # one nearest the source is {s -> a}, the one max_flow's sink side
    # gives, nearest the sink, is {a -> b}.
    arcs = [(0, 1, 0.5), (1, 2, 0.5)]
    value, flow, sink_side = max_flow(3, arcs, 0, 2, 1e-9)
    assert value == 0.5 and sink_side == [False, False, True]
    _assert_is_flow(3, arcs, 0, 2, value, flow)
    source_side = _source_side(3, arcs, flow, 0, 1e-9)
    assert source_side == [True, False, False]
    front = [(u, v) for u, v, _ in arcs if source_side[u] and not source_side[v]]
    back = [(u, v) for u, v, _ in arcs if sink_side[v] and not sink_side[u]]
    assert (front, back) == ([(0, 1)], [(1, 2)])
