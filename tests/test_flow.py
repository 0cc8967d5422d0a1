from __future__ import annotations

from lumharch.flow import feasible_flow, service_flow


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
