from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumharch import (
    Network,
    NetworkFormatError,
    NodeKind,
    builtin_topology,
    make_session,
    parse_network,
    serialize_network,
)

MINIMAL = "NODE s MI\nNODE d MI\nEDGE s d 1\nWAVELENGTHS 1\n"


def test_parse_minimal():
    net = parse_network(MINIMAL)
    assert net.node_ids == ("s", "d")
    assert len(net.edges) == 1
    assert net.directed_links == (("s", "d"), ("d", "s"))
    assert net.link_cost[("s", "d")] == net.link_cost[("d", "s")] == 1
    assert net.wavelengths == 1


def test_parse_preserves_declaration_order():
    net = parse_network("NODE b MI\nNODE a MC\nEDGE b a 3\nWAVELENGTHS 2\n")
    assert net.node_ids == ("b", "a")
    assert net.index == {"b": 0, "a": 1}
    assert net.kind["a"] is NodeKind.MC


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("NODE s MI\nNODE s MI\nEDGE s s 1\nWAVELENGTHS 1\n", "line 2: duplicate node id"),
        ("NODE s MI\nNODE d MI\nEDGE s x 1\nWAVELENGTHS 1\n", "line 3"),
        ("NODE s MI\nNODE d MI\nEDGE s d 0\nWAVELENGTHS 1\n", "positive"),
        ("NODE s MI\nNODE d MI\nEDGE s d -2\nWAVELENGTHS 1\n", "positive"),
        ("NODE s MI\nNODE d MI\nEDGE s d 1\nWAVELENGTHS 0\n", "positive"),
        ("NODE s MI\nNODE d MI\nEDGE s d 1\n", "WAVELENGTHS"),
        ("NODE s MI\nNODE d MI\nNODE x MI\nEDGE s d 1\nWAVELENGTHS 1\n", "not connected"),
        ("NODE s MI\nEDGE s s 1\nWAVELENGTHS 1\n", "self-loop"),
        ("NODE s MI\nNODE d MI\nEDGE s d 1\nEDGE d s 2\nWAVELENGTHS 1\n", "duplicate edge"),
        ("NODE s MI\nNODE d MI\nEDGE s d 1\nWAVELENGTHS 1\nWAVELENGTHS 2\n", "twice"),
        ("NODE s* MI\nWAVELENGTHS 1\n", "invalid node id"),
        ("NODE s MI\nNODE d MX\nWAVELENGTHS 1\n", "MI or MC"),
        ("FOO bar\n", "unknown directive"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(NetworkFormatError) as err:
        parse_network(text)
    assert fragment in str(err.value)


def test_error_names_offending_edge_line():
    with pytest.raises(NetworkFormatError) as err:
        parse_network("NODE s MI\nNODE d MI\nEDGE s x 1\nWAVELENGTHS 1\n")
    assert err.value.line_no == 3


def test_fig3_topology(fig3):
    assert len(fig3.node_ids) == 8
    assert len(fig3.edges) == 8
    assert fig3.degree("3") == 4
    assert all(k is NodeKind.MI for k in fig3.kind.values())


def test_fig5_topology(fig5):
    assert len(fig5.edges) == 3
    assert fig5.degree("d2") == 2
    assert [c for _, _, c in fig5.edges] == [1, 3, 1]
    # path graph: endpoints degree 1
    assert fig5.degree("s") == 1 and fig5.degree("d3") == 1


def test_nsf_and_cost239_shapes():
    nsf = builtin_topology("nsf")
    assert len(nsf.node_ids) == 14
    assert len(nsf.edges) == 21
    cost239 = builtin_topology("cost239")
    assert len(cost239.node_ids) == 11
    assert len(cost239.edges) == 26
    assert sum(cost239.degree(m) for m in cost239.node_ids) == 52


def test_unknown_builtin():
    with pytest.raises(ValueError, match="'Ring'"):
        builtin_topology("Ring")


def test_equal_builtin_loads_return_one_network():
    net = builtin_topology("cost239", splitters=["3", "8"], wavelengths=3)
    assert builtin_topology("COST239", splitters=("3", "8"), wavelengths=3) is net
    assert net == builtin_topology("cost239").with_overrides(splitters=("3", "8"), wavelengths=3)
    assert builtin_topology("cost239", splitters=("3", "8")) is not net
    assert builtin_topology("nsf") is builtin_topology("nsf", splitters=())


def test_degree_trivial_and_unknown(fig3):
    two = parse_network(MINIMAL)
    assert two.degree("s") == two.degree("d") == 1
    with pytest.raises(KeyError):
        fig3.degree("nope")


def test_in_equals_out_neighbors(fig3):
    for m in fig3.node_ids:
        outs = {v for u, v in fig3.directed_links if u == m}
        ins = {u for u, v in fig3.directed_links if v == m}
        assert outs == ins == set(fig3.neighbors[m])
        assert fig3.degree(m) == len(outs)


def test_roundtrip_builtins():
    for name in ("fig3", "fig5", "nsf", "cost239"):
        net = builtin_topology(name)
        assert parse_network(serialize_network(net)) == net


@st.composite
def random_networks(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"n{i}" for i in range(n)]
    kinds = [draw(st.sampled_from(["MI", "MC"])) for _ in range(n)]
    edges = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((names[i], names[j], draw(st.integers(min_value=1, max_value=9))))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    present = {frozenset((u, v)) for u, v, _ in edges}
    for i, j in extra:
        if i != j and frozenset((names[i], names[j])) not in present:
            present.add(frozenset((names[i], names[j])))
            edges.append((names[i], names[j], draw(st.integers(min_value=1, max_value=9))))
    lines = [f"NODE {m} {k}" for m, k in zip(names, kinds)]
    lines += [f"EDGE {u} {v} {c}" for u, v, c in edges]
    lines.append(f"WAVELENGTHS {draw(st.integers(min_value=1, max_value=3))}")
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(random_networks())
def test_roundtrip_random(text):
    net = parse_network(text)
    assert parse_network(serialize_network(net)) == net


def test_with_overrides(fig3):
    net = fig3.with_overrides(splitters=("3",), wavelengths=4)
    assert net.kind["3"] is NodeKind.MC
    assert net.kind["2"] is NodeKind.MI
    assert net.wavelengths == 4
    assert fig3.kind["3"] is NodeKind.MI  # original untouched
    with pytest.raises(ValueError):
        fig3.with_overrides(splitters=("zz",))
    with pytest.raises(ValueError):
        fig3.with_overrides(wavelengths=0)


def test_make_session_validation(fig3):
    ms = make_session(fig3, "s", ["d1", "d2"])
    assert ms.source == "s" and ms.destinations == frozenset({"d1", "d2"})
    with pytest.raises(ValueError):
        make_session(fig3, "zz", ["d1"])
    with pytest.raises(ValueError):
        make_session(fig3, "s", ["zz"])
    with pytest.raises(ValueError):
        make_session(fig3, "s", [])
    with pytest.raises(ValueError):
        make_session(fig3, "s", ["s", "d1"])


def test_shortest_path_deterministic(fig3):
    assert fig3.shortest_path("s", "3") == ["s", "1", "2", "3"]
    # ties to d1 via 4 or 5: canonical index breaks toward 4
    assert fig3.shortest_path("s", "d1") == ["s", "1", "2", "3", "4", "d1"]


def test_shortest_paths_are_pinned():
    # sha256 of every ordered pair's path on NSF and COST239, recorded when
    # each path came from its own Dijkstra search stopped at the destination;
    # one full tree per source must give the same paths.
    h = hashlib.sha256()
    for net in (builtin_topology("nsf"), builtin_topology("cost239")):
        for a in net.node_ids:
            for b in net.node_ids:
                if a != b:
                    h.update(f"{a}>{b}:{'-'.join(net.shortest_path(a, b))}\n".encode())
    assert h.hexdigest() == "7559076744282eabff510ed3b43529684b9ecd7fdcbb7a61465d2da2b6d9531f"


def test_shortest_path_to_itself_and_unreachable():
    # Built directly: parse_network rejects a mesh that is not connected.
    net = Network(nodes=tuple((n, NodeKind.MI) for n in "abc"), edges=(("a", "b", 1),), wavelengths=1)
    assert net.shortest_path("a", "a") == ["a"]
    assert net.shortest_path("b", "a") == ["b", "a"]
    with pytest.raises(ValueError, match="no path from a to c"):
        net.shortest_path("a", "c")
