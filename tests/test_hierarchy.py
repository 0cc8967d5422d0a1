from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumharch import (
    LightStructure,
    LightStructureSet,
    builtin_topology,
    cost,
    cps_nodes,
    format_dump,
    is_light_tree,
    make_session,
    parse_dump,
    parse_network,
    parse_structure,
    serialize,
    uses_cps,
    validate,
)

FIG4A_EXPECTED = "(s(l_s1,1(l_12,2(l_24,4(l_4d1,d1)),l_13,3(l_34,4(l_4d2,d2)))))"


def test_fig3_exhibit_validates(fig3, fig3_lh_exhibit):
    report = validate(fig3, fig3_lh_exhibit)
    assert report.ok, str(report)


def test_fig3_exhibit_cost_is_8(fig3, fig3_lh_exhibit):
    assert cost(fig3_lh_exhibit, fig3) == 8


def test_fig3_lt_pair(fig3, fig3_lt_pair):
    assert validate(fig3, fig3_lt_pair).ok
    assert cost(fig3_lt_pair, fig3) == 9
    for ls in fig3_lt_pair.structures:
        assert is_light_tree(ls)
        assert cps_nodes(ls, fig3) == set()
    assert not uses_cps(fig3_lt_pair, fig3)


def test_fig3_exhibit_is_hierarchy_not_tree(fig3, fig3_lh_exhibit):
    (ls,) = fig3_lh_exhibit.structures
    assert not is_light_tree(ls)
    assert cps_nodes(ls, fig3) == {"3"}
    assert uses_cps(fig3_lh_exhibit, fig3)


def test_fig5_false_result_fails_connectivity(fig5, fig5_session):
    floating = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "d1"), ("d2", "d3"), ("d3", "d2")),
    )
    report = validate(fig5, LightStructureSet(session=fig5_session, structures=(floating,)))
    assert not report.ok
    assert "connectivity" in report.rules()
    messages = " ".join(v.subject for v in report.violations if v.rule == "connectivity")
    assert "d2" in messages and "d3" in messages


def test_connectivity_messages_name_the_structure_root(fig5, fig5_session):
    floating = LightStructure(wavelength=0, root="s", links=(("s", "d1"), ("d2", "d3"), ("d3", "d2")))
    report = validate(fig5, LightStructureSet(session=fig5_session, structures=(floating,)))
    assert str(report) == (
        "[connectivity] d2->d3: link not reachable from source s on wavelength 0\n"
        "[connectivity] d3->d2: link not reachable from source s on wavelength 0\n"
        "[service] set: no signal accounting lets every destination absorb exactly one copy"
    )
    # Reachability is checked from the structure's root, d1, which the
    # message names: s->d1 leaves the session source but not the root.
    rooted_d1 = LightStructure(wavelength=0, root="d1", links=(("d1", "d2"), ("s", "d1")))
    report = validate(fig5, LightStructureSet(session=fig5_session, structures=(rooted_d1,)))
    assert str(report) == (
        "[f] d1: structure rooted at d1, session source is s\n"
        "[b] s->d1: link has no predecessor link into s\n"
        "[f] s: MI node has 0 incoming but 1 outgoing links\n"
        "[f] d1: root must not have incoming links\n"
        "[connectivity] s->d1: link not reachable from source d1 on wavelength 0\n"
        "[service] d3: destination receives no signal in any structure\n"
        "[service] set: no signal accounting lets every destination absorb exactly one copy"
    )


def test_single_link_unicast_ok(fig5):
    ms = make_session(fig5, "s", ["d1"])
    ls = LightStructure(wavelength=0, root="s", links=(("s", "d1"),))
    report = validate(fig5, LightStructureSet(session=ms, structures=(ls,)))
    assert report.ok
    assert cost(LightStructureSet(session=ms, structures=(ls,)), fig5) == 1
    assert is_light_tree(ls)
    assert cps_nodes(ls, fig5) == set()


def test_cost_additive_on_disjoint_wavelengths(fig3, fig3_session, fig3_lt_pair):
    lt1, lt2 = fig3_lt_pair.structures
    a = LightStructureSet(session=fig3_session, structures=(lt1,))
    b = LightStructureSet(session=fig3_session, structures=(lt2,))
    assert cost(fig3_lt_pair, fig3) == cost(a, fig3) + cost(b, fig3)


def test_duplicate_wavelength_flagged(fig3, fig3_session, fig3_lt_pair):
    lt1, lt2 = fig3_lt_pair.structures
    clash = LightStructure(wavelength=0, root=lt2.root, links=lt2.links)
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(lt1, clash)))
    assert "d" in report.rules()


def test_wavelength_out_of_range(fig3, fig3_session, fig3_lt_pair):
    lt1, _ = fig3_lt_pair.structures
    off = LightStructure(wavelength=9, root=lt1.root, links=lt1.links)
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(off,)))
    assert "d" in report.rules()


def test_duplicate_link_flagged(fig3, fig3_session):
    dup = LightStructure(wavelength=0, root="s", links=(("s", "1"), ("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1")))
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(dup,)))
    assert "a" in report.rules()


def test_headless_link_flagged(fig3, fig3_session):
    headless = LightStructure(wavelength=0, root="s", links=(("s", "1"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1")))
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(headless,)))
    assert "b" in report.rules()


def test_mi_branching_flagged(fig3, fig3_session):
    # MI node 3 enters once but leaves twice: illegal split
    split = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("3", "d2"), ("4", "d1")),
    )
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(split,)))
    assert "f" in report.rules()


def test_mc_double_entry_flagged(fig4a):
    ms = make_session(fig4a, "s", ["d1", "d2"])
    # node 1 is MC; route two links into it
    bad = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "1"), ("2", "1"), ("1", "3"), ("3", "4"), ("4", "d1"), ("4", "2"), ("1", "2")),
    )
    report = validate(fig4a, LightStructureSet(session=ms, structures=(bad,)))
    assert "f" in report.rules()


def test_root_with_incoming_flagged(fig3, fig3_session):
    back = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "1"), ("1", "s"), ("1", "2"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1")),
    )
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(back,)))
    assert "f" in report.rules()


def test_empty_structure_flagged(fig3, fig3_session):
    empty = LightStructure(wavelength=0, root="s", links=())
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(empty,)))
    assert "connectivity" in report.rules()


def test_unserved_destination_flagged(fig3, fig3_session):
    only_d2 = LightStructure(wavelength=0, root="s", links=(("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2")))
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(only_d2,)))
    assert "service" in report.rules()
    assert any(v.subject == "d1" for v in report.violations if v.rule == "service")


def test_double_consumption_flagged(fig3, fig3_session):
    # d2 is a leaf in both structures: it would have to absorb twice.
    leaf1 = LightStructure(wavelength=0, root="s", links=(("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2")))
    leaf2 = LightStructure(
        wavelength=1, root="s", links=(("s", "1"), ("1", "2"), ("2", "3"), ("3", "d2"), ("3", "4"), ("4", "d1"))
    )
    report = validate(fig3, LightStructureSet(session=fig3_session, structures=(leaf1, leaf2)))
    assert "service" in report.rules()


def test_validate_rejects_unknown_ids(fig3, fig3_session):
    ghost = LightStructure(wavelength=0, root="s", links=(("s", "zz"),))
    with pytest.raises(ValueError):
        validate(fig3, LightStructureSet(session=fig3_session, structures=(ghost,)))
    not_an_edge = LightStructure(wavelength=0, root="s", links=(("s", "d2"),))
    with pytest.raises(ValueError):
        validate(fig3, LightStructureSet(session=fig3_session, structures=(not_an_edge,)))


def test_light_tree_implies_no_cps(fig3, fig4a, fig4b):
    nets = {"fig3": fig3, "fig4a": fig4a, "fig4b": fig4b}
    samples = [
        ("fig3", (("s", "1"), ("1", "2"))),
        ("fig3", (("s", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("3", "5"))),
        ("fig4a", (("s", "1"), ("1", "2"), ("1", "3"))),
        ("fig4b", (("s", "2"), ("2", "d1"))),
    ]
    for name, links in samples:
        ls = LightStructure(wavelength=0, root="s", links=links)
        if is_light_tree(ls):
            assert cps_nodes(ls, nets[name]) == set()


def test_serialize_fig4a_exact(fig4a):
    ls = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "1"), ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "d1"), ("4", "d2")),
    )
    assert serialize(ls, fig4a) == FIG4A_EXPECTED
    assert parse_structure(FIG4A_EXPECTED, 0) == ls


def test_serialize_single_link():
    net = parse_network("NODE s MI\nNODE d MI\nEDGE s d 1\nWAVELENGTHS 1\n")
    ls = LightStructure(wavelength=0, root="s", links=(("s", "d"),))
    assert serialize(ls, net) == "(s(l_sd,d))"


def test_serialize_fig4b_roundtrip(fig4b):
    ls = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "2"), ("2", "d1"), ("d1", "2"), ("2", "d2")),
    )
    text = serialize(ls, fig4b)
    assert "l_2d1" in text and "l_d12" in text
    assert parse_structure(text, 0) == ls
    assert cps_nodes(ls, fig4b) == {"2"}


def test_serialize_roundtrip_fig3_exhibit(fig3, fig3_lh_exhibit):
    (ls,) = fig3_lh_exhibit.structures
    assert parse_structure(serialize(ls, fig3), 0) == ls


def test_serializer_backtracks_when_greedy_pairing_floats(fig3):
    # At node 3 the first-tried pairing strands the 5-d1-4 loop; a valid
    # rooted pairing exists and must be found.
    ls = LightStructure(
        wavelength=0,
        root="s",
        links=(("s", "1"), ("1", "2"), ("2", "3"), ("3", "5"), ("5", "d1"), ("d1", "4"), ("4", "3"), ("3", "d2")),
    )
    text = serialize(ls, fig3)
    assert parse_structure(text, 0) == ls


def test_serialize_writes_detached_groups_as_components(fig5):
    # A detached cycle has no rooted port pairing: it follows the rooted
    # component, headed by the tail of its first link in canonical order.
    floating = LightStructure(
        wavelength=0, root="s", links=(("s", "d1"), ("d2", "d3"), ("d3", "d2"))
    )
    text = serialize(floating, fig5)
    assert text == "(s(l_sd1,d1)),(d3(l_d3d2,d2(l_d2d3,d3)))"
    assert parse_structure(text, 0) == floating
    unrooted = LightStructure(wavelength=0, root="s", links=(("d2", "d3"), ("d3", "d2")))
    assert serialize(unrooted, fig5) == "(s),(d3(l_d3d2,d2(l_d2d3,d3)))"
    assert parse_structure(serialize(unrooted, fig5), 0) == unrooted


def test_serialize_rejects_rooted_structures_without_a_port_pairing(fig5):
    splitter = LightStructure(
        wavelength=0, root="s", links=(("s", "d1"), ("d1", "d2"), ("d2", "d1"), ("d2", "d3"))
    )
    # d2 emits two links but receives one: no port pairing exists
    with pytest.raises(ValueError, match="cannot serialize"):
        serialize(splitter, fig5)


def test_parse_structure_rejects_mismatched_label():
    with pytest.raises(ValueError):
        parse_structure("(s(l_sx,d))", 0)
    with pytest.raises(ValueError):
        parse_structure("(s(l_sd,d)", 0)
    with pytest.raises(ValueError):
        parse_structure("(s(l_sd,d))x", 0)


def test_dump_roundtrip(fig3, fig3_session, fig3_lt_pair):
    text = format_dump(fig3_lt_pair, fig3)
    assert text.count("λ") == 2
    back = parse_dump(text, fig3_session)
    assert back.structures == fig3_lt_pair.structures


def test_parse_dump_rejects_garbage(fig3_session):
    with pytest.raises(ValueError):
        parse_dump("nonsense\n", fig3_session)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_serialize_roundtrip_random_trees(data):
    # On an all-MI topology a valid tree branches only at the root: every
    # other node taps and continues on at most one port.
    net = builtin_topology("nsf")
    root = data.draw(st.sampled_from(net.node_ids), label="root")
    reached = [root]
    forwarded: set[str] = set()
    links = []
    for _ in range(data.draw(st.integers(0, 10), label="growth")):
        tails = [n for n in reached if n == root or n not in forwarded]
        tail = data.draw(st.sampled_from(tails), label="tail")
        candidates = [n for n in net.neighbors[tail] if n not in reached]
        if not candidates:
            continue
        head = data.draw(st.sampled_from(candidates), label="head")
        links.append((tail, head))
        reached.append(head)
        forwarded.add(tail)
    ls = LightStructure(wavelength=0, root=root, links=tuple(links))
    assert is_light_tree(ls)
    assert parse_structure(serialize(ls, net), 0) == ls
