"""Per-wavelength light-structures and the light-hierarchy validity rules.

A light-structure is a set of directed fiber links on one wavelength,
rooted at the session source.  Light-trees are the special case where no
node is entered twice; general light-hierarchies additionally allow an MI
node to be crossed several times through distinct input/output port pairs
(Cross Pair Switching), which makes cycles legal as long as no directed
link repeats.

``structure_violations`` holds the rules one structure must meet on its
own (identified as ``a``, ``b``, ``e``, ``f``, and root reachability,
``connectivity``); the validator, the brute-force oracle and the solver's
greedy seed all use it.  ``validate`` classifies a whole structure set:
those rules per structure, plus the wavelength rule (``d``) and the
service rule that every destination absorbs the signal exactly once
(``service``).  Violations are reported exhaustively; they are data, not
exceptions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .flow import service_flow
from .network import MulticastSession, Network

Link = tuple[str, str]


@dataclass(frozen=True)
class LightStructure:
    """Directed links used on one wavelength, rooted at ``root``.

    ``links`` preserves input order (dump files may contain duplicates,
    which the validator reports); equality ignores order.
    """

    wavelength: int
    root: str
    links: tuple[Link, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LightStructure):
            return NotImplemented
        return (
            self.wavelength == other.wavelength
            and self.root == other.root
            and sorted(self.links) == sorted(other.links)
        )

    def __hash__(self) -> int:
        return hash((self.wavelength, self.root, tuple(sorted(self.links))))

    def nodes(self) -> set[str]:
        out = {self.root}
        for u, v in self.links:
            out.add(u)
            out.add(v)
        return out

    def in_links(self, m: str) -> list[Link]:
        return [l for l in self.links if l[1] == m]

    def out_links(self, m: str) -> list[Link]:
        return [l for l in self.links if l[0] == m]


@dataclass(frozen=True)
class LightStructureSet:
    """All structures established for one multicast session."""

    session: MulticastSession
    structures: tuple[LightStructure, ...]


@dataclass(frozen=True)
class Violation:
    rule: str  # a, b, d, e, f, connectivity, service (plus model constraint ids)
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.rule}] {v.subject}: {v.message}" for v in self.violations)


def _resolve(net: Network, ls: LightStructure) -> None:
    """Precondition check: all ids and links must exist in the network."""
    if ls.root not in net.index:
        raise ValueError(f"unknown root {ls.root!r}")
    for u, v in ls.links:
        for m in (u, v):
            if m not in net.index:
                raise ValueError(f"unknown node {m!r} in structure on wavelength {ls.wavelength}")
        if not net.has_link(u, v):
            raise ValueError(f"no fiber link {u}->{v} in the network")


def structure_violations(
    net: Network, ls: LightStructure, destinations: frozenset[str]
) -> list[Violation]:
    """Every violation of the rules one structure must meet on its own.

    In report order: link uniqueness (a), the opposite-pair rule (e),
    predecessor links (b), per-node port counting (f), which is what lets
    an MI node be crossed through several port pairs, then
    ``connectivity``: the structure has links and each is reachable from
    ``ls.root``, the structure's source.  Only ``destinations`` may absorb
    a signal.  The rules that span structures, (d) and ``service``, belong
    to :func:`validate`.
    """
    out: list[Violation] = []
    lam = ls.wavelength

    seen: set[Link] = set()
    direction_count: dict[Link, int] = {}
    for link in ls.links:
        if link in seen:
            out.append(
                Violation("a", f"{link[0]}->{link[1]}", f"directed link used more than once on wavelength {lam}")
            )
        seen.add(link)
        direction_count[link] = direction_count.get(link, 0) + 1
    for pair in sorted({frozenset(l) for l in seen}, key=lambda p: sorted(p)):
        u, v = sorted(pair, key=net.index.__getitem__)
        fwd, rev = direction_count.get((u, v), 0), direction_count.get((v, u), 0)
        if fwd + rev > 2 or max(fwd, rev) > 1:
            out.append(
                Violation(
                    "e",
                    f"{u}--{v}",
                    "more than two links between the node pair, or two in the same direction",
                )
            )

    member_nodes = sorted(ls.nodes(), key=net.index.__getitem__)
    indeg = {m: len(ls.in_links(m)) for m in member_nodes}
    outdeg = {m: len(ls.out_links(m)) for m in member_nodes}

    for u, v in sorted(set(ls.links)):
        if u != ls.root and indeg[u] == 0:
            out.append(Violation("b", f"{u}->{v}", f"link has no predecessor link into {u}"))

    for m in member_nodes:
        if m == ls.root:
            if indeg[m] > 0:
                out.append(Violation("f", m, "root must not have incoming links"))
            continue
        if net.is_mc(m):
            if indeg[m] > 1:
                out.append(Violation("f", m, f"MC node has {indeg[m]} incoming links (at most 1 allowed)"))
        elif m in destinations:
            if outdeg[m] > indeg[m]:
                out.append(
                    Violation("f", m, f"MI destination forwards {outdeg[m]} signals but receives only {indeg[m]}")
                )
        else:
            if outdeg[m] != indeg[m]:
                out.append(Violation("f", m, f"MI node has {indeg[m]} incoming but {outdeg[m]} outgoing links"))
        if m not in destinations and indeg[m] >= 1 and outdeg[m] == 0:
            out.append(Violation("f", m, "non-destination node is a leaf"))

    if not ls.links:
        out.append(Violation("connectivity", f"wavelength {lam}", "structure has no links"))
        return out
    for u, v in sorted(set(ls.links) - _reachable_links(ls.root, set(ls.links))):
        out.append(
            Violation("connectivity", f"{u}->{v}", f"link not reachable from source {ls.root} on wavelength {lam}")
        )
    return out


def _reachable_links(root: str, links: set[Link]) -> set[Link]:
    reached_nodes = {root}
    reached: set[Link] = set()
    changed = True
    while changed:
        changed = False
        for link in links - reached:
            if link[0] in reached_nodes:
                reached.add(link)
                reached_nodes.add(link[1])
                changed = True
    return reached


def validate(net: Network, lss: LightStructureSet) -> ValidationReport:
    """Check a structure set; rule violations are reported, never raised.

    Per structure, in input order: the wavelength rules (d), the root
    being the session source (f), then :func:`structure_violations`.
    Then, over the whole set, the service rule: every destination
    receives a signal, and one signal accounting lets each absorb exactly
    one copy.  Raises ``ValueError`` only for ids or links missing from
    ``net``.
    """
    session = lss.session
    if session.source not in net.index:
        raise ValueError(f"unknown source {session.source!r}")
    for ls in lss.structures:
        _resolve(net, ls)

    violations: list[Violation] = []
    dests = session.destinations

    lam_seen: set[int] = set()
    for ls in lss.structures:
        if ls.wavelength in lam_seen:
            violations.append(Violation("d", f"wavelength {ls.wavelength}", "two structures share one wavelength"))
        lam_seen.add(ls.wavelength)
        if not 0 <= ls.wavelength < net.wavelengths:
            violations.append(
                Violation("d", f"wavelength {ls.wavelength}", f"wavelength index outside 0..{net.wavelengths - 1}")
            )
        if ls.root != session.source:
            violations.append(
                Violation("f", ls.root, f"structure rooted at {ls.root}, session source is {session.source}")
            )

        violations.extend(structure_violations(net, ls, dests))

    # Service rule: an integral signal accounting must exist in which every
    # destination absorbs exactly one copy across the whole set.
    spanned: set[str] = set()
    for ls in lss.structures:
        spanned |= {v for _, v in ls.links}
    for d in session.sorted_destinations(net):
        if d not in spanned:
            violations.append(Violation("service", d, "destination receives no signal in any structure"))

    flows = service_flow(
        [(ls.wavelength, tuple(dict.fromkeys(ls.links))) for ls in lss.structures],
        session.source,
        dests,
        len(dests),
    )
    if flows is None:
        violations.append(
            Violation("service", "set", "no signal accounting lets every destination absorb exactly one copy")
        )

    return ValidationReport(violations=tuple(violations))


def cost(lss: LightStructureSet, net: Network) -> int:
    """Total wavelength-channel cost: link costs summed over all structures."""
    return sum(net.link_cost[link] for ls in lss.structures for link in ls.links)


def is_light_tree(ls: LightStructure) -> bool:
    """True iff no node is entered twice (no cycles, no Cross Pair Switching).

    Assumes the structure passed per-structure validation.
    """
    entered: set[str] = set()
    for _, v in ls.links:
        if v in entered:
            return False
        entered.add(v)
    return True


def cps_nodes(ls: LightStructure, net: Network) -> set[str]:
    """MI nodes crossed through two or more input ports (Cross Pair Switching)."""
    indeg: dict[str, int] = {}
    for _, v in ls.links:
        indeg[v] = indeg.get(v, 0) + 1
    return {m for m, k in indeg.items() if k >= 2 and not net.is_mc(m)}


def uses_cps(lss: LightStructureSet, net: Network) -> bool:
    return any(cps_nodes(ls, net) for ls in lss.structures)


# ---------------------------------------------------------------------------
# Nested enumeration text form, e.g. "(s(l_s1,1(l_12,2)))".  Every link is
# listed under the link that feeds it: the root and MC nodes feed all their
# outgoing links from one entry, an MI node feeds exactly one outgoing link
# per entering link (one port pair per crossing).


def _feed_assignment(ls: LightStructure, net: Network) -> dict[Link | None, list[Link]]:
    """Map each link (None = the root) to the links it feeds, acyclically.

    MI crossings admit several in/out pairings; pairings are searched in
    canonical order and the first whose feed relation is a forest rooted at
    the source's links wins.  Raises if none exists.
    """
    links = list(dict.fromkeys(ls.links))
    by_head_order = sorted(links, key=lambda l: (net.index[l[1]], net.index[l[0]]))
    rank = {l: i for i, l in enumerate(by_head_order)}

    outs_at: dict[str, list[Link]] = {}
    ins_at: dict[str, list[Link]] = {}
    for l in links:
        outs_at.setdefault(l[0], []).append(l)
        ins_at.setdefault(l[1], []).append(l)
    for m in outs_at:
        outs_at[m].sort(key=rank.__getitem__)
    for m in ins_at:
        ins_at[m].sort(key=lambda l: net.index[l[0]])

    # Per-node pairing alternatives: list of {out-link: parent in-link}.
    node_options: list[list[dict[Link, Link]]] = []
    for m in sorted(set(outs_at) - {ls.root}, key=net.index.__getitem__):
        outs = outs_at[m]
        ins = ins_at.get(m, [])
        if net.is_mc(m):
            if not ins:
                raise ValueError(f"cannot serialize: node {m} emits links but receives none")
            node_options.append([{o: ins[0] for o in outs}])
            continue
        if len(ins) < len(outs):
            raise ValueError(f"cannot serialize: MI node {m} emits more links than it receives")
        options = [dict(zip(outs, chosen)) for chosen in itertools.permutations(ins, len(outs))]
        node_options.append(options)

    limit = 100000
    for combo in itertools.product(*node_options):
        limit -= 1
        if limit <= 0:
            raise ValueError("cannot serialize: pairing search limit exceeded")
        parent: dict[Link, Link | None] = {o: None for o in outs_at.get(ls.root, [])}
        for mapping in combo:
            parent.update(mapping)
        if len(parent) != len(links):
            continue
        # Acyclic check: every link must chain back to a root link.
        ok = True
        state: dict[Link, int] = {}
        for l in links:
            chain = []
            cur: Link | None = l
            while cur is not None and state.get(cur, 0) == 0:
                state[cur] = 1
                chain.append(cur)
                cur = parent[cur]
            if cur is not None and state[cur] == 1:
                ok = False
                break
            for c in chain:
                state[c] = 2
        if not ok:
            continue
        feeds: dict[Link | None, list[Link]] = {None: []}
        for l in links:
            feeds.setdefault(l, [])
        for l in links:
            feeds[parent[l]].append(l)
        for key in feeds:
            feeds[key].sort(key=rank.__getitem__)
        return feeds
    raise ValueError("cannot serialize: no rooted port pairing exists (structure is not a valid hierarchy)")


def serialize(ls: LightStructure, net: Network) -> str:
    """Deterministic nested enumeration; children in canonical index order.

    A structure with links its root does not reach (a detached cycle, which
    only a model without the flow layer admits) has no rooted port pairing.
    It is written as comma-separated components, as :func:`parse_structure`
    reads them: the root's first, then one per detached group, headed by the
    tail of its first link in canonical order, each link once under a node
    it leaves.  Raises ``ValueError`` when a structure whose links are all
    reachable has no port pairing."""
    if len(_reachable_links(ls.root, set(ls.links))) < len(set(ls.links)):
        return _components(ls, net)
    feeds = _feed_assignment(ls, net)

    def render(link: Link) -> str:
        head = link[1]
        kids = feeds[link]
        if not kids:
            return head
        inner = ",".join(f"l_{k[0]}{k[1]},{render(k)}" for k in kids)
        return f"{head}({inner})"

    roots = feeds[None]
    if not roots:
        return f"({ls.root})"
    inner = ",".join(f"l_{k[0]}{k[1]},{render(k)}" for k in roots)
    return f"({ls.root}({inner}))"


def _components(ls: LightStructure, net: Network) -> str:
    """The components form of :func:`serialize`, with no port pairing."""
    order = sorted(set(ls.links), key=lambda l: (net.index[l[1]], net.index[l[0]]))
    left = dict.fromkeys(order)

    def render(m: str) -> str:
        kids = [l for l in left if l[0] == m]
        for k in kids:
            del left[k]
        if not kids:
            return m
        return f"{m}({','.join(f'l_{u}{v},{render(v)}' for u, v in kids)})"

    parts = [render(ls.root)]
    while left:
        parts.append(render(next(iter(left))[0]))
    return ",".join(f"({part})" for part in parts)


_TOKEN_RE = re.compile(r"\s*([(),]|[A-Za-z0-9_]+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad character in structure text at offset {pos}: {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_structure(text: str, wavelength: int = 0) -> LightStructure:
    """Parse the nested enumeration form; inverse of :func:`serialize`.

    Several parenthesized components may appear, comma separated; the
    first component's head is the structure root and later components
    carry detached link groups (written for a model without the flow
    layer, and flagged by the validator).
    """
    tokens = _tokenize(text)
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ValueError(f"expected {tok!r}, got {got!r}")
        pos += 1

    links: list[Link] = []

    def parse_node() -> str:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "(),":
            raise ValueError("expected a node id")
        node = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            while True:
                label = tokens[pos] if pos < len(tokens) else None
                if label is None:
                    raise ValueError("unterminated link list")
                pos += 1
                expect(",")
                child = parse_node()
                if label != f"l_{node}{child}":
                    raise ValueError(f"link label {label!r} does not match {node}->{child}")
                links.append((node, child))
                if pos < len(tokens) and tokens[pos] == ",":
                    pos += 1
                    continue
                expect(")")
                break
        return node

    expect("(")
    root = parse_node()
    expect(")")
    while pos < len(tokens) and tokens[pos] == ",":
        pos += 1
        expect("(")
        parse_node()
        expect(")")
    if pos != len(tokens):
        raise ValueError(f"trailing input after structure: {tokens[pos]!r}")
    return LightStructure(wavelength=wavelength, root=root, links=tuple(links))


def format_dump(lss: LightStructureSet, net: Network) -> str:
    """One line per structure: ``λ<k>: <enumeration>``."""
    return "\n".join(f"λ{ls.wavelength}: {serialize(ls, net)}" for ls in lss.structures) + "\n"


def parse_dump(text: str, session: MulticastSession) -> LightStructureSet:
    """Parse a structure dump back into a set; inverse of :func:`format_dump`."""
    structures = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^λ(\d+):\s*(.*)$", line)
        if not m:
            raise ValueError(f"line {line_no}: expected 'λ<k>: <structure>'")
        structures.append(parse_structure(m.group(2), wavelength=int(m.group(1))))
    return LightStructureSet(session=session, structures=tuple(structures))
