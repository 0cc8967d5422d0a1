"""Sparse-splitting WDM network model, text format, and built-in topologies.

A network is an undirected mesh in which every edge carries two optical
fibers, one per direction, so edge (u, v) always induces the directed
links (u, v) and (v, u) with the same cost.  Each node is either
multicast-incapable (MI, tap-and-continue only) or multicast-capable
(MC, equipped with a light splitter).

The file format is line oriented (UTF-8)::

    # comment
    NODE <id> MI|MC
    EDGE <id> <id> <positive-int-cost>
    WAVELENGTHS <positive-int>

NODE/EDGE line order defines the canonical index order used everywhere
for deterministic variable indexing and tie-breaking.  Node ids must
match ``[A-Za-z0-9_]+`` and be declared before use.
"""

from __future__ import annotations

import enum
import heapq
import re
from dataclasses import dataclass
from functools import cache, cached_property

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


class NodeKind(enum.Enum):
    MI = "MI"
    MC = "MC"


class NetworkFormatError(ValueError):
    """Malformed or inconsistent network description; names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Network:
    """Immutable topology; safe to share across concurrent solver runs."""

    nodes: tuple[tuple[str, NodeKind], ...]
    edges: tuple[tuple[str, str, int], ...]
    wavelengths: int

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.nodes)

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.nodes)}

    @cached_property
    def kind(self) -> dict[str, NodeKind]:
        return {n: k for n, k in self.nodes}

    @cached_property
    def directed_links(self) -> tuple[tuple[str, str], ...]:
        """Both directions of every edge, in edge order (u->v before v->u)."""
        links = []
        for u, v, _ in self.edges:
            links.append((u, v))
            links.append((v, u))
        return tuple(links)

    @cached_property
    def link_cost(self) -> dict[tuple[str, str], int]:
        costs = {}
        for u, v, c in self.edges:
            costs[(u, v)] = c
            costs[(v, u)] = c
        return costs

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Adjacent node ids in canonical index order; In(m) == Out(m)."""
        adj: dict[str, list[str]] = {n: [] for n in self.node_ids}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {n: tuple(sorted(vs, key=self.index.__getitem__)) for n, vs in adj.items()}

    def degree(self, m: str) -> int:
        """Number of incident edges (= in-degree = out-degree of the fiber pairs)."""
        if m not in self.index:
            raise KeyError(f"unknown node {m!r}")
        return len(self.neighbors[m])

    def is_mc(self, m: str) -> bool:
        return self.kind[m] is NodeKind.MC

    def has_link(self, u: str, v: str) -> bool:
        return (u, v) in self.link_cost

    def with_overrides(
        self,
        *,
        splitters: tuple[str, ...] | list[str] | None = None,
        wavelengths: int | None = None,
    ) -> "Network":
        """Return a copy with a new |W| and/or new splitters: when
        ``splitters`` is given, exactly those nodes are MC and every other
        node is MI, whatever kind the network gave it."""
        if splitters is not None:
            unknown = [m for m in splitters if m not in self.index]
            if unknown:
                raise ValueError(f"unknown splitter node(s): {', '.join(unknown)}")
            chosen = set(splitters)
            nodes = tuple(
                (n, NodeKind.MC if n in chosen else NodeKind.MI) for n, _ in self.nodes
            )
        else:
            nodes = self.nodes
        w = self.wavelengths if wavelengths is None else wavelengths
        if w < 1:
            raise ValueError("wavelength count must be positive")
        return Network(nodes=nodes, edges=self.edges, wavelengths=w)

    @cached_property
    def _path_trees(self) -> dict[str, dict[str, str]]:
        """Per source asked for so far, each reached node's predecessor on
        its shortest-path tree; filled by :meth:`shortest_path`."""
        return {}

    @cached_property
    def model_templates(self) -> dict:
        """The variables and row templates that every model on this network
        shares; filled by :func:`lumharch.model.build_model`."""
        return {}

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Deterministic min-cost path (ties broken by canonical node index),
        read from one Dijkstra tree per source.  Costs are positive, so a
        node's predecessor is final once it is popped, and the full tree
        holds the path a search stopped at ``dst`` would find."""
        prev = self._path_trees.get(src)
        if prev is None:
            prev = self._path_trees.setdefault(src, self._dijkstra(src))
        if dst != src and dst not in prev:
            raise ValueError(f"no path from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def _dijkstra(self, src: str) -> dict[str, str]:
        dist: dict[str, tuple[int, int]] = {src: (0, self.index[src])}
        prev: dict[str, str] = {}
        heap: list[tuple[int, int, str]] = [(0, self.index[src], src)]
        seen: set[str] = set()
        while heap:
            d, _, m = heapq.heappop(heap)
            if m in seen:
                continue
            seen.add(m)
            for n in self.neighbors[m]:
                nd = d + self.link_cost[(m, n)]
                if n not in dist or (nd, self.index[m]) < dist[n]:
                    dist[n] = (nd, self.index[m])
                    prev[n] = m
                    heapq.heappush(heap, (nd, self.index[n], n))
        return prev


@dataclass(frozen=True)
class MulticastSession:
    """One-to-many request: a source node and a non-empty destination set."""

    source: str
    destinations: frozenset[str]

    def sorted_destinations(self, net: Network) -> tuple[str, ...]:
        return tuple(sorted(self.destinations, key=net.index.__getitem__))


def make_session(net: Network, source: str, destinations) -> MulticastSession:
    """Validate ids against ``net`` and build a session."""
    dests = frozenset(destinations)
    if source not in net.index:
        raise ValueError(f"unknown source node {source!r}")
    unknown = sorted(d for d in dests if d not in net.index)
    if unknown:
        raise ValueError(f"unknown destination node(s): {', '.join(unknown)}")
    if not dests:
        raise ValueError("destination set is empty")
    if source in dests:
        raise ValueError("source must not be a destination")
    return MulticastSession(source=source, destinations=dests)


def _check_connected(nodes: list[str], adj: dict[str, set[str]]) -> bool:
    if not nodes:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        m = stack.pop()
        for n in adj[m]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(nodes)


def parse_network(text: str) -> Network:
    """Parse the line-oriented network format; every error names its line."""
    nodes: list[tuple[str, NodeKind]] = []
    edges: list[tuple[str, str, int]] = []
    node_set: set[str] = set()
    edge_pairs: set[frozenset[str]] = set()
    adj: dict[str, set[str]] = {}
    wavelengths: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0].upper()
        if tag == "NODE":
            if len(parts) != 3:
                raise NetworkFormatError(line_no, "expected: NODE <id> MI|MC")
            name, kind = parts[1], parts[2].upper()
            if not _ID_RE.match(name):
                raise NetworkFormatError(line_no, f"invalid node id {name!r}")
            if name in node_set:
                raise NetworkFormatError(line_no, f"duplicate node id {name!r}")
            if kind not in ("MI", "MC"):
                raise NetworkFormatError(line_no, f"node kind must be MI or MC, got {parts[2]!r}")
            node_set.add(name)
            adj[name] = set()
            nodes.append((name, NodeKind[kind]))
        elif tag == "EDGE":
            if len(parts) != 4:
                raise NetworkFormatError(line_no, "expected: EDGE <id> <id> <cost>")
            u, v = parts[1], parts[2]
            for endpoint in (u, v):
                if endpoint not in node_set:
                    raise NetworkFormatError(line_no, f"edge endpoint {endpoint!r} is not a declared node")
            if u == v:
                raise NetworkFormatError(line_no, f"self-loop on node {u!r}")
            if frozenset((u, v)) in edge_pairs:
                raise NetworkFormatError(line_no, f"duplicate edge between {u!r} and {v!r}")
            try:
                cost = int(parts[3])
            except ValueError:
                raise NetworkFormatError(line_no, f"edge cost must be an integer, got {parts[3]!r}") from None
            if cost <= 0:
                raise NetworkFormatError(line_no, f"edge cost must be positive, got {cost}")
            edge_pairs.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v, cost))
        elif tag == "WAVELENGTHS":
            if len(parts) != 2:
                raise NetworkFormatError(line_no, "expected: WAVELENGTHS <count>")
            if wavelengths is not None:
                raise NetworkFormatError(line_no, "WAVELENGTHS declared twice")
            try:
                wavelengths = int(parts[1])
            except ValueError:
                raise NetworkFormatError(line_no, f"wavelength count must be an integer, got {parts[1]!r}") from None
            if wavelengths <= 0:
                raise NetworkFormatError(line_no, f"wavelength count must be positive, got {wavelengths}")
        else:
            raise NetworkFormatError(line_no, f"unknown directive {parts[0]!r}")

    if not nodes:
        raise NetworkFormatError(0, "no NODE lines")
    if wavelengths is None:
        raise NetworkFormatError(0, "missing WAVELENGTHS line")
    if not _check_connected([n for n, _ in nodes], adj):
        raise NetworkFormatError(0, "graph is not connected")
    return Network(nodes=tuple(nodes), edges=tuple(edges), wavelengths=wavelengths)


def serialize_network(net: Network) -> str:
    """Inverse of :func:`parse_network`; preserves canonical order."""
    lines = [f"NODE {n} {k.value}" for n, k in net.nodes]
    lines += [f"EDGE {u} {v} {c}" for u, v, c in net.edges]
    lines.append(f"WAVELENGTHS {net.wavelengths}")
    return "\n".join(lines) + "\n"


# Built-in topologies.  fig3/fig5 are the small reference meshes used by the
# regression suite; nsf and cost239 are the usual 14-node / 11-node research
# backbones with unit costs (the published studies do not fix link costs, so
# absolute cost totals on these two are configuration dependent).
_FIG3_NODES = ("s", "1", "2", "3", "4", "5", "d1", "d2")
_FIG3_EDGES = (
    ("s", "1"), ("1", "2"), ("2", "3"), ("3", "4"),
    ("3", "5"), ("4", "d1"), ("5", "d1"), ("3", "d2"),
)

_FIG5_NODES = ("s", "d1", "d2", "d3")
_FIG5_EDGES = (("s", "d1", 1), ("d1", "d2", 3), ("d2", "d3", 1))

_NSF_EDGES = (
    (1, 2), (1, 3), (1, 8), (2, 3), (2, 4), (3, 6), (4, 5),
    (4, 11), (5, 6), (5, 7), (6, 10), (6, 13), (7, 8), (8, 9),
    (9, 10), (9, 12), (9, 14), (11, 12), (11, 14), (12, 13), (13, 14),
)

_COST239_EDGES = (
    (1, 2), (1, 3), (1, 5), (1, 11),
    (2, 3), (2, 4), (2, 10), (2, 11),
    (3, 4), (3, 5), (3, 6),
    (4, 6), (4, 9), (4, 10),
    (5, 6), (5, 7), (5, 8),
    (6, 7), (6, 8),
    (7, 8), (7, 9),
    (8, 9), (8, 10),
    (9, 10), (9, 11),
    (10, 11),
)

BUILTIN_TOPOLOGIES = ("fig3", "fig5", "nsf", "cost239")


def builtin_topology(
    name: str,
    *,
    splitters: tuple[str, ...] | list[str] | None = None,
    wavelengths: int = 2,
) -> Network:
    """Return a built-in topology, all-MI with unit costs unless overridden.

    Equal calls return one network: it is immutable, so every batch on it
    shares the maps, shortest-path trees and model templates kept on it,
    however often the topology is loaded."""
    key = name.lower()
    if key not in BUILTIN_TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r} (expected one of {', '.join(BUILTIN_TOPOLOGIES)})")
    if wavelengths < 1:
        raise ValueError("wavelength count must be positive")
    return _builtin_topology(key, tuple(splitters) if splitters else None, wavelengths)


@cache
def _builtin_topology(key: str, splitters: tuple[str, ...] | None, wavelengths: int) -> Network:
    if key == "fig3":
        nodes = _FIG3_NODES
        edges = tuple((u, v, 1) for u, v in _FIG3_EDGES)
    elif key == "fig5":
        nodes = _FIG5_NODES
        edges = _FIG5_EDGES
    elif key == "nsf":
        nodes = tuple(str(i) for i in range(1, 15))
        edges = tuple((str(u), str(v), 1) for u, v in _NSF_EDGES)
    else:  # cost239
        nodes = tuple(str(i) for i in range(1, 12))
        edges = tuple((str(u), str(v), 1) for u, v in _COST239_EDGES)
    net = Network(
        nodes=tuple((n, NodeKind.MI) for n in nodes),
        edges=edges,
        wavelengths=wavelengths,
    )
    if splitters:
        net = net.with_overrides(splitters=splitters)
    return net
