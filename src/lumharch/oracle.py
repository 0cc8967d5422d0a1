"""Brute-force optimum finder for tiny instances.

Independent of the ILP route: candidate structures are enumerated as
reachability-grown directed link subsets, filtered by the validator's own
rule function (``hierarchy.structure_violations``, plus
``hierarchy.is_light_tree`` in LT mode) and the signal-accounting flow
check, and combined over all ways of splitting the destination set
across wavelengths.  Used to cross-check the solver, so it shares only
that rule function with it, never the ILP model or the LP machinery.

Guarded to |V| <= 8, |W| <= 2, |D| <= 3; this is a test oracle, not a
production solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import hierarchy
from .flow import service_flow
from .hierarchy import LightStructure, LightStructureSet
from .model import Mode
from .network import MulticastSession, Network

MAX_NODES = 8
MAX_WAVES = 2
MAX_DESTS = 3


class OracleGuardError(ValueError):
    """Instance exceeds the sizes the oracle is willing to enumerate."""


@dataclass(frozen=True)
class OracleResult:
    best_cost: int | None
    best_wavelengths: int | None
    witness: LightStructureSet | None
    explored: int

    @property
    def feasible(self) -> bool:
        return self.best_cost is not None


def _set_partitions(items: tuple[str, ...], max_parts: int):
    """All partitions of ``items`` into at most ``max_parts`` non-empty parts,
    each part and the part list in deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest, max_parts):
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1 :]
        if len(sub) < max_parts:
            yield [(first,)] + sub


class _SingleSearch:
    """Minimum-cost single structure in which exactly ``consume`` absorbs."""

    def __init__(self, net: Network, ms: MulticastSession, consume: frozenset[str], mode: Mode):
        self.net = net
        self.ms = ms
        self.consume = consume
        self.mode = mode
        # Links into the source can never appear in a rooted structure.
        self.links = [l for l in net.directed_links if l[1] != ms.source]
        self.best_cost: int | None = None
        self.best_links: tuple[tuple[str, str], ...] | None = None
        self.explored = 0
        # Per-destination distance-to-go, for a cheap completion bound.
        self.dist_to: dict[str, dict[str, int]] = {}
        for d in sorted(consume):
            dist: dict[str, int] = {}
            for v in net.node_ids:
                try:
                    path = net.shortest_path(v, d)
                except ValueError:
                    continue
                dist[v] = sum(net.link_cost[(a, b)] for a, b in itertools.pairwise(path))
            self.dist_to[d] = dist

    def run(self) -> None:
        self._recurse([], {self.ms.source}, 0, set())

    def _bound(self, reached: set[str], cost: int) -> int:
        extra = 0
        for d in self.consume:
            if d not in reached:
                dd = self.dist_to[d]
                togo = min((dd[v] for v in reached if v in dd), default=None)
                if togo is None:
                    return cost + 10 ** 9
                extra = max(extra, togo)
        return cost + extra

    def _recurse(
        self,
        chosen: list[tuple[str, str]],
        reached: set[str],
        cost: int,
        banned: set[tuple[str, str]],
    ) -> None:
        self._evaluate(chosen, reached, cost)
        if self.best_cost is not None and self._bound(reached, cost) >= self.best_cost:
            return
        indeg: dict[str, int] = {}
        outdeg: dict[str, int] = {}
        for u, v in chosen:
            indeg[v] = indeg.get(v, 0) + 1
            outdeg[u] = outdeg.get(u, 0) + 1
        chosen_set = set(chosen)
        cands = []
        for l in self.links:
            if l in chosen_set or l in banned or l[0] not in reached:
                continue
            head = l[1]
            if self.net.is_mc(head) and indeg.get(head, 0) >= 1:
                continue
            if self.mode is Mode.LT:
                if indeg.get(head, 0) >= 1:
                    continue
                if not self.net.is_mc(l[0]) and l[0] != self.ms.source and outdeg.get(l[0], 0) >= 1:
                    continue
            cands.append(l)
        for i, l in enumerate(cands):
            new_cost = cost + self.net.link_cost[l]
            if self.best_cost is not None and new_cost >= self.best_cost:
                continue
            self._recurse(
                chosen + [l],
                reached | {l[1]},
                new_cost,
                banned | set(cands[:i]),
            )

    def _evaluate(self, chosen: list[tuple[str, str]], reached: set[str], cost: int) -> None:
        if not chosen:
            return
        self.explored += 1
        if self.best_cost is not None and cost >= self.best_cost:
            return
        if any(d not in reached for d in self.consume):
            return
        ls = LightStructure(wavelength=0, root=self.ms.source, links=tuple(chosen))
        if hierarchy.structure_violations(self.net, ls, self.ms.destinations):
            return
        if self.mode is Mode.LT and not hierarchy.is_light_tree(ls):
            return
        # With only ``consume`` as destinations, each of them must absorb
        # here and no other destination may.
        if service_flow([(0, ls.links)], self.ms.source, self.consume, len(self.ms.destinations)) is None:
            return
        self.best_cost = cost
        self.best_links = tuple(sorted(ls.links))


def _guard(net: Network, ms: MulticastSession) -> None:
    if len(net.node_ids) > MAX_NODES:
        raise OracleGuardError(f"too many nodes for the oracle: {len(net.node_ids)} > {MAX_NODES}")
    if net.wavelengths > MAX_WAVES:
        raise OracleGuardError(f"too many wavelengths for the oracle: {net.wavelengths} > {MAX_WAVES}")
    if len(ms.destinations) > MAX_DESTS:
        raise OracleGuardError(f"too many destinations for the oracle: {len(ms.destinations)} > {MAX_DESTS}")


def enumerate_optimal(net: Network, ms: MulticastSession, mode: Mode | str = Mode.LH) -> OracleResult:
    """Lexicographic (cost, wavelength count) minimum over all valid sets."""
    mode = Mode(mode) if not isinstance(mode, Mode) else mode
    _guard(net, ms)

    dests = ms.sorted_destinations(net)
    explored = 0
    best_by_subset: dict[frozenset[str], tuple[int, tuple[tuple[str, str], ...]] | None] = {}
    for r in range(1, len(dests) + 1):
        for combo in itertools.combinations(dests, r):
            search = _SingleSearch(net, ms, frozenset(combo), mode)
            search.run()
            explored += search.explored
            best_by_subset[frozenset(combo)] = (
                None if search.best_cost is None else (search.best_cost, search.best_links)
            )

    best: tuple[int, int, tuple] | None = None  # (cost, parts, partition key)
    best_partition: list[tuple[str, ...]] | None = None
    for partition in _set_partitions(dests, net.wavelengths):
        parts = [frozenset(p) for p in partition]
        if any(best_by_subset[p] is None for p in parts):
            continue
        total = sum(best_by_subset[p][0] for p in parts)
        ordered = sorted(partition, key=lambda p: net.index[p[0]])
        key = (total, len(parts), tuple(ordered))
        if best is None or key < best:
            best = key
            best_partition = ordered

    if best is None:
        return OracleResult(best_cost=None, best_wavelengths=None, witness=None, explored=explored)
    structures = []
    for lam, part in enumerate(best_partition):
        _, links = best_by_subset[frozenset(part)]
        structures.append(LightStructure(wavelength=lam, root=ms.source, links=links))
    witness = LightStructureSet(session=ms, structures=tuple(structures))
    return OracleResult(best_cost=best[0], best_wavelengths=best[1], witness=witness, explored=explored)


def enumerate_optimal_unpruned(
    net: Network, ms: MulticastSession, mode: Mode | str = Mode.LH
) -> OracleResult:
    """Raw powerset enumeration over per-wavelength link subsets.

    Exponential in 2|E|; guarded much tighter than the pruned search and
    used only to certify it.
    """
    mode = Mode(mode) if not isinstance(mode, Mode) else mode
    _guard(net, ms)
    links = net.directed_links
    if len(net.node_ids) > 5 or len(links) > 10:
        raise OracleGuardError("raw enumeration only runs on <=5 nodes and <=5 edges")

    subsets = []
    for r in range(len(links) + 1):
        subsets.extend(itertools.combinations(links, r))

    best_cost: int | None = None
    best_waves: int | None = None
    best_witness: LightStructureSet | None = None
    explored = 0
    for combo in itertools.product(subsets, repeat=net.wavelengths):
        explored += 1
        structures = tuple(
            LightStructure(wavelength=lam, root=ms.source, links=sub)
            for lam, sub in enumerate(combo)
            if sub
        )
        if not structures:
            continue
        cost = sum(net.link_cost[l] for ls in structures for l in ls.links)
        waves = len(structures)
        if best_cost is not None and (cost, waves) >= (best_cost, best_waves):
            continue
        if mode is Mode.LT and not all(hierarchy.is_light_tree(ls) for ls in structures):
            continue
        lss = LightStructureSet(session=ms, structures=structures)
        if not hierarchy.validate(net, lss).ok:
            continue
        best_cost, best_waves, best_witness = cost, waves, lss
    return OracleResult(
        best_cost=best_cost, best_wavelengths=best_waves, witness=best_witness, explored=explored
    )
