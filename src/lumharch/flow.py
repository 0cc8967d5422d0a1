"""Integral feasible-flow solver for signal-accounting checks.

The multicast service semantics are a commodity flow: the source emits one
unit per destination, every used link must carry at least one unit and at
most the full demand, pass-through nodes conserve flow, and each
destination absorbs exactly one unit over the whole structure set (at most
one per wavelength).  Deciding whether such a flow exists is a feasible
circulation problem with lower bounds, reduced here to plain max-flow
(Edmonds-Karp, :func:`max_flow`, which the solver's directed-cut
separator also runs on float capacities).  All arc orderings are
deterministic.
"""

from __future__ import annotations

from collections import deque

Arc = tuple[object, object, int, int]  # (tail, head, lower, upper)


def feasible_flow(arcs: list[Arc], balances: dict[object, int]) -> list[int] | None:
    """Return per-arc integral flows meeting bounds and node balances, or None.

    ``balances[v]`` is the required net outflow of v (positive = producer).
    Arcs are (tail, head, lower, upper) with 0 <= lower <= upper.
    """
    if any(lo > up for _, _, lo, up in arcs):
        return None
    nodes = list(dict.fromkeys([v for t, h, _, _ in arcs for v in (t, h)] + list(balances)))
    idx = {v: i for i, v in enumerate(nodes)}

    # Shift out the lower bounds: residual problem asks for a [0, u-l] flow
    # with adjusted balances, solved as max-flow from a super source.
    excess = [balances.get(v, 0) for v in nodes]
    for t, h, lo, _ in arcs:
        excess[idx[t]] -= lo
        excess[idx[h]] += lo
    src, snk = len(nodes), len(nodes) + 1
    shifted = [(idx[t], idx[h], up - lo) for t, h, lo, up in arcs]
    supply = [(src, v, e) for v, e in enumerate(excess) if e > 0]
    demand = [(v, snk, -e) for v, e in enumerate(excess) if e < 0]

    sent, flow, _ = max_flow(len(nodes) + 2, shifted + supply + demand, src, snk)
    if sent != sum(e for _, _, e in supply):
        return None
    return [f + lo for f, (_, _, lo, _) in zip(flow, arcs)]


def max_flow(
    n: int, arcs: list[tuple[int, int, float]], s: int, t: int, tol: float = 0
) -> tuple[float, list[float], list[bool]]:
    """Edmonds-Karp max-flow from s to t over nodes ``0..n-1`` and arcs
    ``(tail, head, capacity)``.

    Augmenting paths are shortest paths found by breadth-first search,
    which scans a node's arcs and the reverses of the arcs entering it in
    the order of ``arcs``, so the flow is deterministic.  A residual
    capacity counts only above ``tol``: integer capacities with ``tol = 0``
    augment exactly, and float capacities take a small positive ``tol``.
    Returns the flow value, the flow on each arc, and per node whether it
    still reaches t in the final residual graph, found by one reverse
    breadth-first search from t.  Those nodes are the sink side of the
    minimum cut nearest t: the arcs entering them from the other nodes
    form a minimum cut, the back cut.
    """
    # Residual arc 2k is arc k, and 2k + 1 its reverse.
    graph: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[float] = []
    for u, v, c in arcs:
        graph[u].append(len(to))
        to.append(v)
        cap.append(c)
        graph[v].append(len(to))
        to.append(u)
        cap.append(0)
    total = 0
    while True:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        queue = deque([s])
        while queue and parent_arc[t] == -1:
            u = queue.popleft()
            for pos in graph[u]:
                v = to[pos]
                if cap[pos] > tol and parent_arc[v] == -1:
                    parent_arc[v] = pos
                    queue.append(v)
        if parent_arc[t] == -1:
            return total, cap[1::2], _reaching(graph, to, cap, t, tol)
        bottleneck = None
        v = t
        while v != s:
            pos = parent_arc[v]
            bottleneck = cap[pos] if bottleneck is None else min(bottleneck, cap[pos])
            v = to[pos ^ 1]
        v = t
        while v != s:
            pos = parent_arc[v]
            cap[pos] -= bottleneck
            cap[pos ^ 1] += bottleneck
            v = to[pos ^ 1]
        total += bottleneck


def _reaching(graph: list[list[int]], to: list[int], cap: list[float], t: int, tol: float) -> list[bool]:
    """Per node whether it reaches t along residual arcs above ``tol``."""
    reaches = [False] * len(graph)
    reaches[t] = True
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for pos in graph[v]:
            # pos ^ 1 is the residual arc into v from to[pos].
            u = to[pos]
            if not reaches[u] and cap[pos ^ 1] > tol:
                reaches[u] = True
                queue.append(u)
    return reaches


def service_flow(
    structures: list[tuple[int, tuple[tuple[str, str], ...]]],
    source: str,
    destinations: frozenset[str],
    demand_cap: int,
) -> dict[tuple[str, str, int], int] | None:
    """Find integral link flows realizing the multicast service, or None.

    ``structures`` is a list of (wavelength, used directed links).  Every
    used link must carry between 1 and ``demand_cap`` units; non-destination
    nodes conserve flow per wavelength; each destination absorbs exactly one
    unit in total and at most one per wavelength.
    """
    arcs: list[Arc] = []
    src = ("S*",)
    link_arc_index: dict[tuple[str, str, int], int] = {}

    for lam, links in structures:
        arcs.append((src, ("n", source, lam), 0, demand_cap))
        present: set[str] = set()
        for u, v in links:
            link_arc_index[(u, v, lam)] = len(arcs)
            arcs.append((("n", u, lam), ("n", v, lam), 1, demand_cap))
            present.add(u)
            present.add(v)
        for d in sorted(destinations):
            if d in present:
                arcs.append((("n", d, lam), ("d", d), 0, 1))

    balances: dict[object, int] = {src: len(destinations)}
    for d in sorted(destinations):
        balances[("d", d)] = -1

    flows = feasible_flow(arcs, balances)
    if flows is None:
        return None
    return {key: flows[i] for key, i in link_arc_index.items()}
