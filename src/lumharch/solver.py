"""Exact branch-and-bound MILP solver for the multicast structure models.

Best-first search on the LP relaxation bound (FIFO tie-break, the
fix-to-one child first), branching only on fractional link and wavelength
indicators: once those are integral the flow variables form a pure
network-flow system with integral extreme points, so an integral flow is
recovered directly (:func:`integralize_flows`) instead of being branched
on, or even carried in the LP (below).  Objective values at integral
points are computed in exact integer arithmetic.
Each child's LP is warm-started from its parent's optimal basis, which
is all an open node stores besides its bound patch ``{column: (lower,
upper)}``; ``solve_lp`` applies the patch to its copy of the form's
bounds.

Branch-and-cut on the flow-free LP.  Every LP is the relaxation of the
model without its flow layer, the rows ``build_model(..., connectivity=
False)`` emits over the model's L and w columns (in the model's order),
so there are no flow columns to branch on.  With the flow layer on,
connectivity is then enforced lazily, inside each node's one
``solve_lp`` call, at every node and whatever |D|.  First come rounds of
directed cuts (Wong 1984; Koch & Martin 1998): per destination d,
:func:`flow.max_flow` on the per-wavelength layered graph (one copy of
the mesh per wavelength, arc capacities ``x(L_uv_lam)``, a super-source
on every ``(s, lam)`` and a sink on every ``(d, lam)``) finds a minimum
cut, and one below 1 becomes the row ``sum of L over the cut >= 1``.
The max-flow graph holds only the support of the LP point, the arcs with
``x > FEAS_TOL``, and the cut is the back cut (Koch & Martin 1998): every
mesh arc, on the support or off it, that enters the nodes still reaching
the super-sink in the final residual graph, which makes it the minimum
cut nearest the destination.  A back cut has the value of the minimum
cut nearest the source, so it is violated exactly when that one is;
README (Solver notes) gives what it saves in rounds and pivots.
Every integral point of the full model meets every such cut: on each
wavelength only the source has a net outflow, so a destination absorbs
its unit along an ``s -> d`` path of positive flow, hence of used links,
in one wavelength, and that path crosses the cut.  This holds for
light-hierarchies and light-trees alike, Cross Pair Switching revisits
included.  Without the flow layer a detached cycle may serve a
destination, so no cut is separated.

An integral point that meets every cut can still fail the full model, for
example with a destination served as a leaf on two wavelengths.  So at an
integral point without a violated cut the callback runs :func:`_checked`
against the full model.  When :func:`integralize_flows` finds no integral
flow, the point gets a no-good row over the L and w columns,
``sum_{x_j = 1} x_j - sum_{x_j = 0} x_j <= |ones| - 1``.  That row is
exact: with L and w fixed the flow system is totally unimodular, so no
point of the full model has that L/w pattern, and the row cuts off no
other 0/1 point.  The rejected integral point rule: a point that fails
the flow-free rows themselves, or :func:`check_feasible` after its flows
are integralized, can only fail through numerics, so the solve ends
``LimitReached`` and the point never becomes the incumbent.  Cuts and
no-good rows alike are global: they are appended to the one shared form,
and a child's warm basis from an earlier, shorter form is extended by
the later rows' slacks (see :mod:`simplex`).  Separation at a node stops
when no row is violated, when its bound reaches the incumbent, or at the
deadline (which makes the solve ``LimitReached``).  It runs inside the
node's one ``solve_lp`` call, so every LP is still one node and every
pivot is counted in ``lp_iterations``; ``verbosity`` 1 and up prints the
no-good count.

The search starts from a greedy seed, :func:`_greedy_incumbent`, a
structure-attaching placement: each destination joins a wavelength's
structure at the node already in it that is cheapest to reach it from,
so the seed branches and crosses MI nodes as light-hierarchies do.  Its
objective is the first pruning bound, so a tight seed both ends each
node's separation rounds sooner and leaves fewer children to solve.

Every candidate incumbent, the greedy seed, an LH optimum handed over
as a relaxation (below) and each integral LP point alike, passes one
gate, :func:`_checked`: its flows are integralized and the whole
assignment is checked against the model.  A seed that fails is no seed;
an LP point that fails gets a no-good row or ends the solve, as above.
Every returned assignment has therefore passed :func:`check_feasible`.

A solve may be handed the solved LH model of the same session
(``SolveOptions.relaxation``).  Every light-tree is a light-hierarchy, so
an Optimal LH objective is a floor under every bound the search prunes
on, and an LH optimum that passes :func:`_checked` against the model
ends the solve at once: 0 nodes, 0 pivots, and no standard form, cut
separator or greedy seed built.

A single solve is single-threaded and deterministic, counters included,
when BLAS runs on one thread (``OPENBLAS_NUM_THREADS=1``): OpenBLAS
factorizes basis blocks of 100 or more columns with a threaded algorithm
that rounds differently, so ``nodes_explored`` can differ under a
multi-threaded BLAS.  Distinct models may be solved concurrently.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import hierarchy
from .flow import max_flow, service_flow
from .model import Assignment, IlpModel, Mode, VarKind, build_model, check_feasible, extract_structures
from .network import MulticastSession, Network
from .simplex import FEAS_TOL, GE, LE, Basis, LpSolution, Rows, SimplexError, StandardForm, build_standard_form, solve_lp

INT_TOL = 1e-6


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    LIMIT_REACHED = "LimitReached"


@dataclass(frozen=True)
class SolveOptions:
    node_limit: int = 1_000_000
    time_limit_ms: int | None = None
    verbosity: int = 0
    # The LH model of the same network, session and connectivity with its
    # report; see :func:`_relaxation_start`.
    relaxation: tuple[IlpModel, SolveReport] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit_ms is not None and self.time_limit_ms < 1:
            raise ValueError("time_limit_ms must be positive")


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    objective: int | None
    assignment: Assignment | None
    nodes_explored: int
    lp_iterations: int
    total_cost: int | None = None
    wavelength_count: int | None = None
    # The structures of an Optimal solve, validated when the flow layer is
    # on; None for any other status.
    structures: hierarchy.LightStructureSet | None = None


class FlowIntegralizationError(ValueError):
    """No integral flow exists for the fixed link pattern."""


def _standard_form(model: IlpModel) -> StandardForm:
    c = np.zeros(len(model.vars))
    idx, coef = zip(*model.objective)
    c[list(idx)] = coef
    return build_standard_form(c, model.rows, *model.bounds)


def _dicut_separator(model: IlpModel) -> Callable[[np.ndarray], Rows]:
    """A function from the structural values ``x`` of an LP solution of
    ``model``, the flow-free model the solver's LP is built from, to the
    violated directed cuts, one row ``sum L >= 1`` per destination whose
    minimum cut is below 1 (identical cuts once).  Each is the back cut,
    the minimum cut nearest the destination, taken on the support of
    ``x``.  The cuts hold at every integral point of the same session's
    model with the flow layer; see the module docstring.

    Node ``lam * N + i`` of the layered graph is node i on wavelength lam,
    followed by the super-source and the super-sink."""
    net, ms = model.net, model.session
    nn = len(net.nodes)
    src, snk = nn * net.wavelengths, nn * net.wavelengths + 1
    arcs = [  # (tail, head, L index) per mesh arc
        (lam * nn + net.index[u], lam * nn + net.index[v], model.light_index[(u, v, lam)])
        for lam in range(net.wavelengths)
        for u, v in net.directed_links
    ]
    source_arcs = [(src, lam * nn + net.index[ms.source], math.inf) for lam in range(net.wavelengths)]
    sink_arcs = [
        [(lam * nn + net.index[d], snk, math.inf) for lam in range(net.wavelengths)]
        for d in ms.sorted_destinations(net)
    ]

    def violated(x: np.ndarray) -> Rows:
        xs = x.tolist()
        # max_flow never uses a residual at or below FEAS_TOL, so the arcs
        # off the support would change neither the flow nor the cut.
        support = [(tail, head, xs[j]) for tail, head, j in arcs if xs[j] > FEAS_TOL]
        cuts: dict[tuple[int, ...], None] = {}
        for sinks in sink_arcs:
            value, _, sink_side = max_flow(snk + 1, support + source_arcs + sinks, src, snk, FEAS_TOL)
            # The flow value is the cut's, up to FEAS_TOL per cut arc.
            if value < 1.0 - INT_TOL:
                cut = (j for tail, head, j in arcs if sink_side[head] and not sink_side[tail])
                cuts[tuple(sorted(cut))] = None
        k = len(cuts)
        return Rows(
            row=np.repeat(np.arange(k), [len(cut) for cut in cuts]),
            col=np.fromiter(itertools.chain.from_iterable(cuts), np.intp),
            coef=np.ones(sum(map(len, cuts))),
            rel=np.full(k, GE, dtype=np.int8),
            rhs=np.ones(k),
        )

    return violated


def integralize_flows(model: IlpModel, a: Assignment) -> Assignment:
    """Replace flow values by an integral feasible flow over the used links.

    The link/wavelength pattern in ``a`` must already be integral.  Raises
    :class:`FlowIntegralizationError` when the pattern admits no integral
    flow.  :func:`solve` drops a greedy seed so rejected, and cuts off an
    integral LP point so rejected with a no-good row.
    """
    if not model.connectivity:
        return a
    ms = model.session
    structures = [(ls.wavelength, ls.links) for ls in extract_structures(model, a).structures]
    flows = service_flow(structures, ms.source, ms.destinations, len(ms.destinations))
    if flows is None:
        raise FlowIntegralizationError("link pattern admits no integral flow")
    values = list(a.values)
    for v in model.vars:
        if v.kind is VarKind.FLOW:
            values[v.index] = flows.get((v.tail, v.head, v.wavelength), 0)
    return Assignment(values=tuple(values))


def _checked(model: IlpModel, values: list[int]) -> Assignment | None:
    """The candidate incumbent with its flows integralized, or None when
    :func:`check_feasible` rejects it.  Raises
    :class:`FlowIntegralizationError` when :func:`integralize_flows` does."""
    a = integralize_flows(model, Assignment(values=tuple(values)))
    return a if check_feasible(model, a).ok else None


def _nogood(point: np.ndarray) -> Rows:
    """The row ``sum_{x_j = 1} x_j - sum_{x_j = 0} x_j <= |ones| - 1``,
    which cuts off the 0/1 ``point`` and no other 0/1 point."""
    n = len(point)
    return Rows(
        row=np.zeros(n, dtype=np.intp),
        col=np.arange(n),
        coef=np.where(point == 1, 1.0, -1.0),
        rel=np.array([LE], dtype=np.int8),
        rhs=np.array([point.sum() - 1.0]),
    )


def _most_fractional(x: np.ndarray) -> int | None:
    """The index of the most fractional entry of ``x`` (the lowest on ties),
    or None when ``x`` is integral."""
    score = np.minimum(x - np.floor(x + INT_TOL), np.ceil(x - INT_TOL) - x)
    k = int(np.argmax(score))
    return k if score[k] > INT_TOL else None


def _greedy_incumbent(model: IlpModel) -> Assignment | None:
    """Structure-attaching placement heuristic; returns a feasible assignment
    or None.

    Prim-style (Takahashi & Matsuyama 1980; the Member-Only rule of Zhang,
    Wei & Qiao 2000): while destinations remain, each candidate (destination
    d, wavelength lam, attach node a) reaches d along ``shortest_path(a, d)``
    from the source or from any node already on a link of lam's structure,
    and costs the links of that path lam does not use yet.  Candidates are
    tried in order of new cost, a wavelength in use before an empty one,
    then the index of d, lam and the index of a; the first whose grown
    structure passes :func:`hierarchy.structure_violations` (and, for light
    trees, :func:`hierarchy.is_light_tree`) is placed.  So a destination
    may branch off at a splitter or cross an MI node through a second port
    pair, and with one destination this is the source's shortest path on
    the first wavelength that takes it.  No candidate passing means no seed.

    Correctness-neutral: only used to seed the incumbent for pruning.
    """
    net, ms = model.net, model.session
    per_wave: list[list[tuple[str, str]]] = [[] for _ in range(net.wavelengths)]

    def priced(lam: int) -> list[tuple[tuple[int, bool, int, int, int], str, list[tuple[str, str]]]]:
        """The candidates on wavelength lam, each (sort key, d, new links)."""
        links = per_wave[lam]
        used = set(links)
        attach = {ms.source} | {m for link in links for m in link}
        out = []
        for d in remaining:
            for a in attach - {d}:
                try:
                    path = net.shortest_path(a, d)
                except ValueError:
                    continue
                new = [link for link in itertools.pairwise(path) if link not in used]
                key = (sum(net.link_cost[link] for link in new), not links, net.index[d], lam, net.index[a])
                out.append((key, d, new))
        return out

    remaining = list(ms.sorted_destinations(net))
    # Kept between rounds in key order (keys are unique).  A placement
    # changes one structure, so only its wavelength is re-priced; the
    # candidates tried before the placed one failed on structures that did
    # not change, and stay dropped.
    pool = sorted(c for lam in range(net.wavelengths) for c in priced(lam))
    while remaining:
        for i, (key, d, new) in enumerate(pool):
            lam = key[3]
            ls = hierarchy.LightStructure(wavelength=lam, root=ms.source, links=tuple(per_wave[lam] + new))
            if hierarchy.structure_violations(net, ls, ms.destinations):
                continue
            if model.mode is Mode.LT and not hierarchy.is_light_tree(ls):
                continue
            per_wave[lam] += new
            remaining.remove(d)
            kept = [c for c in pool[i + 1 :] if c[1] != d and c[0][3] != lam]
            pool = sorted(kept + priced(lam))
            break
        else:
            return None

    values = [0] * len(model.vars)
    for lam, links in enumerate(per_wave):
        if links:
            values[model.wave_index[lam]] = 1
            for u, v in links:
                values[model.light_index[(u, v, lam)]] = 1
    try:
        return _checked(model, values)
    except FlowIntegralizationError:
        return None


def _relaxation_start(model: IlpModel, relaxation: tuple[IlpModel, SolveReport]) -> tuple[float, Assignment | None]:
    """The floor an LH relaxation puts under ``model``'s optimum, and its
    optimum when that passes :func:`_checked` against ``model``.

    The LT model is the LH model (same variables, objective and rows) plus
    the ``tree_in``/``tree_out`` rows, so the LH optimum bounds it from
    below, and an LH optimum the LT model accepts is optimal for it.  A
    relaxation that is not Optimal gives neither: ``(-inf, None)``.
    """
    lh_model, lh_report = relaxation
    if not (
        lh_model.mode is Mode.LH
        and lh_model.net == model.net
        and lh_model.session == model.session
        and lh_model.connectivity == model.connectivity
    ):
        raise ValueError("relaxation must be the LH model of the same network, session and connectivity")
    if lh_report.status is not SolveStatus.OPTIMAL:
        return -math.inf, None
    try:
        return lh_report.objective, _checked(model, list(lh_report.assignment.values))
    except FlowIntegralizationError:
        return lh_report.objective, None


def solve(model: IlpModel, opts: SolveOptions | None = None) -> SolveReport:
    """Minimize the model exactly; see module docstring for the strategy."""
    opts = opts or SolveOptions()
    floor = -math.inf
    if opts.relaxation is not None:
        floor, optimum = _relaxation_start(model, opts.relaxation)
        if optimum is not None:
            return _report(model, SolveStatus.OPTIMAL, optimum, 0, 0)
    # The LP's column j is the model's column columns[j]: its L and w columns.
    flow_free = build_model(model.net, model.session, model.mode, False) if model.connectivity else model
    columns = np.array([v.index for v in model.vars if v.kind is not VarKind.FLOW])
    cuts = _dicut_separator(flow_free) if model.connectivity else None
    form = _standard_form(flow_free)

    incumbent = _greedy_incumbent(model)
    incumbent_obj = None if incumbent is None else model.objective_value(incumbent)

    nodes_explored = 0
    lp_iterations = 0
    nogoods = 0
    numerical_trouble = False
    deadline = None
    if opts.time_limit_ms is not None:
        deadline = time.monotonic() + opts.time_limit_ms / 1000.0

    counter = itertools.count()
    # Heap entries: (parent LP bound, fifo tick, bound patch {index: (lo, up)},
    # parent's optimal basis to warm-start from).
    heap: list[tuple[float, int, dict[int, tuple[float, float]], Basis | None]] = [
        (-math.inf, next(counter), {}, None)
    ]
    stopped_early = False
    accepted: Assignment | None = None  # the node's integral point, checked

    def pruned(bound: float) -> bool:
        """Whether no integral point of LP bound ``bound`` (or of the floor)
        can beat the incumbent."""
        bound = max(bound, floor)
        return (
            incumbent_obj is not None and math.isfinite(bound) and math.ceil(bound - INT_TOL) >= incumbent_obj
        )

    def separate(sol: LpSolution) -> Rows:
        """The node's next lazy rows: violated directed cuts, else a no-good
        row for an integral point the full model rejects; none when a stop
        rule holds or the point is fractional or accepted."""
        nonlocal stopped_early, numerical_trouble, nogoods, accepted
        if pruned(sol.value):
            return []
        if deadline is not None and time.monotonic() > deadline:
            stopped_early = True
            return []
        rows = cuts(sol.x) if cuts else []
        if rows or _most_fractional(sol.x) is not None:
            return rows
        point = np.rint(sol.x).astype(int)
        values = np.zeros(len(model.vars), dtype=int)
        values[columns] = point
        try:
            accepted = _checked(model, values.tolist())
        except FlowIntegralizationError:
            if check_feasible(flow_free, Assignment(values=tuple(point.tolist()))).ok:
                nogoods += 1
                return _nogood(point)
            accepted = None
        numerical_trouble |= accepted is None
        return []

    while heap:
        bound, _, patch, warm = heapq.heappop(heap)
        if pruned(bound):
            break  # best-first: every remaining node is at least as bad
        if nodes_explored >= opts.node_limit:
            stopped_early = True
            break
        if deadline is not None and time.monotonic() > deadline:
            stopped_early = True
            break

        nodes_explored += 1
        accepted = None
        try:
            sol = solve_lp(form, patch, warm=warm, separate=separate)
        except SimplexError:
            numerical_trouble = True
            continue
        lp_iterations += sol.iterations
        form = sol.form
        if opts.verbosity >= 2 or (opts.verbosity == 1 and nodes_explored % 100 == 0):
            print(
                f"node {nodes_explored}: bound {sol.value if sol.status == 'optimal' else sol.status},"
                f" incumbent {incumbent_obj}, open {len(heap)}",
                file=sys.stderr,
            )
        if sol.status == "infeasible" or pruned(sol.value):
            continue

        k = _most_fractional(sol.x)
        if k is None:
            # Checked by separate(): accepted, or numerical trouble, or the
            # deadline passed before the check.
            if accepted is not None:
                obj = model.objective_value(accepted)
                if incumbent_obj is None or obj < incumbent_obj:
                    incumbent = accepted
                    incumbent_obj = obj
            continue

        for fixed in (1.0, 0.0):
            heapq.heappush(heap, (sol.value, next(counter), {**patch, k: (fixed, fixed)}, sol.basis))

    if opts.verbosity >= 1:
        print(f"no-good rows: {nogoods}", file=sys.stderr)
    if stopped_early or numerical_trouble:
        status = SolveStatus.LIMIT_REACHED
    elif incumbent is None:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.OPTIMAL
    return _report(model, status, incumbent, nodes_explored, lp_iterations)


def _report(
    model: IlpModel, status: SolveStatus, incumbent: Assignment | None, nodes_explored: int, lp_iterations: int
) -> SolveReport:
    """The report of a solve ending with ``incumbent``; an Optimal one carries
    its structures, validated when the flow layer is on."""
    if incumbent is None:
        return SolveReport(
            status=status,
            objective=None,
            assignment=None,
            nodes_explored=nodes_explored,
            lp_iterations=lp_iterations,
        )

    structures = None
    if status is SolveStatus.OPTIMAL:
        structures = extract_structures(model, incumbent)
        if model.connectivity:
            vreport = hierarchy.validate(model.net, structures)
            if not vreport.ok:
                raise AssertionError(f"optimal structures failed validation:\n{vreport}")

    return SolveReport(
        status=status,
        objective=model.objective_value(incumbent),
        assignment=incumbent,
        nodes_explored=nodes_explored,
        lp_iterations=lp_iterations,
        total_cost=model.cost_value(incumbent),
        wavelength_count=model.wavelengths_value(incumbent),
        structures=structures,
    )


def solve_session(
    net: Network,
    ms: MulticastSession,
    mode: Mode | str = Mode.LH,
    connectivity: bool = True,
    opts: SolveOptions | None = None,
) -> tuple[IlpModel, SolveReport]:
    """Convenience wrapper: build the model and solve it."""
    model = build_model(net, ms, mode=mode, connectivity=connectivity)
    return model, solve(model, opts)
