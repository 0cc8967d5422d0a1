"""Integer linear program for cost-optimal multicast structures.

Variables, per wavelength lam and directed link (m, n):

* ``L_m_n_lam``  binary; 1 iff the session uses that link on lam.
* ``F_m_n_lam``  integer in [0, |D|]; destinations served through the link.
* ``w_lam``      binary; 1 iff wavelength lam is used at all.

The objective scales total link cost by ``delta = |W| + 1`` and adds the
number of wavelengths used, so comparing objective values is exactly the
lexicographic comparison of (total cost, wavelength count) for integer
costs.  Structure constraints shape per-wavelength link sets into rooted
hierarchies (or trees in LT mode); the optional commodity-flow layer pins
source-to-destination connectivity, which the structure layer alone cannot
guarantee (a detached cycle can satisfy all local degree rules).

The model holds its constraint matrix once, as arrays (:class:`Rows`): the
row, column and coefficient of each nonzero, with each row's terms in
column order, plus a relation code and a right-hand side per row;
``row_names`` names the rows.  The solver's standard form is one scatter of
those arrays, and :func:`check_feasible` is one integer matrix-vector
product and a compare, which names a row only when it fails.
``IlpModel.constraints`` is a view built on first use, one
:class:`Constraint` per row, for the LP text and for readers that want
records.

The rows come from one template per network, mode, flow-layer choice and
|D|: every row some session with that many destinations may keep, the
source rows (``src_*``, ``flow_src``) and the destination rows
(``dest_*``, ``flow_dest_*``) once per node, in emission order.  Each row
carries the node whose rule it states and a level set, a bit mask over
that node's three levels (other, destination, source) at which a session
keeps the row.  :func:`build_model` computes the level of each node of the
session and keeps the rows with one mask; it builds no row itself.  A node
has one level, so a session whose source is also a destination is
rejected.  The variables, the objective and the maps over them
(:class:`Columns`) are shared per network, flow-layer choice and |D|.
Templates and columns are held on the network
(``Network.model_templates``), filled on the first build and read-only;
every model's ``rows`` arrays are its own.  A built-in topology loads as
one network per argument set (:func:`network.builtin_topology`), so
repeated batches on it do not rebuild their templates.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .hierarchy import LightStructure, LightStructureSet, ValidationReport, Violation
from .network import MulticastSession, Network, make_session
from .simplex import EQ, GE, LE, Rows


class VarKind(enum.Enum):
    LIGHT = "L"
    FLOW = "F"
    WAVE = "w"


class Relation(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


_RELATION = {LE: Relation.LE, GE: Relation.GE, EQ: Relation.EQ}


@dataclass(frozen=True)
class VarRef:
    kind: VarKind
    tail: str | None
    head: str | None
    wavelength: int
    index: int
    lower: int
    upper: int

    @property
    def name(self) -> str:
        if self.kind is VarKind.WAVE:
            return f"w_{self.wavelength}"
        return f"{self.kind.value}_{self.tail}_{self.head}_{self.wavelength}"


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, int], ...]  # (variable index, coefficient)
    relation: Relation
    rhs: int


@dataclass(frozen=True)
class Assignment:
    values: tuple[int, ...]


class Mode(enum.Enum):
    LH = "LH"
    LT = "LT"


@dataclass(frozen=True)
class Columns:
    """The variables and objective of every model on one network with one
    flow-layer choice and one |D|, and the maps over them; the models share
    one instance, so its maps are read-only."""

    vars: tuple[VarRef, ...]
    objective: tuple[tuple[int, int], ...]  # (variable index, coefficient)
    light_index: Mapping[tuple[str, str, int], int] = field(compare=False, repr=False)
    flow_index: Mapping[tuple[str, str, int], int] = field(compare=False, repr=False)
    wave_index: Mapping[int, int] = field(compare=False, repr=False)
    by_name: Mapping[str, VarRef] = field(compare=False, repr=False)
    bounds: np.ndarray = field(compare=False, repr=False)  # 2 x n: lower, upper


@dataclass(frozen=True)
class IlpModel:
    net: Network
    session: MulticastSession
    mode: Mode
    connectivity: bool
    delta: int
    columns: Columns = field(repr=False)
    rows: Rows = field(compare=False, repr=False)
    row_names: tuple[str, ...] = field(compare=False, repr=False)

    @property
    def vars(self) -> tuple[VarRef, ...]:
        return self.columns.vars

    @property
    def objective(self) -> tuple[tuple[int, int], ...]:
        return self.columns.objective

    @property
    def bounds(self) -> np.ndarray:
        """The lower and upper bound of each variable, as a read-only 2 x n array."""
        return self.columns.bounds

    @property
    def by_name(self) -> Mapping[str, VarRef]:
        return self.columns.by_name

    @property
    def light_index(self) -> Mapping[tuple[str, str, int], int]:
        return self.columns.light_index

    @property
    def wave_index(self) -> Mapping[int, int]:
        return self.columns.wave_index

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as records, built on first use."""
        r = self.rows
        cols, coefs = r.col.tolist(), r.coef.tolist()
        ends = np.searchsorted(r.row, np.arange(1, len(r) + 1)).tolist()
        starts = [0] + ends[:-1]
        return tuple(
            Constraint(name, tuple(zip(cols[start:end], coefs[start:end])), _RELATION[rel], rhs)
            for name, start, end, rel, rhs in zip(self.row_names, starts, ends, r.rel.tolist(), r.rhs.tolist())
        )

    def objective_value(self, a: Assignment) -> int:
        return sum(coef * a.values[i] for i, coef in self.objective)

    def cost_value(self, a: Assignment) -> int:
        """The total link cost: exact, as the objective is ``delta`` times it
        plus the wavelength count."""
        return (self.objective_value(a) - self.wavelengths_value(a)) // self.delta

    def wavelengths_value(self, a: Assignment) -> int:
        return sum(a.values[i] for i in self.wave_index.values())


# A template row states a rule for one node, and its level set says at which
# of that node's levels (0 other, 1 destination, 2 source) a session keeps
# it: bit k of the set stands for level k.
_OTHER, _DEST, _SOURCE = 1, 2, 4
_NOT_SOURCE = _OTHER | _DEST
_ALWAYS = _OTHER | _DEST | _SOURCE


@dataclass(frozen=True)
class _Template:
    """Rows in emission order, as read-only arrays: per row its name, nonzero
    count, relation, right-hand side, node index and level set; per nonzero,
    in row order, its column and its coefficient."""

    names: tuple[str, ...]
    count: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    node: np.ndarray
    levels: np.ndarray
    col: np.ndarray
    coef: np.ndarray


def _shared(table, key, make: Callable[[], object]):
    """``table[key]``, made and stored on first use."""
    value = table.get(key)
    return value if value is not None else table.setdefault(key, make())


def _columns(net: Network, connectivity: bool, ndest: int) -> Columns:
    waves = range(net.wavelengths)
    links = net.directed_links
    vars_: list[VarRef] = []
    light: dict[tuple[str, str, int], int] = {}
    flowv: dict[tuple[str, str, int], int] = {}
    wave: dict[int, int] = {}
    for lam in waves:
        for u, v in links:
            light[(u, v, lam)] = len(vars_)
            vars_.append(VarRef(VarKind.LIGHT, u, v, lam, len(vars_), 0, 1))
    if connectivity:
        for lam in waves:
            for u, v in links:
                flowv[(u, v, lam)] = len(vars_)
                vars_.append(VarRef(VarKind.FLOW, u, v, lam, len(vars_), 0, ndest))
    for lam in waves:
        wave[lam] = len(vars_)
        vars_.append(VarRef(VarKind.WAVE, None, None, lam, len(vars_), 0, 1))
    delta = net.wavelengths + 1
    objective = [
        (light[(u, v, lam)], delta * net.link_cost[(u, v)]) for lam in waves for u, v in links
    ] + [(wave[lam], 1) for lam in waves]
    bounds = np.array([(v.lower, v.upper) for v in vars_], dtype=np.int64).T
    bounds.setflags(write=False)
    return Columns(
        vars=tuple(vars_),
        objective=tuple(objective),
        light_index=MappingProxyType(light),
        flow_index=MappingProxyType(flowv),
        wave_index=MappingProxyType(wave),
        by_name=MappingProxyType({v.name: v for v in vars_}),
        bounds=bounds,
    )


_Index = Mapping[tuple[str, str, int], int]


def _into(net: Network, index: _Index, m: str, lam: int, coef: int = 1) -> list[tuple[int, int]]:
    """``coef`` times each variable in ``index`` of a link into m on lam."""
    return [(index[(n, m, lam)], coef) for n in net.neighbors[m]]


def _out_of(net: Network, index: _Index, m: str, lam: int, coef: int = 1) -> list[tuple[int, int]]:
    """``coef`` times each variable in ``index`` of a link out of m on lam."""
    return [(index[(m, n, lam)], coef) for n in net.neighbors[m]]


def _template(net: Network, mode: Mode, connectivity: bool, ndest: int, cols: Columns) -> _Template:
    """Every row a session with ``ndest`` destinations on ``net`` may keep,
    each with the node whose rule it states and its level set.  A session
    keeps the source rows of one node only, so its source rows come before
    its destination rows whatever the node indices."""
    waves = range(net.wavelengths)
    links = net.directed_links
    nodes = list(enumerate(net.node_ids))
    light, flowv, wave = cols.light_index, cols.flow_index, cols.wave_index
    names: list[str] = []
    rows: list[tuple[int, int, int, int, int]] = []  # count, rel, rhs, node, level set
    col: list[int] = []
    coef: list[int] = []

    def add(name: str, terms: list[tuple[int, int]], rel: int, rhs: int, node: int = 0, levels: int = _ALWAYS):
        terms = sorted(terms)
        names.append(name)
        rows.append((len(terms), rel, rhs, node, levels))
        col.extend(c for c, _ in terms)
        coef.extend(a for _, a in terms)

    def every_wave(side: Callable[..., list[tuple[int, int]]], index: _Index, m: str, sign: int = 1):
        return [t for lam in waves for t in side(net, index, m, lam, sign)]

    # Root: never entered, emits between 1 and |D| links over all wavelengths.
    for i, s in nodes:
        add("src_in", every_wave(_into, light, s), EQ, 0, i, _SOURCE)
        out_all = every_wave(_out_of, light, s)
        add("src_out_lo", out_all, GE, 1, i, _SOURCE)
        add("src_out_hi", out_all, LE, ndest, i, _SOURCE)

    # Each destination is spanned at least once; the upper bound (pass-through
    # visits while other destinations are served) degenerates for |D| = 1 and
    # is dropped there.
    for i, d in nodes:
        in_all = every_wave(_into, light, d)
        add(f"dest_in_lo_{d}", in_all, GE, 1, i, _DEST)
        if ndest >= 2:
            add(f"dest_in_hi_{d}", in_all, LE, ndest - 1, i, _DEST)

    for lam in waves:
        for i, m in nodes:
            if net.is_mc(m):
                add(f"mc_in_{m}_{lam}", _into(net, light, m, lam), LE, 1, i, _NOT_SOURCE)
                mc_out = _out_of(net, light, m, lam) + _into(net, light, m, lam, -net.degree(m))
                add(f"mc_out_{m}_{lam}", mc_out, LE, 0, i, _NOT_SOURCE)
            else:
                mi_out = _out_of(net, light, m, lam) + _into(net, light, m, lam, -1)
                add(f"mi_out_{m}_{lam}", mi_out, LE, 0, i, _NOT_SOURCE)
        # Only destinations may be leaves.
        for i, m in nodes:
            leaf = _out_of(net, light, m, lam) + _into(net, light, m, lam, -1)
            add(f"leaf_{m}_{lam}", leaf, GE, 0, i, _OTHER)

    for lam in waves:
        for u, v in links:
            add(f"wave_link_{u}_{v}_{lam}", [(wave[lam], 1), (light[(u, v, lam)], -1)], GE, 0)
        add(f"wave_used_{lam}", [(wave[lam], 1)] + [(light[(u, v, lam)], -1) for u, v in links], LE, 0)

    if mode is Mode.LT:
        # Trees: nobody is entered twice; MI nodes pass through or stop.
        for lam in waves:
            for i, m in nodes:
                add(f"tree_in_{m}_{lam}", _into(net, light, m, lam), LE, 1, i, _NOT_SOURCE)
                if not net.is_mc(m):
                    add(f"tree_out_{m}_{lam}", _out_of(net, light, m, lam), LE, 1, i, _NOT_SOURCE)

    if connectivity:
        for i, s in nodes:
            add("flow_src", every_wave(_out_of, flowv, s), EQ, ndest, i, _SOURCE)
        for i, d in nodes:
            add(f"flow_dest_{d}", every_wave(_into, flowv, d) + every_wave(_out_of, flowv, d, -1), EQ, 1, i, _DEST)
            for lam in waves:
                diff = _out_of(net, flowv, d, lam) + _into(net, flowv, d, lam, -1)
                add(f"flow_dest_lo_{d}_{lam}", diff, GE, -1, i, _DEST)
                add(f"flow_dest_hi_{d}_{lam}", diff, LE, 0, i, _DEST)
        for lam in waves:
            for i, m in nodes:
                cons = _into(net, flowv, m, lam) + _out_of(net, flowv, m, lam, -1)
                add(f"flow_cons_{m}_{lam}", cons, EQ, 0, i, _OTHER)
            for u, v in links:
                f, x = flowv[(u, v, lam)], light[(u, v, lam)]
                add(f"flow_lo_{u}_{v}_{lam}", [(f, 1), (x, -1)], GE, 0)
                add(f"flow_hi_{u}_{v}_{lam}", [(f, 1), (x, -ndest)], LE, 0)

    count, rel, rhs, node, levels = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    arrays = [
        count.astype(np.intp),
        rel.astype(np.int8),
        rhs.copy(),
        node.astype(np.intp),
        levels.astype(np.int8),
        np.array(col, dtype=np.intp),
        np.array(coef, dtype=np.int64),
    ]
    for a in arrays:
        a.setflags(write=False)
    return _Template(tuple(names), *arrays)


def build_model(
    net: Network,
    ms: MulticastSession,
    mode: Mode | str = Mode.LH,
    connectivity: bool = True,
) -> IlpModel:
    """Build the ILP for one session on one network: the rows of the
    network's template that the session keeps (see the module docstring)."""
    mode = Mode(mode) if not isinstance(mode, Mode) else mode
    if net.wavelengths < 1:
        raise ValueError("need at least one wavelength")
    make_session(net, ms.source, ms.destinations)  # validates the session
    ndest = len(ms.destinations)
    table = net.model_templates
    cols = _shared(table, (connectivity, ndest), lambda: _columns(net, connectivity, ndest))
    t = _shared(table, (mode, connectivity, ndest), lambda: _template(net, mode, connectivity, ndest, cols))
    level = np.zeros(len(net.nodes), dtype=np.int8)
    level[[net.index[d] for d in ms.destinations]] = 1
    level[net.index[ms.source]] = 2
    keep = ((t.levels >> level[t.node]) & 1).astype(bool)
    nz = np.repeat(keep, t.count)
    count = t.count[keep]
    return IlpModel(
        net=net,
        session=ms,
        mode=mode,
        connectivity=connectivity,
        delta=net.wavelengths + 1,
        columns=cols,
        rows=Rows(
            row=np.repeat(np.arange(len(count)), count),
            col=t.col[nz],
            coef=t.coef[nz],
            rel=t.rel[keep],
            rhs=t.rhs[keep],
        ),
        row_names=tuple(compress(t.names, keep.tolist())),
    )


# ---------------------------------------------------------------------------
# LP text format


def _format_terms(terms: list[tuple[str, int]]) -> list[str]:
    """Render '+ 3 x' style tokens; wrapping is handled by the caller."""
    parts: list[str] = []
    for name, coef in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts and sign == "+":
            parts.append(body)
        else:
            parts.append(f"{sign} {body}")
    if not parts:
        parts.append(f"0 {terms[0][0]}" if terms else "0")
    return parts


def emit_lp(model: IlpModel) -> str:
    """Standard LP text (CPLEX dialect): objective, constraints, bounds,
    integrality sections.  Deterministic ordering throughout."""
    lines: list[str] = []
    lines.append(
        f"\\ multicast structure model: mode={model.mode.value}"
        f" connectivity={'on' if model.connectivity else 'off'}"
        f" wavelengths={model.net.wavelengths} delta={model.delta}"
    )
    lines.append("Minimize")
    obj_terms = [(model.vars[i].name, coef) for i, coef in model.objective]
    lines.extend(_wrap(" obj: ", _format_terms(obj_terms)))
    lines.append("Subject To")
    for c in model.constraints:
        terms = [(model.vars[i].name, coef) for i, coef in c.terms]
        body = _format_terms(terms) + [f"{c.relation.value} {c.rhs}"]
        lines.extend(_wrap(f" {c.name}: ", body))
    lines.append("Bounds")
    for v in model.vars:
        lines.append(f" 0 <= {v.name} <= {v.upper}")
    binaries = [v.name for v in model.vars if v.kind in (VarKind.LIGHT, VarKind.WAVE)]
    generals = [v.name for v in model.vars if v.kind is VarKind.FLOW]
    lines.append("Binary")
    for name in binaries:
        lines.append(f" {name}")
    if generals:
        lines.append("General")
        for name in generals:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _wrap(prefix: str, tokens: list[str], per_line: int = 12) -> list[str]:
    lines = []
    for i in range(0, len(tokens), per_line):
        chunk = " ".join(tokens[i : i + per_line])
        lines.append((prefix if i == 0 else " " * len(prefix)) + chunk)
    return lines


def import_solution(model: IlpModel, text: str) -> Assignment:
    """Read `name value` lines into an assignment.

    Unknown names and names given twice are rejected; values must be
    finite, integral within 1e-6 and inside the declared bounds.  Variables
    not mentioned default to 0.
    """
    values = [0] * len(model.vars)
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'name value', got {line!r}")
        name, raw_val = parts
        var = model.by_name.get(name)
        if var is None:
            raise ValueError(f"line {line_no}: unknown variable {name!r}")
        if name in first_line:
            raise ValueError(f"line {line_no}: variable {name!r} already given on line {first_line[name]}")
        first_line[name] = line_no
        try:
            x = float(raw_val)
        except ValueError:
            raise ValueError(f"line {line_no}: bad numeric value {raw_val!r}") from None
        if not math.isfinite(x):
            raise ValueError(f"line {line_no}: value {raw_val!r} for {name} is not finite")
        rounded = round(x)
        if abs(x - rounded) > 1e-6:
            raise ValueError(f"line {line_no}: value {x} for {name} is not integral")
        if not var.lower <= rounded <= var.upper:
            raise ValueError(
                f"line {line_no}: value {rounded} for {name} outside bounds [{var.lower}, {var.upper}]"
            )
        values[var.index] = int(rounded)
    return Assignment(values=tuple(values))


def check_feasible(model: IlpModel, a: Assignment) -> ValidationReport:
    """Evaluate every bound and constraint at the assignment: one integer
    matrix-vector product and a compare, naming only the rows that fail."""
    if len(a.values) != len(model.vars):
        raise ValueError("assignment does not cover all variables")
    x = np.array(a.values, dtype=np.int64)
    lower, upper = model.bounds
    violations = [
        Violation("bounds", v.name, f"value {a.values[v.index]} outside [{v.lower}, {v.upper}]")
        for v in map(model.vars.__getitem__, np.flatnonzero((x < lower) | (x > upper)))
    ]
    r = model.rows
    lhs = np.zeros(len(r), dtype=np.int64)
    np.add.at(lhs, r.row, r.coef * x[r.col])
    slack = r.rhs - lhs
    for i in np.flatnonzero(np.where(r.rel == EQ, slack != 0, slack * r.rel < 0)):
        name = model.row_names[i]
        violations.append(
            Violation(name, name, f"lhs {lhs[i]} {_RELATION[r.rel[i]].value} {r.rhs[i]} violated (slack {slack[i]})")
        )
    return ValidationReport(violations=tuple(violations))


def extract_structures(model: IlpModel, a: Assignment) -> LightStructureSet:
    """Read the per-wavelength structures out of a feasible assignment."""
    net, ms = model.net, model.session
    structures = []
    for lam in range(net.wavelengths):
        if a.values[model.wave_index[lam]] != 1:
            continue
        links = tuple(
            (u, v)
            for u, v in net.directed_links
            if a.values[model.light_index[(u, v, lam)]] == 1
        )
        if links:
            structures.append(LightStructure(wavelength=lam, root=ms.source, links=links))
    return LightStructureSet(session=ms, structures=tuple(structures))
