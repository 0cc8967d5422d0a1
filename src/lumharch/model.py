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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hierarchy import LightStructure, LightStructureSet, ValidationReport, Violation
from .network import MulticastSession, Network
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
class IlpModel:
    net: Network
    session: MulticastSession
    mode: Mode
    connectivity: bool
    delta: int
    vars: tuple[VarRef, ...]
    objective: tuple[tuple[int, int], ...]  # (variable index, coefficient)
    rows: Rows = field(compare=False, repr=False)
    row_names: tuple[str, ...] = field(compare=False, repr=False)

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

    @cached_property
    def bounds(self) -> np.ndarray:
        """The lower and upper bound of each variable, as a 2 x n array."""
        return np.array([(v.lower, v.upper) for v in self.vars], dtype=np.int64).T

    @cached_property
    def by_name(self) -> dict[str, VarRef]:
        return {v.name: v for v in self.vars}

    @cached_property
    def light_index(self) -> dict[tuple[str, str, int], int]:
        return {
            (v.tail, v.head, v.wavelength): v.index
            for v in self.vars
            if v.kind is VarKind.LIGHT
        }

    @cached_property
    def wave_index(self) -> dict[int, int]:
        return {v.wavelength: v.index for v in self.vars if v.kind is VarKind.WAVE}

    def objective_value(self, a: Assignment) -> int:
        return sum(coef * a.values[i] for i, coef in self.objective)

    def cost_value(self, a: Assignment) -> int:
        return sum(
            self.net.link_cost[(v.tail, v.head)] * a.values[v.index]
            for v in self.vars
            if v.kind is VarKind.LIGHT
        )

    def wavelengths_value(self, a: Assignment) -> int:
        return sum(a.values[i] for i in self.wave_index.values())


def build_model(
    net: Network,
    ms: MulticastSession,
    mode: Mode | str = Mode.LH,
    connectivity: bool = True,
) -> IlpModel:
    """Build the ILP for one session on one network."""
    mode = Mode(mode) if not isinstance(mode, Mode) else mode
    if net.wavelengths < 1:
        raise ValueError("need at least one wavelength")
    s = ms.source
    dests = ms.sorted_destinations(net)
    dset = ms.destinations
    ndest = len(dests)
    waves = range(net.wavelengths)
    links = net.directed_links
    delta = net.wavelengths + 1

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

    names: list[str] = []
    counts: list[int] = []  # nonzeros per row
    cols: list[int] = []
    coefs: list[int] = []
    rels: list[int] = []
    rhss: list[int] = []

    def add(name: str, terms: list[tuple[int, int]], rel: int, rhs: int) -> None:
        merged: dict[int, int] = {}
        for idx, coef in terms:
            merged[idx] = merged.get(idx, 0) + coef
        keys = sorted(merged)
        names.append(name)
        counts.append(len(keys))
        cols.extend(keys)
        coefs.extend(map(merged.__getitem__, keys))
        rels.append(rel)
        rhss.append(rhs)

    def l_in(m: str, lam: int) -> list[tuple[int, int]]:
        return [(light[(n, m, lam)], 1) for n in net.neighbors[m]]

    def l_out(m: str, lam: int) -> list[tuple[int, int]]:
        return [(light[(m, n, lam)], 1) for n in net.neighbors[m]]

    # Root: never entered, emits between 1 and |D| links over all wavelengths.
    add("src_in", [t for lam in waves for t in l_in(s, lam)], EQ, 0)
    out_all = [t for lam in waves for t in l_out(s, lam)]
    add("src_out_lo", out_all, GE, 1)
    add("src_out_hi", out_all, LE, ndest)

    # Each destination is spanned at least once; the upper bound (pass-through
    # visits while other destinations are served) degenerates for |D| = 1 and
    # is dropped there.
    for d in dests:
        in_all = [t for lam in waves for t in l_in(d, lam)]
        add(f"dest_in_lo_{d}", in_all, GE, 1)
        if ndest >= 2:
            add(f"dest_in_hi_{d}", in_all, LE, ndest - 1)

    for lam in waves:
        for m, _ in net.nodes:
            if m == s:
                continue
            if net.is_mc(m):
                add(f"mc_in_{m}_{lam}", l_in(m, lam), LE, 1)
                add(f"mc_out_{m}_{lam}", l_out(m, lam) + [(i, -net.degree(m)) for i, _ in l_in(m, lam)], LE, 0)
            else:
                add(f"mi_out_{m}_{lam}", l_out(m, lam) + [(i, -1) for i, _ in l_in(m, lam)], LE, 0)
        # Only destinations may be leaves.
        for m, _ in net.nodes:
            if m == s or m in dset:
                continue
            add(f"leaf_{m}_{lam}", l_out(m, lam) + [(i, -1) for i, _ in l_in(m, lam)], GE, 0)

    for lam in waves:
        for u, v in links:
            add(f"wave_link_{u}_{v}_{lam}", [(wave[lam], 1), (light[(u, v, lam)], -1)], GE, 0)
        add(f"wave_used_{lam}", [(wave[lam], 1)] + [(light[(u, v, lam)], -1) for u, v in links], LE, 0)

    if mode is Mode.LT:
        # Trees: nobody is entered twice; MI nodes pass through or stop.
        for lam in waves:
            for m, _ in net.nodes:
                if m == s:
                    continue
                add(f"tree_in_{m}_{lam}", l_in(m, lam), LE, 1)
                if not net.is_mc(m):
                    add(f"tree_out_{m}_{lam}", l_out(m, lam), LE, 1)

    if connectivity:

        def f_in(m: str, lam: int) -> list[tuple[int, int]]:
            return [(flowv[(n, m, lam)], 1) for n in net.neighbors[m]]

        def f_out(m: str, lam: int) -> list[tuple[int, int]]:
            return [(flowv[(m, n, lam)], 1) for n in net.neighbors[m]]

        add("flow_src", [t for lam in waves for t in f_out(s, lam)], EQ, ndest)
        for d in dests:
            add(
                f"flow_dest_{d}",
                [t for lam in waves for t in f_in(d, lam)]
                + [(i, -1) for lam in waves for i, _ in f_out(d, lam)],
                EQ,
                1,
            )
            for lam in waves:
                diff = f_out(d, lam) + [(i, -1) for i, _ in f_in(d, lam)]
                add(f"flow_dest_lo_{d}_{lam}", diff, GE, -1)
                add(f"flow_dest_hi_{d}_{lam}", diff, LE, 0)
        for lam in waves:
            for m, _ in net.nodes:
                if m == s or m in dset:
                    continue
                add(f"flow_cons_{m}_{lam}", f_in(m, lam) + [(i, -1) for i, _ in f_out(m, lam)], EQ, 0)
            for u, v in links:
                add(f"flow_lo_{u}_{v}_{lam}", [(flowv[(u, v, lam)], 1), (light[(u, v, lam)], -1)], GE, 0)
                add(f"flow_hi_{u}_{v}_{lam}", [(flowv[(u, v, lam)], 1), (light[(u, v, lam)], -ndest)], LE, 0)

    objective = [
        (light[(u, v, lam)], delta * net.link_cost[(u, v)]) for lam in waves for u, v in links
    ] + [(wave[lam], 1) for lam in waves]

    return IlpModel(
        net=net,
        session=ms,
        mode=mode,
        connectivity=connectivity,
        delta=delta,
        vars=tuple(vars_),
        objective=tuple(objective),
        rows=Rows(
            row=np.repeat(np.arange(len(names)), counts),
            col=np.array(cols, dtype=np.intp),
            coef=np.array(coefs, dtype=np.int64),
            rel=np.array(rels, dtype=np.int8),
            rhs=np.array(rhss, dtype=np.int64),
        ),
        row_names=tuple(names),
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
