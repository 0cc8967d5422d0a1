"""Command-line front end and batch experiment harness.

Commands: ``solve`` one session, ``compare`` LH vs LT, ``batch`` seeded
random-session experiments with CSV output, ``validate`` a structure
dump, ``emit-lp`` / ``import-sol`` to bridge external MILP solvers.

Exit codes: 0 success, 1 usage, 2 input validation (including failed
structure validation), 3 infeasible, 4 solver limit reached.

Batch runs are deterministic for a fixed config: sessions come from a
splitmix64 generator with Fisher-Yates prefix sampling, rows are emitted
in session order, and wall-clock timing is only written when ``--timing``
is given (it is the one intrinsically non-reproducible column).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import hierarchy
from .model import Mode, build_model, check_feasible, emit_lp, extract_structures, import_solution
from .network import (
    BUILTIN_TOPOLOGIES,
    MulticastSession,
    Network,
    NetworkFormatError,
    builtin_topology,
    make_session,
    parse_network,
)
from .solver import SolveOptions, SolveReport, SolveStatus, solve

_MASK64 = (1 << 64) - 1


class Splitmix64:
    """Tiny deterministic 64-bit generator (splitmix64), platform independent."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n


def generate_sessions(net: Network, size: int, count: int, seed: int) -> list[MulticastSession]:
    """Uniform random sessions: source from V, destinations a size-subset of
    V minus the source (Fisher-Yates prefix).  Deterministic per seed."""
    if size >= len(net.node_ids):
        raise ValueError(f"group size {size} must be below the node count {len(net.node_ids)}")
    if size < 1 or count < 1:
        raise ValueError("group size and session count must be positive")
    rng = Splitmix64(seed)
    sessions = []
    for _ in range(count):
        source = net.node_ids[rng.below(len(net.node_ids))]
        pool = [n for n in net.node_ids if n != source]
        for i in range(size):
            j = i + rng.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        sessions.append(make_session(net, source, pool[:size]))
    return sessions


@dataclass(frozen=True)
class ExperimentConfig:
    topology: str
    splitters: tuple[str, ...] = ()
    group_size: int = 2
    session_count: int = 100
    seed: int = 1
    wavelengths: int | None = None  # None keeps the topology's own count
    modes: tuple[Mode, ...] = (Mode.LH, Mode.LT)
    node_limit: int = 1_000_000
    timing: bool = False
    forced_sessions: tuple[MulticastSession, ...] | None = None


@dataclass
class MetricsRow:
    group_size: int
    total_cost: dict[str, int] = field(default_factory=dict)
    cost_saving_percent: float | None = None
    wavelengths_used: dict[str, int] = field(default_factory=dict)
    r_cps: int = 0
    solved: dict[str, int] = field(default_factory=dict)
    excluded: int = 0


CSV_HEADER = "session_id,source,destinations,mode,cost,wavelengths,cps_used,solve_status,nodes_explored,ms"


def _load_topology(name_or_path: str, splitters: tuple[str, ...], wavelengths: int | None) -> Network:
    if name_or_path.lower() in BUILTIN_TOPOLOGIES:
        net = builtin_topology(name_or_path)
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ValueError(
                f"topology {name_or_path!r} is neither a builtin ({', '.join(BUILTIN_TOPOLOGIES)}) nor a file"
            )
        net = parse_network(path.read_text(encoding="utf-8"))
    overrides = {}
    if splitters:
        overrides["splitters"] = splitters
    if wavelengths is not None:
        overrides["wavelengths"] = wavelengths
    if overrides:
        net = net.with_overrides(**overrides)
    return net


def _solve_one(
    net: Network, ms: MulticastSession, mode: Mode, node_limit: int
) -> tuple[SolveReport, hierarchy.LightStructureSet | None, float]:
    t0 = time.perf_counter()
    model = build_model(net, ms, mode=mode, connectivity=True)
    report = solve(model, SolveOptions(node_limit=node_limit))
    elapsed = time.perf_counter() - t0
    lss = None
    if report.assignment is not None and report.status is SolveStatus.OPTIMAL:
        lss = extract_structures(model, report.assignment, net, ms)
    return report, lss, elapsed


def run_experiment(cfg: ExperimentConfig) -> tuple[MetricsRow, str]:
    """Solve every session in every requested mode; returns summary + CSV."""
    net = _load_topology(cfg.topology, cfg.splitters, cfg.wavelengths)
    if cfg.forced_sessions is not None:
        sessions = list(cfg.forced_sessions)
    else:
        sessions = generate_sessions(net, cfg.group_size, cfg.session_count, cfg.seed)

    lines = [CSV_HEADER]
    metrics = MetricsRow(group_size=cfg.group_size)
    both_modes = len(cfg.modes) == 2
    lh_total = lt_total = 0
    for sid, ms in enumerate(sessions):
        per_mode = {mode.value: _solve_one(net, ms, mode, cfg.node_limit) for mode in cfg.modes}
        all_optimal = all(rep.status is SolveStatus.OPTIMAL for rep, _, _ in per_mode.values())
        if not all_optimal:
            metrics.excluded += 1
        for mode in cfg.modes:
            rep, lss, elapsed = per_mode[mode.value]
            optimal = rep.status is SolveStatus.OPTIMAL
            cps_used = bool(lss is not None and hierarchy.uses_cps(lss, net))
            dests = ";".join(ms.sorted_destinations(net))
            ms_field = str(int(elapsed * 1000)) if cfg.timing else ""
            lines.append(
                f"{sid},{ms.source},{dests},{mode.value},"
                f"{rep.total_cost if optimal else ''},"
                f"{rep.wavelength_count if optimal else ''},"
                f"{str(cps_used).lower()},{rep.status.value},{rep.nodes_explored},{ms_field}"
            )
            if optimal:
                metrics.solved[mode.value] = metrics.solved.get(mode.value, 0) + 1
                metrics.total_cost[mode.value] = metrics.total_cost.get(mode.value, 0) + rep.total_cost
                metrics.wavelengths_used[mode.value] = (
                    metrics.wavelengths_used.get(mode.value, 0) + rep.wavelength_count
                )
                if mode is Mode.LH and cps_used:
                    metrics.r_cps += 1
        if both_modes and all_optimal:
            lh_total += per_mode[Mode.LH.value][0].total_cost
            lt_total += per_mode[Mode.LT.value][0].total_cost

    if both_modes and lt_total > 0:
        metrics.cost_saving_percent = (lt_total - lh_total) / lt_total * 100.0
    return metrics, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command implementations


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True, help="builtin name (fig3, fig5, nsf, cost239) or a network file path")
    p.add_argument("--splitters", default="", help="comma-separated node ids to mark as MC")
    p.add_argument("--wavelengths", type=int, default=None, help="override the wavelength count")


def _add_session_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True)
    p.add_argument("--dest", required=True, help="comma-separated destination ids")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.add_argument("--time-limit-ms", type=int, default=None)


def _splitters(args: argparse.Namespace) -> tuple[str, ...]:
    return tuple(x for x in args.splitters.split(",") if x)


def _session(net: Network, args: argparse.Namespace) -> MulticastSession:
    return make_session(net, args.source, [d for d in args.dest.split(",") if d])


def _print_report(net: Network, report: SolveReport, lss: hierarchy.LightStructureSet | None, out) -> None:
    """``lss`` is the optimal structures, None when the solve is not optimal."""
    print(f"status: {report.status.value}", file=out)
    if report.objective is not None:
        print(f"objective: {report.objective}", file=out)
        print(f"total cost: {report.total_cost}", file=out)
        print(f"wavelengths: {report.wavelength_count}", file=out)
    print(f"nodes explored: {report.nodes_explored}", file=out)
    print(f"lp iterations: {report.lp_iterations}", file=out)
    if lss is not None:
        print(hierarchy.format_dump(lss, net), end="", file=out)
        cps = sorted({m for ls in lss.structures for m in hierarchy.cps_nodes(ls, net)})
        if cps:
            print(f"cps nodes: {','.join(cps)}", file=out)


def _cmd_solve(args: argparse.Namespace) -> int:
    net = _load_topology(args.topology, _splitters(args), args.wavelengths)
    ms = _session(net, args)
    model = build_model(net, ms, mode=Mode(args.mode.upper()), connectivity=not args.no_connectivity)
    report = solve(model, SolveOptions(node_limit=args.node_limit, time_limit_ms=args.time_limit_ms))
    lss = None
    if report.status is SolveStatus.OPTIMAL:
        lss = extract_structures(model, report.assignment, net, ms)
    _print_report(net, report, lss, sys.stdout)
    if args.dump and lss is not None:
        Path(args.dump).write_text(hierarchy.format_dump(lss, net), encoding="utf-8")
    if report.status is SolveStatus.INFEASIBLE:
        return 3
    if report.status is SolveStatus.LIMIT_REACHED:
        return 4
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    net = _load_topology(args.topology, _splitters(args), args.wavelengths)
    ms = _session(net, args)
    reports = {}
    for mode in (Mode.LH, Mode.LT):
        model = build_model(net, ms, mode=mode, connectivity=True)
        reports[mode] = solve(model, SolveOptions(node_limit=args.node_limit, time_limit_ms=args.time_limit_ms))
    for mode, rep in reports.items():
        if rep.status is SolveStatus.OPTIMAL:
            print(f"{mode.value}: cost {rep.total_cost}, wavelengths {rep.wavelength_count}, objective {rep.objective}")
        else:
            print(f"{mode.value}: {rep.status.value}")
    lh, lt = reports[Mode.LH], reports[Mode.LT]
    if lh.status is SolveStatus.OPTIMAL and lt.status is SolveStatus.OPTIMAL:
        delta = lt.total_cost - lh.total_cost
        saving = delta / lt.total_cost * 100.0 if lt.total_cost else 0.0
        print(f"cost delta (LT - LH): {delta}")
        print(f"saving: {saving:.2f}%")
        return 0
    if lh.status is SolveStatus.INFEASIBLE and lt.status is SolveStatus.INFEASIBLE:
        return 3
    return 4 if SolveStatus.LIMIT_REACHED in (lh.status, lt.status) else 0


def _cmd_batch(args: argparse.Namespace) -> int:
    modes = tuple(dict.fromkeys(Mode(m.strip().upper()) for m in args.modes.split(",") if m.strip()))
    if not modes:
        raise ValueError("no modes requested")
    cfg = ExperimentConfig(
        topology=args.topology,
        splitters=_splitters(args),
        group_size=args.group_size,
        session_count=args.sessions,
        seed=args.seed,
        wavelengths=args.wavelengths,
        modes=modes,
        node_limit=args.node_limit,
        timing=args.timing,
    )
    t0 = time.perf_counter()
    metrics, csv_text = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    Path(args.csv).write_text(csv_text, encoding="utf-8", newline="")
    print(f"group size |D|: {metrics.group_size}")
    for mode in modes:
        key = mode.value
        print(
            f"{key}: solved {metrics.solved.get(key, 0)}/{cfg.session_count},"
            f" total cost {metrics.total_cost.get(key, 0)},"
            f" wavelengths {metrics.wavelengths_used.get(key, 0)}"
        )
    if metrics.cost_saving_percent is not None:
        print(f"cost saving: {metrics.cost_saving_percent:.2f}%")
    print(f"R(CPS): {metrics.r_cps}")
    if metrics.excluded:
        print(f"excluded (not solved to optimality in every mode): {metrics.excluded}")
    print(f"csv: {args.csv}")
    print(f"wall time: {elapsed:.1f}s", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    net = _load_topology(args.topology, _splitters(args), args.wavelengths)
    ms = _session(net, args)
    text = Path(args.dump).read_text(encoding="utf-8")
    lss = hierarchy.parse_dump(text, ms)
    report = hierarchy.validate(net, lss)
    if report.ok:
        print("ok")
        return 0
    print(report)
    return 2


def _cmd_emit_lp(args: argparse.Namespace) -> int:
    net = _load_topology(args.topology, _splitters(args), args.wavelengths)
    ms = _session(net, args)
    model = build_model(net, ms, mode=Mode(args.mode.upper()), connectivity=not args.no_connectivity)
    text = emit_lp(model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_import_sol(args: argparse.Namespace) -> int:
    net = _load_topology(args.topology, _splitters(args), args.wavelengths)
    ms = _session(net, args)
    model = build_model(net, ms, mode=Mode(args.mode.upper()), connectivity=not args.no_connectivity)
    assignment = import_solution(model, Path(args.solution).read_text(encoding="utf-8"))
    report = check_feasible(model, assignment)
    if not report.ok:
        print("infeasible assignment:")
        print(report)
        return 3
    print(f"objective: {model.objective_value(assignment)}")
    print(f"total cost: {model.cost_value(assignment)}")
    print(f"wavelengths: {model.wavelengths_value(assignment)}")
    lss = extract_structures(model, assignment, net, ms)
    print(hierarchy.format_dump(lss, net), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lumharch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one multicast session")
    _add_topology_args(p)
    _add_session_args(p)
    p.add_argument("--mode", choices=["lh", "lt"], default="lh")
    p.add_argument("--no-connectivity", action="store_true", help="drop the flow connectivity layer")
    p.add_argument("--dump", default=None, help="write the optimal structures to this file")
    _add_solver_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="solve in both modes and report the delta")
    _add_topology_args(p)
    _add_session_args(p)
    _add_solver_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("batch", help="seeded random-session experiment with CSV output")
    _add_topology_args(p)
    p.add_argument("--group-size", type=int, required=True)
    p.add_argument("--sessions", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--modes", default="lh,lt")
    p.add_argument("--csv", required=True)
    p.add_argument("--timing", action="store_true", help="fill the ms column (breaks byte-reproducibility)")
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("validate", help="validate a structure dump against a session")
    _add_topology_args(p)
    _add_session_args(p)
    p.add_argument("dump", help="structure dump file (one 'λ<k>: ...' line per structure)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("emit-lp", help="write the model in LP text format")
    _add_topology_args(p)
    _add_session_args(p)
    p.add_argument("--mode", choices=["lh", "lt"], default="lh")
    p.add_argument("--no-connectivity", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("import-sol", help="import an external solver solution")
    _add_topology_args(p)
    _add_session_args(p)
    p.add_argument("--mode", choices=["lh", "lt"], default="lh")
    p.add_argument("--no-connectivity", action="store_true")
    p.add_argument("--solution", required=True, help="file of 'name value' lines")
    p.set_defaults(func=_cmd_import_sol)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
