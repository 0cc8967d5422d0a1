"""One workload process: set up, run timed passes, print one JSON line.

Run by ``perfbench/run.py`` with BLAS threads pinned and ``src`` on the
path; not meant to be started by hand.  Each pass sets ``LUMHARCH_THREADS``
to the workload's thread count, which ``run_experiment`` reads.  Roles:

* ``setup``: import lumharch, load the topology, make the sessions, print
  ``READY`` and exit.  The parent times process start to ``READY``.
* ``measure``: after ``READY``, untraced passes of the workload's batch
  until ``--seconds`` would be exceeded (at least one pass).
* ``trace``: one untraced and one traced pass of the same batch (more
  pairs while they fit), a 1-thread pass for thread-pool workloads, and
  the trace reconciliation on fig3/fig5.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lumharch  # noqa: E402
import lumharch.cli  # noqa: E402
from lumharch.model import Mode  # noqa: E402
from lumharch.network import builtin_topology, make_session  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def solve_summary(model, report) -> list:
    return [
        layers.session_key(model.net, model.session),
        model.mode.value,
        report.status.value,
        report.objective,
        report.total_cost,
        report.wavelength_count,
        report.nodes_explored,
        report.lp_iterations,
    ]


def run_pass(cfg, threads: int, tracer=None) -> dict:
    """One run_experiment call; records every SolveReport it produces and
    the thread CPU time of each solve call."""
    solves: list[list] = []
    cpu: list[float] = []
    original = lumharch.cli.solve

    def recorded(model, opts=None):
        c0 = time.thread_time()
        report = original(model, opts)
        cpu.append(time.thread_time() - c0)
        solves.append(solve_summary(model, report))
        return report

    os.environ["LUMHARCH_THREADS"] = str(threads)
    lumharch.cli.solve = recorded
    if tracer is not None:
        layers.instrument(tracer)
    try:
        t0 = time.perf_counter()
        _, csv_text = lumharch.cli.run_experiment(cfg)
        wall = time.perf_counter() - t0
    finally:
        broken = tracer.restore() if tracer is not None else []
        lumharch.cli.solve = original
    if lumharch.cli.solve is not original:
        broken.append("lumharch.cli.solve")
    solves.sort(key=lambda s: (s[0], s[1]))
    return {"wall": wall, "threads": threads, "traced": tracer is not None, "csv": csv_text,
            "solves": solves, "solve_cpu_s": sum(cpu), "restore_broken": broken}


def reconcile_small() -> dict:
    """Traced fig3/fig5 batches, reconciled against their SolveReports."""
    out = {"problems": [], "simplex_error_solves": [], "restore_broken": []}
    cases = (("fig3", "s", ("d1", "d2")), ("fig5", "s", ("d1", "d2", "d3")), ("fig5", "d2", ("s", "d3")))
    for topo, source, dests in cases:
        ms = make_session(builtin_topology(topo), source, dests)
        cfg = lumharch.cli.ExperimentConfig(topology=topo, group_size=len(dests), session_count=1,
                                            modes=(Mode.LH, Mode.LT), forced_sessions=(ms,))
        tracer = layers.Tracer()
        p = run_pass(cfg, 1, tracer)
        rec = layers.reconcile(tracer.spans)
        out["problems"] += [f"{topo}: {x}" for x in rec["problems"]]
        out["simplex_error_solves"] += rec["simplex_error_solves"]
        out["restore_broken"] += p["restore_broken"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    if Path(lumharch.__file__).resolve().parent != ROOT / "src" / "lumharch":
        print(f"lumharch imported from {lumharch.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg, _, _ = make_inputs(wl, args.seed)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    result: dict = {"passes": [], "error": None}
    start = time.perf_counter()
    try:
        if args.role == "measure":
            while True:
                p = run_pass(cfg, wl.threads)
                result["passes"].append(p)
                if time.perf_counter() - start + p["wall"] > args.seconds:
                    break
        else:
            traced_layers = []
            while True:
                result["passes"].append(run_pass(cfg, wl.threads))
                tracer = layers.Tracer()
                p = run_pass(cfg, wl.threads, tracer)
                result["passes"].append(p)
                traced_layers.append(layers.layer_metrics(tracer.spans))
                result.setdefault("reconcile", layers.reconcile(tracer.spans))
                pair = result["passes"][-1]["wall"] + result["passes"][-2]["wall"]
                if time.perf_counter() - start + pair > args.seconds:
                    break
            result["layers"] = traced_layers
            if wl.threads > 1:
                result["passes"].append(run_pass(cfg, 1))
            result["reconcile_small"] = reconcile_small()
    except Exception:  # reported to the parent, which fails the run
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
