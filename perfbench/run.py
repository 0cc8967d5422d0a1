"""lumharch solve benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload nsf-deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/lumharch``.  Each run
starts workload processes (``perfbench/worker.py``) with BLAS pinned to one
thread and ``src`` on the path, and drives the public batch entry point
``lumharch.cli.run_experiment`` in a closed loop: passes of the same batch,
one after the other, until ``--seconds`` would be exceeded.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` prints per-layer metrics from a traced pass, with the
tracing overhead against an untraced pass of the same batch.

Every run checks its outputs and exits 1 with ``"correct": false`` if any
check fails:

* every solve ends ``Optimal``, and its objective, total cost and
  wavelength count match HiGHS (``scipy.optimize.milp``) on the same model;
* deterministic fields (status, nodes, LP iterations, the CSV without its
  ``ms`` column) are identical across passes and, for the thread-pool
  workload, between its 2-thread and 1-thread passes;
* with ``--trace 1``: solve_lp calls equal nodes_explored, pivots equal
  lp_iterations (on the workload and on fig3/fig5), and every wrapped
  name is restored afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Seed 1 is the
baseline seed and seed 7 the held-out seed (see workloads.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10

LAYER_UNITS = {
    "simplex.lp_calls": "count",
    "simplex.pivots": "count",
    "simplex.root_pivots_per_call": "count",
    "simplex.child_pivots_per_call": "count",
    "simplex.lp_s": "s",
    "simplex.pivots_per_s": "1/s",
    "simplex.infeasible_calls": "count",
    "simplex.errors": "count",
    "simplex.form_s": "s",
    "simplex.form_rows": "count",
    "simplex.form_cols": "count",
    "simplex.form_nnz": "count",
    "simplex.bytes_per_pivot_computed": "B",
    "solver.solves": "count",
    "solver.bb_nodes": "count",
    "solver.root_gap": "ratio",
    "solver.self_s": "s",
    "model.build_s": "s",
    "model.rows": "count",
    "model.cols": "count",
    "model.nnz": "count",
    "model.verify_s": "s",
    "flow.candidates": "count",
    "flow.rejects": "count",
    "flow.accept_ratio": "ratio",
    "flow.s": "s",
    "hierarchy.validate_s": "s",
    "hierarchy.cps_s": "s",
    "network.load_s": "s",
    "network.sessions_s": "s",
    "cli.self_s": "s",
    "cli.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "ref.highs_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run at all (no result is printed)."""


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_worker(role: str, args: argparse.Namespace) -> tuple[float, dict | None]:
    """Start a workload process; returns (process start to READY in s, its result)."""
    cmd = [sys.executable, str(WORKER), "--role", role, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} worker did not finish within {WORKER_TIMEOUT_S}s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{role} worker failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if role != "setup" else None)


def environment() -> dict[str, str]:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lumharch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": str(os.cpu_count()),
        "affinity_cpus": str(len(os.sched_getaffinity(0))),
        "worker_threads_env": " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def strip_ms(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def check_outputs(result: dict, cfg, net, sessions) -> tuple[list[str], int, int, float]:
    """Correctness checks shared by both modes; returns (problems, attempted, failed, HiGHS s)."""
    from lumharch.model import Mode, build_model
    from lumharch.network import make_session
    from reference import highs_optimum

    problems = []
    if result.get("error"):
        problems.append("worker raised:\n" + result["error"])
    passes = result["passes"]
    expected = len(cfg.modes) * len(sessions)
    attempted = failed = 0
    for i, p in enumerate(passes):
        attempted += expected
        failed += expected - sum(1 for s in p["solves"] if s[2] == "Optimal")
        problems += [f"pass {i}: {name} not restored" for name in p["restore_broken"]]
        if (p["solves"], strip_ms(p["csv"])) != (passes[0]["solves"], strip_ms(passes[0]["csv"])):
            problems.append(f"pass {i} ({p['threads']} threads) differs from pass 0 in a deterministic field")
    if result.get("error"):  # the pass that raised
        attempted += expected
        failed += expected
    highs_s = 0.0
    if passes:
        distinct = {(s[0], s[1]): s for s in passes[0]["solves"]}
        for key, mode, status, objective, cost, waves, _, _ in distinct.values():
            source, dests = key.split(">")
            model = build_model(net, make_session(net, source, dests.split(",")), mode=Mode(mode))
            ref, seconds = highs_optimum(model)
            highs_s += seconds
            ours = (objective, cost, waves) if status == "Optimal" else None
            if ours != ref:
                problems.append(f"{key} {mode}: lumharch {status} {ours}, HiGHS {ref}")
    return problems, attempted, failed, highs_s


def end_to_end(result: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    passes = result["passes"]
    rates = [sum(1 for s in p["solves"] if s[2] == "Optimal") / p["wall"] for p in passes]
    solve_s = [int(line.rsplit(",", 1)[1]) / 1000.0 for p in passes for line in p["csv"].splitlines()[1:]]
    # Passes repeat the same solves, so the tail percentile is set by the
    # distinct solves of one pass; otherwise it would jump with the pass count.
    n = len(passes[0]["solves"])
    q = max(0.5, 1.0 - TAIL_BEYOND / n)
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    print(f"passes: {len(passes)}, wall s: {walls}")
    print(f"solve_s.tail: p{q * 100:.1f}, {n} solves a pass, {len(solve_s)} samples"
          + (" (fewer than 20 solves a pass, so the median)" if n < 2 * TAIL_BEYOND else ""))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solves_per_s": (statistics.median(rates), "1/s"),
        "solve_s.p50": (statistics.median(solve_s), "s"),
        "solve_s.tail": (percentile(solve_s, q), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict, wl, highs_s: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    problems = []
    for rec in (result.get("reconcile"), result.get("reconcile_small")):
        if rec is None:
            problems.append("trace reconciliation did not run")
            continue
        problems += rec["problems"]
        problems += [f"not restored: {name}" for name in rec.get("restore_broken", [])]
        if rec["simplex_error_solves"]:
            print(f"solves with a SimplexError (reconciled separately): {rec['simplex_error_solves']}")
    own = [p for p in result["passes"] if p["threads"] == wl.threads]
    traced = [p["wall"] for p in own if p["traced"]]
    untraced = [p["wall"] for p in own if not p["traced"]]
    metrics = {k: statistics.median(run[k] for run in result["layers"]) for k in result["layers"][0]}
    metrics["cli.parallel_efficiency"] = statistics.median(
        p["solve_cpu_s"] / (p["wall"] * wl.threads) for p in own if not p["traced"])
    one = [p["wall"] for p in result["passes"] if p["threads"] == 1 and not p["traced"]]
    if wl.threads > 1 and one:
        print(f"cli speed-up over 1 thread: {statistics.median(one) / statistics.median(untraced):.3f}x")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
    metrics["ref.highs_s"] = highs_s
    print(f"solves per traced pass: {metrics.pop('solver.solves')}")
    return {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lumharch" / "__init__.py").is_file():
        print(f"error: no lumharch sources under {ROOT / 'src'}; run inside a lumharch checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    wl = WORKLOADS[args.workload]

    try:
        # Set-up samples before and after the timed process, so a slow spell
        # of the host (they last 10-20 s here) does not set the median.
        setups = [run_worker("setup", args)[0] for _ in range(SETUP_SAMPLES // 2)]
        main_setup, result = run_worker("trace" if args.trace else "measure", args)
        setups += [main_setup] + [run_worker("setup", args)[0] for _ in range(SETUP_SAMPLES // 2)]
        cfg, net, sessions = make_inputs(wl, args.seed)
        problems, attempted, failed, highs_s = check_outputs(result, cfg, net, sessions)
        for key, value in environment().items():
            print(f"env.{key}: {value}")
        print(f"workload: {wl.name}, seed {args.seed}, {wl.threads} thread(s), "
              f"{len(cfg.modes) * len(sessions)} solves per pass")
        print(f"ref.highs_s = {highs_s:.4f} s (HiGHS on every distinct model; yardstick, not gated)")
        print(f"failed_fraction = {failed / attempted:.4f} ratio ({failed}/{attempted})")
        if result.get("error"):
            metrics = {}
        elif args.trace:
            metrics, trace_problems = per_layer(result, wl, highs_s)
            problems += trace_problems
        else:
            metrics = end_to_end(result, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
