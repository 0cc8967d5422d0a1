"""The benchmark's workloads and the inputs each one makes from its seed.

A workload is one batch configuration, run as repeated passes of
``lumharch.cli.run_experiment`` on the same inputs.  Two kinds:

* seeded (``session_count``): the seed is the session generator's seed,
  so each seed draws its own uniform sessions.  Used where solves are
  cheap and alike (root-only), so one pass of a few dozen sessions gives
  the same figures whatever the seed.
* fixed (``baseline_sessions``): named sessions of the generator's list
  at ``BASELINE_SEED``, the same for every seed.  Used where B&B is deep.
  There, one session takes 0.1 s to 40 s, and a run holds only a handful
  of deep solves, so seeded draws (or seeded reorderings of the topology,
  which change the branching path) move solves per second by 30 % from
  seed to seed, far more than any change worth detecting.  Claims about
  deep search must therefore also hold on nsf-root's held-out seed, where
  they should predict no change.
"""

from __future__ import annotations

from dataclasses import dataclass

from lumharch.cli import ExperimentConfig, generate_sessions
from lumharch.model import Mode
from lumharch.network import builtin_topology

BASELINE_SEED = 1
# Never used while the benchmark was tuned: re-check claims on it.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    group_size: int
    threads: int
    splitters: tuple[str, ...] = ()
    session_count: int = 0
    baseline_sessions: tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # Deep B&B: 9-23 nodes per solve, about 10 s a pass.  Sessions 1-2
        # close at the root; session 0 (71 and 41 nodes, 25 s) alone would
        # fill a run.
        Workload("nsf-deep", "nsf", group_size=3, threads=1, baseline_sessions=(3, 4)),
        # |D|=1: the flow link F <= |D|.L is tight and every solve closes at
        # the root: one cold two-phase LP plus build and verification.  The
        # control for node-count and warm-start changes.
        Workload("nsf-root", "nsf", group_size=1, threads=1, session_count=70),
        # The only workload on the cli thread pool, with MC splitters; 1-21
        # nodes per solve.  The other five of the first twelve sessions
        # (19-83 nodes, 12-41 s a session on one thread) are left out so a
        # pass stays near 10 s.
        Workload(
            "cost239-batch-2t",
            "cost239",
            group_size=3,
            threads=2,
            splitters=("3", "8"),
            baseline_sessions=(0, 1, 2, 4, 5, 9, 11),
        ),
    )
}


def make_inputs(wl: Workload, seed: int):
    """The batch config one pass runs, its network and its sessions in id order."""
    net = builtin_topology(wl.topology, splitters=wl.splitters or None)
    if wl.baseline_sessions:
        pool = generate_sessions(net, wl.group_size, max(wl.baseline_sessions) + 1, BASELINE_SEED)
        sessions = [pool[i] for i in wl.baseline_sessions]
    else:
        sessions = generate_sessions(net, wl.group_size, wl.session_count, seed)
    cfg = ExperimentConfig(
        topology=wl.topology,
        splitters=wl.splitters,
        group_size=wl.group_size,
        session_count=len(sessions),
        seed=seed,
        modes=(Mode.LH, Mode.LT),
        timing=True,
        forced_sessions=tuple(sessions) if wl.baseline_sessions else None,
    )
    return cfg, net, sessions
