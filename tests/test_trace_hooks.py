"""The benchmark's trace hooks (``perfbench/layers.py``) wrap lumharch names
where their callers look them up; a renamed one must fail here, not only
in a traced benchmark run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_wrap_restore_and_reconcile(monkeypatch):
    # run_pass sets LUMHARCH_THREADS; setenv puts the caller's value back.
    monkeypatch.setenv("LUMHARCH_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    # The benchmark's modules have generic names: keep them out of sys.modules.
    for path in PERFBENCH.glob("*.py"):
        sys.modules.pop(path.stem, None)

    tracer = worker.layers.Tracer()
    worker.layers.instrument(tracer)
    assert tracer.restore() == []

    small = worker.reconcile_small()
    assert small == {"problems": [], "simplex_error_solves": [], "restore_broken": []}
