"""Shared helpers for the three benchmark scripts CI runs.

``bench_engine.py``, ``bench_scale.py`` and ``bench_degraded.py`` record
their measurements in a repo-root perf ledger (:func:`record_bench`) and
write their plain-text reports to ``benchmarks/output/``
(:func:`write_report`).  The paper-vs-measured tables are not here: each
is a sweep spec under ``examples/specs/figures/`` beside the committed
table ``repro-gossip sweep --spec`` prints for it.
"""

from __future__ import annotations

import json
import subprocess
from datetime import date
from pathlib import Path

from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.graphs.dynamic import StaticDynamicGraph

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Machine-readable perf ledger at the repo root: bench_engine's
#: throughput measurements merge one entry each here, so successive
#: commits can diff rounds/s instead of re-reading prose reports.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def write_report(name: str, text: str) -> Path:
    """Persist a bench report under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def _provenance() -> dict:
    """Git revision + ISO date stamped onto every ledger entry, so the
    perf trajectory is comparable across PRs (which rev produced which
    number, and when)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_JSON_PATH.parent, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
        if rev != "unknown":
            dirty = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=BENCH_JSON_PATH.parent, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip()
            if dirty:
                # Numbers from uncommitted code must not be attributed
                # to the commit they happen to sit on.
                rev += "-dirty"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git_rev": rev, "date": date.today().isoformat()}


class DirtyTreeError(RuntimeError):
    """The working tree is dirty, so a ledger entry would lie.

    A perf number recorded under rev ``abc1234`` while uncommitted edits
    are loaded is attributed to code that never existed at that commit —
    exactly the kind of silent trajectory corruption the ledgers exist
    to prevent.  Benchmarks accept ``--allow-dirty`` (and the helpers an
    ``allow_dirty=True``) for local experimentation; the recorded rev
    then keeps its ``-dirty`` suffix so the entry is self-describing.
    """


def record_bench(
    name: str, payload: dict, allow_dirty: bool = False, path=None
) -> Path:
    """Merge one named entry into a repo-root perf ledger.

    Read-modify-write keyed by ``name``: re-running one bench refreshes
    its entry without clobbering the others, so the file accumulates the
    whole suite's trajectory.  Entries are stamped with the producing
    git revision and ISO date; a dirty working tree is **refused**
    (:class:`DirtyTreeError`) unless ``allow_dirty`` is set, because a
    dirty-tree number cannot be attributed to any commit.  ``path``
    selects the ledger (default ``BENCH_engine.json``; bench_scale
    writes ``BENCH_scale.json``).  A corrupt ledger degrades to a fresh
    one.
    """
    path = Path(path) if path is not None else BENCH_JSON_PATH
    stamp = _provenance()
    if stamp["git_rev"].endswith("-dirty") and not allow_dirty:
        raise DirtyTreeError(
            f"refusing to record {name!r} in {path.name}: the working "
            f"tree is dirty (rev {stamp['git_rev']}).  Commit first, or "
            "pass --allow-dirty / allow_dirty=True to record anyway "
            "(the entry keeps its -dirty rev)."
        )
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
        if not isinstance(data, dict):
            data = {}
    data[name] = dict(payload, **stamp)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    return path


def gossip_rounds(
    algorithm: str, dynamic_graph, n: int, k: int, seed: int,
    max_rounds: int,
) -> int:
    """Run one gossip execution and return its round count (must solve)."""
    result = run_gossip(
        algorithm, dynamic_graph, uniform_instance(n=n, k=k, seed=seed),
        seed=seed, max_rounds=max_rounds, trace_sample_every=1024,
    )
    assert result.solved, (
        f"{algorithm} did not solve within {max_rounds} rounds "
        f"(n={n}, k={k}, seed={seed})"
    )
    return result.rounds


def static_graph(topo) -> StaticDynamicGraph:
    return StaticDynamicGraph(topo)
