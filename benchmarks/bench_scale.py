"""BENCH_scale: the million-node trajectory (rounds/s, RSS, bytes/node).

Each cell of (algorithm x graph x n) runs in its **own subprocess**, so
``ru_maxrss`` — which is monotonic per process — measures that cell
alone: the worker notes its post-import baseline RSS, builds the graph
and node population, runs a fixed round budget on the array engine, and
reports

* ``rounds_per_s``   — simulation-only throughput (build excluded),
* ``build_s``        — graph + population + engine construction, also
  split as ``build_graph_s`` / ``build_population_s`` / ``engine_init_s``,
* ``peak_rss_mb``    — the process high-water mark,
* ``bytes_per_node`` — (peak - post-import baseline) / n, the whole
  simulation's marginal footprint per node,
* ``collector``      — per gc generation, the collections during the
  measured rounds and their seconds (a ``gc.callbacks`` start/stop
  pair each), printed beside ``round.resolve``, the span that a full
  collection lands in at 10^6.

The grid is 2 algorithms (sharedbit, blindmatch) x 2 graphs (static
ring-expander built straight to CSR; geometric random-waypoint mobility
with ``bridge=False``) x 3 sizes (10^4, 10^5, 10^6), plus one
acceptance cell: the n = 10^6 sharedbit static run routed through
``run_sweep(stream_to=...)`` — the sharded streaming path a real
million-node sweep would use.  Results land in the repo-root
``BENCH_scale.json`` (rev + date stamped; a dirty tree is refused
without ``--allow-dirty``).

``--quick`` is the CI gate: the spatial-grid-vs-blocked-sweep identity,
streamed-vs-in-memory sweep aggregation identity (byte-compared
``to_json``), an n = 10^5 sharedbit sanity run under the streamed
path that must build its population around one shared Transfer protocol
and prints the build split, and an n = 10^5 BlindMatch expander run of
16 rounds that prints ``round.stage3`` and fails unless stage 3 settled
at least 90 % of its connections by row.  No ledger writes.  (int32 CSR
== int64 is the golden corpus's "int64 CSR" variant row.)

Round budgets shrink as n grows (64 / 16 / 4): the point is steady-state
per-round cost and footprint, not solving gossip at 10^6.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _common import record_bench

#: The scale ledger (separate from BENCH_engine.json: these rows track
#: the n-trajectory, not per-optimization speedups).
SCALE_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

SIZES = (10_000, 100_000, 1_000_000)
ROUNDS = {10_000: 64, 100_000: 16, 1_000_000: 4}
ALGORITHMS = ("sharedbit", "blindmatch")
GRAPHS = ("expander", "geometric")
SEED = 11
GRAPH_SEED = 1
TOKENS_K = 1
CASE_TIMEOUT_S = 3600


def _geometric_radius(n: int) -> float:
    """Unit-disk radius giving mean degree ~12 at density n (pi r^2 n)."""
    return math.sqrt(12.0 / (math.pi * n))


def _build_graph(graph: str, n: int, rounds: int):
    from repro.graphs.dynamic import (
        GeometricMobilityGraph,
        ring_expander_graph,
    )

    if graph == "expander":
        return ring_expander_graph(n, degree=6, seed=GRAPH_SEED)
    if graph == "geometric":
        # tau = the whole budget: one epoch, one grid edge build; the
        # mobility cost is charged to build, the gossip cost to run.
        return GeometricMobilityGraph(
            n=n, radius=_geometric_radius(n), step=0.05, tau=rounds,
            seed=GRAPH_SEED, bridge=False,
        )
    raise ValueError(f"unknown graph kind {graph!r}")


def _streamed_payload(n: int, rounds: int) -> dict:
    return {
        "algorithm": "sharedbit",
        "graph": {
            "family": "ring_expander",
            "params": {"n": n, "degree": 6, "seed": GRAPH_SEED},
        },
        "dynamic": {"kind": "static"},
        "instance": {"kind": "uniform", "k": TOKENS_K},
        "max_rounds": rounds,
        "engine": {
            "trace_sample_every": 1024,
            "trace_max_records": 64,
            "termination_every": rounds,
        },
    }


def _rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _collector_clock():
    """A ``gc.callbacks`` hook timing each collection from its start to
    its stop, and the per-generation totals it fills."""
    totals = {f"gen{gen}": {"collections": 0, "seconds": 0.0}
              for gen in range(3)}
    started = [0.0]

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
            return
        entry = totals[f"gen{info['generation']}"]
        entry["collections"] += 1
        entry["seconds"] += time.perf_counter() - started[0]

    return callback, totals


def _measure_direct(case: dict) -> dict:
    """One (algorithm, graph, n) cell: direct array-engine execution.

    Runs with telemetry enabled so each cell also reports *where* its
    rounds went (the ``phases`` breakdown: CSR binds vs stages vs
    resolution).  Telemetry is trace-byte-identical and its cost is
    gated under 5% by bench_engine.py, so the trajectory numbers stay
    comparable to earlier telemetry-free revisions.
    """
    baseline_kb = _rss_kb()
    n, rounds = case["n"], case["rounds"]

    from repro.core.problem import uniform_instance
    from repro.core.runner import build_nodes
    from repro.registry import ALGORITHM_REGISTRY
    from repro.sim.channel import ChannelPolicy
    from repro.sim.engine import Simulation, settled_connections

    build_started = time.perf_counter()
    graph = _build_graph(case["graph"], n, rounds)
    # The mobility mesh builds its edges lazily, on the first csr_at:
    # charge that to the graph build, not to round 1.
    graph.csr_at(1)
    graph_done = time.perf_counter()
    instance = uniform_instance(n=n, k=TOKENS_K, seed=SEED)
    nodes = build_nodes(case["algorithm"], instance, seed=SEED)
    population_done = time.perf_counter()
    defn = ALGORITHM_REGISTRY.get(case["algorithm"])
    sim = Simulation(
        graph, nodes,
        b=defn.resolve_tag_length(defn.make_config()),
        seed=SEED,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        trace_sample_every=1024,
        trace_max_records=64,
        engine_mode="array",
        telemetry=True,
    )
    engine_done = time.perf_counter()
    build_s = engine_done - build_started

    callback, collector = _collector_clock()
    gc.callbacks.append(callback)
    run_started = time.perf_counter()
    try:
        sim.run(max_rounds=rounds)
        run_s = time.perf_counter() - run_started
    finally:
        gc.callbacks.remove(callback)

    peak_kb = _rss_kb()
    return {
        "n": n,
        "rounds": rounds,
        "engine_mode": "array",
        "build_s": round(build_s, 3),
        "build_graph_s": round(graph_done - build_started, 3),
        "build_population_s": round(population_done - graph_done, 3),
        "engine_init_s": round(engine_done - population_done, 3),
        "run_s": round(run_s, 3),
        "rounds_per_s": round(rounds / run_s, 2) if run_s > 0 else None,
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "bytes_per_node": int((peak_kb - baseline_kb) * 1024 / n),
        "total_connections": sim.trace.total_connections,
        "settled_connections": settled_connections(sim.telemetry.metrics),
        "phases": _rounded_phases(sim.telemetry.profile()),
        "collector": {
            gen: {"collections": entry["collections"],
                  "seconds": round(entry["seconds"], 4)}
            for gen, entry in collector.items()
        },
    }


def _rounded_phases(profile: dict) -> dict:
    return {
        name: {"calls": entry["calls"],
               "seconds": round(entry["seconds"], 4)}
        for name, entry in profile.items()
    }


def _measure_streamed(case: dict) -> dict:
    """The acceptance cell: sharedbit static at n through the sharded
    streaming sweep path (``run_sweep(stream_to=...)``).

    Telemetry is on, so the row's ``phases`` carry the build split
    (``build.population`` / ``build.engine``) next to the round phases,
    and the sweep runs inline (``jobs=1``), so counting
    ``TransferProtocol`` constructions from here shows whether the
    population shared one.
    """
    baseline_kb = _rss_kb()
    n, rounds = case["n"], case["rounds"]

    from repro.commcplx.transfer import TransferProtocol
    from repro.experiments import SweepSpec, run_sweep

    spec = SweepSpec(
        name=f"scale-stream-n{n}",
        base={**_streamed_payload(n, rounds),
              "telemetry": {"enabled": True}},
        seeds=(SEED,),
    )
    stream_dir = Path(tempfile.mkdtemp(prefix="bench-scale-stream-"))
    protocols_built = 0
    protocol_init = TransferProtocol.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal protocols_built
        protocols_built += 1
        protocol_init(self, *args, **kwargs)

    TransferProtocol.__init__ = counting_init
    started = time.perf_counter()
    try:
        result = run_sweep(spec, stream_to=stream_dir)
    finally:
        TransferProtocol.__init__ = protocol_init
    elapsed = time.perf_counter() - started

    summary = result.points[0]
    peak_kb = _rss_kb()
    return {
        "n": n,
        "rounds": summary.rounds[0],
        "streamed": True,
        "shards_sealed": (stream_dir / "index.json").exists(),
        "elapsed_s": round(elapsed, 3),
        "rounds_per_s_incl_build": round(summary.rounds[0] / elapsed, 2)
        if elapsed > 0 else None,
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "bytes_per_node": int((peak_kb - baseline_kb) * 1024 / n),
        "transfer_protocols_built": protocols_built,
        "phases": _rounded_phases(result.phase_totals()),
    }


def _worker(case_json: str, out_path: str) -> int:
    case = json.loads(case_json)
    measure = (
        _measure_streamed if case.get("streamed") else _measure_direct
    )
    row = measure(case)
    Path(out_path).write_text(json.dumps(row))
    return 0


def _run_case_subprocess(case: dict) -> dict:
    """Run one cell in a fresh interpreter so ru_maxrss isolates it."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as out:
        out_path = out.name
    try:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--worker", json.dumps(case), "--worker-out", out_path],
            timeout=CASE_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"scale worker failed (exit {completed.returncode}) "
                f"for case {case}"
            )
        return json.loads(Path(out_path).read_text())
    finally:
        Path(out_path).unlink(missing_ok=True)


def _resolve_and_collector(row: dict) -> str:
    """A direct row's ``round.resolve`` time beside its collector time
    per generation."""
    resolve = row["phases"]["round.resolve"]["seconds"]
    collector = ", ".join(
        f"{gen} {entry['collections']}x {entry['seconds']:.3f}s"
        for gen, entry in row["collector"].items()
    )
    return f"round.resolve {resolve:.3f}s; collector {collector}"


def _case_label(case: dict) -> str:
    kind = "stream" if case.get("streamed") else case["graph"]
    return f"alg={case['algorithm']},graph={kind},n={case['n']}"


def run_quick() -> int:
    """The CI gate: identities + n=10^5 streamed and stage-3 sanity
    runs."""
    from repro.experiments import SweepSpec, run_sweep
    from repro.experiments.fastpath import check_grid_identity

    print("checking spatial grid + fused CSR vs blocked sweep ...",
          flush=True)
    failures = check_grid_identity()

    print("checking streamed vs in-memory sweep aggregation ...",
          flush=True)
    spec = SweepSpec(
        name="scale-quick-identity",
        base=_streamed_payload(64, 12),
        grid={"instance.k": [1, 2]},
        seeds=(11, 23),
    )
    in_memory = run_sweep(spec)
    stream_dir = Path(tempfile.mkdtemp(prefix="bench-scale-quick-"))
    streamed = run_sweep(spec, stream_to=stream_dir)
    if in_memory.to_json() != streamed.to_json():
        failures.append(
            "streamed sweep aggregation diverged from the in-memory path"
        )

    for failure in failures:
        print(f"DIVERGENCE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("scale identities ok (grid edges, streamed sweeps)")

    n, rounds = 100_000, 2
    print(f"streamed sanity run: sharedbit expander n={n} ...", flush=True)
    row = _measure_streamed({"n": n, "rounds": rounds, "streamed": True,
                             "algorithm": "sharedbit"})
    if row["rounds"] < 1 or not row["shards_sealed"]:
        print(f"FAIL: streamed sanity run did not complete: {row}",
              file=sys.stderr)
        return 1
    if row["transfer_protocols_built"] != 1:
        print("FAIL: the population should share one Transfer protocol, "
              f"built {row['transfer_protocols_built']}", file=sys.stderr)
        return 1
    phases = row["phases"]
    print(
        f"streamed sanity ok: {row['rounds']} rounds in "
        f"{row['elapsed_s']:.1f}s, peak {row['peak_rss_mb']:.0f} MB "
        f"({row['bytes_per_node']} bytes/node); one shared Transfer "
        f"protocol; build.population "
        f"{phases['build.population']['seconds']:.2f}s, build.engine "
        f"{phases['build.engine']['seconds']:.2f}s, run.total "
        f"{phases['run.total']['seconds']:.2f}s"
    )
    return _settle_sanity()


def _settle_sanity(n: int = 100_000, rounds: int = 16) -> int:
    """BlindMatch on the expander at n: most connections join equal
    sets, and stage 3 must settle them by row — a run that quietly
    meters them over channels fails."""
    print(f"stage-3 sanity run: blindmatch expander n={n} ...", flush=True)
    row = _measure_direct({"algorithm": "blindmatch", "graph": "expander",
                           "n": n, "rounds": rounds})
    settled = row["settled_connections"]
    total = row["total_connections"]
    share = settled / total if total else 0.0
    print(
        f"stage-3 sanity: {row['rounds_per_s']} rounds/s, round.stage3 "
        f"{row['phases']['round.stage3']['seconds']:.2f}s over {rounds} "
        f"rounds; {settled} of {total} connections ({100 * share:.1f}%) "
        "settled by row"
    )
    print(f"stage-3 sanity: {_resolve_and_collector(row)}")
    if share < 0.9:
        print("FAIL: under 90% of connections settled by row",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: scale identities + n=10^5 streamed and stage-3 "
             "sanity runs; does not touch BENCH_scale.json",
    )
    parser.add_argument(
        "--max-n", type=int, default=max(SIZES),
        help="cap the trajectory at this n (development shortcut)",
    )
    parser.add_argument(
        "--allow-dirty", action="store_true",
        help="record BENCH_scale.json even from a dirty working tree",
    )
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--worker-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return _worker(args.worker, args.worker_out)
    if args.quick:
        return run_quick()

    sizes = tuple(n for n in SIZES if n <= args.max_n)
    cases = [
        {"algorithm": algorithm, "graph": graph, "n": n,
         "rounds": ROUNDS[n]}
        for n in sizes
        for graph in GRAPHS
        for algorithm in ALGORITHMS
    ]
    big = max(sizes)
    cases.append({"algorithm": "sharedbit", "n": big,
                  "rounds": ROUNDS[big], "streamed": True})

    rows: dict[str, dict] = {}
    for case in cases:
        label = _case_label(case)
        print(f"[{len(rows) + 1}/{len(cases)}] {label} ...", flush=True)
        row = _run_case_subprocess(case)
        rows[label] = row
        rate = row.get("rounds_per_s") or row.get("rounds_per_s_incl_build")
        print(
            f"    {row['rounds']} rounds, {rate} rounds/s, peak "
            f"{row['peak_rss_mb']:.0f} MB, {row['bytes_per_node']} "
            "bytes/node",
            flush=True,
        )
        if "collector" in row:
            print(f"    {_resolve_and_collector(row)}", flush=True)

    path = record_bench(
        "scale:trajectory",
        {
            "kind": "scale-trajectory",
            "k": TOKENS_K,
            "seed": SEED,
            "rows": rows,
        },
        allow_dirty=args.allow_dirty,
        path=SCALE_JSON_PATH,
    )
    print(f"recorded {path.name} ({len(rows)} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
