"""ENG-HOT / ENG-ARRAY: engine round-throughput and the array fast path.

Two engine generations are tracked here:

* **ENG-HOT** (PR 1): per-epoch NeighborView skeleton cache — ``propose``
  receives the *same tuple object* across rounds of an epoch when tags
  are stable (asserted below), ~2.3x over the seed engine.
* **ENG-ARRAY** (this PR): the flat-array fast path — per-epoch CSR
  adjacency snapshots (``DynamicGraph.csr_at``), bulk
  ``advertise_all``/``propose_all`` protocol hooks, and the array
  proposal resolver.  The contract is byte-identical traces against the
  object path (the object/array classes of the golden corpus,
  tests/test_golden_traces.py), with throughput measured by
  :func:`run_engine_bench` and recorded in the repo-root
  ``BENCH_engine.json``.

Where the speedup lives: SharedBit's scan stage re-derives each token's
shared PRF bit per (node, token) pair on the object path; the bulk hook
derives each distinct token's bit once per round and shares it — >=3x at
n = 2000 (the acceptance bar), growing with n·k.  BlindMatch is bounded
by its n private Mersenne draws per round (byte-identity forbids
batching those), so its gain is the engine overhead only (~1.5x).

The ASYNC rows track the event-driven engine (jitter(0.5), star):
``sharedbit_async_jitter`` prices the window executor fed by the scalar
hooks (``engine_mode="object"``) against the object engine, and
``sharedbit_async_jitter_batched`` prices it fed by SharedBit's window
hooks (``engine_mode="array"``) against the *array* engine — the
``async_over_sync_array`` ratio is the tracked gap (bar: >= 0.5x at
n = 2000), ``batched_over_event`` the window hooks' speedup over the
scalar hooks.  That window hooks are
byte-identical to the scalar hooks is a corpus class, not a gate here.

Run directly for the CI probes / perf ledger::

    python benchmarks/bench_engine.py --quick   # throughput + overhead probes
    python benchmarks/bench_engine.py           # full rows, BENCH_engine.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.asynchrony import AsyncSimulation, UniformJitter
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import star
from repro.registry import ALGORITHM_REGISTRY
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import SleepCycle
from repro.sim.termination import all_hold_tokens

from _common import gossip_rounds, record_bench, static_graph, write_report

N = 64


def _blind_static_run(seed: int) -> int:
    return gossip_rounds(
        "blindmatch", static_graph(star(N)), n=N, k=2, seed=seed,
        max_rounds=400_000,
    )


# --------------------------------------------------------------------------
# Throughput: object vs array rounds/s on the hot paths.

def measure_throughput(algorithm: str, n: int, k: int, rounds: int,
                       engine_mode: str, seed: int = 11,
                       fault=None, telemetry=None) -> float:
    """rounds/s for a fixed-round run on the static-star hot path."""
    instance = uniform_instance(n=n, k=k, seed=seed)
    nodes = build_nodes(algorithm, instance, seed=seed)
    defn = ALGORITHM_REGISTRY.get(algorithm)
    sim = Simulation(
        StaticDynamicGraph(star(n)), nodes,
        b=defn.resolve_tag_length(defn.make_config()), seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        trace_sample_every=1024, engine_mode=engine_mode,
        faults=fault(n, seed) if fault is not None else None,
        telemetry=telemetry,
    )
    started = time.perf_counter()
    sim.run(max_rounds=rounds)
    return rounds / (time.perf_counter() - started)


def measure_telemetry_overhead(n: int, rounds: int,
                               repeats: int = 8) -> tuple[float, float]:
    """(off, on) rounds/s for telemetry disabled vs enabled.

    ``repeats`` *interleaved* off/on pairs, best of each side: the OBS
    bar compares the two paths' speed, not the scheduler's mood, and
    alternating the sides makes slow drift (thermal, noisy neighbors)
    hit both equally instead of biasing whichever ran second.
    Sharedbit on the array engine — the hottest path, where fixed
    per-round span cost is the largest relative burden.
    """
    offs, ons = [], []
    for _ in range(repeats):
        offs.append(measure_throughput("sharedbit", n, 2, rounds, "array"))
        ons.append(measure_throughput("sharedbit", n, 2, rounds, "array",
                                      telemetry=True))
    return max(offs), max(ons)


def measure_phase_profile(n: int, rounds: int, seed: int = 11) -> dict:
    """One telemetry-enabled run's phase breakdown (seconds rounded)."""
    instance = uniform_instance(n=n, k=2, seed=seed)
    nodes = build_nodes("sharedbit", instance, seed=seed)
    defn = ALGORITHM_REGISTRY.get("sharedbit")
    sim = Simulation(
        StaticDynamicGraph(star(n)), nodes,
        b=defn.resolve_tag_length(defn.make_config()), seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        trace_sample_every=1024, engine_mode="array", telemetry=True,
    )
    sim.run(max_rounds=rounds)
    return {
        name: {"calls": entry["calls"],
               "seconds": round(entry["seconds"], 4)}
        for name, entry in sim.telemetry.profile().items()
    }


def _sleep_fault(n: int, seed: int) -> SleepCycle:
    """The faulty throughput configuration: a 6-of-8 duty cycle, masks
    changing every round (the masked stage-1/2 paths, not the cached
    no-fault fast path)."""
    return SleepCycle(n=n, seed=seed, period=8, duty=6)


def measure_async_throughput(algorithm: str, n: int, k: int, rounds: int,
                             seed: int = 11, jitter: float = 0.5,
                             engine_mode: str = "auto") -> float:
    """rounds/s for a fixed-window async run (jittered, event engine).

    The asynchronous twin of :func:`measure_throughput`: same protocols,
    same topology, same round budget, every round window one full sweep
    of jittered cohorts through the window executor.  ``engine_mode``
    picks the hooks that feed it — ``"object"`` the scalar per-node
    hooks, ``"array"`` the protocol's window hooks (byte-identical:
    the golden corpus's async classes).
    """
    instance = uniform_instance(n=n, k=k, seed=seed)
    nodes = build_nodes(algorithm, instance, seed=seed)
    defn = ALGORITHM_REGISTRY.get(algorithm)
    sim = AsyncSimulation(
        StaticDynamicGraph(star(n)), nodes,
        b=defn.resolve_tag_length(defn.make_config()), seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        trace_sample_every=1024,
        timing=UniformJitter(n=n, seed=seed, jitter=jitter),
        engine_mode=engine_mode,
    )
    started = time.perf_counter()
    sim.run(max_rounds=rounds)
    return rounds / (time.perf_counter() - started)


def run_engine_bench(n: int = 2000, allow_dirty: bool = False) -> dict:
    """Measure object vs array throughput and update BENCH_engine.json."""
    cases = {"sharedbit": 400, "blindmatch": 1000}
    results: dict = {"n": n, "kind": "engine-throughput",
                     "topology": "static star", "k": 2}
    for algorithm, rounds in cases.items():
        object_rps = measure_throughput(algorithm, n, 2, rounds, "object")
        array_rps = measure_throughput(algorithm, n, 2, rounds, "array")
        results[algorithm] = {
            "rounds": rounds,
            "object_rounds_per_s": round(object_rps, 1),
            "array_rounds_per_s": round(array_rps, 1),
            "speedup": round(array_rps / object_rps, 2),
        }
    # The faulty configuration: the array path must keep its advantage
    # when every round runs the masked stages (sleep duty cycle).
    faulty_rounds = 200
    object_rps = measure_throughput("sharedbit", n, 2, faulty_rounds,
                                    "object", fault=_sleep_fault)
    array_rps = measure_throughput("sharedbit", n, 2, faulty_rounds,
                                   "array", fault=_sleep_fault)
    results["sharedbit_sleep_6of8"] = {
        "rounds": faulty_rounds,
        "fault": "sleep(period=8, duty=6)",
        "object_rounds_per_s": round(object_rps, 1),
        "array_rounds_per_s": round(array_rps, 1),
        "speedup": round(array_rps / object_rps, 2),
    }
    # The async-vs-sync rows: the event engine's cost over the round
    # engine.  The event row prices the scalar hooks against the
    # object engine (partial cohorts forbid bulk hooks there); the
    # batched row prices SharedBit's window hooks against the *array*
    # engine — the honest bar, since both vectorize — and tracks the
    # batched-over-event speedup so the gap's trajectory is recorded,
    # not just its existence.
    async_rounds = 200
    sync_rps = measure_throughput("sharedbit", n, 2, async_rounds, "object")
    event_rps = measure_async_throughput("sharedbit", n, 2, async_rounds,
                                         engine_mode="object")
    results["sharedbit_async_jitter"] = {
        "rounds": async_rounds,
        "timing": "jitter(0.5)",
        "sync_object_rounds_per_s": round(sync_rps, 1),
        "async_event_rounds_per_s": round(event_rps, 1),
        "async_over_sync": round(event_rps / sync_rps, 2),
    }
    sync_array_rps = measure_throughput("sharedbit", n, 2, async_rounds,
                                        "array")
    batched_rps = measure_async_throughput("sharedbit", n, 2, async_rounds,
                                           engine_mode="array")
    results["sharedbit_async_jitter_batched"] = {
        "rounds": async_rounds,
        "timing": "jitter(0.5)",
        "sync_array_rounds_per_s": round(sync_array_rps, 1),
        "async_batched_rounds_per_s": round(batched_rps, 1),
        "async_over_sync_array": round(batched_rps / sync_array_rps, 2),
        "batched_over_event": round(batched_rps / event_rps, 2),
    }
    # The OBS row: telemetry's price on the hottest path, plus one run's
    # phase breakdown so the ledger records where the rounds went, not
    # just how fast they were.
    telemetry_rounds = 400
    off_rps, on_rps = measure_telemetry_overhead(n, telemetry_rounds)
    results["sharedbit_telemetry"] = {
        "rounds": telemetry_rounds,
        "off_rounds_per_s": round(off_rps, 1),
        "on_rounds_per_s": round(on_rps, 1),
        "overhead_pct": round(100.0 * (1.0 - on_rps / off_rps), 2),
        "phases": measure_phase_profile(n, telemetry_rounds),
    }
    record_bench("engine:fastpath", results, allow_dirty=allow_dirty)
    return results


# --------------------------------------------------------------------------
# pytest entry points (wall clock via pytest-benchmark, plus assertions).

def test_engine_round_throughput(benchmark):
    rounds = benchmark.pedantic(
        lambda: _blind_static_run(11), rounds=1, iterations=3
    )
    note = (
        f"ENG-HOT: blind static star n={N}, k=2: {rounds} rounds/run; "
        "wall time tracked by pytest-benchmark.  Per-epoch NeighborView "
        "skeletons mean b=0 rounds allocate no view objects at all "
        "(seed engine rebuilt every tuple every round).  ENG-ARRAY: see "
        "BENCH_engine.json for object vs array rounds/s."
    )
    write_report("eng_hot_engine", note)
    benchmark.extra_info["rounds_per_run"] = rounds


class _ViewProbe:
    """Wrap a node's propose to capture the tuples the engine passes in."""

    def __init__(self, node):
        self.node = node
        self.seen = []
        self._inner = node.propose
        node.propose = self._capture

    def _capture(self, round_index, neighbors):
        self.seen.append(neighbors)
        return self._inner(round_index, neighbors)


def test_skeleton_cache_reuses_view_tuples():
    """Benchmark-visible assertion: stable epoch + stable tags => the
    engine hands ``propose`` the cached tuple, not a fresh rebuild."""
    instance = uniform_instance(n=8, k=2, seed=3)
    nodes = build_nodes("blindmatch", instance, seed=3)
    probe = _ViewProbe(nodes[0])
    sim = Simulation(
        StaticDynamicGraph(star(8)),
        nodes,
        b=0,
        seed=3,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        engine_mode="object",
    )
    sim.run(max_rounds=5, termination=all_hold_tokens(instance.token_ids))
    assert len(probe.seen) >= 2
    first = probe.seen[0]
    assert all(views is first for views in probe.seen), (
        "expected the per-epoch skeleton tuple to be reused verbatim for "
        "b=0 on a static graph"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: reduced-round throughput and telemetry-overhead "
             "probes; skips the >=3x assertion and does not touch "
             "BENCH_engine.json",
    )
    parser.add_argument("--n", type=int, default=2000,
                        help="population size for the throughput bench")
    parser.add_argument(
        "--allow-dirty", action="store_true",
        help="record BENCH_engine.json even from a dirty working tree "
             "(the entry keeps its -dirty rev)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        probe = measure_throughput("sharedbit", 256, 2, 60, "array")
        faulty_probe = measure_throughput("sharedbit", 256, 2, 60, "array",
                                          fault=_sleep_fault)
        event_probe = measure_async_throughput("sharedbit", 256, 2, 60,
                                               engine_mode="object")
        batched_probe = measure_async_throughput("sharedbit", 256, 2, 60,
                                                 engine_mode="array")
        if batched_probe <= event_probe:
            print(f"FAIL: batched async window path "
                  f"({batched_probe:.0f} rounds/s) did not beat the "
                  f"per-event path ({event_probe:.0f} rounds/s) at n=256",
                  file=sys.stderr)
            return 1
        print(f"throughput probe ok ({probe:.0f} rounds/s clean, "
              f"{faulty_probe:.0f} rounds/s under sleep(6/8), "
              "sharedbit array, n=256; async jitter "
              f"{event_probe:.0f} rounds/s per-event -> "
              f"{batched_probe:.0f} rounds/s batched)")
        # Telemetry must be near-free even at smoke scale; the bound is
        # loose (the tight <5% bar runs at n=2000 in the full bench)
        # but catches a hot-path span leak outright.
        off_rps, on_rps = measure_telemetry_overhead(256, 60)
        overhead = 1.0 - on_rps / off_rps
        if overhead > 0.25:
            print(f"FAIL: telemetry overhead {100 * overhead:.1f}% at "
                  f"n=256 ({off_rps:.0f} -> {on_rps:.0f} rounds/s); "
                  "smoke bound is 25%", file=sys.stderr)
            return 1
        print(f"telemetry overhead probe ok ({off_rps:.0f} rounds/s off "
              f"-> {on_rps:.0f} rounds/s on, "
              f"{100 * max(0.0, overhead):.1f}% at n=256)")
        return 0

    results = run_engine_bench(n=args.n, allow_dirty=args.allow_dirty)
    for case in ("sharedbit", "blindmatch", "sharedbit_sleep_6of8"):
        row = results[case]
        print(
            f"{case:22s} n={args.n}: object "
            f"{row['object_rounds_per_s']:8.1f} r/s -> array "
            f"{row['array_rounds_per_s']:8.1f} r/s  "
            f"({row['speedup']:.2f}x)"
        )
    async_row = results["sharedbit_async_jitter"]
    print(
        f"{'sharedbit_async_jitter':22s} n={args.n}: sync-object "
        f"{async_row['sync_object_rounds_per_s']:8.1f} r/s -> async "
        f"{async_row['async_event_rounds_per_s']:8.1f} r/s  "
        f"({async_row['async_over_sync']:.2f}x)"
    )
    batched_row = results["sharedbit_async_jitter_batched"]
    print(
        f"{'  ... batched':22s} n={args.n}: sync-array  "
        f"{batched_row['sync_array_rounds_per_s']:8.1f} r/s -> async "
        f"{batched_row['async_batched_rounds_per_s']:8.1f} r/s  "
        f"({batched_row['async_over_sync_array']:.2f}x of array, "
        f"{batched_row['batched_over_event']:.2f}x over per-event)"
    )
    if args.n >= 2000 and batched_row["async_over_sync_array"] < 0.5:
        print("FAIL: batched async path fell below 0.5x of the sync "
              f"array engine ({batched_row['async_over_sync_array']:.2f}x)",
              file=sys.stderr)
        return 1
    if args.n >= 2000 and batched_row["batched_over_event"] <= 1.0:
        print("FAIL: batched window path lost to the per-event path "
              f"({batched_row['batched_over_event']:.2f}x)",
              file=sys.stderr)
        return 1
    best = max(results["sharedbit"]["speedup"],
               results["blindmatch"]["speedup"])
    if args.n >= 2000 and best < 3.0:
        print(f"FAIL: best hot-path speedup {best:.2f}x < 3x",
              file=sys.stderr)
        return 1
    if args.n >= 2000 and results["sharedbit_sleep_6of8"]["speedup"] <= 1.0:
        print("FAIL: array path lost its advantage under the faulty "
              "configuration", file=sys.stderr)
        return 1
    telemetry_row = results["sharedbit_telemetry"]
    print(
        f"{'sharedbit_telemetry':22s} n={args.n}: off "
        f"{telemetry_row['off_rounds_per_s']:8.1f} r/s -> on "
        f"{telemetry_row['on_rounds_per_s']:8.1f} r/s  "
        f"({telemetry_row['overhead_pct']:.2f}% overhead)"
    )
    if args.n >= 2000 and telemetry_row["overhead_pct"] > 5.0:
        print("FAIL: telemetry overhead "
              f"{telemetry_row['overhead_pct']:.2f}% > 5% at n={args.n}",
              file=sys.stderr)
        return 1
    print(f"recorded BENCH_engine.json (best speedup {best:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
