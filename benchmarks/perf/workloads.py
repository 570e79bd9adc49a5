"""The six workloads.  Each function runs ONE measured pass and returns
a plain dict; ``child.py`` calls it, several times per interpreter.

Every layer is measured from outside, by timing calls into the public
functions of ``repro``; the only in-program source is the
``telemetry=True`` profile, used on traced passes.  All simulated work
is a fixed amount for a given size — fixed round counts, runs that are
checked for "solved" but never stopped early — so that timings compare
across seeds as well as across commits.

A pass returns::

    {"setup_s", "run_s", "run_cpu_s",      # seconds, as measured
     "reference_s",                        # mean reference slice of the pass
     "round_ms": [...],                    # wall per segment of the measured
                                           # section (a round; sweep: a run)
     "counts": {...},                      # exact, seed-determined
     "layers": {...},                      # per-layer values (traced)
     "attempted": int, "failures": [...]}  # ops and failed ops
"""

from __future__ import annotations

import math
import shutil
import threading
import zlib
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

from check import Checks, check_live, check_sim, check_sweep
from spans import Reference, Spans, Stamps, percentile

SWEEP_ALGORITHMS = (
    "blindmatch", "sharedbit", "simsharedbit", "crowdedbin", "epsilon",
)


def sub_seed(seed: int, label: str) -> int:
    """An independent 31-bit seed for one input (graph, instance, run)."""
    return (seed * 1_000_003 + zlib.crc32(label.encode())) % (2 ** 31)


def sized(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _timings(setup_s: float, stamps: Stamps, reference: Reference) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": sum(stamps.wall),
        "run_cpu_s": sum(stamps.cpu),
        "reference_s": reference.mean_s(),
        "round_ms": [1e3 * seconds for seconds in stamps.wall],
    }


# ---------------------------------------------------------------------------
# Simulator workloads: one engine, a fixed number of rounds.


@dataclass(frozen=True)
class SimWorkload:
    algorithm: str
    n: int
    k: int
    rounds: int
    #: Cadence of the all-hold-tokens check, as a user's
    #: ``termination_every`` would set it.
    check_every: int
    graph: Callable        # (n, seed) -> DynamicGraph
    expect_solved: bool
    fault: Callable | None = None    # (n, seed) -> FaultModel
    timing: dict | None = None       # timing spec; selects the async engine


def _expander(degree: int):
    def build(n: int, seed: int):
        from repro.graphs.dynamic import ring_expander_graph

        return ring_expander_graph(n=n, degree=degree, seed=seed)

    return build


def _mobility(n: int, seed: int):
    from repro.graphs.dynamic import GeometricMobilityGraph

    # Unit-disk radius giving mean degree ~12 at density n (pi r^2 n).
    radius = math.sqrt(12.0 / (math.pi * n))
    return GeometricMobilityGraph(
        n=n, radius=radius, step=0.05, tau=4, seed=seed, bridge=False
    )


def _sleep_cycle(n: int, seed: int):
    from repro.sim.faults import SleepCycle

    return SleepCycle(n, seed, period=8, duty=6)


SIM_WORKLOADS = {
    "sharedbit_solve": SimWorkload(
        algorithm="sharedbit", n=6000, k=2, rounds=48, check_every=4,
        graph=_expander(6), expect_solved=True,
    ),
    "sharedbit_ring_scan": SimWorkload(
        algorithm="sharedbit", n=8000, k=1, rounds=600, check_every=64,
        graph=_expander(2), expect_solved=False,
    ),
    "blindmatch_mobile_faulty": SimWorkload(
        algorithm="blindmatch", n=3000, k=1, rounds=40, check_every=4,
        graph=_mobility, expect_solved=False, fault=_sleep_cycle,
    ),
    # k = 64 tokens keep every one of the 40 rounds busy.  With the
    # issue's k = 4 the run solves by round ~25 and then alternates,
    # seed by seed, between idle rounds and 100 ms bursts.
    "async_jitter": SimWorkload(
        algorithm="sharedbit", n=400, k=64, rounds=40, check_every=1,
        graph=_expander(6), expect_solved=False,
        timing={"kind": "jitter"},
    ),
}


class RoundClock:
    """A termination condition that never fires.

    The engines call it once per round (``termination_every=1``), which
    gives the harness per-round clock readings from outside.  It evaluates
    the real condition at the user's cadence until that first holds —
    timing those calls and noting the round — and always answers False,
    so every pass executes the same number of rounds whatever the seed.
    """

    def __init__(self, condition, check_every: int, stamps: Stamps):
        self._condition = condition
        self._check_every = check_every
        self.solved_round: int | None = None
        self.check_s = 0.0
        self.stamps = stamps

    def __call__(self, protocols, rnd: int) -> bool:
        if self.solved_round is None and rnd % self._check_every == 0:
            started = perf_counter()
            if self._condition(protocols, rnd):
                self.solved_round = rnd
            self.check_s += perf_counter() - started
        self.stamps.mark()
        return False


def run_sim(spec: SimWorkload, seed: int, scale: float, traced: bool) -> dict:
    from repro.asynchrony.engine import AsyncSimulation
    from repro.asynchrony.timing import build_timing
    from repro.core.problem import uniform_instance
    from repro.core.runner import build_nodes
    from repro.registry import ALGORITHM_REGISTRY
    from repro.sim.channel import ChannelPolicy
    from repro.sim.engine import Simulation
    from repro.sim.termination import all_hold_tokens

    n = sized(spec.n, scale, floor=64)
    run_seed = sub_seed(seed, "run")
    spans = Spans()
    reference = Reference()
    reference.sample()

    setup_started = perf_counter()
    with spans("graphs.topology_build"):
        graph = spec.graph(n, sub_seed(seed, "graph"))
        first_csr = graph.csr_at(1)
    instance = uniform_instance(n=n, k=spec.k, seed=sub_seed(seed, "instance"))
    with spans("core.build_nodes"):
        nodes = build_nodes(spec.algorithm, instance, run_seed)
    defn = ALGORITHM_REGISTRY.get(spec.algorithm)
    engine_kwargs = dict(
        dynamic_graph=graph,
        protocols=nodes,
        b=defn.resolve_tag_length(defn.make_config()),
        seed=run_seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        faults=spec.fault(n, run_seed) if spec.fault else None,
        termination_every=1,
        telemetry=True if traced else None,
    )
    with spans("sim.engine_init"):
        if spec.timing is None:
            engine = Simulation(engine_mode="array", **engine_kwargs)
        else:
            engine = AsyncSimulation(
                timing=build_timing(spec.timing, n, run_seed),
                **engine_kwargs,
            )
    setup_s = perf_counter() - setup_started

    wanted = instance.token_ids
    initial_holdings = sum(
        len(node.known_tokens & wanted) for node in nodes.values()
    )
    stamps = Stamps(reference)
    clock = RoundClock(all_hold_tokens(wanted), spec.check_every, stamps)
    result = engine.run(max_rounds=spec.rounds, termination=clock)

    trace = result.trace
    totals = {
        "proposals": trace.total_proposals,
        "connections": trace.total_connections,
        "tokens_moved": trace.total_tokens_moved,
        "dropped": trace.total_dropped_connections,
    }
    records = [
        [rec.round_index, rec.proposals, rec.connections, rec.tokens_moved,
         rec.active_nodes, rec.dropped_connections]
        for rec in trace.records
    ]
    checks = Checks()
    check_sim(checks, {
        "n": n, "k": spec.k, "rounds": result.rounds,
        "expected_rounds": spec.rounds,
        "expect_solved": spec.expect_solved,
        "solved_round": clock.solved_round,
        "initial_holdings": initial_holdings,
        "final_holdings": [
            len(node.known_tokens & wanted) for node in nodes.values()
        ],
        "totals": totals, "records": records,
        "pairing": "round" if spec.timing is None else "window",
    })
    events = (
        None if result.event_counts is None
        else int(result.event_counts.sum())
    )
    counts = {
        "runs": 1, "rounds": result.rounds, "node_rounds": n * result.rounds,
        **totals,
    }
    if events is not None:
        counts["events"] = events
    out = {
        **_timings(setup_s, stamps, reference), "counts": counts,
        "layers": {},
        "attempted": checks.attempted, "failures": checks.failures,
    }
    if not traced:
        return out

    run_s, round_ms = out["run_s"], out["round_ms"]
    profile = engine.telemetry.profile()

    def seconds(name: str):
        cell = profile.get(name)
        return None if cell is None else cell["seconds"]

    node_rounds = n * result.rounds
    edges = len(first_csr.indices) // 2
    epochs = 1 if graph.tau == float("inf") else -(-spec.rounds // graph.tau)
    layers = {
        "graphs.topology_build_s": spans.total("graphs.topology_build"),
        "graphs.epochs": epochs,
        "graphs.edges": edges,
        "core.build_nodes_s": spans.total("core.build_nodes"),
        "core.nodes_per_s": _ratio(n, spans.total("core.build_nodes")),
        "sim.engine_init_s": spans.total("sim.engine_init"),
        "sim.termination_check_s": clock.check_s,
        "sim.rounds": result.rounds,
        "sim.proposals": totals["proposals"],
        "sim.connections": totals["connections"],
        "sim.tokens_moved": totals["tokens_moved"],
        "sim.dropped_connections": totals["dropped"],
        "sim.accept_ratio": _ratio(totals["connections"],
                                   totals["proposals"]),
        "sim.round_ms_p50": percentile(round_ms, 0.5),
        "sim.round_ms_p90": percentile(round_ms, 0.9),
    }
    build_s = layers["graphs.topology_build_s"]
    if epochs > 1:
        # The engine advances the topology inside round.stages12, where
        # it cannot be told apart; time the same advances on a twin.
        twin = spec.graph(n, sub_seed(seed, "graph"))
        advance_started = perf_counter()
        edges = sum(
            len(twin.csr_at(1 + epoch * twin.tau).indices) // 2
            for epoch in range(epochs)
        )
        layers["graphs.epoch_advance_s"] = perf_counter() - advance_started
        layers["graphs.edges"] = edges
        build_s = layers["graphs.epoch_advance_s"]
    layers["graphs.edges_per_s"] = _ratio(edges, build_s)

    attributed = clock.check_s
    if spec.timing is None:
        active = sum(record[4] for record in records)
        layers["sim.active_fraction"] = _ratio(active, node_rounds)
        stages12 = seconds("round.stages12")
        parts = {
            "core.advertise_s": seconds("round.advertise"),
            "core.propose_s": seconds("round.propose"),
            "sim.resolve_s": seconds("round.resolve"),
            "sim.csr_bind_s": seconds("round.csr_bind"),
        }
        layers.update({k: v for k, v in parts.items() if v is not None})
        if stages12 is not None:
            layers["sim.stages12_other_s"] = stages12 - sum(
                v for v in parts.values() if v is not None
            )
            attributed += stages12
        for name, span in (("core.stage3_s", "round.stage3"),
                           ("sim.observe_s", "round.observe")):
            if seconds(span) is not None:
                layers[name] = seconds(span)
                attributed += seconds(span)
        layers["sim.csr_binds"] = profile.get(
            "round.csr_bind", {"calls": 0})["calls"]
        if "core.advertise_s" in layers:
            layers["core.advertise_ns_per_node_round"] = _ratio(
                1e9 * layers["core.advertise_s"], node_rounds)
        if "core.propose_s" in layers:
            layers["core.propose_ns_per_node_round"] = _ratio(
                1e9 * layers["core.propose_s"], node_rounds)
        if "core.stage3_s" in layers:
            layers["core.stage3_us_per_connection"] = _ratio(
                1e6 * layers["core.stage3_s"], totals["connections"])
    else:
        layers["sim.active_fraction"] = _ratio(events, node_rounds)
        layers["asynchrony.run_s"] = run_s
        layers["asynchrony.events"] = events
        layers["asynchrony.events_per_s"] = _ratio(events, run_s)
        for phase in ("drain", "process", "schedule", "flush"):
            if seconds(f"window.{phase}") is not None:
                layers[f"asynchrony.window_{phase}_s"] = seconds(
                    f"window.{phase}")
                attributed += seconds(f"window.{phase}")
        # Same rounds on both engines, so the ratio of rounds/s is the
        # inverse ratio of run times, each at its own reference speed.
        sync = run_sim(replace(spec, timing=None), seed, scale, traced=False)
        layers["asynchrony.over_sync_ratio"] = _ratio(
            sync["run_s"] / sync["reference_s"],
            run_s / out["reference_s"],
        )
    layers["sim.unattributed_s"] = run_s - attributed
    out["layers"] = layers
    return out


# ---------------------------------------------------------------------------
# sweep_mixed: spec -> build -> run -> aggregate, cold then warm.


def _sweep_spec(seed: int, scale: float, telemetry: bool):
    """Figure-1 rows with per-row sizes, so that no row dominates.

    The stock ``figure1_sweep(32, 4)`` is not used: 95% of its time is
    the three CrowdedBin runs.  Each row checks for termination every
    ``termination_every`` rounds, a cadence set above the latest round
    the row was seen to solve in over 30 seeds: every run then stops
    at that round, solved, and all seeds do the same amount of work
    (run to the first solved round, the sweep's time moves by 7% from
    seed to seed).
    """
    from repro.experiments.specs import SweepSpec

    base = {
        "algorithm": "sharedbit",
        "graph": {"family": "star",
                  "params": {"n": sized(24, scale, floor=8)}},
        "dynamic": {"kind": "relabeling", "tau": 1},
        "instance": {"kind": "uniform", "k": 4},
        "max_rounds": 600_000,
        "engine": {"trace_sample_every": 1024, "termination_every": 160},
    }
    if telemetry:
        base["telemetry"] = {"enabled": True}
    return SweepSpec(
        name="perf-sweep-mixed",
        base=base,
        grid={"algorithm": list(SWEEP_ALGORITHMS)},
        seeds=tuple(sub_seed(seed, f"sweep{i}") for i in range(3)),
        overrides=[
            {"when": {"algorithm": "blindmatch"},
             "set": {"graph.params.n": sized(16, scale, floor=8),
                     "engine.termination_every": 224}},
            {"when": {"algorithm": "simsharedbit"},
             "set": {"graph.params.n": sized(12, scale, floor=8),
                     "engine.termination_every": 176}},
            {"when": {"algorithm": "crowdedbin"},
             "set": {
                 "graph.params.n": 6,
                 "instance.k": 1,
                 "dynamic": {"kind": "static"},
                 "config": {"preset": "practical"},
                 "engine.termination_every": 1280,
                 "max_rounds": 2_000_000,
             }},
            {"when": {"algorithm": "epsilon"},
             "set": {
                 "graph": {"family": "expander",
                           "params": {"n": sized(16, scale, floor=8),
                                      "degree": 4, "seed": 1}},
                 "dynamic": {"kind": "static"},
                 "instance": {"kind": "everyone"},
                 "config": {"epsilon": 0.5},
                 "engine.termination_every": 48,
                 "max_rounds": 400_000,
                 # The epsilon executor refuses a telemetry block.
                 "telemetry": None,
             }},
        ],
    )


def run_sweep_mixed(seed: int, scale: float, traced: bool,
                    workdir) -> dict:
    from repro.experiments.results import (
        ResultCache, ShardedRunLog, aggregate, load_streamed,
    )
    from repro.experiments.runner import execute_run, run_sweep
    from repro.experiments.specs import (
        build_config, build_dynamic_graph, build_instance, run_hash,
    )
    from repro.telemetry import merge_profiles

    spans = Spans()
    reference = Reference()
    reference.sample()
    cache_dir = workdir / "cache"

    # Setup: spec expansion + hashing, several times (it is under a
    # millisecond) with the median reported.
    expansions = []
    for _ in range(15):
        started = perf_counter()
        spec = _sweep_spec(seed, scale, telemetry=traced)
        runs = spec.runs()
        hashes = [run_hash(payload) for _, _, _, payload in runs]
        expansions.append(perf_counter() - started)
    setup_s = percentile(expansions, 0.5)
    payloads = [payload for _, _, _, payload in runs]

    stamps = Stamps(reference)
    if not traced:
        cold = run_sweep(spec, jobs=1, cache_dir=cache_dir,
                         progress=lambda _line: stamps.mark())
        records = None
    else:
        # The same pipeline run_sweep(jobs=1) drives over a cold cache,
        # stepped from outside so each stage gets its own span.
        cache = ResultCache(cache_dir)
        records = {}
        for index, payload in enumerate(payloads):
            with spans("experiments.cache_get"):
                cache.get(hashes[index])
            with spans("experiments.execute_run." + payload["algorithm"]):
                records[index] = execute_run(payload)
            with spans("experiments.cache_put"):
                cache.put(hashes[index], records[index])
            stamps.mark()
        with spans("experiments.aggregate"):
            cold = aggregate(spec, records, runs=runs)
        cold.cache_hits, cold.cache_misses = cache.hits, cache.misses
    # One segment per run, and a last one for the aggregation.
    stamps.mark()

    warm_ms = []
    for _ in range(20):
        warm_started = perf_counter()
        warm = run_sweep(spec, jobs=1, cache_dir=cache_dir)
        warm_ms.append(1e3 * (perf_counter() - warm_started))

    run_records = [
        record for point in cold.points for record in point.runs
    ]
    checks = Checks()
    check_sweep(checks, {
        "runs": [
            [payload["algorithm"], record["rounds"], record["solved"],
             payload["max_rounds"]]
            for payload, record in zip(payloads, run_records)
        ],
        "points": len(cold.points),
        "expected_points": len(SWEEP_ALGORITHMS),
        "cold_hits": cold.cache_hits, "cold_misses": cold.cache_misses,
        "warm_hits": warm.cache_hits, "warm_misses": warm.cache_misses,
        "warm_identical": warm.to_json() == cold.to_json(),
    })
    counts = {
        "runs": len(payloads),
        "rounds": sum(record["rounds"] for record in run_records),
        "node_rounds": sum(
            payload["graph"]["params"]["n"] * record["rounds"]
            for payload, record in zip(payloads, run_records)
        ),
        "connections": sum(
            record.get("connections", 0) for record in run_records
        ),
        "tokens_moved": sum(
            record.get("tokens_moved", 0) for record in run_records
        ),
    }
    out = {
        **_timings(setup_s, stamps, reference), "counts": counts,
        "layers": {},
        "attempted": checks.attempted, "failures": checks.failures,
    }
    # Here a segment is a whole run: its mean round.
    out["round_ms"] = round_ms = [
        1e3 * seconds / record["rounds"]
        for seconds, record in zip(stamps.wall, run_records)
    ]
    if not traced:
        return out

    # Stages the measured section does not isolate, timed on their own.
    build_started = perf_counter()
    for payload in payloads:
        graph = build_dynamic_graph(
            payload["graph"], payload["dynamic"], payload["seed"])
        build_instance(payload["instance"], graph.n, payload["seed"])
        build_config(payload["algorithm"], payload.get("config"))
    build_s = perf_counter() - build_started
    warm_cache = ResultCache(cache_dir)
    get_started = perf_counter()
    for key in hashes:
        warm_cache.get(key)
    cache_get_s = perf_counter() - get_started
    stream_dir = workdir / "stream"
    write_started = perf_counter()
    log = ShardedRunLog(stream_dir)
    for index in range(len(payloads)):
        log.append(index, records[index])
    log.finalize(spec)
    stream_write_s = perf_counter() - write_started
    reload_started = perf_counter()
    load_streamed(stream_dir)
    stream_reload_s = perf_counter() - reload_started

    self_times = spans.self_times()
    layers = {
        "experiments.spec_expand_s": setup_s,
        "experiments.build_s": build_s,
        "experiments.execute_run_s": sum(
            seconds for name, seconds in self_times.items()
            if name.startswith("experiments.execute_run.")
        ),
        "experiments.cache_put_s": self_times["experiments.cache_put"],
        "experiments.cache_get_s": cache_get_s,
        "experiments.cache_hit_ratio": _ratio(
            warm.cache_hits, warm.cache_hits + warm.cache_misses),
        "experiments.aggregate_s": self_times["experiments.aggregate"],
        "experiments.stream_write_s": stream_write_s,
        "experiments.stream_reload_s": stream_reload_s,
        "experiments.warm_rerun_ms": percentile(warm_ms, 0.5),
        "sim.rounds": counts["rounds"],
        "sim.connections": counts["connections"],
        "sim.tokens_moved": counts["tokens_moved"],
        "sim.round_ms_p50": percentile(round_ms, 0.5),
        "sim.round_ms_p90": percentile(round_ms, 0.9),
    }
    for algorithm in SWEEP_ALGORITHMS:
        layers[f"experiments.execute_run_s.{algorithm}"] = self_times.get(
            f"experiments.execute_run.{algorithm}", 0.0)
    profile = merge_profiles(
        record.get("profile") for record in run_records)
    for name, span in (("core.advertise_s", "round.advertise"),
                       ("core.propose_s", "round.propose"),
                       ("core.stage3_s", "round.stage3"),
                       ("sim.resolve_s", "round.resolve"),
                       ("sim.csr_bind_s", "round.csr_bind"),
                       ("sim.observe_s", "round.observe")):
        if span in profile:
            layers[name] = profile[span]["seconds"]
    out["layers"] = layers
    return out


def pool_speedup_jobs2(seed: int, scale: float) -> float:
    """Cold-sweep wall time at jobs=1 over jobs=2 (informational)."""
    from repro.experiments.runner import run_sweep

    spec = _sweep_spec(seed, scale, telemetry=False)
    walls = []
    for jobs in (1, 2):
        started = perf_counter()
        run_sweep(spec, jobs=jobs)
        walls.append(perf_counter() - started)
    return walls[0] / walls[1]


# ---------------------------------------------------------------------------
# live_replay: boot -> rounds -> report over loopback TCP.

LIVE_N = 16
LIVE_ROUNDS = 48


class _WireTap:
    """Counts every request and frame the live layer sends, by wrapping
    the public ``request``/``send_msg`` where its modules look them up."""

    def __init__(self):
        import json

        from repro.net import coordinator, framing, server

        self.rpcs = 0
        self.frame_bytes = 0
        self._lock = threading.Lock()
        self._saved = [
            (module, name, getattr(module, name))
            for module, name in (
                (coordinator, "request"), (server, "request"),
                (framing, "send_msg"), (server, "send_msg"),
            )
        ]
        real_request, real_send = framing.request, framing.send_msg

        def request(*args, **kwargs):
            with self._lock:
                self.rpcs += 1
            return real_request(*args, **kwargs)

        def send_msg(sock, obj):
            size = framing.HEADER.size + len(
                json.dumps(obj, separators=(",", ":")).encode("utf-8"))
            with self._lock:
                self.frame_bytes += size
            return real_send(sock, obj)

        for module, name, _ in self._saved:
            setattr(module, name, request if name == "request" else send_msg)

    def close(self) -> None:
        for module, name, original in self._saved:
            setattr(module, name, original)


def run_live_replay(seed: int, scale: float, traced: bool) -> dict:
    from repro.core.problem import everyone_starts_instance
    from repro.graphs.dynamic import StaticDynamicGraph
    from repro.graphs.topologies import expander
    from repro.net import Coordinator, record_run, request

    n = sized(LIVE_N, scale, floor=8)
    rounds = sized(LIVE_ROUNDS, scale, floor=4)
    run_seed = sub_seed(seed, "run")
    spans = Spans()
    reference = Reference()
    reference.sample()

    def graph():
        return StaticDynamicGraph(
            expander(n=n, degree=4, seed=sub_seed(seed, "graph")))

    setup_started = perf_counter()
    instance = everyone_starts_instance(n=n, seed=sub_seed(seed, "instance"))
    with spans("net.record"):
        # k = n tokens cannot all reach everyone in this many rounds of
        # one-token connections, so the recording always runs the full,
        # fixed number of rounds.
        record = record_run("blindmatch", graph, instance, run_seed,
                            max_rounds=rounds)
    with spans("net.boot"):
        # The arguments repro.net.replay passes.
        coordinator = Coordinator(
            record.algorithm, graph(), record.instance, record.seed,
            config=record.config, acceptance=record.acceptance,
            termination_every=0,
        )
        coordinator.start()
    setup_s = perf_counter() - setup_started

    tap = _WireTap() if traced else None
    layers = {}
    try:
        stamps = Stamps(reference)
        for rnd in range(1, record.rounds + 1):
            coordinator.run_round(rnd)
            stamps.mark()
        if traced:
            tap.close()
            layers["net.rpcs_per_round"] = tap.rpcs / record.rounds
            # One request per TCP connection, plus one per retry.
            layers["net.tcp_connects_per_round"] = (
                tap.rpcs + coordinator.trace.total_retries) / record.rounds
            layers["net.frame_bytes_per_round"] = (
                tap.frame_bytes / record.rounds)
            host, port = coordinator.servers[0].address
            status = {"op": "status", "round": record.rounds,
                      "suspects": 0, "active": n, "n": n}
            trips = []
            for _ in range(500):
                trip_started = perf_counter()
                request(host, port, status)
                trips.append(perf_counter() - trip_started)
            layers["net.request_roundtrip_us"] = 1e6 * percentile(trips, 0.5)
        with spans("net.snapshot"):
            live_tokens = coordinator.snapshots(include="all")
        with spans("net.scrape"):
            coordinator.scrape_metrics()
    finally:
        if tap is not None:
            tap.close()
        with spans("net.stop"):
            coordinator.stop()

    live_matches = [list(map(list, matches))
                    for matches in coordinator.match_stream]
    checks = Checks()
    check_live(checks, {
        "rounds": record.rounds,
        "recorded_matches": [list(map(list, m)) for m in record.match_stream],
        "live_matches": live_matches,
        "recorded_tokens": {uid: list(t)
                            for uid, t in record.final_tokens.items()},
        "live_tokens": {uid: list(t) for uid, t in live_tokens.items()},
        "retry_budget_exhausted": coordinator.suspect_events,
    })
    checks.that(
        record.rounds == rounds and not record.solved,
        f"recording ran {record.rounds} rounds (solved={record.solved}), "
        f"expected the full {rounds}",
    )
    trace = coordinator.trace
    counts = {
        "runs": 1, "rounds": record.rounds,
        "node_rounds": n * record.rounds,
        "proposals": trace.total_proposals,
        "connections": trace.total_connections,
        "tokens_moved": trace.total_tokens_moved,
    }
    out = {
        **_timings(setup_s, stamps, reference), "counts": counts,
        "layers": layers,
        "attempted": checks.attempted, "failures": checks.failures,
    }
    if traced:
        round_ms = out["round_ms"]
        connect_ms = [1e3 * s for _, s in trace.connection_latencies]
        layers.update({
            "net.record_s": spans.total("net.record"),
            "net.boot_s": spans.total("net.boot"),
            "net.stop_s": spans.total("net.stop"),
            "net.snapshot_s": spans.total("net.snapshot"),
            "net.scrape_s": spans.total("net.scrape"),
            "net.connect_ms_p50": percentile(connect_ms, 0.5),
            "net.connect_ms_p90": percentile(connect_ms, 0.9),
            "net.retries": trace.total_retries,
            "net.timeouts": trace.total_timeouts,
            "sim.rounds": record.rounds,
            "sim.proposals": trace.total_proposals,
            "sim.connections": trace.total_connections,
            "sim.tokens_moved": trace.total_tokens_moved,
            "sim.accept_ratio": _ratio(trace.total_connections,
                                       trace.total_proposals),
            "sim.round_ms_p50": percentile(round_ms, 0.5),
            "sim.round_ms_p90": percentile(round_ms, 0.9),
        })
    return out


# ---------------------------------------------------------------------------

WORKLOADS = ("sweep_mixed", *SIM_WORKLOADS, "live_replay")


def run_pass(workload: str, seed: int, scale: float, traced: bool,
             workdir) -> dict:
    """One measured pass of ``workload``; ``workdir`` is a scratch
    directory inside the checkout that the caller removes."""
    if workload == "sweep_mixed":
        try:
            return run_sweep_mixed(seed, scale, traced, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if workload == "live_replay":
        return run_live_replay(seed, scale, traced)
    return run_sim(SIM_WORKLOADS[workload], seed, scale, traced)
