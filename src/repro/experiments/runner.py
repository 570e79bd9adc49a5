"""Execute runs and sweeps: serial, process-parallel, and cached.

:func:`execute_run` is the worker: it takes one JSON-able run payload,
materializes it (:meth:`RunSpec.materialize`) *inside the worker
process* (nothing unpicklable ever crosses the process boundary), runs
the simulation, and returns a JSON-able record.

:func:`run_sweep` fans a :class:`~repro.experiments.specs.SweepSpec` out
over a ``ProcessPoolExecutor`` (``jobs > 1``) or runs it inline
(``jobs = 1``).  Results are keyed by each run's stable spec hash, so an
optional on-disk :class:`~repro.experiments.results.ResultCache` makes
re-runs free, and aggregation happens in sweep order — the aggregated
output is byte-identical whatever ``jobs`` was.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.core.runner import run_gossip
from repro.errors import ConfigurationError
from repro.experiments.results import (
    ResultCache,
    ShardedRunLog,
    SweepResult,
    aggregate,
    load_streamed,
)
from repro.experiments.specs import (
    NAMED_GAUGES,
    RunSpec,
    SweepSpec,
    run_hash,
)
from repro.registry import ALGORITHM_REGISTRY, load_plugin

__all__ = ["execute_run", "normalize_payload", "run_sweep",
           "stable_topology_note"]


def stable_topology_note(algorithm: str) -> str:
    """The note recorded when a τ = ∞ model rule forces a substitution."""
    return f"tau=inf substituted ({algorithm} needs stable topology)"


#: The note attached when CrowdedBin's τ = ∞ requirement forces a
#: substitution (also surfaced by ``repro-gossip compare``).
CROWDEDBIN_TAU_NOTE = stable_topology_note("crowdedbin")


def normalize_payload(payload: dict) -> tuple[dict, list[str]]:
    """Apply model-rule substitutions a spec author may have missed.

    Any algorithm whose registration declares
    ``requires_stable_topology`` (CrowdedBin's τ = ∞ assumption) gets the
    static version of the same shape when a sweep's grid puts it on a
    changing topology, with a note recorded in the run record so
    comparison tables aren't misleading.  Unknown algorithm names and
    malformed ``dynamic`` blocks pass through untouched — :class:`RunSpec`
    validation rejects them, naming the registered set or the key.
    """
    notes: list[str] = []
    defn = ALGORITHM_REGISTRY.find(payload.get("algorithm"))
    dynamic = payload.get("dynamic")
    if (
        defn is not None
        and defn.requires_stable_topology
        and isinstance(dynamic, dict)
        and dynamic.get("kind", "static") != "static"
    ):
        payload = dict(payload)
        payload["dynamic"] = {"kind": "static"}
        notes.append(stable_topology_note(defn.name))
    return payload, notes


def execute_run(payload) -> dict:
    """Run one spec to completion and return its JSON-able record.

    Accepts a :class:`RunSpec` or its payload dict.  This is the function
    worker processes execute; everything it needs is rebuilt locally from
    the spec, and every algorithm goes through
    :func:`repro.core.runner.run_gossip`.
    """
    if isinstance(payload, RunSpec):
        payload = payload.to_payload()
    payload, notes = normalize_payload(payload)
    spec = RunSpec.from_payload(payload)
    engine = spec.engine
    gauge_names = tuple(engine.get("gauges", ()))
    run = spec.materialize()
    token_ids = run["instance"].token_ids
    result = run_gossip(
        **run,
        gauges={name: NAMED_GAUGES[name](token_ids)
                for name in gauge_names} or None,
        gauge_every=engine.get("gauge_every", 64),
        trace_sample_every=engine.get("trace_sample_every", 1024),
        trace_max_records=engine.get("trace_max_records"),
        termination_every=engine.get("termination_every", 1),
    )
    record = {
        "rounds": result.rounds,
        "solved": result.solved,
        **result.goal_report,
    }
    if gauge_names:
        record["gauges"] = {
            name: [
                [round_index, value]
                for round_index, value in result.trace.gauge_series(name)
            ]
            for name in gauge_names
        }
    record["connections"] = result.trace.total_connections
    record["tokens_moved"] = result.trace.total_tokens_moved
    record["control_bits"] = result.trace.total_control_bits
    record["dropped_connections"] = result.trace.total_dropped_connections
    if result.event_counts is not None:
        # Asynchronous runs: total node activations (the virtual
        # clock's work measure, distinct from rounds).
        record["events"] = int(result.event_counts.sum())
    profile = result.profile
    if profile is not None:
        # Phase profile rides the JSON-able record across the
        # process boundary; SweepResult.phase_totals() merges the
        # per-run dicts in sweep order, so the merged structure is
        # invariant to how run_sweep partitioned work over jobs.
        record["profile"] = profile
    record["notes"] = notes
    return record


def _init_worker_plugins(plugins: tuple) -> None:
    """Process-pool initializer: re-register plugin definitions.

    Worker processes import repro fresh, so out-of-tree registrations
    made in the parent (``--plugin`` files, imported plugin modules) must
    be replayed before any run referencing them is dispatched.
    """
    for plugin in plugins:
        load_plugin(plugin)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir=None,
    progress=None,
    plugins=(),
    stream_to=None,
) -> SweepResult:
    """Run every cell × seed of ``spec`` and aggregate in sweep order.

    ``jobs > 1`` fans cache-missing runs out over a process pool; because
    every run is independently seeded and results are re-ordered by their
    position in the sweep, the aggregated result is identical for any
    ``jobs``.  ``progress`` (optional) is called with one status line per
    completed run.  ``plugins`` (optional) names plugin modules or files
    (see :func:`repro.registry.load_plugin`) loaded both here and in
    every worker process, so a sweep over an out-of-tree algorithm
    parallelizes like any other.

    ``stream_to`` (optional) is a directory: each completed run record is
    appended to JSONL shards there (:class:`ShardedRunLog`) instead of
    accumulating in memory, and aggregation happens from a re-read of the
    sealed stream — the million-node mode.  The returned
    :class:`SweepResult` is byte-identical (``to_json``) to the in-memory
    path's, and the shards survive for later re-aggregation.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    plugins = tuple(plugins)
    for plugin in plugins:
        load_plugin(plugin)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    stream = ShardedRunLog(stream_to) if stream_to is not None else None
    runs = spec.runs()
    hashes = [run_hash(payload) for _, _, _, payload in runs]

    records: dict[int, dict] = {}
    pending: list[int] = []
    done = 0

    def keep(index: int, record: dict) -> None:
        nonlocal done
        done += 1
        if stream is not None:
            stream.append(index, record)
        else:
            records[index] = record

    for index, key in enumerate(hashes):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            keep(index, cached)
        else:
            pending.append(index)

    def note_done(index: int, record: dict) -> None:
        if progress is not None:
            _, point, seed, _ = runs[index]
            cell = ", ".join(f"{k}={v}" for k, v in point.items()) or "base"
            progress(
                f"[{done}/{len(runs)}] {cell} seed={seed}: "
                f"{record['rounds']} rounds"
            )

    def consume(fresh) -> None:
        for index, record in zip(pending, fresh):
            keep(index, record)
            if cache is not None:
                cache.put(hashes[index], record)
            note_done(index, record)

    if pending:
        payloads = [runs[index][3] for index in pending]
        if jobs == 1 or len(pending) == 1:
            consume(map(execute_run, payloads))
        else:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                initializer=_init_worker_plugins if plugins else None,
                initargs=(plugins,) if plugins else (),
            )
            try:
                consume(pool.map(execute_run, payloads))
            finally:
                # On a worker error, drop the queued runs instead of
                # silently simulating them to completion first.
                pool.shutdown(cancel_futures=True)

    if stream is not None:
        stream.finalize(spec)
        records = load_streamed(stream_to)
    result = aggregate(spec, records, runs=runs)
    result.jobs = jobs
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
    return result
