"""Differential harness: one case matrix, one signature, one differ.

A *case* is (algorithm, dynamics kind, acceptance rule, engine mode,
plus optional fault regime, timing model, CSR dtype and telemetry);
:func:`run_case` runs it and returns a hashable outcome covering
everything the execution observably did: every sampled trace record
(gauges and fault columns included), every running total, the final
round, and the end state.  Two paths agree iff their outcomes are
equal, and :func:`first_divergence` says where they first do not.

The frozen corpus (tests/test_golden_traces.py) records one digest per
case.  Cases that differ only in the path they take (engine mode,
synchronous timing vs the round engine) form a class and must share one
digest; invariance variants (null fault model, telemetry, int64 CSR)
must reproduce their base case's recording.  :func:`check_grid_identity`
stays a gate: it compares the spatial grid against an O(n^2) reference,
not two paths of one execution.
"""

from __future__ import annotations

from repro.asynchrony.engine import AsyncSimulation
from repro.asynchrony.timing import (
    GilbertElliottPauses,
    HeterogeneousRates,
    Synchronous,
    UniformJitter,
)
from repro.core.ppush import PPushNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes
from repro.core.tokens import Token
from repro.graphs.dynamic import (
    GeometricMobilityGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
)
from repro.graphs.topologies import cycle, star
from repro.registry import ALGORITHM_REGISTRY
from repro.rng import SeedTree
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import CrashChurn, LossyLinks, SleepCycle

__all__ = [
    "CHECK_ALGORITHMS",
    "CHECK_ACCEPTANCES",
    "CHECK_DYNAMICS",
    "CHECK_FAULTS",
    "CHECK_ASYNC_ALGORITHMS",
    "CHECK_ASYNC_DYNAMICS",
    "CHECK_TIMINGS",
    "check_grid_identity",
    "first_divergence",
    "make_dynamics",
    "make_fault",
    "make_timing",
    "run_case",
    "trace_signature",
]

CHECK_ALGORITHMS = ("ppush", "blindmatch", "sharedbit")
CHECK_DYNAMICS = ("static", "relabeling", "geometric")
CHECK_ACCEPTANCES = ("uniform", "lowest_uid", "highest_uid", "unbounded")
#: Fault regimes the differential matrix exercises ("none" = no model).
CHECK_FAULTS = ("none", "sleep", "churn", "lossy")
#: The ASYNC identity axis: algorithms × dynamics run through both the
#: round engine and the event engine under synchronous timing.
CHECK_ASYNC_ALGORITHMS = ("sharedbit", "blindmatch")
CHECK_ASYNC_DYNAMICS = ("static", "geometric")
#: Jittered timing regimes the event-engine matrix exercises.
CHECK_TIMINGS = ("jitter", "heterogeneous", "bursty")

#: Column names of one :func:`trace_signature` record, in order.
_RECORD_COLUMNS = (
    "round_index", "proposals", "connections", "tokens_moved",
    "control_bits", "active_nodes", "dropped_connections", "gauges",
)
#: Names of a :func:`trace_signature`'s leading scalars, in order.
_TOTAL_COLUMNS = (
    "rounds", "total_rounds", "total_proposals", "total_connections",
    "total_tokens_moved", "total_control_bits", "total_dropped_connections",
)


def trace_signature(rounds: int, trace) -> tuple:
    """Everything a trace observed, ready for exact comparison."""
    records = tuple(
        (r.round_index, r.proposals, r.connections, r.tokens_moved,
         r.control_bits, r.active_nodes, r.dropped_connections,
         tuple(sorted(r.gauges.items())))
        for r in trace.records
    )
    return (
        rounds,
        trace.total_rounds,
        trace.total_proposals,
        trace.total_connections,
        trace.total_tokens_moved,
        trace.total_control_bits,
        trace.total_dropped_connections,
        records,
    )


def first_divergence(left, right) -> str | None:
    """Where two :func:`run_case` outcomes first disagree (``None`` if
    they are identical).

    Names the first record whose columns differ, with those columns;
    failing that the running totals that differ; failing that the first
    vertex whose end state differs.
    """
    (left_sig, left_state), (right_sig, right_state) = left, right
    left_records, right_records = left_sig[-1], right_sig[-1]
    for a, b in zip(left_records, right_records):
        if a != b:
            return f"round {a[0]}: " + _differing(_RECORD_COLUMNS, a, b)
    if left_sig[:-1] != right_sig[:-1]:
        return "totals: " + _differing(_TOTAL_COLUMNS, left_sig, right_sig)
    for vertex, (a, b) in enumerate(zip(left_state, right_state)):
        if a != b:
            return f"vertex {vertex}: end state {a!r} != {b!r}"
    return None


def _differing(names, left, right) -> str:
    return ", ".join(
        f"{name} {x!r} != {y!r}"
        for name, x, y in zip(names, left, right) if x != y
    )


def make_dynamics(kind: str, n: int, seed: int):
    """One fresh dynamic graph per execution (GeometricMobilityGraph
    carries evolving state and must be walked forward once per run)."""
    if kind == "static":
        return StaticDynamicGraph(star(n))
    if kind == "relabeling":
        return RelabelingAdversary(cycle(n), tau=2, seed=seed)
    if kind == "geometric":
        return GeometricMobilityGraph(n=n, radius=0.4, step=0.05, tau=3,
                                      seed=seed)
    raise ValueError(f"unknown differential dynamics kind {kind!r}")


def make_fault(kind, n: int, seed: int):
    """One fresh fault model per execution, sized for short differential
    runs (aggressive rates so a few dozen rounds actually exercise the
    masked paths and the drop branch).  An already-built
    :class:`~repro.sim.faults.FaultModel` passes through unchanged."""
    if not isinstance(kind, str):
        return kind
    if kind == "none":
        return None
    if kind == "sleep":
        return SleepCycle(n=n, seed=seed, period=4, duty=2)
    if kind == "churn":
        return CrashChurn(n=n, seed=seed, cycle=12, crash_prob=0.5,
                          min_outage=3, max_outage=6, reset_tokens=True)
    if kind == "lossy":
        return LossyLinks(n=n, seed=seed, drop_prob=0.3)
    raise ValueError(f"unknown differential fault kind {kind!r}")


def _ppush_nodes(n: int, seed: int) -> dict:
    tree = SeedTree(seed)
    return {
        vertex: PPushNode(
            uid=vertex + 1,
            upper_n=n,
            rng=tree.stream("node", vertex + 1),
            rumor=Token(1) if vertex == 0 else None,
        )
        for vertex in range(n)
    }


def make_timing(kind, n: int, seed: int):
    """One fresh timing model per execution (jittered models sized so a
    few dozen rounds exercise partial cohorts, stale reads, and stalls).
    An already-built :class:`~repro.asynchrony.timing.TimingModel`
    passes through unchanged; ``None`` means the round engine."""
    if kind is None or not isinstance(kind, str):
        return kind
    if kind == "synchronous":
        return Synchronous(n, seed)
    if kind == "jitter":
        return UniformJitter(n=n, seed=seed, jitter=0.6)
    if kind == "heterogeneous":
        return HeterogeneousRates(n=n, seed=seed, rates=(0.5, 1.0, 1.7))
    if kind == "bursty":
        return GilbertElliottPauses(n=n, seed=seed, p_pause=0.2,
                                    p_resume=0.5, pause_scale=2.0)
    raise ValueError(f"unknown differential timing kind {kind!r}")


def run_case(
    algorithm: str,
    dynamics_kind: str,
    acceptance: str,
    engine_mode: str,
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    fault="none",
    timing=None,
    csr_dtype=None,
    telemetry=None,
) -> tuple:
    """Run one differential case; returns (trace signature, final state).

    ``timing=None`` runs the round engine; anything else (a kind name or
    a built model — including ``"synchronous"``) runs the event engine,
    where ``engine_mode`` picks the scalar hooks (``"object"``) or the
    protocol's window hooks (``"array"``).  ``csr_dtype`` forces the
    dynamic graph's CSR index dtype (``"int32"`` / ``"int64"``; ``None``
    keeps the auto-chosen narrowest).  ``telemetry`` is anything
    :func:`repro.telemetry.resolve_telemetry` accepts (``True`` turns
    profiling + metrics on).  The last two never change the outcome;
    the golden corpus's variant table pins that.
    """
    import numpy as np
    if algorithm == "ppush":
        nodes = _ppush_nodes(n, seed)
        b = 1
        policy = None
    else:
        instance = uniform_instance(n=n, k=3, seed=seed)
        nodes = build_nodes(algorithm, instance, seed=seed)
        defn = ALGORITHM_REGISTRY.get(algorithm)
        b = defn.resolve_tag_length(defn.make_config())
        policy = ChannelPolicy.for_upper_n(instance.upper_n)
    timing = make_timing(timing, n, seed)
    engine_kwargs = dict(
        b=b, seed=seed, channel_policy=policy, acceptance=acceptance,
        engine_mode=engine_mode, faults=make_fault(fault, n, seed),
        telemetry=telemetry,
    )
    dynamics = make_dynamics(dynamics_kind, n, seed)
    if csr_dtype is not None:
        dynamics.csr_dtype = np.dtype(csr_dtype)
    if timing is None:
        sim = Simulation(dynamics, nodes, **engine_kwargs)
    else:
        sim = AsyncSimulation(dynamics, nodes, timing=timing,
                              **engine_kwargs)
    sim.run(max_rounds=rounds)
    if algorithm == "ppush":
        state = tuple(
            (node.uid, node.informed_at_round)
            for node in sim.protocols.values()
        )
    else:
        state = tuple(
            tuple(sorted(node.known_tokens))
            for node in sim.protocols.values()
        )
    return trace_signature(sim.current_round, sim.trace), state


def check_grid_identity(
    ns=(64, 256, 1024),
    radii=(0.02, 0.1, 0.35),
    seeds=(0, 1),
) -> list[str]:
    """The spatial grid's invariant: grid output == O(n^2) reference.

    For every (n, seed) point cloud and radius, the fused ``disk_csr``
    snapshot must equal the blocked pairwise sweep's mirrored edge list
    through ``CSRAdjacency.from_edge_lists``.
    """
    import numpy as np

    from repro.graphs.spatial import disk_csr, disk_edges_blocked
    from repro.sim.adjacency import CSRAdjacency

    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in ns:
            xs = rng.random(n)
            ys = rng.random(n)
            for radius in radii:
                bu, bv = disk_edges_blocked(xs, ys, radius)
                reference = CSRAdjacency.from_edge_lists(
                    np.concatenate([bu, bv]), np.concatenate([bv, bu]), n
                )
                if not disk_csr(xs, ys, radius).same_structure(reference):
                    failures.append(
                        f"n={n}/radius={radius}/seed={seed}: fused disk "
                        "CSR diverged from blocked sweep -> from_edge_lists"
                    )
    return failures
