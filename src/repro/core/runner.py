"""One-call experiment harness: build nodes, run, measure.

:func:`run_gossip` wires together an instance, a dynamic graph, one of the
registered algorithms, and its goal (all nodes know all k tokens, unless
the registration declares another), returning the measured round count
plus the trace.
This is what the examples, benchmarks and integration tests call; direct
use of the node classes with :class:`repro.sim.engine.Simulation` remains
available for custom setups.

Dispatch is entirely registry-driven: the algorithm name resolves to an
:class:`repro.registry.AlgorithmDef` whose declaration carries the node
builder, the default config class, the tag length ``b``, the goal, and
model requirements like ``requires_stable_topology`` — so an algorithm
registered by a plugin runs here with zero edits to this module.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Mapping

from repro.asynchrony.engine import AsyncSimulation
from repro.asynchrony.timing import build_timing
from repro.core.potential import potential
from repro.core.problem import GossipInstance
from repro.errors import ConfigurationError
from repro.graphs.dynamic import DynamicGraph, TAU_INFINITY
from repro.registry import (
    ALGORITHM_REGISTRY,
    NodeBuildContext,
    RegistryNames,
)
from repro.rng import SeedTree
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import build_fault
from repro.sim.protocol import NodeProtocol
from repro.sim.termination import all_hold_tokens
from repro.sim.trace import Trace
from repro.telemetry import resolve_telemetry
from repro.telemetry.profile import NULL_PROFILER

__all__ = ["ALGORITHMS", "GossipRunResult", "PreparedRun", "build_nodes",
           "prepare_run", "run_gossip", "coverage_gauge", "potential_gauge"]

#: Algorithms that solve plain gossip — a live view over the registry
#: (entries registered with their own ``goal``, like ε-gossip, are
#: filtered out; plugin registrations appear automatically).
ALGORITHMS = RegistryNames(ALGORITHM_REGISTRY, lambda defn: defn.goal is None)


@dataclass
class GossipRunResult:
    """Outcome of one gossip execution.

    ``event_counts`` (per-vertex activation totals) is ``None`` for
    synchronous runs; asynchronous runs fill it from the event engine.
    """

    algorithm: str
    rounds: int
    solved: bool
    trace: Trace
    instance: GossipInstance
    nodes: Mapping[int, NodeProtocol]
    event_counts: object = None
    #: The run's :class:`repro.telemetry.Telemetry` bundle (the null
    #: bundle when telemetry was off).
    telemetry: object = None
    #: What the algorithm's goal reports about the final state
    #: (ε-gossip's ``core_size``); empty for plain gossip.
    goal_report: Mapping = field(default_factory=dict)

    @property
    def profile(self) -> dict | None:
        """The phase profile (``{span: {"calls", "seconds"}}``) when
        telemetry was enabled; ``None`` otherwise."""
        if self.telemetry is None or not self.telemetry.enabled:
            return None
        return self.telemetry.profile()

    @property
    def residual_potential(self) -> int:
        return potential(self.nodes, self.instance.token_ids)

    @property
    def estimated_wall_rounds(self) -> float:
        """Effective run length in wall-clock rounds (async runs report
        the trace's skew-stretched estimate; synchronous runs spend one
        wall round per round)."""
        estimate = self.trace.estimated_wall_rounds()
        return float(self.rounds) if estimate is None else estimate

    def coverage(self) -> list[int]:
        """Per-node count of known tokens (harness-side)."""
        wanted = self.instance.token_ids
        return [len(node.known_tokens & wanted) for node in self.nodes.values()]


def build_nodes(
    algorithm: str,
    instance: GossipInstance,
    seed: int,
    config=None,
) -> dict[int, NodeProtocol]:
    """Construct one protocol object per vertex for the named algorithm."""
    defn = ALGORITHM_REGISTRY.get(algorithm)
    if config is None:
        config = defn.make_config()
    elif defn.config_class and not isinstance(config, defn.config_class):
        raise ConfigurationError(
            f"{algorithm} takes a {defn.config_class.__name__} as config, "
            f"got {type(config).__name__}; turn a spec dict into one with "
            "repro.experiments.build_config"
        )
    ctx = NodeBuildContext(
        instance=instance, tree=SeedTree(seed), config=config
    )
    # n long-lived node objects that form no cycles: left on, the cyclic
    # collector rescans the growing population again and again — more
    # than half of the build at n = 10^6 (DESIGN.md §10).
    collecting = gc.isenabled()
    gc.disable()
    try:
        return defn.build(ctx)
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True)
class PreparedRun:
    """A run description resolved against the registry: what an executor
    — either simulation engine or the live coordinator — is built from."""

    config: object
    b: int
    channel_policy: ChannelPolicy
    faults: object          # a sized non-null FaultModel, or None
    nodes: Mapping[int, NodeProtocol]
    termination: object     # the goal as a termination condition


def prepare_run(
    algorithm: str,
    dynamic_graph: DynamicGraph,
    instance: GossipInstance,
    seed: int,
    config=None,
    channel_policy: ChannelPolicy | None = None,
    fault=None,
    profiler=NULL_PROFILER,
) -> PreparedRun:
    """Resolve ``algorithm`` and its regime for one run, or raise
    :class:`ConfigurationError`: sizes agree, the algorithm's model
    requirements hold (``requires_stable_topology`` — CrowdedBin's
    τ = ∞), the fault is built for this population, and the goal accepts
    the instance.  The one preparation ``run_gossip``, the replay
    bridge's recorder and the live coordinator share."""
    defn = ALGORITHM_REGISTRY.get(algorithm)
    if dynamic_graph.n != instance.n:
        raise ConfigurationError(
            f"graph has n={dynamic_graph.n} but instance has n={instance.n}"
        )
    if defn.requires_stable_topology and dynamic_graph.tau != TAU_INFINITY:
        raise ConfigurationError(
            f"{algorithm} assumes a stable topology (tau = infinity); got "
            f"tau={dynamic_graph.tau}"
        )
    # Resolve the default config exactly once; build_nodes receives it
    # already materialized.
    if config is None:
        config = defn.make_config()
    termination = (
        all_hold_tokens(instance.token_ids) if defn.goal is None
        else defn.goal(instance, config)
    )
    with profiler.span("build.population"):
        nodes = build_nodes(algorithm, instance, seed, config)
    return PreparedRun(
        config=config,
        b=defn.resolve_tag_length(config),
        channel_policy=channel_policy
        or ChannelPolicy.for_upper_n(instance.upper_n),
        faults=build_fault(fault, dynamic_graph.n, seed),
        nodes=nodes,
        termination=termination,
    )


def coverage_gauge(token_ids):
    """Gauge: (min, mean) coverage of the k tokens across nodes."""
    wanted = frozenset(token_ids)

    def gauge(nodes, round_index: int):
        counts = [len(node.known_tokens & wanted) for node in nodes.values()]
        return (min(counts), sum(counts) / len(counts))

    return gauge


def potential_gauge(token_ids):
    """Gauge: the paper's potential φ(r)."""

    def gauge(nodes, round_index: int):
        return potential(nodes, token_ids)

    return gauge


def run_gossip(
    algorithm: str,
    dynamic_graph: DynamicGraph,
    instance: GossipInstance,
    seed: int,
    max_rounds: int,
    config=None,
    channel_policy: ChannelPolicy | None = None,
    fault=None,
    timing=None,
    gauges: dict | None = None,
    gauge_every: int = 64,
    trace_sample_every: int = 1,
    trace_max_records: int | None = None,
    termination_every: int = 1,
    engine_mode: str = "auto",
    telemetry=None,
) -> GossipRunResult:
    """Run ``algorithm`` on ``instance`` over ``dynamic_graph`` to completion.

    Raises :class:`ConfigurationError` when :func:`prepare_run` rejects
    the description (e.g. ``requires_stable_topology`` on a changing
    topology — CrowdedBin's τ = ∞ assumption).

    The run ends when the algorithm's goal holds: every node knows all
    k tokens, unless the registration declares its own ``goal`` (which
    may also reject the instance — ε-gossip needs k = n).

    ``fault`` selects the fault regime degrading the run, in any form
    :func:`~repro.sim.faults.build_fault` takes: a built model, a
    registered name (``"sleep"``, ``"churn"``, ``"lossy"`` — default
    parameters), or a ``{"kind": ..., **params}`` dict.  ``None`` (the
    default) is the paper's clean model and is byte-identical to runs
    from before the fault layer existed.

    ``timing`` selects the timing regime, in any form
    :func:`~repro.asynchrony.timing.build_timing` takes (names:
    ``"jitter"``, ``"heterogeneous"``, ``"bursty"``).  ``None`` or
    ``"synchronous"`` (the default) is the paper's lock-step round
    structure and runs on the round engine; anything else runs the same
    protocols on the event-driven engine
    (:class:`~repro.asynchrony.engine.AsyncSimulation`) with per-node
    clocks.

    ``engine_mode`` selects the engine front half, by the same rule on
    both engines: ``"auto"`` (the default) takes the fast hooks when the
    algorithm's nodes provide them (bulk hooks on the round engine,
    window hooks on the event-driven one), ``"object"`` forces the
    per-node scalar hooks, and ``"array"`` requires the fast hooks.
    Both produce byte-identical traces; the knob exists for differential
    tests and benchmarks.

    ``trace_max_records`` bounds kept trace records for very long runs
    (see :class:`repro.sim.trace.Trace`).

    ``telemetry`` enables observability (see :mod:`repro.telemetry`):
    ``True``/``"on"``, a ``{"enabled": ..., "stream": path}`` spec dict,
    or a :class:`~repro.telemetry.Telemetry` instance.  ``None`` (the
    default) costs one attribute check per instrumented site and leaves
    every trace byte-identical — telemetry draws zero randomness.  The
    result's :attr:`GossipRunResult.profile` carries the phase table.
    """
    telemetry = resolve_telemetry(telemetry)
    prepared = prepare_run(
        algorithm, dynamic_graph, instance, seed, config, channel_policy,
        fault, telemetry.profiler,
    )
    nodes = prepared.nodes
    timing_model = build_timing(timing, dynamic_graph.n, seed)
    engine_kwargs = dict(
        dynamic_graph=dynamic_graph,
        protocols=nodes,
        b=prepared.b,
        seed=seed,
        channel_policy=prepared.channel_policy,
        faults=prepared.faults,
        gauges=gauges,
        gauge_every=gauge_every,
        trace_sample_every=trace_sample_every,
        trace_max_records=trace_max_records,
        termination_every=termination_every,
        engine_mode=engine_mode,
        telemetry=telemetry,
    )
    with telemetry.profiler.span("build.engine"):
        if timing_model is None:
            sim = Simulation(**engine_kwargs)
        else:
            sim = AsyncSimulation(timing=timing_model, **engine_kwargs)
    with telemetry.profiler.span("run.total"):
        result = sim.run(
            max_rounds=max_rounds, termination=prepared.termination
        )
    report = getattr(prepared.termination, "report", None)
    return GossipRunResult(
        algorithm=algorithm,
        rounds=result.rounds,
        solved=result.terminated,
        trace=result.trace,
        instance=instance,
        nodes=nodes,
        event_counts=result.event_counts,
        telemetry=telemetry,
        goal_report={} if report is None else report(nodes),
    )
