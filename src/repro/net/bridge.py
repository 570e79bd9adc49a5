"""The replay bridge: simulated runs replayed on live clusters.

This is the net layer's keystone correctness instrument.
:func:`record_run` executes a simulation and records the post-drop
match stream plus final token sets.
:func:`replay` then boots a live TCP cluster from the *same* seed and
drives it for the same number of rounds; because

* live nodes are built by the same registered builder from the same
  :class:`~repro.rng.SeedTree` (identical per-node private streams),
* the coordinator phase-barriers scan/propose per round (identical
  per-node draw order), and
* each proposee resolves contention with exactly the simulator's
  acceptance rule and lottery — a pure function of (seed, round, own
  UID),

the live cluster's match stream and final token sets must equal the
simulation's.  :class:`ReplayReport` asserts that, listing any
divergences.  Tolerated divergences (documented in DESIGN.md §8):
within-round match *order* (matches are node-disjoint; both sides are
compared as sets per round) and wall-clock columns, which only the live
trace has.

With a fault model the bridge gets sharper teeth: ``record_run(...,
fault=...)`` records a *faulty* simulation, and ``replay(record,
chaos=True)`` replays it against a cluster where the same seeded
schedule is enacted **physically** by the coordinator's
:class:`~repro.net.chaos.FaultPlan` — PeerServers actually killed and
rebound, radios actually refusing connections, handshakes actually
interdicted mid-round.  Equivalence then certifies not just the clean
round structure but the entire fault pipeline: mask timing, crash
resets, drop draws, and the degradation machinery's non-interference.
(``replay(record)`` without ``chaos`` masks the same schedule
logically, which checks the schedule but not the physical enactment.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import prepare_run
from repro.errors import ConfigurationError
from repro.net.coordinator import Coordinator, NetRunReport
from repro.net.server import check_live_acceptance
from repro.sim.engine import Simulation

__all__ = [
    "RecordedRun",
    "RecordingSimulation",
    "ReplayReport",
    "record_run",
    "replay",
]


class RecordingSimulation(Simulation):
    """A :class:`Simulation` that records the per-round match stream.

    ``_stage3`` receives exactly the matches that survived the fault
    layer's drop decision, so the recorded stream is directly
    comparable to :class:`~repro.net.coordinator.NetRunReport`'s.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.match_stream: list[tuple] = []

    def _stage3(self, rnd: int, matches) -> tuple[int, int]:
        self.match_stream.append(
            tuple((int(a), int(b)) for a, b in matches)
        )
        return super()._stage3(rnd, matches)


@dataclass(frozen=True)
class RecordedRun:
    """A simulated execution, pinned down enough to replay live."""

    algorithm: str
    seed: int
    rounds: int
    solved: bool
    match_stream: tuple
    final_tokens: dict
    acceptance: str
    instance: object
    graph_source: object
    config: object = None
    #: The fault spec (dict/name) the recording ran under, or None.
    #: Kept as a *spec*, not a model instance: both the logical and the
    #: chaos replay rebuild a fresh model from it, so the recording's
    #: consumed streams can never leak into the replay.
    fault: object = None


def _graph_of(graph_source):
    """A fresh dynamic graph: call factories, pass graphs through."""
    return graph_source() if callable(graph_source) else graph_source


def record_run(
    algorithm: str,
    graph_source,
    instance,
    seed: int,
    max_rounds: int = 512,
    *,
    acceptance: str = "uniform",
    config=None,
    fault=None,
) -> RecordedRun:
    """Simulate and record a run the live layer can replay.

    ``graph_source`` is a :class:`~repro.graphs.dynamic.DynamicGraph`
    or a zero-argument factory for one — pass a factory for stateful
    dynamics (mobility) so the recording and the replay each advance a
    fresh object.  ``fault`` is an optional fault *spec* (a registered
    name or a ``{"kind": ...}`` dict — not a model instance, so the
    replay can rebuild it fresh); the recording then captures a faulty
    execution that ``replay(..., chaos=True)`` can re-enact physically.
    ``acceptance`` must be a rule live servers enforce.
    """
    check_live_acceptance(acceptance)
    if fault is not None and not isinstance(fault, (str, dict)):
        raise ConfigurationError(
            "record_run takes a fault *spec* (name or dict), not a model "
            "instance: the replay must rebuild the model from scratch so "
            "the recording's consumed streams cannot leak into it"
        )
    dynamic_graph = _graph_of(graph_source)
    prepared = prepare_run(
        algorithm, dynamic_graph, instance, seed, config, fault=fault
    )
    sim = RecordingSimulation(
        dynamic_graph=dynamic_graph,
        protocols=prepared.nodes,
        b=prepared.b,
        seed=seed,
        channel_policy=prepared.channel_policy,
        acceptance=acceptance,
        faults=prepared.faults,
    )
    result = sim.run(
        max_rounds=max_rounds, termination=prepared.termination
    )
    final_tokens = {
        node.uid: tuple(sorted(node.known_tokens))
        for node in prepared.nodes.values()
    }
    return RecordedRun(
        algorithm=algorithm,
        seed=seed,
        rounds=result.rounds,
        solved=result.terminated,
        match_stream=tuple(sim.match_stream),
        final_tokens=final_tokens,
        acceptance=acceptance,
        instance=instance,
        graph_source=graph_source,
        config=prepared.config,
        fault=fault,
    )


@dataclass
class ReplayReport:
    """The live replay next to its recording, with any divergences."""

    record: RecordedRun
    live: NetRunReport
    divergences: list = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.divergences


def replay(record: RecordedRun, *, chaos: bool = False,
           **opts) -> ReplayReport:
    """Replay ``record`` on a live loopback cluster and compare.

    Drives exactly ``record.rounds`` rounds (termination checks off) so
    the two match streams align round for round, then compares them as
    per-round sets plus the final token sets (``snapshots("all")`` on
    the live side — a node that ends the run mid-outage still has its
    storage compared, exactly as the simulator's final state does).

    A recording made with a fault spec replays under the same schedule:
    masked logically by default, or — with ``chaos=True`` — enacted
    physically (servers killed/rebound, radios asleep, handshakes
    interdicted) by the coordinator's :class:`~repro.net.chaos.FaultPlan`.
    A recording without one cannot replay with ``chaos=True``.
    """
    if record.rounds < 1:
        raise ConfigurationError("recorded run has no rounds to replay")
    coordinator = Coordinator(
        record.algorithm,
        _graph_of(record.graph_source),
        record.instance,
        record.seed,
        config=record.config,
        acceptance=record.acceptance,
        fault=record.fault,
        chaos=chaos,
        termination_every=0,
        **opts,
    )
    with coordinator:
        live = coordinator.run(max_rounds=record.rounds)

    divergences: list[str] = []
    for index, recorded in enumerate(record.match_stream):
        rnd = index + 1
        lived = (
            live.match_stream[index]
            if index < len(live.match_stream)
            else ()
        )
        if set(recorded) != set(lived):
            divergences.append(
                f"round {rnd}: simulated matches {sorted(recorded)} != "
                f"live matches {sorted(lived)}"
            )
    for uid in sorted(record.final_tokens):
        sim_tokens = record.final_tokens[uid]
        live_tokens = live.final_tokens.get(uid)
        if live_tokens != sim_tokens:
            divergences.append(
                f"node {uid}: simulated final tokens {sim_tokens} != "
                f"live {live_tokens}"
            )
    return ReplayReport(record=record, live=live, divergences=divergences)
