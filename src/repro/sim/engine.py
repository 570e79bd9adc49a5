"""The synchronous round engine for the mobile telephone model.

:class:`Simulation` owns the round loop and enforces the model's rules so
that protocols cannot cheat:

* tags are validated against the tag length ``b`` (with ``b = 0`` only the
  empty tag 0 is legal);
* proposals must name a current neighbor;
* matching follows the one rule in :mod:`repro.sim.matching` (one
  connection per node, proposers cannot receive);
* every connection that may move a token runs over a budget-metered
  channel (one between equal token rows books its bits without one).

Everything is deterministic given the seed: topology evolution, acceptance
draws, and protocol-internal randomness (protocols are constructed with
streams from the same :class:`~repro.rng.SeedTree`).

Both engines read the topology only as the UID-bound CSR snapshot of
the round's epoch (:class:`~repro.sim.adjacency.CSRAdjacency` via
``DynamicGraph.csr_at``), the one form a dynamic graph builds;
``graph_at`` converts it for analysis.  Two
interchangeable front halves drive Stages 1–2 of each round over it:

* the **object path** (the reference): per-node ``advertise``/``propose``
  calls over :class:`~repro.sim.context.NeighborView` skeletons cached
  from the snapshot's rows, resolved by
  :func:`repro.sim.matching.resolve_proposals`;
* the **array path**: when every node provides the bulk hooks
  (:func:`repro.sim.protocol.bulk_hooks`), the engine feeds them the
  snapshot itself and resolves a round's proposals with the same dict
  resolver when there are few of them, and above a measured crossover
  (``_DICT_RESOLVER_MAX_PROPOSALS``) with the array form's core
  (:mod:`repro.sim.matching`), fed each proposal's proposer and target
  vertex as ranks of the bound UIDs.

The two paths are **byte-identical**: same tags, same proposals, same
random draws, same matching, same traces (pinned by the
golden corpus, tests/test_golden_traces.py, whose classes require every
object/array pair to share one recorded digest; its n = 24 rounds fall
under both splits on their own, so it reruns every array-mode round and
fault case with each split forced below zero, through the array resolver
and stage 3's numpy row compare).  ``engine_mode`` picks
the front half by one rule, written once in :class:`Simulation` and
shared by the asynchronous executor, which takes window hooks where
this engine takes bulk hooks: ``"object"`` runs the per-node scalar
hooks, ``"array"`` requires the fast hooks, ``"auto"`` takes them when
the population has them.

An optional :class:`~repro.sim.faults.FaultModel` degrades the clean
model deterministically: its per-round activity mask removes sleeping
vertices from the round's topology on *both* paths (they do not
advertise, cannot be proposed to, and see no neighbors), and its
per-match drop decisions make accepted connections fail before Stage 3.
The mask is an argument of the two front halves, not a second pair of
them: it selects the active subgraph's bound snapshot, which both run
over.
The null model (:class:`~repro.sim.faults.NoFaults`, the default)
consumes zero randomness and leaves every trace byte-identical to an
engine without the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Mapping

import numpy as np

from repro.errors import (
    ConfigurationError,
    MemoryBudgetError,
    ProtocolViolationError,
    RoundLimitExceeded,
)
from repro.graphs.dynamic import DynamicGraph
from repro.sim.arena import BufferArena
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.context import NeighborView
from repro.sim.faults import FaultModel, FaultReader
from repro.sim.matching import (
    TICKS_PER_ROUND,
    _check_rule,
    _match_ranked,
    acceptance_lottery,
    resolve_proposals,
)
from repro.sim.protocol import NodeProtocol, bulk_hooks
from repro.sim.termination import TerminationCondition, never
from repro.sim.trace import RoundRecord, Trace
from repro.telemetry import resolve_telemetry

__all__ = ["Simulation", "SimulationResult", "settled_connections"]

Gauge = Callable[[Mapping[int, NodeProtocol], int], object]

ENGINE_MODES = ("auto", "array", "object")

#: Above this n the object path refuses to build (see
#: :class:`~repro.errors.MemoryBudgetError`): per-vertex NeighborView
#: skeletons, neighbor tuples, and frozensets cost kilobytes per node
#: in Python objects, which silently turns into gigabytes at 10^6.
#: Read when each round engine is built, so raising it moves the guard.
OBJECT_PATH_MAX_N = 200_000

#: Rough per-node cost of the object path's epoch caches and per-node
#: Python state, used for the guard's error message (measured ~2-4 KB
#: per node at average degree 6 on CPython 3.12).
_OBJECT_PATH_BYTES_PER_NODE = 3_000

#: Stage 3 compares the token rows of a round with at most this many
#: matches pair by pair in Python: below the measured crossover
#: (EXPERIMENTS.md PERF-ROWS-SETTLE) one numpy compare's fixed cost
#: loses to the Python compares.
_PER_PAIR_SETTLE_MAX_MATCHES = 20

#: The telemetry counter of connections stage 3 settled by row, without
#: a channel — each moved nothing, the paper's blind-proposal waste.
SETTLED_CONNECTIONS = "engine.settled_connections"

#: The array path resolves a round with at most this many proposals
#: through the dict resolver: below the measured crossover numpy's
#: fixed per-call cost loses to the Python loop.  The array core wins
#: from about 48 proposals when targets are uncontested and from about
#: 112 when most are (the batch lottery's fixed cost); 64 keeps either
#: side's loss near 20 µs a round (EXPERIMENTS.md, PERF-VERTEX-RESOLVE).
_DICT_RESOLVER_MAX_PROPOSALS = 64

_INT64 = np.dtype(np.int64)


def settled_connections(metrics) -> int:
    """:data:`SETTLED_CONNECTIONS` in a metrics registry (0 when
    telemetry was off)."""
    return sum(entry["value"] for entry in metrics.snapshot()
               if entry["name"] == SETTLED_CONNECTIONS)


@dataclass
class SimulationResult:
    """Outcome of a run: how long it took and what the system looked like.

    ``event_counts`` (per-vertex activation totals) is filled in only by
    the asynchronous engine; the round engine activates every node once
    per round, so the column would be redundant there.
    """

    rounds: int
    terminated: bool
    trace: Trace
    nodes: Mapping[int, NodeProtocol]
    event_counts: np.ndarray | None = None


class Simulation:
    """Drive a set of node protocols over a dynamic graph.

    ``protocols`` maps graph vertex (``0..n-1``) to the protocol object for
    the node at that vertex; each protocol carries its own UID, which is
    what other nodes observe (the vertex is an artifact of the simulator).
    """

    #: The fast hooks ``engine_mode`` selects on this engine (the
    #: asynchronous executor takes window hooks instead).
    _fast_hooks = staticmethod(bulk_hooks)

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        protocols: Mapping[int, NodeProtocol],
        b: int,
        seed: int,
        channel_policy: ChannelPolicy | None = None,
        gauges: Mapping[str, Gauge] | None = None,
        gauge_every: int = 1,
        trace_sample_every: int = 1,
        termination_every: int = 1,
        acceptance: str = "uniform",
        engine_mode: str = "auto",
        faults: FaultModel | None = None,
        trace_max_records: int | None = None,
        telemetry=None,
    ):
        if b < 0:
            raise ConfigurationError(f"tag length b must be >= 0, got {b}")
        _check_rule(acceptance)
        if engine_mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine_mode {engine_mode!r}; choose from "
                f"{ENGINE_MODES}"
            )
        # One pass over the population: the node list, its UIDs, and the
        # UID -> vertex index (whose size is the uniqueness check).
        # Vertices are dense 0..n-1, so the hot loop walks lists instead
        # of dict lookups.
        n = dynamic_graph.n
        try:
            nodes = [protocols[vertex] for vertex in range(n)]
        except KeyError:
            nodes = None
        if nodes is None or len(protocols) != n:
            raise ConfigurationError(
                "protocols must be keyed by every vertex 0..n-1"
            )
        uids = [node.uid for node in nodes]
        vertex_of_uid = dict(zip(uids, range(n)))
        if len(vertex_of_uid) != n:
            raise ConfigurationError("node UIDs must be unique")
        if gauge_every < 1 or termination_every < 1:
            raise ConfigurationError(
                "gauge_every and termination_every must be >= 1"
            )
        # The fault layer's reader (repro.sim.faults): on the null model
        # every answer is the clean model's — no mask, no stream,
        # byte-identical traces to an engine without the layer.
        self._reader = FaultReader(faults, dynamic_graph.n)
        self.faults = self._reader.model

        self.dynamic_graph = dynamic_graph
        self.protocols = dict(protocols)
        self.b = b
        self.max_tag = (1 << b) - 1
        self.seed = seed
        self.channel_policy = channel_policy or ChannelPolicy()
        self.gauges = dict(gauges or {})
        self.gauge_every = gauge_every
        self.termination_every = termination_every
        #: "uniform"/"lowest_uid"/"highest_uid" (mobile telephone model) or
        #: "unbounded" (the classical telephone model baseline).
        self.acceptance = acceptance
        self.trace = Trace(
            sample_every=trace_sample_every, max_records=trace_max_records
        )
        # Observability (repro.telemetry): disabled by default — the
        # null bundle's profiler/sink are shared no-ops, so every
        # instrumented site below costs one attribute check.  Telemetry
        # draws zero randomness and never writes engine state: traces
        # are byte-identical with it on or off (the golden corpus's
        # "telemetry on" variant row).
        self.telemetry = resolve_telemetry(telemetry)
        self._prof = self.telemetry.profiler

        self._lottery = acceptance_lottery(seed)
        self._vertex_of_uid = vertex_of_uid
        self._round = 0
        self._nodes = nodes
        self._tags = [0] * n
        # The object path's neighbor caches are keyed on the identity of
        # the bound CSR snapshot they were read from (masked or not): the
        # engine re-binds only when the epoch changes and masked_bound
        # memoizes a repeated mask, so this rebuilds only when the
        # topology or the mask actually changes.  The cached NeighborView
        # skeletons (and their tuples) live until then: each round only
        # the views whose tag actually changed are replaced, and a
        # vertex's tuple is rebuilt only if any of its views changed.
        self._adjacency_for = None
        self._neighbor_vertices: list[tuple[int, ...]] = []
        self._neighbor_uids: list[tuple[int, ...]] = []
        self._neighbor_uid_sets: list[frozenset] = []
        self._views: list[list[NeighborView]] = []
        self._view_tuples: list[tuple[NeighborView, ...]] = []

        # The front half, elected at construction and fixed for the run.
        hooks = None if engine_mode == "object" else self._fast_hooks(
            self._nodes
        )
        if engine_mode == "array" and hooks is None:
            name = self._fast_hooks.__name__
            raise ConfigurationError(
                f"engine_mode='array' but the node population does not "
                f"provide equivalent {name.replace('_', ' ')} (see "
                f"repro.sim.protocol.{name}); use 'auto' or 'object'"
            )
        self.engine_mode = "object" if hooks is None else "array"
        #: The fast hooks, or what runs the scalar hooks (``None`` here:
        #: the object path calls every node itself).
        self._hooks = hooks if hooks is not None else self._scalar_hooks(
            engine_mode
        )
        self._uid_array = np.array(uids, dtype=np.int64)
        # uid_ranking()'s memo for _uid_array, shared by every binding.
        self._uid_ranking: dict = {}
        self._csr_bound = None  # UID-bound CSR for the current epoch
        self._settle_route = None  # see _read_settle_route
        # Per-round scratch buffers for the array front half (and bulk
        # hooks, via the bound snapshot): one allocation per shape, not
        # one per round.
        self._arena = BufferArena()

    @property
    def n(self) -> int:
        return self.dynamic_graph.n

    @property
    def current_round(self) -> int:
        return self._round

    def _scalar_hooks(self, engine_mode: str):
        """The scalar hooks' front half: the object path, whose
        per-vertex caches the memory guard prices, eagerly."""
        if self.n > OBJECT_PATH_MAX_N:
            est_mb = self.n * _OBJECT_PATH_BYTES_PER_NODE // (1 << 20)
            hint = (
                "the node population provides no bulk hooks — port them "
                "(repro.sim.protocol.bulk_hooks)"
                if engine_mode == "auto"
                else "use engine_mode='auto' or 'array'"
            )
            raise MemoryBudgetError(
                f"engine_mode={engine_mode!r} resolved to the object path "
                f"at n={self.n}: per-vertex NeighborView skeletons and "
                f"neighbor tuples would cost roughly {est_mb} MB of Python "
                f"objects (plus proportional per-round churn). {hint}, or "
                f"raise repro.sim.engine.OBJECT_PATH_MAX_N (now "
                f"{OBJECT_PATH_MAX_N}) to at least {self.n} to force it."
            )
        return None

    def run(
        self,
        max_rounds: int,
        termination: TerminationCondition | None = None,
        raise_on_limit: bool = False,
    ) -> SimulationResult:
        """Run until ``termination`` fires or ``max_rounds`` elapse.

        The one run loop: a subclass changes what a round *is* by
        overriding :meth:`step` (the asynchronous engine's round is a
        window of activations), never when termination is checked."""
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        condition = termination or never()
        terminated = False
        while self._round < max_rounds:
            self.step()
            if (
                self._round % self.termination_every == 0
                or self._round == max_rounds
            ) and condition(self.protocols, self._round):
                terminated = True
                break
        if not terminated and raise_on_limit:
            raise RoundLimitExceeded(
                f"no termination within {max_rounds} rounds", trace=self.trace
            )
        return self._result(terminated)

    def _result(self, terminated: bool) -> SimulationResult:
        """What :meth:`run` returns (engines with more to report add
        their columns here)."""
        return SimulationResult(
            rounds=self._round,
            terminated=terminated,
            trace=self.trace,
            nodes=self.protocols,
        )

    def step(self) -> RoundRecord | None:
        """Execute one full round.

        Returns the round's :class:`RoundRecord` when the trace keeps it
        (always with ``trace_sample_every=1``); unsampled rounds update the
        trace totals through a light path and return ``None``.
        """
        self._round += 1
        rnd = self._round
        prof = self._prof
        if prof.enabled:
            with prof.span("round.stages12"):
                proposal_count, matches, dropped, mask = \
                    self._round_stages(rnd)
            with prof.span("round.stage3"):
                tokens_moved, control_bits = self._stage3(rnd, matches)
            with prof.span("round.observe"):
                return self._observe_round(
                    rnd, proposal_count, len(matches), tokens_moved,
                    control_bits, dropped,
                    self.n if mask is None else int(mask.sum()),
                )
        proposal_count, matches, dropped, mask = self._round_stages(rnd)
        tokens_moved, control_bits = self._stage3(rnd, matches)
        return self._observe_round(
            rnd, proposal_count, len(matches), tokens_moved, control_bits,
            dropped, self.n if mask is None else int(mask.sum()),
        )

    def _round_stages(
        self, rnd: int
    ) -> tuple[int, list[tuple[int, int]], int, np.ndarray | None]:
        """Stages 1–2 of round ``rnd`` plus both fault decisions.

        Returns ``(proposal_count, surviving_matches, dropped, mask)``.
        """
        reader = self._reader
        mask = reader.mask(rnd)
        if reader.resets_state:
            # Crashing vertices lose their learned state, in vertex order
            # before the stages, so both front halves see it.
            for vertex in reader.crashes(rnd, mask):
                self._crash_reset(vertex)
        if self._hooks is not None:
            proposal_count, matches = self._stages12_array(rnd, mask)
        else:
            proposal_count, matches = self._stages12_object(rnd, mask)
        matches, doomed = reader.split(rnd, matches)
        return proposal_count, matches, len(doomed), mask

    def _stage3(
        self, rnd: int | None, matches: list[tuple[int, int]],
        cycle_of_uid: Mapping[int, int] | None = None,
    ) -> tuple[int, int]:
        """Stage 3: bounded pairwise interaction over metered channels.

        A pair between equal rows of the population's token columns
        (:meth:`_read_settle_route`; ``TokenColumns.same`` per pair in a
        round of at most ``_PER_PAIR_SETTLE_MAX_MATCHES`` matches, one
        numpy ``TokenColumns.equal`` above) books its machine's equal-set
        outcome, with no channel.  Every other pair runs ``interact``, in
        match order; the channel and the hook see ``rnd`` as their round
        — or, as in ``FaultReader.split``, the initiator's local cycle.
        If one raises, the settled pairs ahead of it are booked and none
        after it, as if each had run ``interact``."""
        if not matches:
            return 0, 0
        route = self._settle_route
        if route is None:
            route = self._settle_route = self._read_settle_route()
        same = flags = None
        if not route:
            flags = repeat(False)
        elif len(matches) <= _PER_PAIR_SETTLE_MAX_MATCHES:
            same = route[0].same
        else:
            columns = route[0]
            rows = np.searchsorted(columns.uids, np.fromiter(
                chain.from_iterable(matches), dtype=np.int64,
                count=2 * len(matches)))
            flags = iter(columns.equal(rows[0::2], rows[1::2]).tolist())
        tokens_moved = control_bits = settled = 0
        nodes, vertex_of = self._nodes, self._vertex_of_uid
        policy = self.channel_policy
        try:
            for initiator_uid, responder_uid in matches:
                if (next(flags) if same is None
                        else same(initiator_uid, responder_uid)):
                    settled += 1
                    continue
                at = cycle_of_uid[initiator_uid] if rnd is None else rnd
                channel = Channel(at, initiator_uid, responder_uid, policy)
                nodes[vertex_of[initiator_uid]].interact(
                    nodes[vertex_of[responder_uid]], channel, at)
                channel.close()
                tokens_moved += channel.tokens_moved
                control_bits += channel.bits.total_bits
        finally:
            if settled:
                machine = route[1]
                outcome = machine.equal_outcome
                machine.count_equal_calls(outcome.eq_calls * settled)
                control_bits += outcome.control_bits * settled
                self.telemetry.metrics.counter(SETTLED_CONNECTIONS).inc(
                    settled)
        return tokens_moved, control_bits

    def _read_settle_route(self) -> tuple:
        """``(columns, machine)`` when every node names that one pair as
        its ``settle_columns`` (so has a row there) — so a pair between
        equal rows runs the stock exchange on a shared machine, which
        moves nothing and draws nothing — and its equal-set outcome fits
        the budget; else ``()``: then every pair runs ``interact``, and
        ``TransferProtocol.locate`` books equal sets itself.  Also ``()``
        under the classical telephone model, whose matches share nodes,
        so an earlier pair's exchange can change a later pair's rows.
        Read once per run, at the first stage 3."""
        route = self._nodes[0].settle_columns()
        if (route is None or self.acceptance == "unbounded"
                or route[1].equal_outcome.control_bits
                > self.channel_policy.max_control_bits
                or any(node.settle_columns() != route for node in self._nodes)):
            return ()
        return route

    def _observe_round(
        self,
        rnd: int,
        proposal_count: int,
        connections: int,
        tokens_moved: int,
        control_bits: int,
        dropped: int,
        active_nodes: int,
        **extra_columns,
    ) -> RoundRecord | None:
        """Fold one round into the trace (record or light path).

        ``extra_columns`` are additional :class:`RoundRecord` fields
        (the asynchrony layer's ``virtual_time``/``clock_skew_max``/
        ``events``); unsampled rounds skip the RoundRecord/gauge-dict
        churn entirely and only bump the trace totals.
        """
        gauges_due = bool(self.gauges) and rnd % self.gauge_every == 0
        if not (
            gauges_due or rnd == 1 or rnd % self.trace.sample_every == 0
        ):
            self.trace.observe(
                rnd, proposal_count, connections, tokens_moved,
                control_bits, dropped,
            )
            return None
        gauges = {}
        if gauges_due:
            gauges = {
                name: fn(self.protocols, rnd) for name, fn in self.gauges.items()
            }
        record = RoundRecord(
            round_index=rnd,
            proposals=proposal_count,
            connections=connections,
            tokens_moved=tokens_moved,
            control_bits=control_bits,
            gauges=gauges,
            active_nodes=active_nodes,
            dropped_connections=dropped,
            **extra_columns,
        )
        self.trace.record(record)
        return record

    def _crash_reset(self, vertex: int) -> None:
        """The node at ``vertex`` crashed: it loses its learned state,
        where its protocol provides ``reset_tokens()``."""
        reset = getattr(self._nodes[vertex], "reset_tokens", None)
        if reset is not None:
            reset()

    def _stages12_object(
        self, rnd: int, mask: np.ndarray | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """Stages 1–2 through per-node hooks (the reference path).

        The neighbor caches are read from the same bound CSR snapshot the
        array path is fed.  Under a fault ``mask`` every node's hooks
        still run — in the same vertex order, which is also a bulk hook's
        scalar-equivalent order — but over the active subgraph's
        snapshot: an inactive vertex sees an empty neighborhood and an
        active vertex sees only its awake neighbors.
        """
        self._refresh_adjacency(self._bound_csr(rnd, mask))
        nodes = self._nodes
        tags = self._tags

        # Stage 1: scan + tag selection.
        for vertex, node in enumerate(nodes):
            tags[vertex] = self._checked_tag(
                node, node.advertise(rnd, self._neighbor_uids[vertex])
            )

        # Stage 2: proposals, with each node seeing neighbor tags.  Views
        # come from the skeleton cache; only views whose tag changed
        # since the previous round are replaced.
        proposals: dict[int, int] = {}
        neighbor_vertices = self._neighbor_vertices
        view_tuples = self._view_tuples
        for vertex, node in enumerate(nodes):
            views = self._views[vertex]
            stale = False
            for i, nv in enumerate(neighbor_vertices[vertex]):
                tag = tags[nv]
                view = views[i]
                if view.tag != tag:
                    views[i] = NeighborView(uid=view.uid, tag=tag)
                    stale = True
            if stale:
                view_tuples[vertex] = tuple(views)
            target = node.propose(rnd, view_tuples[vertex])
            if target is None:
                continue
            if target not in self._neighbor_uid_sets[vertex]:
                raise self._not_a_neighbor(node, target, rnd)
            proposals[node.uid] = target

        # The neighbor check left only proposals with both endpoints
        # active, so resolution itself never needs the mask.
        return len(proposals), resolve_proposals(
            proposals, self._lottery, rnd * TICKS_PER_ROUND,
            rule=self.acceptance,
        )

    def _stages12_array(
        self, rnd: int, mask: np.ndarray | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """Stages 1–2 through bulk hooks over the epoch's CSR snapshot.

        Under a fault ``mask`` the same hooks are fed the active
        subgraph's snapshot instead (inactive rows empty, sleeping
        neighbors removed), rebuilt only when the mask or the epoch
        changes.
        """
        bound = self._bound_csr(rnd, mask)
        advertise_all, propose_all = self._hooks

        # Stage 1: every tag at once, then one vectorized range check.
        with self._prof.span("round.advertise"):
            tags = self._as_int_array(
                advertise_all(self._nodes, rnd, bound), "advertise_all"
            )
        if tags.shape != (self.n,):
            raise ProtocolViolationError(
                f"advertise_all returned shape {tags.shape}; expected "
                f"({self.n},)"
            )
        self._check_tag_array(tags)

        # Stage 2: every proposal at once (-1 = no proposal), then one
        # vectorized is-it-a-neighbor check — the same model rule the
        # object path enforces per node.
        with self._prof.span("round.propose"):
            targets = self._as_int_array(
                propose_all(self._nodes, rnd, bound, tags), "propose_all"
            )
        if targets.shape != (self.n,):
            raise ProtocolViolationError(
                f"propose_all returned shape {targets.shape}; expected "
                f"({self.n},)"
            )
        arena = self._arena
        proposer_mask = arena.take("proposer_mask", self.n, bool)
        np.greater_equal(targets, 0, out=proposer_mask)
        proposals = int(np.count_nonzero(proposer_mask))
        if proposals:
            # Each proposal's edge: the one whose neighbor UID is its
            # source's target.  Scattering hits to their source vertex,
            # unlike a reduceat over indptr segments, stays correct for
            # zero-degree vertices (possible under out-of-tree dynamics
            # even though in-tree graphs are connected).
            sources = bound.edge_sources()
            edge_targets = arena.take("edge_targets", sources.shape, np.int64)
            np.take(targets, sources, out=edge_targets)
            hit = arena.take("edge_hit", sources.shape, bool)
            np.equal(bound.uids, edge_targets, out=hit)
            edges = np.flatnonzero(hit)
            proposer_vertices = sources.take(edges)
            legal = arena.take("legal", self.n, bool)
            legal[:] = False
            legal[proposer_vertices] = True
            bad = proposer_mask & ~legal
            if bad.any():
                vertex = int(np.nonzero(bad)[0][0])
                raise self._not_a_neighbor(
                    self._nodes[vertex], int(targets[vertex]), rnd
                )
            if proposer_vertices.size != proposals:
                # A repeated edge gave a proposer a second hit; its hits
                # are adjacent (edges run in source order).
                first = np.ones(proposer_vertices.size, dtype=bool)
                np.not_equal(proposer_vertices[1:], proposer_vertices[:-1],
                             out=first[1:])
                edges = edges[first]
                proposer_vertices = proposer_vertices[first]

        # As on the object path: `bound` is already the active subgraph,
        # so the legality check left only proposals with both endpoints
        # active.  Small rounds go to the dict form, whose Python loop
        # beats the array form's fixed numpy cost there; both draw the
        # same lottery.
        instant = rnd * TICKS_PER_ROUND
        with self._prof.span("round.resolve"):
            if not proposals:
                matches = []
            elif proposals <= _DICT_RESOLVER_MAX_PROPOSALS:
                matches = resolve_proposals(
                    dict(zip(self._uid_array[proposer_mask].tolist(),
                             targets[proposer_mask].tolist())),
                    self._lottery, instant, rule=self.acceptance,
                )
            else:
                # The array core, fed in vertex space: the proposers are
                # a mask over the bound's distinct UIDs and every edge
                # is legal, so of the public entry's checks only the
                # collision filter is left, and the binding's cached UID
                # ranks key the core's one sort.
                target_vertices = bound.indices.take(edges)
                received = ~proposer_mask.take(target_vertices)
                order, rank = bound.uid_ranking()
                matches = _match_ranked(
                    rank.take(proposer_vertices[received]),
                    rank.take(target_vertices[received]),
                    bound.vertex_uids.take(order),
                    self._lottery, instant, self.acceptance,
                )
        return proposals, matches

    def _bound_csr(self, rnd: int, mask: np.ndarray | None = None):
        """The UID-bound CSR snapshot of round ``rnd``'s epoch, re-bound
        only when the topology changes — or, under a fault ``mask``, its
        active subgraph, which ``masked_bound`` rebuilds only when the
        mask changes.  Both front halves read their round from here."""
        with self._prof.span("round.topology"):
            csr = self.dynamic_graph.csr_at(rnd)
        bound = self._csr_bound
        if bound is None or bound.base is not csr:
            with self._prof.span("round.csr_bind"):
                bound = self._csr_bound = csr.bind_uids(
                    self._uid_array, arena=self._arena,
                    ranking=self._uid_ranking,
                )
            self.telemetry.metrics.gauge("engine.arena_bytes").set(
                self._arena.nbytes()
            )
        if mask is not None:
            with self._prof.span("round.csr_bind"):
                bound = bound.masked_bound(mask, keep=1)
        return bound

    def _checked_tag(self, node: NodeProtocol, tag) -> int:
        """``tag`` if it is legal under the tag length ``b``."""
        if not isinstance(tag, int) or not 0 <= tag <= self.max_tag:
            raise ProtocolViolationError(
                f"node uid={node.uid} advertised tag {tag!r}; "
                f"legal range with b={self.b} is [0, {self.max_tag}]"
            )
        return tag

    def _check_tag_array(self, tags: np.ndarray) -> None:
        """Array form of :meth:`_checked_tag`: ``tags[v]`` was advertised
        by vertex ``v``."""
        bad = (tags < 0) | (tags > self.max_tag)
        if bad.any():
            vertex = int(np.nonzero(bad)[0][0])
            self._checked_tag(self._nodes[vertex], int(tags[vertex]))

    @staticmethod
    def _not_a_neighbor(node: NodeProtocol, target: int, rnd: int):
        return ProtocolViolationError(
            f"node uid={node.uid} proposed to uid={target}, not an "
            f"active neighbor in round {rnd}"
        )

    @staticmethod
    def _as_int_array(values, hook: str) -> np.ndarray:
        """Coerce a bulk-hook result to int64, refusing non-integer
        dtypes — the array twin of the object path's ``isinstance(tag,
        int)`` check (a silent float->int cast would let through values
        the reference path rejects)."""
        if type(values) is np.ndarray and values.dtype == _INT64:
            return values
        array = np.asarray(values)
        if not np.issubdtype(array.dtype, np.integer):
            raise ProtocolViolationError(
                f"{hook} returned dtype {array.dtype}; bulk hooks must "
                "return integer arrays"
            )
        return array.astype(np.int64, copy=False)

    def _refresh_adjacency(self, bound) -> None:
        """Point the object path's neighbor caches at the rows of
        ``bound``, a UID-bound snapshot (rows sorted by vertex)."""
        if bound is self._adjacency_for:
            return
        self._adjacency_for = bound
        indptr = bound.indptr.tolist()
        indices = bound.indices.tolist()
        edge_uids = bound.uids.tolist()
        rows = list(zip(indptr, indptr[1:]))
        self._neighbor_vertices = [tuple(indices[a:b]) for a, b in rows]
        self._neighbor_uids = [tuple(edge_uids[a:b]) for a, b in rows]
        self._neighbor_uid_sets = [
            frozenset(uids) for uids in self._neighbor_uids
        ]
        # View skeletons.  UIDs are fixed until the next rebuild; tags
        # start at 0 (already correct for b = 0 protocols, so their view
        # tuples are built once and reused verbatim) and are refreshed
        # in place by :meth:`_stages12_object` as nodes change what they
        # advertise.
        self._views = [
            [NeighborView(uid=uid, tag=0) for uid in uids]
            for uids in self._neighbor_uids
        ]
        self._view_tuples = [tuple(views) for views in self._views]
