"""The event-driven front half: the mobile telephone model, unsynchronized.

:class:`AsyncSimulation` runs the *same* protocols, acceptance rules,
channels, traces, and termination conditions as the round engine
(:class:`~repro.sim.engine.Simulation`) — and the same run loop: it
overrides only what a round *is*.  A
:class:`~repro.asynchrony.timing.TimingModel` assigns every node a
deterministic schedule of activation instants (integer virtual ticks,
one synchronous round = :data:`~repro.asynchrony.timing.TICKS_PER_ROUND`
ticks); :meth:`AsyncSimulation.step` executes *round window* ``r`` — the
activations with ticks in ``[r·TPR, (r+1)·TPR)`` — and the synchronous
round is the window holding one full cohort.  Each activation executes
one local **scan → propose → accept → connect** cycle:

1. **scan** — the node refreshes its advertisement
   (``advertise(cycle, ...)``, indexed by the node's *local* cycle
   counter, not a global round) and reads its neighbors' *current*
   advertisements — whatever each neighbor last wrote, however stale;
2. **propose** — it may propose to one visible neighbor;
3. **accept** — proposals from nodes activating at the *same instant*
   (a *cohort*) are resolved against each other by the model's
   one-connection matching rule (:mod:`repro.sim.matching` — the exact
   resolvers and acceptance lottery the round engine uses, drawn at the
   cohort's tick); proposal targets need not be
   activating (a phone's radio accepts incoming connections between
   app-level scans);
4. **connect** — matched pairs run the bounded Stage 3 exchange over a
   metered channel, instantaneously.

One window is one trace record, so round-indexed curves stay comparable
across timing models; the async columns (``virtual_time``,
``clock_skew_max``, ``events``) record what the window looked like in
event terms.  Windows are drained one at a time, in order: the timing
contract puts every first activation at tick >= TPR and schedules are
pure functions of (seed, vertex, cycle), so that yields exactly the
cohorts one-event-at-a-time scheduling would.  A window holding no
activation (a bursty pause) still gets its zero record, and
``Simulation.run`` checks termination after it like after any round —
at window boundaries, the same instants the round engine checks.

**The null-model invariant** (the subsystem's load-bearing contract):
under :class:`~repro.asynchrony.timing.Synchronous` timing every cohort
contains all ``n`` nodes at the exact instants ``1·TPR, 2·TPR, ...``,
and the execution is event-for-event identical to the round engine —
same tags, same proposals, same random draws, same matches,
same traces — whichever hooks feed it.  The golden corpus
(tests/test_golden_traces.py) pins it: every ``async/*/synchronous``
case shares its class's digest with the round-engine case, and the
scalar-hooks / window-hooks classes extend the same byte-identity bar
to every timing.

**One executor, one scan**: the schedule is two flat per-vertex arrays
(next activation tick, next local cycle).  Each round window is drained
in one vectorized pass (the timing model's batched draws compute the
whole window's schedule) and its cohorts run in event order through a
*window ops* object, touching Python only where decisions live:
proposal candidates, per-cohort resolution (contested targets draw the
acceptance lottery at the cohort's tick), fault drops, and
interactions.  There everything is plain Python: a member's row is its
snapshot's cached ``(uid tuple, vertex list)`` and published tags are a
list of ints (any ``b``), since numpy loses on degree-sized rows.
Determinism is the hard constraint: no random draw moves.  Every
cohort is scanned just before it proposes, on its members' current
state, so a tag always reflects the transfers and crash resets before
it and each node's private stream interleaves with its Transfer draws
in event order.  Every timing, Synchronous included,
runs through this executor.  ``engine_mode`` picks the ops by the round
engine's rule, with window hooks where the round engine takes bulk
hooks: ``"object"`` the scalar hooks
(:class:`~repro.sim.protocol.ScalarWindowOps`: one ``advertise`` and
one ``propose`` per member), which every population has; ``"array"``
the protocol's *window hooks* (:func:`~repro.sim.protocol.window_hooks`;
SharedBit reads shared-PRF bit tables, BlindMatch keyed coins),
or a :class:`~repro.errors.ConfigurationError`; ``"auto"`` window hooks
when the population has them, else the scalar hooks.  Bulk hooks never
run here: they consume the whole population's streams at once.

The fault layer composes: masks and drop decisions are evaluated per
node at the node's *local* cycle (a duty-cycled phone skips cycles by
its own clock), crash resets fire when a node's own schedule crosses
into an outage, and visibility is judged from the scanning node's clock.

What a cycle *does* is the round engine's code: mask normalisation, tag
checks, the acceptance lottery, fault drops and Stage 3 are
:class:`~repro.sim.engine.Simulation` methods called from the cohort
body below — only *when* a node runs its cycle lives here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.asynchrony.timing import TICKS_PER_ROUND, Synchronous, TimingModel
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.matching import resolve_proposals
from repro.sim.protocol import ScalarWindowOps, window_hooks
from repro.sim.trace import RoundRecord

__all__ = ["AsyncSimulation"]


class AsyncSimulation(Simulation):
    """Drive node protocols from per-node clocks over an event schedule.

    Accepts everything :class:`~repro.sim.engine.Simulation` does plus
    ``timing`` (a built :class:`~repro.asynchrony.timing.TimingModel`;
    ``None`` means the synchronous null model).  ``engine_mode`` picks
    the window ops by the round engine's rule, with window hooks in
    place of bulk hooks: ``"object"`` the scalar hooks, ``"array"``
    window hooks or an error, ``"auto"`` window hooks if the population
    has them.
    """

    _fast_hooks = staticmethod(window_hooks)

    def __init__(self, dynamic_graph, protocols, b: int, seed: int,
                 timing: TimingModel | None = None, **engine_kwargs):
        timing = timing if timing is not None else Synchronous(
            dynamic_graph.n, seed
        )
        if not timing.is_null and timing.n != dynamic_graph.n:
            raise ConfigurationError(
                f"timing model is bound to n={timing.n} but the graph "
                f"has n={dynamic_graph.n}"
            )
        super().__init__(dynamic_graph, protocols, b, seed, **engine_kwargs)
        self.timing = timing
        #: Per-vertex activation totals (the per-node event counts).
        self.event_counts = np.zeros(self.n, dtype=np.int64)
        # Per-vertex local cycle counter (0 = not yet activated) and the
        # node's activity at its last cycle (the crash rule's
        # ``was_active``, per node against its own previous cycle).
        self._local_cycle = np.zeros(self.n, dtype=np.int64)
        self._node_active = np.ones(self.n, dtype=bool)
        # The schedule: each vertex's next pending activation, advanced
        # in bulk through activation_ticks_batch (seeded by the first
        # step()).
        self._next_ticks: np.ndarray | None = None
        self._next_cycles: np.ndarray | None = None
        # Published advertisements ("whatever each neighbor last wrote"),
        # as Python ints: any width b, and cohort rows read them cheaply.
        self._tags = [0] * self.n
        # The window being executed: its bound snapshot, its memos of
        # fault masks and masked snapshots by fault index, and the fault
        # index shared by all its members (None = each member's own
        # local cycle).
        self._window_bound = None
        self._window_masks: dict[int, np.ndarray | None] = {}
        self._window_snapshots: dict = {}
        self._fault_round: int | None = None

    def step(self) -> RoundRecord | None:
        """Execute exactly round window ``current_round + 1`` — drain
        its activations, run them if there are any, emit its record —
        which is all the inherited :meth:`~repro.sim.engine.Simulation.run`
        loop needs of a round."""
        if self._next_ticks is None:
            self._next_cycles = np.ones(self.n, dtype=np.int64)
            self._next_ticks = self.timing.activation_ticks_batch(
                np.arange(self.n, dtype=np.int64), self._next_cycles
            )
        self._round += 1
        rnd = self._round
        with self._prof.span("window.drain"):
            ticks, vertices, cycles = self._drain_window_arrays(
                (rnd + 1) * TICKS_PER_ROUND
            )
        events = len(ticks)
        counts = (0,) * 6
        if events:
            with self._prof.span("window.process"):
                counts = self._process_window(ticks, vertices, cycles)
        with self._prof.span("window.flush"):
            local = self._local_cycle
            return self._observe_round(
                rnd, *counts,
                # The window's last instant; an empty one ends where it
                # starts.
                virtual_time=(
                    int(ticks[-1]) / TICKS_PER_ROUND if events else float(rnd)
                ),
                clock_skew_max=int(local.max()) - int(local.min()),
                events=events,
            )

    def _result(self, terminated: bool) -> SimulationResult:
        result = super()._result(terminated)
        result.event_counts = self.event_counts.copy()
        return result

    def _scalar_hooks(self, engine_mode: str) -> ScalarWindowOps:
        """The scalar hooks as window ops.  They build no
        ``NeighborView`` caches, so the round engine's memory guard does
        not apply; the rows they read are the snapshot's cache
        (``CSRAdjacency.row``), which grows with the vertices that scan."""
        return ScalarWindowOps(self._nodes, self._visible_uids)

    # ------------------------------------------------------------------
    # The schedule

    def _drain_window_arrays(self, boundary: int):
        """All events below ``boundary`` as (ticks, vertices, cycles)
        sorted by (tick, vertex), next activations advanced in bulk.

        Schedules are pure functions of (seed, vertex, cycle) — never of
        execution state — so every drained member's next activation is
        computed *before* any cohort is processed.  Re-draining then
        catches fast clocks that fire twice inside one window, and the
        final (tick, vertex) sort merges the passes into exactly the
        cohort sequence one-event-at-a-time scheduling would produce
        (same-tick arrivals from different passes join one cohort).
        """
        next_ticks = self._next_ticks
        next_cycles = self._next_cycles
        timing = self.timing
        none = np.empty(0, dtype=np.int64)
        parts = [(none, none, none)]
        while True:
            due = np.nonzero(next_ticks < boundary)[0]
            if due.size == 0:
                break
            parts.append((next_ticks[due], due, next_cycles[due]))
            following = next_cycles[due] + 1
            with self._prof.span("window.schedule"):
                next_ticks[due] = timing.activation_ticks_batch(
                    due, following
                )
            next_cycles[due] = following
        ticks, vertices, cycles = (
            np.concatenate(column) for column in zip(*parts)
        )
        order = np.lexsort((vertices, ticks))
        return ticks[order], vertices[order], cycles[order]

    # ------------------------------------------------------------------
    # Window bookkeeping

    def _mask_at(self, index: int):
        """The fault activity mask at one fault index (all-active
        collapses to ``None``), memoized for the window."""
        masks = self._window_masks
        if index not in masks:
            masks[index] = self._reader.mask(index)
        return masks[index]

    def _row(self, vertex: int, cycle: int):
        """``vertex``'s visible neighbourhood at its local ``cycle``, as
        the cached ``(uid tuple, vertex list)`` row of the window's bound
        snapshot under the fault mask judged from the member's own
        clock: an inactive member sees nobody, an active one only its
        awake neighbours."""
        snapshot = self._window_bound
        if self._reader.active:
            index = cycle if self._fault_round is None else self._fault_round
            snapshots = self._window_snapshots
            if index not in snapshots:
                # Once per fault index, not per call: masked_bound's own
                # memo hashes the whole mask to find its entry.
                mask = self._mask_at(index)
                snapshots[index] = (
                    snapshot if mask is None else snapshot.masked_bound(mask)
                )
            snapshot = snapshots[index]
        return snapshot.row(vertex)

    def _visible_uids(self, vertex: int, cycle: int) -> tuple[int, ...]:
        """What the scalar ``advertise`` hook is handed: the UIDs of
        :meth:`_row`, as the round engine's object path passes them."""
        return self._row(vertex, cycle)[0]

    # ------------------------------------------------------------------
    # Window execution

    def _process_window(self, ticks, vertices, cycles) -> tuple:
        """Execute one round window's cohorts in event order.

        ``ticks``/``vertices``/``cycles`` are the window's events sorted
        by (tick, vertex) — the event order.  Each cohort publishes its
        scanned tags in ``self._tags`` before it proposes; candidate
        evaluation reads neighbor tags straight from that list, so
        stale-vs-fresh advertisement semantics fall out of scanning in
        event order.  Returns the window's ``(proposals, connections,
        tokens, bits, dropped, active members)``, the record's leading
        columns.
        """
        ops = self._hooks
        total = len(vertices)
        # Round-parity skew guard (SharedBit, DESIGN.md §7): shared-PRF
        # tag derivation is keyed by each member's *own* local cycle
        # (ops.scan reads the cycle passed with each member), never by a
        # window-level round index — so clock skew beyond one window
        # (heterogeneous rates can put cycles.max() - cycles.min() far
        # past the window span) cannot desynchronize token_bits: two
        # nodes evaluating the same cycle always derive the same bits,
        # and no node is ever handed another clock's cycle.  The
        # invariant that makes that true is that every activation
        # advances its vertex's cycle strictly past its last one.
        assert total == 0 or bool(
            (cycles > self._local_cycle[vertices]).all()
        ), "window member activated at a non-advancing local cycle"
        topo_round = int(ticks[0]) // TICKS_PER_ROUND
        self._window_bound = self._bound_csr(topo_round)
        self._window_masks = {}
        self._window_snapshots = {}
        # Fault clock conversion: a clock="virtual" model keys its
        # decisions off the global round window (ticks // TPR) instead
        # of each node's local cycle, so one fault spec describes the
        # same wall-clock outage schedule here, on the round engine, and
        # on a live repro.net cluster.  Under Synchronous timing (and
        # any timing whose cycle c fires within window c, e.g. jitter
        # < 1) window index == local cycle, so the two clocks coincide
        # and the identity gates are unaffected.
        self._fault_round = topo_round if self._reader.virtual else None

        # Fault activity, per distinct fault index (the member's local
        # cycle, or — for clock="virtual" models — the shared round
        # window, collapsing the whole window to one mask lookup).
        active_flags = np.ones(total, dtype=bool)
        if self._reader.active:
            if self._reader.virtual:
                fault_cycles = np.full(total, topo_round, dtype=np.int64)
            else:
                fault_cycles = cycles
            distinct_cycles = np.unique(fault_cycles).tolist()
            for cycle in distinct_cycles:
                mask = self._mask_at(cycle)
                if mask is not None:
                    sel = fault_cycles == cycle
                    active_flags[sel] = mask[vertices[sel]]

        # Crash resets are known upfront: positions, sorted descending so
        # each is popped off the end before the cohort holding it scans.
        resets: list[int] = []
        if self._reader.resets_state:
            # Each member is judged against its node's activity one cycle
            # earlier: the last window's, or — a fast clock activating
            # twice in this window — what its previous activation here
            # establishes.
            was_active = self._node_active[vertices]
            by_vertex = np.argsort(vertices, kind="stable")
            again = np.nonzero(
                vertices[by_vertex][1:] == vertices[by_vertex][:-1]
            )[0]
            was_active[by_vertex[again + 1]] = active_flags[by_vertex[again]]
            for cycle in distinct_cycles:
                sel = np.nonzero(fault_cycles == cycle)[0]
                crashed = self._reader.crashed(
                    cycle, self._mask_at(cycle), vertices[sel],
                    was_active[sel],
                )
                resets.extend(sel[crashed].tolist())
            resets.sort(reverse=True)

        nodes = self._nodes
        published = self._tags
        # Cohorts are mostly singletons, so each is walked in plain
        # Python (the scan loops its members anyway): per-cohort numpy
        # calls would cost more than the cohort itself.
        tick_list = ticks.tolist()
        vertex_list = vertices.tolist()
        cycle_list = cycles.tolist()
        # Cohort c is bounds[c]:bounds[c + 1], the members sharing a tick.
        bounds = [0, *(np.flatnonzero(np.diff(ticks)) + 1).tolist(), total]
        window_stats = [0, 0, 0, 0, 0]  # proposals, matches, tokens, bits, dropped
        for cohort_start, cohort_end in zip(bounds, bounds[1:]):
            while resets and resets[-1] < cohort_end:
                self._crash_reset(vertex_list[resets.pop()])
            members = vertex_list[cohort_start:cohort_end]
            cohort_tags, cohort_senders = ops.scan(
                members, cycle_list[cohort_start:cohort_end]
            )
            for vertex, tag in zip(members, cohort_tags):
                published[vertex] = self._checked_tag(nodes[vertex], tag)
            cohort_candidates = [
                cohort_start + i
                for i, sender in enumerate(cohort_senders) if sender
            ]
            if cohort_candidates:
                self._execute_cohort(
                    tick_list[cohort_start], cohort_candidates,
                    vertex_list, cycle_list, window_stats,
                )

        # Per-window state updates (a fast clock activating twice in the
        # window: its last activation wins).  Nothing inside the window
        # reads them except crash detection, which took the pre-window
        # values above.
        np.add.at(self.event_counts, vertices, 1)
        np.maximum.at(self._local_cycle, vertices, cycles)
        seen, latest = np.unique(vertices[::-1], return_index=True)
        self._node_active[seen] = active_flags[::-1][latest]

        return (
            *window_stats,
            total if not self._reader.active else int(active_flags.sum()),
        )

    def _execute_cohort(
        self, ticks, candidate_positions, vertices, cycles, window_stats,
    ) -> None:
        """Stage 2 + accept + connect for one cohort's candidates.

        ``vertices``/``cycles`` are the window's members as plain lists.
        Candidates run in ascending position (= vertex) order, each
        reading its visible neighborhood's *current* published tags
        (stale for neighbors that have not activated recently: the
        asynchrony the NWZ model studies); the cohort's proposals then
        resolve against each other with the round engine's resolver
        (its lottery drawn at the cohort's tick), fault
        drops are judged per match at the window (clock="virtual"
        models) or else at the initiator's local cycle — which is also
        the round its channel and interact hook see — and interactions
        run scalar.
        """
        ops = self._hooks
        nodes = self._nodes
        published = self._tags
        proposals: dict[int, int] = {}
        cycle_of_uid: dict[int, int] = {}
        for pos in candidate_positions:
            vertex = vertices[pos]
            cycle = cycles[pos]
            neighbor_uids, neighbor_vertices = self._row(vertex, cycle)
            target = ops.propose_one(
                vertex, cycle, neighbor_uids,
                [published[neighbor] for neighbor in neighbor_vertices],
            )
            if target < 0:
                continue
            uid = nodes[vertex].uid
            if target not in neighbor_uids:
                raise ProtocolViolationError(
                    f"node uid={uid} proposed to uid={target}, not a visible "
                    f"neighbor at virtual time {ticks / TICKS_PER_ROUND:.4f}"
                )
            proposals[uid] = target
            cycle_of_uid[uid] = cycle
        if not proposals:
            return
        matches = resolve_proposals(
            proposals, self._lottery, ticks, rule=self.acceptance
        )
        matches, doomed = self._reader.split(
            self._fault_round, matches, cycle_of_uid
        )
        tokens, bits = self._stage3(None, matches, cycle_of_uid)
        window_stats[0] += len(proposals)
        window_stats[1] += len(matches)
        window_stats[2] += tokens
        window_stats[3] += bits
        window_stats[4] += len(doomed)
