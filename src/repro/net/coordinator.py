"""Cluster bootstrap and the live round driver.

:class:`Coordinator` turns any registered (algorithm, topology,
instance) triple into a cluster of :class:`~repro.net.server.PeerServer`
processes-in-threads on localhost, then drives the mobile telephone
model's round structure over TCP: every round runs scan → propose →
accept → connect as request/response messages, and acceptance is
enforced by the proposee (see ``PeerServer._op_resolve``) exactly as
:func:`repro.sim.matching.resolve_proposals` does.  The topology lives
here only: ``propose`` carries each visible neighbor's address and
``connect`` the responder's, so a server holds its node and nothing
else.

A round costs the coordinator ``n·[b > 0] + n + |targets| + |matches|``
requests: an ``advertise`` per node when the run's tag length ``b`` is
positive, a ``propose`` per node, a ``resolve`` per target a proposal
reached and a ``connect`` per match.  With b = 0 (BlindMatch) there is
no tag to read before proposing, so the scan is not a fan-out of its
own: each node's scan runs inside its ``propose`` request.  The server
runs scan before propose for every node, whatever b is (a b ≥ 1
propose finds its scan already done), so each node's hooks run in
model order either way; only the order *across* nodes changes, and
with nothing advertised one node's scan cannot reach another's
proposal.

The coordinator drives rounds; it does not decide them.  Who is awake,
who crashes and which accepted connections survive are answered by the
run's one :class:`~repro.net.chaos.FaultPlan`, which reads the fault
layer's :class:`~repro.sim.faults.FaultReader` (DESIGN.md §6); the run is
resolved by :func:`~repro.core.runner.prepare_run`, and every peer is
addressed through :meth:`Coordinator._reach`; what is left here is I/O.

Termination costs no request.  A token moves only across a Stage-3
connection, and the coordinator drives every connection and orders
every crash reset, so it keeps each node's token count from the built
nodes, the ``connect`` replies (both endpoints' post-connect counts)
and the ``reset`` replies.  Only a node whose count it cannot vouch for
— one side of a failed connect, a suspect rejoining — is read with a
``snapshot`` at the next check.

The coordinator never holds a node lock — all protocol state lives
behind the servers and moves over the wire.  Connects run concurrently
(matches are node-disjoint, so no two touch one node) on one worker
pool kept for the coordinator's lifetime; everything else is
phase-barriered per round, which is what makes each node's private draw
order identical to the simulator's and hence makes the replay bridge's
equivalence assertion hold.

Robustness (the chaos-hardening layer):

* Every RPC goes through a shared :class:`~repro.net.errors.RetryPolicy`
  — bounded retries, exponential backoff, jitter drawn from a seeded
  ``("net", "retry", "coordinator")`` stream, so even the retry timing
  of a run is a pure function of its seed.
* A peer that exhausts its retry budget is marked **suspect**: it is
  dropped from every subsequent stage (neighbors stop seeing it, its
  hooks stop being called) and the round *completes over the surviving
  quorum* instead of hanging or raising.  Each round opens with a
  cheap single-attempt rejoin probe; a suspect that answers rejoins
  the next stages.  Suspicion is the cluster's only liveness rule.
* With ``chaos=True`` the plan enacts the run's fault schedule
  *physically* (killed endpoints, sleeping radios, interdicted
  handshakes) instead of masking it.  Chaos failures are planned, so
  rounds proceed over the planned-active set like the simulator's
  masked rounds (a planned-down node is served in-process); an
  interdicted match is really attempted, and its transport failure is
  classified as a dropped connection.  Unplanned failures still flow
  through the suspect machinery.  With b = 0 a peer that fails its own
  ``propose`` is found out mid-round rather than at Stage 1: it stays
  in the views of the vertices asked before it, whose proposals to it
  come back ``delivered: false`` — lost proposals, as the round already
  counts them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.runner import prepare_run
from repro.errors import ConfigurationError
from repro.net.chaos import FaultPlan
from repro.net.errors import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_RETRY_POLICY,
    ProtocolError,
    RetryPolicy,
    TransportError,
)
from repro.net.framing import request
from repro.net.server import PeerServer
from repro.net.trace import NetTrace
from repro.registry import ALGORITHM_REGISTRY, register_transport
from repro.rng import SeedTree
from repro.sim.channel import ChannelPolicy
from repro.sim.faults import build_fault

__all__ = ["Coordinator", "NetRunReport", "deploy_run"]


@dataclass
class NetRunReport:
    """Outcome of one live cluster run.

    ``match_stream[r-1]`` is round ``r``'s post-drop matches as
    ``(initiator_uid, responder_uid)`` pairs in resolution order —
    directly comparable to a recorded simulation's stream.

    The failure columns: ``retries``/``timeouts`` total every retried
    or timed-out RPC across the coordinator and all servers;
    ``suspects`` maps each still-suspect UID to the round it was marked
    in; ``suspect_events``/``rejoins`` count markings and re-admissions
    over the whole run; ``degraded_rounds`` counts rounds that ran over
    a surviving quorum; ``chaos_kills``/``chaos_revives`` count
    physically enacted outages.
    """

    algorithm: str
    n: int
    rounds: int
    solved: bool
    trace: NetTrace
    match_stream: list = field(default_factory=list)
    final_tokens: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    suspects: dict = field(default_factory=dict)
    suspect_events: int = 0
    rejoins: int = 0
    degraded_rounds: int = 0
    chaos_kills: int = 0
    chaos_revives: int = 0
    #: Final `metrics`-op snapshot per uid (scraped at run end): round
    #: progress, visible neighbors, robustness counters, connect-latency
    #: histogram quantiles.  See ``PeerServer._op_metrics``.
    server_metrics: dict = field(default_factory=dict)

    @property
    def rounds_per_second(self) -> float | None:
        if self.wall_seconds <= 0 or self.rounds == 0:
            return None
        return self.rounds / self.wall_seconds

    @property
    def degraded(self) -> bool:
        """True if any round ran short-handed or ended with suspects."""
        return self.degraded_rounds > 0 or bool(self.suspects)


class Coordinator:
    """Boot a live cluster and drive rounds over real sockets.

    ``fault`` accepts the same forms as ``run_gossip`` and keys its
    masks off the round counter (``clock="cycle"``) or — the live
    layer's reason for the knob — off elapsed wall time in units of
    ``round_duration`` seconds (``clock="virtual"``), so a slow round
    can burn through several fault windows just as a slow phone would.
    By default the schedule is *logical*: the coordinator masks
    vertices in software.

    ``chaos=True`` enacts that schedule **physically** instead (see
    :class:`~repro.net.chaos.FaultPlan`) — killed endpoints, sleeping
    radios, interdicted handshakes — while keeping the same logical
    round structure, so a chaos run is match-equivalent to the same
    seed's simulation.  It needs a ``fault`` to enact.

    ``retry`` is the :class:`~repro.net.errors.RetryPolicy` every RPC
    uses (None = single-shot); a peer that exhausts it is suspected and
    the run degrades gracefully instead of raising.
    """

    def __init__(
        self,
        algorithm: str,
        dynamic_graph,
        instance,
        seed: int,
        *,
        config=None,
        acceptance: str = "uniform",
        channel_policy: ChannelPolicy | None = None,
        fault=None,
        chaos: bool = False,
        retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
        round_duration: float | None = None,
        trace_sample_every: int = 1,
        termination_every: int = 1,
        host: str = "127.0.0.1",
        connect_workers: int = 8,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        faults = build_fault(fault, dynamic_graph.n, seed)
        if chaos not in (False, True) or (chaos and faults is None):
            raise ConfigurationError(
                f"chaos={chaos!r}: chaos is a bool that enacts the run's "
                "fault= schedule physically, and chaos=True needs one"
            )
        defn = ALGORITHM_REGISTRY.get(algorithm)
        if defn.goal is not None:
            raise ConfigurationError(
                f"{algorithm} runs toward its own goal "
                f"({defn.goal.__name__}), which reads node objects; a "
                "live cluster's termination check reads token snapshots "
                "over the wire and can only decide plain gossip"
            )
        if not defn.token_list_stage3:
            raise ConfigurationError(
                f"{algorithm}'s Stage 3 reads responder state beyond its "
                "token list, and a live connect carries only token lists"
            )
        prepared = prepare_run(
            algorithm, dynamic_graph, instance, seed, config, channel_policy
        )
        self.algorithm = algorithm
        self.dynamic_graph = dynamic_graph
        self.instance = instance
        self.seed = seed
        self.config = prepared.config
        #: The run's tag length: with b = 0 there is no tag to read, so
        #: a round sends no Stage-1 request (``run_round``).
        self.b = prepared.b
        self.acceptance = acceptance
        self.round_duration = round_duration
        self.termination_every = termination_every
        self.connect_workers = connect_workers
        self.request_timeout = request_timeout
        self.retry_policy = retry
        self._retry_rng = (
            SeedTree(seed).child("net").stream("retry", "coordinator")
        )
        # Stage-3 workers, kept for the coordinator's lifetime (an
        # executor spawns its threads lazily, on first submit).
        self._connect_pool = ThreadPoolExecutor(max(1, connect_workers))
        self._started = False
        self.servers: dict[int, PeerServer] = {}
        try:
            for vertex in range(instance.n):
                self.servers[vertex] = PeerServer(
                    prepared.nodes[vertex],
                    uid=instance.uid_of(vertex),
                    vertex=vertex,
                    seed=seed,
                    b=prepared.b,
                    acceptance=acceptance,
                    channel_policy=prepared.channel_policy,
                    host=host,
                    request_timeout=request_timeout,
                    retry=retry,
                )
        except BaseException:
            self.stop()  # every PeerServer built so far holds a listener
            raise
        self._by_uid = {
            server.uid: server for server in self.servers.values()
        }
        self.plan = FaultPlan(
            faults, [self.servers[v] for v in range(instance.n)],
            enact=chaos,
        )
        #: Each vertex's token count, None while unknown (``_solved``).
        self._counts: list[int | None] = [
            len(prepared.nodes[v].known_tokens) for v in range(instance.n)
        ]
        self._round = 0     # the round being driven
        #: The last closed round's cluster view (round, suspects,
        #: active, n): the next round's first request to each node
        #: (``advertise``, or ``propose`` when b = 0) carries it.
        self._status: dict | None = None
        self.trace = NetTrace(sample_every=trace_sample_every)
        self.match_stream: list[tuple] = []
        self.suspects: dict[int, int] = {}
        self.suspect_events = 0
        self.rejoins = 0
        self._retries = 0
        self._timeouts = 0
        # Requests this coordinator originated (one per `_ask`, a
        # retried one counted once); locked because Stage 3's connect
        # workers ask concurrently.
        self._requests = 0
        self._requests_lock = threading.Lock()
        self._wall_start: float | None = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "Coordinator":
        for vertex in sorted(self.servers):
            self.servers[vertex].start()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop every server — side by side, since each waits out its
        accept loop's poll interval, and all of them even if one raises
        — then re-raise the first error."""
        with ThreadPoolExecutor(max(1, len(self.servers))) as pool:
            stops = [pool.submit(s.stop) for s in self.servers.values()]
        self._connect_pool.shutdown()
        self._started = False
        for stopped in stops:
            stopped.result()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- RPC plumbing -------------------------------------------------

    def _ask(
        self,
        uid: int,
        obj: dict,
        *,
        retry: RetryPolicy | None | str = "default",
        timeout: float | None = None,
    ) -> dict:
        server = self._by_uid[uid]
        host, port = server.address
        policy = self.retry_policy if retry == "default" else retry
        with self._requests_lock:
            self._requests += 1
        reply = request(
            host,
            port,
            obj,
            timeout=self.request_timeout if timeout is None else timeout,
            retry=policy,
            rng=self._retry_rng,
            on_retry=self._note_retry,
            uid=uid,
        )
        return self._checked(reply, uid, obj)

    @staticmethod
    def _checked(reply: dict, uid: int, obj: dict, how: str = "") -> dict:
        """``reply``, unless the peer answered that the op failed."""
        if "error" in reply:
            raise ProtocolError(
                f"peer {uid} failed {obj.get('op')!r}{how}: "
                f"{reply['error']}",
                uid=uid,
                op=obj.get("op"),
                remote_type=reply.get("error_type"),
            )
        return reply

    def _reach(
        self,
        vertex: int,
        obj: dict,
        *,
        down: str = "local",
        fail: str = "suspect",
        retry: RetryPolicy | None | str = "default",
        timeout: float | None = None,
    ) -> dict | None:
        """The one way to address a peer: its reply, or None if it sat
        this op out.

        A reachable peer is asked over the wire.  A planned-down one
        (the plan holds its endpoint down this round) is served in-process —
        or, with ``down="skip"``, left alone: quorum-only plumbing.  A
        ``TransportError`` is handled as ``fail`` says: ``"suspect"``
        marks the peer and returns None, ``"local"`` falls back to
        in-process (readouts: the phone's storage outlives its radio),
        ``"ignore"`` just returns None (telemetry pushes, which also
        shrug off a remote error).  A suspect is a peer whose request
        already failed, so it gets the ``fail`` treatment without being
        asked.  Round-trip fan-out (a round's requests in flight at
        once) is a change to this method's callers and nothing else.
        """
        uid = self.servers[vertex].uid
        if uid in self.suspects:
            return self._ask_local(vertex, obj) if fail == "local" else None
        if vertex in self.plan.down:
            return self._ask_local(vertex, obj) if down == "local" else None
        try:
            return self._ask(uid, obj, retry=retry, timeout=timeout)
        except TransportError:
            if fail == "local":
                return self._ask_local(vertex, obj)
            if fail == "suspect":
                self._suspect(uid, self._round)
        except ProtocolError:
            if fail != "ignore":
                raise
        return None

    def _ask_local(self, vertex: int, obj: dict) -> dict:
        """In-process dispatch for a planned-down node.

        A killed or sleeping endpoint cannot answer TCP, but the
        simulator still runs every masked node's hooks each round
        (against empty neighborhoods) — so the coordinator runs them
        directly on the server object, preserving per-node private
        stream parity.  The phone's CPU keeps running; only its radio
        is down.
        """
        server = self.servers[vertex]
        return self._checked(server.handle(obj), server.uid, obj, " locally")

    def _note_retry(self, exc: TransportError, attempt: int,
                    delay: float) -> None:
        self._retries += 1
        if exc.kind == "timeout":
            self._timeouts += 1

    def _suspect(self, uid: int, rnd: int) -> None:
        """Mark ``uid`` suspect: dropped from every stage until rejoin."""
        if uid not in self.suspects:
            self.suspects[uid] = rnd
            self.suspect_events += 1

    def _probe_rejoins(self, rnd: int) -> None:
        """One cheap single-attempt probe per suspect, each round.

        A suspect that answers is re-admitted: it participates again
        from this round's stages on, whose messages carry every address
        it needs.  Its token count is unknown: the request that
        suspected it may have failed after its state changed.
        """
        probe_timeout = min(1.0, self.request_timeout)
        for uid in sorted(self.suspects):
            server = self._by_uid[uid]
            if server.dead or server.asleep:
                continue  # endpoint verifiably down; skip the probe
            try:
                self._ask(uid, {"op": "ping"}, retry=None,
                          timeout=probe_timeout)
            except (TransportError, ProtocolError):
                continue
            del self.suspects[uid]
            self._counts[server.vertex] = None
            self.rejoins += 1

    # -- round driver -------------------------------------------------

    def _fault_round(self, rnd: int) -> int:
        """The index the fault schedule keys off for round ``rnd``."""
        if (
            self.plan.reader.virtual
            and self.round_duration
            and self._wall_start is not None
        ):
            elapsed = time.monotonic() - self._wall_start
            return int(elapsed / self.round_duration) + 1
        return rnd

    def run_round(self, rnd: int) -> bool:
        """Drive round ``rnd``; True if it ran a termination check
        (every ``termination_every`` rounds) that found the quorum
        done."""
        uid_of = self.instance.uid_of
        n = self.instance.n
        plan = self.plan
        self._round = rnd
        fault_round = self._fault_round(rnd)
        requests_before = self._requests
        retries_before = self._total("retries")
        timeouts_before = self._total("timeouts")
        rejoins_before = self.rejoins

        if self.suspects:
            self._probe_rejoins(rnd)

        # Planned inactivity (DESIGN.md §6): the coordinator knows the
        # plan, exactly like the simulator, whether it is masked or
        # enacted.  A crashing vertex whose endpoint just went down is
        # reset in-process.
        crashes, killed, revived = plan.begin(fault_round)
        for vertex in crashes:
            reply = self._reach(vertex, {"op": "reset"})
            if reply is not None:
                self._counts[vertex] = reply["count"]

        # The round's topology (the graph caches its CSR rows per epoch,
        # each sorted by vertex); the messages below carry it to the
        # servers.
        csr = self.dynamic_graph.csr_at(rnd)
        indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
        inactive, suspects = plan.inactive, self.suspects

        def up(vertex: int) -> bool:
            return vertex not in inactive and uid_of(vertex) not in suspects

        visible = {
            vertex: (
                [nb for nb in indices[indptr[vertex]:indptr[vertex + 1]]
                 if up(nb)]
                if up(vertex) else []
            )
            for vertex in range(n)
        }

        # Stage 1 — scan.  Every vertex runs its hook (a masked vertex
        # sees an empty neighborhood), mirroring the masked simulator;
        # chaos-inactive vertices run it in-process since their socket
        # is genuinely down.  A vertex that stops answering is
        # suspected and the round continues without it.  The previous
        # round's cluster view rides along: telemetry the model does
        # not contain gets no request of its own.  With b = 0 there is
        # no tag to read: every vertex up at round start has tag 0, and
        # each scans inside its own propose request below.
        rider = {} if self._status is None else {"status": self._status}
        if self.b:
            tags: dict[int, int] = {}
            for vertex in range(n):
                reply = self._reach(vertex, {
                    "op": "advertise",
                    "round": rnd,
                    "neighbors": [uid_of(nb) for nb in visible[vertex]],
                    **rider,
                })
                if reply is not None:
                    tags[uid_of(vertex)] = reply["tag"]
            rider = {}
        else:
            tags = {uid_of(vertex): 0 for vertex in range(n) if up(vertex)}

        # Stage 2a — propose.  Sequential on purpose: each server
        # delivers its proposal peer-to-peer before the next runs, so
        # proposal sends can never form a waiting cycle.  Views carry
        # only neighbors that have a tag this round, each with the
        # address its proposal goes to.  A vertex suspected here leaves
        # the views of those asked after it; those asked before it
        # proposed to it undelivered, a lost proposal.
        proposal_count = 0
        targets: set[int] = set()
        for vertex in range(n):
            views = [
                [uid_of(nb), tags[uid_of(nb)], *self.servers[nb].address]
                for nb in visible[vertex]
                if uid_of(nb) in tags
            ]
            reply = self._reach(vertex, {
                "op": "propose", "round": rnd, "views": views, **rider,
            })
            if reply is None:
                tags.pop(uid_of(vertex), None)
            elif reply["target"] is not None:
                proposal_count += 1
                if reply.get("delivered"):
                    targets.add(int(reply["target"]))

        # Stage 2b — accept, enforced by each proposee.
        matches = []
        for target in sorted(targets):
            reply = self._reach(
                self._by_uid[target].vertex, {"op": "resolve", "round": rnd}
            )
            if reply is not None and reply["winner"] is not None:
                matches.append((int(reply["winner"]), target))

        # Connection drops: pre-dropped, or interdicted and observed for
        # real below.
        matches, dropped = plan.drop(rnd, fault_round, matches)

        # Stage 3 — connect.  Matches are node-disjoint, so concurrent
        # connections never touch one node from two sides.  A failed
        # handshake (interdicted, or the peer died) is a dropped
        # connection this round, not an aborted run; both endpoints'
        # counts are unknown, since the push may have failed after
        # ``interact`` ran.
        tokens_moved = 0
        control_bits = 0

        def connect(match):
            initiator, responder = match
            try:
                reply = self._ask(initiator, {
                    "op": "connect", "round": rnd, "responder": responder,
                    "address": self._by_uid[responder].address,
                })
                return match, reply, None
            except (TransportError, ProtocolError) as exc:
                return match, None, exc

        surviving = []
        counts = self._counts
        if matches:
            if min(self.connect_workers, len(matches)) > 1:
                outcomes = list(self._connect_pool.map(connect, matches))
            else:
                outcomes = [connect(match) for match in matches]
            for match, reply, exc in outcomes:
                initiator, responder = (self._by_uid[u].vertex for u in match)
                if reply is not None:
                    surviving.append(match)
                    tokens_moved += reply["tokens_moved"]
                    control_bits += reply["bits"]
                    counts[initiator], counts[responder] = reply["counts"]
                    self.trace.record_connection(rnd, reply["latency_s"])
                    continue
                counts[initiator] = counts[responder] = None
                dropped += 1
                if isinstance(exc, TransportError):
                    # The initiator itself is unreachable.
                    self._suspect(match[0], rnd)
                elif not exc.transport_related:
                    raise exc  # a real bug, not a broken link
                # else the initiator's Stage-3 pull hit a dead/lossy
                # responder: a failed connection, charged to the link;
                # the responder answers for itself next time something
                # addresses it directly.
        matches = surviving

        solved = bool(
            self.termination_every
            and rnd % self.termination_every == 0
            and self._solved()
        )

        self.match_stream.append(tuple(matches))
        active = sum(1 for vertex in range(n) if up(vertex))
        self._status = {
            "round": rnd,
            "suspects": len(suspects),
            "active": active,
            "n": n,
        }
        self.trace.suspect_events = self.suspect_events
        self.trace.close_round(
            round_index=rnd,
            proposals=proposal_count,
            connections=len(matches),
            tokens_moved=tokens_moved,
            control_bits=control_bits,
            active_nodes=active,
            dropped_connections=dropped,
            requests=self._requests - requests_before,
            retries=self._total("retries") - retries_before,
            timeouts=self._total("timeouts") - timeouts_before,
            suspects=len(suspects),
            rejoins=self.rejoins - rejoins_before,
            chaos_killed=killed,
            chaos_revived=revived,
            degraded=bool(suspects),
        )
        return solved

    def _push_status(self) -> None:
        """Relay the last round's cluster view to every reachable server.

        The coordinator is not itself an endpoint, so ``repro-gossip
        top`` — which polls one *server's* ``metrics`` op — learns the
        cluster round and suspect count only from the coordinator.
        During a run the view rides on the next round's first request
        to each node (``advertise``, or ``propose`` when b = 0); this
        push is for the last one, which has no next round.
        Single-shot and failure-tolerant: telemetry is never worth a
        retry or a suspicion.
        """
        if self._status is None:
            return
        status = {"op": "status", **self._status}
        push_timeout = min(1.0, self.request_timeout)
        for vertex in sorted(self.servers):
            self._reach(vertex, status, fail="ignore", retry=None,
                        timeout=push_timeout)

    def scrape_metrics(self) -> dict[int, dict]:
        """uid -> `metrics`-op snapshot, for every server.

        Reads over the wire when the endpoint answers, in-process when
        it is planned-down, suspect, or fails (its counters still exist).
        """
        return {
            self.servers[vertex].uid: self._reach(
                vertex, {"op": "metrics"}, fail="local"
            )
            for vertex in sorted(self.servers)
        }

    def _total(self, stat: str) -> int:
        """A robustness counter summed over the coordinator's own RPCs
        (retries, timeouts) and every server's."""
        return getattr(self, "_" + stat, 0) + sum(
            s.stats[stat] for s in self.servers.values()
        )

    # -- state readout ------------------------------------------------

    def snapshots(self, include: str = "all") -> dict[int, tuple]:
        """uid -> sorted tuple of known token ids, for every node.

        Read over the wire when the endpoint answers, in-process when it
        is planned-down, suspect, or fails (a crashed phone's *storage*
        still exists, and the simulator's final state includes crashed
        vertices too).
        """
        if include != "all":
            raise ConfigurationError(
                f"snapshots(include=...) must be 'all', got {include!r}"
            )
        return {
            self.servers[vertex].uid: tuple(self._reach(
                vertex, {"op": "snapshot"}, fail="local")["tokens"])
            for vertex in sorted(self.servers)
        }

    def _solved(self) -> bool:
        """Does every quorum node hold every token?  The quorum is the
        nodes neither planned-down nor suspect, and an empty one has not
        finished.  (Degradation-aware: the simulator's all-nodes
        criterion is checked by the replay bridge, which runs a fixed
        round count instead.)  Decided from the count vector; only a
        quorum node whose count is unknown is asked for a snapshot,
        and a node that fails to answer is suspected."""
        complete = len(self.instance.token_ids)
        quorum = []
        for vertex in range(self.instance.n):
            if self._counts[vertex] is None:
                reply = self._reach(vertex, {"op": "snapshot"}, down="skip")
                if reply is not None:
                    self._counts[vertex] = len(reply["tokens"])
            if (vertex not in self.plan.down
                    and self.servers[vertex].uid not in self.suspects):
                quorum.append(self._counts[vertex])
        return bool(quorum) and all(c == complete for c in quorum)

    def run(self, max_rounds: int = 512) -> NetRunReport:
        """Drive rounds until the quorum holds every token (or the cap)."""
        if not self._started:
            raise ConfigurationError(
                "coordinator not started; use `with Coordinator(...)` or "
                "call start() first"
            )
        self._wall_start = time.monotonic()
        started = time.perf_counter()
        solved = False
        rounds = 0
        for rnd in range(1, max_rounds + 1):
            rounds = rnd
            if self.run_round(rnd):
                solved = True
                break
        self._push_status()
        wall = time.perf_counter() - started
        self.trace.wall_seconds = wall
        # Wake/revive everyone before the final readout and stop: the
        # run is over, and the report reads each node's state through
        # the normal path where possible.
        self.plan.restore()
        return NetRunReport(
            algorithm=self.algorithm,
            n=self.instance.n,
            rounds=rounds,
            solved=solved,
            trace=self.trace,
            match_stream=list(self.match_stream),
            final_tokens=self.snapshots(include="all"),
            wall_seconds=wall,
            retries=self._total("retries"),
            timeouts=self._total("timeouts"),
            suspects=dict(self.suspects),
            suspect_events=self.suspect_events,
            rejoins=self.rejoins,
            degraded_rounds=self.trace.degraded_rounds,
            chaos_kills=self._total("kills"),
            chaos_revives=self._total("revives"),
            server_metrics=self.scrape_metrics(),
        )


@register_transport(
    name="tcp",
    description="loopback TCP peer servers: one socket endpoint per node, "
                "length-prefixed JSON framing, seeded retry/backoff with "
                "graceful degradation, optional physical chaos injection "
                "(repro.net)",
)
def deploy_run(
    scenario=None,
    *,
    algorithm: str | None = None,
    dynamic_graph=None,
    instance=None,
    seed: int = 0,
    max_rounds: int = 512,
    chaos: bool = False,
    **opts,
) -> NetRunReport:
    """Deploy a live cluster and run it to completion.

    Pass either a :class:`~repro.workloads.scenarios.Scenario` — or a
    registered scenario name, materialized with the run seed — (its
    topology, instance, recommended algorithm and fault schedule are
    used; overrides via keywords) or the explicit pieces.  This is the
    ``tcp`` transport's registry entry point, shared by ``repro-gossip
    serve`` and ``Experiment.deploy()``.

    The schedule is the ``fault=`` option, else the scenario's; it is
    masked logically, or with ``chaos=True`` enacted physically.
    """
    if isinstance(scenario, str):
        from repro.registry import SCENARIO_REGISTRY

        scenario = SCENARIO_REGISTRY.get(scenario).build(seed=seed)
    if scenario is not None:
        if getattr(scenario, "timing", None) is not None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} uses a timing model; the live "
                "layer is inherently asynchronous and does not replay "
                "simulated clocks"
            )
        algorithm = algorithm or scenario.recommended_algorithm
        dynamic_graph = dynamic_graph or scenario.dynamic_graph
        instance = instance or scenario.instance
        if scenario.fault is not None:
            opts.setdefault("fault", scenario.fault)
    if algorithm is None or dynamic_graph is None or instance is None:
        raise ConfigurationError(
            "deploy_run needs a scenario or all of algorithm, "
            "dynamic_graph, and instance"
        )
    coordinator = Coordinator(
        algorithm, dynamic_graph, instance, seed, chaos=chaos, **opts
    )
    with coordinator:
        return coordinator.run(max_rounds=max_rounds)
