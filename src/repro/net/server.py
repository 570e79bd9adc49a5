"""A live peer server wrapping one registered protocol node.

Each :class:`PeerServer` owns exactly one protocol object (the *same*
class the simulator builds — PPushNode, BlindMatchNode, SharedBitNode,
...) and nothing about the topology: as in the model, a node learns its
neighbors from each round's scan, so every address it contacts arrives
in the round message that names it.  It exposes the mobile telephone
model's round primitives as request/response operations over the
framing protocol:

========== ==========================================================
op          meaning
========== ==========================================================
advertise   run the node's scan-stage hook, reply with its b-bit tag
            (an optional ``"status"`` key carries the coordinator's
            view of the previous round, stored as ``status`` would);
            sent only when b > 0
propose     run the scan hook if this round's has not run (always,
            when b = 0), then the propose hook over this round's
            views — each ``[uid, tag, host, port]`` — and deliver the
            proposal to the target's address peer-to-peer (carries
            the ``"status"`` rider when b = 0)
proposal    (peer-to-peer) record an incoming proposal for a round
resolve     proposee-enforced acceptance over the round's inbox —
            exactly ``resolve_proposals`` semantics (proposals to
            proposers are lost; ties break by the registered
            acceptance rule, drawing the simulator's lottery)
connect     initiator-side Stage 3: pull the token list at the
            responder's ``address``, run ``interact`` against a
            remote-peer adapter under the metered
            :class:`~repro.sim.channel.Channel`, push the responder's
            new tokens back, reply with both token counts
========== ==========================================================

plus ``ping``, state transfer (``state_pull``/``state_push``/
``snapshot``/``reset``; every protocol's state is a token list), and
live introspection: every server carries a
:class:`~repro.telemetry.MetricsRegistry` (connect-latency histogram,
robustness counters) and answers ``metrics`` with a one-shot status
snapshot — round progress, visible-neighbor count, inbox depth,
retry/timeout counters, latency quantiles, plus the cluster-level view
(round, suspect count) the coordinator last sent, as the ``"status"``
rider of an ``advertise`` (of a ``propose`` when b = 0) or as a
``status`` op of its own — which is what ``repro-gossip top`` polls.

Scan before propose is the server's invariant, not the caller's: a
node's scan hook runs exactly once per round and before its propose
hook, whether an ``advertise`` ran it (b > 0: the coordinator's Stage 1
fan-out) or the ``propose`` request did (b = 0: nothing to advertise,
so no Stage-1 request; a round costs the coordinator n + |targets| +
|matches| requests instead of 2n + |targets| + |matches|).

Lock discipline: the node lock is **never held across an outbound
network call**.  ``propose`` computes the target under the lock, then
delivers the proposal with the lock released; ``connect`` pulls remote
state first, runs ``interact`` locally under the lock, then pushes
deltas.  Matches are node-disjoint within a round, so concurrent
connects never contend for one node from two sides.

Robustness: every outbound call goes through :meth:`PeerServer.call_peer`
— per-op timeouts and bounded retries with seeded exponential backoff
(:class:`~repro.net.errors.RetryPolicy`) — and the round ops are
**idempotent per round** (:meth:`PeerServer._once`: the first attempt
claims the op, a retry racing it waits for its reply, later ones get the
cached reply; incoming proposals dedup by sender), so a caller whose
reply was lost to a timeout can safely retry: at-least-once delivery,
at-most-once execution of each protocol hook.  Proposal delivery failure
is reported (``delivered: false``) instead of aborting the round.

Chaos hooks (driven by :class:`~repro.net.chaos.FaultPlan`):
:meth:`kill` tears the TCP endpoint down abruptly (SIGKILL-style — no
handler draining) and :meth:`revive` rebinds the *same* port, the one
the round messages name; :attr:`asleep` makes the endpoint drop every
connection without replying (a duty-cycled radio); and
:meth:`interdict` makes one round's Stage-3 state pull from a specific
initiator fail at the socket level (a lossy link).

Determinism: a server settles a contested inbox with the simulator's own
acceptance function (:func:`~repro.sim.matching.lottery_winner` on the
run's :func:`~repro.sim.matching.acceptance_lottery`, at round ``r``'s
instant), which needs only the run seed, the round number and its own
UID — so the proposee reproduces the simulator's coin flips exactly.
That is what makes the replay bridge's equivalence assertion possible.
Retry backoff jitter draws from a separate ``("net", "retry", uid)``
subtree, so robustness machinery never perturbs protocol streams.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
import weakref

from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.net.errors import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_RETRY_POLICY,
    ProtocolError,
    RetryPolicy,
    THREAD_JOIN_TIMEOUT,
    TransportError,
)
from repro.net.framing import (
    READ_SIZE,
    close_pooled,
    recv_msg,
    request,
    send_msg,
)
from repro.rng import SeedTree
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.context import NeighborView
from repro.sim.engine import Simulation
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    TICKS_PER_ROUND,
    acceptance_lottery,
)
from repro.telemetry import MetricsRegistry

__all__ = ["PeerServer"]

logger = logging.getLogger(__name__)

#: How many rounds of per-round state (op-reply cache, own proposal,
#: proposal inbox, interdictions) a server keeps, the newest included
#: (``PeerServer._expire``).  Retries only ever target the current
#: round; eight is slack.
ROUND_MEMORY = 8


class _ChaosInterdicted(Exception):
    """Internal: drop this connection without replying (lossy link)."""


def check_live_acceptance(acceptance: str) -> None:
    """Refuse an acceptance rule a proposee cannot enforce alone:
    ``"unbounded"`` has no per-inbox winner to reply with."""
    if acceptance not in ACCEPTANCE_RULES:
        raise ConfigurationError(
            f"unknown acceptance rule {acceptance!r}; live servers "
            f"support {sorted(ACCEPTANCE_RULES)}"
        )


def proposee_winner(acceptance: str, lottery, uid: int, rnd: int,
                    senders: list[int]) -> int:
    """The proposer node ``uid`` accepts in round ``rnd`` among
    ``senders`` (ascending, one or more): the simulator's acceptance
    rule, with the lottery drawn at the round's instant."""
    return ACCEPTANCE_RULES[acceptance](
        senders, uid, lottery, rnd * TICKS_PER_ROUND
    )


def _wire_tokens(tokens) -> list:
    """The state codec: tokens as ``[token_id, payload, origin_uid]``."""
    return [[t.token_id, t.payload, t.origin_uid] for t in tokens]


class _RemotePeer:
    """Stand-in for a remote node during ``interact``.

    Every protocol's ``interact`` reads its responder through the
    token-holder interface (``known_tokens``, ``has_token``,
    ``token(id)``) and changes it only through ``store_token``; this
    adapter serves that interface from a pulled token list and records
    stores as the tokens to push back.
    """

    def __init__(self, tokens: list):
        self._tokens = {
            int(tid): Token(int(tid), payload, int(origin))
            for tid, payload, origin in tokens
        }
        self.received: list[Token] = []

    @property
    def known_tokens(self) -> frozenset:
        return frozenset(self._tokens)

    def has_token(self, token_id: int) -> bool:
        return token_id in self._tokens

    def token(self, token_id: int) -> Token:
        return self._tokens[token_id]

    def store_token(self, token: Token) -> None:
        if token.token_id not in self._tokens:
            self._tokens[token.token_id] = token
            self.received.append(token)


class _Handler(socketserver.BaseRequestHandler):
    """One thread per *connection*: read a frame, dispatch, reply, then
    park (:meth:`PeerServer._await_frame`) until the next frame or a
    hang-up; ``handler_timeout`` bounds the idle wait and a stalled
    frame alike.  Every abnormal exit (bad frame, sleeping radio, chaos
    interdiction) closes this connection only — the caller's pool finds
    the socket stale and reconnects."""

    def handle(self):
        peer_server = self.server.peer_server
        peer_server._handler_threads.add(threading.current_thread())
        sock = self.request
        sock.settimeout(peer_server.handler_timeout)
        try:
            while head := peer_server._await_frame(sock):
                try:
                    msg = recv_msg(sock, head)
                except (TransportError, OSError):
                    return
                if peer_server.asleep:
                    # Duty-cycled radio, checked per frame: the frame
                    # is read, so the hang-up is a clean FIN and the
                    # caller sees closed-without-reply ("eof").
                    return
                try:
                    reply = peer_server.handle(msg)
                except _ChaosInterdicted:
                    return  # lossy link: abrupt close, no reply frame
                except Exception as exc:  # surfaced to the caller
                    reply = {
                        "error": f"{type(exc).__name__}: {exc}",
                        "error_type": type(exc).__name__,
                    }
                try:
                    send_msg(sock, reply)
                except (TransportError, OSError):
                    return
        finally:
            with peer_server._conn_lock:
                peer_server._conns.pop(sock, None)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class PeerServer:
    """One protocol node behind a threaded TCP endpoint."""

    def __init__(
        self,
        node,
        *,
        uid: int,
        vertex: int,
        seed: int,
        b: int,
        acceptance: str = "uniform",
        channel_policy: ChannelPolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
    ):
        check_live_acceptance(acceptance)
        self.node = node
        self.uid = uid
        self.vertex = vertex
        self.acceptance = acceptance
        self.channel_policy = channel_policy or ChannelPolicy.for_upper_n(
            max(uid, 1)
        )
        self.max_tag = (1 << b) - 1
        self.request_timeout = request_timeout
        #: Handler-socket inactivity bound: a client that connects and
        #: never finishes its frame cannot pin a handler thread forever.
        self.handler_timeout = max(4 * request_timeout, 10.0)
        self.retry_policy = retry
        #: How many neighbors the last scan named visible.
        self._visible = 0
        self._lottery = acceptance_lottery(seed)
        # Backoff jitter draws from a dedicated subtree: robustness
        # machinery must never touch the protocol streams or the lottery.
        self._retry_rng = SeedTree(seed).child("net").stream("retry", uid)
        self._lock = threading.RLock()
        self._proposed: dict[int, int | None] = {}
        self._inbox: dict[int, set[int]] = {}
        #: Per-round reply cache making the round ops idempotent under
        #: caller retries (a reply lost to a timeout must not re-run a
        #: protocol hook or re-deliver a proposal on retry).
        self._op_cache: dict[tuple, dict] = {}
        #: Round ops in flight (``_once``); ``_settled`` is notified as
        #: each one ends.
        self._claims: set[tuple] = set()
        self._settled = threading.Condition(self._lock)
        #: (round, initiator_uid) pairs whose Stage-3 state pull this
        #: server must fail at the socket level (chaos lossy links).
        self._interdicted: set[tuple[int, int]] = set()
        self.stats = {
            "retries": 0,
            "timeouts": 0,
            "failed_deliveries": 0,
            "kills": 0,
            "revives": 0,
        }
        # Live introspection: always-on (the live layer is wall-clock
        # territory anyway — no determinism contract to protect), read
        # by the `metrics` op and scraped into NetRunReport.
        self.metrics = MetricsRegistry()
        self._latency_hist = self.metrics.histogram(
            "net.connect_latency_s", uid=uid
        )
        self._last_round = 0
        #: Cluster-level view last sent by the coordinator (`_op_status`):
        #: round, suspect count, active count — what lets any single
        #: server answer `repro-gossip top` for the cluster.
        self._cluster_status: dict = {}
        self._handler_threads: weakref.WeakSet = weakref.WeakSet()
        #: Established handler sockets -> parked between frames?  What
        #: ``stop``/``kill`` hang up on: a persistent connection would
        #: otherwise outlive its listener.
        self._conns: dict[socket.socket, bool] = {}
        self._conn_lock = threading.Lock()
        self._server = _TCPServer((host, port), _Handler)
        self._server.peer_server = self
        self._bound = self._server.server_address[:2]
        self._thread: threading.Thread | None = None
        self._dead = False
        self.asleep = False

    # -- lifecycle ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        # The bound address is remembered across kill/revive, so the
        # address the coordinator hands out outlives an outage.
        return self._bound

    @property
    def dead(self) -> bool:
        """True between :meth:`kill` (or :meth:`stop`) and :meth:`revive`."""
        return self._dead

    def start(self) -> "PeerServer":
        self._thread = threading.Thread(
            # A short poll interval keeps kill() prompt: shutdown()
            # blocks until the accept loop notices the flag.
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"peer-{self.uid}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = THREAD_JOIN_TIMEOUT) -> int:
        """Stop serving; returns the number of threads that leaked.

        Joins the accept loop and every in-flight handler thread within
        ``timeout`` seconds total.  Threads still alive after that are
        *reported* — counted in the return value, logged, and added to
        ``stats["leaked_threads"]`` — instead of silently abandoned.
        """
        # The idle sockets this process pooled to the address (stale
        # ones a kill left behind included) are fds nobody checks out
        # again: closing them here holds a standalone server's count flat.
        close_pooled([self.address])
        if self._dead:
            return self._count_leaked(log=False)
        self._hang_up(idle_only=True)
        deadline = time.monotonic() + timeout
        if self._thread is not None:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if not self._thread.is_alive():
                self._thread = None
        for thread in list(self._handler_threads):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if thread.is_alive():
                thread.join(timeout=remaining)
        return self._count_leaked(log=True)

    def _hang_up(self, idle_only: bool) -> None:
        """Mark the server dead and wake its handlers: ``shutdown``
        unblocks a ``recv``; the handler closes the fd on its way out.
        ``idle_only`` (graceful stop) spares mid-frame connections — an
        in-flight request finishes and exits at the next
        :meth:`_await_frame`; one pinned by a half-sent frame is
        reported as leaked rather than cut."""
        with self._conn_lock:
            self._dead = True
            doomed = [s for s, idle in self._conns.items()
                      if idle or not idle_only]
        for sock in doomed:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client hung up first

    def _await_frame(self, sock) -> bytes:
        """Park a handler in the first read of its next frame and
        return what that read brought (``recv_msg`` takes it from
        there); empty when the connection is over (EOF, idle timeout,
        server down)."""
        with self._conn_lock:
            if self._dead:
                return b""
            self._conns[sock] = True
        try:
            return sock.recv(READ_SIZE)
        except OSError:
            return b""
        finally:
            with self._conn_lock:
                self._conns[sock] = False

    def _count_leaked(self, log: bool) -> int:
        leaked = sum(
            1 for t in list(self._handler_threads) if t.is_alive()
        )
        if self._thread is not None and self._thread.is_alive():
            leaked += 1
        self.stats["leaked_threads"] = leaked
        if leaked and log:
            logger.warning(
                "peer server uid=%d stopped with %d thread(s) failing to "
                "join within the timeout", self.uid, leaked,
            )
        return leaked

    def kill(self) -> None:
        """SIGKILL-style termination: tear the endpoint down abruptly.

        No handler draining, no leak accounting — the process is gone.
        In-flight requests fail at their callers as transport faults;
        subsequent connections are refused.  The node object (the
        phone's storage) survives in-process for :meth:`revive`.
        """
        if self._dead:
            return
        self._hang_up(idle_only=False)
        self.stats["kills"] += 1
        if self._thread is not None:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def revive(self) -> None:
        """Rejoin after :meth:`kill`: rebind the same port and serve.

        The next round message brings everything the node needs; an
        unplanned outage is re-admitted by the coordinator's rejoin
        probe.
        """
        if not self._dead:
            return
        self._server = _TCPServer(self._bound, _Handler)
        self._server.peer_server = self
        self._dead = False
        self.asleep = False
        self.stats["revives"] += 1
        self.start()

    def __enter__(self) -> "PeerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- chaos shims --------------------------------------------------

    def interdict(self, rnd: int, initiator_uid: int) -> None:
        """Make round ``rnd``'s Stage-3 pull from ``initiator_uid`` fail.

        The interdicted state pull is dropped at the socket level (no
        reply frame), so the initiator experiences a real mid-handshake
        link failure.
        """
        with self._lock:
            self._expire(rnd)
            self._interdicted.add((rnd, initiator_uid))

    # -- dispatch -----------------------------------------------------

    def handle(self, msg: dict) -> dict:
        op = msg.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"error": f"unknown op {op!r}"}
        return handler(msg)

    def _once(self, key: tuple, compute) -> dict:
        """At-most-once execution for retried round ops.

        The first caller claims ``key`` and runs ``compute`` with the
        node lock released: ``compute`` takes the lock around protocol
        hooks and makes its ``call_peer`` I/O outside it.  A retry that
        races the claim waits for the claimant's reply; a later one gets
        the cached reply.  A raising ``compute`` caches nothing, so the
        next caller runs it afresh."""
        with self._lock:
            self._expire(key[1])
            while key in self._claims:
                self._settled.wait()
            reply = self._op_cache.get(key)
            if reply is not None:
                return reply
            self._claims.add(key)
        reply = None
        try:
            reply = compute()
            return reply
        finally:
            with self._lock:
                if reply is not None:
                    self._op_cache[key] = reply
                self._claims.remove(key)
                self._settled.notify_all()

    def _expire(self, rnd: int) -> None:
        """Forget rounds older than ``ROUND_MEMORY``, once per round.

        Called under the node lock by everything that stores per-round
        state; only the first op naming a round higher than any seen
        does the work.  One rule for all four stores, so a round the
        coordinator skipped or never resolved (a proposal that landed
        while its proposer's ack was lost) ages out with the rest.
        """
        if rnd <= self._last_round:
            return
        self._last_round = rnd
        horizon = rnd - ROUND_MEMORY
        for store in (self._proposed, self._inbox):
            for stale in [r for r in store if r <= horizon]:
                del store[stale]
        for stale in [k for k in self._op_cache if k[1] <= horizon]:
            del self._op_cache[stale]
        self._interdicted = {
            entry for entry in self._interdicted if entry[0] > horizon
        }

    def call_peer(
        self,
        uid: int,
        address,
        obj,
        *,
        retry: RetryPolicy | None | str = "default",
        timeout: float | None = None,
    ) -> dict:
        """One robust outbound RPC to peer ``uid`` at ``(host, port)``.

        Applies this server's :class:`~repro.net.errors.RetryPolicy`
        (override with ``retry=None`` for single-shot calls such as
        Stage-3 pulls), counts retries/timeouts in :attr:`stats`, and
        raises :class:`~repro.net.errors.ProtocolError` when the peer
        replies with an op-level error.
        """
        host, port = address
        policy = self.retry_policy if retry == "default" else retry
        reply = request(
            host,
            int(port),
            obj,
            timeout=self.request_timeout if timeout is None else timeout,
            retry=policy,
            rng=self._retry_rng,
            on_retry=self._note_retry,
            uid=uid,
        )
        if "error" in reply:
            raise ProtocolError(
                f"peer {uid} rejected {obj.get('op')!r}: "
                f"{reply['error']}",
                uid=uid,
                op=obj.get("op"),
                remote_type=reply.get("error_type"),
            )
        return reply

    def _note_retry(self, exc: TransportError, attempt: int,
                    delay: float) -> None:
        self.stats["retries"] += 1
        if exc.kind == "timeout":
            self.stats["timeouts"] += 1

    # -- cluster plumbing ---------------------------------------------

    def _op_ping(self, msg: dict) -> dict:
        return {"ok": True, "uid": self.uid, "vertex": self.vertex}

    def _op_status(self, msg: dict) -> dict:
        """The coordinator's cluster-level view (round, suspects).

        Stored so any single endpoint can answer ``metrics`` with
        cluster context — the coordinator is not itself a server, so
        ``repro-gossip top`` needs some peer to relay its view.  It
        arrives as the ``"status"`` rider of the next round's
        ``advertise`` or, when b = 0, ``propose`` (and once, as its own
        op, when a run ends), so it is checked here: a malformed view is
        this op's error, not something ``top`` trips over later.
        """
        if not isinstance(msg, dict):
            raise ProtocolError(
                f"status view must be an object, got {type(msg).__name__}",
                uid=self.uid, op="status",
            )
        view = {}
        for key in ("round", "suspects", "active", "n"):
            if key in msg:
                value = view[key] = msg[key]
                if type(value) is not int:  # JSON's true is not a count
                    raise ProtocolError(
                        f"status view has {key}={value!r}, not a count",
                        uid=self.uid, op="status",
                    )
        with self._lock:
            self._cluster_status = view
        return {"ok": True}

    def _op_metrics(self, msg: dict) -> dict:
        """One-shot introspection snapshot (what ``top`` polls).

        ``round`` is the highest round any op has named to this node;
        ``cluster`` is the coordinator's last view (empty until round
        two's ``advertise`` — ``propose`` when b = 0 — brings round
        one's; during a run it trails ``round`` by one).  ``latency``
        carries the connect-latency histogram's exact count/sum/min/max
        plus windowed p50/p99.
        """
        with self._lock:
            inbox_depth = sum(
                len(senders) for senders in self._inbox.values()
            )
            return {
                "uid": self.uid,
                "vertex": self.vertex,
                "round": self._last_round,
                "neighbors": self._visible,
                "inbox": inbox_depth,
                "asleep": self.asleep,
                "stats": dict(self.stats),
                "latency": self._latency_hist.snapshot(),
                "cluster": dict(self._cluster_status),
            }

    # -- round structure ----------------------------------------------

    def _op_advertise(self, msg: dict) -> dict:
        rnd = int(msg["round"])
        self._take_status(msg)
        return self._scan(
            rnd, tuple(int(u) for u in msg.get("neighbors", ()))
        )

    def _take_status(self, msg: dict) -> None:
        """Store the previous round's cluster view, if ``msg`` carries
        one as its ``"status"`` rider instead of costing a request of its
        own.  Stored outside the reply cache: a retried round op
        re-stores the same view and still never re-runs a hook."""
        if "status" in msg:
            self._op_status(msg["status"])

    def _scan(self, rnd: int, neighbor_uids: tuple[int, ...]) -> dict:
        """Run round ``rnd``'s scan hook at most once: ``{"tag": ...}``."""

        def compute():
            with self._lock:
                self._visible = len(neighbor_uids)
                tag = int(self.node.advertise(rnd, neighbor_uids))
            if not 0 <= tag <= self.max_tag:
                raise ConfigurationError(
                    f"node {self.uid} advertised tag {tag} outside "
                    f"[0, {self.max_tag}]"
                )
            return {"tag": tag}

        return self._once(("advertise", rnd), compute)

    def _op_propose(self, msg: dict) -> dict:
        """Run the propose hook over this round's views and deliver the
        proposal to the address the target's view carries.  A target
        outside the views breaks the model's neighbor rule, as it does
        in the simulator; an undeliverable proposal is lost, the round
        is not (``delivered: false``).

        Scan comes first: the round's scan hook runs here, over the
        views' UIDs, unless an ``advertise`` already ran it (b ≥ 1;
        the op cache answers).  With b = 0 the coordinator sends no
        ``advertise``, so this is where the scan runs, and where the
        cluster view rides."""
        rnd = int(msg["round"])
        self._take_status(msg)

        def compute():
            views, addresses = [], {}
            for uid, tag, host, port in msg.get("views", ()):
                views.append(NeighborView(uid=int(uid), tag=int(tag)))
                addresses[int(uid)] = (host, port)
            self._scan(rnd, tuple(view.uid for view in views))
            with self._lock:
                target = self.node.propose(rnd, tuple(views))
                self._proposed[rnd] = target
            if target is None:
                return {"target": None, "delivered": False}
            if target not in addresses:
                raise Simulation._not_a_neighbor(self.node, target, rnd)
            try:
                self.call_peer(
                    target, addresses[target],
                    {"op": "proposal", "round": rnd, "from": self.uid},
                )
                return {"target": target, "delivered": True}
            except (TransportError, ProtocolError) as exc:
                self.stats["failed_deliveries"] += 1
                return {"target": target, "delivered": False,
                        "delivery_error": str(exc)}

        return self._once(("propose", rnd), compute)

    def _op_proposal(self, msg: dict) -> dict:
        rnd = int(msg["round"])
        with self._lock:
            # A set, so a retried delivery (reply lost to a timeout)
            # cannot double-count a sender.
            self._expire(rnd)
            self._inbox.setdefault(rnd, set()).add(int(msg["from"]))
        return {"ok": True}

    def _op_resolve(self, msg: dict) -> dict:
        """Proposee-enforced acceptance: ``resolve_proposals`` semantics.

        A node that proposed this round loses its incoming proposals
        (the model's collision rule); a contested inbox is settled by
        the registered acceptance rule — for ``uniform``, the
        simulator's lottery at this round's instant, so the winner is
        exactly the simulator's.  The verdict is cached: resolving
        consumes the inbox, so a retried resolve must see the first
        answer.
        """
        rnd = int(msg["round"])

        def compute():
            with self._lock:
                proposed = self._proposed.get(rnd)
                senders = sorted(self._inbox.pop(rnd, ()))
            if proposed is not None or not senders:
                return {"winner": None, "senders": len(senders)}
            winner = proposee_winner(
                self.acceptance, self._lottery, self.uid, rnd, senders
            )
            return {"winner": winner, "senders": len(senders)}

        return self._once(("resolve", rnd), compute)

    def _op_connect(self, msg: dict) -> dict:
        """Initiator-side Stage 3 against a remote responder.

        The state pull is single-shot (``retry=None``): the model grants
        one connection attempt per round, so a mid-handshake link
        failure — including a chaos interdiction on the responder — is
        a failed connection this round, not something to retry through.
        The delta push *is* retried (it is idempotent and the handshake
        already succeeded).  The reply is cached per round so a caller
        retry cannot re-run ``interact``.  It carries both endpoints'
        post-connect token counts, initiator first: the coordinator's
        termination check reads them instead of asking either node.
        """
        rnd = int(msg["round"])
        responder_uid = int(msg["responder"])
        address = msg["address"]

        def compute():
            started = time.perf_counter()
            pulled = self.call_peer(
                responder_uid, address,
                {"op": "state_pull", "round": rnd, "from": self.uid},
                retry=None,
            )
            adapter = _RemotePeer(pulled["tokens"])
            channel = Channel(rnd, self.uid, responder_uid,
                              self.channel_policy)
            with self._lock:
                self.node.interact(adapter, channel, rnd)
                count = len(self.node.known_tokens)
            channel.close()
            if adapter.received:
                self.call_peer(responder_uid, address, {
                    "op": "state_push", "round": rnd,
                    "tokens": _wire_tokens(adapter.received),
                })
            latency = time.perf_counter() - started
            with self._lock:
                self._latency_hist.observe(latency)
            return {
                "tokens_moved": channel.tokens_moved,
                "bits": channel.bits.total_bits,
                "latency_s": latency,
                "counts": [count, len(adapter.known_tokens)],
            }

        return self._once(("connect", rnd, responder_uid), compute)

    # -- state transfer -----------------------------------------------

    def _op_state_pull(self, msg: dict) -> dict:
        rnd = msg.get("round")
        initiator = msg.get("from")
        if rnd is not None and initiator is not None:
            with self._lock:
                if (int(rnd), int(initiator)) in self._interdicted:
                    raise _ChaosInterdicted()
        with self._lock:
            node = self.node
            return {"tokens": _wire_tokens(
                node.token(tid) for tid in sorted(node.known_tokens))}

    def _op_state_push(self, msg: dict) -> dict:
        with self._lock:
            node = self.node
            stored = 0
            for tid, payload, origin in msg["tokens"]:
                if not node.has_token(int(tid)):
                    node.store_token(Token(int(tid), payload, int(origin)))
                    stored += 1
            return {"ok": True, "stored": stored}

    def _op_snapshot(self, msg: dict) -> dict:
        with self._lock:
            return {
                "uid": self.uid,
                "vertex": self.vertex,
                "tokens": sorted(self.node.known_tokens),
            }

    def _op_reset(self, msg: dict) -> dict:
        """Crash-with-state-loss hook (fault models with resets); the
        reply carries the post-reset token count."""
        with self._lock:
            reset = hasattr(self.node, "reset_tokens")
            if reset:
                self.node.reset_tokens()
            return {"ok": True, "reset": reset,
                    "count": len(self.node.known_tokens)}
