"""Tests for repro.net: framing, loopback clusters, replay.

The socket-free pieces (framing round trips, ``Coordinator._reach``
against stub servers) run unconditionally.  Tests that bind real
loopback sockets carry the ``net`` marker so CI's tier-1 job can stay
hermetic (``-m "not net"``) while the net-smoke job runs them; locally
they run by default and need no network beyond 127.0.0.1.

No sleeps as synchronization anywhere in this file.
"""

import json
import os
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import uniform_instance
from repro.core.runner import ALGORITHMS, build_nodes
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.graphs.dynamic import (
    GeometricMobilityGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
)
from repro.graphs.topologies import cycle, expander
from repro.api import Experiment
from repro.cli import main as cli_main
from repro.core.problem import everyone_starts_instance
from repro.net import coordinator as coordinator_module
from repro.net import deploy_run, framing
from repro.net import (
    Coordinator,
    FaultPlan,
    PeerServer,
    ProtocolError,
    RetryPolicy,
    TransportError,
    record_run,
    recv_msg,
    replay,
    request,
    send_msg,
)
from repro.net.framing import HEADER, MAX_FRAME, READ_SIZE
from repro.net.server import ROUND_MEMORY
from repro.registry import TRANSPORT_REGISTRY
from repro.sim.channel import ChannelPolicy
from repro.sim.faults import CrashChurn


class _Segmented:
    """The reading end of a socket pair whose ``recv`` hands a frame
    over in the given segment sizes, then as it comes — what a slow
    link does to a frame, made deterministic."""

    def __init__(self, sock, sizes):
        self._sock, self._sizes = sock, list(sizes)

    def recv(self, count):
        if self._sizes:
            count = min(count, self._sizes.pop(0))
        return self._sock.recv(count)


def _frame(obj) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestFraming:
    """Hermetic: ``socket.socketpair()`` only, so these run in the
    tier-1 (``-m "not net"``) job."""

    @settings(max_examples=150, deadline=None)
    @given(
        obj=st.dictionaries(st.text(max_size=8), _JSON, max_size=5),
        # Some frames must outgrow the first read, or only the
        # one-read path is tested.
        padding=st.sampled_from([0, 0, 0, READ_SIZE - 8, 3 * READ_SIZE]),
        cuts=st.lists(st.integers(min_value=1, max_value=9000),
                      max_size=5),
    )
    def test_any_object_survives_any_segmentation(self, obj, padding, cuts):
        if padding:
            obj = dict(obj, padding="x" * padding)
        a, b = socket.socketpair()
        try:
            send_msg(a, obj)
            assert recv_msg(_Segmented(b, cuts)) == obj
            # ...and took exactly the frame: nothing is left to read.
            a.close()
            assert b.recv(1) == b""
        finally:
            a.close()
            b.close()

    def test_send_msg_writes_compact_json_behind_a_length(self):
        a, b = socket.socketpair()
        try:
            obj = {"op": "ping", "é": [1.5, None, {"x": "\u2603"}]}
            send_msg(a, obj)
            assert b.recv(4096) == _frame(obj)
        finally:
            a.close()
            b.close()

    def test_header_split_one_plus_three(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"op": "ping"})
            assert recv_msg(_Segmented(b, [1, 3])) == {"op": "ping"}
        finally:
            a.close()
            b.close()

    def test_first_read_handed_in_by_the_caller(self):
        """What a server handler does: it parked in the first read."""
        a, b = socket.socketpair()
        try:
            send_msg(a, {"op": "ping", "pad": "x" * 5000})
            head = b.recv(7)
            assert recv_msg(b, head) == {"op": "ping", "pad": "x" * 5000}
            assert recv_msg(b, b"") is None
        finally:
            a.close()
            b.close()

    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "values": [1, 2, 3], "nested": {"x": None}}
            send_msg(a, payload)
            assert recv_msg(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # Announce 100 bytes, deliver 3, then hang up mid-frame.
            a.sendall(HEADER.pack(100) + b"abc")
            a.close()
            with pytest.raises(TransportError) as info:
                recv_msg(b)
            assert info.value.kind == "eof" and info.value.retryable
        finally:
            b.close()

    def test_eof_inside_the_header_is_mid_frame(self):
        a, b = socket.socketpair()
        try:
            a.sendall(HEADER.pack(100)[:2])
            a.close()
            with pytest.raises(TransportError) as info:
                recv_msg(b)
            assert info.value.kind == "eof" and info.value.retryable
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(HEADER.pack(MAX_FRAME + 1))
            with pytest.raises(TransportError) as info:
                recv_msg(b)
            assert info.value.kind == "frame" and not info.value.retryable
        finally:
            a.close()
            b.close()

    def test_malformed_payload_is_a_frame_fault(self):
        a, b = socket.socketpair()
        try:
            a.sendall(HEADER.pack(3) + b"\xff{\x00")
            with pytest.raises(TransportError) as info:
                recv_msg(b)
            assert info.value.kind == "frame" and not info.value.retryable
        finally:
            a.close()
            b.close()

    def test_bytes_after_a_complete_frame_are_a_frame_fault(self):
        """A connection carries one exchange at a time: a second frame
        in the first one's segment is corruption, never retried."""
        a, b = socket.socketpair()
        try:
            a.sendall(_frame({"op": "ping"}) + _frame({"op": "ping"}))
            with pytest.raises(TransportError) as info:
                recv_msg(b)
            assert info.value.kind == "frame" and not info.value.retryable
        finally:
            a.close()
            b.close()


def _single_server(n=4, seed=3, vertex=0, algorithm="sharedbit"):
    instance = uniform_instance(n=n, k=2, seed=seed)
    nodes = build_nodes(algorithm, instance, seed=seed)
    return PeerServer(
        nodes[vertex],
        uid=instance.uid_of(vertex),
        vertex=vertex,
        seed=seed,
        b=1,
    )


@pytest.mark.net
class TestPeerServer:
    def test_ping_and_snapshot(self):
        with _single_server() as server:
            host, port = server.address
            assert request(host, port, {"op": "ping"})["ok"] is True
            snap = request(host, port, {"op": "snapshot"})
            assert snap["uid"] == server.uid
            assert snap["vertex"] == 0
            assert isinstance(snap["tokens"], list)

    def test_unknown_op_reports_error(self):
        with _single_server() as server:
            host, port = server.address
            reply = request(host, port, {"op": "no-such-op"})
            assert "error" in reply

    def test_rejects_unbounded_acceptance(self):
        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("sharedbit", instance, seed=3)
        with pytest.raises(ConfigurationError):
            PeerServer(nodes[0], uid=instance.uid_of(0), vertex=0,
                       seed=3, b=1, acceptance="unbounded")

    def test_stop_reports_leaked_handler_threads(self):
        """A handler pinned by a half-sent frame is counted, not lost.

        The client announces a 100-byte frame, sends 3 bytes, and goes
        silent; the handler blocks in ``recv``.  ``stop`` with a tiny
        timeout must return the leak count instead of pretending the
        shutdown was clean.
        """
        server = _single_server().start()
        host, port = server.address
        client = socket.create_connection((host, port))
        try:
            client.sendall(HEADER.pack(100) + b"abc")
            # Wait (bounded) for the handler thread to pick the
            # connection up — the accept loop is asynchronous.
            deadline = time.monotonic() + 5.0
            while (not server._handler_threads
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            leaked = server.stop(timeout=0.05)
            assert leaked >= 1
            assert server.stats["leaked_threads"] == leaked
        finally:
            client.close()

    def test_clean_stop_reports_zero_leaks(self):
        server = _single_server().start()
        host, port = server.address
        assert request(host, port, {"op": "ping"})["ok"] is True
        assert server.stop() == 0
        assert server.stats["leaked_threads"] == 0


@pytest.mark.net
class TestTransportErrorContext:
    def test_refused_connection_names_the_peer(self):
        """Satellite: a refused connect carries host:port, not a bare
        errno."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # nothing listens here now
        with pytest.raises(TransportError) as info:
            request(host, port, {"op": "ping"}, timeout=2.0, uid=42)
        err = info.value
        assert err.kind == "refused"
        assert err.retryable
        assert (err.host, err.port) == (host, port)
        assert err.uid == 42
        assert err.op == "ping"
        assert f"{host}:{port}" in str(err)

    def test_timeout_is_classified_with_context(self):
        """A listening socket that never accepts/replies times the
        request out; the error names the peer and the timeout."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        host, port = silent.getsockname()
        try:
            with pytest.raises(TransportError) as info:
                request(host, port, {"op": "ping"}, timeout=0.05)
            err = info.value
            assert err.kind == "timeout"
            assert err.retryable
            assert (err.host, err.port) == (host, port)
        finally:
            silent.close()

    def test_default_timeouts_are_unified(self):
        """Satellite: server and coordinator share one named constant."""
        from repro.net import DEFAULT_REQUEST_TIMEOUT
        import inspect

        server_default = inspect.signature(
            PeerServer.__init__
        ).parameters["request_timeout"].default
        coord_default = inspect.signature(
            Coordinator.__init__
        ).parameters["request_timeout"].default
        assert server_default == DEFAULT_REQUEST_TIMEOUT
        assert coord_default == DEFAULT_REQUEST_TIMEOUT


@pytest.mark.net
class TestLoopbackCluster:
    def test_three_node_convergence(self):
        """3-node cycle, live sharedbit: everyone learns every token."""
        n = 3
        instance = uniform_instance(n=n, k=2, seed=7)
        coord = Coordinator(
            "sharedbit",
            StaticDynamicGraph(cycle(n)),
            instance,
            seed=7,
        )
        with coord:
            report = coord.run(max_rounds=64)
        assert report.solved, f"did not converge in {report.rounds} rounds"
        wanted = tuple(sorted(instance.token_ids))
        assert all(tokens == wanted
                   for tokens in report.final_tokens.values())
        assert report.trace.total_connections >= 1


@pytest.mark.net
class TestLiveIntrospection:
    """The observability surface of the live layer (DESIGN.md §11):
    every server answers a ``metrics`` op for itself, relays the
    coordinator's pushed cluster view, and ``repro-gossip top`` renders
    either from one endpoint."""

    def test_metrics_op_reports_server_state(self):
        with _single_server() as server:
            host, port = server.address
            snap = request(host, port, {"op": "metrics"})
            assert snap["uid"] == server.uid
            assert snap["vertex"] == 0
            assert snap["round"] == 0
            assert snap["neighbors"] == 0
            assert snap["asleep"] is False
            assert snap["latency"]["count"] == 0
            assert snap["cluster"] == {}

    def test_status_push_is_relayed_through_metrics(self):
        with _single_server() as server:
            host, port = server.address
            pushed = request(host, port, {
                "op": "status", "round": 7, "suspects": 2,
                "active": 5, "n": 8,
            })
            assert pushed == {"ok": True}
            cluster = request(host, port, {"op": "metrics"})["cluster"]
            assert cluster == {"round": 7, "suspects": 2,
                               "active": 5, "n": 8}

    def test_coordinator_pushes_status_and_scrapes_metrics(self):
        n = 3
        instance = uniform_instance(n=n, k=2, seed=7)
        coord = Coordinator(
            "sharedbit", StaticDynamicGraph(cycle(n)), instance, seed=7,
        )
        with coord:
            report = coord.run(max_rounds=16)
        assert set(report.server_metrics) == {
            coord.servers[v].uid for v in range(n)
        }
        for snap in report.server_metrics.values():
            assert snap["round"] == report.rounds
            cluster = snap["cluster"]
            assert cluster["round"] == report.rounds
            assert cluster["n"] == n
            assert cluster["suspects"] == 0
        # Someone initiated a connection, so someone timed one.
        assert any(snap["latency"]["count"] > 0
                   for snap in report.server_metrics.values())

    def test_top_renders_a_live_endpoint(self, capsys):
        from repro.cli import main

        n = 3
        instance = uniform_instance(n=n, k=2, seed=7)
        coord = Coordinator(
            "sharedbit", StaticDynamicGraph(cycle(n)), instance, seed=7,
        )
        with coord:
            coord.run(max_rounds=8)
            host, port = coord.servers[0].address
            rc = main(["top", f"{host}:{port}", "--iterations", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cluster round" in out
        assert "cluster active" in out and f"{n}/{n}" in out
        assert "peer uid" in out
        assert "connect p50" in out

    def test_top_rejects_malformed_address(self):
        from repro.cli import main

        with pytest.raises(ConfigurationError):
            main(["top", "no-port-here"])

    def test_top_unreachable_endpoint_exits_nonzero(self, capsys):
        from repro.cli import main

        # Grab a port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        rc = main(["top", f"{host}:{port}",
                   "--iterations", "1", "--timeout", "0.2"])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().out


#: Factories for topologies that change while a cluster runs: every
#: epoch is a new graph (a recording and its replay each advance their
#: own copy).
CHANGING_GRAPHS = {
    "relabeling-tau2": lambda: RelabelingAdversary(cycle(10), tau=2, seed=1),
    "mobility-tau3": lambda: GeometricMobilityGraph(
        n=10, radius=0.4, step=0.05, tau=3, seed=1),
}


@pytest.mark.net
class TestReplayBridge:
    def test_sharedbit_replay_is_equivalent(self):
        """Keystone: a recorded sim run replays live, match for match."""
        record = record_run(
            "sharedbit",
            lambda: StaticDynamicGraph(expander(n=8, degree=4, seed=2)),
            uniform_instance(n=8, k=3, seed=11),
            seed=42,
        )
        assert record.solved
        report = replay(record)
        assert report.equivalent, "\n".join(report.divergences)
        assert report.live.rounds == record.rounds
        assert report.live.final_tokens == record.final_tokens

    def test_replay_on_concurrent_connect_threads_is_equivalent(self):
        """One Transfer protocol serves every server's node; Stage 3
        runs on four threads at once and nothing leaks between calls."""
        record = record_run(
            "sharedbit",
            lambda: StaticDynamicGraph(expander(n=12, degree=4, seed=2)),
            uniform_instance(n=12, k=5, seed=11),
            seed=42,
        )
        report = replay(record, connect_workers=4)
        assert report.equivalent, "\n".join(report.divergences)
        assert report.live.final_tokens == record.final_tokens

    def test_ppush_replay_is_equivalent(self):
        record = record_run(
            "ppush",
            lambda: StaticDynamicGraph(expander(n=8, degree=4, seed=4)),
            uniform_instance(n=8, k=1, seed=9),
            seed=17,
        )
        report = replay(record)
        assert report.equivalent, "\n".join(report.divergences)

    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "sleep"])
    @pytest.mark.parametrize("algorithm", ["sharedbit", "blindmatch"])
    @pytest.mark.parametrize("graph", sorted(CHANGING_GRAPHS))
    def test_changing_topology_replay_is_equivalent(self, graph, algorithm,
                                                    chaos):
        """The neighbor lists a server sees change with every epoch and
        reach it only inside the round messages; clean, and with the
        sleep schedule enacted physically."""
        record = record_run(
            algorithm, CHANGING_GRAPHS[graph],
            uniform_instance(n=10, k=2, seed=4), seed=6, max_rounds=28,
            fault="sleep" if chaos else None,
        )
        report = replay(record, chaos=chaos)
        assert report.equivalent, "\n".join(report.divergences)
        assert report.live.rounds == record.rounds > 2

    def test_divergence_detected_when_seed_differs(self):
        """The bridge is not vacuous: a perturbed replay is flagged."""
        record = record_run(
            "sharedbit",
            lambda: StaticDynamicGraph(expander(n=8, degree=4, seed=2)),
            uniform_instance(n=8, k=3, seed=11),
            seed=42,
        )
        tampered = record.__class__(**{
            **{f: getattr(record, f)
               for f in record.__dataclass_fields__},
            "seed": record.seed + 1,
        })
        report = replay(tampered)
        assert not report.equivalent


#: Ways to deploy a faulty run without enacting its schedule.
SCHEDULE_DOORS = {
    "Experiment.deploy": lambda: (
        Experiment("sharedbit").on_graph("expander", n=8, degree=4, seed=2)
        .with_instance("uniform", k=3).with_fault("sleep").seeded(5)
        .rounds(4).deploy(chaos=False)),
    "deploy_run": lambda: deploy_run("festival_nightfall", seed=3,
                                     max_rounds=4, chaos=False),
    "serve --chaos none": lambda: cli_main([
        "serve", "--scenario", "festival_nightfall", "--seed", "3",
        "--max-rounds", "4", "--chaos", "none"]),
}


@pytest.mark.net
class TestTransportRegistry:
    def test_tcp_transport_registered(self):
        defn = TRANSPORT_REGISTRY.get("tcp")
        assert defn.name == "tcp"
        assert callable(defn.build)

    def test_deploy_run_solves_scenario(self):
        report = TRANSPORT_REGISTRY.get("tcp").build(
            scenario="live_smoke", seed=3, max_rounds=64,
        )
        assert report.solved
        assert report.algorithm == "sharedbit"
        assert report.n == 8

    @pytest.mark.parametrize("door", sorted(SCHEDULE_DOORS))
    def test_a_schedule_is_never_silently_dropped(self, monkeypatch, door):
        """Without chaos the schedule is masked, not lost: each door
        used to run these with every node active in every round."""
        reports = []
        run = Coordinator.run

        def recording(self, max_rounds=512):
            reports.append(run(self, max_rounds))
            return reports[-1]

        monkeypatch.setattr(Coordinator, "run", recording)
        SCHEDULE_DOORS[door]()
        (report,) = reports
        assert any(record.active_nodes < report.n
                   for record in report.trace.records)




class _StubServer:
    """A peer as ``Coordinator._reach`` sees one: a uid, an address to
    put on the wire, and a ``handle`` for in-process dispatch."""

    def __init__(self, vertex, failing=False):
        self.vertex, self.uid = vertex, 100 + vertex
        self.address = ("stub", vertex)
        self.failing = failing
        self.local = 0

    def handle(self, obj):
        self.local += 1
        return {"ok": True, "via": "local"}


def _stub_coordinator(server):
    """Just the state ``_reach`` reads, around one stub server: round 7
    under way, nobody suspect, nothing planned down."""
    coord = object.__new__(Coordinator)
    coord.servers, coord._by_uid = {0: server}, {server.uid: server}
    coord.suspects, coord.suspect_events = {}, 0
    coord.plan = FaultPlan(None, [server])
    coord.retry_policy, coord.request_timeout = "policy", 9.0
    coord._retry_rng, coord._round = None, 7
    coord._requests, coord._requests_lock = 0, threading.Lock()
    return coord


#: ``_reach`` keyword arguments per op class.
OP_CLASSES = {
    "stage": {},                    # advertise/propose/resolve/reset
    "quorum": {"down": "skip"},     # termination snapshot
    "readout": {"fail": "local"},   # metrics/snapshot("all")
    "telemetry": {"fail": "ignore", "retry": None, "timeout": 0.5},
}

#: (peer state, op class) -> (asked over the wire?, served in-process?,
#: newly suspected?).  A dead or asleep endpoint nobody planned is
#: *found out* over the wire like any other failure: the coordinator
#: does not peek at its servers.
WIRE, LOCAL = (True, False, False), (False, True, False)
REACH_TABLE = {
    ("reachable", "stage"): WIRE,
    ("reachable", "quorum"): WIRE,
    ("reachable", "readout"): WIRE,
    ("reachable", "telemetry"): WIRE,
    ("planned-down", "stage"): LOCAL,
    ("planned-down", "quorum"): (False, False, False),
    ("planned-down", "readout"): LOCAL,
    ("planned-down", "telemetry"): LOCAL,
    ("suspect", "stage"): (False, False, False),
    ("suspect", "quorum"): (False, False, False),
    ("suspect", "readout"): LOCAL,
    ("suspect", "telemetry"): (False, False, False),
    **{
        (state, op): outcome
        for state in ("dead", "asleep", "failing")
        for op, outcome in {
            "stage": (True, False, True),
            "quorum": (True, False, True),
            "readout": (True, True, False),
            "telemetry": (True, False, False),
        }.items()
    },
}


class TestReach:
    """The one way the coordinator addresses a peer, against stub
    servers and a stub wire — no socket is opened."""

    @pytest.mark.parametrize("state, op_class", sorted(REACH_TABLE))
    def test_wire_in_process_or_suspect(self, monkeypatch, state, op_class):
        server = _StubServer(0, failing=state in ("dead", "asleep",
                                                  "failing"))
        server.dead = state == "dead"
        server.asleep = state == "asleep"
        wired = []

        def fake_request(host, port, obj, **kwargs):
            wired.append(kwargs)
            if server.failing:
                raise TransportError("refused", host=host, port=port,
                                     kind="refused")
            return {"ok": True, "via": "wire"}

        # `request` is looked up in the module at call time (the
        # benchmark's wire tap relies on exactly that).
        monkeypatch.setattr(coordinator_module, "request", fake_request)
        coord = _stub_coordinator(server)
        if state == "suspect":
            coord.suspects[server.uid] = 1
        if state == "planned-down":
            coord.plan.down = {0}

        reply = coord._reach(0, {"op": "x"}, **OP_CLASSES[op_class])

        on_wire, in_process, suspected = REACH_TABLE[state, op_class]
        assert bool(wired) == on_wire
        assert bool(server.local) == in_process
        via = "local" if in_process else (
            "wire" if on_wire and not server.failing else None)
        assert (reply or {}).get("via") == via
        assert (coord.suspects == {server.uid: 7}) == suspected
        if wired:   # per-call retry/timeout reach the wire
            kwargs = OP_CLASSES[op_class]
            assert wired[0]["retry"] == kwargs.get("retry", "policy")
            assert wired[0]["timeout"] == kwargs.get("timeout", 9.0)

    def test_a_remote_error_is_a_bug_except_to_telemetry(self, monkeypatch):
        monkeypatch.setattr(
            coordinator_module, "request",
            lambda *args, **kwargs: {"error": "boom", "error_type": "X"},
        )
        coord = _stub_coordinator(_StubServer(0))
        with pytest.raises(ProtocolError, match="boom"):
            coord._reach(0, {"op": "x"})
        assert coord._reach(0, {"op": "x"}, fail="ignore") is None
        assert not coord.suspects


#: Does the algorithm deploy live?  Only a Stage 3 that moves token
#: lists does.
LIVE_DEPLOYS = {
    "blindmatch": True,
    "sharedbit": True,
    "simsharedbit": False,
    "ppush": True,
    "crowdedbin": False,
    "multibit": True,
}


class TestLiveRefusals:
    """Descriptions the live layer cannot run are refused by the shared
    run preparation, before any socket is bound."""

    def test_goal_carrying_algorithm_is_refused_by_every_door(self):
        """ε-gossip's goal reads node objects; ``_solved()`` reads token
        snapshots over the wire.  It used to deploy and run to
        ``max_rounds`` on the plain-gossip criterion."""
        graph = StaticDynamicGraph(expander(8, 4, seed=1))
        instance = everyone_starts_instance(n=8, seed=1)
        fds = _open_fds()
        doors = (
            lambda: Coordinator("epsilon", graph, instance, seed=1),
            lambda: deploy_run(algorithm="epsilon", dynamic_graph=graph,
                               instance=instance, seed=1),
            lambda: (Experiment("epsilon").on_graph("expander", n=8, degree=4)
                     .with_instance("everyone").deploy()),
        )
        for door in doors:
            with pytest.raises(ConfigurationError, match="_epsilon_goal"):
                door()
        assert _open_fds() == fds

    def test_the_deploy_table_covers_every_algorithm(self):
        assert sorted(LIVE_DEPLOYS) == sorted(ALGORITHMS)

    @pytest.mark.net
    @pytest.mark.parametrize("algorithm", sorted(LIVE_DEPLOYS))
    def test_only_token_list_stage3_deploys(self, algorithm):
        """A live connect carries token lists.  SimSharedBit's Stage 3
        reads the responder's election and CrowdedBin's calls its
        ``receive_push``, so either would crash at the first connection;
        both are refused by name before any socket binds."""
        graph = StaticDynamicGraph(expander(8, 4, seed=1))
        instance = uniform_instance(n=8, k=1, seed=1)

        def deploy():
            return deploy_run(algorithm=algorithm, dynamic_graph=graph,
                              instance=instance, seed=1, max_rounds=4)

        if LIVE_DEPLOYS[algorithm]:
            assert deploy().rounds >= 1
            return
        fds = _open_fds()
        with pytest.raises(ConfigurationError,
                           match=f"^{algorithm}'s Stage 3"):
            deploy()
        assert _open_fds() == fds

    def test_record_run_checks_what_run_gossip_checks(self):
        changing = RelabelingAdversary(cycle(6), tau=2, seed=1)
        with pytest.raises(ConfigurationError, match="stable topology"):
            record_run("crowdedbin", changing,
                       uniform_instance(n=6, k=2, seed=1), seed=1)
        with pytest.raises(ConfigurationError, match="instance has n=5"):
            record_run("sharedbit", StaticDynamicGraph(cycle(6)),
                       uniform_instance(n=5, k=2, seed=1), seed=1)


def _advertise(rnd, **extra):
    return {"op": "advertise", "round": rnd, "neighbors": [], **extra}


@pytest.mark.net
class TestPerRoundServerState:
    """Everything a server keeps per round — reply cache, own proposal,
    inbox, interdictions — ages out by the one ``ROUND_MEMORY`` rule,
    once per round."""

    def test_unresolved_and_skipped_rounds_age_out(self):
        """A proposal that lands while its proposer's ack is lost is
        never resolved (its inbox entry used to stay forever), and a
        server driven every third round used to keep every
        ``_proposed`` entry (``pop(rnd - ROUND_MEMORY)`` never hit)."""
        server = _single_server()
        try:
            for rnd in range(1, 121, 3):  # 40 rounds, two in three skipped
                server.handle(_advertise(rnd))
                server.handle({"op": "propose", "round": rnd, "views": []})
                for sender in (7, 8):
                    server.handle(
                        {"op": "proposal", "round": rnd, "from": sender})
                server.interdict(rnd, 7)
                kept = ROUND_MEMORY // 3 + 1
                assert server.handle({"op": "metrics"})["inbox"] <= 2 * kept
                assert len(server._proposed) <= kept
                assert len(server._interdicted) <= kept
                assert len(server._op_cache) <= 2 * kept
            assert min(server._inbox) > rnd - ROUND_MEMORY
            assert min(server._proposed) > rnd - ROUND_MEMORY
            # Within the memory a retried op still gets its first answer.
            assert ("advertise", rnd - 3) in server._op_cache
        finally:
            server.stop()

    def test_a_late_op_for_an_old_round_does_not_rewind(self):
        server = _single_server()
        try:
            server.handle(_advertise(20))
            server.handle({"op": "proposal", "round": 2, "from": 7})
            assert server.handle({"op": "metrics"})["round"] == 20
            server.handle(_advertise(21))
            assert 2 not in server._inbox
        finally:
            server.stop()


#: uid 2's view in ``_Initiator``'s rounds: ``[uid, tag, host, port]``.
_VIEW_OF_2 = [2, 0, "127.0.0.1", 1]


class _Initiator:
    """A node that always proposes to uid 2 and counts its hook calls."""

    uid = 1
    known_tokens = frozenset()

    def __init__(self):
        self.proposals = 0

    def propose(self, round_index, views):
        self.proposals += 1
        return 2

    def interact(self, responder, channel, round_index):
        pass


def _parked(thread) -> None:
    """Return once ``thread`` sleeps in a ``threading`` wait (or ends)."""
    deadline = time.monotonic() + 10.0
    while thread.is_alive() and time.monotonic() < deadline:
        code = getattr(sys._current_frames().get(thread.ident), "f_code",
                       None)
        if code is not None and code.co_name == "wait" \
                and code.co_filename == threading.__file__:
            return
        time.sleep(0.001)


def _joined(*threads) -> None:
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.mark.net
class TestRoundOpsRunOnce:
    """A round op runs its hook at most once however a retry interleaves
    with it, and holds the node lock only around the hook — never across
    the ``call_peer`` I/O it makes."""

    @pytest.fixture
    def server(self):
        server = PeerServer(_Initiator(), uid=1, vertex=0, seed=3, b=1,
                            channel_policy=ChannelPolicy.for_upper_n(2))
        try:
            yield server
        finally:
            server.stop()

    @pytest.fixture
    def stalled(self, server, monkeypatch):
        """``(in_flight, release)``: set when an outbound call starts,
        and what lets it return."""
        in_flight, release = threading.Event(), threading.Event()

        def call_peer(uid, address, obj, **kwargs):
            in_flight.set()
            release.wait(timeout=10.0)
            return {"kind": "tokens", "tokens": []}

        monkeypatch.setattr(server, "call_peer", call_peer)
        yield in_flight, release
        release.set()

    @staticmethod
    def _start(server, msg, replies) -> threading.Thread:
        thread = threading.Thread(
            target=lambda: replies.append(server.handle(msg)), daemon=True)
        thread.start()
        return thread

    def test_a_retry_during_the_delivery_waits_for_its_reply(
        self, server, stalled
    ):
        # A second propose call would be a second private-rng draw.
        in_flight, release = stalled
        propose = {"op": "propose", "round": 1, "views": [_VIEW_OF_2]}
        replies = []
        first = self._start(server, propose, replies)
        assert in_flight.wait(timeout=10.0)
        retry = self._start(server, propose, replies)
        _parked(retry)
        release.set()
        _joined(first, retry)
        assert server.node.proposals == 1
        assert replies == [{"target": 2, "delivered": True}] * 2

    def test_metrics_answer_while_a_connect_pulls_state(
        self, server, stalled
    ):
        # connect must not hold the node lock across its state pull.
        in_flight, release = stalled
        connect = self._start(
            server, {"op": "connect", "round": 1, "responder": 2,
                     "address": _VIEW_OF_2[2:]}, [])
        assert in_flight.wait(timeout=10.0)
        snapshots = []
        metrics = self._start(server, {"op": "metrics"}, snapshots)
        metrics.join(timeout=5.0)
        assert [snap["round"] for snap in snapshots] == [1]
        release.set()
        _joined(connect)
        assert ("connect", 1, 2) in server._op_cache

    def test_racing_retries_run_each_hook_once(self, server, monkeypatch):
        monkeypatch.setattr(server, "call_peer",
                            lambda uid, address, obj, **kwargs: {"ok": True})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        replies = []
        try:
            _joined(*[
                self._start(server, {"op": "propose", "round": rnd,
                                     "views": [_VIEW_OF_2]}, replies)
                for rnd in range(1, ROUND_MEMORY) for _ in range(8)
            ])
        finally:
            sys.setswitchinterval(interval)
        assert server.node.proposals == ROUND_MEMORY - 1
        assert replies == [{"target": 2, "delivered": True}] * len(replies)
        assert len(replies) == 8 * (ROUND_MEMORY - 1)

    @pytest.mark.parametrize("views", [[], [[3, 0, "127.0.0.1", 1]]],
                             ids=["no-views", "another-neighbor"])
    def test_a_target_outside_the_views_is_a_violation(self, server, views):
        """The simulator's non-neighbor rule, with the simulator's words:
        the proposal is never sent."""
        sent = []
        server.call_peer = lambda *args, **kwargs: sent.append(args)
        with pytest.raises(ProtocolViolationError,
                           match="uid=1 proposed to uid=2, not an active "
                                 "neighbor in round 1"):
            server.handle({"op": "propose", "round": 1, "views": views})
        assert sent == [] and server.stats["failed_deliveries"] == 0


@pytest.mark.net
class TestStatusRider:
    """The cluster view rides on ``advertise``; a bad one is that
    request's error and nothing else."""

    @pytest.mark.parametrize("rider", [
        [1, 2], "round", 7, None,
        {"round": "seven"}, {"round": 7.5}, {"round": 7, "n": True},
    ], ids=repr)
    def test_malformed_rider_is_refused_before_the_hook(self, rider):
        # BlindMatch flips its coin in the advertise hook.
        with _single_server(algorithm="blindmatch") as server:
            host, port = server.address
            coins = server.node.rng.getstate()
            client = socket.create_connection((host, port))
            try:
                send_msg(client, _advertise(1, status=rider))
                reply = recv_msg(client)
                assert reply["error_type"] == "ProtocolError"
                assert "status" in reply["error"]
                assert server.node.rng.getstate() == coins
                assert ("advertise", 1) not in server._op_cache
                assert server.handle({"op": "metrics"})["cluster"] == {}
                # The same handler thread serves the retry, which draws
                # the node's coin exactly once however often it repeats.
                good = _advertise(1, status={"round": 0, "n": 4})
                send_msg(client, good)
                first = recv_msg(client)
                drawn = server.node.rng.getstate()
                assert drawn != coins
                send_msg(client, good)
                assert recv_msg(client) == first == server._op_cache[
                    "advertise", 1]
                assert server.node.rng.getstate() == drawn
            finally:
                client.close()
            assert server.handle({"op": "metrics"})["cluster"] == {
                "round": 0, "n": 4}

    def test_a_retried_advertise_restores_the_view(self):
        with _single_server() as server:
            server.handle(_advertise(1, status={"round": 0, "suspects": 0}))
            server.handle({"op": "status", "round": 9})
            server.handle(_advertise(1, status={"round": 0, "suspects": 0}))
            assert server.handle({"op": "metrics"})["cluster"] == {
                "round": 0, "suspects": 0}

    def test_malformed_status_op_is_refused_too(self):
        with _single_server() as server:
            host, port = server.address
            reply = request(host, port, {"op": "status", "round": [7]})
            assert reply["error_type"] == "ProtocolError"
            assert request(host, port, {"op": "ping"})["ok"] is True


def _cluster_views(coord):
    return {
        vertex: dict(server._cluster_status)
        for vertex, server in coord.servers.items()
    }


@pytest.mark.net
class TestRoundMessages:
    """What a live round costs the coordinator, and where the cluster
    view travels now that it has no request of its own."""

    @pytest.mark.parametrize("graph", [
        StaticDynamicGraph(expander(n=8, degree=4, seed=2)),
        RelabelingAdversary(cycle(8), tau=2, seed=1),
    ], ids=["static", "relabeling-tau2"])
    def test_message_budget(self, graph):
        """2n + |targets| + |matches| requests on every round (advertise
        and propose to everyone, resolve per delivered target, connect
        per match), epoch changes included: the topology rides on the
        round messages, so neither a new epoch nor the n status pushes
        can creep back in as requests of their own."""
        n, rounds = 8, 6
        coord = Coordinator(
            "blindmatch", graph, everyone_starts_instance(n=n, seed=5),
            seed=5, termination_every=0,
        )
        expected = 0
        with coord:
            for rnd in range(1, rounds + 1):
                before = coord.trace.total_requests
                coord.run_round(rnd)
                budget = _round_budget(coord, rnd)
                assert coord.trace.total_requests - before == budget
                expected += budget
            assert coord.trace.total_connections > 0
            assert coord.trace.total_requests == expected
            assert coord.trace.requests_per_round() == expected / rounds
            assert coord.trace.total_retries == 0

    def test_termination_checks_are_counted(self):
        """A terminating run pays nothing for its checks: the connect
        replies keep every count known, so no check sends a request."""
        n = 8
        coord = Coordinator(
            "blindmatch", StaticDynamicGraph(expander(n=n, degree=4, seed=2)),
            uniform_instance(n=n, k=3, seed=5), seed=5, termination_every=1,
        )
        budgets = []
        run_round = coord.run_round

        def budgeted(rnd):
            solved = run_round(rnd)
            budgets.append(_round_budget(coord, rnd))
            return solved

        coord.run_round = budgeted
        with coord:
            report = coord.run(max_rounds=40)
        assert report.rounds > 1 and report.solved and not report.suspects
        assert coord.trace.total_requests == sum(budgets)

    def test_view_trails_by_one_round_until_the_run_ends(self):
        n = 4
        with _small_cluster(n=n, termination_every=0) as coord:
            coord.run_round(1)
            assert _cluster_views(coord) == {v: {} for v in range(n)}
            for rnd in (2, 3):
                coord.run_round(rnd)
                view = {"round": rnd - 1, "suspects": 0, "active": n, "n": n}
                assert _cluster_views(coord) == {v: view for v in range(n)}
        with _small_cluster(n=n, termination_every=0) as coord:
            report = coord.run(max_rounds=5)
            view = {"round": 5, "suspects": 0, "active": n, "n": n}
            assert _cluster_views(coord) == {v: view for v in range(n)}
            assert all(snap["cluster"] == view
                       for snap in report.server_metrics.values())

    def test_suspect_is_skipped_and_planned_down_served_in_process(self):
        """As under the end-of-round push: a suspect keeps the view it
        had, a vertex whose radio chaos holds off still gets it."""
        n = 8
        fast = RetryPolicy(attempts=2, base_delay=0.001, factor=2.0,
                           max_delay=0.002, jitter=0.0)
        with _small_cluster(n=n, termination_every=0, retry=fast) as coord:
            coord.run_round(1)
            coord.run_round(2)
            coord.servers[3].kill()
            coord.run_round(3)  # found out, suspected
            coord.run_round(4)
            views = _cluster_views(coord)
            assert views.pop(3)["round"] == 1
            assert all(view == {"round": 3, "suspects": 1,
                                "active": n - 1, "n": n}
                       for view in views.values())
        coord = Coordinator(
            "sharedbit", StaticDynamicGraph(expander(n=n, degree=4, seed=2)),
            uniform_instance(n=n, k=3, seed=11), seed=11,
            fault={"kind": "churn"}, chaos=True, termination_every=0,
            retry=fast,
        )
        was_down = 0
        with coord:
            for rnd in range(1, 13):
                coord.run_round(rnd)
                was_down += len(coord.plan.down)
                assert not coord.suspects
                if rnd > 1:
                    assert all(view["round"] == rnd - 1
                               for view in _cluster_views(coord).values())
            coord.plan.restore()
        assert was_down  # the schedule did hold radios off


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _hung_up(sock) -> bool:
    """True once the peer has closed ``sock`` (FIN, or RST if it still
    had unread bytes of ours) — bounded by the socket's timeout."""
    sock.settimeout(5.0)
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True


def _round_budget(coord, rnd) -> int:
    """The requests round ``rnd`` just cost the coordinator."""
    n = coord.instance.n
    targets = sum(
        ("resolve", rnd) in server._op_cache
        for server in coord.servers.values()
    )
    record = coord.trace.records[-1]
    matches = record.connections + record.dropped_connections
    return 2 * n + targets + matches


def _small_cluster(n=4, seed=7, **opts):
    return Coordinator(
        "sharedbit", StaticDynamicGraph(cycle(n)),
        uniform_instance(n=n, k=2, seed=seed), seed=seed, **opts,
    )


@pytest.mark.net
class TestPooledConnections:
    """Stale-connection semantics of the ``request`` pool: a socket the
    peer closed while it sat idle is replaced by a fresh connect that
    is *not* a retry; a hang-up after the frame was sent is the peer's
    answer and surfaces as the fault it always was."""

    def test_requests_share_one_connection(self):
        with _single_server() as server:
            host, port = server.address
            for _ in range(3):
                assert request(host, port, {"op": "ping"})["ok"] is True
            assert len(framing._pool[(host, port)]) == 1
            assert len(server._conns) == 1

    def test_concurrent_callers_never_share_a_socket(self):
        """Stress the free list: more threads than cores, a shortened
        switch interval.  Two callers on one socket would read each
        other's replies, so every reply must echo its own request; the
        idle list stays bounded and nothing leaks."""
        server = _single_server().start()
        host, port = server.address
        wrong = []

        def hammer(worker):
            try:
                for i in range(150):
                    op = f"echo-{worker}-{i}"
                    reply = request(host, port, {"op": op}, timeout=5.0)
                    if op not in reply.get("error", ""):
                        wrong.append((op, reply))
            except Exception as exc:  # a dead thread must fail the test
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert wrong == []
            idle = framing._pool[(host, port)]
            assert 1 <= len(idle) <= framing.POOL_IDLE_MAX
        finally:
            assert server.stop() == 0

    def test_kill_then_revive_reconnects_without_a_retry(self):
        server = _single_server().start()
        host, port = server.address
        retried = []
        try:
            assert request(host, port, {"op": "ping"})["ok"] is True
            server.kill()
            server.revive()
            reply = request(
                host, port, {"op": "ping"},
                retry=RetryPolicy(attempts=3), sleep=retried.append,
                on_retry=lambda *args: retried.append(args),
            )
            assert reply["ok"] is True
            assert retried == []
        finally:
            server.stop()

    def test_killed_peer_is_refused_by_name(self):
        server = _single_server().start()
        host, port = server.address
        try:
            assert request(host, port, {"op": "ping"})["ok"] is True
            server.kill()
            with pytest.raises(TransportError) as info:
                request(host, port, {"op": "ping"}, timeout=1.0, uid=9)
            assert info.value.kind == "refused"
            assert (info.value.host, info.value.port) == (host, port)
            assert info.value.uid == 9
        finally:
            server.stop()

    def test_sleep_between_requests_on_one_connection_is_eof(self):
        with _single_server() as server:
            host, port = server.address
            assert request(host, port, {"op": "ping"})["ok"] is True
            server.asleep = True
            with pytest.raises(TransportError) as info:
                request(host, port, {"op": "ping"}, timeout=1.0)
            assert info.value.kind == "eof"
            assert info.value.retryable
            server.asleep = False
            assert request(host, port, {"op": "ping"})["ok"] is True

    def test_interdicted_pull_fails_exactly_once_per_round(self):
        """The model-visible connection keeps its one attempt per
        round: no transparent second handshake rescues an interdicted
        ``state_pull``, and the next round's pull works again."""
        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("sharedbit", instance, seed=3)
        policy = ChannelPolicy.for_upper_n(instance.upper_n)
        initiator, responder = (
            PeerServer(nodes[v], uid=instance.uid_of(v), vertex=v,
                       seed=3, b=1, channel_policy=policy).start()
            for v in (0, 1)
        )
        pulls = []
        real_pull = responder._op_state_pull

        def counting_pull(msg):
            pulls.append(msg["round"])
            return real_pull(msg)

        responder._op_state_pull = counting_pull
        try:
            host, port = initiator.address
            connect = {"op": "connect", "responder": responder.uid,
                       "address": responder.address}
            assert "error" not in request(host, port,
                                          dict(connect, round=1))
            responder.interdict(2, initiator.uid)
            dropped = request(host, port, dict(connect, round=2))
            assert dropped["error_type"] == "TransportError"
            assert "error" not in request(host, port,
                                          dict(connect, round=3))
            assert pulls == [1, 2, 3]
            assert initiator.stats["retries"] == 0
        finally:
            initiator.stop()
            responder.stop()


@pytest.mark.net
class TestFrameDecoderRobustness:
    """A bad frame on a persistent connection closes *that* connection
    only (ROADMAP direction 4): the server keeps answering others and
    shuts down clean."""

    @pytest.mark.parametrize("garbage", [
        HEADER.pack(MAX_FRAME + 1),            # oversize length prefix
        HEADER.pack(3) + b"\xff{\x00",         # payload is not JSON
    ], ids=["oversize-prefix", "non-json"])
    def test_corrupt_frame_closes_only_its_connection(self, garbage):
        server = _single_server().start()
        host, port = server.address
        client = socket.create_connection((host, port))
        try:
            client.sendall(garbage)
            assert _hung_up(client)
            assert request(host, port, {"op": "ping"})["ok"] is True
        finally:
            client.close()
            assert server.stop() == 0

    def test_valid_frame_then_truncated_one(self):
        server = _single_server().start()
        host, port = server.address
        client = socket.create_connection((host, port))
        try:
            send_msg(client, {"op": "ping"})
            assert recv_msg(client)["ok"] is True
            client.sendall(HEADER.pack(100) + b"abc")
            client.shutdown(socket.SHUT_WR)  # hang up mid-frame
            assert _hung_up(client)
            assert request(host, port, {"op": "ping"})["ok"] is True
        finally:
            client.close()
            assert server.stop() == 0

    def test_stop_hangs_up_the_parked_and_spares_the_mid_frame(self):
        """One connection parked between frames, one pinned by half a
        frame: a graceful ``stop`` hangs up the first and reports the
        second as leaked instead of cutting it; when its frame does
        complete the request is still answered, and the handler exits."""
        server = _single_server().start()
        host, port = server.address
        parked = socket.create_connection((host, port))
        pinned = socket.create_connection((host, port))
        try:
            send_msg(parked, {"op": "ping"})
            assert recv_msg(parked)["ok"] is True
            frame = _frame({"op": "ping"})
            pinned.sendall(frame[:6])
            deadline = time.monotonic() + 5.0
            while sorted(server._conns.values()) != [False, True]:
                assert time.monotonic() < deadline, server._conns
                time.sleep(0.001)
            assert server.stop(timeout=0.2) == 1
            assert _hung_up(parked)
            pinned.sendall(frame[6:])
            assert recv_msg(pinned)["ok"] is True
            assert _hung_up(pinned)
            for thread in list(server._handler_threads):
                thread.join(timeout=5.0)
            assert server._count_leaked(log=False) == 0
        finally:
            parked.close()
            pinned.close()

    def test_half_sent_frame_pins_only_its_handler(self):
        server = _single_server().start()
        host, port = server.address
        client = socket.create_connection((host, port))
        try:
            client.sendall(HEADER.pack(100) + b"abc")  # ...and silence
            assert request(host, port, {"op": "ping"})["ok"] is True
            # The pinned handler is mid-frame, so stop() must not cut
            # it — it reports it (the leaked-handler contract).
            assert server.stop(timeout=0.2) >= 1
        finally:
            client.close()


@pytest.mark.net
class TestClusterHygiene:
    def test_boot_stop_cycles_hold_fds_and_threads_flat(self):
        """What ``benchmarks/perf`` does 6-20 times per child."""
        def cycle_once():
            with _small_cluster() as coord:
                for rnd in (1, 2, 3):
                    coord.run_round(rnd)

        cycle_once()  # lazy imports and their fds are paid here
        fds, threads = _open_fds(), threading.active_count()
        for _ in range(20):
            cycle_once()
        assert _open_fds() == fds
        assert threading.active_count() == threads

    def test_standalone_server_stop_leaves_no_fds(self):
        """No coordinator to clean up after it: a server's own ``stop``
        closes the idle sockets this process pooled to its address."""
        _single_server().start().stop()  # lazy imports paid here
        fds = _open_fds()
        server = _single_server().start()
        host, port = server.address
        for _ in range(20):
            assert request(host, port, {"op": "ping"})["ok"] is True
        assert _open_fds() > fds
        assert server.stop() == 0
        assert _open_fds() == fds

    @pytest.mark.parametrize("chaos", [False, True])
    def test_fault_built_for_another_n_is_refused_at_construction(
            self, chaos):
        """Masked or enacted, with the engine's error (it used to be an
        ``IndexError`` in the middle of round 1), and no listener stays
        open on the way out."""
        fds = _open_fds()
        with pytest.raises(ConfigurationError, match="bound to n=5"):
            _small_cluster(n=4, fault=CrashChurn(5, 7), chaos=chaos)
        assert _open_fds() == fds

    def test_stop_survives_one_failing_server(self):
        coord = _small_cluster().start()
        coord.run_round(1)
        broken = coord.servers[1]
        real_stop = broken.stop

        def failing_stop():
            raise RuntimeError("stop failed")

        broken.stop = failing_stop
        try:
            with pytest.raises(RuntimeError, match="stop failed"):
                coord.stop()
            assert all(coord.servers[v].dead for v in (0, 2, 3))
            assert not any(
                coord.servers[v].address in framing._pool for v in (0, 2, 3)
            )
        finally:
            assert real_stop() == 0
        # Each server purges the pool to its own address when it stops.
        assert broken.address not in framing._pool
