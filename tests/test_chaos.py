"""Tests for the chaos-hardened live layer.

Three strata:

* Socket-free: the :class:`RetryPolicy` backoff schedule is a pure
  function of (policy, seeded rng) — asserted by recording the
  injectable ``sleep`` instead of waiting; the error taxonomy's
  retryable/terminal split.
* ``net``-marked robustness: retry budgets against genuinely dead
  ports, suspect marking, and the kill-half-the-cluster degradation
  gate — a live run with half its peers killed mid-run must *complete*
  with a populated degraded report, not hang or raise.
* ``net``-marked equivalence: the chaos replay gates.  A recorded
  faulty simulation must replay match-equivalent against a cluster
  where a :class:`FaultPlan` enacts the same seeded schedule physically
  — PeerServers killed and rebound (CrashChurn), radios asleep
  (SleepCycle), handshakes interdicted mid-round (LossyLinks).

Flake discipline: every retry delay in assertions goes through a
recording ``sleep`` or a sub-millisecond policy; liveness is driven by
events (dead endpoints fail instantly with ECONNREFUSED), never by
real-time sleeps.
"""

import random
import socket

import pytest

from repro.core.problem import uniform_instance
from repro.errors import ConfigurationError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.net import (
    Coordinator,
    ProtocolError,
    RetryBudgetExceeded,
    RetryPolicy,
    TransportError,
    record_run,
    replay,
    request,
)
from repro.net.server import _ChaosInterdicted
from repro.registry import FAULT_REGISTRY, Definition
from repro.sim.faults import (
    CrashChurn,
    FaultModel,
    FaultReader,
    LossyLinks,
    NoFaults,
    SleepCycle,
    build_fault,
)
from test_faults import ResettingSleep, expected_resets, spy_resets


def _dead_port() -> tuple[str, int]:
    """An address that was just bound and closed: connects are refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    return host, port


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_exponential_schedule_without_rng(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, factor=2.0,
                             max_delay=0.5, jitter=0.5)
        assert [policy.delay(i) for i in range(1, 5)] == [
            0.1, 0.2, 0.4, 0.5  # capped at max_delay
        ]

    def test_jitter_is_deterministic_under_seeded_rng(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.5)
        a = random.Random(99)
        b = random.Random(99)
        schedule_a = [policy.delay(i, a) for i in range(1, 4)]
        schedule_b = [policy.delay(i, b) for i in range(1, 4)]
        assert schedule_a == schedule_b
        base = [policy.delay(i) for i in range(1, 4)]
        for jittered, bare in zip(schedule_a, base):
            assert bare <= jittered <= bare * 1.5

    @pytest.mark.net
    def test_request_retry_schedule_is_recorded_not_slept(self):
        """The whole retry loop runs through an injectable sleep."""
        host, port = _dead_port()
        policy = RetryPolicy(attempts=3, base_delay=0.05, factor=2.0,
                             jitter=0.5)
        slept: list[float] = []
        seen: list[tuple[str, int]] = []
        with pytest.raises(RetryBudgetExceeded) as info:
            request(
                host, port, {"op": "ping"},
                timeout=2.0,
                retry=policy,
                rng=random.Random(7),
                sleep=slept.append,
                on_retry=lambda exc, attempt, delay: seen.append(
                    (exc.kind, attempt)
                ),
                uid=5,
            )
        # attempts=3 -> two backoffs, both jittered from Random(7).
        rng = random.Random(7)
        expected = [policy.delay(1, rng), policy.delay(2, rng)]
        assert slept == expected
        assert seen == [("refused", 1), ("refused", 2)]
        err = info.value
        assert err.attempts == 3
        assert err.retryable is False
        assert (err.host, err.port) == (host, port)
        assert err.uid == 5
        assert isinstance(err.__cause__, TransportError)
        assert err.__cause__.kind == "refused"

    @pytest.mark.net
    def test_non_retryable_faults_skip_the_budget(self):
        """Frame corruption is terminal: no retries are attempted."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        host, port = silent.getsockname()

        import threading

        def corrupt_once():
            conn, _ = silent.accept()
            from repro.net.framing import HEADER

            conn.recv(4096)
            conn.sendall(HEADER.pack(2 ** 30))  # absurd length prefix
            conn.close()

        thread = threading.Thread(target=corrupt_once, daemon=True)
        thread.start()
        slept: list[float] = []
        try:
            with pytest.raises(TransportError) as info:
                request(host, port, {"op": "ping"}, timeout=2.0,
                        retry=RetryPolicy(attempts=5), sleep=slept.append)
            assert info.value.kind == "frame"
            assert not isinstance(info.value, RetryBudgetExceeded)
            assert slept == []  # budget never consulted
        finally:
            silent.close()
            thread.join(timeout=2.0)


class TestChaosConfiguration:
    def test_enactment_mapping_lives_with_the_models(self):
        assert CrashChurn(4, 0).chaos_enactment == "kill"
        assert SleepCycle(4, 0).chaos_enactment == "sleep"
        assert LossyLinks(4, 0).chaos_enactment == "drop"
        assert NoFaults(4).chaos_enactment == "none"

    @pytest.mark.parametrize("regime", [
        {"chaos": True},                      # nothing to enact
        {"chaos": True, "fault": "none"},
        {"chaos": "churn"},                   # kind forms are gone
        {"chaos": {"kind": "churn"}, "fault": "lossy"},
    ], ids=repr)
    def test_chaos_is_a_bool_that_needs_a_schedule(self, regime):
        with pytest.raises(ConfigurationError, match="chaos"):
            Coordinator(
                "sharedbit",
                StaticDynamicGraph(expander(n=8, degree=4, seed=2)),
                uniform_instance(n=8, k=2, seed=1),
                seed=1,
                **regime,
            )


#: A tiny, fast policy for tests: dead loopback endpoints fail with an
#: instant ECONNREFUSED, so sub-millisecond backoffs keep suspect
#: discovery deterministic and quick without real waiting.
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.001, factor=2.0,
                         max_delay=0.002, jitter=0.0)

GRAPH_SEED = 2
N = 8


def _graph_factory():
    return StaticDynamicGraph(expander(n=N, degree=4, seed=GRAPH_SEED))


def _coordinator(**opts):
    return Coordinator(
        "sharedbit",
        _graph_factory(),
        uniform_instance(n=N, k=3, seed=11),
        seed=5,
        retry=FAST_RETRY,
        request_timeout=2.0,
        **opts,
    )


@pytest.mark.net
class TestGracefulDegradation:
    def test_kill_half_the_cluster_completes_degraded(self):
        """Acceptance gate: half the peers die mid-run; the run must
        complete over the surviving quorum with suspects and
        degraded-round counts populated — no hang, no raise."""
        coord = _coordinator(termination_every=0)
        kill_at = 3
        victims = list(range(0, N, 2))
        original = coord.run_round

        def chaotic_round(rnd):
            if rnd == kill_at:
                for vertex in victims:
                    coord.servers[vertex].kill()
            original(rnd)

        coord.run_round = chaotic_round
        with coord:
            report = coord.run(max_rounds=10)
        assert report.rounds == 10
        assert len(report.suspects) == len(victims)
        dead_uids = {coord.servers[v].uid for v in victims}
        assert set(report.suspects) == dead_uids
        assert all(marked >= kill_at for marked in report.suspects.values())
        assert report.suspect_events == len(victims)
        assert report.degraded_rounds > 0
        assert report.degraded
        assert report.retries > 0
        # Survivors kept gossiping among themselves after the massacre.
        surviving_rounds = report.match_stream[kill_at:]
        assert any(matches for matches in surviving_rounds)
        for matches in surviving_rounds:
            for initiator, responder in matches:
                assert initiator not in dead_uids
                assert responder not in dead_uids
        # The final report still includes every node's storage (the
        # dead phones' disks survived, exactly like the simulator).
        assert len(report.final_tokens) == N

    def test_suspect_rejoins_after_revival(self):
        """A suspected peer that comes back is probed, re-admitted, and
        counted as a rejoin; the suspect set drains."""
        coord = _coordinator(termination_every=0)
        victim = 0
        original = coord.run_round

        def chaotic_round(rnd):
            if rnd == 2:
                coord.servers[victim].kill()
            if rnd == 5:
                coord.servers[victim].revive()
            original(rnd)

        coord.run_round = chaotic_round
        with coord:
            report = coord.run(max_rounds=8)
        victim_uid = coord.servers[victim].uid
        assert report.suspect_events >= 1
        assert report.rejoins >= 1
        assert victim_uid not in report.suspects
        # After rejoin the victim participates again.
        late_participants = {
            uid
            for matches in report.match_stream[5:]
            for pair in matches
            for uid in pair
        }
        assert report.rounds == 8
        # (participation is stochastic; the hard assertions are above)
        assert isinstance(late_participants, set)

    def test_crash_reset_to_a_dead_peer_suspects_it(self):
        """The logical crash ``reset`` follows the suspect rule like
        every other op: a peer that cannot be reached for it is
        suspected and the round completes (it used to abort the run
        with the ``TransportError``)."""

        class CrashesAtTwo(FaultModel):
            resets_state = True

            def crashed_this_round(self, round_index):
                return [0] if round_index == 2 else []

        coord = _coordinator(fault=CrashesAtTwo(N, 5, "crash-at-two"),
                             termination_every=0)
        with coord:
            coord.run_round(1)
            coord.servers[0].kill()
            coord.run_round(2)
            assert set(coord.suspects) == {coord.servers[0].uid}
            assert coord.trace.total_rounds == 2
            coord.servers[0].revive()
            coord.run_round(3)
            assert not coord.suspects

    def test_a_vertex_asleep_and_suspect_is_counted_out_once(self):
        """``active_nodes`` and the status view count the vertices that
        are up: neither masked nor suspect.  (They used to subtract a
        masked suspect twice: 3 active where 4 were up.)"""
        fault = {"kind": "sleep", "period": 4, "duty": 2}
        reader = FaultReader(build_fault(fault, N, 5), N)
        coord = _coordinator(fault=fault, termination_every=0)
        masked_suspect = 0
        with coord:
            coord.servers[0].kill()
            for rnd in range(1, 9):
                coord.run_round(rnd)
                awake = reader.mask(rnd)
                up = [v for v in range(1, N) if awake is None or awake[v]]
                masked_suspect += awake is not None and not awake[0]
                assert coord.trace.records[-1].active_nodes == len(up)
                assert coord._status["active"] == len(up)
            assert set(coord.suspects) == {coord.servers[0].uid}
        assert masked_suspect

    def test_all_nodes_dead_is_not_vacuously_solved(self):
        coord = _coordinator()
        with coord:
            coord.run_round(1)
            for vertex in range(N):
                coord.servers[vertex].kill()
            # One more round by hand; _solved must be False on an empty
            # quorum rather than vacuously True.
            coord.run_round(2)
            assert coord.suspects  # everyone suspected
            assert coord._solved() is False


CHURN = {"kind": "churn", "cycle": 8, "crash_prob": 0.5, "min_outage": 2,
         "max_outage": 4, "reset_tokens": True}


def _kill_vertex_zero_at_three(coord, rnd):
    if rnd == 3:
        coord.servers[0].kill()


def _pushes_store_then_hang_up_in_round_two(coord, rnd):
    """Every ``state_push`` of round 2 lands and then loses its reply:
    the connect fails after both endpoints' state moved on."""
    for server in coord.servers.values():
        server.__dict__.pop("_op_state_push", None)
        if rnd == 2:
            def push(msg, real=server._op_state_push):
                real(msg)
                raise _ChaosInterdicted()
            server._op_state_push = push


#: name -> (coordinator options, what happens before each round).
COUNT_CASES = {
    "logical churn with resets": ({"fault": CHURN}, None),
    "chaos churn with resets": ({"fault": CHURN, "chaos": True}, None),
    "chaos sleep": ({"fault": {"kind": "sleep", "period": 4, "duty": 2},
                     "chaos": True}, None),
    "chaos lossy": ({"fault": {"kind": "lossy", "drop_prob": 0.4},
                     "chaos": True}, None),
    "unplanned kill": ({}, _kill_vertex_zero_at_three),
    "push fails after interact": ({}, _pushes_store_then_hang_up_in_round_two),
}


@pytest.mark.net
class TestCountVector:
    @pytest.mark.parametrize("case", sorted(COUNT_CASES))
    def test_counts_equal_snapshots_after_every_round(self, case):
        """The vector ``_solved`` decides from matches every node's
        real token count, except where it says it does not know — and
        it knows every count the quorum holds after each check."""
        opts, disturb = COUNT_CASES[case]
        coord = _coordinator(termination_every=1, **opts)
        with coord:
            for rnd in range(1, 13):
                if disturb is not None:
                    disturb(coord, rnd)
                coord.run_round(rnd)
                snapshots = coord.snapshots()
                for vertex, count in enumerate(coord._counts):
                    uid = coord.servers[vertex].uid
                    if count is None:
                        assert (vertex in coord.plan.down
                                or uid in coord.suspects), (rnd, vertex)
                    else:
                        assert count == len(snapshots[uid]), (rnd, vertex)
            coord.plan.restore()
        if case == "push fails after interact":
            assert coord.trace.records[1].dropped_connections > 0


@pytest.mark.net
class TestChaosReplayEquivalence:
    """The acceptance gates: recorded faulty sims replay match-
    equivalent against clusters experiencing the *actual* failures."""

    @pytest.mark.parametrize("reset_tokens", [False, True])
    def test_crash_churn_chaos_replay(self, reset_tokens):
        fault = {
            "kind": "churn",
            "cycle": 8,
            "crash_prob": 0.5,
            "min_outage": 2,
            "max_outage": 4,
            "reset_tokens": reset_tokens,
        }
        record = record_run(
            "sharedbit",
            _graph_factory(),
            uniform_instance(n=N, k=3, seed=11),
            seed=5,
            max_rounds=24,
            fault=fault,
        )
        report = replay(record, chaos=True, retry=FAST_RETRY)
        assert report.equivalent, "\n".join(report.divergences)
        # The failures were real: endpoints actually went down and came
        # back at the seed-derived rounds.
        assert report.live.chaos_kills > 0
        assert report.live.chaos_revives > 0
        assert not report.live.suspects  # planned chaos is not suspicion

    def test_sleep_cycle_chaos_replay(self):
        record = record_run(
            "sharedbit",
            _graph_factory(),
            uniform_instance(n=N, k=3, seed=11),
            seed=5,
            max_rounds=16,
            fault={"kind": "sleep", "period": 4, "duty": 2},
        )
        report = replay(record, chaos=True, retry=FAST_RETRY)
        assert report.equivalent, "\n".join(report.divergences)

    def test_lossy_links_chaos_replay_drops_for_real(self):
        record = record_run(
            "sharedbit",
            _graph_factory(),
            uniform_instance(n=N, k=3, seed=11),
            seed=5,
            max_rounds=16,
            fault={"kind": "lossy", "drop_prob": 0.4},
        )
        report = replay(record, chaos=True, retry=FAST_RETRY)
        assert report.equivalent, "\n".join(report.divergences)
        # The interdicted handshakes really failed at the socket level
        # and were charged as dropped connections.
        assert report.live.trace.total_dropped_connections > 0

    def test_logical_fault_replay_also_equivalent(self):
        """The same recording masked logically (no chaos) matches too —
        pinning that physical enactment changes nothing observable."""
        record = record_run(
            "sharedbit",
            _graph_factory(),
            uniform_instance(n=N, k=3, seed=11),
            seed=5,
            max_rounds=16,
            fault={"kind": "churn", "cycle": 8, "crash_prob": 0.5,
                   "min_outage": 2, "max_outage": 4},
        )
        logical = replay(record, retry=FAST_RETRY)
        assert logical.equivalent, "\n".join(logical.divergences)

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["logical", "chaos"])
    def test_report_less_resetting_fault_replays_and_resets_alike(
            self, chaos, restore_registries):
        """A ``resets_state`` model that leaves ``crashed_this_round``
        at its documented ``None`` resets by the mask-transition rule on
        every driver.  (The logical live path used to reset nobody: 18
        divergent rounds of 24.)"""
        FAULT_REGISTRY.register(Definition(
            name="resetting_sleep",
            description="test: sleepers lose their state, no crash report",
            build=lambda n, seed: ResettingSleep(n, seed, period=4, duty=2),
        ))
        instance = uniform_instance(n=N, k=3, seed=11)
        record = record_run("sharedbit", _graph_factory(), instance,
                            seed=5, max_rounds=24, fault="resetting_sleep")
        report = replay(record, chaos=chaos, retry=FAST_RETRY)
        assert report.equivalent, "\n".join(report.divergences)
        assert not report.live.suspects

        # ...and the live cluster resets exactly the vertices the rule
        # names, in the rounds it names.
        coord = _coordinator(termination_every=0, fault="resetting_sleep",
                             chaos=chaos)
        log = []
        spy_resets({v: s.node for v, s in coord.servers.items()}, log,
                   lambda: coord.trace.total_rounds + 1)
        with coord:
            coord.run(max_rounds=record.rounds)
        expected = expected_resets(ResettingSleep(N, 5, period=4, duty=2),
                                   record.rounds)
        assert expected and log == expected

    def test_chaos_replay_requires_fault(self):
        record = record_run(
            "sharedbit",
            _graph_factory(),
            uniform_instance(n=N, k=3, seed=11),
            seed=5,
            max_rounds=8,
        )
        with pytest.raises(ConfigurationError):
            replay(record, chaos=True)

    def test_record_run_rejects_model_instances(self):
        with pytest.raises(ConfigurationError):
            record_run(
                "sharedbit",
                _graph_factory(),
                uniform_instance(n=N, k=3, seed=11),
                seed=5,
                fault=CrashChurn(N, 5),
            )


@pytest.mark.net
class TestServerRobustness:
    def test_round_ops_are_idempotent_under_retry(self):
        """A retried advertise/resolve must not re-run protocol hooks
        or re-draw acceptance randomness: the cached reply is served."""
        from repro.core.runner import build_nodes
        from repro.net import PeerServer as _PeerServer

        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("sharedbit", instance, seed=3)
        server = _PeerServer(nodes[0], uid=instance.uid_of(0), vertex=0,
                             seed=3, b=1)
        first = server.handle({"op": "advertise", "round": 1,
                               "neighbors": [2, 3]})
        again = server.handle({"op": "advertise", "round": 1,
                               "neighbors": [2, 3]})
        assert first == again
        server.handle({"op": "proposal", "round": 1, "from": 9})
        server.handle({"op": "proposal", "round": 1, "from": 9})  # dup
        server.handle({"op": "proposal", "round": 1, "from": 4})
        verdict = server.handle({"op": "resolve", "round": 1})
        assert verdict["senders"] == 2  # the duplicate did not count
        assert server.handle({"op": "resolve", "round": 1}) == verdict

    def test_kill_then_revive_rebinds_same_port(self):
        from repro.core.runner import build_nodes
        from repro.net import PeerServer as _PeerServer

        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("sharedbit", instance, seed=3)
        server = _PeerServer(nodes[0], uid=instance.uid_of(0), vertex=0,
                             seed=3, b=1).start()
        host, port = server.address
        assert request(host, port, {"op": "ping"})["ok"] is True
        server.kill()
        assert server.dead
        with pytest.raises(TransportError):
            request(host, port, {"op": "ping"}, timeout=1.0)
        server.revive()
        try:
            assert not server.dead
            assert server.address == (host, port)
            assert request(host, port, {"op": "ping"})["ok"] is True
            assert server.stats["kills"] == 1
            assert server.stats["revives"] == 1
        finally:
            server.stop()

    def test_asleep_server_hangs_up_without_reply(self):
        from repro.core.runner import build_nodes
        from repro.net import PeerServer as _PeerServer

        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("sharedbit", instance, seed=3)
        server = _PeerServer(nodes[0], uid=instance.uid_of(0), vertex=0,
                             seed=3, b=1).start()
        host, port = server.address
        try:
            server.asleep = True
            with pytest.raises(TransportError) as info:
                request(host, port, {"op": "ping"}, timeout=1.0)
            # The abrupt hangup surfaces as a clean FIN ("eof") or an
            # RST ("reset") depending on whether our frame was still
            # unread at close time; both are retryable radio silence.
            assert info.value.kind in ("eof", "reset")
            assert info.value.retryable
            server.asleep = False
            assert request(host, port, {"op": "ping"})["ok"] is True
        finally:
            server.stop()

    def test_failed_proposal_delivery_degrades_not_raises(self):
        """A proposer whose target's endpoint is gone reports
        ``delivered: false`` instead of failing the round."""
        from repro.core.runner import build_nodes
        from repro.net import PeerServer as _PeerServer

        instance = uniform_instance(n=4, k=2, seed=3)
        nodes = build_nodes("blindmatch", instance, seed=3)
        server = _PeerServer(nodes[0], uid=instance.uid_of(0), vertex=0,
                             seed=3, b=1, retry=FAST_RETRY).start()
        dead_host, dead_port = _dead_port()
        target_uid = instance.uid_of(1)
        try:
            # Blindmatch flips a seeded sender/listener coin in its
            # scan stage; on the first sender round its only visible
            # neighbor — the dead one — must be the target.  Seeded, so
            # deterministic and bounded.
            for rnd in range(1, 65):
                server.handle({"op": "advertise", "round": rnd,
                               "neighbors": [target_uid]})
                reply = server.handle(
                    {"op": "propose", "round": rnd,
                     "views": [[target_uid, 1, dead_host, dead_port]]}
                )
                if reply["target"] is not None:
                    assert reply["target"] == target_uid
                    assert reply["delivered"] is False
                    assert "delivery_error" in reply
                    break
            else:  # pragma: no cover - sender coin can't miss 64 times
                pytest.fail("node never entered a sender round")
            assert server.stats["failed_deliveries"] >= 1
        finally:
            server.stop()
