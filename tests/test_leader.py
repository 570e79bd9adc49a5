"""Tests for BitConvergence leader election: the interface §5.2 relies on."""

import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.graphs.dynamic import (
    PeriodicRewireGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
)
from repro.graphs.topologies import cycle, expander, path, star
from repro.leader.bitconvergence import (
    BitConvergence,
    LeaderConfig,
    LeaderElectionNode,
    run_leader_election,
)
from repro.sim.channel import Channel, ChannelPolicy


def make_pair(uid_a=5, uid_b=3):
    a = BitConvergence(uid=uid_a, payload=10, upper_n=16,
                       rng=random.Random(0))
    b = BitConvergence(uid=uid_b, payload=20, upper_n=16,
                       rng=random.Random(1))
    return a, b


class TestMerge:
    def test_interact_converges_to_minimum(self):
        a, b = make_pair()
        channel = Channel(1, 5, 3, ChannelPolicy(max_control_bits=10**6))
        a.interact(b, channel)
        assert a.candidate_uid == 3
        assert b.candidate_uid == 3

    def test_payload_travels_with_candidate(self):
        a, b = make_pair()
        channel = Channel(1, 5, 3, ChannelPolicy(max_control_bits=10**6))
        a.interact(b, channel)
        assert a.candidate_payload == 20  # b's payload won

    def test_equal_candidates_noop(self):
        a, _ = make_pair()
        c = BitConvergence(uid=9, payload=30, upper_n=16,
                           rng=random.Random(2))
        channel = Channel(1, 5, 9, ChannelPolicy(max_control_bits=10**6))
        c._adopt(a.candidate_uid, a.candidate_payload)
        a.interact(c, channel)
        assert a.candidate_uid == c.candidate_uid == 5

    def test_candidate_monotone_nonincreasing(self):
        a, b = make_pair()
        channel = Channel(1, 5, 3, ChannelPolicy(max_control_bits=10**6))
        history = [a.candidate_uid]
        a.interact(b, channel)
        history.append(a.candidate_uid)
        assert history == sorted(history, reverse=True)

    def test_bits_charged(self):
        a, b = make_pair()
        channel = Channel(1, 5, 3, ChannelPolicy(max_control_bits=10**6))
        a.interact(b, channel)
        assert channel.bits.total_bits > 0


class TestNews:
    def test_fresh_node_has_news(self):
        a, _ = make_pair()
        assert a.advertise() == 1

    def test_news_expires(self):
        config = LeaderConfig(news_window=3)
        a = BitConvergence(uid=5, payload=0, upper_n=16,
                           rng=random.Random(0), config=config)
        bits = [a.advertise() for _ in range(6)]
        assert bits[:2] == [1, 1]
        assert bits[3:] == [0, 0, 0]

    def test_adoption_renews_news(self):
        config = LeaderConfig(news_window=3)
        a = BitConvergence(uid=5, payload=0, upper_n=16,
                           rng=random.Random(0), config=config)
        for _ in range(5):
            a.advertise()
        assert not a.has_news
        a._adopt(2, 0)
        assert a.advertise() == 1


class TestValidation:
    def test_payload_must_fit_budget(self):
        with pytest.raises(ConfigurationError):
            BitConvergence(uid=1, payload=2**80, upper_n=16,
                           rng=random.Random(0),
                           config=LeaderConfig(payload_bits=64))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LeaderConfig(news_window=0)
        with pytest.raises(ConfigurationError):
            LeaderConfig(blind_send_probability=0.0)


class TestElection:
    @pytest.mark.parametrize(
        "topo", [path(10), cycle(12), star(10), expander(16, 4, seed=1)],
        ids=["path", "cycle", "star", "expander"],
    )
    def test_converges_to_minimum_uid_static(self, topo):
        uids = list(range(1, topo.n + 1))
        random.Random(4).shuffle(uids)
        result = run_leader_election(
            StaticDynamicGraph(topo), uids=uids, seed=2, max_rounds=20_000
        )
        assert result.terminated
        leaders = {node.candidate_leader for node in result.nodes.values()}
        assert leaders == {1}

    def test_converges_on_fully_dynamic_graph(self):
        topo = expander(16, 4, seed=3)
        uids = list(range(1, 17))
        result = run_leader_election(
            RelabelingAdversary(topo, tau=1, seed=5),
            uids=uids,
            seed=2,
            max_rounds=40_000,
        )
        assert result.terminated
        assert {n.candidate_leader for n in result.nodes.values()} == {1}

    def test_converges_on_rewired_graph(self):
        result = run_leader_election(
            PeriodicRewireGraph.resampled_gnp(14, 0.3, tau=4, seed=1),
            uids=list(range(1, 15)),
            seed=2,
            max_rounds=40_000,
        )
        assert result.terminated

    def test_payload_of_winner_disseminated(self):
        topo = cycle(10)
        uids = list(range(1, 11))
        payloads = [100 + u for u in uids]
        result = run_leader_election(
            StaticDynamicGraph(topo),
            uids=uids,
            payloads=payloads,
            seed=3,
            max_rounds=20_000,
        )
        assert result.terminated
        # Winner is uid 1 at vertex 0 -> payload 101 everywhere.
        for node in result.nodes.values():
            assert node.candidate_payload == 101

    def test_agreement_permanent_after_convergence(self):
        """Once all candidates hit the minimum, they never change again."""
        topo = cycle(8)
        uids = list(range(1, 9))
        result = run_leader_election(
            StaticDynamicGraph(topo), uids=uids, seed=7, max_rounds=20_000
        )
        assert result.terminated
        # Run 200 more rounds by hand: candidates must stay at 1.
        from repro.sim.engine import Simulation

        sim = Simulation(
            StaticDynamicGraph(topo),
            result.nodes,
            b=1,
            seed=99,
            channel_policy=ChannelPolicy.for_upper_n(8),
        )
        sim.run(max_rounds=200)
        assert {n.candidate_leader for n in result.nodes.values()} == {1}


def median_election_rounds(make_graph, n, seeds):
    return statistics.median(
        run_leader_election(make_graph(seed), uids=list(range(1, n + 1)),
                            seed=seed, max_rounds=100_000).rounds
        for seed in seeds
    )


class TestElectionShape:
    SEEDS = (11, 23, 37, 51, 67, 83, 97)

    def test_stability_helps_the_star_and_not_the_expander(self):
        """The Δ^(1/τ) factor of SimSharedBit's leader term: holding the
        high-Δ star static must not lose to τ = 1, and on a low-Δ
        expander τ barely matters."""
        def rounds(topo, tau):
            return median_election_rounds(
                lambda seed: StaticDynamicGraph(topo) if tau is None
                else RelabelingAdversary(topo, tau=tau, seed=seed),
                16, self.SEEDS)

        assert rounds(star(16), None) < 1.25 * rounds(star(16), 1)
        spread = [rounds(expander(16, 4, seed=1), tau) for tau in (1, None)]
        assert max(spread) < 4 * min(spread), spread

    def test_low_expansion_slows_election(self):
        def rounds(topo):
            return median_election_rounds(
                lambda _seed: StaticDynamicGraph(topo), 32, (11, 23, 37))

        assert rounds(cycle(32)) > rounds(expander(32, 4, seed=1))
