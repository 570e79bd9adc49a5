"""Tests for acceptance rules and the classical (unbounded) baseline."""

import statistics

import pytest

from repro.analysis.fits import loglog_slope
from repro.core.runner import build_nodes
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.experiments import build_instance
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import double_star, star
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    acceptance_lottery,
    resolve_proposals,
)
from repro.sim.protocol import NodeProtocol
from repro.sim.termination import all_hold_tokens


def lottery(seed):
    """A run's acceptance lottery."""
    return acceptance_lottery(seed)


class TestBoundedRules:
    def test_uniform_is_default(self):
        matches = resolve_proposals({1: 9, 2: 9}, lottery(0))
        assert len(matches) == 1

    def test_lowest_uid_rule(self):
        matches = resolve_proposals(
            {5: 9, 2: 9, 7: 9}, lottery(0), rule="lowest_uid"
        )
        assert matches == [(2, 9)]

    def test_highest_uid_rule(self):
        matches = resolve_proposals(
            {5: 9, 2: 9, 7: 9}, lottery(0), rule="highest_uid"
        )
        assert matches == [(7, 9)]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_proposals({1: 2}, lottery(0), rule="fifo")

    def test_all_rules_preserve_one_connection_per_node(self):
        proposals = {1: 9, 2: 9, 3: 8, 4: 8}
        for rule in ACCEPTANCE_RULES:
            matches = resolve_proposals(proposals, lottery(1), rule=rule)
            nodes = [x for pair in matches for x in pair]
            assert len(nodes) == len(set(nodes))


class TestUnbounded:
    def test_every_proposal_to_non_proposer_connects(self):
        matches = resolve_proposals({1: 9, 2: 9, 3: 9}, rule="unbounded")
        assert sorted(matches) == [(1, 9), (2, 9), (3, 9)]

    def test_proposer_still_cannot_receive(self):
        matches = resolve_proposals({1: 2, 2: 3}, rule="unbounded")
        assert matches == [(2, 3)]

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals({1: 1}, rule="unbounded")


class PushyNode(NodeProtocol):
    """Everyone proposes to the hub; counts how many connections land."""

    def __init__(self, uid, is_hub):
        super().__init__(uid)
        self.is_hub = is_hub
        self.connections = 0

    def advertise(self, round_index, neighbor_uids):
        return 0

    def propose(self, round_index, neighbors):
        if self.is_hub or not neighbors:
            return None
        return min(view.uid for view in neighbors)  # the hub has uid 1

    def interact(self, responder, channel, round_index):
        channel.charge_bits(1)
        self.connections += 1
        responder.connections += 1


def run_star_round(acceptance):
    topo = star(8)
    nodes = {
        v: PushyNode(uid=v + 1, is_hub=(v == 0)) for v in range(topo.n)
    }
    sim = Simulation(
        StaticDynamicGraph(topo), nodes, b=0, seed=3, acceptance=acceptance
    )
    sim.step()
    return nodes[0].connections


class TestEngineIntegration:
    def test_bounded_hub_accepts_one(self):
        assert run_star_round("uniform") == 1

    def test_unbounded_hub_accepts_all(self):
        # All 7 leaves propose to the hub; classical model takes them all.
        assert run_star_round("unbounded") == 7

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_star_round("broadcast")

    def test_deterministic_rules_in_engine(self):
        assert run_star_round("lowest_uid") == 1
        assert run_star_round("highest_uid") == 1


def blind_doublestar_rounds(points, seed, acceptance):
    """BlindMatch on a static double star, the rumor at one hub."""
    topo = double_star(points)
    instance = build_instance({"kind": "token_at", "vertex": 0}, topo.n,
                              seed)
    sim = Simulation(
        StaticDynamicGraph(topo), build_nodes("blindmatch", instance, seed),
        b=0, seed=seed, acceptance=acceptance, trace_sample_every=1024,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
    )
    result = sim.run(max_rounds=100_000,
                     termination=all_hold_tokens(instance.token_ids))
    assert result.terminated
    return result.rounds


def test_bounded_acceptance_costs_a_steeper_delta_exponent():
    """The paper's model change, measured: the same blind algorithm on the
    same double stars pays a larger Δ-exponent when a hub accepts one
    proposal than in the classical model, where every proposal lands
    (medians over five seeds: exponents 1.15 vs 0.78)."""
    points = (2, 4, 8, 16)
    slopes = {
        acceptance: loglog_slope(
            [p + 1 for p in points],
            [statistics.median(
                blind_doublestar_rounds(p, seed, acceptance)
                for seed in (11, 23, 37, 51, 67)) for p in points],
        )
        for acceptance in ("uniform", "unbounded")
    }
    assert slopes["uniform"] > slopes["unbounded"] + 0.3, slopes
