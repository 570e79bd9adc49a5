"""Tests for BlindMatch: coin discipline and end-to-end behavior."""

import random

import numpy as np
import pytest

import repro.core.blindmatch as blindmatch
from repro.core.blindmatch import BlindMatchConfig, BlindMatchNode
from repro.core.problem import GossipNode, uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.experiments.fastpath import run_case
from repro.graphs.dynamic import RelabelingAdversary, StaticDynamicGraph
from repro.graphs.topologies import expander, path, star
from repro.rng import KeyedCounter
from repro.sim.adjacency import CSRAdjacency
from repro.sim.context import NeighborView


def make_node(uid=1, tokens=(), seed=0):
    return BlindMatchNode(
        uid=uid,
        upper_n=32,
        initial_tokens=tuple(Token(t) for t in tokens),
        rng=random.Random(seed),
    )


class TestBehavior:
    def test_always_advertises_zero(self):
        node = make_node()
        for r in range(1, 50):
            assert node.advertise(r, (2, 3)) == 0

    def test_sender_coin_is_roughly_fair(self):
        node = make_node(seed=5)
        views = (NeighborView(uid=2, tag=0),)
        sends = 0
        for r in range(1, 2001):
            node.advertise(r, (2,))
            if node.propose(r, views) is not None:
                sends += 1
        assert 860 < sends < 1140

    def test_the_coin_alone_decides_who_proposes(self):
        node = make_node(seed=0)
        lane = node.coins.lane(node.uid)
        views = (NeighborView(uid=2, tag=0),)
        for r in range(1, 100):
            node.advertise(r, (2,))
            sender = KeyedCounter.word(lane, r) >> 63
            assert node.propose(r, views) == (2 if sender else None)

    def test_no_neighbors_no_proposal(self):
        node = make_node()
        node.advertise(1, ())
        assert node.propose(1, ()) is None

    def test_target_uniform_over_neighbors(self):
        node = make_node(seed=9)
        uids = (2, 3, 4, 5)
        views = tuple(NeighborView(uid=u, tag=0) for u in uids)
        counts = {u: 0 for u in uids}
        for r in range(1, 4001):
            node.advertise(r, uids)
            target = node.propose(r, views)
            if target is not None:
                counts[target] += 1
        total = sum(counts.values())
        for u in uids:
            assert counts[u] > 0.15 * total  # ~25% each


def _population(n, seed=4):
    """A built population and its UID-bound CSR on a 4-regular expander,
    plus the same CSR with every fifth vertex asleep."""
    instance = uniform_instance(n=n, k=2, seed=seed)
    nodes = build_nodes("blindmatch", instance, seed=seed)
    population = [nodes[vertex] for vertex in range(n)]
    uids = np.array([node.uid for node in population], dtype=np.int64)
    bound = CSRAdjacency.from_graph(
        expander(n, degree=4, seed=seed).graph).bind_uids(uids)
    active = np.arange(n) % 5 != 0
    return population, bound, bound.masked_bound(active)


def _scalar_targets(population, csr, round_index):
    """What the object path proposes over ``csr``'s rows."""
    targets = []
    for vertex, node in enumerate(population):
        row = csr.uids[csr.indptr[vertex]:csr.indptr[vertex + 1]]
        views = tuple(NeighborView(uid=int(uid), tag=0) for uid in row)
        target = node.propose(round_index, views)
        targets.append(-1 if target is None else target)
    return targets


class TestDraws:
    """Every path reaches the same keyed draw for (uid, round)."""

    # Both sides of the Python-walk / numpy-gather switch in propose_all.
    @pytest.mark.parametrize("n", [20, blindmatch._PYTHON_WALK_N + 36])
    def test_bulk_hooks_equal_scalar_hooks(self, n):
        population, bound, masked = _population(n)
        for csr in (bound, masked):
            for round_index in (1, 2, 77, 2**33 + 5):
                tags = BlindMatchNode.advertise_all(population, round_index, csr)
                assert tags.tolist() == [0] * n
                bulk = BlindMatchNode.propose_all(
                    population, round_index, csr, tags)
                assert bulk.tolist() == _scalar_targets(
                    population, csr, round_index)
        senders = sum(target >= 0 for target in bulk.tolist())
        assert 0 < senders < n

    def test_window_ops_equal_scalar_hooks(self):
        population, bound, _ = _population(30)
        ops = BlindMatchNode.make_window_hooks(population)
        vertices = list(range(30))
        for cycle in (1, 9, 2**40):
            tags, senders = ops.scan(vertices, [cycle] * 30)
            assert tags == [0] * 30
            expected = _scalar_targets(population, bound, cycle)
            for vertex, sender in enumerate(senders):
                row = bound.row(vertex)[0]
                target = ops.propose_one(vertex, cycle, row, [0] * len(row))
                assert (target if sender else -1) == expected[vertex]

    def test_walk_redraws_in_the_rejection_zone(self, monkeypatch):
        # A low word of 0 lands in Lemire's rejection zone for every
        # degree that is not a power of two (2^32 mod 3 = 1, ...): the
        # walk must then redraw exactly as index() does.
        population, _, masked = _population(20)
        coins = population[0].coins
        words = [1 << 63] * 20
        monkeypatch.setattr(coins, "words_list", lambda lanes, r: words)
        targets = BlindMatchNode.propose_all(population, 3, masked, None)
        lanes = coins.lanes(masked.vertex_uids).tolist()
        degrees = np.diff(masked.indptr).tolist()
        assert 3 in degrees
        for vertex, degree in enumerate(degrees):
            start = int(masked.indptr[vertex])
            expected = -1 if not degree else masked.uids[
                start + KeyedCounter.index(lanes[vertex], 3, degree, 1 << 63)]
            assert targets[vertex] == expected

    def test_object_and_array_paths_agree_past_the_walk(self):
        # The golden corpus runs n = 24, inside the Python walk.
        n = blindmatch._PYTHON_WALK_N + 36
        runs = [run_case("blindmatch", "geometric", "uniform", mode, n=n,
                         fault="sleep") for mode in ("object", "array")]
        assert runs[0] == runs[1]

    def test_a_node_materialises_its_stream_only_to_search(self, monkeypatch):
        # Transfer between equal sets draws nothing, so only initiators
        # of an unequal-set Transfer touch their private stream.
        searchers = set()
        run_transfer = GossipNode.run_transfer

        def recording(self, peer, protocol, channel):
            if self.known_tokens != peer.known_tokens:
                searchers.add(self.uid)
            return run_transfer(self, peer, protocol, channel)

        monkeypatch.setattr(GossipNode, "run_transfer", recording)
        instance = uniform_instance(n=3000, k=1, seed=2)
        result = run_gossip(
            "blindmatch", StaticDynamicGraph(expander(3000, degree=6, seed=2)),
            instance, seed=2, max_rounds=40, engine_mode="array")
        materialised = {node.uid for node in result.nodes.values()
                        if "_rng" in vars(node.rng)}
        assert searchers and materialised <= searchers
        assert len(materialised) < instance.n


class TestConfig:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ConfigurationError):
            BlindMatchConfig(transfer_error_exponent=0)

    def test_presets_distinct(self):
        assert (
            BlindMatchConfig.paper().transfer_error_exponent
            != BlindMatchConfig.practical().transfer_error_exponent
        )


class TestEndToEnd:
    def test_solves_on_static_path(self):
        inst = uniform_instance(n=8, k=2, seed=3)
        result = run_gossip(
            "blindmatch",
            StaticDynamicGraph(path(8)),
            inst,
            seed=3,
            max_rounds=20_000,
        )
        assert result.solved
        assert result.residual_potential == 0

    def test_solves_on_dynamic_star(self):
        # The hard regime: b=0 on a relabeled star every round.
        inst = uniform_instance(n=8, k=1, seed=1)
        result = run_gossip(
            "blindmatch",
            RelabelingAdversary(star(8), tau=1, seed=2),
            inst,
            seed=1,
            max_rounds=50_000,
        )
        assert result.solved

    def test_payloads_travel_intact(self):
        inst = uniform_instance(n=6, k=2, seed=5)
        result = run_gossip(
            "blindmatch",
            StaticDynamicGraph(path(6)),
            inst,
            seed=5,
            max_rounds=20_000,
        )
        assert result.solved
        expected = {
            t.token_id: t.payload
            for ts in inst.initial_tokens.values()
            for t in ts
        }
        for node in result.nodes.values():
            for token_id, payload in expected.items():
                assert node.token(token_id).payload == payload
