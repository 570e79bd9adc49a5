"""Tests for gossip instances, tokens, and the GossipNode base class."""

import random

import pytest

from repro.commcplx.transfer import TransferProtocol
from repro.core.problem import (
    GossipInstance,
    GossipNode,
    everyone_starts_instance,
    skewed_instance,
    uniform_instance,
)
from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.sim.channel import Channel, ChannelPolicy


class ConcreteNode(GossipNode):
    """Minimal concrete subclass for exercising the base class."""

    def advertise(self, round_index, neighbor_uids):
        return 0

    def propose(self, round_index, neighbors):
        return None

    def interact(self, responder, channel, round_index):
        pass


class TestToken:
    def test_defaults_origin_to_label(self):
        t = Token(token_id=5)
        assert t.origin_uid == 5

    def test_explicit_origin(self):
        t = Token(token_id=5, origin_uid=9)
        assert t.origin_uid == 9

    def test_rejects_label_below_one(self):
        with pytest.raises(ConfigurationError):
            Token(token_id=0)

    def test_payload_preserved(self):
        assert Token(token_id=3, payload="hello").payload == "hello"


class TestUniformInstance:
    def test_counts(self):
        inst = uniform_instance(n=10, k=4, seed=1)
        assert inst.n == 10
        assert inst.k == 4
        assert len(inst.token_ids) == 4

    def test_token_labels_are_origin_uids(self):
        inst = uniform_instance(n=10, k=4, seed=1)
        for vertex, tokens in inst.initial_tokens.items():
            for token in tokens:
                assert token.token_id == inst.uid_of(vertex)

    def test_uids_distinct_in_range(self):
        inst = uniform_instance(n=10, k=3, seed=2, upper_n=50)
        assert len(set(inst.uids)) == 10
        assert all(1 <= uid <= 50 for uid in inst.uids)

    def test_loose_upper_bound(self):
        inst = uniform_instance(n=8, k=2, seed=3, upper_n=64)
        assert inst.upper_n == 64

    def test_determinism(self):
        a = uniform_instance(n=10, k=4, seed=9)
        b = uniform_instance(n=10, k=4, seed=9)
        assert a.uids == b.uids
        assert a.token_ids == b.token_ids

    def test_k_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            uniform_instance(n=5, k=6, seed=0)
        with pytest.raises(ConfigurationError):
            uniform_instance(n=5, k=0, seed=0)
        with pytest.raises(ConfigurationError):  # a bool is not an int
            uniform_instance(n=5, k=True, seed=0)
        with pytest.raises(ConfigurationError):
            skewed_instance(n=5, k=True, seed=0)


class TestEveryoneStarts:
    def test_k_equals_n(self):
        inst = everyone_starts_instance(n=7, seed=1)
        assert inst.k == 7
        assert len(inst.initial_tokens) == 7


class TestSkewedInstance:
    def test_single_holder_gets_all(self):
        inst = skewed_instance(n=10, k=5, seed=1, holders=1)
        assert inst.k == 5
        assert len(inst.initial_tokens) == 1
        holder = next(iter(inst.initial_tokens))
        assert len(inst.initial_tokens[holder]) == 5

    def test_labels_unique(self):
        inst = skewed_instance(n=10, k=6, seed=2, holders=2)
        labels = [t.token_id for ts in inst.initial_tokens.values() for t in ts]
        assert len(labels) == len(set(labels))

    def test_holder_bounds(self):
        with pytest.raises(ConfigurationError):
            skewed_instance(n=10, k=3, seed=0, holders=4)


class TestInstanceValidation:
    def test_duplicate_token_start_rejected(self):
        with pytest.raises(ConfigurationError):
            GossipInstance(
                n=3,
                upper_n=3,
                uids=(1, 2, 3),
                initial_tokens={0: (Token(1),), 1: (Token(1),)},
            )

    def test_upper_bound_below_n_rejected(self):
        with pytest.raises(ConfigurationError):
            GossipInstance(n=3, upper_n=2, uids=(1, 2, 3))

    def test_duplicate_uids_rejected(self):
        with pytest.raises(ConfigurationError):
            GossipInstance(n=3, upper_n=3, uids=(1, 1, 2))


class TestGossipNodeBase:
    def make_node(self, uid=1, tokens=()):
        return ConcreteNode(
            uid=uid, upper_n=64, initial_tokens=tokens, rng=random.Random(0)
        )

    def test_known_tokens(self):
        node = self.make_node(tokens=(Token(3), Token(7)))
        assert node.known_tokens == frozenset({3, 7})

    def test_known_tokens_is_shared_between_mutations(self):
        node = self.make_node(tokens=(Token(3), Token(7)))
        first = node.known_tokens
        assert node.known_tokens is first
        node.store_token(Token(9))
        assert node.known_tokens == frozenset({3, 7, 9})
        assert first == frozenset({3, 7})  # the old view is never mutated
        assert node.known_tokens is node.known_tokens
        node.reset_tokens()
        assert node.known_tokens == frozenset({3, 7})

    def test_reset_of_a_node_that_started_empty_forgets_everything(self):
        node = self.make_node()
        assert node.known_tokens == frozenset()
        node.store_token(Token(9))
        assert node.known_tokens == frozenset({9})
        node.reset_tokens()
        assert node.known_tokens == frozenset()
        # An idle network's nodes share one empty view (216 B each otherwise).
        assert node.known_tokens is self.make_node(uid=2).known_tokens

    def test_run_transfer_refreshes_the_receiving_view(self):
        a = self.make_node(uid=1, tokens=(Token(5),))
        b = self.make_node(uid=2, tokens=(Token(4),))
        stale, kept = a.known_tokens, b.known_tokens
        protocol = TransferProtocol(upper_n=64, epsilon=1e-6)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        assert a.run_transfer(b, protocol, channel).moved_to_a
        assert a.known_tokens == frozenset({4, 5}) and stale == {5}
        assert b.known_tokens is kept  # the side that stored nothing

    def test_store_and_query(self):
        node = self.make_node()
        node.store_token(Token(9, payload="p"))
        assert node.has_token(9)
        assert node.token(9).payload == "p"

    def test_store_rejects_out_of_range(self):
        node = self.make_node()
        with pytest.raises(ConfigurationError):
            node.store_token(Token(65))

    def test_run_transfer_moves_payload(self):
        a = self.make_node(uid=1, tokens=(Token(5, payload="from-a"),))
        b = self.make_node(uid=2)
        protocol = TransferProtocol(upper_n=64, epsilon=1e-6)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        outcome = a.run_transfer(b, protocol, channel)
        assert outcome.moved_to_b
        assert b.has_token(5)
        assert b.token(5).payload == "from-a"

    def test_run_transfer_pulls_too(self):
        a = self.make_node(uid=1)
        b = self.make_node(uid=2, tokens=(Token(4, payload="from-b"),))
        protocol = TransferProtocol(upper_n=64, epsilon=1e-6)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        outcome = a.run_transfer(b, protocol, channel)
        assert outcome.moved_to_a
        assert a.token(4).payload == "from-b"
