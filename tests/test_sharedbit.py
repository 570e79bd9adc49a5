"""Tests for SharedBit: the advertisement hash (Lemma 5.2) and behavior."""

import random

import pytest

from repro.core.problem import uniform_instance
from repro.core.sharedbit import SharedBitConfig, SharedBitNode
from repro.core.tokens import Token
from repro.rng import SharedRandomness
from repro.sim.context import NeighborView

KEY = b"s" * 32


def make_node(uid, tokens=(), shared=None, upper_n=64, seed=0):
    return SharedBitNode(
        uid=uid,
        upper_n=upper_n,
        initial_tokens=tuple(Token(t) for t in tokens),
        rng=random.Random(seed),
        shared=shared or SharedRandomness(KEY, upper_n),
    )


class TestAdvertisementBit:
    def test_empty_set_advertises_zero(self):
        node = make_node(uid=1)
        for r in range(1, 20):
            assert node.advertise(r, ()) == 0

    def test_equal_sets_same_bit(self):
        """Lemma 5.2 part 1: identical token sets always produce equal bits."""
        shared = SharedRandomness(KEY, 64)
        a = make_node(uid=1, tokens=(3, 7, 20), shared=shared)
        b = make_node(uid=2, tokens=(3, 7, 20), shared=shared)
        for r in range(1, 60):
            assert a.advertise(r, ()) == b.advertise(r, ())

    def test_different_sets_differ_half_the_time(self):
        """Lemma 5.2 part 2: different sets disagree with probability 1/2."""
        shared = SharedRandomness(KEY, 64)
        a = make_node(uid=1, tokens=(3, 7), shared=shared)
        b = make_node(uid=2, tokens=(3, 9), shared=shared)
        rounds = 2000
        disagreements = sum(
            1 for r in range(1, rounds + 1)
            if a.advertisement_bit(r) != b.advertisement_bit(r)
        )
        # Binomial(2000, 1/2): ~6 sigma band.
        assert 860 < disagreements < 1140

    def test_superset_differs_half_the_time(self):
        shared = SharedRandomness(KEY, 64)
        a = make_node(uid=1, tokens=(3, 7), shared=shared)
        b = make_node(uid=2, tokens=(3, 7, 9), shared=shared)
        rounds = 2000
        disagreements = sum(
            1 for r in range(1, rounds + 1)
            if a.advertisement_bit(r) != b.advertisement_bit(r)
        )
        assert 860 < disagreements < 1140

    def test_bit_is_parity_of_token_bits(self):
        shared = SharedRandomness(KEY, 64)
        node = make_node(uid=1, tokens=(5, 11, 30), shared=shared)
        for r in (1, 13, 99):
            expected = (
                shared.token_bit(r, 5)
                ^ shared.token_bit(r, 11)
                ^ shared.token_bit(r, 30)
            )
            assert node.advertisement_bit(r) == expected


class TestProposalDiscipline:
    def test_zero_advertiser_never_proposes(self):
        node = make_node(uid=1)  # empty set -> bit 0
        node.advertise(1, (2,))
        views = (NeighborView(uid=2, tag=1), NeighborView(uid=3, tag=0))
        assert node.propose(1, views) is None

    def test_one_advertiser_targets_a_zero_neighbor(self):
        shared = SharedRandomness(KEY, 64)
        node = make_node(uid=1, tokens=(5,), shared=shared)
        # Find a round where this node advertises 1.
        r = next(r for r in range(1, 200) if node.advertisement_bit(r) == 1)
        node.advertise(r, (2, 3))
        views = (NeighborView(uid=2, tag=0), NeighborView(uid=3, tag=1))
        assert node.propose(r, views) == 2

    def test_one_advertiser_with_no_zero_neighbors_waits(self):
        shared = SharedRandomness(KEY, 64)
        node = make_node(uid=1, tokens=(5,), shared=shared)
        r = next(r for r in range(1, 200) if node.advertisement_bit(r) == 1)
        node.advertise(r, (2,))
        views = (NeighborView(uid=2, tag=1),)
        assert node.propose(r, views) is None

    def test_selection_uses_shared_bits(self):
        """Two nodes with the same uid/string pick the same target."""
        shared = SharedRandomness(KEY, 64)
        a = make_node(uid=1, tokens=(5,), shared=shared, seed=1)
        b = make_node(uid=1, tokens=(5,), shared=shared, seed=2)
        r = next(r for r in range(1, 200) if a.advertisement_bit(r) == 1)
        views = tuple(NeighborView(uid=u, tag=0) for u in (4, 9, 13))
        a.advertise(r, (4, 9, 13))
        b.advertise(r, (4, 9, 13))
        # Private seeds differ (1 vs 2) but the choice comes from the
        # shared string, so it is identical.
        assert a.propose(r, views) == b.propose(r, views)


class TestConfig:
    def test_presets(self):
        assert SharedBitConfig.paper().transfer_error_exponent == 2.0
        assert SharedBitConfig.practical().transfer_error_exponent == 1.0

    def test_epsilon_from_exponent(self):
        cfg = SharedBitConfig(transfer_error_exponent=2.0)
        assert cfg.transfer_epsilon(10) == pytest.approx(0.01)

    def test_group_offset_shifts_groups(self):
        shared = SharedRandomness(KEY, 64)
        plain = make_node(uid=1, tokens=(5,), shared=shared)
        offset = SharedBitNode(
            uid=1,
            upper_n=64,
            initial_tokens=(Token(5),),
            rng=random.Random(0),
            shared=shared,
            config=SharedBitConfig(group_offset=10),
        )
        assert offset.advertisement_bit(1) == plain.advertisement_bit(11)


class TestWindowRetag:
    """The batched async ops retag from the scan's bit table; the bits
    are ``advertisement_bit``'s, without its per-token PRF calls."""

    def _ops(self, monkeypatch):
        shared = SharedRandomness(KEY, 64)
        holdings = [(3, 7, 20), (7,), (), (3, 20, 41, 64)]
        nodes = [make_node(uid=v + 1, tokens=held, shared=shared)
                 for v, held in enumerate(holdings)]
        ops = SharedBitNode.make_window_hooks(nodes)
        scalar_calls = []
        real = SharedRandomness.token_bit
        monkeypatch.setattr(
            SharedRandomness, "token_bit",
            lambda self, group, label: (scalar_calls.append(label),
                                        real(self, group, label))[1],
        )
        return nodes, ops, scalar_calls

    def test_table_hit_equals_scalar_bit_without_prf_calls(self, monkeypatch):
        nodes, ops, scalar_calls = self._ops(monkeypatch)
        for cycles in ([5, 5, 5, 5], [5, 6, 6, 9]):
            ops.scan([0, 1, 2, 3], cycles)
            # a transfer lands mid-window: 41 reaches vertex 1
            nodes[1].store_token(Token(41))
            tags = [ops.retag(v, c) for v, c in zip(range(4), cycles)]
            assert scalar_calls == []
            assert tags == [node.advertisement_bit(c)
                            for node, c in zip(nodes, cycles)]
            scalar_calls.clear()
            nodes[1].reset_tokens()

    def test_unknown_cycle_or_label_takes_the_scalar_route(self, monkeypatch):
        nodes, ops, scalar_calls = self._ops(monkeypatch)
        ops.scan([0, 1, 2, 3], [5, 5, 5, 5])
        assert ops.retag(0, 8) == nodes[0].advertisement_bit(8)
        assert scalar_calls  # cycle 8 has no table
        scalar_calls.clear()
        nodes[1].store_token(Token(50))  # nobody held 50 at scan time
        assert ops.retag(1, 5) == nodes[1].advertisement_bit(5)
        assert 50 in scalar_calls
