"""Tests for SharedBit: the advertisement hash (Lemma 5.2) and behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sharedbit
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


HOLDINGS = st.lists(
    st.sets(st.integers(1, 64), max_size=8), min_size=1, max_size=6
)


class TestWindowScan:
    """The async window ops read each member's tag from its current
    token set through a per-cycle bit table: ``advertisement_bit``'s
    bits, derived once per (cycle, label)."""

    @staticmethod
    def _population(holdings):
        shared = SharedRandomness(KEY, 64)
        nodes = [make_node(uid=v + 1, tokens=held, shared=shared)
                 for v, held in enumerate(holdings)]
        return nodes, SharedBitNode.make_window_hooks(nodes)

    @staticmethod
    def _expected(nodes, vertices, cycles):
        return [nodes[v].advertisement_bit(c)
                for v, c in zip(vertices, cycles)]

    @given(holdings=HOLDINGS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scan_equals_scalar_bit_on_current_state(self, holdings, data):
        nodes, ops = self._population(holdings)
        n = len(nodes)
        vertices = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        cycles = data.draw(st.lists(st.integers(1, 4),
                                    min_size=len(vertices),
                                    max_size=len(vertices)))
        tags, senders = ops.scan(vertices, cycles)
        assert tags == self._expected(nodes, vertices, cycles)
        assert senders == [tag == 1 for tag in tags]
        # A transfer or crash lands between two scans of one cycle.
        vertex = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            nodes[vertex].store_token(Token(data.draw(st.integers(1, 64))))
        else:
            nodes[vertex].reset_tokens()
        tags, senders = ops.scan(vertices, cycles)
        assert tags == self._expected(nodes, vertices, cycles)
        assert senders == [tag == 1 for tag in tags]

    def test_each_cycle_label_bit_is_derived_once(self, monkeypatch):
        derived = []
        real = SharedRandomness.token_bits
        monkeypatch.setattr(
            SharedRandomness, "token_bits",
            lambda self, group, labels: (
                derived.extend((group, label) for label in labels),
                real(self, group, labels))[1],
        )
        holdings = [(3, 7, 20), (7,), (), (3, 20, 41, 64), (7, 41)]
        nodes, ops = self._population(holdings)
        needed = set()
        for cycles in ([5] * 5, [5, 6, 6, 9, 5], [9] * 5):
            ops.scan(list(range(5)), cycles)
            needed.update((cycle, label)
                          for held, cycle in zip(holdings, cycles)
                          for label in held)
        assert len(derived) == len(set(derived))
        assert set(derived) == needed

    def test_tables_are_bounded_and_rebuilt_after_eviction(self):
        nodes, ops = self._population([(3, 7, 20), (41,)])
        for cycle in range(1, 101):
            ops.scan([0, 1], [cycle, cycle])
        assert len(ops._tables) <= sharedbit._BIT_TABLES
        assert 1 not in ops._tables
        assert ops.scan([0, 1], [1, 1])[0] == self._expected(
            nodes, [0, 1], [1, 1])
