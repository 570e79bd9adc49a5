"""Tests for the analysis diagnostics: φ, census, coalitions, ε checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.potential import (
    epsilon_gossip_solved,
    find_coalition,
    mutual_knowledge_core,
    potential,
    token_set_census,
)
from repro.errors import ConfigurationError
from repro.leader.bitconvergence import LeaderElectionNode


class Holder:
    """Stand-in node exposing known_tokens (and optionally its own token)."""

    def __init__(self, tokens, own=None):
        self.known_tokens = frozenset(tokens)
        if own is not None:
            self.own_token_id = own


class TestPotential:
    def test_all_ignorant(self):
        nodes = [Holder(set()) for _ in range(4)]
        assert potential(nodes, {1, 2}) == 8

    def test_all_informed_is_zero(self):
        nodes = [Holder({1, 2}) for _ in range(4)]
        assert potential(nodes, {1, 2}) == 0

    def test_partial(self):
        nodes = [Holder({1}), Holder({1, 2}), Holder(set())]
        assert potential(nodes, {1, 2}) == 1 + 0 + 2

    def test_extraneous_tokens_ignored(self):
        nodes = [Holder({1, 99})]
        assert potential(nodes, {1, 2}) == 1

    def test_mapping_input(self):
        nodes = {0: Holder({1}), 1: Holder(set())}
        assert potential(nodes, {1}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            potential([], {1})

    def test_a_node_without_tokens_is_named(self):
        node = LeaderElectionNode(uid=3, upper_n=8, rng=random.Random(0))
        with pytest.raises(ConfigurationError,
                           match=r"LeaderElectionNode\(uid=3\) does not"):
            potential([node], {1})


class TestCensus:
    def test_groups_identical_sets(self):
        nodes = [Holder({1}), Holder({1}), Holder({1, 2})]
        census = token_set_census(nodes)
        assert census[frozenset({1})] == 2
        assert census[frozenset({1, 2})] == 1

    def test_empty_sets_counted(self):
        census = token_set_census([Holder(set()), Holder(set())])
        assert census[frozenset()] == 2


class TestFindCoalition:
    def test_solved_when_huge_class_exists(self):
        # 9 of 10 nodes share one token set: solved for eps=0.8.
        nodes = [Holder({1, 2}) for _ in range(9)] + [Holder({1})]
        result = find_coalition(nodes, epsilon=0.8)
        assert result.solved

    def test_midsize_class_is_its_own_coalition(self):
        # Largest class has 5 of 10 nodes; eps=0.8 window is [4, 8].
        nodes = [Holder({1, 2}) for _ in range(5)] + [
            Holder({i + 10}) for i in range(5)
        ]
        result = find_coalition(nodes, epsilon=0.8)
        assert not result.solved
        assert 4 <= result.size <= 8

    def test_greedy_packs_small_classes(self):
        # All classes singletons; eps=0.5 window is [2.5, 5] of n=10.
        nodes = [Holder({i + 1}) for i in range(10)]
        result = find_coalition(nodes, epsilon=0.5)
        assert not result.solved
        assert 2.5 <= result.size <= 5

    def test_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            find_coalition([Holder({1})], epsilon=0.0)


class TestMutualKnowledgeCore:
    def test_full_knowledge_full_core(self):
        nodes = [Holder({1, 2, 3}, own=i + 1) for i in range(3)]
        assert len(mutual_knowledge_core(nodes)) == 3

    def test_isolated_node_pruned(self):
        # Nodes 1,2 know each other; node 3 knows nobody and is unknown.
        nodes = [
            Holder({1, 2}, own=1),
            Holder({1, 2}, own=2),
            Holder({3}, own=3),
        ]
        core = mutual_knowledge_core(nodes)
        assert {h.own_token_id for h in core} == {1, 2}

    def test_cascading_prune(self):
        # 3 knows 1,2,3 but nobody knows 3; dropping 3 leaves {1,2} stable.
        nodes = [
            Holder({1, 2}, own=1),
            Holder({1, 2}, own=2),
            Holder({1, 2, 3}, own=3),
        ]
        core = mutual_knowledge_core(nodes)
        assert {h.own_token_id for h in core} == {1, 2}

    def test_disconnected_knowledge_shrinks_to_singleton(self):
        nodes = [Holder({i + 1}, own=i + 1) for i in range(3)]
        # Each knows only itself; the only stable sets are singletons,
        # which trivially satisfy mutual knowledge.
        assert len(mutual_knowledge_core(nodes)) == 1

    def test_requires_own_token_id(self):
        with pytest.raises(ConfigurationError):
            mutual_knowledge_core([Holder({1})])


class TestEpsilonSolved:
    def test_census_route(self):
        nodes = [Holder({1, 2}, own=1), Holder({1, 2}, own=2)]
        assert epsilon_gossip_solved(nodes, epsilon=0.9)

    def test_core_route(self):
        # Census classes all distinct, but a mutual core of 2/3 exists.
        nodes = [
            Holder({1, 2, 9}, own=1),
            Holder({1, 2}, own=2),
            Holder({3}, own=3),
        ]
        assert epsilon_gossip_solved(nodes, epsilon=0.6)

    def test_unsolved(self):
        nodes = [Holder({1}, own=1), Holder({2}, own=2), Holder({3}, own=3)]
        assert not epsilon_gossip_solved(nodes, epsilon=0.6)


class TestPotentialMonotonicity:
    @given(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=8), max_size=8),
            min_size=1,
            max_size=8,
        ),
        st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_adding_knowledge_never_increases_phi(self, token_sets, extra):
        token_ids = frozenset(range(1, 9))
        before = [Holder(s) for s in token_sets]
        after = [Holder(s | extra) for s in token_sets]
        assert potential(after, token_ids) <= potential(before, token_ids)
