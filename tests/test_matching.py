"""Tests for proposal resolution — the model's connection rules."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.sim.engine import _DICT_RESOLVER_MAX_PROPOSALS as SPLIT
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    resolve_proposals,
    resolve_proposals_arrays,
)

ALL_RULES = sorted(ACCEPTANCE_RULES) + ["unbounded"]


def _seeded_map(size: int, seed: int) -> dict:
    """``size`` proposals among ``3 * SPLIT`` UIDs (self-proposals
    included; the properties drop them)."""
    rng = random.Random(seed)
    uids = range(3 * SPLIT)
    return {p: rng.choice(uids) for p in rng.sample(uids, size)}


#: Proposal maps on both sides of the round engine's resolver split
#: (its array path resolves rounds of at most SPLIT proposals with the
#: dict form, larger ones with the array form): small maps over few UIDs
#: contend often; large ones, up to twice the split, are drawn from a
#: seed (hypothesis builds a map of hundreds of keys slowly).
PROPOSAL_MAPS = st.one_of(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        max_size=25,
    ),
    st.builds(
        _seeded_map,
        st.integers(min_value=SPLIT + 1, max_value=2 * SPLIT),
        st.integers(min_value=0, max_value=2**32),
    ),
)


def shared(seed_or_rng):
    """The centralized stream discipline: every contested target draws
    from one sequential stream."""
    rng = (
        seed_or_rng if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    return lambda _target: rng


def per_target(seed):
    """The distributed discipline: a fresh stream per contested target."""
    return lambda target: random.Random(f"{seed}/{target}")


class TestBasicRules:
    def test_single_proposal_connects(self):
        matches = resolve_proposals({1: 2}, shared(0))
        assert matches == [(1, 2)]

    def test_proposer_cannot_receive(self):
        # 1 -> 2 and 2 -> 3: node 2 proposed, so 1's proposal is lost.
        matches = resolve_proposals({1: 2, 2: 3}, shared(0))
        assert matches == [(2, 3)]

    def test_one_acceptance_per_target(self):
        matches = resolve_proposals({1: 9, 2: 9, 3: 9}, shared(0))
        assert len(matches) == 1
        initiator, responder = matches[0]
        assert responder == 9
        assert initiator in {1, 2, 3}

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals({1: 1}, shared(0))

    def test_empty_input(self):
        assert resolve_proposals({}, shared(0)) == []

    def test_contested_uniform_requires_supplier(self):
        # A missing supplier is a configuration error, and only a
        # contested target needs one.
        assert resolve_proposals({1: 2}, None) == [(1, 2)]
        with pytest.raises(ConfigurationError, match="stream supplier"):
            resolve_proposals({1: 9, 2: 9}, None)

    def test_disjoint_pairs_all_connect(self):
        matches = resolve_proposals({1: 2, 3: 4, 5: 6}, shared(0))
        assert sorted(matches) == [(1, 2), (3, 4), (5, 6)]

    def test_deterministic_given_seed(self):
        proposals = {i: 99 for i in range(1, 8)}
        a = resolve_proposals(proposals, shared(42))
        b = resolve_proposals(proposals, shared(42))
        assert a == b


class TestAcceptanceUniformity:
    def test_acceptance_roughly_uniform(self):
        counts = Counter()
        for seed in range(3000):
            matches = resolve_proposals({1: 9, 2: 9, 3: 9}, shared(seed))
            counts[matches[0][0]] += 1
        assert set(counts) == {1, 2, 3}
        assert min(counts.values()) > 800  # each ~1000 of 3000


class TestDeterministicRules:
    """Direct coverage for lowest_uid/highest_uid (previously only
    exercised through the engine's acceptance plumbing)."""

    def test_lowest_uid_picks_minimum_sender(self):
        matches = resolve_proposals(
            {8: 1, 3: 1, 5: 1}, shared(0), rule="lowest_uid"
        )
        assert matches == [(3, 1)]

    def test_highest_uid_picks_maximum_sender(self):
        matches = resolve_proposals(
            {8: 1, 3: 1, 5: 1}, shared(0), rule="highest_uid"
        )
        assert matches == [(8, 1)]

    def test_rules_consume_no_randomness(self):
        # Deterministic rules must leave the rng untouched so runs with
        # different rules stay comparable draw-for-draw downstream.
        for rule in ("lowest_uid", "highest_uid"):
            rng = random.Random(99)
            resolve_proposals({1: 9, 2: 9, 3: 8}, shared(rng), rule=rule)
            assert rng.random() == random.Random(99).random()

    def test_multiple_targets_sorted_output(self):
        matches = resolve_proposals(
            {5: 2, 6: 2, 7: 4, 8: 4}, shared(0), rule="lowest_uid"
        )
        assert matches == [(5, 2), (7, 4)]


class TestUnboundedBaseline:
    def test_all_proposals_to_idle_target_connect(self):
        matches = resolve_proposals({1: 9, 2: 9, 3: 9}, rule="unbounded")
        assert matches == [(1, 9), (2, 9), (3, 9)]

    def test_output_ordered_by_target_then_sender(self):
        matches = resolve_proposals(
            {7: 2, 1: 4, 3: 2, 5: 4}, rule="unbounded"
        )
        assert matches == [(3, 2), (7, 2), (1, 4), (5, 4)]

    def test_proposer_targets_lost(self):
        # 3 proposed, so proposals aimed at 3 die; 3's own survives.
        matches = resolve_proposals({1: 3, 2: 3, 3: 9}, rule="unbounded")
        assert matches == [(3, 9)]

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals({4: 4}, rule="unbounded")

    def test_empty(self):
        assert resolve_proposals({}, rule="unbounded") == []


def _as_arrays(proposals: dict):
    proposers = np.array(sorted(proposals), dtype=np.int64)
    targets = np.array([proposals[p] for p in sorted(proposals)],
                       dtype=np.int64)
    return proposers, targets


class TestArrayResolver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_proposals_arrays([1], [2], shared(0), rule="fifo")

    def test_uniform_requires_rng(self):
        # Only a contested target draws, so only it needs the supplier.
        assert resolve_proposals_arrays([1], [2], None) == [(1, 2)]
        with pytest.raises(ConfigurationError, match="stream supplier"):
            resolve_proposals_arrays([1, 2], [9, 9], None, rule="uniform")

    def test_non_integer_uids_rejected(self):
        # A float->int cast would resolve proposals nobody made.
        with pytest.raises(ConfigurationError, match="integer UIDs"):
            resolve_proposals_arrays([1.9], [2.2], shared(0))
        with pytest.raises(ConfigurationError, match="integer UIDs"):
            resolve_proposals_arrays([1, 2], [9.0, 9.0], shared(0))
        assert resolve_proposals_arrays([], [], shared(0)) == []

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals_arrays([3], [3], shared(0))

    def test_duplicate_proposers_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals_arrays([3, 3], [1, 2], shared(0))

    def test_returns_python_ints(self):
        matches = resolve_proposals_arrays([1], [2], shared(0))
        assert matches == [(1, 2)]
        assert all(
            type(x) is int for pair in matches for x in pair
        )

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_agrees_with_dict_resolver_on_fixed_cases(self, rule):
        cases = [
            {},
            {1: 2},
            {1: 9, 2: 9, 3: 9},
            {1: 2, 2: 3},
            {5: 2, 6: 2, 7: 4, 8: 4, 2: 6},
        ]
        for proposals in cases:
            expected = resolve_proposals(proposals, shared(17), rule=rule)
            got = resolve_proposals_arrays(
                *_as_arrays(proposals), shared(17), rule=rule
            )
            assert got == expected, (rule, proposals)


@given(
    PROPOSAL_MAPS,
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(ALL_RULES),
)
@settings(max_examples=200, deadline=None)
def test_array_resolver_agrees_with_dict_resolver(proposals, seed, rule):
    """Property: on any proposal map, the array resolver returns the dict
    resolver's matches exactly — pair values, list order — *and* leaves
    the shared random stream in the same state (the byte-identical
    matching guarantee the engine's fast path is built on)."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    proposers, targets = _as_arrays(proposals)
    rng_dict = random.Random(seed)
    rng_array = random.Random(seed)
    expected = resolve_proposals(proposals, shared(rng_dict), rule=rule)
    got = resolve_proposals_arrays(proposers, targets, shared(rng_array),
                                   rule=rule)
    # Same post-resolution stream state: the next draw agrees.
    assert rng_array.random() == rng_dict.random()
    assert got == expected


@given(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        min_size=0,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_matching_invariants(proposals, seed):
    proposals = {p: t for p, t in proposals.items() if p != t}
    matches = resolve_proposals(proposals, shared(seed))

    participants = [node for pair in matches for node in pair]
    # Invariant: one connection per node.
    assert len(participants) == len(set(participants))
    for initiator, responder in matches:
        # Initiators proposed to exactly that responder.
        assert proposals[initiator] == responder
        # Responders never proposed.
        assert responder not in proposals
    # Every proposal to a non-proposing target with no competition connects.
    incoming = Counter(t for p, t in proposals.items() if t not in proposals)
    for target, count in incoming.items():
        if count >= 1:
            assert any(resp == target for _, resp in matches)


class RecordingSupplier:
    """Wraps a supplier and logs the targets it was asked about."""

    def __init__(self, supplier):
        self.supplier = supplier
        self.asked: list[int] = []

    def __call__(self, target):
        self.asked.append(target)
        return self.supplier(target)


@given(
    PROPOSAL_MAPS,
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(ALL_RULES),
    st.sampled_from([shared, per_target]),
)
@settings(max_examples=300, deadline=None)
def test_stream_discipline(proposals, seed, rule, discipline):
    """Property: under either discipline the two forms agree pair for
    pair, and each asks the supplier exactly once per contested target
    in ascending target order — never for an uncontested target, a
    deterministic rule or ``"unbounded"``."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    dict_streams = RecordingSupplier(discipline(seed))
    array_streams = RecordingSupplier(discipline(seed))
    expected = resolve_proposals(proposals, dict_streams, rule=rule)
    got = resolve_proposals_arrays(
        *_as_arrays(proposals), array_streams, rule=rule
    )
    assert got == expected

    surviving = Counter(t for t in proposals.values() if t not in proposals)
    contested = sorted(t for t, count in surviving.items() if count > 1)
    should_ask = contested if rule == "uniform" else []
    assert dict_streams.asked == should_ask
    assert array_streams.asked == should_ask
    if len(proposals) == 1:
        assert dict_streams.asked == array_streams.asked == []
