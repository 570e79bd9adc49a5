"""Tests for Transfer(ε): correctness, direction, and bit budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import ceil_log2
from repro.commcplx.transfer import TransferProtocol, trials_for_error
from repro.errors import ConfigurationError
from repro.sim.channel import Channel, ChannelPolicy


def make_protocol(upper_n=64, epsilon=1e-3):
    return TransferProtocol(upper_n=upper_n, epsilon=epsilon)


class TestTrialsForError:
    def test_tighter_epsilon_needs_more_trials(self):
        assert trials_for_error(64, 1e-6) > trials_for_error(64, 0.4)

    def test_minimum_one(self):
        assert trials_for_error(4, 0.9) >= 1

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            trials_for_error(64, 0.0)
        with pytest.raises(ConfigurationError):
            trials_for_error(64, 1.0)


class TestLocateCorrectness:
    def test_finds_smallest_difference(self):
        proto = make_protocol()
        rng = random.Random(0)
        outcome = proto.locate({3, 10, 20}, {10, 20, 40}, rng)
        assert outcome.token_id == 3
        assert outcome.moved_to_b  # a owns 3, so it moves a -> b
        assert outcome.consistent

    def test_direction_b_to_a(self):
        proto = make_protocol()
        outcome = proto.locate({10}, {5, 10}, random.Random(1))
        assert outcome.token_id == 5
        assert outcome.moved_to_a

    def test_equal_sets_no_transfer(self):
        proto = make_protocol()
        outcome = proto.locate({4, 9}, {4, 9}, random.Random(2))
        assert outcome.token_id is None
        assert not outcome.moved
        assert not outcome.consistent

    def test_empty_vs_nonempty(self):
        proto = make_protocol()
        outcome = proto.locate(set(), {7, 30}, random.Random(3))
        assert outcome.token_id == 7
        assert outcome.moved_to_a

    def test_both_empty(self):
        proto = make_protocol()
        outcome = proto.locate(set(), set(), random.Random(4))
        assert outcome.token_id is None
        assert not outcome.moved

    def test_difference_at_universe_edge(self):
        proto = make_protocol(upper_n=64)
        outcome = proto.locate({64}, set(), random.Random(5))
        assert outcome.token_id == 64
        assert outcome.moved_to_b

    def test_difference_at_one(self):
        proto = make_protocol(upper_n=64)
        outcome = proto.locate({1}, set(), random.Random(6))
        assert outcome.token_id == 1

    def test_smallest_of_many_differences(self):
        proto = make_protocol(upper_n=128)
        a = {2, 4, 6, 100}
        b = {2, 5, 7, 128}
        # Symmetric difference {4, 5, 6, 7, 100, 128}; smallest is 4.
        outcome = proto.locate(a, b, random.Random(7))
        assert outcome.token_id == 4


class TestBudget:
    def test_control_bits_within_worst_case(self):
        proto = make_protocol(upper_n=256, epsilon=1e-4)
        rng = random.Random(0)
        for _ in range(20):
            a = set(rng.sample(range(1, 257), 30))
            b = set(rng.sample(range(1, 257), 30))
            outcome = proto.locate(a, b, rng)
            assert outcome.control_bits <= proto.worst_case_control_bits()

    def test_worst_case_is_polylog(self):
        small = make_protocol(upper_n=2**6).worst_case_control_bits()
        large = make_protocol(upper_n=2**12).worst_case_control_bits()
        # Doubling log N should grow the bound by ~2^2-ish, far below the
        # 2^6 factor a linear dependence on N would give.
        assert large < 8 * small

    def test_channel_charged_and_token_counted(self):
        proto = make_protocol(upper_n=32)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        outcome = proto.locate({5}, {9}, random.Random(0), channel=channel)
        assert outcome.moved
        assert channel.tokens_moved == 1
        assert channel.bits.total_bits == outcome.control_bits

    def test_eq_calls_bounded_by_log_n(self):
        proto = make_protocol(upper_n=256)
        outcome = proto.locate({17}, {200}, random.Random(0))
        assert outcome.eq_calls <= ceil_log2(256)


class TestValidation:
    def test_rejects_labels_outside_universe(self):
        proto = make_protocol(upper_n=16)
        with pytest.raises(ConfigurationError):
            proto.locate({17}, set(), random.Random(0))
        with pytest.raises(ConfigurationError):
            proto.locate(set(), {0}, random.Random(0))


@given(
    st.sets(st.integers(min_value=1, max_value=64), max_size=20),
    st.sets(st.integers(min_value=1, max_value=64), max_size=20),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_transfer_property(a, b, seed):
    """With tight epsilon, Transfer finds min(symdiff) and moves it right."""
    proto = TransferProtocol(upper_n=64, epsilon=1e-6)
    outcome = proto.locate(a, b, random.Random(seed))
    sym = (a | b) - (a & b)
    if not sym:
        assert outcome.token_id is None
        assert not outcome.moved
    else:
        # epsilon 1e-6 over <=500 runs: treat failure as test failure.
        expected = min(sym)
        assert outcome.token_id == expected
        assert outcome.consistent
        if expected in a:
            assert outcome.moved_to_b
        else:
            assert outcome.moved_to_a


@st.composite
def _locate_cases(draw):
    upper_n = draw(st.integers(min_value=2, max_value=3000))
    labels = st.sets(st.integers(min_value=1, max_value=upper_n), max_size=24)
    a = draw(labels)
    # Two coins: three cases in four have a == b and take the closed form.
    equal = draw(st.booleans()) or draw(st.booleans())
    b = set(a) if equal else draw(labels)
    return (
        a, b, upper_n,
        draw(st.integers(min_value=0, max_value=2**32)),
        draw(st.sampled_from([0.4, 1e-2, 1e-6, 1e-12])),
        # None: unmetered; otherwise a budget anywhere from "nothing fits"
        # to "everything fits", recorded rather than raised.
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4000),
                       st.just(1 << 20))),
    )


def _observe(search, a, b, upper_n, seed, epsilon, budget):
    proto = TransferProtocol(upper_n=upper_n, epsilon=epsilon)
    rng = random.Random(seed)
    channel = None if budget is None else Channel(
        3, 1, 2, ChannelPolicy(max_control_bits=budget, strict=False))
    outcome = search(proto, a, b, rng, channel)
    metered = None if channel is None else (
        channel.bits.total_bits, channel.bits.messages,
        channel.bits.by_label(), channel.tokens_moved, channel.violations,
    )
    return outcome, rng.getstate(), proto.tester.stats, metered


@given(_locate_cases())
@settings(max_examples=300, deadline=None)
def test_locate_equals_the_step_by_step_search(case):
    """``locate`` (closed form on equal sets) against ``_search`` (the
    binary search run step by step, on equal sets too): same outcome,
    private-stream position, tester stats and channel ledger."""
    fast = _observe(TransferProtocol.locate, *case)
    reference = _observe(
        lambda proto, a, b, rng, channel: proto._search(
            frozenset(a), frozenset(b), rng, channel),
        *case,
    )
    assert fast == reference
    if case[0] == case[1]:
        outcome, state, _, _ = fast
        assert outcome.token_id is None and not outcome.moved
        assert state == random.Random(case[3]).getstate()  # nothing drawn


def test_equal_set_outcome_matches_worst_case_bound():
    for upper_n in (2, 3, 7, 8, 9, 1000, 3000, 4096, 4097):
        proto = make_protocol(upper_n=upper_n)
        outcome = proto.locate({1, upper_n}, {1, upper_n}, random.Random(0))
        assert 1 <= outcome.eq_calls <= max(ceil_log2(upper_n), 1)
        assert outcome.control_bits <= proto.worst_case_control_bits()


def test_validation_order_survives_the_equal_set_shortcut():
    proto = make_protocol(upper_n=16)
    with pytest.raises(ConfigurationError, match="side 'a'"):
        proto.locate({3, 17}, {3, 17}, random.Random(0))
    with pytest.raises(ConfigurationError, match="side 'b'"):
        proto.locate({3}, {3, 0}, random.Random(0))
