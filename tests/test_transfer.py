"""Tests for Transfer(ε): correctness, direction, and bit budget."""

import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bits import ceil_log2
from repro.commcplx import eqtest
from repro.commcplx.transfer import (
    TransferOutcome,
    TransferProtocol,
    trials_for_error,
)
from repro.errors import (
    ChannelBudgetError,
    ChannelClosedError,
    ConfigurationError,
)
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


    @staticmethod
    def median_bits(upper_n, epsilon, trials=40):
        rng = random.Random(99)
        proto = make_protocol(upper_n=upper_n, epsilon=epsilon)
        universe = range(1, upper_n + 1)
        return statistics.median(
            proto.locate(set(rng.sample(universe, rng.randint(0, 20))),
                         set(rng.sample(universe, rng.randint(0, 20))),
                         rng).control_bits
            for _ in range(trials)
        )

    def test_measured_bits_track_log_squared_n(self):
        """§3's O(log²N · log(log N/ε)): measured/log²N drifts only by
        the slow trial factor across N = 2^6 … 2^14."""
        ratios = [self.median_bits(2**e, 1e-3) / e**2
                  for e in (6, 8, 10, 12, 14)]
        assert max(ratios) < 4 * min(ratios), ratios

    def test_measured_bits_grow_slowly_as_epsilon_tightens(self):
        costs = [self.median_bits(2**10, eps)
                 for eps in (1e-1, 1e-2, 1e-4, 1e-8)]
        assert costs == sorted(costs)
        assert costs[-1] < 8 * costs[0], costs

    def test_success_rate_meets_the_contract(self):
        """At ε = 1e-3 calls find min(A△B); 0.995 leaves the 500-call
        sample room below the 1 - ε contract."""
        rng = random.Random(5)
        proto = make_protocol(upper_n=256, epsilon=1e-3)
        outcomes = []
        for _ in range(500):
            a = set(rng.sample(range(1, 257), 12))
            b = set(rng.sample(range(1, 257), 12))
            if a != b:
                outcomes.append(proto.locate(a, b, rng).token_id
                                == min(a ^ b))
        assert sum(outcomes) >= 0.995 * len(outcomes)


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


def _observe(search, a, b, upper_n, seed, epsilon, budget, strict=False):
    """Everything one ``search`` leaves behind; on a strict channel's
    raise, the exception text in place of the outcome and the state at
    the raise."""
    proto = TransferProtocol(upper_n=upper_n, epsilon=epsilon)
    rng = random.Random(seed)
    channel = None if budget is None else Channel(
        3, 1, 2, ChannelPolicy(max_control_bits=budget, strict=strict))
    try:
        outcome = search(proto, a, b, rng, channel)
    except ChannelBudgetError as error:
        outcome = f"raised: {error}"
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
    reference = _observe(_SEARCHES["_search"], *case)
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


# ----------------------------------------------------------------------
# The difference-only search against the paper's full-prefix search


def _full_prefix_search(proto, set_a, set_b, rng, channel):
    """Transfer(ε) as §3 states it and as ``_search`` ran it before it
    fingerprinted differences only: at every level, EQTest *both full
    prefixes* inside ``[lo, mid]``.  Kept here as the oracle."""
    eq_calls = trials_run = 0
    lo, hi = 1, proto.upper_n
    while lo != hi:
        mid = (lo + hi) // 2
        equal, executed = proto.tester.test_counted(
            [x for x in set_a if lo <= x <= mid],
            [x for x in set_b if lo <= x <= mid],
            proto.trials_per_call, rng, channel,
        )
        eq_calls, trials_run = eq_calls + 1, trials_run + executed
        lo, hi = (mid + 1, hi) if equal else (lo, mid)
    in_a, in_b = lo in set_a, lo in set_b
    consistent = in_a != in_b
    if channel is not None:
        channel.charge_bits(2, label="transfer-ownership")
        if consistent:
            channel.charge_token()
    return TransferOutcome(
        lo if consistent else None, consistent and in_b, consistent and in_a,
        consistent, eq_calls, trials_run * proto.tester.bits_per_trial + 2,
    )


_SEARCHES = {
    "locate": TransferProtocol.locate,
    "_search": lambda proto, a, b, rng, channel: proto._search(
        frozenset(a), frozenset(b), rng, channel),
    "oracle": lambda proto, a, b, rng, channel: _full_prefix_search(
        proto, frozenset(a), frozenset(b), rng, channel),
}


@st.composite
def _overlapping_cases(draw):
    """Up to 256 labels a side, most of them common; universes down to 2
    and ε up to 0.4, where a level really does answer "equal" wrongly."""
    upper_n = draw(st.one_of(st.integers(min_value=2, max_value=12),
                             st.integers(min_value=2, max_value=3000)))
    labels = st.integers(min_value=1, max_value=upper_n)
    common = draw(st.sets(labels, max_size=250))
    a = common | draw(st.sets(labels, max_size=6))
    b = common | draw(st.sets(labels, max_size=6))
    budget, strict = draw(st.one_of(
        st.tuples(st.none(), st.just(False)),
        st.tuples(st.one_of(st.integers(min_value=0, max_value=4000),
                            st.just(1 << 20)), st.booleans()),
    ))
    return (
        a, b, upper_n,
        draw(st.integers(min_value=0, max_value=2**32)),
        draw(st.sampled_from([0.4, 1e-2, 1e-6, 1e-12])),
        budget, strict,
    )


@given(_overlapping_cases())
@settings(max_examples=400, deadline=None)
# N = 16, trials 9 × 13 bits: levels [1,8] and [1,4] draw once each (13
# bits), [1,2] holds no difference (117 bits, nothing drawn), [3,3]
# draws once.  A strict budget of 26 ends on the empty level, 143 on the
# last drawing one.
@example(({3, 10}, {10}, 16, 7, 1e-2, 26, True))
@example(({3, 10}, {10}, 16, 7, 1e-2, 143, True))
def test_difference_search_equals_the_full_prefix_search(case):
    """Same outcome, private-stream position, tester stats and channel
    ledger (violation strings included) as the full-prefix oracle — and
    on a strict channel the same exception at the same state."""
    seen = {name: _observe(search, *case)
            for name, search in _SEARCHES.items()}
    assert seen["locate"] == seen["oracle"]
    assert seen["_search"] == seen["oracle"]


def test_false_equal_verdicts_occur_and_agree():
    """The differential is not vacuous: at N <= 8 and ε = 0.4 some level
    answers "equal" on unequal prefixes, the search lands on a label
    neither or both sides own, and every search lands there alike."""
    misled = 0
    for upper_n in range(2, 9):
        for seed in range(150):
            case = ({1, upper_n}, {upper_n}, upper_n, seed, 0.4, None)
            seen = [_observe(search, *case)
                    for search in _SEARCHES.values()]
            assert seen[0] == seen[1] == seen[2]
            misled += not seen[0][0].consistent
    assert misled > 0


def test_work_per_locate_follows_the_difference_not_the_overlap(monkeypatch):
    """Monomials evaluated per ``locate`` are bounded by trials × levels
    × |A△B| and do not move when 500 common labels join both sides."""
    evaluated = []
    original = eqtest.eval_set_polynomial

    def counting(elements, point, prime):
        evaluated.append(len(elements))
        return original(elements, point, prime)

    monkeypatch.setattr(eqtest, "eval_set_polynomial", counting)
    proto = make_protocol(upper_n=2048, epsilon=1e-6)
    only_a, only_b = {700, 1999}, {1333}
    counts = []
    for common in (set(range(3, 40, 4)),
                   set(range(3, 40, 4)) | set(range(1000, 1500))):
        common -= only_a | only_b
        evaluated.clear()
        outcome = proto.locate(common | only_a, common | only_b,
                               random.Random(9))
        assert outcome.token_id == 700 and outcome.moved_to_b
        assert 0 < sum(evaluated) <= (
            proto.trials_per_call * outcome.eq_calls * 3)
        counts.append(sum(evaluated))
    assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# The equal-set closed form on a channel that stops it half way


@pytest.mark.parametrize("fitting", ["none", "one", "all-but-one", "all"])
def test_closed_form_stats_stop_where_a_strict_channel_stops(fitting):
    """``_locate_equal`` counts exactly the calls whose channel charge was
    attempted: when a strict budget fits 0, 1 or all-but-one EQTest calls
    (or all of them but not the ownership bits), the tester stats read
    what the step-by-step search's read at its raise."""
    probe = make_protocol()
    calls = probe.locate({5}, {5}, random.Random(0)).eq_calls
    per_call = probe.trials_per_call * probe.tester.bits_per_trial
    assert calls >= 3
    fits = {"none": 0, "one": 1, "all-but-one": calls - 1, "all": calls}
    budget = fits[fitting] * per_call + 1  # the next charge overflows
    case = ({5, 40}, {5, 40}, probe.upper_n, 0, probe.epsilon, budget, True)
    fast = _observe(TransferProtocol.locate, *case)
    assert fast == _observe(_SEARCHES["_search"], *case)
    outcome, _, stats, metered = fast
    assert outcome.startswith("raised: control bits exceeded")
    attempted = min(fits[fitting] + 1, calls)
    assert (stats.calls, stats.trials, stats.bits) == (
        attempted, attempted * probe.trials_per_call, attempted * per_call)
    assert metered[1] == attempted + (fitting == "all")  # messages


def test_closed_form_on_a_closed_channel_counts_the_one_call_it_tried():
    for search in (_SEARCHES["locate"], _SEARCHES["_search"]):
        proto = make_protocol()
        channel = Channel(3, 1, 2, ChannelPolicy())
        channel.close()
        with pytest.raises(ChannelClosedError):
            search(proto, {5}, {5}, random.Random(0), channel)
        assert proto.tester.stats.calls == 1
        assert proto.tester.stats.trials == proto.trials_per_call
