"""Tests for repro.rng: seed trees, PRF bits, shared randomness."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rng import (
    KeyedCounter,
    SeedTree,
    SharedRandomness,
    prf_bits,
    prf_bytes,
    prf_uniform_int,
)

KEY = b"k" * 32
OTHER_KEY = b"j" * 32


class TestPrfBytes:
    def test_deterministic(self):
        assert prf_bytes(KEY, (1, 2), 16) == prf_bytes(KEY, (1, 2), 16)

    def test_key_separation(self):
        assert prf_bytes(KEY, (1, 2), 16) != prf_bytes(OTHER_KEY, (1, 2), 16)

    def test_index_separation(self):
        assert prf_bytes(KEY, (1, 2), 16) != prf_bytes(KEY, (2, 1), 16)

    def test_length_extension_prefix_stable(self):
        short = prf_bytes(KEY, (5,), 16)
        long = prf_bytes(KEY, (5,), 80)
        assert long[:16] == short

    def test_unambiguous_index_encoding(self):
        # (1, 23) and (12, 3) must not collide via naive concatenation.
        assert prf_bytes(KEY, (1, 23), 8) != prf_bytes(KEY, (12, 3), 8)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            prf_bytes(KEY, (1,), 0)


def _reference_prf_bytes(key, index, nbytes):
    """``prf_bytes`` as it was before it copied cached keyed states and
    serialised small ints from a table — verbatim, the differential
    reference."""
    payload = b"".join(
        len(ix := i.to_bytes((max(i.bit_length(), 1) + 7) // 8, "big", signed=False)).to_bytes(2, "big") + ix
        for i in index
    )
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        h = hashlib.blake2b(
            payload + counter.to_bytes(4, "big"),
            key=key[:64],
            person=b"repro-gossip",
            digest_size=64,
        )
        out.extend(h.digest())
        counter += 1
    return bytes(out[:nbytes])


def test_prf_bytes_matches_the_rekeying_reference():
    rng = random.Random(20260930)
    # More keys than the keyed-state cache holds, revisited out of order,
    # incl. keys longer than BLAKE2b's 64-byte limit (truncated alike).
    keys = [rng.randbytes(rng.choice((1, 16, 32, 64, 80))) for _ in range(40)]
    for _ in range(3000):
        key = rng.choice(keys)
        index = tuple(
            rng.choice((rng.randrange(256), rng.randrange(255, 258),
                        rng.getrandbits(rng.randrange(1, 71))))
            for _ in range(rng.randrange(0, 6))
        )
        nbytes = rng.choice((1, 2, 8, 63, 64, 65, 128, 129, 200))
        assert prf_bytes(key, index, nbytes) == _reference_prf_bytes(
            key, index, nbytes), (key, index, nbytes)


def test_prf_bytes_still_rejects_a_negative_index():
    with pytest.raises(OverflowError):
        prf_bytes(KEY, (3, -1), 8)


class TestPrfBits:
    def test_width(self):
        for nbits in (1, 7, 8, 9, 63, 64, 65):
            value = prf_bits(KEY, (3,), nbits)
            assert 0 <= value < (1 << nbits)

    def test_single_bit_is_binary(self):
        values = {prf_bits(KEY, (i,), 1) for i in range(64)}
        assert values == {0, 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prf_bits(KEY, (1,), 0)


class TestPrfUniformInt:
    def test_bounds(self):
        for bound in (1, 2, 3, 7, 100):
            for i in range(20):
                assert 0 <= prf_uniform_int(KEY, (i,), bound) < bound

    def test_bound_one_is_zero(self):
        assert prf_uniform_int(KEY, (9,), 1) == 0

    def test_roughly_uniform_over_nonpower_bound(self):
        # Bound 3 forces rejection sampling; check all residues occur.
        counts = [0, 0, 0]
        for i in range(300):
            counts[prf_uniform_int(KEY, (i,), 3)] += 1
        assert min(counts) > 50

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            prf_uniform_int(KEY, (1,), 0)


class TestSeedTree:
    def test_same_path_same_stream(self):
        t = SeedTree(7)
        assert t.stream("a", 1).random() == t.stream("a", 1).random()

    def test_different_paths_differ(self):
        t = SeedTree(7)
        assert t.stream("a").random() != t.stream("b").random()

    def test_child_prefixes_path(self):
        t = SeedTree(7)
        assert (
            t.child("x").stream("y").random()
            == t.stream("x", "y").random()
        )

    def test_different_roots_differ(self):
        assert SeedTree(1).stream("a").random() != SeedTree(2).stream("a").random()

    def test_key_is_32_bytes(self):
        assert len(SeedTree(3).key("shared")) == 32

    def test_streams_are_independent_instances(self):
        t = SeedTree(7)
        s1, s2 = t.stream("a"), t.stream("a")
        s1.random()
        # s2 unaffected by s1's consumption.
        assert s2.random() == t.stream("a").random()


class TestSharedRandomness:
    def test_shared_instances_agree(self):
        a = SharedRandomness(KEY, 64)
        b = SharedRandomness(KEY, 64)
        for group in (1, 2, 77):
            for bundle in (0, 5, 64):
                assert a.token_bit(group, bundle) == b.token_bit(group, bundle)
        assert a == b

    def test_different_keys_disagree_somewhere(self):
        a = SharedRandomness(KEY, 64)
        b = SharedRandomness(OTHER_KEY, 64)
        bits_a = [a.token_bit(1, i) for i in range(64)]
        bits_b = [b.token_bit(1, i) for i in range(64)]
        assert bits_a != bits_b

    def test_token_bits_look_fair(self):
        shared = SharedRandomness(KEY, 512)
        ones = sum(shared.token_bit(1, bundle) for bundle in range(512))
        assert 180 < ones < 332  # ~6 sigma around 256

    def test_fresh_bits_each_group(self):
        shared = SharedRandomness(KEY, 128)
        g1 = [shared.token_bit(1, i) for i in range(128)]
        g2 = [shared.token_bit(2, i) for i in range(128)]
        assert g1 != g2

    def test_selection_index_in_bound(self):
        shared = SharedRandomness(KEY, 32)
        for bound in (1, 2, 5, 31):
            for group in range(10):
                assert 0 <= shared.selection_index(group, 7, bound) < bound

    def test_from_seed_roundtrip(self):
        assert SharedRandomness.from_seed(5, 16) == SharedRandomness.from_seed(5, 16)
        assert SharedRandomness.from_seed(5, 16) != SharedRandomness.from_seed(6, 16)

    def test_bundle_validation(self):
        shared = SharedRandomness(KEY, 16)
        with pytest.raises(ValueError):
            shared.token_bit(-1, 0)
        with pytest.raises(ValueError):
            shared.token_bit(0, 17)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SharedRandomness(KEY, 1)


def _first_draw_rejected(shared, group, bundle, bound) -> bool:
    """Whether ``selection_index`` redraws (attempt > 0) for this input."""
    nbits = (bound - 1).bit_length()
    return prf_bits(shared.key, (group, bundle, 1, 0x52, 0), nbits) >= bound


class TestSelectionIndices:
    """``selection_indices`` is ``selection_index`` for many proposers."""

    @given(
        group=st.one_of(st.integers(0, 300), st.integers(0, 2**40)),
        rows=st.lists(
            st.tuples(st.integers(0, 1000),
                      st.one_of(st.just(1), st.integers(1, 9),
                                st.integers(1, 2**20))),
            max_size=24),
    )
    @settings(max_examples=200, deadline=None)
    @example(group=0, rows=[(5, 1), (0, 1), (1000, 1)])
    @example(group=3, rows=[(bundle, 5) for bundle in range(24)])
    def test_equals_selection_index_element_by_element(self, group, rows):
        shared = SharedRandomness(KEY, 1000)
        bundles = [bundle for bundle, _ in rows]
        bounds = [bound for _, bound in rows]
        assert shared.selection_indices(group, bundles, bounds) == [
            shared.selection_index(group, bundle, bound)
            for bundle, bound in rows
        ]

    def test_the_examples_reach_bound_one_and_redraws(self):
        # The second example above holds first draws that are rejected,
        # so the batched loop's redraw path is exercised, not only its
        # first draws.
        shared = SharedRandomness(KEY, 1000)
        rejected = [bundle for bundle in range(24)
                    if _first_draw_rejected(shared, 3, bundle, 5)]
        assert rejected
        assert shared.selection_indices(3, rejected, [5] * len(rejected)) \
            == [shared.selection_index(3, bundle, 5) for bundle in rejected]
        assert shared.selection_indices(0, [5, 0], [1, 1]) == [0, 0]

    @pytest.mark.parametrize("group, bundle, bound", [
        (-1, 0, 2), (0, 1001, 2), (0, -1, 2), (0, 4, 0),
    ])
    def test_refuses_what_selection_index_refuses(self, group, bundle,
                                                  bound):
        shared = SharedRandomness(KEY, 1000)
        with pytest.raises(ValueError):
            shared.selection_index(group, bundle, bound)
        with pytest.raises(ValueError):
            shared.selection_indices(group, [bundle], [bound])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_prf_uniform_always_in_bound(index, bound):
    assert 0 <= prf_uniform_int(KEY, (index,), bound) < bound


@given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_prf_bits_deterministic_for_any_index(path):
    index = tuple(path)
    assert prf_bits(KEY, index, 32) == prf_bits(KEY, index, 32)


#: Integers in [0, 2^64) with 0 and values >= 2^32 drawn often.
_WORDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestKeyedCounter:
    COINS = KeyedCounter(SeedTree(11).key("blindmatch-coins"))

    @given(uids=st.lists(_WORDS.filter(lambda u: u < 2**63), max_size=40),
           round_index=_WORDS, counter=_WORDS)
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_batch_agree_bit_for_bit(self, uids, round_index,
                                                counter):
        coins = self.COINS
        lanes = coins.lanes(np.array(uids, dtype=np.int64))
        assert lanes.dtype == np.uint64
        assert lanes.tolist() == [coins.lane(uid) for uid in uids]
        words = KeyedCounter.words(lanes, round_index, counter)
        assert words.tolist() == [
            KeyedCounter.word(lane, round_index, counter)
            for lane in lanes.tolist()]

    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_batch_sizes(self, size):
        coins = self.COINS
        lanes = coins.lanes(np.arange(size, dtype=np.int64) * 7919)
        for round_index in (0, 5, 2**32 + 1):
            words = KeyedCounter.words(lanes, round_index)
            assert words.shape == (size,)
            assert words.tolist() == [
                KeyedCounter.word(lane, round_index) for lane in lanes.tolist()]
            assert words.tolist() == coins.words_list(lanes, round_index)
            bounds = np.arange(size) % 9 + 1
            assert KeyedCounter.indices(lanes, round_index, bounds).tolist() == [
                KeyedCounter.index(lane, round_index, int(bound))
                for lane, bound in zip(lanes.tolist(), bounds.tolist())]

    def test_words_list_reads_across_its_blocks(self):
        coins = KeyedCounter(SeedTree(3).key("blindmatch-coins"))
        lanes = coins.lanes(np.arange(1, 17, dtype=np.int64))
        for round_index in [*range(250, 520), 3, 2**33]:
            assert coins.words_list(lanes, round_index) == \
                KeyedCounter.words(lanes, round_index).tolist()

    def test_lanes_are_derived_once_per_array(self):
        coins = KeyedCounter(SeedTree(3).key("blindmatch-coins"))
        uids = np.arange(10, dtype=np.int64)
        assert coins.lanes(uids) is coins.lanes(uids)
        assert coins.lanes(uids.copy()) is not coins.lanes(uids.copy())

    def test_keys_separate_populations(self):
        other = KeyedCounter(SeedTree(12).key("blindmatch-coins"))
        assert other.key != self.COINS.key
        assert other.lane(5) != self.COINS.lane(5)
        same = KeyedCounter(SeedTree(11).key("blindmatch-coins"))
        assert same.lane(5) == self.COINS.lane(5)

    @pytest.mark.parametrize("bound", [1, 2**31 + 1])
    def test_index_in_range(self, bound):
        # 2^31 + 1 rejects almost half of all low words: the redraw runs.
        lanes = self.COINS.lanes(np.arange(1, 401, dtype=np.int64))
        threshold = 2**32 % bound
        for round_index in range(1, 6):
            words = KeyedCounter.words(lanes, round_index)
            picks = KeyedCounter.indices(lanes, round_index,
                                         np.full(len(lanes), bound))
            assert ((0 <= picks) & (picks < bound)).all()
            assert picks.tolist() == [
                KeyedCounter.index(lane, round_index, bound)
                for lane in lanes.tolist()]
            rejected = ((words & 0xFFFFFFFF) * np.uint64(bound)
                        & np.uint64(0xFFFFFFFF)) < threshold
            assert rejected.any() == (bound > 1)

    def test_index_rejects_bad_bounds(self):
        for bound in (0, 2**32 + 1):
            with pytest.raises(ValueError):
                KeyedCounter.index(1, 1, bound)
            with pytest.raises(ValueError):
                KeyedCounter.indices(np.ones(2, np.uint64), 1, [1, bound])

    @pytest.mark.parametrize("degree, critical", [
        (2, 10.83), (3, 13.82), (7, 22.46),  # chi^2 at p = 0.001
    ])
    def test_coin_and_index_are_uniform(self, degree, critical):
        # 10^5 draws: 1000 uids over 100 rounds, one fixed key.
        lanes = self.COINS.lanes(np.arange(1, 1001, dtype=np.int64))
        coins = np.zeros(2, dtype=np.int64)
        picks = np.zeros(degree, dtype=np.int64)
        bounds = np.full(len(lanes), degree)
        for round_index in range(1, 101):
            words = KeyedCounter.words(lanes, round_index)
            coins += np.bincount((words >> 63).astype(np.int64), minlength=2)
            picks += np.bincount(KeyedCounter.indices(
                lanes, round_index, bounds, words), minlength=degree)

        def chi2(counts):
            expected = counts.sum() / len(counts)
            return float(((counts - expected) ** 2 / expected).sum())

        assert chi2(coins) < 10.83
        assert chi2(picks) < critical
