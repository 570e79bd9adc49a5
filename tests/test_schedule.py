"""Tests for the CrowdedBin schedule arithmetic."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schedule import CrowdedBinSchedule
from repro.errors import ConfigurationError


def make(upper_n=16, beta=2, gamma=2):
    return CrowdedBinSchedule(upper_n=upper_n, beta=beta, gamma=gamma)


class TestShape:
    def test_log_n(self):
        assert make(upper_n=16).log_n == 4
        assert make(upper_n=17).log_n == 5
        assert make(upper_n=64).log_n == 6

    def test_derived_sizes(self):
        s = make(upper_n=16, beta=2, gamma=3)
        assert s.num_instances == 4
        assert s.ell == 8
        assert s.blocks_per_bin == 12
        assert s.block_len == 8 + 4
        assert s.crowded_threshold == 12
        assert s.max_tag == 255

    def test_bins_are_powers_of_two(self):
        s = make()
        assert [s.bins(i) for i in range(1, 5)] == [2, 4, 8, 16]

    def test_phase_len(self):
        s = make(upper_n=16, beta=2, gamma=2)
        # k_1=2 bins x 8 blocks x 12 rounds = 192 instance rounds.
        assert s.phase_len(1) == 192
        assert s.phase_len(2) == 384
        assert s.phase_len_real(1) == 192 * 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrowdedBinSchedule(upper_n=2, beta=1, gamma=1)
        with pytest.raises(ConfigurationError):
            CrowdedBinSchedule(upper_n=16, beta=0, gamma=1)
        with pytest.raises(ConfigurationError):
            make().bins(0)
        with pytest.raises(ConfigurationError):
            make().bins(99)


class TestMultiplexing:
    def test_round_robin_instances(self):
        s = make(upper_n=16)  # log_n = 4
        assert [s.instance_of_round(r)[0] for r in range(1, 9)] == [
            1, 2, 3, 4, 1, 2, 3, 4,
        ]

    def test_instance_rounds_advance_per_group(self):
        s = make(upper_n=16)
        assert s.instance_of_round(1) == (1, 1)
        assert s.instance_of_round(5) == (1, 2)
        assert s.instance_of_round(4) == (4, 1)
        assert s.instance_of_round(8) == (4, 2)

    def test_rounds_one_indexed(self):
        with pytest.raises(ConfigurationError):
            make().instance_of_round(0)


class TestLocate:
    def test_first_round_position(self):
        s = make()
        pos = s.locate(1)
        assert pos.instance == 1
        assert pos.phase == 0
        assert pos.bin_index == 0
        assert pos.block == 0
        assert pos.offset == 0
        assert pos.is_spelling
        assert pos.is_phase_start

    def test_spelling_to_ppush_transition(self):
        s = make(upper_n=16, beta=2, gamma=2)  # ell=8, block_len=12
        # Instance 1 occupies rounds 1, 5, 9, ...: its t-th round is 4(t-1)+1.
        t_first_ppush = s.ell + 1  # instance round 9 -> offset 8
        real = 4 * (t_first_ppush - 1) + 1
        pos = s.locate(real)
        assert pos.instance == 1
        assert pos.offset == s.ell
        assert pos.is_ppush

    def test_phase_wraps(self):
        s = make(upper_n=16, beta=2, gamma=2)
        plen = s.phase_len(1)  # 192 instance rounds
        real_of_t = lambda t: 4 * (t - 1) + 1
        pos = s.locate(real_of_t(plen))      # last round of phase 0
        assert pos.phase == 0
        assert s.is_bin_end(pos)
        pos = s.locate(real_of_t(plen + 1))  # first round of phase 1
        assert pos.phase == 1
        assert pos.is_phase_start

    def test_bin_walks(self):
        s = make(upper_n=16, beta=2, gamma=2)
        bin_len = s.blocks_per_bin * s.block_len  # 96
        real_of_t = lambda t: 4 * (t - 1) + 1
        assert s.locate(real_of_t(bin_len)).bin_index == 0
        assert s.locate(real_of_t(bin_len + 1)).bin_index == 1

    def test_spelling_end_detection(self):
        s = make()
        real_of_t = lambda t: 4 * (t - 1) + 1
        pos = s.locate(real_of_t(s.ell))  # offset ell-1
        assert s.is_spelling_end(pos)
        assert not s.is_bin_end(pos)


class TestTagBits:
    def test_roundtrip(self):
        s = make()
        for tag in (1, 17, 200, s.max_tag):
            bits = s.tag_bits(tag)
            assert len(bits) == s.ell
            value = 0
            for bit in bits:
                value = (value << 1) | bit
            assert value == tag

    def test_zero_spells_all_zeros(self):
        s = make()
        assert s.tag_bits(0) == [0] * s.ell

    def test_out_of_range_rejected(self):
        s = make()
        with pytest.raises(ConfigurationError):
            s.tag_bits(s.max_tag + 1)


class TestTargetInstance:
    def test_smallest_covering_instance(self):
        s = make(upper_n=16)
        assert s.target_instance_bound(1) == 1
        assert s.target_instance_bound(2) == 1
        assert s.target_instance_bound(3) == 2
        assert s.target_instance_bound(16) == 4

    def test_capped_at_num_instances(self):
        s = make(upper_n=16)
        assert s.target_instance_bound(100) == s.num_instances


@given(
    st.integers(min_value=1, max_value=200_000),
    st.integers(min_value=4, max_value=64),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_locate_consistency_property(real_round, upper_n, beta, gamma):
    """locate() agrees with instance_of_round and stays within bounds."""
    s = CrowdedBinSchedule(upper_n=upper_n, beta=beta, gamma=gamma)
    pos = s.locate(real_round)
    instance, t = s.instance_of_round(real_round)
    assert pos.instance == instance
    assert pos.instance_round == t
    assert 0 <= pos.bin_index < s.bins(instance)
    assert 0 <= pos.block < s.blocks_per_bin
    assert 0 <= pos.offset < s.block_len
    assert pos.is_spelling == (pos.offset < s.ell)
    # Reconstruct t from the decomposition.
    reconstructed = (
        pos.phase * s.phase_len(instance)
        + pos.bin_index * s.blocks_per_bin * s.block_len
        + pos.block * s.block_len
        + pos.offset
        + 1
    )
    assert reconstructed == t


class TestLocateMemo:
    """locate keeps its last answer; a memo hit must equal what a
    freshly built schedule computes."""

    @given(
        st.lists(st.integers(min_value=1, max_value=5_000), max_size=40),
        st.integers(min_value=4, max_value=64),
    )
    @example([1, 2, 3, 4, 5, 6], 16)              # monotone (round engine)
    @example([7, 7, 7, 8, 8], 16)                 # repeated (n nodes a round)
    @example([9, 8, 7, 3, 1], 16)                 # backwards
    @example([4, 2, 4, 5, 3, 5, 3, 6, 4, 6], 16)  # interleaved local cycles
    @settings(max_examples=100, deadline=None)
    def test_any_round_sequence_matches_a_fresh_schedule(
        self, rounds, upper_n
    ):
        memo = make(upper_n=upper_n)
        for real_round in rounds:
            assert memo.locate(real_round) == make(
                upper_n=upper_n
            ).locate(real_round)

    def test_repeated_round_returns_the_shared_position(self):
        s = make()
        assert s.locate(5) is s.locate(5)

    def test_registry_population_shares_one_schedule(self):
        from repro.core.problem import uniform_instance
        from repro.core.runner import build_nodes

        nodes = build_nodes(
            "crowdedbin", uniform_instance(n=8, k=2, seed=1), seed=1
        )
        assert len({id(node.schedule) for node in nodes.values()}) == 1
