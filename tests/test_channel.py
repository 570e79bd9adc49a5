"""Tests for the metered channel and its budget policies."""

import pytest

from repro.errors import (
    ChannelBudgetError,
    ChannelClosedError,
    ConfigurationError,
)
from repro.sim.channel import Channel, ChannelPolicy


def make_channel(max_tokens=1, max_bits=100, strict=True):
    policy = ChannelPolicy(
        max_tokens=max_tokens, max_control_bits=max_bits, strict=strict
    )
    return Channel(round_index=1, endpoint_a=10, endpoint_b=20, policy=policy)


class TestPolicy:
    def test_for_upper_n_scales(self):
        small = ChannelPolicy.for_upper_n(16)
        large = ChannelPolicy.for_upper_n(256)
        assert large.max_control_bits > small.max_control_bits

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ChannelPolicy(max_tokens=-1)
        with pytest.raises(ConfigurationError):
            ChannelPolicy(max_control_bits=-1)


class TestCharging:
    def test_bits_accumulate(self):
        ch = make_channel()
        ch.charge_bits(30, label="a")
        ch.charge_bits(20, label="b")
        assert ch.bits.total_bits == 50
        assert ch.bits.by_label() == {"a": 30, "b": 20}

    def test_tokens_accumulate(self):
        ch = make_channel(max_tokens=2)
        ch.charge_token()
        ch.charge_token()
        assert ch.tokens_moved == 2

    def test_bit_budget_enforced(self):
        ch = make_channel(max_bits=10)
        with pytest.raises(ChannelBudgetError):
            ch.charge_bits(11)

    def test_token_budget_enforced(self):
        ch = make_channel(max_tokens=1)
        ch.charge_token()
        with pytest.raises(ChannelBudgetError):
            ch.charge_token()

    def test_exact_budget_ok(self):
        ch = make_channel(max_bits=10)
        ch.charge_bits(10)
        assert ch.bits.total_bits == 10

    def test_non_strict_records_violation(self):
        ch = make_channel(max_bits=10, strict=False)
        ch.charge_bits(25)
        assert len(ch.violations) == 1
        assert "control bits exceeded" in ch.violations[0]


class TestLifecycle:
    def test_closed_channel_rejects_use(self):
        ch = make_channel()
        ch.close()
        with pytest.raises(ChannelClosedError):
            ch.charge_bits(1)
        with pytest.raises(ChannelClosedError):
            ch.charge_token()

    def test_is_open_flag(self):
        ch = make_channel()
        assert ch.is_open
        ch.close()
        assert not ch.is_open

    def test_peer_of(self):
        ch = make_channel()
        assert ch.peer_of(10) == 20
        assert ch.peer_of(20) == 10
        with pytest.raises(ConfigurationError):
            ch.peer_of(99)


def _ledger(ch):
    return (ch.bits.total_bits, ch.bits.messages, ch.bits.by_label(),
            ch.tokens_moved, ch.violations)


def _run(charge, **channel_kwargs):
    """Ledger after ``charge(channel)``, and the error it raised, if any."""
    ch = make_channel(**channel_kwargs)
    try:
        ch.charge_bits(7, label="before")
        charge(ch)
    except (ChannelBudgetError, ChannelClosedError, ValueError) as exc:
        return _ledger(ch), (type(exc), str(exc))
    return _ledger(ch), None


class TestRepeatedCharge:
    """``charge_bits_repeated(nbits, count, label)`` is ``count`` calls of
    ``charge_bits(nbits, label)`` — also where the budget ends mid-batch."""

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("max_bits", [0, 7, 8, 37, 66, 67, 10**6])
    @pytest.mark.parametrize("nbits,count", [(12, 5), (0, 3), (5, 0), (60, 1)])
    def test_same_ledger_and_same_error_as_the_loop(self, strict, max_bits,
                                                    nbits, count):
        def loop(ch):
            for _ in range(count):
                ch.charge_bits(nbits, label="eqtest")

        kwargs = dict(max_bits=max_bits, strict=strict)
        batch = _run(lambda ch: ch.charge_bits_repeated(nbits, count, "eqtest"),
                     **kwargs)
        assert batch == _run(loop, **kwargs)

    def test_budget_ending_inside_the_batch(self):
        # 7 + 12·5 = 67 against 37: calls 3, 4 and 5 overrun.
        lenient = make_channel(max_bits=37, strict=False)
        lenient.charge_bits(7)
        lenient.charge_bits_repeated(12, 5, label="eqtest")
        assert lenient.bits.messages == 6
        assert [text.split(":")[1].split()[0] for text in lenient.violations] \
            == ["43", "55", "67"]
        strict = make_channel(max_bits=37, strict=True)
        strict.charge_bits(7)
        with pytest.raises(ChannelBudgetError, match="43 > 37"):
            strict.charge_bits_repeated(12, 5, label="eqtest")
        assert strict.bits.total_bits == 43 and strict.bits.messages == 4

    def test_closed_channel_and_negative_bits_fail_like_the_loop(self):
        ch = make_channel()
        ch.close()
        with pytest.raises(ChannelClosedError):
            ch.charge_bits_repeated(1, 3)
        with pytest.raises(ValueError, match="got -2"):
            make_channel().charge_bits_repeated(-2, 3)
