"""Metered pairwise channels.

When two nodes connect they may perform "a bounded amount of reliable
communication before the round ends" (§2): at most O(1) tokens and
O(polylog N) additional bits.  :class:`Channel` is the meter and the
enforcement point — every subroutine that moves data between connected
nodes (EQTest trials, Transfer control flow, token payloads, leader
payloads) charges its cost here, and the test suite asserts every algorithm
stays inside its budget.

The channel meters; it does not carry payloads.  Both endpoints are Python
objects in one process, so data moves through ordinary calls while the
channel records what that data *would* cost on the wire.  This keeps the
accounting exact without forcing every protocol into a serialization
ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import BitCounter, polylog_budget
from repro.errors import ChannelBudgetError, ChannelClosedError, ConfigurationError

__all__ = ["ChannelPolicy", "Channel"]


@dataclass(frozen=True)
class ChannelPolicy:
    """Per-connection budgets.

    ``max_tokens`` — tokens per connection per round (the paper's O(1);
    default 1).
    ``max_control_bits`` — non-token bits per connection per round (the
    paper's O(polylog N)).
    ``strict`` — raise :class:`ChannelBudgetError` on overflow when True;
    otherwise record the overflow in ``Channel.violations`` and continue
    (useful for measuring how far an experimental protocol overshoots).
    """

    max_tokens: int = 1
    max_control_bits: int = 1 << 20
    strict: bool = True

    @classmethod
    def for_upper_n(cls, upper_n: int, max_tokens: int = 1, strict: bool = True):
        """Budget scaled as O(polylog N) for a concrete network-size bound."""
        return cls(
            max_tokens=max_tokens,
            max_control_bits=polylog_budget(upper_n),
            strict=strict,
        )

    def __post_init__(self):
        if self.max_tokens < 0:
            raise ConfigurationError(
                f"max_tokens must be >= 0, got {self.max_tokens}"
            )
        if self.max_control_bits < 0:
            raise ConfigurationError(
                f"max_control_bits must be >= 0, got {self.max_control_bits}"
            )


class Channel:
    """One round's connection between two nodes, with metered budgets."""

    def __init__(self, round_index: int, endpoint_a: int, endpoint_b: int,
                 policy: ChannelPolicy):
        self.round_index = round_index
        self.endpoints = (endpoint_a, endpoint_b)
        self.policy = policy
        self.bits = BitCounter()
        self.tokens_moved = 0
        self.violations: list[str] = []
        self._open = True

    def charge_bits(self, nbits: int, label: str = "control") -> None:
        """Record ``nbits`` of control traffic (either direction)."""
        self._require_open()
        self.bits.charge(nbits, label=label)
        if self.bits.total_bits > self.policy.max_control_bits:
            self._violate(
                f"control bits exceeded: {self.bits.total_bits} > "
                f"{self.policy.max_control_bits} (round {self.round_index})"
            )

    def charge_bits_repeated(self, nbits: int, count: int,
                             label: str = "control") -> None:
        """Exactly ``count`` successive ``charge_bits(nbits, label)`` calls:
        one addition when the whole batch fits the remaining budget, the
        loop itself (its violation strings, order and raise point)
        otherwise — over budget, closed, or a negative ``nbits``."""
        bits = self.bits
        if (self._open and nbits >= 0 and count > 0
                and bits.total_bits + nbits * count
                <= self.policy.max_control_bits):
            bits.charge(nbits * count, label=label)
            bits.messages += count - 1
        else:
            for _ in range(count):
                self.charge_bits(nbits, label)

    def charge_token(self) -> None:
        """Record one token payload crossing the channel."""
        self._require_open()
        self.tokens_moved += 1
        if self.tokens_moved > self.policy.max_tokens:
            self._violate(
                f"token budget exceeded: {self.tokens_moved} > "
                f"{self.policy.max_tokens} (round {self.round_index})"
            )

    def close(self) -> None:
        self._open = False

    @property
    def is_open(self) -> bool:
        return self._open

    def peer_of(self, uid: int) -> int:
        a, b = self.endpoints
        if uid == a:
            return b
        if uid == b:
            return a
        raise ConfigurationError(f"uid {uid} is not an endpoint of {self!r}")

    def _require_open(self) -> None:
        if not self._open:
            raise ChannelClosedError(
                f"channel {self.endpoints} used after round {self.round_index} ended"
            )

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.policy.strict:
            raise ChannelBudgetError(message)

    def __repr__(self) -> str:
        return (
            f"Channel(round={self.round_index}, endpoints={self.endpoints}, "
            f"bits={self.bits.total_bits}, tokens={self.tokens_moved})"
        )
