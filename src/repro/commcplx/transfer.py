"""Transfer(ε): find and move the smallest token in the symmetric difference.

Once two nodes connect, even knowing their token sets differ, they must
still *identify* a token one is missing — with only O(polylog N) bits of
conversation.  §3 of the paper does this with a binary search over the
label space ``[N]``: repeatedly EQTest the two sets restricted to a prefix
interval; if the prefixes differ the earliest difference lies inside,
otherwise beyond.

Guarantee: if ``T_u ≠ T_v`` then, with probability ≥ 1 − ε, the smallest
label in ``(T_u ∪ T_v) \\ (T_u ∩ T_v)`` is identified and the token moves
from its owner to the other node.  Cost: ≤ ⌈log₂ N⌉ EQTest calls of
``⌈log₂(⌈log₂ N⌉/ε)⌉`` trials each — O(log²N · log(logN/ε)) bits.

Note on the paper's pseudocode: it narrows with ``b ← ⌊b/2⌋``, shorthand
that only reads correctly as "the midpoint of the live interval [a, b]".
We implement the midpoint search explicitly; the stated guarantee and bit
budget are unchanged.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from repro.bits import ceil_log2
from repro.commcplx.eqtest import EqualityTester
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.sim.channel import Channel

__all__ = ["TransferOutcome", "TransferProtocol", "trials_for_error"]


def trials_for_error(upper_n: int, epsilon: float) -> int:
    """EQTest trials per call so that Transfer(ε) fails with prob < ε.

    The search makes ≤ ⌈log₂ N⌉ EQTest calls; each must fail with
    probability ≤ ε / ⌈log₂ N⌉, and a trial errs with probability ≤ 1/2,
    so ``⌈log₂(⌈log₂ N⌉ / ε)⌉`` trials suffice (the paper's ε′).
    """
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    log_n = max(ceil_log2(upper_n), 1)
    return max(1, math.ceil(math.log2(log_n / epsilon)))


@dataclass(frozen=True)
class TransferOutcome:
    """What one Transfer invocation did.

    ``token_id`` — the label the binary search landed on (None when the
    parties' sets were genuinely equal *and* the search confirmed it).
    ``moved_to_a`` / ``moved_to_b`` — direction of the transfer, if any.
    ``consistent`` — False when the search landed on a label owned by both
    or neither party, which can only happen when some EQTest call erred
    (or the sets were equal); callers treat it as "no useful transfer".
    """

    token_id: int | None
    moved_to_a: bool
    moved_to_b: bool
    consistent: bool
    eq_calls: int
    control_bits: int

    @property
    def moved(self) -> bool:
        return self.moved_to_a or self.moved_to_b


@lru_cache(maxsize=64)
def _equal_set_outcome(upper_n: int, bits_per_call: int) -> TransferOutcome:
    """What the search reports on equal sets (shared, not per node: that
    was +20 % of population build).  Every prefix pair is equal, so it
    walks ``lo = mid + 1`` up to ``upper_n`` — a call count fixed by
    ``upper_n``, each call running all its trials and drawing nothing."""
    lo, calls = 1, 0
    while lo != upper_n:
        lo, calls = (lo + upper_n) // 2 + 1, calls + 1
    return TransferOutcome(None, False, False, False, eq_calls=calls,
                           control_bits=calls * bits_per_call + 2)


class TransferProtocol:
    """Reusable Transfer(ε) runner bound to a universe bound ``upper_n``.

    Token labels live in ``[1, upper_n]`` (the paper labels each token with
    its origin's UID from [N]).  The protocol works on *label sets*; the
    caller moves the actual token payload based on the outcome — see
    :meth:`repro.core.problem.GossipNode.run_transfer`.

    One instance serves every node of a population (the paper's single
    subroutine with global parameters), so :meth:`locate` keeps no state
    between calls; ``tester.stats`` is the instance's aggregate — exact
    for a privately built protocol, best-effort under concurrent callers.
    """

    def __init__(self, upper_n: int, epsilon: float):
        if upper_n < 2:
            raise ConfigurationError(f"upper_n must be >= 2, got {upper_n}")
        self.upper_n = upper_n
        self.epsilon = epsilon
        self.trials_per_call = trials_for_error(upper_n, epsilon)
        self.tester = EqualityTester(upper_n)
        self._bits_per_call = self.trials_per_call * self.tester.bits_per_trial
        #: What :meth:`locate` reports on equal sets.
        self.equal_outcome = _equal_set_outcome(upper_n, self._bits_per_call)

    def locate(
        self,
        labels_a,
        labels_b,
        rng: random.Random,
        channel: Channel | None = None,
    ) -> TransferOutcome:
        """Run the binary search and report the chosen label and direction."""
        set_a = frozenset(labels_a)
        set_b = frozenset(labels_b)
        self._validate(set_a, "a")
        if set_a == set_b:
            return self._locate_equal(channel)
        self._validate(set_b, "b")
        return self._search(set_a, set_b, rng, channel)

    def _locate_equal(self, channel: Channel | None) -> TransferOutcome:
        """What :meth:`_search` does on equal sets — most of BlindMatch's
        connections — without running it: same outcome, tester stats and
        channel ledger, no draw."""
        outcome = self.equal_outcome
        self.count_equal_calls(outcome.eq_calls)
        if channel is not None:
            recorded = channel.bits.messages
            try:
                channel.charge_bits_repeated(
                    self._bits_per_call, outcome.eq_calls, label="eqtest"
                )
            except ProtocolViolationError:
                # The search counts a call, then charges it: keep the calls
                # whose charge was attempted — those the ledger recorded (a
                # strict overflow is recorded, then refused), or the first
                # one on a closed channel — and give the rest back.
                self.count_equal_calls(max(
                    channel.bits.messages - recorded, 1) - outcome.eq_calls)
                raise
            channel.charge_bits(2, label="transfer-ownership")
        return outcome

    def count_equal_calls(self, calls: int) -> None:
        """Book ``calls`` EQTest calls on equal sets — all trials run,
        none drawn — in ``tester.stats`` (negative gives calls back): the
        one ledger writer for equal sets, with or without a channel."""
        stats = self.tester.stats
        stats.calls += calls
        stats.trials += calls * self.trials_per_call
        stats.bits += calls * self._bits_per_call

    def _search(self, set_a, set_b, rng, channel) -> TransferOutcome:
        """The step-by-step binary search over two validated frozensets
        (equal ones included: the closed form's reference).

        Each level fingerprints only the one-sided differences inside
        ``[lo, mid]``, never the full prefixes: ``P_A(x) − P_B(x)``
        cancels mod p on every common label, so a trial's verdict is
        ``P_{A∖B}(x) ≟ P_{B∖A}(x)``, and both slices are empty exactly
        when the full prefixes are equal — the same levels draw nothing.

        Re-entrant — counted from this call's own tests, never from
        ``tester.stats`` deltas: one protocol serves a population whose
        connect handlers :mod:`repro.net` runs on concurrent threads."""
        only_a = sorted(set_a - set_b)
        only_b = sorted(set_b - set_a)
        tester = self.tester
        trials = self.trials_per_call
        eq_calls = trials_run = 0
        lo, hi = 1, self.upper_n
        while lo != hi:
            mid = (lo + hi) // 2
            start_a = bisect_left(only_a, lo)
            end_a = bisect_right(only_a, mid, start_a)
            start_b = bisect_left(only_b, lo)
            end_b = bisect_right(only_b, mid, start_b)
            if start_a == end_a and start_b == end_b:
                # Both slices empty: every trial would match and draw
                # nothing, so the call is booked without being run.
                equal, executed = True, trials
            else:
                equal, executed = tester.run_trials(
                    only_a[start_a:end_a], only_b[start_b:end_b], trials, rng
                )
            tester.book(executed, channel)
            eq_calls += 1
            trials_run += executed
            if equal:
                lo = mid + 1
            else:
                hi = mid
        chosen = lo

        in_a = chosen in set_a
        in_b = chosen in set_b
        consistent = in_a != in_b
        # Each side reveals whether it owns the chosen label (1 bit each),
        # then the owner ships the token.
        ownership_bits = 2
        if channel is not None:
            channel.charge_bits(ownership_bits, label="transfer-ownership")
            if consistent:
                channel.charge_token()
        control_bits = trials_run * self.tester.bits_per_trial + ownership_bits
        return TransferOutcome(
            token_id=chosen if consistent else None,
            moved_to_a=consistent and in_b,
            moved_to_b=consistent and in_a,
            consistent=consistent,
            eq_calls=eq_calls,
            control_bits=control_bits,
        )

    def worst_case_control_bits(self) -> int:
        """Upper bound on control bits per invocation (for budget sizing)."""
        calls = max(ceil_log2(self.upper_n), 1)
        return calls * self._bits_per_call + 2

    def _validate(self, labels: frozenset, side: str) -> None:
        if not labels or (1 <= min(labels) and max(labels) <= self.upper_n):
            return
        for label in labels:
            if not 1 <= label <= self.upper_n:
                raise ConfigurationError(
                    f"token label {label} on side {side!r} outside [1, {self.upper_n}]"
                )
