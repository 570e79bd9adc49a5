"""EQTest: randomized set-equality testing with private randomness.

The paper (§3) assumes "one of the many known existing solutions" to the
two-party EQ problem with this contract:

* if the sets are equal, the test reports *equal* with probability 1;
* if they differ, it erroneously reports equal with probability ≤ 1/2 per
  trial, and trials are independent, so ``c`` trials push the error to
  ``2^-c``;
* each trial uses O(log N) bits and only private randomness.

We realize it with polynomial identity fingerprinting over ``F_p``,
``p > 2N`` (see :mod:`repro.commcplx.fields`): per trial the initiating
party draws a uniform evaluation point, sends the point and its own
polynomial's value (2·⌈log₂ p⌉ bits), and the responder answers with one
bit.  Per-trial soundness error is ≤ N/p ≤ 1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bits import ceil_log2
from repro.commcplx.fields import eval_set_polynomial, next_prime
from repro.errors import ConfigurationError
from repro.sim.channel import Channel

__all__ = ["EqualityTester", "EqTestStats"]


@dataclass
class EqTestStats:
    """Communication accounting for a batch of EQTest invocations.

    A tester's ``stats`` aggregates every call through that instance:
    exact with one thread, best-effort (unlocked ``+=``) when a
    population's shared tester serves :mod:`repro.net`'s concurrent
    handlers — per-call counts come from ``test_counted``.
    """

    calls: int = 0
    trials: int = 0
    bits: int = 0


@dataclass
class EqualityTester:
    """Equality testing for subsets of ``[upper_n]``.

    One instance is bound to a universe bound ``upper_n``; the field prime
    ``p`` is the smallest prime exceeding ``2·upper_n`` so each trial's
    soundness error ``upper_n / p`` is below 1/2.
    """

    upper_n: int
    stats: EqTestStats = field(default_factory=EqTestStats)

    def __post_init__(self):
        if self.upper_n < 2:
            raise ConfigurationError(f"upper_n must be >= 2, got {self.upper_n}")
        self._prime = next_prime(2 * self.upper_n)
        self._bits_per_trial = 2 * ceil_log2(self._prime) + 1

    @property
    def prime(self) -> int:
        return self._prime

    @property
    def bits_per_trial(self) -> int:
        return self._bits_per_trial

    def test(
        self,
        set_a,
        set_b,
        trials: int,
        rng: random.Random,
        channel: Channel | None = None,
    ) -> bool:
        """Report whether the two sets appear equal after ``trials`` trials.

        Returns True ("equal") only if every trial's fingerprints matched.
        False is always correct (a mismatching evaluation is a proof of
        inequality); True may be wrong with probability ≤ (N/p)^trials.
        """
        return self.test_counted(set_a, set_b, trials, rng, channel)[0]

    def test_counted(
        self, set_a, set_b, trials: int, rng: random.Random,
        channel: Channel | None = None,
    ) -> tuple[bool, int]:
        """:meth:`test`, plus how many trials this call executed — what a
        caller sharing the tester across threads must count with, since
        before/after reads of ``stats`` absorb other callers' tests."""
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        elements_a = list(set_a)
        elements_b = list(set_b)
        if set(elements_a) == set(elements_b):
            # Equal sets can never early-exit: every trial runs and
            # necessarily matches, so the outcome carries no randomness —
            # charge the identical trials and bits but skip the draws and
            # polynomial evaluations.  Determinism is preserved because
            # set equality is itself a pure function of protocol state:
            # every replay takes the same branch, so the initiator's
            # private stream advances identically on every run.
            matched, executed = True, trials
        else:
            matched, executed = self.run_trials(
                elements_a, elements_b, trials, rng
            )
        self.book(executed, channel)
        return matched, executed

    def run_trials(self, elements_a, elements_b, trials: int,
                   rng: random.Random) -> tuple[bool, int]:
        """The trials themselves, unbooked: ``(matched, executed)`` after
        drawing one point per trial until a fingerprint mismatch."""
        prime = self._prime
        for executed in range(1, trials + 1):
            point = rng.randrange(prime)
            if (eval_set_polynomial(elements_a, point, prime)
                    != eval_set_polynomial(elements_b, point, prime)):
                return False, executed
        return True, trials

    def book(self, executed: int, channel: Channel | None = None) -> None:
        """Book one call of ``executed`` trials in ``stats``, then charge
        its bits to ``channel`` (which may refuse them)."""
        stats = self.stats
        stats.calls += 1
        stats.trials += executed
        stats.bits += executed * self._bits_per_trial
        if channel is not None:
            channel.charge_bits(executed * self._bits_per_trial,
                                label="eqtest")
