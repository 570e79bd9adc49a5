"""Proposal resolution: who connects to whom.

The model's connection rules (§2):

* a node sends at most one proposal;
* a node that sends a proposal cannot also receive one — proposals aimed
  at a proposer are simply lost;
* a node that did not propose and received at least one proposal accepts
  exactly one.  The paper fixes the acceptance draw to *uniform* "for
  simplicity" while noting "there are different ways to model how v
  selects a proposal to accept" — so the rule is pluggable here
  (:data:`ACCEPTANCE_RULES`), with uniform as the default everywhere.

The result is a partial matching: every node is in at most one connection.
This bounded-acceptance rule is *the* difference from the classical
telephone model (which allows unbounded incoming connections), and it is
why the paper needs new analysis — see the double-star discussion in §1.
``rule="unbounded"`` is the classical model's rule — every proposal to a
non-proposer connects — kept as a measurable baseline
(tests/test_acceptance.py measures BlindMatch's Δ-exponent on double
stars falling once acceptance is unbounded).

There is one rule and two implementations of it: the dict form
(:func:`resolve_proposals`, the readable reference — the round engine's
object path, the array path's small rounds and the asynchronous
engine's cohorts) and the array form, one core over UID *ranks* that
two callers feed.  :func:`resolve_proposals_arrays`, the public entry,
checks its UID arrays, drops the proposals aimed at proposers and ranks
the UIDs itself; the round engine's array path, above a measured
proposal count, hands the core what its legality pass already knows —
distinct proposers, legal edges — as ranks of its bound UIDs.  The two
forms share no resolution code, and they agree pair for pair, order
included: tests/test_matching.py pins it property-style on proposal
sets on both sides of the engine's split and on engine rounds fed
straight to the core, and tests/test_fastpath.py on one engine run
that crosses the split.

**The lottery.**  The uniform rule's one draw belongs to the proposee,
and a proposee knows only the run seed, the instant and its own UID.
So the winner among a contested target's senders (two or more, sorted
ascending) at instant ``t`` is ``senders[KeyedCounter.index(lane(target),
t, len(senders))]``, on the run's one :class:`~repro.rng.KeyedCounter`
(:func:`acceptance_lottery`).  :func:`lottery_winner` computes it, the
array form draws every contested target at once through the counter's
batch form, and a live server (:mod:`repro.net`) calls
:func:`lottery_winner` for its own inbox.  Nothing is consumed, so draws
are order-free: uncontested targets, the deterministic rules and
``"unbounded"`` simply make none.  The instant is counted in virtual
ticks (:data:`TICKS_PER_ROUND` to a round): round ``r`` draws at
``r·TICKS_PER_ROUND`` on the round engine and on live servers, and an
asynchronous cohort at its activation tick — so a synchronized cohort
draws exactly what its round draws, and no two instants of one run share
a draw.  Filtering by an activity mask is the caller's: the engines only
ever submit proposals whose endpoints are both awake.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.rng import KeyedCounter, SeedTree

__all__ = [
    "resolve_proposals",
    "resolve_proposals_arrays",
    "ACCEPTANCE_RULES",
    "AcceptanceRule",
    "TICKS_PER_ROUND",
    "acceptance_lottery",
    "lottery_winner",
]

#: Virtual-time resolution: one synchronous round in integer ticks.  A
#: power of two so sub-round offsets scale exactly and ``tick // TPR``
#: (the round-window index) is a shift.  The acceptance lottery's clock.
TICKS_PER_ROUND = 1 << 20

#: An acceptance rule picks one proposer among a target's incoming ones:
#: ``rule(senders, target, lottery, instant)``, ``senders`` ascending.
AcceptanceRule = Callable[[Sequence[int], int, KeyedCounter | None, int], int]


def acceptance_lottery(seed: int) -> KeyedCounter:
    """The run's acceptance lottery: one keyed counter per seed."""
    return KeyedCounter(SeedTree(seed).child("engine").key("match"))


def lottery_winner(
    senders: Sequence[int],
    target: int,
    lottery: KeyedCounter | None,
    instant: int,
) -> int:
    """The paper's rule: uniform among the incoming proposals to
    ``target`` at ``instant``, a pure function of the four."""
    if len(senders) == 1:
        return senders[0]
    if lottery is None:
        raise _no_lottery(target)
    return senders[lottery.index(lottery.lane(target), instant, len(senders))]


def _accept_lowest_uid(senders, target, lottery, instant) -> int:
    """Deterministic tie-break: smallest UID wins (an adversary-friendly
    rule — the same proposer can monopolize a popular target)."""
    return min(senders)


def _accept_highest_uid(senders, target, lottery, instant) -> int:
    """Deterministic tie-break: largest UID wins."""
    return max(senders)


#: Named acceptance rules for the bounded (mobile telephone) model.
ACCEPTANCE_RULES: dict[str, AcceptanceRule] = {
    "uniform": lottery_winner,
    "lowest_uid": _accept_lowest_uid,
    "highest_uid": _accept_highest_uid,
}


def _check_rule(rule: str) -> None:
    if rule != "unbounded" and rule not in ACCEPTANCE_RULES:
        raise ConfigurationError(
            f"unknown acceptance rule {rule!r}; choose from "
            f"{sorted(ACCEPTANCE_RULES) + ['unbounded']}"
        )


def _self_proposal(uid: int) -> ProtocolViolationError:
    return ProtocolViolationError(f"node {uid} proposed to itself")


def _no_lottery(target: int) -> ConfigurationError:
    return ConfigurationError(
        f"the uniform rule needs a lottery: target uid={target} holds two "
        "or more proposals"
    )


def resolve_proposals(
    proposals: dict[int, int],
    lottery: KeyedCounter | None = None,
    instant: int = 0,
    rule: str = "uniform",
) -> list[tuple[int, int]]:
    """Resolve ``{proposer_uid: target_uid}`` into connection pairs.

    Returns ``(initiator, responder)`` pairs in ascending responder
    order: at most one connection per node under the bounded rules,
    every surviving proposal (senders ascending within a target) under
    ``"unbounded"``.  Contested targets draw from ``lottery`` at
    ``instant`` (the module's lottery), so the matching is a pure
    function of its arguments.
    """
    _check_rule(rule)
    incoming: dict[int, list[int]] = {}
    for proposer, target in proposals.items():
        if proposer == target:
            raise _self_proposal(proposer)
        if target in proposals:
            # The target is busy proposing; this proposal is lost.
            continue
        incoming.setdefault(target, []).append(proposer)
    accept = ACCEPTANCE_RULES.get(rule)  # None: unbounded
    matches = []
    for target in sorted(incoming):
        senders = sorted(incoming[target])
        if accept is None:
            matches.extend((sender, target) for sender in senders)
        else:
            matches.append(
                (accept(senders, target, lottery, instant), target)
            )
    return matches


def _uid_array(values, name: str) -> np.ndarray:
    """Coerce to int64, refusing non-integer input: a silent float->int
    cast would resolve proposals nobody made."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ConfigurationError(
            f"{name} must hold integer UIDs, got dtype {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


def resolve_proposals_arrays(
    proposer_uids,
    target_uids,
    lottery: KeyedCounter | None = None,
    instant: int = 0,
    rule: str = "uniform",
) -> list[tuple[int, int]]:
    """Array form of :func:`resolve_proposals`.

    ``proposer_uids``/``target_uids`` are parallel int arrays: proposer
    ``proposer_uids[i]`` proposed to ``target_uids[i]``.  Proposer UIDs
    must be distinct (each node sends at most one proposal).  Every
    check is made here; the core behind it (which the round engine
    feeds directly) re-checks nothing.

    **Byte-identical matching guarantee**: the result — pair values *and*
    list order — equals the dict form's on the same proposals: every
    contested target draws :func:`lottery_winner`'s index, all of them
    in one batch draw.  The engine's array fast path relies on this to
    keep traces identical to the reference path.
    """
    _check_rule(rule)
    proposer_uids = _uid_array(proposer_uids, "proposer_uids")
    target_uids = _uid_array(target_uids, "target_uids")
    if proposer_uids.shape != target_uids.shape:
        raise ConfigurationError(
            "proposer_uids and target_uids must have matching shapes"
        )
    if proposer_uids.size == 0:
        return []
    if proposer_uids.size == 1:
        # A lone proposal always lands (its target cannot be a proposer):
        # the jittered async cohort's common case stays O(1).
        proposer, target = int(proposer_uids[0]), int(target_uids[0])
        if proposer == target:
            raise _self_proposal(proposer)
        return [(proposer, target)]
    self_loops = proposer_uids == target_uids
    if self_loops.any():
        raise _self_proposal(int(proposer_uids[self_loops][0]))
    if np.unique(proposer_uids).size != proposer_uids.size:
        raise ProtocolViolationError("duplicate proposer UIDs")

    # Proposals aimed at a proposer are lost (§2).
    keep = ~np.isin(target_uids, proposer_uids)
    survivors = np.count_nonzero(keep)
    uids, ranks = np.unique(
        np.concatenate((proposer_uids[keep], target_uids[keep])),
        return_inverse=True,
    )
    return _match_ranked(ranks[:survivors], ranks[survivors:], uids,
                         lottery, instant, rule)


def _match_ranked(
    sender_ranks: np.ndarray,
    target_ranks: np.ndarray,
    uids: np.ndarray,
    lottery: KeyedCounter | None,
    instant: int,
    rule: str,
) -> list[tuple[int, int]]:
    """The array form's one core, over proposals already checked and
    collision-filtered: sender ``uids[sender_ranks[i]]`` proposed to
    ``uids[target_ranks[i]]``, ``uids`` ascending (so a rank orders as
    its UID) and the senders distinct.

    One sort of the int64 keys ``target_rank * len(uids) + sender_rank``
    puts the groups in ascending-target order with each group's senders
    ascending — the dict form's order — and a neighbour diff finds the
    groups.
    """
    if sender_ranks.size == 0:
        return []
    keys = target_ranks.astype(np.int64)
    keys *= len(uids)
    keys += sender_ranks
    keys.sort()
    targets, senders = np.divmod(keys, len(uids))
    if rule == "unbounded":
        return list(zip(uids.take(senders).tolist(),
                        uids.take(targets).tolist()))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group_uids = uids.take(targets.take(starts))
    bounds = np.append(starts, keys.size)
    if rule == "highest_uid":
        winners = senders.take(bounds[1:] - 1)
    else:  # lowest_uid, and uniform's uncontested groups
        winners = senders.take(starts)
    if rule == "uniform":  # one lottery draw per contested group
        sizes = np.diff(bounds)
        contested = np.flatnonzero(sizes > 1)
        if contested.size:
            if lottery is None:
                raise _no_lottery(int(group_uids[contested[0]]))
            picks = lottery.indices(
                lottery.lanes(group_uids.take(contested)), instant,
                sizes.take(contested),
            )
            winners[contested] = senders.take(starts.take(contested) + picks)
    return list(zip(uids.take(winners).tolist(), group_uids.tolist()))
