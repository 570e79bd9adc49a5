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
engine's cohorts) and the array form (:func:`resolve_proposals_arrays`
— the array path's rounds above a measured proposal count, where its
fixed numpy cost pays off).  They share no resolution code, and they
agree pair for pair, order included: tests/test_matching.py pins it
property-style on proposal sets on both sides of the engine's split,
and tests/test_fastpath.py on one engine run that crosses it.

**Stream discipline.**  Both take a *stream supplier*
``stream_for(target_uid) -> random.Random`` and call it exactly once per
*contested* target — two or more surviving proposals under the uniform
rule — in ascending target order, and never otherwise: uncontested
targets, the deterministic rules and ``"unbounded"`` consume no
randomness.  Where the ``Random`` comes from is the caller's business: a
supplier that hands every target the same sequential stream is the
centralized ("global") discipline, one that derives a fresh stream per
target is the discipline a distributed proposee can reproduce knowing
only its own UID (``acceptance_streams="local"``, what :mod:`repro.net`
enforces proposee-side).  Filtering by an activity mask is likewise the
caller's: the engines only ever submit proposals whose endpoints are
both awake.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, ProtocolViolationError

__all__ = [
    "resolve_proposals",
    "resolve_proposals_arrays",
    "ACCEPTANCE_RULES",
    "AcceptanceRule",
    "StreamSupplier",
]

#: An acceptance rule picks one proposer among the incoming ones.
AcceptanceRule = Callable[[list[int], random.Random], int]

#: Maps a contested target's UID to the stream its acceptance draw uses.
StreamSupplier = Callable[[int], random.Random]


def _accept_uniform(senders: list[int], rng: random.Random) -> int:
    """The paper's rule: uniform among incoming proposals."""
    return senders[0] if len(senders) == 1 else rng.choice(senders)


def _accept_lowest_uid(senders: list[int], rng: random.Random) -> int:
    """Deterministic tie-break: smallest UID wins (an adversary-friendly
    rule — the same proposer can monopolize a popular target)."""
    return min(senders)


def _accept_highest_uid(senders: list[int], rng: random.Random) -> int:
    """Deterministic tie-break: largest UID wins."""
    return max(senders)


#: Named acceptance rules for the bounded (mobile telephone) model.
ACCEPTANCE_RULES: dict[str, AcceptanceRule] = {
    "uniform": _accept_uniform,
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


def _no_supplier(target: int) -> ConfigurationError:
    return ConfigurationError(
        f"the uniform rule needs a stream supplier: target uid={target} "
        "holds two or more proposals"
    )


def resolve_proposals(
    proposals: dict[int, int],
    stream_for: StreamSupplier | None = None,
    rule: str = "uniform",
) -> list[tuple[int, int]]:
    """Resolve ``{proposer_uid: target_uid}`` into connection pairs.

    Returns ``(initiator, responder)`` pairs in ascending responder
    order: at most one connection per node under the bounded rules,
    every surviving proposal (senders ascending within a target) under
    ``"unbounded"``.  ``stream_for`` follows the module's stream
    discipline, so a fixed supplier yields a fixed matching.
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
    uniform = rule == "uniform"
    matches = []
    for target in sorted(incoming):
        senders = sorted(incoming[target])
        if accept is None:
            matches.extend((sender, target) for sender in senders)
            continue
        rng = None
        if uniform and len(senders) > 1:
            if stream_for is None:
                raise _no_supplier(target)
            rng = stream_for(target)
        matches.append((accept(senders, rng), target))
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
    stream_for: StreamSupplier | None = None,
    rule: str = "uniform",
) -> list[tuple[int, int]]:
    """Array form of :func:`resolve_proposals`.

    ``proposer_uids``/``target_uids`` are parallel int arrays: proposer
    ``proposer_uids[i]`` proposed to ``target_uids[i]``.  Proposer UIDs
    must be distinct (each node sends at most one proposal).

    **Byte-identical matching guarantee**: the result — pair values *and*
    list order — equals the dict form's on the same proposals, and
    ``stream_for`` is called for the same targets in the same order.  The
    engine's array fast path relies on this to keep traces identical to
    the reference path.
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
    senders = proposer_uids[keep]
    targets = target_uids[keep]
    if senders.size == 0:
        return []
    # Sort by (target, sender): groups come out in sorted-target order
    # with each group's senders ascending — the dict form's order.
    order = np.lexsort((senders, targets))
    senders = senders[order]
    targets = targets[order]
    if rule == "unbounded":
        return list(zip(senders.tolist(), targets.tolist()))
    group_targets, starts = np.unique(targets, return_index=True)
    bounds = np.append(starts, senders.size)
    if rule == "lowest_uid":
        initiators = senders[starts]
    elif rule == "highest_uid":
        initiators = senders[bounds[1:] - 1]
    else:  # uniform: one draw per contested group
        initiators = senders[starts].copy()
        contested = np.nonzero(np.diff(bounds) > 1)[0]
        if contested.size and stream_for is None:
            raise _no_supplier(int(group_targets[contested[0]]))
        for g, target in zip(
            contested.tolist(), group_targets[contested].tolist()
        ):
            group = senders[bounds[g]:bounds[g + 1]]
            initiators[g] = stream_for(target).choice(group)
    return list(zip(initiators.tolist(), group_targets.tolist()))
