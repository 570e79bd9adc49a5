"""Analysis-side diagnostics: the potential φ, set census, and coalitions.

These mirror the quantities the paper's proofs track:

* :func:`potential` — ``φ(r) = Σ_u (k − |T_u(r)|)`` (§5.1): the amount of
  spreading still to do.  Non-increasing; 0 exactly when gossip is solved.
* :func:`token_set_census` — the multiset ``F(r)`` of §7: each distinct
  token set present in the network with its frequency.
* :func:`find_coalition` — the greedy coalition construction of
  Lemma 7.3: either certifies ε-gossip solved or returns a coalition whose
  total size lies in ``[(ε/2)n, εn]``.
* :func:`epsilon_gossip_solved` / :func:`mutual_knowledge_core` — harness
  termination checks for ε-gossip.

All of these are observers: nodes never call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.sim.protocol import TokenHolder

__all__ = [
    "potential",
    "token_set_census",
    "find_coalition",
    "CoalitionResult",
    "mutual_knowledge_core",
    "epsilon_gossip_solved",
]


def potential(nodes, token_ids) -> int:
    """φ = Σ over nodes of (k − |known ∩ token_ids|).

    ``nodes`` is any iterable of :class:`TokenHolder` (or the engine's
    vertex→node mapping).
    """
    holders = _as_holders(nodes)
    wanted = frozenset(token_ids)
    k = len(wanted)
    return sum(k - len(node.known_tokens & wanted) for node in holders)


def token_set_census(nodes) -> dict[frozenset, int]:
    """F(r): {token set → number of nodes currently holding exactly it}."""
    census: dict[frozenset, int] = {}
    for node in _as_holders(nodes):
        key = node.known_tokens
        census[key] = census.get(key, 0) + 1
    return census


@dataclass(frozen=True)
class CoalitionResult:
    """Outcome of Lemma 7.3's case analysis for one round."""

    solved: bool
    coalition: tuple[frozenset, ...]  # token sets whose owners form it
    size: int                          # total nodes across those sets


def find_coalition(nodes, epsilon: float) -> CoalitionResult:
    """Apply Lemma 7.3: solved certificate or a mid-sized coalition.

    Case 1 — some token set is owned by more than εn nodes: since every
    node's own token is in its set, those owners mutually know each other's
    tokens, so ε-gossip is solved.
    Case 2/3 — a greedy pack of the most frequent sets lands the coalition
    size in [(ε/2)n, εn].
    """
    _check_epsilon(epsilon)
    holders = _as_holders(nodes)
    n = len(holders)
    census = token_set_census(holders)
    target_low = (epsilon / 2.0) * n
    target_high = epsilon * n

    frequencies = sorted(census.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    q_max = frequencies[0][1]
    if q_max > target_high:
        return CoalitionResult(
            solved=True, coalition=(frequencies[0][0],), size=q_max
        )
    chosen: list[frozenset] = []
    total = 0
    for token_set, count in frequencies:
        chosen.append(token_set)
        total += count
        if total >= target_low:
            break
    # Greedy invariant from the lemma: every addend is <= (ε/2)n when we
    # cross the threshold, so the final total is also <= εn.
    return CoalitionResult(solved=False, coalition=tuple(chosen), size=total)


def mutual_knowledge_core(nodes) -> list:
    """A pruning-stable set S with ∀u∈S: tokens(S) ⊆ T_u.

    Greedy: while some member misses some member's token, discard the
    member whose own token is known by the fewest current members (the
    least-integrated node), then re-check.  The result certifies mutual
    knowledge — every member knows every member's token — and in practice
    recovers the large cores SharedBit builds (finding the true maximum
    such set is NP-hard, so this is a sound under-approximation).

    Nodes are token holders with an ``own_token_id`` attribute (see
    :class:`~repro.core.epsilon.EpsilonView`).
    """
    members = list(_as_holders(nodes))
    for node in members:
        if not hasattr(node, "own_token_id"):
            raise ConfigurationError(
                "mutual_knowledge_core requires nodes with own_token_id"
            )
    current = members
    while current:
        required = frozenset(node.own_token_id for node in current)
        if all(required <= node.known_tokens for node in current):
            return current
        knownness = {
            node.own_token_id: sum(
                1 for other in current
                if node.own_token_id in other.known_tokens
            )
            for node in current
        }
        victim = min(
            current,
            key=lambda node: (
                knownness[node.own_token_id],
                len(node.known_tokens),
            ),
        )
        current = [node for node in current if node is not victim]
    return []


def epsilon_gossip_solved(nodes, epsilon: float) -> bool:
    """True if ε-gossip is certifiably solved right now.

    Checks, cheapest first: (a) Lemma 7.3's case-1 certificate (a token-set
    class of more than εn nodes); (b) the iterative mutual-knowledge core
    reaching εn.  Both are sound; (b) catches configurations (a) misses.
    """
    _check_epsilon(epsilon)
    holders = _as_holders(nodes)
    n = len(holders)
    needed = epsilon * n
    census = token_set_census(holders)
    if max(census.values()) >= needed:
        return True
    if all(hasattr(node, "own_token_id") for node in holders):
        if len(mutual_knowledge_core(holders)) >= needed:
            return True
    return False


def _as_holders(nodes) -> list:
    if isinstance(nodes, Mapping):
        holders = list(nodes.values())
    else:
        holders = list(nodes)
    if not holders:
        raise ConfigurationError("need at least one node")
    for node in holders:
        if not isinstance(node, TokenHolder):
            raise ConfigurationError(
                f"{node!r} does not expose known_tokens"
            )
    return holders


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
