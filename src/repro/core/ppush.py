"""PPUSH: rumor spreading with one advertising bit (from [11], used in §6).

The strategy: informed nodes advertise 1, uninformed advertise 0; each
informed node with at least one uninformed neighbor proposes to one chosen
uniformly at random; connections move the rumor.

Theorem 6.1 (adapted from [11]): with b ≥ 1, τ = ∞ and expansion α, PPUSH
spreads the rumor to all nodes in O(log⁴N / α) rounds w.h.p.  CrowdedBin
runs logically-parallel PPUSH instances in the tails of its blocks; this
standalone version backs the Theorem 6.1 benchmark and the quickstart
example.
"""

from __future__ import annotations

import random

import numpy as np

from repro.bits import ceil_log2
from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.sim.channel import Channel
from repro.sim.context import NeighborView
from repro.sim.protocol import NodeProtocol

__all__ = ["PPushNode"]


class PPushNode(NodeProtocol):
    """One node running PPUSH for a single rumor."""

    def __init__(self, uid: int, upper_n: int, rng: random.Random,
                 rumor: Token | None = None):
        super().__init__(uid)
        self.upper_n = upper_n
        self.rng = rng
        self.rumor = rumor
        self.informed_at_round: int | None = 0 if rumor is not None else None

    @property
    def informed(self) -> bool:
        return self.rumor is not None

    @property
    def known_tokens(self) -> frozenset:
        """TokenHolder interface so gossip termination conditions apply."""
        return frozenset((self.rumor.token_id,)) if self.rumor else frozenset()

    def has_token(self, token_id: int) -> bool:
        return self.rumor is not None and self.rumor.token_id == token_id

    def token(self, token_id: int) -> Token:
        if not self.has_token(token_id):
            raise KeyError(f"node {self.uid} does not hold token {token_id}")
        return self.rumor

    def store_token(self, token: Token) -> None:
        """TokenHolder interface: an uninformed node learns the rumor."""
        if self.rumor is None:
            self.rumor = token

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        return 1 if self.informed else 0

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if not self.informed:
            return None
        uninformed = [view.uid for view in neighbors if view.tag == 0]
        if not uninformed:
            return None
        return self.rng.choice(sorted(uninformed))

    def interact(self, responder: "PPushNode", channel: Channel,
                 round_index: int) -> None:
        # The rumor id rides along so the receiver can label it.  The
        # responder learns the rumor through the token-holder interface,
        # so a live server's remote-peer adapter can stand in for it
        # (``informed_at_round`` is the simulator's record).
        channel.charge_bits(ceil_log2(self.upper_n + 1), label="rumor-id")
        channel.charge_token()
        if not responder.has_token(self.rumor.token_id):
            responder.store_token(self.rumor)
            responder.informed_at_round = round_index

    # -- bulk hooks (array fast path) ------------------------------------
    # Byte-identical to the scalar hooks looped over vertices 0..n-1: a
    # node draws from its rng only when informed *and* it has at least one
    # uninformed neighbor (exactly when the scalar propose reaches
    # rng.choice), and the candidate array is the same sorted-UID list.

    @classmethod
    def advertise_all(cls, nodes, round_index, csr) -> np.ndarray:
        return np.fromiter(
            (1 if node.rumor is not None else 0 for node in nodes),
            dtype=np.int64,
            count=len(nodes),
        )

    @classmethod
    def propose_all(cls, nodes, round_index, csr, tags) -> np.ndarray:
        targets = csr.round_buffer("ppush:targets", len(nodes), np.int64,
                                   fill=-1)
        vertices, bounds, uids = csr.candidate_rows(tags)
        for vertex, start, end in zip(vertices.tolist(), bounds.tolist(),
                                      bounds[1:].tolist()):
            targets[vertex] = nodes[vertex].rng.choice(uids[start:end])
        return targets


@register_algorithm(
    name="ppush",
    description="single-rumor push, informed nodes advertise 1; "
                "O(log^4 N / a) with tau = infinity (Thm 6.1)",
    tag_length=1,
    requires_stable_topology=True,
)
def _build_ppush_nodes(ctx):
    """One PPushNode per vertex; the instance's single token is the rumor."""
    instance = ctx.instance
    if len(instance.token_ids) != 1:
        raise ConfigurationError(
            "ppush spreads exactly one rumor; got an instance with "
            f"k={len(instance.token_ids)} tokens (use k=1 or token_at)"
        )
    # An informed node draws whenever it has an uninformed neighbor, so
    # the streams are eager: lazy ones would only move their
    # construction into the first rounds.
    upper_n = instance.upper_n
    return {
        vertex: PPushNode(uid, upper_n, rng, tokens[0] if tokens else None)
        for vertex, uid, tokens, rng in ctx.members(stream=ctx.tree.stream)
    }
