"""BlindMatch: gossip with no advertising bits (b = 0), any stability (§4).

The natural strategy when nodes can signal nothing: every round each node
flips a fair coin to be a *sender* or a *receiver*; a sender proposes to a
uniformly random neighbor; connected pairs run Transfer(ε) to move the
smallest token in their symmetric difference.

Theorem 4.1: solves gossip in O((1/α)·k·Δ²·log²n) rounds w.h.p.  The Δ²
factor is real — see the double-star lower bound benchmark — because in a
star a specific proposal lands with probability ≈ 1/Δ and survives the
acceptance lottery with probability ≈ 1/Δ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.commcplx.transfer import TransferProtocol
from repro.core.problem import GossipNode
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.sim.channel import Channel
from repro.sim.context import NeighborView

__all__ = ["BlindMatchConfig", "BlindMatchNode"]


@dataclass(frozen=True)
class BlindMatchConfig:
    """Tunables for BlindMatch.

    ``transfer_error_exponent`` — the ``c_t`` in Transfer's per-call error
    ε = N^{-c_t} (§5.1 fixes c_t ≥ 1 "sufficiently large"; 2 keeps the
    union bound comfortable at simulation sizes).
    """

    transfer_error_exponent: float = 2.0

    def __post_init__(self):
        if self.transfer_error_exponent <= 0:
            raise ConfigurationError(
                "transfer_error_exponent must be positive, got "
                f"{self.transfer_error_exponent}"
            )

    def transfer_epsilon(self, upper_n: int) -> float:
        return float(upper_n) ** (-self.transfer_error_exponent)

    @classmethod
    def paper(cls) -> "BlindMatchConfig":
        return cls(transfer_error_exponent=2.0)

    @classmethod
    def practical(cls) -> "BlindMatchConfig":
        return cls(transfer_error_exponent=1.0)


class BlindMatchNode(GossipNode):
    """One node running BlindMatch.  Requires b = 0 (advertises nothing)."""

    def __init__(self, uid: int, upper_n: int, initial_tokens,
                 rng: random.Random, config: BlindMatchConfig | None = None,
                 transfer: TransferProtocol | None = None):
        super().__init__(uid, upper_n, initial_tokens, rng)
        self.config = config or BlindMatchConfig()
        self._transfer = self._transfer_machine(transfer, self.config)
        self._sender_this_round = False

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        # b = 0: nothing to say.  The fair coin is flipped here because the
        # model's round begins with the scan; the decision is needed before
        # proposals.
        self._sender_this_round = self.rng.random() < 0.5
        return 0

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if not self._sender_this_round or not neighbors:
            return None
        return self.rng.choice(neighbors).uid

    def interact(self, responder: "BlindMatchNode", channel: Channel,
                 round_index: int) -> None:
        self.run_transfer(responder, self._transfer, channel)

    # -- bulk hooks (array fast path) ------------------------------------
    # Byte-identical to looping the scalar hooks over vertices 0..n-1:
    # every node's coin comes off its own rng in vertex order, and
    # rng.randrange(degree) into the CSR row consumes exactly what
    # rng.choice over the NeighborView tuple would (choice(row) is
    # row[_randbelow(len(row))]: same length, same one draw).

    @classmethod
    def advertise_all(cls, nodes, round_index, csr) -> np.ndarray:
        for node in nodes:
            node._sender_this_round = node.rng.random() < 0.5
        return csr.round_buffer("blindmatch:tags", len(nodes), np.int64,
                                fill=0)

    @classmethod
    def propose_all(cls, nodes, round_index, csr, tags) -> np.ndarray:
        flat, indptr = csr.uid_lists()
        targets = [-1] * len(nodes)
        for vertex, node in enumerate(nodes):
            if node._sender_this_round:
                start = indptr[vertex]
                degree = indptr[vertex + 1] - start
                if degree:
                    targets[vertex] = flat[start + node.rng.randrange(degree)]
        out = csr.round_buffer("blindmatch:targets", len(nodes), np.int64)
        out[:] = targets
        return out

    # -- window hooks (batched async path) -------------------------------
    # The sender coin comes off each node's *private* rng — the same
    # stream Transfer's EQTest draws from — which the executor's
    # cohort-by-cohort scan keeps in event order relative to
    # interactions.  The batched win for b = 0 is in the engine's
    # drain/resolve machinery, not in hashing.
    # Why they exist beside ``ScalarWindowOps`` (ROADMAP 3(a)): any
    # ``timing:`` spec reaches them, and by never building a
    # ``NeighborView`` they measure +48 % / +30 % at n = 400 and +30 % /
    # +15 % at n = 2000 over the scalar hooks (EXPERIMENTS.md
    # SIMPLE-ASYNC, final table).

    @classmethod
    def make_window_hooks(cls, nodes) -> "_BlindMatchWindowOps":
        return _BlindMatchWindowOps(nodes)


class _BlindMatchWindowOps:
    """Stateful window ops for BlindMatch (see ``window_hooks``).

    Tags are always 0 (b = 0); the coin and the uniform target draw
    consume each member's private rng exactly as the scalar hooks do —
    ``rng.choice`` over the visible-UID array is the same single
    ``_randbelow(len)`` as over the ``NeighborView`` tuple.  Like the
    bulk hooks, the batch skips ``_sender_this_round`` bookkeeping;
    nothing outside the scalar hooks reads it.
    """

    def __init__(self, nodes):
        self._nodes = nodes

    def scan(self, vertices, cycles) -> tuple[list, list]:
        nodes = self._nodes
        senders = [nodes[vertex].rng.random() < 0.5 for vertex in vertices]
        return [0] * len(senders), senders

    def propose_one(self, vertex, cycle, neighbor_uids, neighbor_tags) -> int:
        if len(neighbor_uids) == 0:
            return -1
        return int(self._nodes[vertex].rng.choice(neighbor_uids))


@register_algorithm(
    name="blindmatch",
    description="no advertising bits, any tau; O((1/a)*k*D^2*log^2 n) (Thm 4.1)",
    config_class=BlindMatchConfig,
    tag_length=0,
)
def _build_blindmatch_nodes(ctx):
    transfer = ctx.transfer_protocol()
    return {
        vertex: BlindMatchNode(
            config=ctx.config, transfer=transfer, **ctx.common(vertex)
        )
        for vertex in ctx.vertices()
    }
