"""MultiBitSharedBit: SharedBit generalized to tag length b ≥ 1.

The paper remarks (§1) that "for most of our solutions, increasing b
beyond 1 only improves performance by at most logarithmic factors".  This
module makes that claim measurable: the shared string assigns each token
``b`` fresh bits per round, a node advertises the per-position parity over
its token set, and — the only place the extra bits can help — two nodes
with *different* token sets now advertise different tags with probability
``1 − 2^{−b}`` instead of 1/2 (Lemma 5.2 is the b = 1 case).

Connection discipline generalizes the 1-proposes-to-0 rule: a node
proposes to a uniformly chosen neighbor with a *strictly smaller* tag (any
tag difference certifies a token-set difference, and ordering the pair by
tag value keeps the proposer/receiver roles asymmetric).  Everything else
is SharedBit verbatim, including Transfer(ε) on connections.

Expected outcome, confirmed by ``examples/specs/figures/ablB_multibit``: going
from b=1 to b=2 removes up to half of the wasted rounds (collision
probability 1/2 → 1/4); beyond that the returns vanish — a constant, not
even logarithmic, improvement, consistent with the paper's remark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.commcplx.transfer import TransferProtocol
from repro.core.problem import GossipNode
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.rng import SharedRandomness
from repro.sim.context import NeighborView

__all__ = ["MultiBitConfig", "MultiBitSharedBitNode"]


@dataclass(frozen=True)
class MultiBitConfig:
    """Tag length and Transfer error for the b ≥ 1 generalization."""

    bits: int = 2
    transfer_error_exponent: float = 2.0

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {self.bits}")
        if self.transfer_error_exponent <= 0:
            raise ConfigurationError(
                "transfer_error_exponent must be positive, got "
                f"{self.transfer_error_exponent}"
            )

    def transfer_epsilon(self, upper_n: int) -> float:
        return float(upper_n) ** (-self.transfer_error_exponent)


class MultiBitSharedBitNode(GossipNode):
    """One node running SharedBit with a b-bit advertising tag."""

    def __init__(
        self,
        uid: int,
        upper_n: int,
        initial_tokens,
        rng: random.Random,
        shared: SharedRandomness,
        config: MultiBitConfig | None = None,
        transfer: TransferProtocol | None = None,
    ):
        super().__init__(uid, upper_n, initial_tokens, rng)
        self.config = config or MultiBitConfig()
        self.shared = shared
        self._transfer = self._transfer_machine(transfer, self.config)
        self._tag_this_round = 0

    def advertisement_tag(self, round_index: int) -> int:
        """Per-position parity of b shared bits per known token.

        The b = 1 case reduces exactly to SharedBit's advertisement bit
        (same hash family, same Lemma 5.2 guarantee); for general b, two
        distinct sets collide with probability 2^{-b}.
        """
        if not self._tokens:
            return 0
        tag = 0
        for token_id in self._tokens:
            tag ^= self.shared.bundle_bits(
                round_index, token_id, self.config.bits
            )
        return tag

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        self._tag_this_round = self.advertisement_tag(round_index)
        return self._tag_this_round

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        # Propose to a neighbor with a strictly smaller tag: any tag
        # difference certifies a token-set difference, and the ordering
        # keeps proposer/receiver roles disjoint per edge.
        smaller = sorted(
            view.uid for view in neighbors if view.tag < self._tag_this_round
        )
        if not smaller:
            return None
        index = self.shared.selection_index(round_index, self.uid,
                                            len(smaller))
        return smaller[index]


@register_algorithm(
    name="multibit",
    description="SharedBit generalized to tag length b >= 1 (the b-ablation)",
    config_class=MultiBitConfig,
    tag_length=lambda config: config.bits,
)
def _build_multibit_nodes(ctx):
    upper_n, config = ctx.instance.upper_n, ctx.config
    shared = SharedRandomness(ctx.tree.key("shared-string"), upper_n)
    transfer = ctx.transfer_protocol()
    return {
        vertex: MultiBitSharedBitNode(uid, upper_n, tokens, rng, shared,
                                      config, transfer)
        for vertex, uid, tokens, rng in ctx.members()
    }
