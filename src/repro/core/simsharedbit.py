"""SimSharedBit: SharedBit without the shared-randomness assumption (§5.2).

The construction: all nodes know a poly(N)-sized family R′ of candidate
shared strings (:class:`~repro.commcplx.newman.SharedStringFamily` — the
object Newman's-theorem-style argument proves good).  At start, each node
privately samples a seed naming one string.  Rounds interleave:

* **even rounds** — BitConvergence leader election, with each node's seed
  riding as the candidate payload;
* **odd rounds** — SharedBit gossip, each node using the string named by
  *its current candidate leader's* seed.

Before convergence, neighboring nodes may gossip with different strings —
those rounds are potentially wasted, which is exactly the slack the
analysis budgets for.  After convergence (the eventual leader is the
minimum UID and its seed never changes again), every node expands the same
seed into the same string and the execution is verbatim SharedBit.

Theorem 5.6: O(k·n + (1/α)·Δ^{1/τ}·log⁶n) rounds w.h.p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.commcplx.newman import SharedStringFamily
from repro.commcplx.transfer import TransferProtocol
from repro.core.problem import GossipNode
from repro.core.sharedbit import SharedBitConfig
from repro.errors import ConfigurationError
from repro.leader.bitconvergence import BitConvergence, LeaderConfig
from repro.registry import register_algorithm
from repro.rng import SharedRandomness
from repro.sim.channel import Channel
from repro.sim.context import NeighborView

__all__ = ["SimSharedBitConfig", "SimSharedBitNode"]


@dataclass(frozen=True)
class SimSharedBitConfig:
    """Tunables: the SharedBit core, the election, and the family shape."""

    sharedbit: SharedBitConfig = field(default_factory=SharedBitConfig)
    leader: LeaderConfig = field(default_factory=LeaderConfig)
    family_size: int | None = None  # default: N³ (poly(N), see newman.py)

    @classmethod
    def paper(cls) -> "SimSharedBitConfig":
        return cls(sharedbit=SharedBitConfig.paper(), leader=LeaderConfig.paper())

    @classmethod
    def practical(cls) -> "SimSharedBitConfig":
        return cls(
            sharedbit=SharedBitConfig.practical(),
            leader=LeaderConfig.practical(),
        )


class SimSharedBitNode(GossipNode):
    """One node running SimSharedBit.  Requires b = 1; no shared coins."""

    def __init__(
        self,
        uid: int,
        upper_n: int,
        initial_tokens,
        rng: random.Random,
        family: SharedStringFamily,
        config: SimSharedBitConfig | None = None,
        transfer: TransferProtocol | None = None,
    ):
        super().__init__(uid, upper_n, initial_tokens, rng)
        self.config = config or SimSharedBitConfig()
        self.family = family
        if family.seed_bits > self.config.leader.payload_bits:
            raise ConfigurationError(
                f"family seeds need {family.seed_bits} bits but the leader "
                f"payload budget is {self.config.leader.payload_bits}"
            )
        self.seed_index = family.sample_seed(rng)
        self.election = BitConvergence(
            uid=uid,
            payload=self.seed_index,
            upper_n=upper_n,
            rng=rng,
            config=self.config.leader,
        )
        self._transfer = self._transfer_machine(
            transfer, self.config.sharedbit
        )
        self._string_cache: dict[int, SharedRandomness] = {}
        self._bit_this_round = 0

    @property
    def candidate_leader(self) -> int:
        return self.election.candidate_uid

    def current_shared(self) -> SharedRandomness:
        """The string named by the current candidate's seed payload."""
        seed = self.election.candidate_payload
        if seed not in self._string_cache:
            self._string_cache[seed] = self.family.string_for_seed(seed)
        return self._string_cache[seed]

    @staticmethod
    def is_election_round(round_index: int) -> bool:
        return round_index % 2 == 0

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        if self.is_election_round(round_index):
            return self.election.advertise()
        if not self._tokens:
            self._bit_this_round = 0
            return 0
        shared = self.current_shared()
        parity = 0
        for token_id in self._tokens:
            parity ^= shared.token_bit(round_index, token_id)
        self._bit_this_round = parity
        return parity

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if self.is_election_round(round_index):
            return self.election.propose(neighbors)
        if self._bit_this_round != 1:
            return None
        zeros = sorted(view.uid for view in neighbors if view.tag == 0)
        if not zeros:
            return None
        index = self.current_shared().selection_index(
            round_index, self.uid, len(zeros)
        )
        return zeros[index]

    def interact(self, responder: "SimSharedBitNode", channel: Channel,
                 round_index: int) -> None:
        if self.is_election_round(round_index):
            self.election.interact(responder.election, channel)
        else:
            self.run_transfer(responder, self._transfer, channel)


@register_algorithm(
    name="simsharedbit",
    description="SharedBit w/o shared randomness, via leader election "
                "(Thm 5.6)",
    config_class=SimSharedBitConfig,
    tag_length=1,
    token_list_stage3=False,
)
def _build_simsharedbit_nodes(ctx):
    upper_n, config = ctx.instance.upper_n, ctx.config
    family = SharedStringFamily(
        master_seed=ctx.tree.stream("family-master").randrange(2**31),
        capacity_n=upper_n,
        family_size=config.family_size,
    )
    transfer = ctx.transfer_protocol(config.sharedbit)
    return {
        vertex: SimSharedBitNode(uid, upper_n, tokens, rng, family, config,
                                 transfer)
        for vertex, uid, tokens, rng in ctx.members()
    }
