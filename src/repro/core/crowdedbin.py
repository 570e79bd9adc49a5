"""CrowdedBin: gossip over stable topologies with one advertising bit (§6).

The idea: with τ = ∞ a node can spell multi-bit information to all its
neighbors over consecutive rounds using its single advertising bit.
CrowdedBin spends that power on two things:

1. **Estimating k.**  Nodes run log N logically-parallel instances, one
   per estimate ``k_i = 2^i``.  Every token owner throws its token (tagged
   with a random ℓ-bit label) into a uniform bin per instance.  If an
   instance's estimate is too small, some bin collects ≥ γ·log N tags — a
   *crowded bin* — which nodes treat as proof the estimate must grow.
   Nodes also upgrade when they *hear activity* (a 1-bit) in an instance
   above their current estimate.

2. **Spreading tokens.**  Within its instance, a node walks bins; in bin
   ``j`` it spells the block-th smallest tag it knows for that bin over the
   ℓ spelling rounds of each block, then runs PPUSH for that tag's token
   in the block's last log N rounds.  After estimates stabilize at the
   target instance (no crowding), every token owns a (bin, block) slot and
   the per-block PPUSH executions concatenate into clean parallel rumor
   spreading.

Theorem 6.10: O((k/α)·log⁶ n) rounds w.h.p. — a factor ≈ n faster than
SharedBit on well-connected stable graphs.

Faithfulness notes: pending tags fold in at bin end (§6.1 "put it aside"),
upgrades finish the committed phase before switching, estimates never
decrease, and the activity upgrade jumps straight to the instance where
activity was heard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bits import ceil_log2
from repro.core.problem import GossipNode
from repro.core.schedule import CrowdedBinSchedule, SchedulePosition
from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.sim.channel import Channel
from repro.sim.context import NeighborView

__all__ = ["CrowdedBinConfig", "CrowdedBinNode", "configuration_report"]


@dataclass(frozen=True)
class CrowdedBinConfig:
    """Tunables β (tag-space exponent) and γ (blocks per bin).

    Lemma 6.5: for failure probability ≤ N^{-c}, take β ≥ c + 3 and
    γ ≥ 3c + 9.  Those are the ``paper()`` values (c = 1).  The
    ``practical()`` preset keeps phases short enough for laptop sweeps;
    EXPERIMENTS.md states which preset produced each number.  β below 3
    is risky at small N: tag collisions (a *bad configuration* per
    Definition 6.3) can permanently wedge one token's dissemination, just
    as the paper's analysis anticipates by requiring unique tags.
    """

    beta: int = 4
    gamma: int = 12

    def __post_init__(self):
        if self.beta < 1 or self.gamma < 1:
            raise ConfigurationError(
                f"beta and gamma must be >= 1, got beta={self.beta}, "
                f"gamma={self.gamma}"
            )

    @classmethod
    def paper(cls) -> "CrowdedBinConfig":
        return cls(beta=4, gamma=12)

    @classmethod
    def practical(cls) -> "CrowdedBinConfig":
        return cls(beta=3, gamma=2)

    def schedule(self, upper_n: int) -> CrowdedBinSchedule:
        return CrowdedBinSchedule(upper_n, beta=self.beta, gamma=self.gamma)


class _SpellBuffer:
    """Collects one neighbor's advertising bits across a block's spelling part."""

    __slots__ = ("bits", "next_offset", "valid")

    def __init__(self):
        self.bits: list[int] = []
        self.next_offset = 0
        self.valid = False

    def start(self, bit: int) -> None:
        self.bits = [bit]
        self.next_offset = 1
        self.valid = True

    def feed(self, offset: int, bit: int) -> None:
        if not self.valid or offset != self.next_offset:
            self.valid = False
            return
        self.bits.append(bit)
        self.next_offset += 1

    def value(self, ell: int) -> int | None:
        if not self.valid or len(self.bits) != ell:
            return None
        out = 0
        for bit in self.bits:
            out = (out << 1) | bit
        return out


class CrowdedBinNode(GossipNode):
    """One node running CrowdedBin.  Requires b = 1 and τ = ∞."""

    def __init__(
        self,
        uid: int,
        upper_n: int,
        initial_tokens,
        rng: random.Random,
        config: CrowdedBinConfig | None = None,
        schedule: CrowdedBinSchedule | None = None,
    ):
        super().__init__(uid, upper_n, initial_tokens, rng)
        self.config = config or CrowdedBinConfig()
        self.schedule = schedule or self.config.schedule(upper_n)

        #: Current estimate, as an instance index (k_est = 2^est).
        self.est = 1
        #: The (instance, phase) this node committed to, if any.
        self._committed: tuple[int, int] | None = None

        #: T_u(i, j): tags known for bin j of instance i.
        self._bin_tags: dict[tuple[int, int], set[int]] = {}
        #: Tags heard mid-bin, folded in at bin end (§6.1 "put it aside").
        self._pending_tags: dict[tuple[int, int], set[int]] = {}
        #: tag -> token for tokens this node owns (Q_u with its tag labels).
        self._owned_by_tag: dict[int, Token] = {}

        # Keyed by (instance, neighbor uid): rounds of all log N instances
        # interleave, so each instance needs its own reception state.
        self._spell_buffers: dict[tuple[int, int], _SpellBuffer] = {}
        self._block_tag: int | None = None
        self._block_bits: list[int] = []
        self._bit_this_round = 0
        self._pos: SchedulePosition | None = None

        self._assign_initial_bins()

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------

    def _assign_initial_bins(self) -> None:
        """Tag each owned token and throw it into a bin per instance."""
        for token_id in sorted(self._tokens):
            token = self._tokens[token_id]
            tag = self.rng.randint(1, self.schedule.max_tag)
            while tag in self._owned_by_tag:
                tag = self.rng.randint(1, self.schedule.max_tag)
            self._owned_by_tag[tag] = token
            for instance in range(1, self.schedule.num_instances + 1):
                bin_choice = self.rng.randrange(self.schedule.bins(instance))
                self._bin_tags.setdefault((instance, bin_choice), set()).add(tag)

    # ------------------------------------------------------------------
    # Introspection used by tests, gauges, and the configuration report
    # ------------------------------------------------------------------

    @property
    def estimate(self) -> int:
        """The current estimate of k (the value, not the instance index)."""
        return self.schedule.estimate_of(self.est)

    def tags_in_bin(self, instance: int, bin_index: int) -> frozenset:
        return frozenset(self._bin_tags.get((instance, bin_index), ()))

    def owned_tags(self) -> frozenset:
        return frozenset(self._owned_by_tag)

    # ------------------------------------------------------------------
    # Round hooks
    # ------------------------------------------------------------------

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        pos = self.schedule.locate(round_index)
        self._pos = pos

        if pos.instance == self.est and pos.is_phase_start:
            self._committed = (self.est, pos.phase)

        participating = self._committed == (pos.instance, pos.phase)
        if not participating:
            self._bit_this_round = 0
            return 0

        if pos.is_spelling:
            if pos.offset == 0:
                self._begin_block(pos)
            bit = self._block_bits[pos.offset] if self._block_bits else 0
        else:
            bit = 1 if self._informed_for_block() else 0
        self._bit_this_round = bit
        return bit

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        pos = self._pos
        assert pos is not None, "advertise must run before propose"

        # Upgrade trigger 1 fires on any 1-bit heard in a higher instance's
        # round, whether it is a spelled tag bit or a PPUSH informed bit.
        self._detect_activity(pos, neighbors)

        if pos.is_spelling:
            self._ingest_spelling(pos, neighbors)
            target = None
        else:
            target = self._ppush_target(pos, neighbors)

        if self.schedule.is_bin_end(pos):
            self._fold_pending(pos.instance, pos.bin_index)
        return target

    def interact(self, responder: "CrowdedBinNode", channel: Channel,
                 round_index: int) -> None:
        """PPUSH push: ship the current block's token (with its tag)."""
        pos = self._pos
        assert pos is not None and pos.is_ppush
        tag = self._block_tag
        if tag is None or tag not in self._owned_by_tag:
            return  # Defensive: we only propose when informed.
        token = self._owned_by_tag[tag]
        channel.charge_bits(
            self.schedule.ell + ceil_log2(self.upper_n + 1), label="ppush"
        )
        channel.charge_token()
        responder.receive_push(pos, tag, token)

    def receive_push(self, pos: SchedulePosition, tag: int, token: Token) -> None:
        """Accept a pushed token: store it, learn its tag and bin slot."""
        self.store_token(token)
        self._owned_by_tag[tag] = token
        self._pending_tags.setdefault(
            (pos.instance, pos.bin_index), set()
        ).add(tag)

    # ------------------------------------------------------------------
    # Spelling side
    # ------------------------------------------------------------------

    def _begin_block(self, pos: SchedulePosition) -> None:
        """Pick the tag this node spells for block ``pos.block`` of its bin."""
        tags = sorted(self._bin_tags.get((pos.instance, pos.bin_index), ()))
        if pos.block < len(tags):
            self._block_tag = tags[pos.block]
            self._block_bits = self.schedule.tag_bits(self._block_tag)
        else:
            self._block_tag = None
            self._block_bits = [0] * self.schedule.ell

    def _informed_for_block(self) -> bool:
        return (
            self._block_tag is not None
            and self._block_tag in self._owned_by_tag
        )

    def _ingest_spelling(
        self, pos: SchedulePosition, neighbors: tuple[NeighborView, ...]
    ) -> None:
        """Accumulate neighbor bits; decode tags at the block's last bit.

        Bits are collected for whatever instance owns this round — not just
        the node's own — because the scan shows neighbor tags for free and
        upgraded neighbors spell useful tags in higher instances.
        """
        for view in neighbors:
            buffer_key = (pos.instance, view.uid)
            buffer = self._spell_buffers.get(buffer_key)
            if pos.offset == 0:
                if buffer is None:
                    buffer = _SpellBuffer()
                    self._spell_buffers[buffer_key] = buffer
                buffer.start(view.tag)
            elif buffer is not None:
                buffer.feed(pos.offset, view.tag)

        if self.schedule.is_spelling_end(pos):
            key = (pos.instance, pos.bin_index)
            known = self._bin_tags.get(key, set())
            for (instance, _), buffer in self._spell_buffers.items():
                if instance != pos.instance:
                    continue
                value = buffer.value(self.schedule.ell)
                if value:  # all-zero blocks mean "no tag" (tags start at 1)
                    if value not in known:
                        self._pending_tags.setdefault(key, set()).add(value)

    def _fold_pending(self, instance: int, bin_index: int) -> None:
        """Apply deferred tag additions; check for crowding (upgrade trigger 2)."""
        key = (instance, bin_index)
        pending = self._pending_tags.pop(key, None)
        if pending:
            self._bin_tags.setdefault(key, set()).update(pending)
        if (
            instance == self.est
            and len(self._bin_tags.get(key, ()))
            >= self.schedule.crowded_threshold
            and self.est < self.schedule.num_instances
        ):
            self.est += 1

    # ------------------------------------------------------------------
    # PPUSH side and activity detection
    # ------------------------------------------------------------------

    def _ppush_target(
        self, pos: SchedulePosition, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if self._committed != (pos.instance, pos.phase):
            return None
        if self._bit_this_round != 1:
            return None
        quiet = [view.uid for view in neighbors if view.tag == 0]
        if not quiet:
            return None
        return self.rng.choice(sorted(quiet))

    def _detect_activity(
        self, pos: SchedulePosition, neighbors: tuple[NeighborView, ...]
    ) -> None:
        """Upgrade trigger 1: a 1-bit heard in an instance above our estimate."""
        if pos.instance <= self.est:
            return
        if any(view.tag == 1 for view in neighbors):
            self.est = min(pos.instance, self.schedule.num_instances)


def configuration_report(nodes, schedule: CrowdedBinSchedule, k: int) -> dict:
    """Harness-side check of Definition 6.3 (good configurations).

    Reports whether all tags are unique, which instance is the *target*
    (smallest non-crowded), and whether the target estimate is ≤ 2k.
    ``nodes`` is any iterable/mapping of :class:`CrowdedBinNode`.
    """
    from typing import Mapping

    if isinstance(nodes, Mapping):
        members = list(nodes.values())
    else:
        members = list(nodes)
    tag_to_tokens: dict[int, set[int]] = {}
    token_to_tags: dict[int, set[int]] = {}
    bins: dict[tuple[int, int], set[int]] = {}
    for node in members:
        owned = node.owned_tags()
        for tag in owned:
            token_id = node._owned_by_tag[tag].token_id
            tag_to_tokens.setdefault(tag, set()).add(token_id)
            token_to_tags.setdefault(token_id, set()).add(tag)
        for key, tags in node._bin_tags.items():
            for tag in tags & owned:
                bins.setdefault(key, set()).add(tag)
    unique = all(len(v) == 1 for v in tag_to_tokens.values()) and all(
        len(v) == 1 for v in token_to_tags.values()
    )
    target = None
    for instance in range(1, schedule.num_instances + 1):
        crowded = any(
            len(tags) >= schedule.crowded_threshold
            for (inst, _), tags in bins.items()
            if inst == instance
        )
        if not crowded:
            target = instance
            break
    good = (
        unique
        and target is not None
        and schedule.estimate_of(target) <= max(2 * k, 2)
    )
    return {
        "unique_tags": unique,
        "target_instance": target,
        "target_estimate": None if target is None else schedule.estimate_of(target),
        "good": good,
    }


@register_algorithm(
    name="crowdedbin",
    description="stable-topology gossip, O((k/a)*log^6 n) (Thm 6.10)",
    config_class=CrowdedBinConfig,
    tag_length=1,
    requires_stable_topology=True,
    token_list_stage3=False,
)
def _build_crowdedbin_nodes(ctx):
    upper_n, config = ctx.instance.upper_n, ctx.config
    schedule = config.schedule(upper_n)
    return {
        vertex: CrowdedBinNode(uid, upper_n, tokens, rng, config, schedule)
        for vertex, uid, tokens, rng in ctx.members()
    }
