"""CrowdedBin's round arithmetic: instances, phases, bins, blocks.

§6.1 of the paper layers four schedules:

* **multiplexing** — real rounds are grouped into *simulation groups* of
  ``log N`` rounds; round ``j`` of group ``i`` simulates instance-round
  ``i`` of instance ``j``.  So instance ``j`` (with its estimate
  ``k_j = 2^j``) runs on every ``log N``-th real round.
* **phases** — instance ``i``'s rounds are grouped into phases of ``k_i``
  *bins*;
* **bins** — each bin has ``γ·log N`` *blocks*;
* **blocks** — each block has ``ℓ + log N`` instance-rounds: the first
  ``ℓ = β·log N`` spell out one tag bit-by-bit via the advertising bit, the
  last ``log N`` run PPUSH for the token carrying that tag.

Everything here is pure integer arithmetic shared by every node (the
schedule is common knowledge — it depends only on N, β, γ), so the node
logic in :mod:`repro.core.crowdedbin` can stay about *behavior*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import ceil_log2
from repro.errors import ConfigurationError

__all__ = ["CrowdedBinSchedule", "SchedulePosition"]


@dataclass(frozen=True)
class SchedulePosition:
    """Where one real round falls inside one instance's schedule."""

    instance: int         # j ∈ [1, log N]
    instance_round: int   # t ≥ 1 (1-indexed within the instance)
    phase: int            # 0-indexed phase of this instance
    bin_index: int        # 0-indexed bin within the phase (< k_instance)
    block: int            # 0-indexed block within the bin (< blocks_per_bin)
    offset: int           # 0-indexed round within the block (< block_len)
    is_spelling: bool     # offset < ℓ: a tag-spelling round
    is_phase_start: bool  # first round of a phase

    @property
    def is_ppush(self) -> bool:
        return not self.is_spelling

    def __repr__(self) -> str:
        kind = "spell" if self.is_spelling else "ppush"
        return (
            f"SchedulePosition(inst={self.instance}, t={self.instance_round}, "
            f"phase={self.phase}, bin={self.bin_index}, block={self.block}, "
            f"offset={self.offset}, {kind})"
        )


class CrowdedBinSchedule:
    """The common-knowledge schedule for a given (N, β, γ)."""

    def __init__(self, upper_n: int, beta: int, gamma: int):
        if upper_n < 4:
            raise ConfigurationError(
                f"CrowdedBin needs N >= 4 (got {upper_n}) so log N >= 2"
            )
        if beta < 1:
            raise ConfigurationError(f"beta must be >= 1, got {beta}")
        if gamma < 1:
            raise ConfigurationError(f"gamma must be >= 1, got {gamma}")
        self.upper_n = upper_n
        self.beta = beta
        self.gamma = gamma
        self.log_n = max(ceil_log2(upper_n), 2)
        #: Number of parallel instances; instance i targets k_i = 2^i.
        self.num_instances = self.log_n
        #: ℓ: advertising rounds needed to spell one tag.
        self.ell = beta * self.log_n
        #: Blocks per bin; also the crowding threshold γ·log N.
        self.blocks_per_bin = gamma * self.log_n
        #: Rounds per block: ℓ spelling + log N PPUSH.
        self.block_len = self.ell + self.log_n
        #: Largest assignable tag (tags live in [1, 2^ℓ - 1]).
        self.max_tag = (1 << self.ell) - 1
        #: Crowding threshold: a bin with ≥ this many tags is crowded.
        self.crowded_threshold = self.gamma * self.log_n
        # locate's last answer: every node of a population shares this
        # schedule and asks for the same round in turn.
        self._located: tuple[int, SchedulePosition] | None = None

    def bins(self, instance: int) -> int:
        """k_i = 2^i, the bin count (and estimate) of instance ``instance``."""
        self._check_instance(instance)
        return 1 << instance

    def estimate_of(self, instance: int) -> int:
        return self.bins(instance)

    def phase_len(self, instance: int) -> int:
        """Instance-rounds per phase: k_i bins × blocks/bin × block length."""
        return self.bins(instance) * self.blocks_per_bin * self.block_len

    def phase_len_real(self, instance: int) -> int:
        """Real rounds spanned by one phase (multiplexing factor log N)."""
        return self.phase_len(instance) * self.log_n

    def instance_of_round(self, real_round: int) -> tuple[int, int]:
        """Map a real round to (instance j, instance-round t), both 1-indexed."""
        if real_round < 1:
            raise ConfigurationError(f"rounds are 1-indexed, got {real_round}")
        j = (real_round - 1) % self.log_n + 1
        t = (real_round - 1) // self.log_n + 1
        return j, t

    def locate(self, real_round: int) -> SchedulePosition:
        """Full position of a real round inside its instance's schedule.

        The last answer is kept: a frozen position is shared by every
        node that asks for the same round."""
        located = self._located
        if located is not None and located[0] == real_round:
            return located[1]
        instance, t = self.instance_of_round(real_round)
        plen = self.phase_len(instance)
        phase, pos_in_phase = divmod(t - 1, plen)
        bin_len = self.blocks_per_bin * self.block_len
        bin_index, pos_in_bin = divmod(pos_in_phase, bin_len)
        block, offset = divmod(pos_in_bin, self.block_len)
        pos = SchedulePosition(
            instance=instance,
            instance_round=t,
            phase=phase,
            bin_index=bin_index,
            block=block,
            offset=offset,
            is_spelling=offset < self.ell,
            is_phase_start=pos_in_phase == 0,
        )
        self._located = (real_round, pos)
        return pos

    def is_spelling_end(self, pos: SchedulePosition) -> bool:
        """Last spelling round of a block (time to decode neighbor tags)."""
        return pos.offset == self.ell - 1

    def is_bin_end(self, pos: SchedulePosition) -> bool:
        """Last round of a bin (time to fold pending tags in)."""
        return (
            pos.block == self.blocks_per_bin - 1
            and pos.offset == self.block_len - 1
        )

    def tag_bits(self, tag: int) -> list[int]:
        """The ℓ-bit spelling of a tag, MSB first."""
        if not 0 <= tag <= self.max_tag:
            raise ConfigurationError(
                f"tag {tag} outside [0, {self.max_tag}]"
            )
        return [(tag >> (self.ell - 1 - i)) & 1 for i in range(self.ell)]

    def target_instance_bound(self, k: int) -> int:
        """Smallest instance i with k_i ≥ k (harness-side diagnostic)."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        instance = 1
        while self.bins(instance) < k and instance < self.num_instances:
            instance += 1
        return instance

    def _check_instance(self, instance: int) -> None:
        if not 1 <= instance <= self.num_instances:
            raise ConfigurationError(
                f"instance {instance} outside [1, {self.num_instances}]"
            )

    def __repr__(self) -> str:
        return (
            f"CrowdedBinSchedule(N={self.upper_n}, beta={self.beta}, "
            f"gamma={self.gamma}, logN={self.log_n}, ell={self.ell}, "
            f"block_len={self.block_len}, blocks_per_bin={self.blocks_per_bin})"
        )
