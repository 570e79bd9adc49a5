"""SharedBit: gossip with one advertising bit and shared randomness (§5.1).

The single bit is spent well: each round ``r``, the shared string assigns
every token label ``t`` a fresh random bit ``t.bit``; a node advertises the
parity of the bits of the tokens it knows (0 for the empty set).  Nodes
with identical token sets therefore advertise the same bit, and nodes with
*different* sets advertise different bits with probability exactly 1/2
(Lemma 5.2) — so a 1-advertiser proposing to a 0-advertiser always lands on
a neighbor whose set differs from its own, and the Transfer subroutine can
make the connection productive.

Theorem 5.1: O(k·n) rounds w.h.p., for any τ ≥ 1.

The proposal *target* among 0-advertising neighbors is also drawn from the
shared string (the node's own UID bundle), exactly as in the paper — a
detail that matters for §5.2, where all of SharedBit's shared coins must
come from the one disseminated string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.commcplx.transfer import TransferProtocol
from repro.core.problem import GossipNode
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.rng import SharedRandomness
from repro.sim.context import NeighborView

__all__ = ["SharedBitConfig", "SharedBitNode", "build_sharedbit_nodes"]


@dataclass(frozen=True)
class SharedBitConfig:
    """Tunables for SharedBit.

    ``transfer_error_exponent`` — Transfer's ε = N^{-c_t} (§5.1).
    ``group_offset`` — added to the engine round to index the shared
    string's group; SimSharedBit uses this to keep gossip rounds and leader
    rounds on a common global clock.
    """

    transfer_error_exponent: float = 2.0
    group_offset: int = 0

    def __post_init__(self):
        if self.transfer_error_exponent <= 0:
            raise ConfigurationError(
                "transfer_error_exponent must be positive, got "
                f"{self.transfer_error_exponent}"
            )

    def transfer_epsilon(self, upper_n: int) -> float:
        return float(upper_n) ** (-self.transfer_error_exponent)

    @classmethod
    def paper(cls) -> "SharedBitConfig":
        return cls(transfer_error_exponent=2.0)

    @classmethod
    def practical(cls) -> "SharedBitConfig":
        return cls(transfer_error_exponent=1.0)


class SharedBitNode(GossipNode):
    """One node running SharedBit.  Requires b = 1 and a shared string."""

    def __init__(
        self,
        uid: int,
        upper_n: int,
        initial_tokens,
        rng: random.Random,
        shared: SharedRandomness,
        config: SharedBitConfig | None = None,
        transfer: TransferProtocol | None = None,
    ):
        super().__init__(uid, upper_n, initial_tokens, rng)
        self.config = config or SharedBitConfig()
        self.shared = shared
        self._transfer = self._transfer_machine(transfer, self.config)
        self._bit_this_round = 0

    def advertisement_bit(self, round_index: int) -> int:
        """b_u(r): parity of the shared bits of the tokens this node knows."""
        if not self._tokens:
            return 0
        group = round_index + self.config.group_offset
        parity = 0
        for token_id in self._tokens:
            parity ^= self.shared.token_bit(group, token_id)
        return parity

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        self._bit_this_round = self.advertisement_bit(round_index)
        return self._bit_this_round

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if self._bit_this_round != 1:
            return None  # 0-advertisers wait to receive proposals.
        zeros = sorted(view.uid for view in neighbors if view.tag == 0)
        if not zeros:
            return None
        group = round_index + self.config.group_offset
        index = self.shared.selection_index(group, self.uid, len(zeros))
        return zeros[index]

    # -- bulk hooks (array fast path) ------------------------------------
    # The parity bits are *shared* randomness: b_t(r) depends only on
    # (round group, token label), never on which node evaluates it.  The
    # scalar path re-derives each token's PRF bit per node per round —
    # Θ(Σ_u |tokens_u|) BLAKE2b calls, the dominant cost once sets grow —
    # while the bulk hook derives each distinct token's bit once
    # (SharedRandomness.token_bits) and shares the dict across all n
    # nodes.  Identical bits, identical parities, identical proposals.

    @classmethod
    def bulk_ready(cls, nodes) -> bool:
        # The batch derivation assumes what the standard builder
        # guarantees: one shared string (the very object, which the
        # identity test finds first) and one config for everybody.
        first = nodes[0]
        shared, offset = first.shared, first.config.group_offset
        return all(
            (node.shared is shared or node.shared == shared)
            and node.config.group_offset == offset
            and node.upper_n == first.upper_n
            for node in nodes
        )

    @classmethod
    def advertise_all(cls, nodes, round_index, csr) -> np.ndarray:
        first = nodes[0]
        group = round_index + first.config.group_offset
        known: set[int] = set()
        for node in nodes:
            known.update(node._tokens)
        bit_of = first.shared.token_bits(group, sorted(known))
        tags = csr.round_buffer("sharedbit:tags", len(nodes), np.int64)
        get = bit_of.__getitem__
        for vertex, node in enumerate(nodes):
            tokens = node._tokens
            bit = sum(map(get, tokens)) & 1 if tokens else 0
            tags[vertex] = bit
            node._bit_this_round = bit
        return tags

    @classmethod
    def propose_all(cls, nodes, round_index, csr, tags) -> np.ndarray:
        first = nodes[0]
        group = round_index + first.config.group_offset
        shared = first.shared
        targets = csr.round_buffer("sharedbit:targets", len(nodes),
                                   np.int64, fill=-1)
        vertices, bounds, zeros = csr.candidate_rows(tags)
        starts = bounds[:-1]
        picks = shared.selection_indices(
            group, csr.vertex_uids[vertices].tolist(),
            (bounds[1:] - starts).tolist())
        targets[vertices] = zeros[starts + np.array(picks, dtype=np.int64)]
        return targets

    # -- window hooks (batched async path) -------------------------------
    # b_t(r) is shared, so a member's tag is read from its *current* token
    # set the moment it scans (the model's tag, §5.1), out of a per-cycle
    # bit table the whole population shares.

    @classmethod
    def make_window_hooks(cls, nodes) -> "_SharedBitWindowOps":
        return _SharedBitWindowOps(nodes)


#: Per-cycle bit tables the window ops keep; past this many the oldest
#: cycle's is dropped.  Skewed clocks (bursty, heterogeneous) scan many
#: cycles per window: a bound of 8 thrashed on bursty timing.
_BIT_TABLES = 64


class _SharedBitWindowOps:
    """Stateful window ops for SharedBit (see ``window_hooks``).

    A member's tag is ``advertisement_bit(cycle)`` read through a
    ``{label: bit}`` table per cycle, filled on first use with one
    :meth:`~repro.rng.SharedRandomness.token_bits` call for the labels
    it lacks: each (cycle, label) bit is derived once, not once per
    holder.  Unlike the scalar ``advertise``, the ops do not maintain
    ``_bit_this_round`` — nothing outside the scalar hooks reads it, and
    a run fed by window ops never calls them.
    """

    def __init__(self, nodes):
        first = nodes[0]
        self._nodes = nodes
        self._shared = first.shared
        self._offset = first.config.group_offset
        self._tables: dict[int, dict[int, int]] = {}

    def scan(self, vertices, cycles) -> tuple[list, list]:
        nodes = self._nodes
        tables = self._tables
        tags = []
        for vertex, cycle in zip(vertices, cycles):
            tokens = nodes[vertex]._tokens
            bits = tables.get(cycle)
            if bits is None:
                bits = tables[cycle] = {}
                if len(tables) > _BIT_TABLES:
                    del tables[next(iter(tables))]
            try:
                tags.append(sum(map(bits.__getitem__, tokens)) & 1)
            except KeyError:
                bits.update(self._shared.token_bits(
                    cycle + self._offset,
                    [label for label in tokens if label not in bits],
                ))
                tags.append(sum(map(bits.__getitem__, tokens)) & 1)
        # 1-advertisers propose: each 0/1 tag is its own candidate flag.
        return tags, tags

    def propose_one(self, vertex, cycle, neighbor_uids, neighbor_tags) -> int:
        zeros = sorted(
            uid for uid, tag in zip(neighbor_uids, neighbor_tags) if tag == 0
        )
        if not zeros:
            return -1
        index = self._shared.selection_index(
            cycle + self._offset, self._nodes[vertex].uid, len(zeros)
        )
        return zeros[index]


@register_algorithm(
    name="sharedbit",
    description="one bit + shared randomness; O(k*n), any tau (Thm 5.1)",
    config_class=SharedBitConfig,
    tag_length=1,
)
def build_sharedbit_nodes(ctx):
    """SharedBit's population: one shared string and one Transfer machine
    for every node (also registered as ``"epsilon"``, §7)."""
    upper_n, config = ctx.instance.upper_n, ctx.config
    shared = SharedRandomness(ctx.tree.key("shared-string"), upper_n)
    transfer = ctx.transfer_protocol()
    return {
        vertex: SharedBitNode(uid, upper_n, tokens, rng, shared, config,
                              transfer)
        for vertex, uid, tokens, rng in ctx.members()
    }
