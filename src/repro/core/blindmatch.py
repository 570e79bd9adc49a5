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
from repro.rng import KeyedCounter, SeedTree
from repro.sim.context import NeighborView

__all__ = ["BlindMatchConfig", "BlindMatchNode"]

#: The seed-tree path of the population's coin key.
COINS_PATH = "blindmatch-coins"


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
    """One node running BlindMatch.  Requires b = 0 (advertises nothing).

    ``coins`` is the population's :class:`~repro.rng.KeyedCounter`.
    Round r's coin and target both come from the one draw for (uid, r):
    its top bit makes the node a sender, and its low half picks the
    neighbor.  A hand-built node without ``coins`` gets the key the
    builder would derive under seed 0.
    """

    #: The UID's lane under ``coins``, derived at the first scalar draw.
    _lane: int | None = None

    def __init__(self, uid: int, upper_n: int, initial_tokens,
                 rng: random.Random, config: BlindMatchConfig | None = None,
                 transfer: TransferProtocol | None = None,
                 coins: KeyedCounter | None = None, token_columns=None):
        super().__init__(uid, upper_n, initial_tokens, rng, token_columns)
        self.config = config or BlindMatchConfig()
        self.coins = coins or KeyedCounter(SeedTree(0).key(COINS_PATH))
        self._transfer = self._transfer_machine(transfer, self.config)

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        return 0  # b = 0: nothing to say.

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        if not neighbors:
            return None
        if self._lane is None:
            self._lane = self.coins.lane(self.uid)
        word = KeyedCounter.word(self._lane, round_index)
        if not word >> 63:
            return None  # the coin made this node a receiver
        return neighbors[KeyedCounter.index(
            self._lane, round_index, len(neighbors), word)].uid

    # -- bulk hooks (array fast path) ------------------------------------
    # The scalar draws, batched: one word per vertex from the cached lanes
    # of the UID array, then each sender's index into its CSR row (rows
    # are sorted by vertex, the order of the scalar hook's views).

    @classmethod
    def bulk_ready(cls, nodes) -> bool:
        # The batch draws every node's coin under the first node's key.
        first = nodes[0].coins
        return all(node.coins is first or node.coins.key == first.key
                   for node in nodes)

    @classmethod
    def advertise_all(cls, nodes, round_index, csr) -> np.ndarray:
        return csr.round_buffer("blindmatch:tags", len(nodes), np.int64,
                                fill=0)

    @classmethod
    def propose_all(cls, nodes, round_index, csr, tags) -> np.ndarray:
        coins = nodes[0].coins
        lanes = coins.lanes(csr.vertex_uids)
        indptr, uids = csr.indptr, csr.uids
        if len(nodes) <= _PYTHON_WALK_N:
            # A small population's senders are cheaper to walk in Python
            # than to gather with a few dozen numpy calls.  The pick is
            # KeyedCounter.index, inlined but for the rare redraw.
            starts, row_uids = indptr.tolist(), uids.tolist()
            picks = [-1] * len(nodes)
            for vertex, word in enumerate(coins.words_list(lanes, round_index)):
                if word >> 63:
                    start = starts[vertex]
                    degree = starts[vertex + 1] - start
                    if degree:
                        product = (word & 0xFFFFFFFF) * degree
                        if product & 0xFFFFFFFF < (1 << 32) % degree:
                            product = KeyedCounter.index(
                                int(lanes[vertex]), round_index, degree,
                                word) << 32
                        picks[vertex] = row_uids[start + (product >> 32)]
            return np.array(picks, dtype=np.int64)
        targets = csr.round_buffer("blindmatch:targets", len(nodes),
                                   np.int64, fill=-1)
        words = KeyedCounter.words(lanes, round_index)
        degrees = indptr[1:] - indptr[:-1]
        senders = np.flatnonzero((words >> 63).astype(bool) & (degrees > 0))
        picks = KeyedCounter.indices(lanes[senders], round_index,
                                     degrees[senders], words[senders])
        targets[senders] = uids[indptr[senders] + picks]
        return targets

    # -- window hooks (batched async path) -------------------------------
    # The draws are keyed by (uid, local cycle), so under synchronous
    # timing they are the round engine's.  Why the ops exist beside
    # ``ScalarWindowOps``: any ``timing:`` spec reaches them, and by
    # never building a ``NeighborView`` they measure +48 % / +30 % at
    # n = 400 and +30 % / +15 % at n = 2000 over the scalar hooks
    # (EXPERIMENTS.md SIMPLE-ASYNC, final table).

    @classmethod
    def make_window_hooks(cls, nodes) -> "_BlindMatchWindowOps":
        return _BlindMatchWindowOps(nodes)


#: Largest population whose bulk ``propose_all`` walks its senders in
#: Python instead of gathering them with numpy (measured crossover).
_PYTHON_WALK_N = 64


class _BlindMatchWindowOps:
    """Window ops for BlindMatch (see ``window_hooks``).

    Tags are always 0 (b = 0).  A member's sender flag and target are the
    scalar hook's draws for (uid, cycle), taken from lanes derived once
    for the population.
    """

    def __init__(self, nodes):
        uids = np.array([node.uid for node in nodes], dtype=np.int64)
        self._lanes = nodes[0].coins.lanes(uids).tolist()

    def scan(self, vertices, cycles) -> tuple[list, list]:
        lanes = self._lanes
        senders = [KeyedCounter.word(lanes[vertex], cycle) >> 63
                   for vertex, cycle in zip(vertices, cycles)]
        return [0] * len(senders), senders

    def propose_one(self, vertex, cycle, neighbor_uids, neighbor_tags) -> int:
        if not neighbor_uids:
            return -1
        return neighbor_uids[KeyedCounter.index(
            self._lanes[vertex], cycle, len(neighbor_uids))]


@register_algorithm(
    name="blindmatch",
    description="no advertising bits, any tau; O((1/a)*k*D^2*log^2 n) (Thm 4.1)",
    config_class=BlindMatchConfig,
    tag_length=0,
)
def _build_blindmatch_nodes(ctx):
    """BlindMatch's population: one coin key, one Transfer machine and
    one set of token columns for every node."""
    upper_n, config = ctx.instance.upper_n, ctx.config
    coins = KeyedCounter(ctx.tree.key(COINS_PATH))
    transfer = ctx.transfer_protocol()
    columns = ctx.token_columns()
    return {
        vertex: BlindMatchNode(uid, upper_n, tokens, rng, config, transfer,
                               coins, columns)
        for vertex, uid, tokens, rng in ctx.members()
    }
