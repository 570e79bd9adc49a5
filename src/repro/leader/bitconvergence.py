"""BitConvergence-style leader election with payloads.

The interface this must satisfy (all that §5.2 of the gossip paper relies
on, quoting its summary of [22]):

* every node maintains a *candidate leader* UID and that candidate's
  polylog(N)-bit *payload*;
* eventually all candidates permanently stabilize to the minimum UID among
  participants (with its payload);
* it runs in the mobile telephone model with b = 1, adapting to α, Δ, τ
  with no advance knowledge of them.

Our implementation combines two in-model mechanisms (DESIGN.md §4):

* **news push** — a node whose candidate improved within the last
  ``news_window`` election steps advertises 1 and proposes to a uniformly
  chosen 0-advertising neighbor, spreading fresh minima along the
  expansion of the graph (the same tag discipline PPUSH uses);
* **blind mixing** — a node without news flips a fair coin and, as sender,
  proposes to a uniformly random neighbor.  This is exactly the BlindGossip
  strategy of [22] applied to candidate UIDs, and it alone guarantees
  convergence in O((1/α)·Δ²·log²N) rounds w.h.p.; the news bit is the fast
  path that brings well-connected graphs close to the cited
  O((1/α)·Δ^{1/τ}·polylog N) behavior (measured in the benchmarks).

Every connection merges candidates to the minimum, so the global minimum
candidate is monotone non-increasing at every node: once all nodes hold
the true minimum, agreement is permanent — the stabilization property
SimSharedBit needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bits import ceil_log2
from repro.errors import ConfigurationError
from repro.sim.channel import Channel
from repro.sim.context import NeighborView
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.protocol import NodeProtocol
from repro.sim.termination import all_agree_on_leader

__all__ = [
    "LeaderConfig",
    "BitConvergence",
    "LeaderElectionNode",
    "run_leader_election",
]


@dataclass(frozen=True)
class LeaderConfig:
    """Tunables for BitConvergence.

    ``news_window`` — election steps a candidate improvement counts as
    news (the freshness window W).
    ``payload_bits`` — wire budget for the payload (must cover the actual
    payload values used; SimSharedBit puts seed indices here).
    ``blind_send_probability`` — the mixing coin for news-less nodes.
    """

    news_window: int = 8
    payload_bits: int = 64
    blind_send_probability: float = 0.5

    def __post_init__(self):
        if self.news_window < 1:
            raise ConfigurationError(
                f"news_window must be >= 1, got {self.news_window}"
            )
        if self.payload_bits < 1:
            raise ConfigurationError(
                f"payload_bits must be >= 1, got {self.payload_bits}"
            )
        if not 0 < self.blind_send_probability <= 1:
            raise ConfigurationError(
                "blind_send_probability must be in (0, 1], got "
                f"{self.blind_send_probability}"
            )

    @classmethod
    def paper(cls) -> "LeaderConfig":
        return cls(news_window=16)

    @classmethod
    def practical(cls) -> "LeaderConfig":
        return cls(news_window=6)


class BitConvergence:
    """The leader-election state machine, embeddable in other protocols.

    SimSharedBit drives one of these on even rounds; the standalone
    :class:`LeaderElectionNode` drives one every round.  Each call to
    :meth:`advertise` is one *election step*.
    """

    def __init__(self, uid: int, payload: int, upper_n: int,
                 rng: random.Random, config: LeaderConfig | None = None):
        if payload < 0:
            raise ConfigurationError(f"payload must be >= 0, got {payload}")
        self.uid = uid
        self.upper_n = upper_n
        self.rng = rng
        self.config = config or LeaderConfig()
        if payload.bit_length() > self.config.payload_bits:
            raise ConfigurationError(
                f"payload {payload} exceeds payload_bits="
                f"{self.config.payload_bits}"
            )
        self.candidate_uid = uid
        self.candidate_payload = payload
        self._step = 0
        self._last_improved_step = 0
        self._bit_this_step = 1

    @property
    def has_news(self) -> bool:
        return self._step - self._last_improved_step < self.config.news_window

    def advertise(self) -> int:
        """Advance one election step and return the freshness bit."""
        self._step += 1
        self._bit_this_step = 1 if self.has_news else 0
        return self._bit_this_step

    def propose(self, neighbors: tuple[NeighborView, ...]) -> int | None:
        if not neighbors:
            return None
        if self._bit_this_step == 1:
            quiet = [view.uid for view in neighbors if view.tag == 0]
            if quiet:
                return self.rng.choice(sorted(quiet))
            return None
        if self.rng.random() < self.config.blind_send_probability:
            return self.rng.choice(neighbors).uid
        return None

    def interact(self, peer: "BitConvergence", channel: Channel) -> None:
        """Exchange candidates and merge both sides to the minimum."""
        uid_bits = ceil_log2(self.upper_n + 1)
        channel.charge_bits(
            2 * (uid_bits + self.config.payload_bits), label="leader"
        )
        if peer.candidate_uid < self.candidate_uid:
            self._adopt(peer.candidate_uid, peer.candidate_payload)
        elif self.candidate_uid < peer.candidate_uid:
            peer._adopt(self.candidate_uid, self.candidate_payload)

    def _adopt(self, candidate_uid: int, payload: int) -> None:
        self.candidate_uid = candidate_uid
        self.candidate_payload = payload
        self._last_improved_step = self._step


class LeaderElectionNode(NodeProtocol):
    """Standalone leader election (b = 1), one election step per round."""

    def __init__(self, uid: int, upper_n: int, rng: random.Random,
                 payload: int = 0, config: LeaderConfig | None = None):
        super().__init__(uid)
        self.election = BitConvergence(
            uid=uid, payload=payload, upper_n=upper_n, rng=rng, config=config
        )

    @property
    def candidate_leader(self) -> int:
        return self.election.candidate_uid

    @property
    def candidate_payload(self) -> int:
        return self.election.candidate_payload

    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        return self.election.advertise()

    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        return self.election.propose(neighbors)

    def interact(self, responder: "LeaderElectionNode", channel: Channel,
                 round_index: int) -> None:
        self.election.interact(responder.election, channel)


def run_leader_election(
    dynamic_graph,
    uids,
    seed: int,
    max_rounds: int,
    payloads=None,
    config: LeaderConfig | None = None,
    channel_policy=None,
) -> SimulationResult:
    """Convenience harness: elect a leader over a dynamic graph.

    ``uids[vertex]`` gives each node's UID; ``payloads[vertex]`` (optional)
    its payload.  Terminates when all candidates agree.
    """
    from repro.rng import SeedTree
    from repro.sim.channel import ChannelPolicy

    tree = SeedTree(seed)
    upper_n = max(uids)
    nodes = {
        vertex: LeaderElectionNode(
            uid=uids[vertex],
            upper_n=upper_n,
            rng=tree.stream("leader-node", uids[vertex]),
            payload=0 if payloads is None else payloads[vertex],
            config=config,
        )
        for vertex in range(dynamic_graph.n)
    }
    sim = Simulation(
        dynamic_graph=dynamic_graph,
        protocols=nodes,
        b=1,
        seed=seed,
        channel_policy=channel_policy or ChannelPolicy.for_upper_n(upper_n),
    )
    return sim.run(max_rounds=max_rounds, termination=all_agree_on_leader())
