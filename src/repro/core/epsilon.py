"""ε-gossip: every node must learn an ε-fraction of the n tokens (§7).

The setting: k = n (every node starts with its own token, labeled by its
UID) and the requirement relaxes to — there exists a set S of ≥ εn nodes
such that every pair in S mutually knows each other's tokens.

No new algorithm is needed: §7 re-analyzes SharedBit and shows it solves
ε-gossip in O(n·√(Δ·logΔ) / ((1−ε)·α)) rounds — polynomially faster than
the O(n²) it needs for full gossip when α is large and ε constant.  The
code says the same: ``"epsilon"`` registers SharedBit's own node builder
with a different *goal* — the analysis-aligned termination check (Lemma
7.3 case 1, plus the mutual-knowledge core) on a k = n instance — so it
runs wherever SharedBit runs: under faults, timing models, telemetry and
either engine mode.  :func:`run_epsilon_gossip` is the one-call form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.potential import epsilon_gossip_solved, mutual_knowledge_core
from repro.core.problem import GossipInstance, everyone_starts_instance
from repro.core.runner import run_gossip
from repro.core.sharedbit import SharedBitConfig, build_sharedbit_nodes
from repro.errors import ConfigurationError
from repro.registry import register_algorithm
from repro.sim.trace import Trace

__all__ = ["EpsilonGossipConfig", "EpsilonView", "EpsilonGossipResult",
           "run_epsilon_gossip", "epsilon_termination"]


@dataclass(frozen=True)
class EpsilonGossipConfig(SharedBitConfig):
    """SharedBit's tunables plus ``epsilon``, the fraction of nodes that
    must end up mutually knowing each other's tokens."""

    epsilon: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.epsilon < 1:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )


@dataclass(frozen=True)
class EpsilonView:
    """A node as the ε-gossip checkers see it: its tokens and its own token."""

    known_tokens: frozenset
    own_token_id: int


def _views(nodes) -> list[EpsilonView]:
    return [
        EpsilonView(known_tokens=node.known_tokens, own_token_id=node.uid)
        for node in (nodes.values() if hasattr(nodes, "values") else nodes)
    ]


def epsilon_termination(epsilon: float):
    """Termination condition: ε-gossip certifiably solved (Lemma 7.3).

    Its ``report`` attribute is what a run record says about the final
    state beyond ``solved``: the size of the mutual-knowledge core.
    """

    def check(nodes, round_index: int) -> bool:
        return epsilon_gossip_solved(_views(nodes), epsilon)

    check.report = lambda nodes: {
        "core_size": len(mutual_knowledge_core(_views(nodes)))
    }
    return check


def _epsilon_goal(instance: GossipInstance, config: EpsilonGossipConfig):
    """ε-gossip is stated for k = n with every token labeled by its
    holder's UID (the checkers read a node's own token off its UID)."""
    for vertex in range(instance.n):
        tokens = instance.tokens_for(vertex)
        if len(tokens) != 1 or tokens[0].token_id != instance.uid_of(vertex):
            raise ConfigurationError(
                "epsilon-gossip needs k = n with every node starting on "
                "its own token: use instance kind 'everyone'"
            )
    return epsilon_termination(config.epsilon)


register_algorithm(
    name="epsilon",
    description="eps-gossip harness: SharedBit until an eps-fraction core "
                "mutually knows (Thm 7.4)",
    config_class=EpsilonGossipConfig,
    tag_length=1,
    goal=_epsilon_goal,
)(build_sharedbit_nodes)


@dataclass
class EpsilonGossipResult:
    """Outcome of an ε-gossip run."""

    epsilon: float
    rounds: int
    solved: bool
    core_size: int
    residual_potential: int
    trace: Trace
    instance: GossipInstance


def run_epsilon_gossip(
    dynamic_graph,
    epsilon: float,
    seed: int,
    max_rounds: int,
    config: SharedBitConfig | None = None,
    upper_n: int | None = None,
    termination_every: int = 4,
    trace_sample_every: int = 1,
) -> EpsilonGossipResult:
    """Run SharedBit on a k = n instance until ε-gossip is solved.

    The ε check is evaluated every ``termination_every`` rounds (it costs
    O(n²) in the worst case, so checking every round would distort wall
    times without changing measured round counts by more than that stride).
    """
    result = run_gossip(
        "epsilon",
        dynamic_graph,
        everyone_starts_instance(n=dynamic_graph.n, seed=seed,
                                 upper_n=upper_n),
        seed=seed,
        max_rounds=max_rounds,
        config=EpsilonGossipConfig(**{
            **dataclasses.asdict(config or SharedBitConfig()),
            "epsilon": epsilon,
        }),
        termination_every=termination_every,
        trace_sample_every=trace_sample_every,
    )
    return EpsilonGossipResult(
        epsilon=epsilon,
        rounds=result.rounds,
        solved=result.solved,
        core_size=result.goal_report["core_size"],
        residual_potential=result.residual_potential,
        trace=result.trace,
        instance=result.instance,
    )
