"""Settled stage 3 against a forced per-pair metered stage 3.

``Simulation._stage3`` books a pair without a channel when the
initiator's ``settle`` vouches that its exchange moves nothing.  Forcing
every pair through ``interact`` over a metered channel (``settle`` back
to the ``NodeProtocol`` default) is the reference: both must agree on
every round's counts, every machine's ``EqTestStats``, every node's
stream position and holdings — and on where a strict budget raises.
"""

import random

import pytest

from repro.asynchrony import AsyncSimulation, UniformJitter
from repro.core.blindmatch import BlindMatchNode
from repro.core.crowdedbin import CrowdedBinConfig, CrowdedBinNode
from repro.core.ppush import PPushNode
from repro.core.problem import GossipNode, uniform_instance
from repro.core.runner import build_nodes
from repro.core.simsharedbit import SimSharedBitNode
from repro.errors import ChannelBudgetError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.protocol import NodeProtocol

N, K, SEED = 24, 3, 5
ENGINES = ("round", "async")


def mixed_population():
    """Vertex v % 4: 0 BlindMatch and 1 SharedBit, each sharing its
    population's machine; 2 a hand-built BlindMatch with a private
    machine; 3 a PPUSH node (not a GossipNode)."""
    instance = uniform_instance(n=N, k=K, seed=SEED)
    blind = build_nodes("blindmatch", instance, seed=SEED)
    shared = build_nodes("sharedbit", instance, seed=SEED)
    nodes = {}
    for vertex in range(N):
        uid = instance.uids[vertex]
        tokens = instance.initial_tokens.get(vertex, ())
        kind = vertex % 4
        if kind == 0:
            nodes[vertex] = blind[vertex]
        elif kind == 1:
            nodes[vertex] = shared[vertex]
        elif kind == 2:
            nodes[vertex] = BlindMatchNode(
                uid=uid, upper_n=instance.upper_n, initial_tokens=tokens,
                rng=random.Random(100 + vertex))
        else:
            nodes[vertex] = PPushNode(
                uid=uid, upper_n=instance.upper_n,
                rng=random.Random(200 + vertex),
                rumor=tokens[0] if tokens else None)
    return nodes


def simulate(nodes, engine, policy, b=1, n=N):
    graph = StaticDynamicGraph(expander(n=n, degree=4, seed=1))
    if engine == "round":
        return Simulation(graph, nodes, b=b, seed=SEED,
                          channel_policy=policy)
    return AsyncSimulation(graph, nodes, b=b, seed=SEED,
                           channel_policy=policy,
                           timing=UniformJitter(n=n, seed=SEED, jitter=0.5))


def observe(sim, nodes, rounds):
    """Run ``rounds`` and return everything stage 3 may touch."""
    error = None
    try:
        sim.run(max_rounds=rounds)
    except ChannelBudgetError as exc:
        error = str(exc)
    records = [(r.round_index, r.connections, r.tokens_moved,
                r.control_bits) for r in sim.trace.records]
    machines = {}
    for node in nodes.values():
        transfer = getattr(node, "_transfer", None)
        if transfer is not None:
            machines.setdefault(id(transfer), transfer)
    stats = [(s.calls, s.trials, s.bits)
             for s in (m.tester.stats for m in machines.values())]
    streams = [node.rng.getstate() for node in nodes.values()]
    holdings = [node.known_tokens for node in nodes.values()]
    return error, sim.current_round, records, stats, streams, holdings


def forced_and_settled(build, engine, policy, rounds, monkeypatch, **kw):
    """The same run twice: every pair metered, then settled."""
    with monkeypatch.context() as patch:
        patch.setattr(GossipNode, "settle", NodeProtocol.settle)
        nodes = build()
        forced = observe(simulate(nodes, engine, policy, **kw), nodes,
                         rounds)
    nodes = build()
    settled = observe(simulate(nodes, engine, policy, **kw), nodes, rounds)
    return forced, settled


def count_settled(monkeypatch):
    """Spy on ``GossipNode.settle``: the UIDs of the initiators it
    settled."""
    settled = []
    original = GossipNode.settle

    def spy(self, responder, policy):
        bits = original(self, responder, policy)
        if bits is not None:
            settled.append(self.uid)
        return bits

    monkeypatch.setattr(GossipNode, "settle", spy)
    return settled


def equal_outcome_bits():
    node = mixed_population()[0]
    return node._transfer.equal_outcome.control_bits


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_settled_stage3_equals_metered_stage3(engine, strict, monkeypatch):
    policy = ChannelPolicy(max_control_bits=1 << 20, strict=strict)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is None
    assert settled == forced
    # The run settles pairs — and never one on a private machine.
    spied = count_settled(monkeypatch)
    nodes = mixed_population()
    observe(simulate(nodes, engine, policy), nodes, 60)
    vertex_of = {node.uid: vertex for vertex, node in nodes.items()}
    assert spied
    assert {vertex_of[uid] % 4 for uid in spied} <= {0, 1}


@pytest.mark.parametrize("engine", ENGINES)
def test_a_lenient_budget_below_the_equal_outcome_settles_nothing(
        engine, monkeypatch):
    # Over budget, the metered pair records a violation and carries on:
    # settle declines, and the counts are the metered ones.
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1,
                           strict=False)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is None
    assert settled == forced
    spied = count_settled(monkeypatch)
    nodes = mixed_population()
    observe(simulate(nodes, engine, policy), nodes, 60)
    assert not spied


@pytest.mark.parametrize("engine", ENGINES)
def test_a_strict_budget_below_the_equal_outcome_raises_at_the_same_pair(
        engine, monkeypatch):
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is not None
    assert settled == forced


def test_private_machines_are_never_settled():
    instance = uniform_instance(n=4, k=1, seed=SEED)
    nodes = [BlindMatchNode(uid=uid, upper_n=instance.upper_n,
                            initial_tokens=(), rng=random.Random(uid))
             for uid in instance.uids]
    policy = ChannelPolicy()
    assert nodes[0].known_tokens == nodes[1].known_tokens
    assert nodes[0].settle(nodes[1], policy) is None
    shared = build_nodes("blindmatch", instance, seed=SEED)
    empty = [node for node in shared.values() if not node.known_tokens]
    assert empty[0].settle(empty[1], policy) == (
        empty[0]._transfer.equal_outcome.control_bits)
    assert empty[0].settle(nodes[1], policy) is None


def simsharedbit_population():
    return build_nodes("simsharedbit", uniform_instance(n=N, k=K, seed=SEED),
                       seed=SEED)


def crowdedbin_population():
    return build_nodes("crowdedbin", uniform_instance(n=12, k=2, seed=SEED),
                       seed=SEED, config=CrowdedBinConfig.practical())


def ppush_population():
    return build_nodes("ppush", uniform_instance(n=N, k=1, seed=SEED),
                       seed=SEED)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("node_class, build, n, rounds", [
    (SimSharedBitNode, simsharedbit_population, N, 60),
    (CrowdedBinNode, crowdedbin_population, 12, 1500),
    (PPushNode, ppush_population, N, 60),
], ids=["simsharedbit", "crowdedbin", "ppush"])
def test_every_pair_of_a_class_with_its_own_interact_reaches_it(
        engine, node_class, build, n, rounds, monkeypatch):
    original = node_class.interact
    calls = []

    def spy(self, responder, channel, round_index):
        calls.append((round_index, self.uid, responder.uid))
        return original(self, responder, channel, round_index)

    monkeypatch.setattr(node_class, "interact", spy)
    policy = ChannelPolicy()
    forced, settled = forced_and_settled(
        build, engine, policy, rounds, monkeypatch, n=n)
    metered_calls = calls[:len(calls) // 2]
    assert metered_calls
    assert calls == metered_calls * 2
    assert settled == forced
    connections = sum(record[1] for record in forced[2])
    assert len(metered_calls) == connections
    nodes = build()
    first, second = nodes[0], nodes[1]
    assert first.settle(second, policy) is None
