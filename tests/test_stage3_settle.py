"""Settled stage 3 against a forced per-pair metered stage 3.

``Simulation._stage3`` books a pair without a channel when the
initiator's ``settle`` vouches that its exchange moves nothing — pair by
pair, or, above the engine's match-count split, every equal-row pair of
a round at once (``settle_columns``).  Forcing every pair through
``interact`` over a metered channel (``settle`` and ``settle_columns``
back to the ``NodeProtocol`` defaults) is the reference: both paths must
agree with it on every round's counts, every machine's ``EqTestStats``,
every node's stream position and holdings — and on where a strict
budget raises.  At n = 24 no round reaches the split, so the ``rows``
path forces it below zero.
"""

import random

import numpy as np
import pytest

from repro.asynchrony import AsyncSimulation, UniformJitter
from repro.core.blindmatch import BlindMatchNode
from repro.core.crowdedbin import CrowdedBinConfig, CrowdedBinNode
from repro.core.ppush import PPushNode
from repro.core.problem import GossipNode, TokenColumns, uniform_instance
from repro.core.runner import build_nodes
from repro.core.simsharedbit import SimSharedBitNode
from repro.core.tokens import Token
from repro.errors import ChannelBudgetError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.sim import engine as round_engine
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation, settled_connections
from repro.sim.protocol import NodeProtocol

N, K, SEED = 24, 3, 5
ENGINES = ("round", "async")
#: Stage 3's match-count split per path: every round walks pair by pair,
#: or every round takes the array pass.
PATHS = {"pair": N, "rows": -1}


@pytest.fixture(params=list(PATHS))
def path(request, monkeypatch):
    monkeypatch.setattr(round_engine, "_PER_PAIR_SETTLE_MAX_MATCHES",
                        PATHS[request.param])
    return request.param


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


def simulate(nodes, engine, policy, b=1, n=N, telemetry=None):
    graph = StaticDynamicGraph(expander(n=n, degree=4, seed=1))
    if engine == "round":
        return Simulation(graph, nodes, b=b, seed=SEED,
                          channel_policy=policy, telemetry=telemetry)
    return AsyncSimulation(graph, nodes, b=b, seed=SEED,
                           channel_policy=policy, telemetry=telemetry,
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
        patch.setattr(GossipNode, "settle_columns",
                      NodeProtocol.settle_columns)
        nodes = build()
        forced = observe(simulate(nodes, engine, policy, **kw), nodes,
                         rounds)
    nodes = build()
    settled = observe(simulate(nodes, engine, policy, **kw), nodes, rounds)
    return forced, settled


def count_settled(build, engine, policy, rounds, monkeypatch):
    """Run once more, spying on ``GossipNode.settle``: the vertices of
    the initiators it settled, and the engine's settled-connection
    counters by path."""
    settled = []
    original = GossipNode.settle

    def spy(self, responder, policy):
        bits = original(self, responder, policy)
        if bits is not None:
            settled.append(self.uid)
        return bits

    monkeypatch.setattr(GossipNode, "settle", spy)
    nodes = build()
    sim = simulate(nodes, engine, policy, telemetry=True)
    observe(sim, nodes, rounds)
    vertex_of = {node.uid: vertex for vertex, node in nodes.items()}
    return ([vertex_of[uid] for uid in settled],
            settled_connections(sim.telemetry.metrics))


def equal_outcome_bits():
    node = mixed_population()[0]
    return node._transfer.equal_outcome.control_bits


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_settled_stage3_equals_metered_stage3(engine, strict, path,
                                              monkeypatch):
    policy = ChannelPolicy(max_control_bits=1 << 20, strict=strict)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is None
    assert settled == forced
    # The run settles pairs on the path under test — the rows path
    # leaves the other population's pairs to settle — and never one
    # on a private machine.
    spied, counters = count_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert counters.get(path)
    assert {vertex % 4 for vertex in spied} <= (
        {0, 1} if path == "pair" else {1})
    assert counters.get("pair", 0) == len(spied)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_lenient_budget_below_the_equal_outcome_settles_nothing(
        engine, path, monkeypatch):
    # Over budget, the metered pair records a violation and carries on:
    # settle declines, and the counts are the metered ones.
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1,
                           strict=False)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is None
    assert settled == forced
    assert count_settled(
        mixed_population, engine, policy, 60, monkeypatch) == ([], {})


@pytest.mark.parametrize("engine", ENGINES)
def test_a_strict_budget_below_the_equal_outcome_raises_at_the_same_pair(
        engine, path, monkeypatch):
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1)
    forced, settled = forced_and_settled(
        mixed_population, engine, policy, 60, monkeypatch)
    assert forced[0] is not None
    assert settled == forced


def blindmatch_population():
    return build_nodes("blindmatch", uniform_instance(n=N, k=K, seed=SEED),
                       seed=SEED)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_pair_that_raises_mid_round_books_the_same_equal_pairs(
        engine, path, monkeypatch):
    # From round 3 on, every exchange between unequal sets raises.  The
    # equal pairs after it in its round must not be booked: the rows
    # path, which settled them before the walk, gives their calls back.
    original = GossipNode.run_transfer

    def run_transfer(self, peer, protocol, channel):
        if (channel.round_index >= 3
                and self.known_tokens != peer.known_tokens):
            raise ChannelBudgetError(f"refused uid={self.uid}")
        return original(self, peer, protocol, channel)

    monkeypatch.setattr(GossipNode, "run_transfer", run_transfer)
    policy = ChannelPolicy(max_control_bits=1 << 20)
    forced, settled = forced_and_settled(
        blindmatch_population, engine, policy, 60, monkeypatch)
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
    # Only the shared machine's population names a row.
    assert nodes[0].settle_columns() is None
    columns, machine = empty[0].settle_columns()
    assert machine is empty[0]._transfer
    assert empty[1].settle_columns() == (columns, machine)


def test_token_rows_track_every_store_and_reset():
    # Two rows compare equal exactly when both nodes hold one set of
    # instance labels; a label outside the columns never compares equal.
    instance = uniform_instance(n=N, k=K, seed=SEED)
    nodes = list(build_nodes("blindmatch", instance, seed=SEED).values())
    columns = nodes[0]._columns
    tokens = [token for held in instance.initial_tokens.values()
              for token in held]
    foreign = Token(min(set(range(1, N + 1)) - instance.token_ids))
    rows = np.searchsorted(columns.uids, [node.uid for node in nodes])
    rng = random.Random(SEED)
    for step in range(300):
        node = rng.choice(nodes)
        if step % 7 == 6:
            node.reset_tokens()
        else:
            node.store_token(foreign if step % 29 == 28
                             else rng.choice(tokens))
        kept = [node.known_tokens <= instance.token_ids for node in nodes]
        pairs = [(a, b) for a in range(N) for b in range(N) if a != b]
        equal = columns.equal(rows[[a for a, _ in pairs]],
                              rows[[b for _, b in pairs]])
        assert equal.tolist() == [
            kept[a] and kept[b]
            and nodes[a].known_tokens == nodes[b].known_tokens
            for a, b in pairs
        ]
    assert any(not row for row in kept)  # the foreign label was held


def test_too_many_labels_keep_no_columns():
    assert TokenColumns.for_instance(
        uniform_instance(n=600, k=64 * TokenColumns.MAX_WORDS + 1, seed=1)
    ) is None


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
        engine, node_class, build, n, rounds, path, monkeypatch):
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
    assert first.settle_columns() is None
