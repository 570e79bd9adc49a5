"""Settled stage 3 against a forced metered stage 3.

``Simulation._stage3`` books a pair without a channel when it joins two
equal rows of the token columns every node names (``settle_columns``):
a Python compare per pair (``TokenColumns.same``) in a round of at most
the engine's split, one numpy compare (``TokenColumns.equal``) above.
Forcing ``settle_columns`` back to the ``NodeProtocol`` default turns
that route off, so every pair runs ``interact`` over a metered channel:
the reference.  Both compares must agree with it on every round's
counts, every machine's ``EqTestStats``, every node's stream position
and holdings — and on where a strict budget raises.  The ``pair`` path
sets the split above any round of n = 24, the ``rows`` path below zero.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import AsyncSimulation, UniformJitter
from repro.core.blindmatch import BlindMatchNode
from repro.core.crowdedbin import CrowdedBinConfig, CrowdedBinNode
from repro.core.ppush import PPushNode
from repro.core.problem import GossipNode, TokenColumns, uniform_instance
from repro.core.runner import build_nodes
from repro.core.simsharedbit import SimSharedBitNode
from repro.core.tokens import Token
from repro.errors import ChannelBudgetError, ConfigurationError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.sim import engine as round_engine
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation, settled_connections
from repro.sim.protocol import NodeProtocol

N, K, SEED = 24, 3, 5
ENGINES = ("round", "async")
#: Stage 3's match-count split per path: every round takes the Python
#: compare, or every round takes the numpy compare.
PATHS = {"pair": N, "rows": -1}


@pytest.fixture(params=list(PATHS))
def path(request, monkeypatch):
    monkeypatch.setattr(round_engine, "_PER_PAIR_SETTLE_MAX_MATCHES",
                        PATHS[request.param])
    return request.param


def blindmatch_population():
    return build_nodes("blindmatch", uniform_instance(n=N, k=K, seed=SEED),
                       seed=SEED)


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


POPULATIONS = {"blindmatch": blindmatch_population, "mixed": mixed_population}


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
    """The same run twice: every pair metered, then settled by row."""
    with monkeypatch.context() as patch:
        patch.setattr(GossipNode, "settle_columns",
                      NodeProtocol.settle_columns)
        nodes = build()
        forced = observe(simulate(nodes, engine, policy, **kw), nodes,
                         rounds)
    nodes = build()
    settled = observe(simulate(nodes, engine, policy, **kw), nodes, rounds)
    return forced, settled


def count_settled(build, engine, policy, rounds, monkeypatch):
    """Run once more with telemetry: the engine's settled-connection
    counter, and how often each compare ran."""
    calls = {"same": 0, "equal": 0}
    for name in calls:
        original = getattr(TokenColumns, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TokenColumns, name, spy)
    nodes = build()
    sim = simulate(nodes, engine, policy, telemetry=True)
    observe(sim, nodes, rounds)
    return settled_connections(sim.telemetry.metrics), calls


def equal_outcome_bits():
    node = blindmatch_population()[0]
    return node._transfer.equal_outcome.control_bits


@pytest.mark.parametrize("population", list(POPULATIONS))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_settled_stage3_equals_metered_stage3(population, engine, strict,
                                              path, monkeypatch):
    build = POPULATIONS[population]
    policy = ChannelPolicy(max_control_bits=1 << 20, strict=strict)
    forced, settled = forced_and_settled(build, engine, policy, 60,
                                         monkeypatch)
    assert forced[0] is None
    assert settled == forced
    count, calls = count_settled(build, engine, policy, 60, monkeypatch)
    if population == "mixed":
        # Nodes that name no columns, or other ones, turn the route off.
        assert (count, calls) == (0, {"same": 0, "equal": 0})
        return
    assert count > 0
    # The path under test picks the compare, every round.
    assert bool(calls["same"]) == (path == "pair")
    assert bool(calls["equal"]) == (path == "rows")


@pytest.mark.parametrize("engine", ENGINES)
def test_a_lenient_budget_below_the_equal_outcome_settles_nothing(
        engine, path, monkeypatch):
    # Over budget, the metered pair records a violation and carries on:
    # the route is off, and the counts are the metered ones.
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1,
                           strict=False)
    forced, settled = forced_and_settled(
        blindmatch_population, engine, policy, 60, monkeypatch)
    assert forced[0] is None
    assert settled == forced
    assert count_settled(blindmatch_population, engine, policy, 60,
                         monkeypatch)[0] == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_strict_budget_below_the_equal_outcome_raises_at_the_same_pair(
        engine, path, monkeypatch):
    policy = ChannelPolicy(max_control_bits=equal_outcome_bits() - 1)
    forced, settled = forced_and_settled(
        blindmatch_population, engine, policy, 60, monkeypatch)
    assert forced[0] is not None
    assert settled == forced


@pytest.mark.parametrize("engine", ENGINES)
def test_a_pair_that_raises_mid_round_books_the_same_equal_pairs(
        engine, path, monkeypatch):
    # From round 3 on, every exchange between unequal sets raises.  The
    # equal pairs ahead of it in its round are booked, none after it.
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


def test_only_a_shared_machine_and_columns_name_a_route():
    instance = uniform_instance(n=4, k=1, seed=SEED)
    private = BlindMatchNode(uid=instance.uids[0], upper_n=instance.upper_n,
                             initial_tokens=(), rng=random.Random(1))
    assert private.settle_columns() is None
    shared = list(build_nodes("blindmatch", instance, seed=SEED).values())
    columns, machine = shared[0].settle_columns()
    assert machine is shared[0]._transfer
    assert all(node.settle_columns() == (columns, machine)
               for node in shared)
    sharedbit = build_nodes("sharedbit", instance, seed=SEED)
    assert sharedbit[0].settle_columns() is None


@pytest.mark.parametrize("initial_tokens", [(Token(9),), ()])
def test_a_uid_without_a_row_is_refused(initial_tokens):
    # Columns for UIDs {10, 20, 30}: a bisect alone puts UID 15 on UID
    # 20's row, so an empty UID-20 node and a {9} UID-30 node would
    # compare equal.  A node that starts empty writes no row, and is
    # refused all the same: at construction, not at its first store.
    columns = TokenColumns([9], [10, 20, 30])
    with pytest.raises(ConfigurationError, match="UID 15"):
        BlindMatchNode(uid=15, upper_n=40, initial_tokens=initial_tokens,
                       rng=random.Random(1), token_columns=columns)
    for uid in (5, 15, 31):
        with pytest.raises(ConfigurationError):
            columns.add(uid, 9)
        with pytest.raises(ConfigurationError):
            columns.clear(uid)
        with pytest.raises(ConfigurationError):
            columns.same(uid, 10)
    columns.add(30, 9)
    assert columns.bits[1, 0] == 0
    assert columns.same(10, 20)
    assert not columns.same(20, 30)


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
        expected = [
            kept[a] and kept[b]
            and nodes[a].known_tokens == nodes[b].known_tokens
            for a, b in pairs
        ]
        assert equal.tolist() == expected
        assert [columns.same(nodes[a].uid, nodes[b].uid)
                for a, b in pairs] == expected
    assert any(not row for row in kept)  # the foreign label was held


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 64 * TokenColumns.MAX_WORDS), data=st.data())
def test_same_is_equal_on_one_pair(k, data):
    # Labels 1..k are the columns, k + 1 and k + 2 are loose, and 0
    # clears; a few labels recur so that sets meet again.
    uids = [3, 8, 13, 21]
    columns = TokenColumns(range(1, k + 1), uids)
    held = {uid: set() for uid in uids}
    labels = st.one_of(st.sampled_from([0, 1, 64, 65, k, k + 1]),
                       st.integers(0, k + 2)).filter(lambda x: x <= k + 2)
    steps = data.draw(st.lists(st.tuples(st.sampled_from(uids), labels),
                               max_size=40))
    for uid, label in steps:
        if label == 0:
            columns.clear(uid)
            held[uid].clear()
        else:
            columns.add(uid, label)
            held[uid].add(label)
    for a in uids:
        for b in uids:
            row_a, row_b = uids.index(a), uids.index(b)
            equal = columns.equal(np.array([row_a]), np.array([row_b]))
            expected = (held[a] == held[b]
                        and max(held[a] | held[b], default=0) <= k)
            assert columns.same(a, b) == bool(equal[0]) == expected


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
    assert build()[0].settle_columns() is None
