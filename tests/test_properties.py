"""Cross-module property-based tests (hypothesis).

These target whole-system invariants rather than single functions: the
model's matching discipline under arbitrary protocols, conservation laws
of the potential/census diagnostics, and end-to-end solvability of
SharedBit on randomly drawn small instances.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.potential import find_coalition, potential, token_set_census
from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.graphs.dynamic import RelabelingAdversary, StaticDynamicGraph
from repro.graphs.topologies import erdos_renyi
from repro.sim.channel import Channel
from repro.sim.context import NeighborView
from repro.sim.engine import Simulation
from repro.sim.protocol import NodeProtocol


class ChaosNode(NodeProtocol):
    """A protocol that behaves arbitrarily-but-legally, for fuzzing the engine."""

    def __init__(self, uid, rng):
        super().__init__(uid)
        self.rng = rng
        self.interactions_by_round: dict[int, int] = {}

    def advertise(self, round_index, neighbor_uids):
        return self.rng.randint(0, 1)

    def propose(self, round_index, neighbors):
        if not neighbors or self.rng.random() < 0.4:
            return None
        return self.rng.choice(neighbors).uid

    def interact(self, responder, channel, round_index):
        channel.charge_bits(4)
        self._mark(round_index)
        responder._mark(round_index)

    def _mark(self, round_index):
        count = self.interactions_by_round.get(round_index, 0)
        self.interactions_by_round[round_index] = count + 1


@given(
    n=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_engine_one_connection_per_node_property(n, seed):
    """No node is ever in two connections in one round, for any protocol."""
    topo = erdos_renyi(n, 0.5, seed=seed % 64)
    nodes = {
        v: ChaosNode(uid=v + 1, rng=random.Random(seed * 31 + v))
        for v in range(topo.n)
    }
    sim = Simulation(
        RelabelingAdversary(topo, tau=1, seed=seed),
        nodes,
        b=1,
        seed=seed,
    )
    sim.run(max_rounds=12)
    for node in nodes.values():
        for round_index, count in node.interactions_by_round.items():
            assert count == 1, (
                f"node {node.uid} had {count} connections in round "
                f"{round_index}"
            )


@given(
    token_sets=st.lists(
        st.sets(st.integers(min_value=1, max_value=12), max_size=12),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_census_partitions_nodes(token_sets):
    class Holder:
        def __init__(self, tokens):
            self.known_tokens = frozenset(tokens)

    nodes = [Holder(s) for s in token_sets]
    census = token_set_census(nodes)
    assert sum(census.values()) == len(nodes)
    for token_set, count in census.items():
        assert count == sum(
            1 for node in nodes if node.known_tokens == token_set
        )


@given(
    token_sets=st.lists(
        st.sets(st.integers(min_value=1, max_value=10), max_size=10),
        min_size=2,
        max_size=16,
    )
)
@settings(max_examples=100, deadline=None)
def test_potential_equals_tokenwise_deficit(token_sets):
    """φ computed per node equals the deficit summed per token."""

    class Holder:
        def __init__(self, tokens):
            self.known_tokens = frozenset(tokens)

    nodes = [Holder(s) for s in token_sets]
    token_ids = frozenset(range(1, 11))
    phi = potential(nodes, token_ids)
    per_token = sum(
        sum(1 for node in nodes if t not in node.known_tokens)
        for t in token_ids
    )
    assert phi == per_token


@given(
    token_sets=st.lists(
        st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=8),
        min_size=4,
        max_size=20,
    ),
    epsilon_pct=st.integers(min_value=50, max_value=90),
)
@settings(max_examples=100, deadline=None)
def test_coalition_size_contract(token_sets, epsilon_pct):
    """Lemma 7.3's dichotomy: solved certificate or size in [(ε/2)n, εn]."""

    class Holder:
        def __init__(self, tokens):
            self.known_tokens = frozenset(tokens)

    epsilon = epsilon_pct / 100.0
    nodes = [Holder(s) for s in token_sets]
    n = len(nodes)
    result = find_coalition(nodes, epsilon)
    if result.solved:
        assert result.size > epsilon * n
    else:
        assert result.size >= (epsilon / 2.0) * n
        assert result.size <= epsilon * n + max(
            token_set_census(nodes).values()
        )


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=8, deadline=None)
def test_sharedbit_solves_random_small_instances(seed):
    """SharedBit solves any random small instance well inside c·k·n rounds."""
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    k = rng.randint(1, n // 2)
    topo = erdos_renyi(n, 0.5, seed=seed)
    instance = uniform_instance(n=topo.n, k=k, seed=seed)
    result = run_gossip(
        "sharedbit",
        RelabelingAdversary(topo, tau=1, seed=seed),
        instance,
        seed=seed,
        max_rounds=200 * k * n,
    )
    assert result.solved
    assert result.residual_potential == 0


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1, 1),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(4, 8),
    key=st.sampled_from([
        "algorithm", "graph", "dynamic", "instance", "fault", "timing",
        "config", "engine", "telemetry", "seed", "max_rounds",
    ]),
    value=WRONG_TYPES,
)
def test_run_payload_with_one_mistyped_block(n, key, value):
    """Any one block of a valid run payload replaced by some other JSON
    value either still runs or is a ``ConfigurationError`` — no other
    traceback escapes ``execute_run``."""
    from repro.errors import ConfigurationError
    from repro.experiments import execute_run

    payload = {
        "algorithm": "sharedbit",
        "graph": {"family": "cycle", "params": {"n": n}},
        "instance": {"kind": "uniform", "k": 2},
        "seed": 3,
        "max_rounds": 30,
        key: value,
    }
    try:
        record = execute_run(payload)
    except ConfigurationError:
        return
    assert record["rounds"] <= 30
