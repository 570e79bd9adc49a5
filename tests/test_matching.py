"""Tests for proposal resolution — the model's connection rules."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.graphs.dynamic import CSRStaticGraph
from repro.sim import engine
from repro.sim.adjacency import CSRAdjacency
from repro.sim.engine import _DICT_RESOLVER_MAX_PROPOSALS as SPLIT, Simulation
from repro.net.server import proposee_winner
from repro.sim.protocol import NodeProtocol
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    TICKS_PER_ROUND,
    acceptance_lottery,
    resolve_proposals,
    resolve_proposals_arrays,
)

ALL_RULES = sorted(ACCEPTANCE_RULES) + ["unbounded"]


def _seeded_map(size: int, seed: int) -> dict:
    """``size`` proposals among ``3 * SPLIT`` UIDs (self-proposals
    included; the properties drop them)."""
    rng = random.Random(seed)
    uids = range(3 * SPLIT)
    return {p: rng.choice(uids) for p in rng.sample(uids, size)}


#: Proposal maps on both sides of the round engine's resolver split
#: (its array path resolves rounds of at most SPLIT proposals with the
#: dict form, larger ones with the array form): small maps over few UIDs
#: contend often; large ones, up to twice the split, are drawn from a
#: seed (hypothesis builds a map of hundreds of keys slowly).
PROPOSAL_MAPS = st.one_of(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        max_size=25,
    ),
    st.builds(
        _seeded_map,
        st.integers(min_value=SPLIT + 1, max_value=2 * SPLIT),
        st.integers(min_value=0, max_value=2**32),
    ),
)


def lottery(seed: int = 0):
    """A run's acceptance lottery."""
    return acceptance_lottery(seed)


def _as_arrays(proposals: dict):
    proposers = np.array(sorted(proposals), dtype=np.int64)
    targets = np.array([proposals[p] for p in sorted(proposals)],
                       dtype=np.int64)
    return proposers, targets


def _array_form(proposals, *args, **kwargs):
    return resolve_proposals_arrays(*_as_arrays(proposals), *args, **kwargs)


class TestBasicRules:
    def test_single_proposal_connects(self):
        matches = resolve_proposals({1: 2}, lottery())
        assert matches == [(1, 2)]

    def test_proposer_cannot_receive(self):
        # 1 -> 2 and 2 -> 3: node 2 proposed, so 1's proposal is lost.
        matches = resolve_proposals({1: 2, 2: 3}, lottery())
        assert matches == [(2, 3)]

    def test_one_acceptance_per_target(self):
        matches = resolve_proposals({1: 9, 2: 9, 3: 9}, lottery())
        assert len(matches) == 1
        initiator, responder = matches[0]
        assert responder == 9
        assert initiator in {1, 2, 3}

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals({1: 1}, lottery())

    def test_empty_input(self):
        assert resolve_proposals({}, lottery()) == []

    def test_contested_uniform_requires_lottery(self):
        # A missing lottery is a configuration error, and only a
        # contested target needs one.
        assert resolve_proposals({1: 2}, None) == [(1, 2)]
        with pytest.raises(ConfigurationError, match="needs a lottery"):
            resolve_proposals({1: 9, 2: 9}, None)

    def test_disjoint_pairs_all_connect(self):
        matches = resolve_proposals({1: 2, 3: 4, 5: 6}, lottery())
        assert sorted(matches) == [(1, 2), (3, 4), (5, 6)]

    def test_deterministic_given_seed(self):
        proposals = {i: 99 for i in range(1, 8)}
        a = resolve_proposals(proposals, lottery(42), 5)
        b = resolve_proposals(proposals, lottery(42), 5)
        assert a == b


class TestAcceptanceUniformity:
    @pytest.mark.parametrize("resolve", [resolve_proposals, _array_form])
    def test_acceptance_roughly_uniform(self, resolve):
        # Over instants and over targets: both key the lottery.
        counts = Counter()
        draws = lottery(0)
        for instant in range(1500):
            for target in (9, 10):
                matches = resolve({1: target, 2: target, 3: target},
                                  draws, instant)
                counts[matches[0][0]] += 1
        assert set(counts) == {1, 2, 3}
        assert min(counts.values()) > 800  # each ~1000 of 3000


class TestDeterministicRules:
    """Direct coverage for lowest_uid/highest_uid (previously only
    exercised through the engine's acceptance plumbing)."""

    def test_lowest_uid_picks_minimum_sender(self):
        matches = resolve_proposals(
            {8: 1, 3: 1, 5: 1}, lottery(), rule="lowest_uid"
        )
        assert matches == [(3, 1)]

    def test_highest_uid_picks_maximum_sender(self):
        matches = resolve_proposals(
            {8: 1, 3: 1, 5: 1}, lottery(), rule="highest_uid"
        )
        assert matches == [(8, 1)]

    def test_rules_draw_no_lottery(self):
        # Deterministic rules settle a contested target without a draw.
        for rule in ("lowest_uid", "highest_uid"):
            for resolve in (resolve_proposals, _array_form):
                matches = resolve({1: 9, 2: 9, 3: 8}, None, rule=rule)
                assert len(matches) == 2

    def test_multiple_targets_sorted_output(self):
        matches = resolve_proposals(
            {5: 2, 6: 2, 7: 4, 8: 4}, lottery(), rule="lowest_uid"
        )
        assert matches == [(5, 2), (7, 4)]


class TestUnboundedBaseline:
    def test_all_proposals_to_idle_target_connect(self):
        matches = resolve_proposals({1: 9, 2: 9, 3: 9}, rule="unbounded")
        assert matches == [(1, 9), (2, 9), (3, 9)]

    def test_output_ordered_by_target_then_sender(self):
        matches = resolve_proposals(
            {7: 2, 1: 4, 3: 2, 5: 4}, rule="unbounded"
        )
        assert matches == [(3, 2), (7, 2), (1, 4), (5, 4)]

    def test_proposer_targets_lost(self):
        # 3 proposed, so proposals aimed at 3 die; 3's own survives.
        matches = resolve_proposals({1: 3, 2: 3, 3: 9}, rule="unbounded")
        assert matches == [(3, 9)]

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals({4: 4}, rule="unbounded")

    def test_empty(self):
        assert resolve_proposals({}, rule="unbounded") == []


class TestArrayResolver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_proposals_arrays([1], [2], lottery(), rule="fifo")

    def test_uniform_requires_lottery(self):
        # Only a contested target draws, so only it needs the lottery.
        assert resolve_proposals_arrays([1], [2], None) == [(1, 2)]
        with pytest.raises(ConfigurationError, match="needs a lottery"):
            resolve_proposals_arrays([1, 2], [9, 9], None, rule="uniform")

    def test_non_integer_uids_rejected(self):
        # A float->int cast would resolve proposals nobody made.
        with pytest.raises(ConfigurationError, match="integer UIDs"):
            resolve_proposals_arrays([1.9], [2.2], lottery())
        with pytest.raises(ConfigurationError, match="integer UIDs"):
            resolve_proposals_arrays([1, 2], [9.0, 9.0], lottery())
        assert resolve_proposals_arrays([], [], lottery()) == []

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals_arrays([3], [3], lottery())

    def test_duplicate_proposers_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals_arrays([3, 3], [1, 2], lottery())

    def test_returns_python_ints(self):
        matches = resolve_proposals_arrays([1], [2], lottery())
        assert matches == [(1, 2)]
        assert all(
            type(x) is int for pair in matches for x in pair
        )

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_agrees_with_dict_resolver_on_fixed_cases(self, rule):
        cases = [
            {},
            {1: 2},
            {1: 9, 2: 9, 3: 9},
            {1: 2, 2: 3},
            {5: 2, 6: 2, 7: 4, 8: 4, 2: 6},
        ]
        for proposals in cases:
            expected = resolve_proposals(proposals, lottery(17), 3,
                                         rule=rule)
            got = _array_form(proposals, lottery(17), 3, rule=rule)
            assert got == expected, (rule, proposals)


INSTANTS = st.integers(min_value=0, max_value=2**40)


@given(
    PROPOSAL_MAPS,
    st.integers(min_value=0, max_value=1000),
    INSTANTS,
    st.sampled_from(ALL_RULES),
)
@settings(max_examples=200, deadline=None)
def test_array_resolver_agrees_with_dict_resolver(proposals, seed, instant,
                                                  rule):
    """Property: on any proposal map, on both sides of the engine's
    resolver split, the array resolver's batch lottery draw returns the
    dict resolver's matches exactly — pair values and list order (the
    byte-identical matching guarantee the engine's fast path is built
    on)."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    draws = lottery(seed)
    expected = resolve_proposals(proposals, draws, instant, rule=rule)
    assert _array_form(proposals, draws, instant, rule=rule) == expected


@given(PROPOSAL_MAPS, INSTANTS, st.sampled_from(ALL_RULES), st.randoms())
@settings(max_examples=100, deadline=None)
def test_matching_ignores_proposal_order(proposals, instant, rule, rng):
    """Property: draws are keyed, not consumed, so the order proposals
    arrive in cannot move the matching on either resolver."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    items = list(proposals.items())
    rng.shuffle(items)
    expected = resolve_proposals(proposals, lottery(), instant, rule=rule)
    assert resolve_proposals(dict(items), lottery(), instant,
                             rule=rule) == expected
    proposers = np.array([p for p, _ in items], dtype=np.int64)
    targets = np.array([t for _, t in items], dtype=np.int64)
    assert resolve_proposals_arrays(proposers, targets, lottery(), instant,
                                    rule=rule) == expected


@given(
    PROPOSAL_MAPS,
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(sorted(ACCEPTANCE_RULES)),
)
@settings(max_examples=100, deadline=None)
def test_live_proposee_picks_the_resolvers_winner(proposals, seed, rnd,
                                                  rule):
    """Property: a live server settling its own inbox (the helper
    ``PeerServer`` resolves with, no sockets) accepts the proposer the
    engine's resolver matched it with, for every target."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    matches = resolve_proposals(proposals, lottery(seed),
                                rnd * TICKS_PER_ROUND, rule=rule)
    inboxes: dict[int, list[int]] = {}
    for proposer, target in proposals.items():
        if target not in proposals:
            inboxes.setdefault(target, []).append(proposer)
    assert matches == [
        (proposee_winner(rule, lottery(seed), target, rnd,
                         sorted(inboxes[target])), target)
        for target in sorted(inboxes)
    ]


@given(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        min_size=0,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_matching_invariants(proposals, seed):
    proposals = {p: t for p, t in proposals.items() if p != t}
    matches = resolve_proposals(proposals, lottery(seed))

    participants = [node for pair in matches for node in pair]
    # Invariant: one connection per node.
    assert len(participants) == len(set(participants))
    for initiator, responder in matches:
        # Initiators proposed to exactly that responder.
        assert proposals[initiator] == responder
        # Responders never proposed.
        assert responder not in proposals
    # Every proposal to a non-proposing target with no competition connects.
    incoming = Counter(t for p, t in proposals.items() if t not in proposals)
    for target, count in incoming.items():
        if count >= 1:
            assert any(resp == target for _, resp in matches)


class _Scripted(NodeProtocol):
    """Advertises 0 and proposes a fixed UID (``-1``: none) through the
    scalar hooks and the bulk hooks alike."""

    def __init__(self, uid: int, target: int):
        super().__init__(uid)
        self.target = target

    def advertise(self, round_index, neighbor_uids):
        return 0

    def propose(self, round_index, neighbors):
        return None if self.target < 0 else self.target

    def interact(self, responder, channel, round_index):
        raise AssertionError("stage 3 is not under test")

    @classmethod
    def advertise_all(cls, nodes, round_index, csr):
        return np.zeros(len(nodes), dtype=np.int64)

    @classmethod
    def propose_all(cls, nodes, round_index, csr, tags):
        return np.array([node.target for node in nodes], dtype=np.int64)


def _scripted_round(seed, n, density, rate, masked, repeat_edges, rogue):
    """A random bound snapshot and one round of proposals on it: UIDs
    shuffled against vertex order, one zero-degree vertex, an optional
    sleep mask, optionally every edge twice, and each vertex proposing
    to a random active neighbor with probability ``rate`` — or, for
    ``rogue`` vertices, to a UID outside its active row."""
    rng = np.random.default_rng(seed)
    isolated = int(rng.integers(n))
    others = [v for v in range(n) if v != isolated]
    heads, tails = [], []
    for i, u in enumerate(others):
        for w in others[i + 1:]:
            if rng.random() < density:
                heads += [u, w]
                tails += [w, u]
    if repeat_edges:  # a multigraph: every proposal has two hit edges
        heads, tails = heads * 2, tails * 2
    csr = CSRAdjacency.from_edge_lists(heads, tails, n)
    uids = rng.choice(10 * n, size=n, replace=False).tolist()
    mask = rng.random(n) < 0.7 if masked else None
    awake = np.ones(n, dtype=bool) if mask is None else mask
    targets = []
    for vertex in range(n):
        row = [w for w in csr.neighbors(vertex).tolist()
               if awake[vertex] and awake[w]]
        if vertex in rogue:
            strangers = [uids[w] for w in range(n) if w not in row]
            targets.append(strangers[int(rng.integers(len(strangers)))])
        elif row and rng.random() < rate:
            targets.append(uids[row[int(rng.integers(len(row)))]])
        else:
            targets.append(-1)
    return CSRStaticGraph(csr), uids, targets, mask


def _stages12(mode, graph, uids, targets, mask, rule, rnd):
    nodes = {v: _Scripted(uid, target)
             for v, (uid, target) in enumerate(zip(uids, targets))}
    sim = Simulation(graph, nodes, b=0, seed=9, acceptance=rule,
                     engine_mode=mode)
    stages = sim._stages12_array if mode == "array" else \
        sim._stages12_object
    return stages(rnd, mask)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.2, max_value=1.0),
    st.booleans(),
    st.booleans(),
    st.sampled_from(ALL_RULES),
)
@settings(max_examples=150, deadline=None)
def test_engine_array_resolver_agrees_with_dict_resolver(
        seed, n, density, rate, masked, repeat_edges, rule):
    """Property: the round engine's array branch, fed each proposal's
    proposer and target vertex and the binding's UID ranks, returns the
    dict form's matches on the same proposals — pair values and order —
    on snapshots with UIDs out of vertex order, a zero-degree vertex,
    sleeping vertices, repeated edges, proposals aimed at proposers and
    contested targets."""
    graph, uids, targets, mask = _scripted_round(
        seed, n, density, rate, masked, repeat_edges, rogue=())
    proposals = {uid: target for uid, target in zip(uids, targets)
                 if target >= 0}
    rnd = 1 + seed % 50
    expected = resolve_proposals(proposals, lottery(9),
                                 rnd * TICKS_PER_ROUND, rule=rule)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_DICT_RESOLVER_MAX_PROPOSALS", -1)
        got = _stages12("array", graph, uids, targets, mask, rule, rnd)
    assert got == (len(proposals), expected)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=3, max_value=30),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_engine_array_resolver_names_the_first_illegal_proposer(
        seed, n, masked, data):
    """Property: a proposal outside the proposer's active row stops the
    array round with the object path's error, which names the first
    such vertex."""
    rogue = set(data.draw(st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)))
    round_ = _scripted_round(seed, n, 0.3, 0.8, masked, False, rogue)
    errors = []
    for mode in ("object", "array"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_DICT_RESOLVER_MAX_PROPOSALS", -1)
            with pytest.raises(ProtocolViolationError) as caught:
                _stages12(mode, *round_, "uniform", 3)
        errors.append(str(caught.value))
    first = min(rogue)
    assert errors[0] == errors[1]
    assert errors[1].startswith(f"node uid={round_[1][first]} proposed")
