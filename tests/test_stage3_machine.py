"""Stage 3 under random interleavings, checked from outside the engine.

A hypothesis ``RuleBasedStateMachine`` drives a small BlindMatch
population through arbitrary sequences of connections
(``run_transfer`` between any two nodes), out-of-band ``store_token``
calls and crash resets, and after every connection asserts what the
mobile telephone model promises about one — using only the nodes'
``known_tokens`` before and after, the channel's ledger and the
initiator's stream position, never the Transfer internals.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.blindmatch import BlindMatchNode
from repro.core.problem import GossipInstance
from repro.core.runner import build_nodes
from repro.core.tokens import Token
from repro.sim.channel import Channel, ChannelPolicy

N_NODES = 5

node_index = st.integers(min_value=0, max_value=N_NODES - 1)


class Stage3Machine(RuleBasedStateMachine):
    UPPER_N = 24
    INITIAL = {0: (3,), 1: (3, 17), 2: (), 3: (24,), 4: (1, 9)}

    def initial_tokens(self, vertex):
        return tuple(Token(label, payload=f"p{label}")
                     for label in self.INITIAL[vertex])

    def make_nodes(self):
        """Hand-built nodes: each makes its own Transfer protocol."""
        return [
            BlindMatchNode(
                uid=vertex + 1, upper_n=self.UPPER_N,
                initial_tokens=self.initial_tokens(vertex),
                rng=random.Random(1000 + vertex),
            )
            for vertex in range(N_NODES)
        ]

    def __init__(self):
        super().__init__()
        self.nodes = self.make_nodes()
        self.policy = ChannelPolicy.for_upper_n(self.UPPER_N)
        self.connections = 0
        # What each node must still hold: grows with every observation,
        # shrinks only at a reset.
        self.floor = [node.known_tokens for node in self.nodes]

    def _holdings(self):
        return [node.known_tokens for node in self.nodes]

    @rule(initiator=node_index, responder=node_index)
    def connect(self, initiator, responder):
        if initiator == responder:
            return
        a, b = self.nodes[initiator], self.nodes[responder]
        before = self._holdings()
        stream_before = a.rng.getstate()
        responder_stream = b.rng.getstate()
        self.connections += 1
        channel = Channel(self.connections, a.uid, b.uid, self.policy)
        outcome = a.run_transfer(b, a._transfer, channel)
        channel.close()
        after = self._holdings()

        # O(1) tokens and a metered, in-budget conversation.
        assert channel.tokens_moved <= 1
        assert channel.tokens_moved == int(outcome.moved)
        assert channel.bits.total_bits == outcome.control_bits
        assert not channel.violations
        # Only the initiator's private coins drive the subroutine.
        assert b.rng.getstate() == responder_stream
        # Tokens move only between the connected pair, and only forward.
        for vertex in range(N_NODES):
            if vertex not in (initiator, responder):
                assert after[vertex] == before[vertex]
        gained_a = after[initiator] - before[initiator]
        gained_b = after[responder] - before[responder]
        assert before[initiator] <= after[initiator]
        assert before[responder] <= after[responder]
        assert len(gained_a) + len(gained_b) == channel.tokens_moved
        assert gained_a <= before[responder] and gained_b <= before[initiator]
        for label in gained_a:
            assert a.token(label) is b.token(label)  # payload intact
        for label in gained_b:
            assert b.token(label) is a.token(label)
        # A connection between equal sets moves nothing and draws nothing.
        if before[initiator] == before[responder]:
            assert not outcome.moved and outcome.token_id is None
            assert a.rng.getstate() == stream_before

    @rule(vertex=node_index, draw=st.integers(min_value=0, max_value=10**4))
    def store(self, vertex, draw):
        label = draw % self.UPPER_N + 1
        self.nodes[vertex].store_token(Token(label, payload=f"p{label}"))

    @rule(vertex=node_index)
    def reset(self, vertex):
        self.nodes[vertex].reset_tokens()
        initial = frozenset(self.INITIAL[vertex])
        assert self.nodes[vertex].known_tokens == initial
        self.floor[vertex] = initial

    @invariant()
    def token_sets_are_monotone_except_at_a_reset(self):
        for vertex, held in enumerate(self._holdings()):
            assert self.floor[vertex] <= held
            assert all(1 <= label <= self.UPPER_N for label in held)
            self.floor[vertex] = held


class BuiltPopulationStage3Machine(Stage3Machine):
    """The same invariants when ``build_nodes`` made the population —
    every node then runs the one shared Transfer protocol.  (Labels 3
    and 17 start at two nodes, which an instance refuses; vertex 1's
    copies arrive by ``store_token`` instead.)"""

    def make_nodes(self):
        instance = GossipInstance(
            n=N_NODES, upper_n=self.UPPER_N,
            uids=tuple(range(1, N_NODES + 1)),
            initial_tokens={vertex: self.initial_tokens(vertex)
                            for vertex in (0, 3, 4)},
        )
        nodes = list(build_nodes("blindmatch", instance, seed=77).values())
        assert len({id(node._transfer) for node in nodes}) == 1
        for token in self.initial_tokens(1):
            nodes[1].store_token(token)
        nodes[1]._initial_tokens = self.initial_tokens(1)
        return nodes


class LargeOverlapStage3Machine(Stage3Machine):
    """k = 44 labels, 30 of them at four of the five nodes from the start:
    connections between large, mostly common sets, where Transfer's search
    works on the few labels the two sides disagree on."""

    UPPER_N = 96
    INITIAL = {
        0: tuple(range(1, 33)),
        1: tuple(range(1, 33)) + (60,),
        2: tuple(range(3, 45)),
        3: (),
        4: tuple(range(1, 31)) + (77, 96),
    }


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestStage3Machine = Stage3Machine.TestCase
TestStage3Machine.settings = _SETTINGS
TestBuiltPopulationStage3Machine = BuiltPopulationStage3Machine.TestCase
TestBuiltPopulationStage3Machine.settings = _SETTINGS
TestLargeOverlapStage3Machine = LargeOverlapStage3Machine.TestCase
TestLargeOverlapStage3Machine.settings = _SETTINGS
