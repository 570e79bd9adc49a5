"""Differential tests: the array fast path is byte-identical to the
reference object engine.

Every combination of {ppush, blindmatch, sharedbit} × {static,
relabeling, geometric} × all acceptance rules must produce the *same
trace* (every sampled record and every running total), the same final
token sets, and the same round count under ``engine_mode="object"`` and
``engine_mode="array"``.  This is the guarantee that lets every other
test and benchmark in the repo trust the fast path: same seeds, same
draws, same execution — just faster.

The case harness lives in :mod:`repro.experiments.fastpath`.  At the
corpus horizon (n = 24, 40 rounds) the same pairs are recorded classes
of tests/test_golden_traces.py; the pairs here run to 60 and 120 rounds,
past what the corpus records.
"""

import numpy as np
import pytest

from repro.core.blindmatch import BlindMatchNode
from repro.core.ppush import PPushNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.errors import ConfigurationError
from repro.experiments import fastpath
from repro.experiments.fastpath import (
    CHECK_ACCEPTANCES,
    CHECK_ASYNC_ALGORITHMS,
    CHECK_ASYNC_DYNAMICS,
    CHECK_DYNAMICS,
    CHECK_FAULTS,
    CHECK_TIMINGS,
    first_divergence,
    make_dynamics,
    run_case,
    trace_signature,
)
from repro.graphs.dynamic import DynamicGraph, StaticDynamicGraph
from repro.graphs.topologies import star
from repro.rng import SeedTree
from repro.sim.engine import _DICT_RESOLVER_MAX_PROPOSALS as SPLIT, Simulation
from repro.sim.channel import ChannelPolicy
from repro.sim.protocol import bulk_hooks


class TestTraceForTraceEquality:
    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_ppush(self, dynamics, acceptance):
        assert (
            run_case("ppush", dynamics, acceptance, "object", rounds=60)
            == run_case("ppush", dynamics, acceptance, "array", rounds=60)
        )

    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_blindmatch(self, dynamics, acceptance):
        assert (
            run_case("blindmatch", dynamics, acceptance, "object",
                     rounds=120)
            == run_case("blindmatch", dynamics, acceptance, "array",
                        rounds=120)
        )

    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_sharedbit(self, dynamics, acceptance):
        assert (
            run_case("sharedbit", dynamics, acceptance, "object",
                     rounds=120)
            == run_case("sharedbit", dynamics, acceptance, "array",
                        rounds=120)
        )


class TestTraceForTraceEqualityUnderFaults:
    """The fault-regime axis of the differential matrix: masked stages
    and the drop branch must stay byte-identical across both paths."""

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    def test_sharedbit(self, dynamics, fault):
        assert (
            run_case("sharedbit", dynamics, "uniform", "object",
                     rounds=60, fault=fault)
            == run_case("sharedbit", dynamics, "uniform", "array",
                        rounds=60, fault=fault)
        )

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    @pytest.mark.parametrize("algorithm", ("ppush", "blindmatch"))
    def test_other_algorithms(self, algorithm, fault):
        assert (
            run_case(algorithm, "relabeling", "uniform", "object",
                     rounds=60, fault=fault)
            == run_case(algorithm, "relabeling", "uniform", "array",
                        rounds=60, fault=fault)
        )

    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_acceptance_rules_under_sleep(self, acceptance):
        assert (
            run_case("sharedbit", "static", acceptance, "object",
                     rounds=60, fault="sleep")
            == run_case("sharedbit", "static", acceptance, "array",
                        rounds=60, fault="sleep")
        )


class TestAsyncAxis:
    """The ASYNC axis of the differential matrix: the event-driven
    engine under the synchronous null model must reproduce the round
    engine event for event, on both engine paths; jittered timing must
    be seed-deterministic."""

    @pytest.mark.parametrize("engine_mode", ("object", "array"))
    @pytest.mark.parametrize("dynamics", CHECK_ASYNC_DYNAMICS)
    @pytest.mark.parametrize("algorithm", CHECK_ASYNC_ALGORITHMS)
    def test_synchronous_timing_matches_round_engine(
        self, algorithm, dynamics, engine_mode
    ):
        assert (
            run_case(algorithm, dynamics, "uniform", engine_mode,
                     rounds=60)
            == run_case(algorithm, dynamics, "uniform", engine_mode,
                        rounds=60, timing="synchronous")
        )

    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_synchronous_timing_across_acceptance_rules(self, acceptance):
        assert (
            run_case("sharedbit", "relabeling", acceptance, "object",
                     rounds=60)
            == run_case("sharedbit", "relabeling", acceptance, "object",
                        rounds=60, timing="synchronous")
        )

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    def test_synchronous_timing_composes_with_faults(self, fault):
        # Full synchronized cohorts under a fault regime must mirror the
        # round engine's masked stages and drop branch exactly.
        assert (
            run_case("sharedbit", "static", "uniform", "object",
                     rounds=60, fault=fault)
            == run_case("sharedbit", "static", "uniform", "object",
                        rounds=60, fault=fault, timing="synchronous")
        )

    @pytest.mark.parametrize("timing", CHECK_TIMINGS)
    def test_jittered_timing_is_seed_deterministic(self, timing):
        assert (
            run_case("sharedbit", "geometric", "uniform", "object",
                     rounds=40, timing=timing)
            == run_case("sharedbit", "geometric", "uniform", "object",
                        rounds=40, timing=timing)
        )

    @pytest.mark.parametrize("timing", CHECK_TIMINGS)
    def test_jittered_timing_changes_the_execution(self, timing):
        # The non-null models must actually desynchronize something —
        # otherwise the axis tests nothing.
        assert (
            run_case("sharedbit", "static", "uniform", "object",
                     rounds=40, timing=timing)
            != run_case("sharedbit", "static", "uniform", "object",
                        rounds=40)
        )


class TestFirstDivergence:
    """The differ the corpus tests print instead of a bare inequality."""

    @staticmethod
    def outcome(records, totals=(10, 10, 30, 9, 12, 40, 1), state=None):
        state = state or ((1, 2), (1, 2), (2,))
        return (*totals, tuple(records)), state

    @staticmethod
    def record(round_index, proposals=3, connections=1, gauges=()):
        return (round_index, proposals, connections, 1, 4, 3, 0, gauges)

    def test_names_the_first_differing_round_and_its_columns(self):
        left = [self.record(r) for r in range(1, 11)]
        right = list(left)
        right[6] = self.record(7, proposals=2, connections=0)
        right[8] = self.record(9, gauges=(("coverage", 2),))
        assert first_divergence(self.outcome(left), self.outcome(right)) \
            == "round 7: proposals 3 != 2, connections 1 != 0"

    def test_falls_back_to_totals_then_end_state(self):
        records = [self.record(r) for r in range(1, 11)]
        same = self.outcome(records)
        assert first_divergence(same, self.outcome(records)) is None
        assert first_divergence(
            same, self.outcome(records, totals=(10, 10, 31, 9, 12, 40, 1))
        ) == "totals: total_proposals 30 != 31"
        assert first_divergence(
            same, self.outcome(records, state=((1, 2), (1,), (2,)))
        ) == "vertex 1: end state (1, 2) != (1,)"

    def test_reads_run_case_outcomes(self):
        array = run_case("sharedbit", "static", "uniform", "array",
                         n=8, rounds=6)
        assert first_divergence(array, run_case(
            "sharedbit", "static", "uniform", "object", n=8, rounds=6
        )) is None
        assert first_divergence(array, run_case(
            "sharedbit", "static", "uniform", "array", n=8, rounds=5
        )).startswith("totals: rounds 6 != 5")


class TestRunGossipEquality:
    """End to end through the standard harness, gauges included."""

    @pytest.mark.parametrize("algorithm", ("blindmatch", "sharedbit"))
    def test_full_run_identical(self, algorithm):
        outcomes = []
        from repro.core.runner import coverage_gauge

        for engine_mode in ("object", "array"):
            instance = uniform_instance(n=16, k=4, seed=3)
            result = run_gossip(
                algorithm,
                make_dynamics("relabeling", n=16, seed=3),
                instance,
                seed=3,
                max_rounds=5000,
                gauges={"coverage": coverage_gauge(instance.token_ids)},
                gauge_every=16,
                engine_mode=engine_mode,
            )
            assert result.solved
            outcomes.append(
                (
                    trace_signature(result.rounds, result.trace),
                    tuple(
                        tuple(sorted(node.known_tokens))
                        for node in result.nodes.values()
                    ),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_auto_mode_picks_array_for_bulk_nodes(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("blindmatch", instance, seed=1)
        sim = Simulation(
            StaticDynamicGraph(star(8)), nodes, b=0, seed=1,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        )
        assert sim.engine_mode == "array"

    def test_object_mode_forces_reference_path(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("blindmatch", instance, seed=1)
        sim = Simulation(
            StaticDynamicGraph(star(8)), nodes, b=0, seed=1,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            engine_mode="object",
        )
        assert sim.engine_mode == "object"

    def test_array_mode_rejected_without_bulk_hooks(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("crowdedbin", instance, seed=1)
        with pytest.raises(ConfigurationError):
            Simulation(
                StaticDynamicGraph(star(8)), nodes, b=1, seed=1,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                engine_mode="array",
            )


class TestBulkHookDetection:
    def test_mixed_population_falls_back(self):
        instance = uniform_instance(n=4, k=1, seed=1)
        blind = build_nodes("blindmatch", instance, seed=1)
        tree = SeedTree(1)
        mixed = dict(blind)
        mixed[3] = PPushNode(uid=blind[3].uid, upper_n=99,
                             rng=tree.stream("x"))
        assert bulk_hooks([mixed[v] for v in range(4)]) is None

    def test_subclass_overriding_scalar_hook_is_refused(self):
        class QuietBlindMatch(BlindMatchNode):
            def propose(self, round_index, neighbors):
                return None  # diverges from the inherited propose_all

        instance = uniform_instance(n=4, k=1, seed=1)
        tree = SeedTree(1)
        nodes = [
            QuietBlindMatch(uid=vertex + 1, upper_n=4, initial_tokens=(),
                            rng=tree.stream("node", vertex))
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None

    def test_subclass_refreshing_both_hooks_is_accepted(self):
        class LoudBlindMatch(BlindMatchNode):
            def propose(self, round_index, neighbors):
                return None

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        instance = uniform_instance(n=4, k=1, seed=1)
        tree = SeedTree(1)
        nodes = [
            LoudBlindMatch(uid=vertex + 1, upper_n=4, initial_tokens=(),
                           rng=tree.stream("node", vertex))
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is not None

    def test_subclass_overriding_scalar_helper_is_refused(self):
        # advertisement_bit is a helper the scalar advertise calls; the
        # inherited bulk advertise_all computes the parity inline and
        # would never see this override — so the population must fall
        # back to the object path instead of silently diverging.
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.rng import SharedRandomness

        class QuietSharedBit(SharedBitNode):
            def advertisement_bit(self, round_index):
                return 0

        shared = SharedRandomness.from_seed(1, 8)
        tree = SeedTree(5)
        nodes = [
            QuietSharedBit(
                uid=vertex + 1, upper_n=8, initial_tokens=(),
                rng=tree.stream("node", vertex), shared=shared,
                config=SharedBitConfig(),
            )
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None

    @pytest.mark.parametrize("detect", ["bulk_hooks", "window_hooks"])
    def test_one_eligibility_rule_for_both_hook_kinds(self, detect):
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.rng import SharedRandomness
        from repro.sim import protocol

        detect = getattr(protocol, detect)
        shared = SharedRandomness.from_seed(1, 8)

        def population(*classes, shared_of=lambda vertex: shared):
            tree = SeedTree(5)
            return [
                classes[vertex % len(classes)](
                    uid=vertex + 1, upper_n=8, initial_tokens=(),
                    rng=tree.stream("node", vertex),
                    shared=shared_of(vertex), config=SharedBitConfig(),
                )
                for vertex in range(4)
            ]

        class Same(SharedBitNode):
            pass

        class HelperOverride(SharedBitNode):
            def advertisement_bit(self, round_index):
                return 0

        class ScalarOverride(SharedBitNode):
            def propose(self, round_index, neighbors):
                return None

        class OwnWindowHooks(SharedBitNode):
            @classmethod
            def make_window_hooks(cls, nodes):
                return "mine"

        assert detect(population(SharedBitNode)) is not None
        assert detect(population(Same)) is not None
        assert detect(population(SharedBitNode, Same)) is None
        assert detect(population(HelperOverride)) is None
        assert detect(population(ScalarOverride)) is None
        assert detect(population(
            SharedBitNode,
            shared_of=lambda vertex: SharedRandomness.from_seed(vertex, 8),
        )) is None  # bulk_ready says no
        # Re-declaring the window factory is not a helper override: the
        # subclass gets its own ops and keeps the inherited bulk hooks.
        nodes = population(OwnWindowHooks)
        assert protocol.window_hooks(nodes) == "mine"
        assert protocol.bulk_hooks(nodes) == (
            OwnWindowHooks.advertise_all, OwnWindowHooks.propose_all
        )

    def test_sharedbit_bulk_ready_rejects_mismatched_shared_strings(self):
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.rng import SharedRandomness

        tree = SeedTree(5)
        nodes = [
            SharedBitNode(
                uid=vertex + 1,
                upper_n=8,
                initial_tokens=(),
                rng=tree.stream("node", vertex),
                shared=SharedRandomness.from_seed(vertex, 8),  # all differ
                config=SharedBitConfig(),
            )
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None

    def test_sharedbit_mixed_upper_n_falls_back_with_identical_traces(self):
        # The window ops size their bit table and row-padding sentinel
        # from nodes[0].upper_n: a label above it elsewhere used to raise
        # IndexError (label 20) or be read as the sentinel (label 9).
        from repro.asynchrony.engine import AsyncSimulation
        from repro.asynchrony.timing import UniformJitter
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.core.tokens import Token
        from repro.graphs.topologies import path
        from repro.rng import SharedRandomness
        from repro.sim.protocol import window_hooks

        n, rounds = 6, 3  # too few for a label to walk down to vertex 0

        def population():
            shared = SharedRandomness.from_seed(1, 32)
            tree = SeedTree(5)
            tokens = {4: (Token(20),), 5: (Token(9),)}
            return {
                vertex: SharedBitNode(
                    uid=vertex + 1, upper_n=8 if vertex == 0 else 32,
                    initial_tokens=tokens.get(vertex, ()),
                    rng=tree.stream("node", vertex), shared=shared,
                    config=SharedBitConfig(),
                )
                for vertex in range(n)
            }

        nodes = list(population().values())
        assert bulk_hooks(nodes) is None
        assert window_hooks(nodes) is None

        def observe(engine, **kwargs):
            sim = engine(
                StaticDynamicGraph(path(n)), population(), b=1, seed=3,
                channel_policy=ChannelPolicy.for_upper_n(32), **kwargs,
            )
            result = sim.run(max_rounds=rounds)
            return sim, (
                trace_signature(result.rounds, result.trace),
                [sorted(node.known_tokens) for node in result.nodes.values()],
            )

        sim, auto = observe(Simulation)
        assert sim.engine_mode == "object"
        assert auto == observe(Simulation, engine_mode="object")[1]
        jitter = lambda: UniformJitter(n, seed=3)  # noqa: E731
        sim, auto = observe(AsyncSimulation, timing=jitter())
        assert sim.engine_mode == "object"
        assert auto == observe(AsyncSimulation, timing=jitter(),
                               engine_mode="object")[1]


class _IslandDynamicGraph:
    """Helper factory: a path on 0..n-2 plus an isolated vertex n-1.

    In-tree dynamics always produce connected graphs, but the dynamics
    ABC is a plugin surface and nothing forces connectivity on
    out-of-tree subclasses — the object path tolerates isolated
    vertices, so the array path must too (regression: segment reductions
    over empty CSR rows)."""

    def __new__(cls, n: int):
        from repro.graphs.dynamic import DynamicGraph, TAU_INFINITY
        from repro.sim.adjacency import CSRAdjacency

        class Island(DynamicGraph):
            def __init__(self):
                super().__init__(n=n, tau=TAU_INFINITY)

            def _csr_for_epoch(self, epoch):
                # A path over 0..n-2; vertex n-1 has no edges.
                heads = list(range(n - 2))
                tails = list(range(1, n - 1))
                return CSRAdjacency.from_edge_lists(
                    heads + tails, tails + heads, n, dtype=self.csr_dtype
                )

        return Island()


class TestZeroDegreeVertices:
    def _ppush_sim(self, rumor_vertex: int, engine_mode: str, n: int = 6):
        from repro.core.tokens import Token

        tree = SeedTree(3)
        nodes = {
            vertex: PPushNode(
                uid=vertex + 1, upper_n=n,
                rng=tree.stream("node", vertex + 1),
                rumor=Token(1) if vertex == rumor_vertex else None,
            )
            for vertex in range(n)
        }
        sim = Simulation(_IslandDynamicGraph(n), nodes, b=1, seed=3,
                         engine_mode=engine_mode)
        sim.run(max_rounds=20)
        return trace_signature(sim.current_round, sim.trace)

    def test_trailing_isolated_vertex_matches_reference(self):
        assert self._ppush_sim(0, "object") == self._ppush_sim(0, "array")

    def test_informed_isolated_vertex_matches_reference(self):
        # The isolated vertex holds the rumor: it advertises 1 but has no
        # neighbors, so neither path may draw or propose for it.
        n = 6
        assert (
            self._ppush_sim(n - 1, "object")
            == self._ppush_sim(n - 1, "array")
        )

    def test_isolated_proposer_rejected_on_array_path(self):
        class RogueBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes), dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                targets = np.full(len(nodes), -1, dtype=np.int64)
                # The isolated vertex proposes: illegal, no neighbors.
                targets[-1] = nodes[0].uid
                return targets

        from repro.errors import ProtocolViolationError

        n = 5
        tree = SeedTree(4)
        nodes = {
            vertex: RogueBlindMatch(
                uid=vertex + 1, upper_n=n, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(n)
        }
        sim = Simulation(_IslandDynamicGraph(n), nodes, b=0, seed=4,
                         engine_mode="array")
        with pytest.raises(ProtocolViolationError):
            sim.step()


class TestEngineEnforcementOnArrayPath:
    def test_bad_tag_rejected(self):
        class BadTagBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.full(len(nodes), 7, dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        tree = SeedTree(2)
        nodes = {
            vertex: BadTagBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()

    def test_float_tag_array_rejected(self):
        # The object path rejects non-int tags via isinstance; the array
        # path must not let a float array be silently truncated instead.
        class FloatTagBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes))  # float64

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        tree = SeedTree(2)
        nodes = {
            vertex: FloatTagBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()

    def test_non_neighbor_proposal_rejected(self):
        class RogueBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes), dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                targets = np.full(len(nodes), -1, dtype=np.int64)
                # Vertex 1 proposes to vertex 2's uid — on a star only
                # the hub (vertex 0) is a legal target for a leaf.
                targets[1] = nodes[2].uid
                return targets

        tree = SeedTree(2)
        nodes = {
            vertex: RogueBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()


class _CSROnly(DynamicGraph):
    """Serves a dynamic graph's CSR snapshots and nothing else:
    ``csr_at`` delegates, ``graph_at`` raises."""

    def __init__(self, inner):
        super().__init__(n=inner.n, tau=inner.tau)
        self._inner = inner

    def _csr_for_epoch(self, epoch):
        self._inner.csr_dtype = self.csr_dtype
        return self._inner._csr_for_epoch(epoch)

    def graph_at(self, round_index):
        raise AssertionError("an engine read graph_at")


class TestEnginesReadOnlyCSR:
    """Both front halves of both engines read the topology from
    ``csr_at``; ``graph_at`` is for analysis only."""

    @pytest.mark.parametrize("timing", [None, "jitter"])
    @pytest.mark.parametrize("engine_mode", ["object", "array"])
    @pytest.mark.parametrize("fault", ["none", "sleep"])
    def test_no_engine_reads_graph_at(
        self, monkeypatch, timing, engine_mode, fault
    ):
        case = ("sharedbit", "geometric", "uniform", engine_mode)
        kwargs = dict(rounds=20, fault=fault, timing=timing)
        reference = run_case(*case, **kwargs)
        real = fastpath.make_dynamics
        monkeypatch.setattr(
            fastpath, "make_dynamics",
            lambda kind, n, seed: _CSROnly(real(kind, n, seed)),
        )
        assert first_divergence(reference, run_case(*case, **kwargs)) is None


def test_object_equals_array_on_both_sides_of_the_resolver_split():
    """The array path resolves small rounds with the dict form and large
    ones with the array form.  BlindMatch's coin makes about n/2 of the
    n = 2 * SPLIT nodes propose each round on a dense mobility mesh, so
    its rounds land on both sides of the split, and which sender a
    contested target accepts decides whose tokens move: the run matches
    the object path round for round."""
    n, rounds = 2 * SPLIT, 8
    array = run_case("blindmatch", "geometric", "uniform", "array",
                     n=n, rounds=rounds)
    assert first_divergence(array, run_case(
        "blindmatch", "geometric", "uniform", "object", n=n, rounds=rounds
    )) is None
    proposals = [record[1] for record in array[0][-1]]
    assert any(0 < count <= SPLIT for count in proposals)
    assert any(count > SPLIT for count in proposals)
