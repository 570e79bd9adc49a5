"""Tests for dynamic graphs: stability, determinism, connectivity."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import SeedTree
from repro.experiments.fastpath import check_grid_identity
from repro.graphs import spatial
from repro.graphs.spatial import disk_csr, disk_edges_blocked
from repro.graphs.dynamic import (
    TAU_INFINITY,
    GeometricMobilityGraph,
    PeriodicRewireGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
    _component_labels,
    dynamic_expansion_estimate,
    dynamic_max_degree,
)
from repro.graphs.topologies import cycle, double_star, expander, path, star
from repro.sim.adjacency import CSRAdjacency
from repro.sim.protocol import NodeProtocol


def edges_at(dg, r):
    return frozenset(map(tuple, map(sorted, dg.graph_at(r).edges)))


def csr_bytes(csr) -> bytes:
    return csr.indptr.tobytes() + csr.indices.tobytes()


def blocked_csr(xs, ys, radius, dtype=None) -> CSRAdjacency:
    """The unit-disk snapshot through the O(n^2) reference sweep."""
    u, v = disk_edges_blocked(xs, ys, radius)
    return CSRAdjacency.from_edge_lists(
        np.concatenate([u, v]), np.concatenate([v, u]), len(xs), dtype=dtype
    )


class TestStaticDynamicGraph:
    def test_same_graph_every_round(self):
        dg = StaticDynamicGraph(cycle(8))
        assert edges_at(dg, 1) == edges_at(dg, 1000)

    def test_tau_is_infinity(self):
        assert StaticDynamicGraph(cycle(8)).tau == TAU_INFINITY

    def test_epoch_always_zero(self):
        dg = StaticDynamicGraph(cycle(8))
        assert dg.epoch_of(1) == dg.epoch_of(999) == 0

    def test_rounds_one_indexed(self):
        dg = StaticDynamicGraph(cycle(8))
        with pytest.raises(ConfigurationError):
            dg.graph_at(0)


class TestRelabelingAdversary:
    def test_preserves_shape(self):
        topo = double_star(4)
        dg = RelabelingAdversary(topo, tau=1, seed=5)
        for r in (1, 2, 3):
            g = dg.graph_at(r)
            assert nx.is_isomorphic(g, topo.graph)

    def test_changes_at_tau_one(self):
        # A path's relabeled edge set pins down the permutation (up to
        # reversal), so distinct epochs almost surely differ.
        dg = RelabelingAdversary(path(10), tau=1, seed=5)
        assert edges_at(dg, 1) != edges_at(dg, 2)

    def test_stable_within_epoch(self):
        dg = RelabelingAdversary(path(10), tau=5, seed=5)
        for r in range(1, 6):
            assert edges_at(dg, r) == edges_at(dg, 1)
        assert edges_at(dg, 6) != edges_at(dg, 1)

    def test_sequence_fixed_in_advance(self):
        # Re-deriving an old epoch must reproduce it exactly: the dynamic
        # graph is an oblivious adversary, fixed at execution start.
        dg = RelabelingAdversary(star(10), tau=1, seed=9)
        first = edges_at(dg, 3)
        for r in (50, 1, 7):
            dg.graph_at(r)
        assert edges_at(dg, 3) == first

    def test_determinism_across_instances(self):
        a = RelabelingAdversary(star(10), tau=2, seed=9)
        b = RelabelingAdversary(star(10), tau=2, seed=9)
        for r in (1, 4, 11):
            assert edges_at(a, r) == edges_at(b, r)

    def test_seed_changes_sequence(self):
        a = RelabelingAdversary(star(10), tau=1, seed=1)
        b = RelabelingAdversary(star(10), tau=1, seed=2)
        assert any(edges_at(a, r) != edges_at(b, r) for r in range(1, 6))


def relabeled_reference(dg, epoch) -> CSRAdjacency:
    """Epoch ``epoch`` built on its own: the epoch's shuffle, then
    ``from_edge_lists`` over the relabeled base edges."""
    base = CSRAdjacency.from_graph(dg.topology.graph)
    labels = list(range(dg.n))
    SeedTree(dg.seed).child("relabeling").stream("epoch", epoch).shuffle(
        labels)
    perm = np.asarray(labels, dtype=np.int64)
    return CSRAdjacency.from_edge_lists(
        perm.take(base.edge_sources()), perm.take(base.indices), dg.n,
        dtype=dg.csr_dtype,
    )


class TestRelabelingBlocks:
    """Relabeled epochs are built a block at a time; each must equal
    the epoch built on its own, however the rounds are walked."""

    @pytest.mark.parametrize("shape", [
        lambda: star(12), lambda: cycle(9),
        lambda: expander(20, degree=4, seed=1),
    ])
    @pytest.mark.parametrize("tau", [1, 3])
    @pytest.mark.parametrize("dtype", [None, np.int64])
    def test_every_walk_matches_the_per_epoch_build(self, shape, tau, dtype):
        dg = RelabelingAdversary(shape(), tau=tau, seed=7)
        dg.csr_dtype = dtype
        # Forward past the 1-, 2-, 4- and 8-epoch blocks, then a revisit,
        # a jump ahead and a walk on from the jump.
        epochs = list(range(20)) + [2, 500, 501, 502, 503]
        for epoch in epochs:
            rounds = range(epoch * tau + 1, (epoch + 1) * tau + 1)
            snapshots = [dg.csr_at(r) for r in rounds]
            assert all(s is snapshots[0] for s in snapshots)
            got, want = snapshots[0], relabeled_reference(dg, epoch)
            for a, b in ((got.indptr, want.indptr),
                         (got.indices, want.indices),
                         (got.edge_sources(), want.edge_sources())):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b), f"epoch {epoch}"

    def test_dtype_change_rebuilds(self):
        dg = RelabelingAdversary(star(8), tau=1, seed=2)
        narrow = dg.csr_at(3)
        dg.csr_dtype = np.int64
        wide = dg.csr_at(3)
        assert narrow.indices.dtype == np.int32
        assert wide.indices.dtype == np.int64
        assert np.array_equal(narrow.indices, wide.indices)

    @pytest.fixture
    def derived(self, monkeypatch):
        """The epochs whose relabeling streams get derived, in order."""
        epochs = []
        stream = SeedTree.stream

        def counting(tree, *path):
            if tree._path == ("relabeling",):
                epochs.append(path[1])
            return stream(tree, *path)

        monkeypatch.setattr(SeedTree, "stream", counting)
        return epochs

    def test_a_short_run_derives_few_epochs(self, derived):
        from repro.sim.engine import Simulation

        dg = RelabelingAdversary(star(10), tau=1, seed=4)
        sim = Simulation(dg, {v: _SilentNode(v + 1) for v in range(10)},
                         b=0, seed=1)
        sim.run(max_rounds=2)
        assert 2 <= len(derived) <= 4

    def test_blocks_double_up_to_the_edge_budget(self, derived):
        small = RelabelingAdversary(star(16), tau=1, seed=1)
        for r in range(1, 6):
            small.csr_at(r)
        assert derived == [0, 1, 2, 3, 4, 5, 6]  # blocks of 1, 2 and 4
        # 18 000 directed edges: past the budget, one epoch per block.
        large = RelabelingAdversary(cycle(9000), tau=1, seed=1)
        derived.clear()
        for r in range(1, 6):
            large.csr_at(r)
        assert derived == [0, 1, 2, 3, 4]

    def test_tau_infinity_builds_one_epoch(self, derived):
        dg = RelabelingAdversary(star(6), tau=TAU_INFINITY, seed=1)
        for r in (1, 2, 1000):
            dg.csr_at(r)
        assert derived == [0]


class _SilentNode(NodeProtocol):
    """Advertises 0 and never proposes."""

    def advertise(self, round_index, neighbor_uids):
        return 0

    def propose(self, round_index, neighbors):
        return None

    def interact(self, responder, channel, round_index):
        pass


class TestPeriodicRewire:
    def test_resampled_regular_stays_regular(self):
        dg = PeriodicRewireGraph.resampled_regular(12, 3, tau=2, seed=4)
        for r in (1, 3, 9):
            assert all(d == 3 for _, d in dg.graph_at(r).degree)

    def test_connected_every_epoch(self):
        dg = PeriodicRewireGraph.resampled_gnp(14, 0.3, tau=1, seed=4)
        for r in range(1, 12):
            assert nx.is_connected(dg.graph_at(r))

    def test_respects_tau(self):
        dg = PeriodicRewireGraph.resampled_gnp(14, 0.3, tau=3, seed=4)
        assert edges_at(dg, 1) == edges_at(dg, 2) == edges_at(dg, 3)
        assert edges_at(dg, 4) != edges_at(dg, 1)

    def test_factory_output_validated(self):
        def bad_factory(epoch, rng):
            g = nx.Graph()
            g.add_nodes_from(range(6))
            g.add_edge(0, 1)  # disconnected
            return g

        dg = PeriodicRewireGraph(n=6, tau=1, seed=0, factory=bad_factory)
        with pytest.raises(Exception):
            dg.graph_at(1)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicRewireGraph.resampled_gnp(8, 0.5, tau=0, seed=0)
        with pytest.raises(ConfigurationError):
            PeriodicRewireGraph.resampled_gnp(8, 0.5, tau=1.5, seed=0)
        with pytest.raises(ConfigurationError):  # a bool is not an int
            PeriodicRewireGraph.resampled_gnp(8, 0.5, tau=True, seed=0)

    @pytest.mark.parametrize("dynamic", [
        {"kind": "resampled_regular", "tau": 2, "degree": 3},
        {"kind": "resampled_gnp", "tau": 2, "p": 0.35},
    ])
    def test_registered_builders_run_and_replay(self, dynamic):
        from repro.experiments.runner import execute_run
        from repro.experiments.specs import RunSpec

        spec = RunSpec(
            algorithm="sharedbit",
            graph={"family": "cycle", "params": {"n": 12}},
            seed=5, max_rounds=30_000, dynamic=dynamic,
            instance={"kind": "uniform", "k": 2},
        )
        record = execute_run(spec)
        assert record["solved"] and record["connections"] > 0

        # Fixed in advance: epoch 0 is the same snapshot after the
        # graph has walked three epochs on.
        dg = spec.materialize()["dynamic_graph"]
        assert isinstance(dg, PeriodicRewireGraph) and dg.tau == 2
        first = csr_bytes(dg.csr_at(1))
        later = {csr_bytes(dg.csr_at(1 + 2 * e)) for e in (1, 2, 3)}
        assert first not in later
        assert csr_bytes(dg.csr_at(1)) == first


class TestGeometricMobility:
    def test_connected_every_round(self):
        dg = GeometricMobilityGraph(n=20, radius=0.3, step=0.05, tau=2, seed=1)
        for r in range(1, 20):
            assert nx.is_connected(dg.graph_at(r))

    def test_positions_move(self):
        dg = GeometricMobilityGraph(n=15, radius=0.4, step=0.1, tau=1, seed=1)
        seqs = {edges_at(dg, r) for r in range(1, 10)}
        assert len(seqs) > 1

    def test_old_epochs_replayable(self):
        # Regression: metrics revisit early epochs after a run walked the
        # graph forward; replays must reproduce the exact graphs the run
        # saw (epochs are a pure function of the seed).
        dg = GeometricMobilityGraph(n=10, radius=0.4, step=0.1, tau=1, seed=1)
        seen = {r: edges_at(dg, r) for r in range(1, 12)}
        for r in (1, 5, 11):
            assert edges_at(dg, r) == seen[r]

    def test_replay_does_not_disturb_forward_state(self):
        fresh = GeometricMobilityGraph(n=12, radius=0.35, step=0.08, tau=1,
                                       seed=4)
        expected = {r: edges_at(fresh, r) for r in range(1, 9)}
        dg = GeometricMobilityGraph(n=12, radius=0.35, step=0.08, tau=1,
                                    seed=4)
        dg.graph_at(5)
        assert edges_at(dg, 1) == expected[1]  # replay of an old epoch
        for r in (6, 7, 8):  # forward motion continues from live state
            assert edges_at(dg, r) == expected[r]

    def test_replay_does_not_recount_bridges(self):
        dg = GeometricMobilityGraph(n=16, radius=0.18, step=0.05, tau=1,
                                    seed=2)
        for r in range(1, 8):
            dg.graph_at(r)
        counted = dg.bridges_added
        assert counted > 0  # a radius this small needs bridging
        dg.graph_at(1)
        dg.graph_at(3)
        assert dg.bridges_added == counted

    def test_metrics_after_run(self):
        # The original crash: dynamic_max_degree re-reads epoch 0 after
        # the engine walked the mobility graph forward.
        dg = GeometricMobilityGraph(n=14, radius=0.4, step=0.1, tau=2,
                                    seed=3)
        dg.graph_at(30)
        assert dynamic_max_degree(dg, horizon=30) >= 1
        assert dynamic_expansion_estimate(dg, horizon=10, samples=8) > 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            GeometricMobilityGraph(n=10, radius=0.0, step=0.1, tau=1, seed=1)
        with pytest.raises(ConfigurationError):
            GeometricMobilityGraph(n=10, radius=0.3, step=2.0, tau=1, seed=1)

    def test_bridging_matches_reference_loop(self):
        # Pin the spanning-tree bridging against the original
        # pure-Python Prim loop: identical bridge edges on meshes
        # fragmented enough to need several.  Compared as sets: the
        # order bridges are chosen in is not observable (bridges_added
        # is their count, and from_edge_lists sorts the edges).
        for seed in (1, 2, 3, 9):
            dg = GeometricMobilityGraph(n=30, radius=0.12, step=0.05,
                                        tau=1, seed=seed, bridge=False)
            for r in (1, 4, 7):
                raw = dg.csr_at(r)
                graph = dg.graph_at(r)
                # Component labels: nx's components, numbered by
                # smallest vertex.
                assert np.array_equal(_component_labels(raw),
                                      component_labels(graph))
                positions = dg.positions_at(dg.epoch_of(r))
                expected = reference_bridges(graph, positions)
                assert len(expected) > 0
                actual = dg._bridges(raw, positions[:, 0], positions[:, 1])
                assert edge_set(actual) == edge_set(expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_component_labels_match_networkx(self, seed):
        """Hook and shortcut against ``nx.connected_components`` on
        sparse random graphs: isolated vertices (the last rows empty
        included), shuffled long paths (the deepest forests) and no
        edges at all."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        if seed % 3 == 0:
            order = rng.permutation(n)
            cut = set(rng.integers(0, n, 3).tolist())
            graph.add_edges_from(
                (int(order[i]), int(order[i + 1]))
                for i in range(n - 1) if i not in cut)
        elif seed % 3 == 1:
            m = int(rng.integers(0, n))
            graph.add_edges_from(
                (int(u), int(v)) for u, v in rng.integers(0, n, (m, 2))
                if u != v)
        graph.remove_edges_from([(u, v) for u, v in graph.edges
                                 if max(u, v) >= n - 2])
        csr = CSRAdjacency.from_graph(graph)
        assert np.array_equal(_component_labels(csr),
                              component_labels(graph))

    def test_fragmented_gnp_runs_on_both_engine_paths(self):
        # require_connected=False: the first sample stands, fragments and
        # all; the engine tolerates isolated vertices on both paths and
        # the two front halves stay byte-identical.
        from repro.core.problem import uniform_instance
        from repro.core.runner import build_nodes
        from repro.experiments.fastpath import trace_signature
        from repro.sim.channel import ChannelPolicy
        from repro.sim.engine import Simulation

        def fragmented():
            return PeriodicRewireGraph.resampled_gnp(
                n=16, p=0.08, tau=2, seed=3, require_connected=False
            )

        assert any(
            not nx.is_connected(fragmented().graph_at(r))
            for r in range(1, 12, 2)
        )
        signatures = []
        for engine_mode in ("object", "array"):
            instance = uniform_instance(n=16, k=2, seed=3)
            nodes = build_nodes("sharedbit", instance, seed=3)
            sim = Simulation(
                fragmented(), nodes, b=1, seed=3,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                engine_mode=engine_mode,
            )
            sim.run(max_rounds=30)
            signatures.append(trace_signature(sim.current_round, sim.trace))
        assert signatures[0] == signatures[1]

    #: sha256 of each epoch's indptr + indices bytes, rounds 1..10 of
    #: the mesh below, as the nx-component bridging built them.
    BRIDGED_DIGESTS = [
        '467f2f3f079e1dea8d61bc2ee4c3890074cd151dbb913fd6e17ff2c0bb1a6a1b',
        '7078141cf7186b84d300fef826a496a22f07e3e824910c9815b4920e15d98a0a',
        '6dcb1178802755189fc0fa470bdeb079bf5c4ef45c14069046c54bfc4b3f6c2c',
        '774b0ed99feaa92b07c36ecbbcaa913c7eee2e6f7b6d9bdacf9753c3102a9213',
        '8713a6d7bcc4bff57b87a6d4929965aa6bc4b5285b78e230b742b627d31274d3',
        'ddcff5f72ba64ae80a50535042f0c7eabd94a43ea021fdc204b5543beea0472b',
        'd348afaf29eb2b336fba57f95dcf70de6f5d39fc54ad11d497e120fcd609d890',
        '557c26a2c71927dec75c38093093ab0e6a9d4bf07876f9f243fdca31196e1b08',
        '07654d3ef86c806d9152c240fac3b3d952da649f526a9d98ac52c34ba6aa3f34',
        '30d47bddd1161217606a23567a65bbf54a50a5b3a0ba821185eb6320c6d74a73',
    ]

    def test_bridged_mesh_digests_and_revisit(self):
        import hashlib

        def digest(csr):
            return hashlib.sha256(csr_bytes(csr)).hexdigest()

        n = 2000
        dg = GeometricMobilityGraph(n=n, radius=math.sqrt(12 / (math.pi * n)),
                                    step=0.05, tau=1, seed=3)
        assert [digest(dg.csr_at(r)) for r in range(1, 11)] == \
            self.BRIDGED_DIGESTS
        assert dg.bridges_added == 134
        # Epoch 2 again, after epoch 9: a replay from the seed.
        assert digest(dg.csr_at(3)) == self.BRIDGED_DIGESTS[2]
        assert dg.bridges_added == 134

    def test_unbridged_mesh_may_fragment(self):
        # bridge=False: connectivity is policy now, and a tiny radius
        # leaves the proximity mesh in pieces.
        dg = GeometricMobilityGraph(n=30, radius=0.08, step=0.05, tau=1,
                                    seed=1, bridge=False)
        assert any(
            not nx.is_connected(dg.graph_at(r)) for r in range(1, 6)
        )
        assert dg.bridges_added == 0


def reference_bridges(g, positions):
    """The Prim loop bridging ran before the spanning tree: the
    component holding vertex 0 absorbs, one at a time, the component
    with the closest pair to it (first strict minimum, base members
    outer), adding that pair to ``g``.  Returns the bridges in the
    order chosen."""
    bridges = []
    components = [list(c) for c in nx.connected_components(g)]
    while len(components) > 1:
        base = components[0]
        best = None
        for other_idx, other in enumerate(components[1:], start=1):
            for u in base:
                xu, yu = positions[u]
                for v in other:
                    xv, yv = positions[v]
                    d = (xu - xv) ** 2 + (yu - yv) ** 2
                    if best is None or d < best[0]:
                        best = (d, u, v, other_idx)
        _, u, v, other_idx = best
        g.add_edge(u, v)
        bridges.append((u, v))
        base.extend(components.pop(other_idx))
    return bridges


def edge_set(edges):
    return frozenset(tuple(sorted(edge)) for edge in edges)


def reference_motion(seed, n, step, epochs):
    """The per-node scalar loop the mobility columns replaced: epoch
    e's positions and waypoints as lists of (x, y), e = 0..epochs."""
    tree = SeedTree(seed).child("mobility")
    rng = tree.stream("init")
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    waypoints = [(rng.random(), rng.random()) for _ in range(n)]
    states = [(list(positions), list(waypoints))]
    for epoch in range(1, epochs + 1):
        rng = tree.stream("epoch", epoch)
        for i in range(n):
            x, y = positions[i]
            wx, wy = waypoints[i]
            dx, dy = wx - x, wy - y
            dist = math.hypot(dx, dy)
            if dist <= step:
                positions[i] = (wx, wy)
                waypoints[i] = (rng.random(), rng.random())
            else:
                scale = step / dist
                positions[i] = (x + dx * scale, y + dy * scale)
        states.append((list(positions), list(waypoints)))
    return states


def same_bits(columns, pairs) -> bool:
    return columns.tobytes() == np.array(pairs, dtype=np.float64).tobytes()


class TestMobilityColumns:
    """Positions and waypoints move as float64 columns; every value is
    the scalar loop's to the bit, and every CSR the one it built."""

    EPOCHS = 60

    @pytest.mark.parametrize("step", [0.0, 0.05, 1.0])
    def test_columns_equal_the_scalar_loop_bit_for_bit(self, step):
        n, seed, radius = 40, 7, 0.2
        expected = reference_motion(seed, n, step, self.EPOCHS)
        params = dict(n=n, radius=radius, step=step, tau=1, seed=seed)
        forward = GeometricMobilityGraph(**params, bridge=False)
        bridged = GeometricMobilityGraph(**params, bridge=True)
        for epoch, (positions, waypoints) in enumerate(expected):
            csr = forward.csr_at(epoch + 1)  # tau = 1: round e + 1
            assert same_bits(forward._positions, positions)
            assert same_bits(forward._waypoints, waypoints)
            assert same_bits(forward.positions_at(epoch), positions)
            xy = np.array(positions)
            reference = disk_csr(xy[:, 0], xy[:, 1], radius)
            assert np.array_equal(csr.indptr, reference.indptr)
            assert np.array_equal(csr.indices, reference.indices)
            if epoch % 10 == 0:
                # The bridged mesh is the scalar loop's disk snapshot
                # plus the bridges chosen over the scalar loop's
                # positions, to the byte.
                extra = bridged._bridges(reference, xy[:, 0], xy[:, 1])
                u, v = (np.array(extra, dtype=np.int64).reshape(-1, 2).T)
                expected_csr = CSRAdjacency.from_edge_lists(
                    np.concatenate([reference.edge_sources(), u, v]),
                    np.concatenate([reference.indices, v, u]), n,
                )
                assert csr_bytes(bridged.csr_at(epoch + 1)) == \
                    csr_bytes(expected_csr)
                assert nx.is_connected(bridged.graph_at(epoch + 1))

    def test_forward_csr_equals_the_replayed_epoch(self):
        params = dict(n=50, radius=0.2, step=0.05, tau=2, seed=3,
                      bridge=False)
        dg = GeometricMobilityGraph(**params)
        forward = {r: dg.csr_at(r) for r in range(1, 41, 3)}
        replay = GeometricMobilityGraph(**params)
        replay.csr_at(80)  # every round below is now a replay
        for r, csr in forward.items():
            again = replay.csr_at(r)
            assert np.array_equal(again.indptr, csr.indptr)
            assert np.array_equal(again.indices, csr.indices)


class TestDynamicMetrics:
    def test_static_max_degree(self):
        dg = StaticDynamicGraph(star(9))
        assert dynamic_max_degree(dg, horizon=100) == 8

    def test_relabeling_preserves_max_degree(self):
        dg = RelabelingAdversary(star(9), tau=1, seed=3)
        assert dynamic_max_degree(dg, horizon=10) == 8

    def test_dynamic_expansion_static_case(self):
        topo = cycle(12)
        dg = StaticDynamicGraph(topo)
        est = dynamic_expansion_estimate(dg, horizon=50)
        assert est == pytest.approx(topo.alpha)

    def test_dynamic_expansion_relabeling_invariant(self):
        topo = cycle(12)
        dg = RelabelingAdversary(topo, tau=2, seed=3)
        est = dynamic_expansion_estimate(dg, horizon=8)
        assert est == pytest.approx(topo.alpha)


class TestValidation:
    def test_n_too_small(self):
        with pytest.raises(ConfigurationError):
            GeometricMobilityGraph(n=1, radius=0.3, step=0.1, tau=1, seed=0)

    def test_tau_infinity_epoch(self):
        dg = StaticDynamicGraph(cycle(6))
        assert dg.tau == math.inf


class TestSpatialGridIdentity:
    """The cell grid's snapshot is pinned byte-identical to the blocked
    sweep's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("radius", [0.03, 0.1, 0.35])
    def test_grid_matches_blocked_sweep(self, seed, radius):
        rng = np.random.default_rng(seed)
        xs = rng.random(300)
        ys = rng.random(300)
        assert csr_bytes(disk_csr(xs, ys, radius)) == csr_bytes(
            blocked_csr(xs, ys, radius))

    def test_exact_ties_and_duplicates(self):
        # Lattice coordinates force coincident points and distances
        # exactly equal to the radius (the <= boundary).
        rng = np.random.default_rng(7)
        xs = rng.integers(0, 8, 120) / 8.0
        ys = rng.integers(0, 8, 120) / 8.0
        for radius in (0.125, 0.25):
            assert csr_bytes(disk_csr(xs, ys, radius)) == csr_bytes(
                blocked_csr(xs, ys, radius))

    def test_unit_square_boundary(self):
        xs = np.array([0.0, 1.0, 1.0, 0.5])
        ys = np.array([0.0, 1.0, 0.95, 0.5])
        csr = disk_csr(xs, ys, 0.2)
        assert csr.same_structure(blocked_csr(xs, ys, 0.2))
        assert csr.neighbors(1).tolist() == [2]

    def test_empty_and_singleton(self):
        empty = np.empty(0)
        assert disk_csr(empty, empty, 0.3).indices.size == 0
        one = np.array([0.5])
        assert disk_csr(one, one, 0.3).indices.size == 0

    def test_fastpath_gate_is_clean(self):
        # The same differential gate CI runs (bench_scale --quick).
        assert check_grid_identity() == []


def disk_graph(xs, ys, radius):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(xs)))
    graph.add_edges_from(zip(*(side.tolist() for side in
                               disk_edges_blocked(xs, ys, radius))))
    return graph


def component_labels(graph):
    label = np.empty(graph.number_of_nodes(), dtype=np.int64)
    for component, members in enumerate(nx.connected_components(graph)):
        label[list(members)] = component
    return label


def bridged_bytes(xs, ys, radius, bridges):
    u, v = disk_edges_blocked(xs, ys, radius)
    bu, bv = np.array(bridges, dtype=np.int64).reshape(-1, 2).T
    rows = np.concatenate([u, v, bu, bv])
    cols = np.concatenate([v, u, bv, bu])
    return csr_bytes(CSRAdjacency.from_edge_lists(rows, cols, len(xs)))


class TestBridges:
    """``spatial.bridges`` — Kruskal over the disk grid's cross pairs —
    picks the Prim loop's bridges."""

    @staticmethod
    def cloud(seed, clustered):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 161))
        if not clustered:
            return rng.random(n), rng.random(n)
        centers = rng.random((int(rng.integers(2, 7)), 2))
        points = centers[rng.integers(0, len(centers), n)]
        points = np.clip(points + rng.normal(0.0, 0.05, (n, 2)), 0.0, 1.0)
        return points[:, 0].copy(), points[:, 1].copy()

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_prim_loop(self, seed, clustered):
        xs, ys = self.cloud(seed, clustered)
        for radius in (0.06, 0.12, 0.25):
            graph = disk_graph(xs, ys, radius)
            label = component_labels(graph)
            actual = spatial.bridges(xs, ys, radius, label)
            expected = reference_bridges(graph, list(zip(xs, ys)))
            assert len(actual) == int(label.max())
            assert edge_set(actual) == edge_set(expected)
            assert bridged_bytes(xs, ys, radius, actual) == \
                bridged_bytes(xs, ys, radius, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lattice_ties_give_a_minimum_spanning_tree(self, seed):
        # Lattice coordinates: coincident points and many exact-distance
        # ties, where the choice of tree may differ but not its weight.
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 9, 70) / 8.0
        ys = rng.integers(0, 9, 70) / 8.0
        radius = 0.1
        graph = disk_graph(xs, ys, radius)
        label = component_labels(graph)
        actual = spatial.bridges(xs, ys, radius, label)
        assert len(actual) == int(label.max()) > 0
        bridged = disk_graph(xs, ys, radius)
        bridged.add_edges_from(actual)
        assert nx.is_connected(bridged)

        def weight(edges):
            return math.fsum((xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2
                             for u, v in edges)

        expected = reference_bridges(graph, list(zip(xs, ys)))
        assert weight(actual) == weight(expected)

    def test_a_tie_goes_to_the_smallest_d2_u_v(self):
        # Components {0, 1} and {2, 3}; the cross pairs (0, 3) and
        # (1, 2) are both exactly 0.25 apart, the others farther.
        xs = np.array([0.25, 0.25, 0.5, 0.5])
        ys = np.array([0.25, 0.375, 0.375, 0.25])
        label = np.array([0, 0, 1, 1])
        assert spatial.bridges(xs, ys, 0.15, label) == [(0, 3)]
        # Components {0}, {1}, {2, 3}: (0, 1), (0, 3) and (1, 2) are
        # all sqrt(17)/8 apart, a cycle over the three; (d2, v, u)
        # order would drop (0, 3) instead of (1, 2).
        xs = np.array([2, 1, 5, 6]) / 8.0
        ys = np.array([2, 6, 5, 3]) / 8.0
        label = np.array([0, 1, 2, 2])
        assert spatial.bridges(xs, ys, 0.3, label) == [(0, 1), (0, 3)]

    def test_one_component_needs_no_bridge(self):
        xs = np.array([0.1, 0.2, 0.3])
        assert spatial.bridges(xs, xs, 0.2, np.zeros(3, np.int64)) == []

    def test_a_tiny_radius_keeps_the_cell_grid_small(self, monkeypatch):
        # Radius 1e-4 would mean 10^4 cells a side; the grid stays at
        # isqrt(n) a side while the radius doubles up to the gaps.
        grids = []
        cells = spatial._cells

        def recording(xs, ys, radius):
            ncells, cell = cells(xs, ys, radius)
            grids.append(ncells)
            return ncells, cell

        monkeypatch.setattr(spatial, "_cells", recording)
        rng = np.random.default_rng(4)
        xs, ys = rng.random(50), rng.random(50)
        actual = spatial.bridges(xs, ys, 1e-4, np.arange(50))
        assert len(actual) == 49 and max(grids) <= math.isqrt(50)
        bridged = disk_graph(xs, ys, 1e-4)
        bridged.add_edges_from(actual)
        assert nx.is_connected(bridged)


class TestGeometricGridPaths:
    """The mobility graph's grid build equals the blocked reference."""

    def test_bridged_graphs_identical_under_blocked_reference(
        self, monkeypatch
    ):
        import repro.graphs.dynamic as dyn

        params = dict(n=24, radius=0.15, step=0.05, tau=1, seed=2)
        via_grid = GeometricMobilityGraph(**params)
        expected = {r: edges_at(via_grid, r) for r in range(1, 8)}
        assert via_grid.bridges_added > 0  # the radius fragments

        monkeypatch.setattr(dyn, "disk_csr", blocked_csr)
        via_blocked = GeometricMobilityGraph(**params)
        for r in range(1, 8):
            assert edges_at(via_blocked, r) == expected[r]
        assert via_blocked.bridges_added == via_grid.bridges_added

    def test_unbridged_csr_matches_blocked_reference(self):
        dg = GeometricMobilityGraph(n=30, radius=0.3, step=0.05, tau=2,
                                    seed=5, bridge=False)
        for r in (1, 3, 9, 1):  # includes an out-of-order replay
            xy = dg.positions_at(dg.epoch_of(r))
            assert dg.csr_at(r).same_structure(
                blocked_csr(xy[:, 0], xy[:, 1], dg.radius))
            assert dg.csr_at(r).same_structure(
                CSRAdjacency.from_graph(dg.graph_at(r)))

    def test_unbridged_mesh_may_fragment(self):
        dg = GeometricMobilityGraph(n=24, radius=0.1, step=0.05, tau=1,
                                    seed=2, bridge=False)
        assert dg.bridges_added == 0
        assert not nx.is_connected(dg.graph_at(1))
