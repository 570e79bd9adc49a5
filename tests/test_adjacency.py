"""Tests for CSR adjacency snapshots and the ``csr_at`` dynamics hook."""

import gc
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graphs.dynamic import (
    GeometricMobilityGraph,
    PeriodicRewireGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
)
from repro.graphs.topologies import cycle, expander, path, star
from repro.sim.adjacency import CSRAdjacency, index_dtype_for
from repro.sim.faults import CrashChurn


def assert_matches_graph(csr: CSRAdjacency, graph) -> None:
    assert csr.n == graph.number_of_nodes()
    for vertex in range(csr.n):
        assert csr.neighbors(vertex).tolist() == sorted(graph.adj[vertex])


class TestFromGraph:
    def test_star_rows(self):
        csr = CSRAdjacency.from_graph(star(5).graph)
        assert csr.neighbors(0).tolist() == [1, 2, 3, 4]
        for leaf in range(1, 5):
            assert csr.neighbors(leaf).tolist() == [0]
        assert csr.degrees.tolist() == [4, 1, 1, 1, 1]

    def test_rows_sorted_by_vertex(self):
        graph = expander(24, degree=4, seed=2).graph
        csr = CSRAdjacency.from_graph(graph)
        assert_matches_graph(csr, graph)

    def test_edge_sources(self):
        csr = CSRAdjacency.from_graph(path(3).graph)
        assert csr.edge_sources().tolist() == [0, 1, 1, 2]

    def test_equality_is_identity(self):
        # eq=False: dataclass-generated == over array fields would raise;
        # snapshots compare by identity, same_structure() by content.
        a = CSRAdjacency.from_graph(star(4).graph)
        b = CSRAdjacency.from_graph(star(4).graph)
        assert a == a
        assert a != b
        assert a.same_structure(b)

    def test_from_edge_lists_matches_from_graph(self):
        graph = expander(16, degree=4, seed=5).graph
        direct = CSRAdjacency.from_graph(graph)
        sources, targets = [], []
        for u, v in graph.edges:
            sources += [u, v]
            targets += [v, u]
        rebuilt = CSRAdjacency.from_edge_lists(sources, targets, 16)
        assert direct.same_structure(rebuilt)


class TestBindUids:
    def test_uid_translation(self):
        csr = CSRAdjacency.from_graph(star(4).graph)
        bound = csr.bind_uids(np.array([10, 20, 30, 40]))
        assert bound.base is csr
        assert bound.uids[bound.indptr[0]:bound.indptr[1]].tolist() == \
            [20, 30, 40]


class TestCsrAtHook:
    def test_static_snapshot_cached_per_epoch(self):
        dynamic = StaticDynamicGraph(cycle(6))
        first = dynamic.csr_at(1)
        assert dynamic.csr_at(50) is first
        assert_matches_graph(first, dynamic.graph_at(1))

    def test_periodic_rewire_matches_graph_at(self):
        dynamic = PeriodicRewireGraph.resampled_regular(
            n=12, degree=3, tau=4, seed=9
        )
        for round_index in (1, 4, 5, 9):
            assert_matches_graph(
                dynamic.csr_at(round_index), dynamic.graph_at(round_index)
            )

    def test_relabeling_arrays_match_relabel_nodes(self):
        # The adversary permutes the base shape's CSR arrays; every
        # epoch must be nx.relabel_nodes of the shape under that epoch's
        # shuffled labels.
        import networkx as nx

        from repro.rng import SeedTree

        topology = expander(18, degree=4, seed=1)
        dynamic = RelabelingAdversary(topology, tau=2, seed=13)
        tree = SeedTree(13).child("relabeling")
        for round_index in (1, 2, 3, 5, 7):
            labels = list(range(18))
            tree.stream("epoch", dynamic.epoch_of(round_index)).shuffle(labels)
            assert_matches_graph(
                dynamic.csr_at(round_index),
                nx.relabel_nodes(topology.graph, dict(enumerate(labels))),
            )

    def test_relabeling_csr_changes_across_epochs(self):
        dynamic = RelabelingAdversary(star(10), tau=1, seed=3)
        assert not dynamic.csr_at(1).same_structure(dynamic.csr_at(2))

    def test_geometric_matches_graph_at(self):
        dynamic = GeometricMobilityGraph(n=20, radius=0.4, step=0.05,
                                         tau=2, seed=5)
        for round_index in (1, 3, 5):
            assert_matches_graph(
                dynamic.csr_at(round_index), dynamic.graph_at(round_index)
            )


class TestGeometricVectorizedBuild:
    def test_disk_edges_match_bruteforce(self):
        dynamic = GeometricMobilityGraph(n=30, radius=0.3, step=0.05,
                                         tau=1, seed=8)
        graph = dynamic.graph_at(1)
        positions = dynamic._positions
        r2 = dynamic.radius ** 2
        expected = set()
        for i in range(30):
            xi, yi = positions[i]
            for j in range(i + 1, 30):
                xj, yj = positions[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                    expected.add((i, j))
        proximity = {
            tuple(sorted(edge)) for edge in graph.edges
        }
        # Every brute-force edge is present; anything extra is a bridge.
        assert expected <= proximity
        assert len(proximity) - len(expected) == dynamic.bridges_added


class TestIndexDtype:
    """int32 vs int64 CSR layout: the width is a storage detail only."""

    def test_small_snapshots_narrow_to_int32(self):
        assert index_dtype_for(1000) == np.int32
        assert index_dtype_for(1000, nnz=6000) == np.int32

    def test_overflow_boundary_on_n(self):
        limit = np.iinfo(np.int32).max
        assert index_dtype_for(limit) == np.int32
        assert index_dtype_for(limit + 1) == np.int64

    def test_overflow_boundary_on_nnz(self):
        # indptr's last entry is the edge count: it must fit too, even
        # when every vertex id does.
        limit = np.iinfo(np.int32).max
        assert index_dtype_for(1000, nnz=limit) == np.int32
        assert index_dtype_for(1000, nnz=limit + 1) == np.int64

    def test_from_graph_picks_narrow_by_default(self):
        csr = CSRAdjacency.from_graph(expander(24, degree=4, seed=2).graph)
        assert csr.indptr.dtype == np.int32
        assert csr.indices.dtype == np.int32

    def test_explicit_dtype_respected(self):
        graph = expander(24, degree=4, seed=2).graph
        wide = CSRAdjacency.from_graph(graph, dtype=np.int64)
        assert wide.indices.dtype == np.int64
        assert_matches_graph(wide, graph)

    @given(
        n=st.integers(min_value=2, max_value=24),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_int32_int64_structural_parity(self, n, data):
        # Property: on any edge set, the two widths produce snapshots
        # with identical structure — same indptr/indices values, same
        # rows, same edge sources; only the storage width differs.
        pairs = data.draw(
            st.sets(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ).filter(lambda uv: uv[0] != uv[1]).map(
                    lambda uv: (min(uv), max(uv))
                ),
                max_size=40,
            )
        )
        sources = [u for u, v in pairs] + [v for u, v in pairs]
        targets = [v for u, v in pairs] + [u for u, v in pairs]
        narrow = CSRAdjacency.from_edge_lists(sources, targets, n,
                                              dtype=np.int32)
        wide = CSRAdjacency.from_edge_lists(sources, targets, n,
                                            dtype=np.int64)
        assert narrow.indptr.dtype == np.int32
        assert wide.indptr.dtype == np.int64
        assert np.array_equal(narrow.indptr, wide.indptr)
        assert np.array_equal(narrow.indices, wide.indices)
        assert np.array_equal(narrow.edge_sources(), wide.edge_sources())
        for vertex in range(n):
            assert narrow.neighbors(vertex).tolist() == \
                   wide.neighbors(vertex).tolist()


class TestFromEdgeListsValidation:
    """Bad edge lists are a ConfigurationError, never a traceback or a
    silently aliased row (keys pack as ``source * n + target``)."""

    @pytest.mark.parametrize("sources, targets", [
        ([-1, 1], [1, 0]),      # negative source
        ([0, 1], [1, -1]),      # negative target
        ([0, 4], [1, 0]),       # source == n
        ([0, 1], [1, 7]),       # target > n: would alias into row 2
    ])
    def test_endpoint_outside_vertex_range(self, sources, targets):
        with pytest.raises(ConfigurationError, match="outside the vertex"):
            CSRAdjacency.from_edge_lists(sources, targets, 4)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="differ in length"):
            CSRAdjacency.from_edge_lists([0, 1, 2], [1, 0], 4)

    def test_key_overflow(self):
        with pytest.raises(ConfigurationError, match="overflow"):
            CSRAdjacency.from_edge_lists([], [], 2**32)

    def test_empty_and_unsorted_input(self):
        empty = CSRAdjacency.from_edge_lists([], [], 3)
        assert empty.indptr.tolist() == [0, 0, 0, 0]
        assert empty.indices.size == 0
        csr = CSRAdjacency.from_edge_lists([2, 0, 0, 1], [0, 2, 1, 0], 3)
        assert csr.indptr.tolist() == [0, 2, 3, 4]
        assert csr.indices.tolist() == [1, 2, 0, 0]

    def test_caller_arrays_untouched(self):
        sources = np.array([2, 0, 0, 1], dtype=np.int64)
        targets = np.array([0, 2, 1, 0], dtype=np.int64)
        CSRAdjacency.from_edge_lists(sources, targets, 3)
        assert sources.tolist() == [2, 0, 0, 1]
        assert targets.tolist() == [0, 2, 1, 0]


class TestMaskedBoundEdgeSources:
    """The masked snapshot carries its per-edge sources from the mask
    pass instead of leaving the engine to rebuild them."""

    @pytest.mark.parametrize("asleep", [
        [], [0], [2, 7], [0, 1, 2, 3, 4, 5], list(range(12)),
    ])
    def test_carried_sources_equal_the_lazy_rebuild(self, asleep):
        csr = CSRAdjacency.from_graph(expander(12, degree=4, seed=3).graph)
        bound = csr.bind_uids(np.arange(100, 112))
        active = np.ones(12, dtype=bool)
        active[asleep] = False
        masked = bound.masked_bound(active)
        assert masked._edge_sources is not None
        expected = np.repeat(np.arange(12), masked.degrees)
        assert np.array_equal(masked.edge_sources(), expected)
        assert masked.edge_sources().dtype == masked.indices.dtype
        # Both endpoints of every kept edge are awake; sleepers and any
        # vertex left with only sleeping neighbors have empty rows.
        assert active[masked.edge_sources()].all()
        assert active[masked.indices].all()
        assert (masked.degrees[asleep] == 0).all()

    def test_star_hub_asleep_leaves_every_row_empty(self):
        bound = CSRAdjacency.from_graph(star(6).graph).bind_uids(
            np.arange(6))
        active = np.ones(6, dtype=bool)
        active[0] = False
        masked = bound.masked_bound(active)
        assert masked.degrees.tolist() == [0] * 6
        assert masked.edge_sources().size == 0


class TestCandidateRows:
    """``candidate_rows`` is the per-row reference it replaced: each
    eligible vertex in ascending order, its candidate UIDs sorted."""

    @staticmethod
    def _reference(snapshot, tags, source_tag, neighbor_tag):
        rows = []
        for vertex in range(snapshot.n):
            start, end = snapshot.indptr[vertex:vertex + 2]
            if tags[vertex] != source_tag:
                continue
            uids = snapshot.uids[start:end]
            uids = np.sort(uids[tags[snapshot.indices[start:end]]
                                == neighbor_tag])
            if uids.size:
                rows.append((vertex, uids.tolist()))
        return rows

    @given(seed=st.integers(0, 2**16), n=st.integers(6, 40),
           tag_seed=st.integers(0, 2**16), asleep=st.floats(0, 0.9),
           tag_pair=st.sampled_from([(1, 0), (0, 1), (1, 1)]),
           # Keys pack (source, UID rank), so UIDs of any width fit:
           # those near 2^63 sort like small ones.
           uid_floor=st.sampled_from([1, 2**62, 2**63 - 10**4]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_row_reference(self, seed, n, tag_seed, asleep,
                                          tag_pair, uid_floor):
        rng = np.random.default_rng(tag_seed)
        csr = CSRAdjacency.from_graph(
            expander(n, degree=4, seed=seed).graph)
        uids = uid_floor + rng.permutation(10 * n)[:n].astype(np.int64)
        bound = csr.bind_uids(uids)
        active = rng.random(n) >= asleep
        tags = rng.integers(0, 2, n).astype(np.int64)
        for snapshot in (bound, bound.masked_bound(active)):
            vertices, bounds, got = snapshot.candidate_rows(tags, *tag_pair)
            rows = [(vertex, got[start:end].tolist())
                    for vertex, start, end in zip(
                        vertices.tolist(), bounds.tolist(),
                        bounds[1:].tolist())]
            assert rows == self._reference(snapshot, tags, *tag_pair)
            assert bounds[0] == 0 and bounds[-1] == got.size

    def test_masks_share_their_binding_ranking(self):
        bound = CSRAdjacency.from_graph(
            expander(12, degree=4, seed=3).graph).bind_uids(
                np.arange(12)[::-1] * 7)
        masked = bound.masked_bound(np.arange(12) % 3 > 0)
        order, rank = masked.uid_ranking()
        assert bound.uid_ranking()[0] is order
        assert (bound.vertex_uids[order] == np.arange(12) * 7).all()
        assert (rank[order] == np.arange(12)).all()
        # A binding given no memo keeps its own...
        other = bound.base.bind_uids(bound.vertex_uids)
        assert other.uid_ranking()[0] is not order
        # ...and bindings given their owner's memo share one sort.
        ranking = {}
        first = bound.base.bind_uids(bound.vertex_uids, ranking=ranking)
        second = CSRAdjacency.from_graph(cycle(12).graph).bind_uids(
            bound.vertex_uids, ranking=ranking)
        order = first.uid_ranking()[0]
        assert second.uid_ranking()[0] is order
        assert second.masked_bound(np.arange(12) % 2 > 0).uid_ranking()[0] \
            is order

    def test_a_relabeled_run_sorts_its_uids_once(self):
        from repro.core.problem import uniform_instance
        from repro.core.runner import build_nodes
        from repro.registry import ALGORITHM_REGISTRY
        from repro.sim.channel import ChannelPolicy
        from repro.sim.engine import Simulation

        instance = uniform_instance(n=16, k=2, seed=3)
        defn = ALGORITHM_REGISTRY.get("sharedbit")
        sim = Simulation(
            RelabelingAdversary(star(16), tau=1, seed=3),
            build_nodes("sharedbit", instance, seed=3),
            b=defn.resolve_tag_length(defn.make_config()), seed=3,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            faults=CrashChurn(16, 3), engine_mode="array",
        )
        bindings, orders = [], []
        for _ in range(4):
            sim.step()
            bound = sim._csr_bound
            bindings.append(bound)
            orders.append(bound.uid_ranking()[0])
            active = np.arange(16) % 3 > 0
            orders.append(bound.masked_bound(active).uid_ranking()[0])
        assert len({id(bound) for bound in bindings}) == 4
        assert all(order is orders[0] for order in orders)

    def test_no_candidates(self):
        bound = CSRAdjacency.from_graph(star(6).graph).bind_uids(
            np.arange(6))
        vertices, bounds, uids = bound.candidate_rows(np.ones(6, np.int64))
        assert vertices.size == 0 and uids.size == 0
        assert bounds.tolist() == [0]


class TestRowCache:
    """``row`` hands out a snapshot's rows as Python objects, filled on
    first use and owned by the snapshot."""

    def test_rows_equal_the_array_slices(self):
        bound = CSRAdjacency.from_graph(
            expander(12, degree=4, seed=3).graph).bind_uids(
            np.arange(100, 112))
        active = np.ones(12, dtype=bool)
        active[[2, 7]] = False
        for snapshot in (bound, bound.masked_bound(active)):
            for vertex in range(12):
                start, end = snapshot.indptr[vertex:vertex + 2]
                uids, vertices = snapshot.row(vertex)
                assert uids == tuple(snapshot.uids[start:end].tolist())
                assert vertices == snapshot.indices[start:end].tolist()
                assert all(type(uid) is int for uid in uids)
                assert snapshot.row(vertex) is snapshot.row(vertex)
        masked = bound.masked_bound(active)
        assert masked.row(2) == masked.row(7) == ((), [])
        assert bound.row(2) != ((), [])

    def test_evicted_masked_snapshot_takes_its_rows_along(self):
        n, keep = 24, 8
        graph = StaticDynamicGraph(expander(n, degree=4, seed=1))
        bound = graph.csr_at(1).bind_uids(np.arange(1, n + 1))
        churn = CrashChurn(n, seed=5, cycle=4, crash_prob=0.5,
                           min_outage=1, max_outage=3)
        masks = {}
        for rnd in range(1, 200):
            mask = churn.active_mask(rnd)
            if mask is not None:
                masks.setdefault(mask.tobytes(), mask)
        assert len(masks) > keep
        first, *later = masks.values()
        masked = bound.masked_bound(first, keep=keep)
        rows = [masked.row(vertex) for vertex in range(n)]
        assert ((), []) in rows
        held = sys.getrefcount(rows[0])
        collected = weakref.ref(masked)
        del masked
        for mask in later:
            bound.masked_bound(mask, keep=keep).row(0)
        gc.collect()
        assert collected() is None
        left = sys.getrefcount(rows[0])
        assert left == held - 1   # the snapshot's reference is gone
        assert len(bound._masked_memo) == keep
        assert bound._rows is None   # the masked rows lived on their own
