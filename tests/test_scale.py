"""Tests for the million-node scale layer.

Covers the pieces that let one machine hold n = 10^6: the buffer arena
behind the array engine's per-round scratch, the object-path memory
guard, bounded traces, lazy per-node rng streams, the CSR-direct
ring-expander topology (and the registry bypasses that avoid building
nx graphs nobody reads), sharded streaming sweeps, and the benchmark
ledger's dirty-tree guard.  The byte-identity angles (int32 vs int64
CSR, grid vs blocked sweep) live in tests/test_adjacency.py and
tests/test_dynamic.py next to the code they pin.
"""

import importlib.util
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.errors import ConfigurationError, MemoryBudgetError
from repro.experiments import SweepSpec, build_dynamic_graph, run_sweep
from repro.experiments.results import ShardedRunLog, load_streamed
from repro.graphs.dynamic import (
    TAU_INFINITY,
    CSRStaticGraph,
    GeometricMobilityGraph,
    StaticDynamicGraph,
    ring_expander_graph,
)
from repro.graphs.topologies import cycle
from repro.rng import LazyStream, SeedTree
from repro.sim import engine as sim_engine
from repro.sim.adjacency import CSRAdjacency
from repro.sim.arena import BufferArena
from repro.sim.trace import RoundRecord, Trace


def streamable_base(n=64, **extra) -> dict:
    """A small sweep base exercising the same spec shape bench_scale
    streams at n = 10^6 (ring_expander family, bounded trace)."""
    base = {
        "algorithm": "sharedbit",
        "graph": {
            "family": "ring_expander",
            "params": {"n": n, "degree": 6, "seed": 1},
        },
        "dynamic": {"kind": "static"},
        "instance": {"kind": "uniform", "k": 1},
        "max_rounds": 500,
        "engine": {"trace_sample_every": 8, "trace_max_records": 64},
    }
    base.update(extra)
    return base


class TestBufferArena:
    def test_same_name_reuses_memory(self):
        arena = BufferArena()
        first = arena.take("tags", 16, np.int64)
        first[:] = 7
        again = arena.take("tags", 16, np.int64)
        assert again is first  # same memory, contents untouched
        assert again[0] == 7

    def test_shape_change_reallocates(self):
        arena = BufferArena()
        small = arena.take("tags", 8, np.int64)
        grown = arena.take("tags", 12, np.int64)
        assert grown is not small
        assert grown.shape == (12,)
        # The grown buffer becomes the cached one.
        assert arena.take("tags", 12, np.int64) is grown

    def test_dtype_change_reallocates(self):
        arena = BufferArena()
        wide = arena.take("mask", 8, np.int64)
        narrow = arena.take("mask", 8, np.bool_)
        assert narrow is not wide
        assert narrow.dtype == np.bool_

    def test_names_never_alias(self):
        arena = BufferArena()
        a = arena.take("a", 8, np.int64)
        b = arena.take("b", 8, np.int64)
        assert a is not b
        assert len(arena) == 2

    def test_nbytes_accounts_held_buffers(self):
        arena = BufferArena()
        arena.take("a", 4, np.int64)
        arena.take("b", 8, np.int32)
        assert arena.nbytes() == 4 * 8 + 8 * 4

    def test_tuple_shapes(self):
        arena = BufferArena()
        grid = arena.take("grid", (3, 5), np.float64)
        assert grid.shape == (3, 5)
        assert arena.take("grid", (3, 5), np.float64) is grid


class TestRoundBuffer:
    def _bound(self, arena=None):
        csr = CSRAdjacency.from_graph(cycle(6).graph)
        return csr.bind_uids(np.arange(100, 106, dtype=np.int64),
                             arena=arena)

    def test_without_arena_allocates_fresh(self):
        bound = self._bound(arena=None)
        a = bound.round_buffer("x", 6, np.int64, fill=0)
        b = bound.round_buffer("x", 6, np.int64, fill=0)
        assert a is not b
        assert a.tolist() == [0] * 6

    def test_with_arena_reuses_and_refills(self):
        bound = self._bound(arena=BufferArena())
        a = bound.round_buffer("x", 6, np.int64, fill=-1)
        a[:] = 9
        b = bound.round_buffer("x", 6, np.int64, fill=-1)
        assert b is a
        assert b.tolist() == [-1] * 6  # fill re-applied every round

    def test_no_fill_leaves_contents(self):
        bound = self._bound(arena=BufferArena())
        a = bound.round_buffer("x", 6, np.int64)
        a[:] = 5
        b = bound.round_buffer("x", 6, np.int64)
        assert b is a and b.tolist() == [5] * 6


class TestMemoryBudgetGuard:
    @pytest.fixture(autouse=True)
    def _small_budget(self, monkeypatch):
        # The guard reads the constant at construction: n = 8 is over it.
        monkeypatch.setattr(sim_engine, "OBJECT_PATH_MAX_N", 4)

    def _run(self, **kwargs):
        graph = StaticDynamicGraph(cycle(8))
        instance = uniform_instance(n=8, k=1, seed=0)
        return run_gossip("sharedbit", graph, instance, seed=1,
                          max_rounds=2000, termination_every=8, **kwargs)

    def test_object_path_over_budget_raises(self):
        with pytest.raises(MemoryBudgetError, match="MB"):
            self._run(engine_mode="object")

    def test_error_is_catchable_generically(self):
        with pytest.raises(ValueError):
            self._run(engine_mode="object")
        with pytest.raises(ConfigurationError):
            self._run(engine_mode="object")

    def test_auto_resolves_to_array_and_never_trips(self):
        # auto at a size past the budget elects the array path, so the
        # guard (which prices the *object* path) must not fire.
        result = self._run(engine_mode="auto")
        assert result.rounds > 0

    def test_raising_the_constant_moves_the_guard(self, monkeypatch):
        monkeypatch.setattr(sim_engine, "OBJECT_PATH_MAX_N", 8)
        result = self._run(engine_mode="object")
        assert result.rounds > 0

    def test_message_names_the_escape_hatches(self):
        with pytest.raises(MemoryBudgetError,
                           match="OBJECT_PATH_MAX_N.*at least 8"):
            self._run(engine_mode="object")


class TestTraceBoundedMemory:
    @staticmethod
    def _fill(trace: Trace, rounds: int, gauge_at: int | None = None):
        for r in range(1, rounds + 1):
            gauges = {"coverage": 0.5} if r == gauge_at else {}
            trace.record(RoundRecord(
                round_index=r, proposals=1, connections=1,
                tokens_moved=0, control_bits=0, gauges=gauges,
            ))

    def test_thins_to_bound(self):
        trace = Trace(sample_every=1, max_records=8)
        self._fill(trace, 100)
        assert len(trace.records) <= 8
        # sample_every widened by doublings; the kept set is exactly
        # what that final rate would have kept from the start.
        rate = trace.sample_every
        assert rate > 1 and (rate & (rate - 1)) == 0
        kept = [rec.round_index for rec in trace.records]
        assert kept == sorted({1} | {r for r in range(1, 101)
                                     if r % rate == 0})

    def test_thinning_is_arrival_independent(self):
        # A bound hit early and a bound hit late converge on the same
        # record set — rates divide their successors.
        tight = Trace(sample_every=1, max_records=4)
        loose = Trace(sample_every=1, max_records=12)
        self._fill(tight, 200)
        self._fill(loose, 200)
        tight_rounds = {rec.round_index for rec in tight.records}
        loose_rounds = {rec.round_index for rec in loose.records}
        assert tight_rounds <= loose_rounds

    def test_round_one_and_gauges_survive(self):
        trace = Trace(sample_every=1, max_records=6)
        self._fill(trace, 150, gauge_at=37)
        kept = [rec.round_index for rec in trace.records]
        assert 1 in kept
        assert 37 in kept  # gauge-carrying record is an unconditional keep

    def test_totals_stay_exact(self):
        trace = Trace(sample_every=1, max_records=4)
        self._fill(trace, 100)
        assert trace.total_rounds == 100
        assert trace.total_proposals == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(max_records=0)
        Trace(max_records=None)  # explicit None is fine

    def test_engine_threads_the_bound(self):
        graph = StaticDynamicGraph(cycle(8))
        instance = uniform_instance(n=8, k=2, seed=3)
        result = run_gossip(
            "sharedbit", graph, instance, seed=1, max_rounds=5000,
            trace_sample_every=1, trace_max_records=16,
            termination_every=8,
        )
        trace = result.trace
        assert len(trace.records) <= 16
        assert trace.total_rounds == result.rounds


class TestLazyStream:
    def test_draws_match_eager_stream(self):
        eager = SeedTree(5).stream("node", 3)
        lazy = LazyStream(5, ("node", 3))
        assert [eager.random() for _ in range(4)] == \
               [lazy.random() for _ in range(4)]
        assert eager.getrandbits(16) == lazy.getrandbits(16)
        assert eager.randrange(1000) == lazy.randrange(1000)

    def test_materializes_only_on_use(self):
        stream = LazyStream(5, ("node", 3))
        assert "_rng" not in vars(stream)  # construction is free
        first = stream.random()
        rng = vars(stream)["_rng"]
        stream.random()
        assert vars(stream)["_rng"] is rng  # built exactly once
        assert first == SeedTree(5).stream("node", 3).random()

    def test_under_names_a_subtree_stream(self):
        tree = SeedTree(5).child("population")
        root, path = LazyStream.under(tree, "node")
        assert LazyStream(root, path + (3,)).random() == \
               tree.stream("node", 3).random()

    def test_bound_methods_cached(self):
        lazy = LazyStream(5, ("node", 0))
        first = lazy.random
        assert lazy.random is first  # no __getattr__ round trip after 1st

    def test_distinct_paths_distinct_streams(self):
        a = LazyStream(5, ("node", 0))
        b = LazyStream(5, ("node", 1))
        assert a.random() != b.random()


class TestRingExpander:
    def test_csr_direct_and_int32(self):
        graph = ring_expander_graph(200, degree=6, seed=1)
        assert isinstance(graph, CSRStaticGraph)
        csr = graph.csr_at(1)
        assert csr.indptr.dtype == np.int32
        assert csr.indices.dtype == np.int32
        assert graph.tau == TAU_INFINITY

    def test_connected_and_near_regular(self):
        graph = ring_expander_graph(300, degree=6, seed=2)
        nxg = graph.graph_at(1)
        assert nx.is_connected(nxg)
        degrees = graph.csr_at(1).degrees
        # Union of 3 Hamiltonian cycles: degree 6 minus rare collisions.
        assert degrees.max() <= 6
        assert degrees.mean() > 5.5

    def test_nx_fallback_matches_csr(self):
        graph = ring_expander_graph(64, degree=4, seed=3)
        rebuilt = CSRAdjacency.from_graph(graph.graph_at(1))
        assert graph.csr_at(1).same_structure(rebuilt)

    def test_csr_dtype_recast(self):
        graph = ring_expander_graph(64, degree=4, seed=3)
        narrow = graph.csr_at(1)
        graph.csr_dtype = np.dtype(np.int64)
        wide = graph.csr_at(1)
        assert wide.indices.dtype == np.int64
        assert np.array_equal(wide.indptr, narrow.indptr)
        assert np.array_equal(wide.indices, narrow.indices)

    def test_determinism(self):
        a = ring_expander_graph(100, degree=6, seed=9)
        b = ring_expander_graph(100, degree=6, seed=9)
        assert a.csr_at(1).same_structure(b.csr_at(1))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ring_expander_graph(2)
        with pytest.raises(ConfigurationError):
            ring_expander_graph(10, degree=3)  # odd
        with pytest.raises(ConfigurationError):
            ring_expander_graph(6, degree=6)  # degree >= n


class TestRegistryBypasses:
    def test_ring_expander_static_skips_nx(self, monkeypatch):
        import repro.experiments.specs as specs

        def forbidden(graph_spec):
            raise AssertionError(f"built an nx topology for {graph_spec}")

        monkeypatch.setattr(specs, "build_topology", forbidden)
        graph = build_dynamic_graph(
            {"family": "ring_expander",
             "params": {"n": 64, "degree": 6, "seed": 1}},
            {"kind": "static"}, seed=9,
        )
        assert isinstance(graph, CSRStaticGraph)

    def test_topology_free_dynamics_skip_nx(self, monkeypatch):
        import repro.experiments.specs as specs

        def forbidden(graph_spec):
            raise AssertionError(f"built an nx topology for {graph_spec}")

        monkeypatch.setattr(specs, "build_topology", forbidden)
        graph = build_dynamic_graph(
            {"family": "expander", "params": {"n": 40, "degree": 4,
                                              "seed": 1}},
            {"kind": "geometric", "radius": 0.3, "step": 0.05, "tau": 2},
            seed=3,
        )
        assert isinstance(graph, GeometricMobilityGraph)
        assert graph.n == 40

    def test_bypass_matches_general_path(self):
        # The shim must be behavior-preserving: same dynamic graph as
        # the build that materializes the (ignored) nx topology.
        spec = {"family": "expander",
                "params": {"n": 24, "degree": 4, "seed": 1}}
        dyn = {"kind": "geometric", "radius": 0.35, "step": 0.05, "tau": 1}
        via_shim = build_dynamic_graph(spec, dyn, seed=3)
        via_topo = GeometricMobilityGraph(
            n=24, radius=0.35, step=0.05, tau=1, seed=3)
        for r in (1, 3, 7):
            assert set(via_shim.graph_at(r).edges) == \
                   set(via_topo.graph_at(r).edges)

    def test_bad_build_dynamic_params_rejected(self):
        with pytest.raises(ConfigurationError, match="ring_expander"):
            build_dynamic_graph(
                {"family": "ring_expander",
                 "params": {"n": 64, "bogus": 1}},
                {"kind": "static"}, seed=9,
            )


class TestStreamedSweeps:
    def _spec(self, **kwargs) -> SweepSpec:
        defaults = dict(
            name="stream-test",
            base=streamable_base(),
            grid={"instance.k": [1, 2]},
            seeds=(11, 23),
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_streamed_aggregation_byte_identical(self, tmp_path):
        spec = self._spec()
        in_memory = run_sweep(spec)
        streamed = run_sweep(spec, stream_to=tmp_path / "stream")
        assert in_memory.to_json() == streamed.to_json()

    def test_stream_layout_on_disk(self, tmp_path):
        spec = self._spec()
        run_sweep(spec, stream_to=tmp_path / "s")
        index = json.loads((tmp_path / "s" / "index.json").read_text())
        assert index["total_runs"] == len(spec.runs())
        assert index["sweep_hash"] == spec.spec_hash()
        for shard in index["shards"]:
            assert (tmp_path / "s" / shard).exists()

    def test_stale_shards_truncated(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / "shard-99999.jsonl").write_text("junk\n")
        (target / "index.json").write_text("{}")
        run_sweep(self._spec(), stream_to=target)
        assert not (target / "shard-99999.jsonl").exists()
        assert json.loads((target / "index.json").read_text())["total_runs"]

    def test_cached_runs_also_stream(self, tmp_path):
        spec = self._spec()
        baseline = run_sweep(spec, cache_dir=tmp_path / "cache")
        # Second sweep is all cache hits; they must still stream.
        streamed = run_sweep(spec, cache_dir=tmp_path / "cache",
                             stream_to=tmp_path / "s")
        assert baseline.to_json() == streamed.to_json()
        index = json.loads((tmp_path / "s" / "index.json").read_text())
        assert index["total_runs"] == len(spec.runs())

    def test_shard_rollover(self, tmp_path):
        spec = self._spec()
        log = ShardedRunLog(tmp_path / "s", shard_size=2)
        for i in range(5):
            log.append(i, {"rounds": i})
        log.finalize(spec)
        index = json.loads((tmp_path / "s" / "index.json").read_text())
        assert len(index["shards"]) == 3
        # finalize records the true count even when it disagrees with
        # the spec; load_streamed is where completeness is enforced.
        assert index["total_runs"] == 5
        records = load_streamed(tmp_path / "s")
        assert records == {i: {"rounds": i} for i in range(5)}

    def test_load_streamed_missing_stream(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no sealed stream"):
            load_streamed(tmp_path / "nothing")

    def test_load_streamed_wrong_format(self, tmp_path):
        (tmp_path / "index.json").write_text('{"format": 999}')
        with pytest.raises(ConfigurationError, match="format"):
            load_streamed(tmp_path)

    def test_load_streamed_incomplete(self, tmp_path):
        spec = self._spec()
        target = tmp_path / "s"
        run_sweep(spec, stream_to=target)
        index = json.loads((target / "index.json").read_text())
        shard = target / index["shards"][0]
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigurationError, match="incomplete"):
            load_streamed(target)

    def test_shard_size_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedRunLog(tmp_path / "s", shard_size=0)


def _load_bench_common():
    path = Path(__file__).resolve().parent.parent / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "bench_common_under_test", path / "_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDirtyTreeGuard:
    @pytest.fixture()
    def common(self):
        return _load_bench_common()

    @staticmethod
    def _stamp(rev):
        return lambda: {"git_rev": rev, "date": "2026-08-07"}

    def test_dirty_rev_refused(self, common, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "_provenance",
                            self._stamp("abc1234-dirty"))
        ledger = tmp_path / "BENCH_test.json"
        with pytest.raises(common.DirtyTreeError, match="allow-dirty"):
            common.record_bench("t:case", {"rounds": 1}, path=ledger)
        assert not ledger.exists()  # refused before any write

    def test_allow_dirty_overrides(self, common, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "_provenance",
                            self._stamp("abc1234-dirty"))
        ledger = tmp_path / "BENCH_test.json"
        common.record_bench("t:case", {"rounds": 1}, allow_dirty=True,
                            path=ledger)
        data = json.loads(ledger.read_text())
        assert data["t:case"]["git_rev"] == "abc1234-dirty"

    def test_clean_rev_records(self, common, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "_provenance", self._stamp("abc1234"))
        ledger = tmp_path / "BENCH_test.json"
        common.record_bench("t:case", {"rounds": 2}, path=ledger)
        data = json.loads(ledger.read_text())
        assert data["t:case"]["rounds"] == 2
        assert data["t:case"]["git_rev"] == "abc1234"
        assert data["t:case"]["date"] == "2026-08-07"

    def test_dirty_error_is_runtime_error(self, common):
        assert issubclass(common.DirtyTreeError, RuntimeError)
