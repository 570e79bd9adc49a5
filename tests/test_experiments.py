"""Tests for the experiment orchestration layer (repro.experiments)."""

import copy
import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.errors import ConfigurationError
from repro.experiments import (
    CROWDEDBIN_TAU_NOTE,
    PointSummary,
    ResultCache,
    RunSpec,
    SweepResult,
    SweepSpec,
    build_config,
    build_dynamic_graph,
    build_instance,
    build_topology,
    execute_run,
    normalize_payload,
    percentile,
    run_hash,
    run_sweep,
)
from repro.experiments import specs as specs_module
from repro.experiments.results import RESULT_FORMAT
from repro.graphs.dynamic import (
    RelabelingAdversary,
    StaticDynamicGraph,
    TAU_INFINITY,
)

#: The paper's figures as sweep specs, each beside its committed table.
FIGURES = Path(__file__).resolve().parent.parent / "examples/specs/figures"


def tiny_base(algorithm="sharedbit", **extra) -> dict:
    base = {
        "algorithm": algorithm,
        "graph": {"family": "cycle", "params": {"n": 8}},
        "dynamic": {"kind": "static"},
        "instance": {"kind": "uniform", "k": 2},
        "max_rounds": 30_000,
        "engine": {"trace_sample_every": 1024},
    }
    base.update(extra)
    return base


class TestRunSpec:
    def test_payload_round_trip(self):
        spec = RunSpec.from_payload(dict(tiny_base(), seed=7))
        again = RunSpec.from_payload(spec.to_payload())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_hash_ignores_key_order(self):
        payload = dict(tiny_base(), seed=7)
        shuffled = dict(reversed(list(payload.items())))
        assert run_hash(payload) == run_hash(shuffled)

    def test_hash_sensitive_to_values(self):
        a = dict(tiny_base(), seed=7)
        b = dict(tiny_base(), seed=8)
        assert run_hash(a) != run_hash(b)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_payload(dict(tiny_base(algorithm="nope"), seed=1))

    def test_rejects_unknown_topology(self):
        payload = dict(tiny_base(), seed=1)
        payload["graph"] = {"family": "torus", "params": {}}
        with pytest.raises(ConfigurationError):
            RunSpec.from_payload(payload)

    def test_rejects_unknown_engine_keys(self):
        payload = dict(tiny_base(), seed=1)
        payload["engine"] = {"sample": 2}
        with pytest.raises(ConfigurationError):
            RunSpec.from_payload(payload)

    def test_rejects_unknown_payload_keys(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_payload(dict(tiny_base(), seed=1, wat=True))

    @pytest.mark.parametrize("block", [
        {"dynamic": {"kind": "relabeling", "tau": True}},
        {"instance": {"kind": "uniform", "k": True}},
        {"instance": {"kind": "skewed", "k": True}},
    ])
    def test_a_bool_is_not_an_integer(self, block):
        with pytest.raises(ConfigurationError):
            execute_run(dict(tiny_base(**block), seed=1))

    @pytest.mark.parametrize("n", [10**9, 10**12])
    def test_a_size_beyond_physical_memory_is_refused(self, n, monkeypatch):
        monkeypatch.setattr(specs_module, "physical_memory",
                            lambda: 8 * 2**30)
        with pytest.raises(ConfigurationError,
                           match=rf"n={n} needs at least [\d,.]+ GiB "
                                 r"\(256 B per vertex\), more than the "
                                 r"8\.0 GiB"):
            specs_module.check_size_fits(n)
        specs_module.check_size_fits(10**6)

    def test_execute_run_refuses_a_trillion_vertices(self):
        """Before the guard this raised a raw ``MemoryError``; at 10^12
        even a broken guard allocates nothing, so the test is safe."""
        payload = tiny_base(graph={"family": "cycle",
                                   "params": {"n": 10**12}})
        with pytest.raises(ConfigurationError, match="physical memory"):
            execute_run(dict(payload, seed=1))


class TestBuilders:
    def test_build_topology(self):
        topo = build_topology({"family": "star", "params": {"n": 9}})
        assert topo.n == 9
        assert topo.name == "star"

    def test_build_dynamic_static(self):
        dg = build_dynamic_graph(
            {"family": "cycle", "params": {"n": 6}}, {"kind": "static"}, 3
        )
        assert isinstance(dg, StaticDynamicGraph)
        assert dg.tau == TAU_INFINITY

    def test_build_dynamic_relabeling(self):
        dg = build_dynamic_graph(
            {"family": "cycle", "params": {"n": 6}},
            {"kind": "relabeling", "tau": 2},
            3,
        )
        assert isinstance(dg, RelabelingAdversary)
        assert dg.tau == 2 and dg.seed == 3

    def test_build_dynamic_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_dynamic_graph(
                {"family": "cycle", "params": {"n": 6}}, {"kind": "warp"}, 3
            )

    def test_build_instance_uniform_matches_core(self):
        built = build_instance({"kind": "uniform", "k": 3}, 10, seed=5)
        direct = uniform_instance(n=10, k=3, seed=5)
        assert built == direct

    def test_build_instance_token_at(self):
        instance = build_instance({"kind": "token_at", "vertex": 4}, 8, seed=2)
        assert instance.k == 1
        assert list(instance.initial_tokens) == [4]

    def test_build_config_preset_and_overrides(self):
        from repro.core.crowdedbin import CrowdedBinConfig

        cfg = build_config("crowdedbin", {"preset": "practical"})
        assert cfg == CrowdedBinConfig.practical()
        cfg = build_config("crowdedbin", {"preset": "practical", "gamma": 5})
        assert cfg.beta == CrowdedBinConfig.practical().beta
        assert cfg.gamma == 5

    def test_build_config_rejects_bad_preset(self):
        with pytest.raises(ConfigurationError):
            build_config("sharedbit", {"preset": "imaginary"})

    def test_build_config_rejects_bad_field(self):
        with pytest.raises(ConfigurationError):
            build_config("multibit", {"nibbles": 3})


class TestSweepSpec:
    def sweep(self, **kwargs) -> SweepSpec:
        defaults = dict(
            name="t",
            base=tiny_base(),
            grid={"algorithm": ["blindmatch", "sharedbit"],
                  "instance.k": [1, 2]},
            seeds=(11, 23),
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_points_cartesian_order(self):
        assert self.sweep().points() == [
            {"algorithm": "blindmatch", "instance.k": 1},
            {"algorithm": "blindmatch", "instance.k": 2},
            {"algorithm": "sharedbit", "instance.k": 1},
            {"algorithm": "sharedbit", "instance.k": 2},
        ]

    def test_runs_enumerates_seeds_per_point(self):
        runs = self.sweep().runs()
        assert len(runs) == 8
        assert [seed for _, _, seed, _ in runs[:2]] == [11, 23]

    def test_dotted_merge(self):
        payload = self.sweep().run_payload(
            {"algorithm": "blindmatch", "instance.k": 2}, seed=11
        )
        assert payload["algorithm"] == "blindmatch"
        assert payload["instance"]["k"] == 2
        assert payload["instance"]["kind"] == "uniform"  # untouched sibling

    def test_overrides_apply_on_match_only(self):
        sweep = self.sweep(
            overrides=[
                {
                    "when": {"algorithm": "sharedbit"},
                    "set": {"max_rounds": 999, "engine.termination_every": 7},
                }
            ]
        )
        hit = sweep.run_payload({"algorithm": "sharedbit", "instance.k": 1}, 11)
        miss = sweep.run_payload({"algorithm": "blindmatch", "instance.k": 1}, 11)
        assert hit["max_rounds"] == 999
        assert hit["engine"]["termination_every"] == 7
        assert miss["max_rounds"] == tiny_base()["max_rounds"]
        assert "termination_every" not in miss["engine"]

    def test_payloads_never_alias_the_spec(self):
        graphs = [
            {"family": "cycle", "params": {"n": 8}},
            {"family": "star", "params": {"n": 8}},
        ]
        sweep = self.sweep(grid={"graph": graphs})
        before = sweep.spec_hash()
        payload = sweep.run_payload({"graph": graphs[0]}, seed=11)
        # Mutating an expanded payload in place (the bench idiom) must not
        # leak back into the spec through a shared grid-value reference.
        payload["graph"]["params"]["n"] = 999
        payload["engine"]["termination_every"] = 16
        assert sweep.grid["graph"][0]["params"]["n"] == 8
        assert sweep.spec_hash() == before
        assert "termination_every" not in sweep.base["engine"]

    def test_json_round_trip(self):
        sweep = self.sweep(overrides=[{"set": {"max_rounds": 5000}}])
        again = SweepSpec.from_json(sweep.to_json())
        assert again == sweep
        assert again.spec_hash() == sweep.spec_hash()

    def test_rejects_seed_in_base_or_grid(self):
        with pytest.raises(ConfigurationError):
            self.sweep(base=dict(tiny_base(), seed=1))
        with pytest.raises(ConfigurationError):
            self.sweep(grid={"seed": [1, 2]})

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigurationError):
            self.sweep(grid={"instance.k": []})

    def test_rejects_seed_in_override_set(self):
        with pytest.raises(ConfigurationError):
            self.sweep(
                overrides=[
                    {"when": {"algorithm": "sharedbit"}, "set": {"seed": 0}}
                ]
            )


class TestFigure1Preset:
    def test_round_trips_and_covers_all_rows(self):
        sweep = SweepSpec.from_json((FIGURES / "figure1.json").read_text())
        assert sweep.spec_hash() == "sweep-9944c47f2e60ccacd59b"
        again = SweepSpec.from_json(sweep.to_json())
        assert again.spec_hash() == sweep.spec_hash()
        assert [p["algorithm"] for p in sweep.points()] == [
            "blindmatch", "sharedbit", "simsharedbit", "crowdedbin", "epsilon",
        ]
        crowded = sweep.run_payload({"algorithm": "crowdedbin"}, 11)
        assert crowded["dynamic"] == {"kind": "static"}
        eps = sweep.run_payload({"algorithm": "epsilon"}, 11)
        assert eps["instance"] == {"kind": "everyone"}

    def test_sweep_stdout_is_the_committed_table(self, capsys):
        """Both derived outputs: the algorithm axis's paper columns
        (figure1) and the slope line (the star n-sweep)."""
        from repro.cli import main

        for name in ("figure1", "fig1_r2_sharedbit_n_star"):
            assert main(["sweep", "--spec", str(FIGURES / f"{name}.json")]) == 0
            assert capsys.readouterr().out == (
                FIGURES / f"{name}.txt"
            ).read_text(), name

    def test_argv_flag_tolerates_garbage(self):
        from repro.experiments import argv_flag

        assert argv_flag(["-q", "--jobs", "4"], "--jobs") == "4"
        assert argv_flag(["--jobs"], "--jobs", 1) == 1  # trailing bare flag
        assert argv_flag(["-x", "tests/"], "--jobs", 1) == 1
        # A bare flag followed by another flag is not a value.
        assert argv_flag(["--cache-dir", "--jobs", "4"], "--cache-dir") is None


class TestEpsilonTraceSampling:
    def test_trace_sample_every_reaches_inner_simulation(self):
        from repro.core.epsilon import run_epsilon_gossip
        from repro.graphs.topologies import complete

        result = run_epsilon_gossip(
            StaticDynamicGraph(complete(8)),
            epsilon=0.5,
            seed=11,
            max_rounds=30_000,
            trace_sample_every=1000,
        )
        assert result.solved
        # Round 1 is always kept; everything below the stride is skipped.
        assert len(result.trace.records) <= 1 + result.rounds // 1000


class TestExecuteRun:
    def test_matches_direct_run_gossip(self):
        payload = dict(tiny_base(), seed=11)
        record = execute_run(payload)
        direct = run_gossip(
            algorithm="sharedbit",
            dynamic_graph=StaticDynamicGraph(
                build_topology(payload["graph"])
            ),
            instance=uniform_instance(n=8, k=2, seed=11),
            seed=11,
            max_rounds=30_000,
            trace_sample_every=1024,
        )
        assert record["solved"] and direct.solved
        assert record["rounds"] == direct.rounds
        assert record["connections"] == direct.trace.total_connections

    def test_crowdedbin_substitution_recorded(self):
        payload = dict(
            tiny_base("crowdedbin"),
            seed=11,
            dynamic={"kind": "relabeling", "tau": 1},
            config={"preset": "practical"},
        )
        normalized, notes = normalize_payload(dict(payload))
        assert normalized["dynamic"] == {"kind": "static"}
        assert notes == [CROWDEDBIN_TAU_NOTE]
        record = execute_run(payload)
        assert record["solved"]
        assert record["notes"] == [CROWDEDBIN_TAU_NOTE]

    def test_epsilon_algorithm(self):
        record = execute_run({
            "algorithm": "epsilon",
            "graph": {"family": "complete", "params": {"n": 8}},
            "dynamic": {"kind": "static"},
            "instance": {"kind": "everyone"},
            "config": {"epsilon": 0.5},
            "seed": 11,
            "max_rounds": 30_000,
        })
        assert record["solved"]
        assert record["core_size"] >= 4

    def test_gauge_series_serialized(self):
        payload = dict(tiny_base(), seed=11)
        payload["engine"] = {
            "trace_sample_every": 1,
            "gauges": ["coverage"],
            "gauge_every": 2,
        }
        record = execute_run(payload)
        series = record["gauges"]["coverage"]
        assert series, "expected coverage samples"
        round_index, (min_cov, mean_cov) = series[0]
        assert round_index == 2
        assert 0 <= min_cov <= mean_cov <= 2

    def test_gauges_travel_into_serialized_results(self):
        import json as _json

        sweep = SweepSpec(
            name="gauged",
            base=dict(
                tiny_base(),
                engine={
                    "trace_sample_every": 1,
                    "gauges": ["coverage"],
                    "gauge_every": 4,
                },
            ),
            seeds=(11,),
        )
        payload = _json.loads(run_sweep(sweep).to_json())
        series = payload["points"][0]["gauges"][0]["coverage"]
        assert series and series[0][0] == 4

    def test_rejects_unknown_gauge(self):
        payload = dict(tiny_base(), seed=11)
        payload["engine"] = {"gauges": ["entropy"]}
        with pytest.raises(ConfigurationError):
            execute_run(payload)


class TestRunSweep:
    def sweep(self) -> SweepSpec:
        return SweepSpec(
            name="parallel-eq",
            base=tiny_base(),
            grid={"algorithm": ["blindmatch", "sharedbit"]},
            seeds=(11, 23),
        )

    def test_serial_parallel_byte_identical(self):
        serial = run_sweep(self.sweep(), jobs=1)
        parallel = run_sweep(self.sweep(), jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_aggregation_in_sweep_order(self):
        result = run_sweep(self.sweep())
        assert [s.point["algorithm"] for s in result.points] == [
            "blindmatch", "sharedbit",
        ]
        for summary in result.points:
            assert summary.seeds == (11, 23)
            assert summary.all_solved
            assert summary.min_rounds <= summary.median_rounds
            assert summary.median_rounds <= summary.max_rounds

    def test_cache_miss_then_hit(self, tmp_path):
        first = run_sweep(self.sweep(), cache_dir=tmp_path)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        second = run_sweep(self.sweep(), cache_dir=tmp_path)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert first.to_json() == second.to_json()

    def test_cache_ignores_corrupt_entries(self, tmp_path):
        run_sweep(self.sweep(), cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("*.json"))[0]
        victim.write_text("{not json")
        result = run_sweep(self.sweep(), cache_dir=tmp_path)
        assert result.cache_misses == 1
        assert result.cache_hits == 3

    def test_format_1_records_are_stale(self, tmp_path):
        # Format 1 predates BlindMatch's keyed coins: such a record is a
        # miss, and the run executes again and is stored afresh.
        first = run_sweep(self.sweep(), cache_dir=tmp_path)
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["format"] = 1
            path.write_text(json.dumps(payload))
        again = run_sweep(self.sweep(), cache_dir=tmp_path)
        assert (again.cache_hits, again.cache_misses) == (0, 4)
        assert again.to_json() == first.to_json()
        assert {json.loads(path.read_text())["format"]
                for path in tmp_path.glob("*.json")} == {RESULT_FORMAT}

    def test_cache_distinguishes_specs(self, tmp_path):
        run_sweep(self.sweep(), cache_dir=tmp_path)
        other = SweepSpec(
            name="parallel-eq",
            base=tiny_base(max_rounds=29_999),
            grid={"algorithm": ["blindmatch", "sharedbit"]},
            seeds=(11, 23),
        )
        result = run_sweep(other, cache_dir=tmp_path)
        assert result.cache_hits == 0

    def test_table_carries_axes_and_notes(self):
        sweep = SweepSpec(
            name="noted",
            base=tiny_base(
                "crowdedbin",
                dynamic={"kind": "relabeling", "tau": 1},
                config={"preset": "practical"},
            ),
            seeds=(11,),
        )
        result = run_sweep(sweep)
        table = result.table()
        assert "crowdedbin needs stable topology" in table
        assert "median rounds" in table

    def test_point_for_short_keys(self):
        result = run_sweep(self.sweep())
        assert result.point_for(algorithm="sharedbit").all_solved
        with pytest.raises(ConfigurationError):
            result.point_for(algorithm="nope")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run_sweep(self.sweep(), jobs=0)


class TestTableRenderer:
    """``SweepResult.table``'s derived lines, on hand-made summaries."""

    @staticmethod
    def table(grid, medians) -> list[str]:
        spec = SweepSpec(name="t", base=tiny_base(), grid=grid, seeds=(11,))
        return SweepResult(spec=spec, points=[
            PointSummary(point=point, seeds=(11,), rounds=(rounds,),
                         solved=(True,))
            for point, rounds in zip(spec.points(), medians)
        ]).table().splitlines()

    def test_slope_only_on_numeric_axes_with_three_values(self):
        assert self.table({"instance.k": [1, 2, 4]}, [3, 6, 12])[-1] == (
            "log-log slope in k: 1.00"
        )
        for grid in ({"instance.k": [1, 2]},
                     {"graph.family": ["cycle", "star", "path"]},
                     {"timing.jitter": [0.0, 0.5, 0.9]}):
            lines = self.table(grid, [3, 6, 12])
            assert not any("slope" in line for line in lines), grid

    def test_slope_lines_group_by_the_other_axes(self):
        lines = self.table(
            {"algorithm": ["sharedbit", "blindmatch"], "instance.k": [1, 2, 4]},
            [2, 4, 8, 1, 4, 16],
        )
        assert lines[-2:] == [
            "log-log slope in k (algorithm=sharedbit): 1.00",
            "log-log slope in k (algorithm=blindmatch): 2.00",
        ]

    def test_algorithm_axis_adds_assumptions_and_bound(self):
        header, _, blind, multi = self.table(
            {"algorithm": ["blindmatch", "multibit"]}, [5, 6]
        )[1:]
        assert header.split()[:5] == [
            "algorithm", "b", "model", "proven", "bound",
        ]
        assert blind.split()[:4] == ["blindmatch", "0", "tau>=1", "O((1/a)"]
        # No bound text for the b-ablation: the column reads "-".
        assert multi.split()[:4] == ["multibit", "cfg", "tau>=1", "-"]


class TestResultCacheUnit:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("run-abc", {"rounds": 3})
        assert cache.get("run-abc") == {"rounds": 3}

    def test_format_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "run-old.json").write_text(
            json.dumps({"format": 0, "record": {"rounds": 1}})
        )
        assert cache.get("run-old") is None


class TestPercentile:
    def test_median_and_edges(self):
        assert percentile([3, 1, 2], 50) == 2
        assert percentile([1, 2, 3, 4], 0) == 1
        assert percentile([1, 2, 3, 4], 100) == 4
        assert percentile([1, 3], 50) == 2.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1], 101)


class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            SweepSpec(
                name="cli-sweep",
                base=tiny_base(),
                grid={"algorithm": ["blindmatch", "sharedbit"]},
                seeds=[11],
            ).to_json()
        )
        out_path = tmp_path / "out.json"
        code = main([
            "sweep",
            "--spec", str(spec_path),
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-sweep" in out
        assert "cache: 0 hits, 2 misses" in out
        payload = json.loads(out_path.read_text())
        assert payload["sweep"]["name"] == "cli-sweep"
        assert len(payload["points"]) == 2

    def test_compare_prints_substitution_note(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "--graph", "cycle", "--n", "8", "--k", "1",
            "--tau", "1", "--seed", "1", "--max-rounds", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "notes" in out
        assert CROWDEDBIN_TAU_NOTE in out
        # CrowdedBin's row shows the tau it actually ran with.
        crowded_row = next(
            line for line in out.splitlines() if "crowdedbin" in line
        )
        assert "inf" in crowded_row


class TestMalformedPayloads:
    """A malformed run payload is a ``ConfigurationError`` naming the key
    — never an ``AttributeError`` / ``TypeError`` / ``ValueError`` from
    wherever the bad value happened to be used first."""

    @pytest.mark.parametrize("patch, named", [
        ({"graph": "star"}, "'graph'"),
        ({"dynamic": []}, "'dynamic'"),
        ({"engine": ["gauges"]}, "'engine'"),
        ({"fault": "sleep"}, "'fault'"),
        ({"max_rounds": "10"}, "'max_rounds'"),
        ({"seed": None}, "'seed'"),
        ({"config": [1]}, "'config'"),
        ({"engine": {"trace_sample_every": 0}},
         "'engine.trace_sample_every'"),
        # Each was a raw TypeError, a misleading "unknown gauge 'c'", or
        # (the mapping) silently accepted.
        ({"engine": {"gauges": 5}}, "'engine.gauges'"),
        ({"engine": {"gauges": None}}, "'engine.gauges'"),
        ({"engine": {"gauges": [["coverage"]]}}, "'engine.gauges'"),
        ({"engine": {"gauges": "coverage"}}, "'engine.gauges'"),
        ({"engine": {"gauges": {"coverage": 1}}}, "'engine.gauges'"),
        # open() would take the integer as file descriptor 5.
        ({"telemetry": {"enabled": True, "stream": 5}},
         "'telemetry.stream'"),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_names_the_key(self, patch, named):
        payload = {**tiny_base(), "seed": 1, **patch}
        if payload["seed"] is None:  # the missing-key case
            del payload["seed"]
        for entry in (execute_run, RunSpec.from_payload):
            with pytest.raises(ConfigurationError, match=named):
                entry(dict(payload))

    def test_normalization_passes_a_malformed_dynamic_through(self):
        payload = dict(tiny_base("crowdedbin"), seed=1, dynamic="static")
        assert normalize_payload(payload) == (payload, [])

    @pytest.mark.parametrize("dynamic", ["static", "relabeling", "geometric"])
    @pytest.mark.parametrize("family", [
        "expander", "star", "path", "cycle", "complete", "ring_expander",
    ])
    def test_vertex_ids_past_int64_are_a_configuration_error(
        self, family, dynamic
    ):
        payload = {**tiny_base(), "seed": 1, "dynamic": {"kind": dynamic},
                   "graph": {"family": family, "params": {"n": 10**30}}}
        with pytest.raises(ConfigurationError, match="int64"):
            _execute_within(10, payload)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_one_bad_leaf_is_a_run_or_a_configuration_error(self, data):
        base = data.draw(st.sampled_from(FUZZ_BASES))
        path = data.draw(st.sampled_from(list(_leaf_paths(base))))
        payload = copy.deepcopy(base)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
        try:
            record = _execute_within(10, payload)
        except ConfigurationError:
            return
        assert isinstance(record["rounds"], int)


def _execute_within(seconds: int, payload) -> dict:
    """``execute_run(payload)``, failing the test instead of hanging."""

    def hung(signum, frame):
        raise AssertionError(f"no outcome within {seconds} s for {payload}")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        return execute_run(payload)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: Valid payloads whose every leaf the fuzz test may break: between them
#: every block kind the specs take, each solved in a few dozen rounds.
FUZZ_BASES = [
    {"algorithm": "sharedbit",
     "graph": {"family": "expander",
               "params": {"n": 8, "degree": 4, "seed": 1}},
     "dynamic": {"kind": "relabeling", "tau": 2},
     "instance": {"kind": "uniform", "k": 2},
     "fault": {"kind": "sleep", "period": 4, "duty": 3},
     "config": {"preset": "practical", "transfer_error_exponent": 1.0},
     "engine": {"trace_sample_every": 64, "gauges": ["coverage"]},
     "seed": 3, "max_rounds": 500},
    {"algorithm": "multibit",
     "graph": {"family": "double_star", "params": {"points": 3}},
     "dynamic": {"kind": "geometric", "radius": 0.5, "step": 0.1, "tau": 2},
     "instance": {"kind": "uniform", "k": 2, "upper_n": 16},
     "fault": {"kind": "churn", "cycle": 8, "crash_prob": 0.2,
               "min_outage": 1, "max_outage": 3, "reset_tokens": True},
     "timing": {"kind": "bursty", "p_pause": 0.2, "p_resume": 0.5,
                "pause_scale": 2.0, "jitter": 0.3},
     "engine": {"trace_max_records": 50, "gauge_every": 4,
                "gauges": ["coverage", "potential"]},
     "telemetry": {"enabled": True},
     "seed": 2, "max_rounds": 500},
    {"algorithm": "blindmatch",
     "graph": {"family": "ring_expander",
               "params": {"n": 8, "degree": 4, "seed": 2}},
     "instance": {"kind": "token_at", "vertex": 1},
     "fault": {"kind": "lossy", "drop_prob": 0.1},
     "timing": {"kind": "heterogeneous", "rates": [1.0, 2.0],
                "weights": [1, 2]},
     "engine": {"termination_every": 2},
     "seed": 1, "max_rounds": 500},
]

#: What a hand-edited spec may hold where a leaf was meant.  Sizes stay
#: out of the allocatable-but-huge range, where MemoryError is the
#: machine's answer.
FUZZ_VALUES = [None, 1, -1, 0, 1.5, float("nan"), float("inf"),
               float("-inf"), 10**30, "bogus", [1], {"a": 1}]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, path + (index,))
    else:
        yield path
