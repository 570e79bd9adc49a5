"""The observability layer: metrics, phase profiling, surfacing.

Three contracts under test (DESIGN.md §11):

* **Zero randomness / zero feedback** — enabling telemetry leaves
  every trace byte-identical (the differential axis lives in
  tests/test_fastpath.py; here we pin resolution semantics and that
  profiles surface without touching results).
* **Deterministic snapshots** — two registries fed the same events
  serialize to the same bytes, in canonical order, and the Prometheus
  rendering is a pure function of the snapshot.
* **Jobs-invariant profile merging** — ``merge_profiles`` is a
  commutative/associative fold, so ``SweepResult.phase_totals()``
  cannot depend on how the runs were partitioned across workers.
"""

import json

import pytest

from repro import Experiment
from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.errors import ConfigurationError
from repro.experiments.runner import execute_run
from repro.experiments.specs import RunSpec
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.net.trace import NetTrace
from repro.telemetry import (
    NULL_PROFILER,
    NULL_SINK,
    NULL_TELEMETRY,
    MetricsRegistry,
    PhaseProfiler,
    Telemetry,
    merge_profiles,
    prometheus_text,
    quantile,
    render_phase_table,
    resolve_telemetry,
)


class TestQuantile:
    def test_empty_is_none(self):
        assert quantile([], 0.5) is None

    def test_single_value(self):
        assert quantile([7.0], 0.99) == 7.0

    def test_linear_interpolation(self):
        values = [0.0, 10.0]
        assert quantile(values, 0.5) == 5.0
        assert quantile(values, 0.25) == 2.5

    def test_order_independent(self):
        assert quantile([3, 1, 2], 0.5) == quantile([1, 2, 3], 0.5) == 2.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("net.retries", uid=3).inc()
        registry.counter("net.retries", uid=3).inc(2)
        registry.gauge("engine.arena_bytes").set(4096)
        hist = registry.histogram("net.connect_latency_s")
        for value in (0.010, 0.020, 0.030):
            hist.observe(value)
        snap = {(e["kind"], e["name"]): e for e in registry.snapshot()}
        assert snap[("counter", "net.retries")]["value"] == 3
        assert snap[("counter", "net.retries")]["labels"] == {"uid": "3"}
        assert snap[("gauge", "engine.arena_bytes")]["value"] == 4096.0
        latency = snap[("histogram", "net.connect_latency_s")]["value"]
        assert latency["count"] == 3
        assert latency["min"] == 0.010 and latency["max"] == 0.030
        assert latency["p50"] == pytest.approx(0.020)

    def test_same_name_and_labels_share_one_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b", x=1) is registry.counter("a.b", x=1)
        assert registry.counter("a.b", x=1) is not registry.counter(
            "a.b", x=2
        )

    def test_snapshot_bytes_deterministic(self):
        def feed(registry):
            registry.gauge("z.last").set(1)
            registry.counter("a.first", role="peer").inc()
            registry.histogram("m.mid").observe(2.5)
            return registry

        first = feed(MetricsRegistry())
        second = feed(MetricsRegistry())
        assert first.to_json() == second.to_json()
        # Canonical order: (kind, name, labels), not insertion order.
        kinds = [entry["kind"] for entry in first.snapshot()]
        assert kinds == sorted(kinds)

    def test_prometheus_text_rendering(self):
        registry = MetricsRegistry()
        registry.counter("net.retries", uid=3).inc(2)
        registry.histogram("net.connect_latency_s").observe(0.5)
        text = prometheus_text(registry)
        assert 'net_retries{uid="3"} 2' in text
        assert "net_connect_latency_s_count 1" in text
        assert "net_connect_latency_s_sum 0.5" in text
        assert 'net_connect_latency_s{quantile="0.5"} 0.5' in text
        assert text.endswith("\n")
        assert prometheus_text(MetricsRegistry()) == ""

    def test_null_sink_is_free_and_empty(self):
        assert NULL_SINK.counter("x.y", uid=1) is NULL_SINK.gauge("z.w")
        NULL_SINK.counter("x.y").inc()
        NULL_SINK.histogram("h").observe(1.0)
        assert NULL_SINK.snapshot() == []
        assert NULL_SINK.to_json() == "[]"


class TestPhaseProfiler:
    def test_span_accumulates_calls_and_seconds(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.span("round.stages12"):
                pass
        profile = profiler.as_dict()
        assert profile["round.stages12"]["calls"] == 3
        assert profile["round.stages12"]["seconds"] >= 0.0

    def test_spans_are_cached_per_name(self):
        profiler = PhaseProfiler()
        assert profiler.span("a") is profiler.span("a")
        assert profiler.span("a") is not profiler.span("b")

    def test_null_profiler_shares_one_noop_span(self):
        assert NULL_PROFILER.span("a") is NULL_PROFILER.span("b")
        with NULL_PROFILER.span("a"):
            pass
        assert NULL_PROFILER.as_dict() == {}

    def test_stream_appends_one_json_line_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        profiler = PhaseProfiler(stream=path)
        with profiler.span("round.stage3"):
            pass
        with profiler.span("round.stage3"):
            pass
        profiler.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["span"] for line in lines] == ["round.stage3"] * 2
        assert [line["seq"] for line in lines] == [0, 1]

    def test_merge_profiles_commutative_and_none_tolerant(self):
        a = {"round.x": {"calls": 2, "seconds": 1.0}}
        b = {"round.x": {"calls": 1, "seconds": 0.5},
             "round.y": {"calls": 4, "seconds": 2.0}}
        merged = merge_profiles([a, None, b, {}])
        assert merged == merge_profiles([b, a, None])
        assert merged["round.x"] == {"calls": 3, "seconds": 1.5}
        assert merged["round.y"] == {"calls": 4, "seconds": 2.0}
        assert list(merged) == sorted(merged)

    def test_render_phase_table(self):
        table = render_phase_table(
            {"round.a": {"calls": 2, "seconds": 3.0},
             "round.b": {"calls": 1, "seconds": 1.0}}
        )
        lines = table.splitlines()
        assert "phase" in lines[0]
        assert lines[1].startswith("round.a")  # widest-seconds first
        assert "75.0%" in lines[1]
        assert render_phase_table({}) == "(no spans recorded)"


class TestResolveTelemetry:
    def test_defaults_to_the_null_bundle(self):
        assert resolve_telemetry(None) is NULL_TELEMETRY
        assert resolve_telemetry(False) is NULL_TELEMETRY
        assert resolve_telemetry({"enabled": False}) is NULL_TELEMETRY

    def test_enabled_forms(self):
        for spec in (True, "on", {"enabled": True}, {}):
            bundle = resolve_telemetry(spec)
            assert bundle.enabled and isinstance(bundle, Telemetry)

    def test_instances_pass_through(self):
        bundle = Telemetry()
        assert resolve_telemetry(bundle) is bundle
        assert resolve_telemetry(NULL_TELEMETRY) is NULL_TELEMETRY

    def test_unknown_keys_and_types_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_telemetry({"enabled": True, "sample_rate": 10})
        with pytest.raises(ConfigurationError):
            resolve_telemetry(3.5)


def _run(telemetry=None, **overrides):
    instance = uniform_instance(n=16, k=2, seed=5)
    kwargs = dict(max_rounds=30, engine_mode="array", telemetry=telemetry)
    kwargs.update(overrides)
    return run_gossip(
        "sharedbit", StaticDynamicGraph(expander(n=16, degree=4, seed=2)),
        instance, seed=5, **kwargs,
    )


class TestRunSurfacing:
    def test_run_gossip_profile_off_by_default(self):
        result = _run()
        assert result.telemetry is NULL_TELEMETRY
        assert result.profile is None

    def test_run_gossip_profile_on(self):
        result = _run(telemetry=True)
        profile = result.profile
        assert profile["run.total"]["calls"] == 1
        # Build sits next to the run: population, then engine.
        assert profile["build.population"]["calls"] == 1
        assert profile["build.engine"]["calls"] == 1
        assert profile["round.stages12"]["calls"] == result.rounds
        assert "round.advertise" in profile
        # The epoch's topology fetch is its own span inside stages12.
        assert profile["round.topology"]["calls"] == result.rounds
        assert (profile["round.topology"]["seconds"]
                <= profile["round.stages12"]["seconds"])
        # Observing the run never changes it.
        assert result.rounds == _run().rounds

    def test_run_spec_telemetry_block(self):
        payload = {
            "algorithm": "sharedbit",
            "graph": {"family": "expander",
                      "params": {"n": 16, "degree": 4, "seed": 2}},
            "instance": {"kind": "uniform", "k": 2},
            "max_rounds": 30,
            "seed": 5,
            "telemetry": {"enabled": True},
        }
        record = execute_run(payload)
        assert record["profile"]["round.stages12"]["calls"] > 0
        assert record["profile"]["build.population"]["calls"] == 1
        off = dict(payload, telemetry={"enabled": False})
        assert "profile" not in execute_run(off)

    def test_run_spec_rejects_unknown_telemetry_keys(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_payload({
                "algorithm": "sharedbit",
                "graph": {"family": "cycle", "params": {"n": 8}},
                "instance": {"kind": "uniform", "k": 1},
                "max_rounds": 10,
                "seed": 1,
                "telemetry": {"enabled": True, "bogus": 1},
            })

    def test_experiment_with_telemetry(self):
        experiment = (
            Experiment("sharedbit")
            .on_graph("expander", n=16, degree=4, seed=2)
            .with_instance("uniform", k=2)
            .seeded(5)
            .rounds(30)
            .with_telemetry()
        )
        assert experiment.run_spec().telemetry == {"enabled": True}
        record = experiment.run()
        assert record["profile"]["round.stages12"]["calls"] > 0
        assert record["profile"]["build.population"]["calls"] == 1
        reverted = experiment.with_telemetry(False)
        assert "profile" not in reverted.run()

    def test_sweep_phase_totals_merge_run_profiles(self):
        from repro.experiments import SweepSpec, run_sweep

        spec = SweepSpec(
            name="telemetry-totals",
            base={
                "algorithm": "sharedbit",
                "graph": {"family": "cycle", "params": {"n": 8}},
                "instance": {"kind": "uniform", "k": 1},
                "max_rounds": 20,
                "telemetry": {"enabled": True},
            },
            grid={"instance.k": [1, 2]},
            seeds=(11, 23),
        )
        result = run_sweep(spec)
        profiles = [record["profile"]
                    for summary in result.points
                    for record in summary.runs]
        assert len(profiles) == 4
        totals = result.phase_totals()
        assert totals == merge_profiles(profiles)
        assert totals["round.stages12"]["calls"] == sum(
            p["round.stages12"]["calls"] for p in profiles
        )
        # Wall seconds are not deterministic, so profiles must stay out
        # of the serialized result the jobs-identity gate compares.
        assert "profile" not in result.to_json()


class TestAsyncSkewParity:
    """SharedBit round parity under clock skew (DESIGN.md §7/§11).

    Heterogeneous rates push nodes' local cycles arbitrarily far
    apart; shared-PRF tag derivation is keyed by each member's own
    cycle, so the batched window drain must stay byte-identical to the
    per-event path — and the engines' internal round-parity assertions
    must stay quiet — even with skew far beyond one window.
    """

    def test_batched_matches_per_event_under_heterogeneous_skew(self):
        from repro.asynchrony.timing import HeterogeneousRates
        from repro.experiments.fastpath import run_case

        def timing():
            return HeterogeneousRates(n=24, seed=7, rates=(0.5, 1.0, 2.0))

        event = run_case("sharedbit", "static", "uniform", "object",
                         timing=timing())
        batched = run_case("sharedbit", "static", "uniform", "array",
                           timing=timing())
        assert event == batched

    def test_skew_exceeds_one_round_window(self):
        result = _run(
            telemetry=None,
            timing={"kind": "heterogeneous", "rates": (0.5, 1.0, 2.0)},
        )
        skews = result.trace.column_series("clock_skew_max")
        assert skews and max(value or 0 for _, value in skews) > 1


class TestNetTraceBoundaries:
    def test_rounds_per_second_none_on_boundaries(self):
        trace = NetTrace()
        assert trace.rounds_per_second() is None  # nothing recorded
        trace.close_round(1, proposals=1, connections=1, tokens_moved=0,
                          control_bits=0)
        assert trace.rounds_per_second() is None  # wall clock never set
        trace.wall_seconds = 2.0
        assert trace.rounds_per_second() == pytest.approx(0.5)

    def test_latency_stats_quantiles(self):
        trace = NetTrace()
        assert trace.latency_stats() is None
        for i, seconds in enumerate([0.010, 0.020, 0.030, 0.040]):
            trace.record_connection(i, seconds)
        stats = trace.latency_stats()
        assert stats["connections"] == 4
        assert stats["p50_s"] == pytest.approx(0.025)
        assert stats["p99_s"] == pytest.approx(0.0397)
        assert stats["max_s"] == 0.040
