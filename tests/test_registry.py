"""Tests for the registry-driven plugin API (repro.registry, repro.api)."""

import textwrap

import pytest

from repro.api import Experiment
from repro.core.problem import uniform_instance
from repro.core.runner import ALGORITHMS, build_nodes, run_gossip
from repro.core.sharedbit import SharedBitConfig, SharedBitNode
from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENT_ALGORITHMS,
    RunSpec,
    SweepSpec,
    build_topology,
    run_sweep,
)
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import TOPOLOGY_FAMILIES, cycle
from repro.registry import (
    ALGORITHM_REGISTRY,
    AlgorithmDef,
    Registry,
    SCENARIO_REGISTRY,
    TOPOLOGY_REGISTRY,
    TopologyDef,
)
from repro.rng import SharedRandomness


def _sharedbit_clone_builder(ctx):
    """A synthetic algorithm: SharedBit registered under another name."""
    shared = SharedRandomness(
        ctx.tree.key("shared-string"), ctx.instance.upper_n
    )
    return {
        vertex: SharedBitNode(
            shared=shared, config=ctx.config, **ctx.common(vertex)
        )
        for vertex in ctx.vertices()
    }


def _clone_def(name="echo_test") -> AlgorithmDef:
    return AlgorithmDef(
        name=name,
        description="in-test SharedBit clone",
        config_class=SharedBitConfig,
        build_nodes=_sharedbit_clone_builder,
        tag_length=1,
    )


@pytest.fixture
def echo_algorithm():
    """A synthetic test-only algorithm, registered for one test."""
    with ALGORITHM_REGISTRY.temporary(_clone_def()) as defn:
        yield defn


class TestRegistryCore:
    def test_duplicate_name_raises(self):
        scratch = Registry("widget", "widgets")
        scratch.register(AlgorithmDef(name="w", description="a widget"))
        with pytest.raises(ConfigurationError, match="already registered"):
            scratch.register(AlgorithmDef(name="w", description="again"))

    def test_duplicate_builtin_raises(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            ALGORITHM_REGISTRY.register(
                AlgorithmDef(name="sharedbit", description="shadow attempt")
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty name"):
            Registry("widget", "widgets").register(
                AlgorithmDef(name="", description="anonymous")
            )

    def test_unknown_name_enumerates_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ALGORITHM_REGISTRY.get("nope")
        message = str(excinfo.value)
        assert "unknown algorithm 'nope'" in message
        for name in ("blindmatch", "sharedbit", "crowdedbin", "epsilon"):
            assert name in message

    def test_unknown_topology_enumerates_registered(self):
        with pytest.raises(ConfigurationError, match="star"):
            TOPOLOGY_REGISTRY.get("torus")

    def test_find_returns_none_quietly(self):
        assert ALGORITHM_REGISTRY.find("nope") is None

    def test_unregister_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="cannot unregister"):
            ALGORITHM_REGISTRY.unregister("nope")

    def test_temporary_registration_is_scoped(self):
        assert "echo_test" not in ALGORITHM_REGISTRY
        with ALGORITHM_REGISTRY.temporary(_clone_def()):
            assert "echo_test" in ALGORITHM_REGISTRY
            assert "echo_test" in ALGORITHMS
            assert "echo_test" in EXPERIMENT_ALGORITHMS
        assert "echo_test" not in ALGORITHM_REGISTRY
        assert "echo_test" not in ALGORITHMS


class TestDefinitionMetadata:
    def test_algorithms_view_filters_experiment_only(self):
        assert "epsilon" in EXPERIMENT_ALGORITHMS
        assert "epsilon" not in ALGORITHMS
        # PPUSH registers when crowdedbin imports its module, so it
        # lands between simsharedbit and crowdedbin in the view order.
        assert tuple(ALGORITHMS) == (
            "blindmatch", "sharedbit", "simsharedbit", "ppush",
            "crowdedbin", "multibit",
        )

    def test_tag_length_resolution(self):
        from repro.core.multibit import MultiBitConfig

        multibit = ALGORITHM_REGISTRY.get("multibit")
        assert multibit.resolve_tag_length(MultiBitConfig(bits=3)) == 3
        blind = ALGORITHM_REGISTRY.get("blindmatch")
        assert blind.resolve_tag_length(blind.make_config()) == 0

    def test_stable_topology_lives_in_the_declaration(self):
        assert ALGORITHM_REGISTRY.get("crowdedbin").requires_stable_topology
        assert not ALGORITHM_REGISTRY.get("sharedbit").requires_stable_topology

    def test_topology_families_view_is_live(self):
        assert TOPOLOGY_FAMILIES["cycle"] is cycle
        defn = TopologyDef(
            name="test_shape",
            description="in-test family",
            factory=lambda n: cycle(n),
        )
        with TOPOLOGY_REGISTRY.temporary(defn):
            assert "test_shape" in TOPOLOGY_FAMILIES
            topo = build_topology(
                {"family": "test_shape", "params": {"n": 6}}
            )
            assert topo.n == 6
        assert "test_shape" not in TOPOLOGY_FAMILIES
        with pytest.raises(KeyError):
            TOPOLOGY_FAMILIES["test_shape"]


class TestSyntheticAlgorithmEndToEnd:
    def test_run_gossip_matches_sharedbit(self, echo_algorithm):
        graph = StaticDynamicGraph(cycle(8))
        instance = uniform_instance(n=8, k=2, seed=11)
        mine = run_gossip(
            algorithm="echo_test",
            dynamic_graph=graph,
            instance=instance,
            seed=11,
            max_rounds=30_000,
        )
        theirs = run_gossip(
            algorithm="sharedbit",
            dynamic_graph=StaticDynamicGraph(cycle(8)),
            instance=instance,
            seed=11,
            max_rounds=30_000,
        )
        # Same builder, same seed: the clone is round-for-round identical.
        assert mine.solved and mine.rounds == theirs.rounds

    def test_run_sweep_over_synthetic_algorithm(self, echo_algorithm):
        sweep = SweepSpec(
            name="registry-e2e",
            base={
                "algorithm": "echo_test",
                "graph": {"family": "cycle", "params": {"n": 8}},
                "instance": {"kind": "uniform", "k": 2},
                "max_rounds": 30_000,
                "engine": {"trace_sample_every": 1024},
            },
            grid={"algorithm": ["sharedbit", "echo_test"]},
            seeds=(11,),
        )
        result = run_sweep(sweep)
        rounds = {
            summary.point["algorithm"]: summary.median_rounds
            for summary in result.points
        }
        assert result.points[0].all_solved and result.points[1].all_solved
        assert rounds["echo_test"] == rounds["sharedbit"]

    def test_runspec_accepts_synthetic_algorithm(self, echo_algorithm):
        spec = RunSpec.from_payload({
            "algorithm": "echo_test",
            "graph": {"family": "cycle", "params": {"n": 8}},
            "seed": 1,
            "max_rounds": 100,
        })
        assert spec.algorithm == "echo_test"


PLUGIN_SOURCE = textwrap.dedent(
    """
    \"\"\"Out-of-tree plugin: registers an algorithm without touching repro.\"\"\"

    from repro.core.sharedbit import SharedBitConfig, SharedBitNode
    from repro.registry import register_algorithm
    from repro.rng import SharedRandomness


    @register_algorithm(
        name="plugin_echo",
        description="plugin-registered SharedBit clone",
        config_class=SharedBitConfig,
        tag_length=1,
    )
    def build_plugin_echo(ctx):
        shared = SharedRandomness(
            ctx.tree.key("shared-string"), ctx.instance.upper_n
        )
        return {
            v: SharedBitNode(shared=shared, config=ctx.config,
                             **ctx.common(v))
            for v in ctx.vertices()
        }
    """
)


class TestPluginLoading:
    def test_cli_runs_plugin_algorithm_from_file(self, tmp_path, capsys):
        from repro.cli import main

        plugin = tmp_path / "my_plugin.py"
        plugin.write_text(PLUGIN_SOURCE)
        try:
            code = main([
                "--plugin", str(plugin),
                "run", "--algorithm", "plugin_echo", "--graph", "cycle",
                "--n", "10", "--k", "2", "--seed", "1",
                "--max-rounds", "30000",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "plugin_echo on cycle" in out
            assert "solved" in out
            # Loading the same file again is a no-op, not a duplicate.
            assert main([
                "--plugin", str(plugin),
                "run", "--algorithm", "plugin_echo", "--graph", "cycle",
                "--n", "10", "--k", "2", "--seed", "1",
                "--max-rounds", "30000",
            ]) == 0
        finally:
            ALGORITHM_REGISTRY.unregister("plugin_echo")

    def test_cli_list_shows_plugin_algorithm(self, tmp_path, capsys):
        from repro.cli import main

        plugin = tmp_path / "my_list_plugin.py"
        plugin.write_text(PLUGIN_SOURCE.replace("plugin_echo", "plugin_ls"))
        try:
            assert main(["--plugin", str(plugin), "list"]) == 0
            assert "plugin_ls" in capsys.readouterr().out
        finally:
            ALGORITHM_REGISTRY.unregister("plugin_ls")

    def test_cli_list_shows_plugin_transport(self, tmp_path, capsys):
        """The one-decorator-surface invariant extends to transports:
        a --plugin file can register one and `list` shows it."""
        from repro.cli import main
        from repro.registry import TRANSPORT_REGISTRY

        plugin = tmp_path / "transport_plugin.py"
        plugin.write_text(textwrap.dedent(
            """
            from repro.registry import register_transport


            @register_transport(
                name="plugin_wire",
                description="plugin-registered null transport",
            )
            def deploy_plugin_wire(**kwargs):
                return None
            """
        ))
        try:
            assert main(["--plugin", str(plugin), "list"]) == 0
            out = capsys.readouterr().out
            assert "plugin_wire" in out
        finally:
            TRANSPORT_REGISTRY.unregister("plugin_wire")

    def test_missing_plugin_file_raises(self):
        from repro.registry import load_plugin

        with pytest.raises(ConfigurationError, match="does not exist"):
            load_plugin("/nonexistent/plugin.py")
        with pytest.raises(ConfigurationError, match="cannot import"):
            load_plugin("no_such_module_xyz")


class TestCliList:
    def test_list_prints_every_section(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "algorithms:", "topology families:", "dynamics kinds:",
            "instance kinds:", "scenarios:", "transports:",
        ):
            assert heading in out
        assert "crowdedbin" in out and "tau=inf" in out
        assert "experiments-layer only" in out  # epsilon's marker
        assert "relabeling" in out and "token_at" in out
        assert "festival" in out
        assert "tcp" in out and "live_smoke" in out  # PR 7 surfaces


class TestFluentApi:
    def test_single_run(self):
        record = (
            Experiment("sharedbit")
            .on_graph("cycle", n=8)
            .with_instance("uniform", k=2)
            .with_engine(trace_sample_every=1024)
            .seeded(11)
            .rounds(30_000)
            .run()
        )
        assert record["solved"]
        assert record["rounds"] >= 1

    def test_unknown_names_fail_at_the_call_site(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            Experiment("nope")
        with pytest.raises(ConfigurationError, match="topology family"):
            Experiment("sharedbit").on_graph("torus", n=8)
        with pytest.raises(ConfigurationError, match="dynamics kind"):
            Experiment("sharedbit").with_dynamics("warp")
        with pytest.raises(ConfigurationError, match="instance kind"):
            Experiment("sharedbit").with_instance("nowhere")

    def test_run_requires_a_graph(self):
        with pytest.raises(ConfigurationError, match="no graph chosen"):
            Experiment("sharedbit").run_spec()

    def test_sweep_builder_round_trips(self):
        spec = (
            Experiment("sharedbit")
            .on_graph("cycle", n=8)
            .rounds(30_000)
            .sweep("fluent")
            .vary("instance.k", [1, 2])
            .seeds(11)
            .override(
                set={"max_rounds": 40_000},
                when={"instance.k": 2},
            )
            .spec()
        )
        assert spec.points() == [{"instance.k": 1}, {"instance.k": 2}]
        assert spec.run_payload({"instance.k": 2}, 11)["max_rounds"] == 40_000
        again = SweepSpec.from_json(spec.to_json())
        assert again.spec_hash() == spec.spec_hash()

    def test_sweep_run_executes(self):
        result = (
            Experiment("blindmatch")
            .on_graph("complete", n=6)
            .with_engine(trace_sample_every=1024)
            .rounds(30_000)
            .sweep("fluent-exec")
            .vary("instance.k", [1, 2])
            .seeds(11)
            .run()
        )
        assert len(result.points) == 2
        assert all(summary.all_solved for summary in result.points)

    def test_scenario_registry_backs_scenarios_mapping(self):
        from repro.workloads.scenarios import SCENARIOS

        assert set(SCENARIOS) == set(SCENARIO_REGISTRY.names())
        assert SCENARIOS["festival"] is SCENARIO_REGISTRY.get(
            "festival"
        ).factory
