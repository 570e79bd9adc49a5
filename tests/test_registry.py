"""Tests for the registry-driven plugin API (repro.registry, repro.api)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import registry as registry_module
from repro.api import Experiment
from repro.core.problem import uniform_instance
from repro.core.runner import ALGORITHMS, run_gossip
from repro.core.sharedbit import SharedBitConfig, SharedBitNode
from repro.errors import ConfigurationError
from repro.experiments import (
    RunSpec,
    SweepSpec,
    build_topology,
    run_sweep,
)
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import cycle
from repro.registry import (
    ALGORITHM_REGISTRY,
    AlgorithmDef,
    FAULT_REGISTRY,
    Registry,
    SCENARIO_REGISTRY,
    TOPOLOGY_REGISTRY,
    TopologyDef,
    register_fault,
)
from repro.rng import SharedRandomness
from repro.workloads.scenarios import festival_scenario


def _sharedbit_clone_builder(ctx):
    """A synthetic algorithm: SharedBit registered under another name."""
    upper_n = ctx.instance.upper_n
    shared = SharedRandomness(ctx.tree.key("shared-string"), upper_n)
    return {
        vertex: SharedBitNode(uid, upper_n, tokens, rng, shared, ctx.config)
        for vertex, uid, tokens, rng in ctx.members()
    }


def _clone_def(name="echo_test") -> AlgorithmDef:
    return AlgorithmDef(
        name=name,
        description="in-test SharedBit clone",
        build=_sharedbit_clone_builder,
        config_class=SharedBitConfig,
        tag_length=1,
    )


@pytest.fixture
def echo_algorithm(restore_registries):
    """A synthetic test-only algorithm, registered for one test."""
    return ALGORITHM_REGISTRY.register(_clone_def())


#: Every registry with its public decorator alias.
REGISTRIES = [
    (getattr(registry_module, f"{prefix}_REGISTRY"),
     getattr(registry_module, f"register_{prefix.lower()}"))
    for prefix in ("ALGORITHM", "TOPOLOGY", "DYNAMICS", "INSTANCE",
                   "SCENARIO", "FAULT", "TIMING", "TRANSPORT")
]


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], check=True,
                          env=env, capture_output=True, text=True).stdout


class TestRegistryCore:
    def test_duplicate_name_raises(self):
        scratch = Registry("widget", "widgets")
        scratch.register(_clone_def("w"))
        with pytest.raises(ConfigurationError, match="already registered"):
            scratch.register(_clone_def("w"))

    def test_duplicate_builtin_raises(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            ALGORITHM_REGISTRY.register(_clone_def("sharedbit"))

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty name"):
            Registry("widget", "widgets").register(_clone_def(""))

    @pytest.mark.parametrize("registry, register", REGISTRIES,
                             ids=[reg.plural for reg, _ in REGISTRIES])
    def test_one_contract_for_every_registry(self, registry, register,
                                             restore_registries):
        assert register == registry.decorator
        with pytest.raises(ConfigurationError) as excinfo:
            registry.get("nope")
        message = str(excinfo.value)
        assert f"unknown {registry.kind} 'nope'" in message
        assert all(name in message for name in registry.names())

        def build(*args, **params):
            return None

        assert register(name="probe", description="in-test")(build) is build
        assert registry.get("probe").build is build
        with pytest.raises(ConfigurationError, match="already registered"):
            register(name=registry.names()[0], description="shadow")(build)
        with pytest.raises(ConfigurationError,
                           match=f"{registry.kind} definition has no field "
                                 "'factory'"):
            register(name="other", description="in-test", factory=build)

    def test_non_string_name_rejected_and_lookups_still_enumerate(
            self, restore_registries):
        with pytest.raises(ConfigurationError, match="got 5"):
            register_fault(name=5, description="x")(lambda n, seed: None)
        with pytest.raises(ConfigurationError,
                           match="fault models: churn, lossy, none, sleep$"):
            FAULT_REGISTRY.get("nope")

    def test_shadowing_a_lazily_loaded_builtin_fails_at_registration(self):
        out = _python(textwrap.dedent("""
            import sys
            import repro.registry as registry
            from repro.errors import ConfigurationError

            assert "repro.net.coordinator" not in sys.modules
            try:
                registry.register_transport(
                    name="tcp", description="shadow")(lambda **opts: None)
            except ConfigurationError as exc:
                print(exc)
            print(registry.FAULT_REGISTRY.get("sleep").name,
                  registry.TRANSPORT_REGISTRY.get("tcp").build.__module__)
        """))
        assert out == ("transport 'tcp' is already registered\n"
                       "sleep repro.net.coordinator\n")

    def test_find_returns_none_quietly(self):
        assert ALGORITHM_REGISTRY.find("nope") is None

    def test_algorithms_view_sees_new_registrations(self, echo_algorithm):
        assert "echo_test" in ALGORITHM_REGISTRY.names()
        assert "echo_test" in ALGORITHMS


class TestDefinitionMetadata:
    def test_algorithms_view_filters_experiment_only(self):
        assert "epsilon" in ALGORITHM_REGISTRY.names()
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

    def test_topology_registry_is_live(self, restore_registries):
        assert TOPOLOGY_REGISTRY.get("cycle").build is cycle
        TOPOLOGY_REGISTRY.register(TopologyDef(
            name="test_shape",
            description="in-test family",
            build=lambda n: cycle(n),
        ))
        assert "test_shape" in TOPOLOGY_REGISTRY.names()
        topo = build_topology({"family": "test_shape", "params": {"n": 6}})
        assert topo.n == 6

    def test_scenario_registry_holds_the_factories(self):
        assert SCENARIO_REGISTRY.get("festival").build is festival_scenario


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
        upper_n = ctx.instance.upper_n
        shared = SharedRandomness(ctx.tree.key("shared-string"), upper_n)
        return {
            vertex: SharedBitNode(uid, upper_n, tokens, rng, shared,
                                  ctx.config)
            for vertex, uid, tokens, rng in ctx.members()
        }
    """
)


class TestPluginLoading:
    def test_cli_runs_plugin_algorithm_from_file(self, tmp_path, capsys,
                                                 restore_registries):
        from repro.cli import main

        plugin = tmp_path / "my_plugin.py"
        plugin.write_text(PLUGIN_SOURCE)
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

    def test_cli_list_shows_plugin_algorithm(self, tmp_path, capsys,
                                             restore_registries):
        from repro.cli import main

        plugin = tmp_path / "my_list_plugin.py"
        plugin.write_text(PLUGIN_SOURCE.replace("plugin_echo", "plugin_ls"))
        assert main(["--plugin", str(plugin), "list"]) == 0
        assert "plugin_ls" in capsys.readouterr().out

    def test_cli_list_shows_plugin_transport(self, tmp_path, capsys,
                                             restore_registries):
        """The one-decorator-surface invariant extends to transports:
        a --plugin file can register one and `list` shows it."""
        from repro.cli import main

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
        assert main(["--plugin", str(plugin), "list"]) == 0
        assert "plugin_wire" in capsys.readouterr().out

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
