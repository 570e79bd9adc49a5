"""Tests for ε-gossip: termination checks and the §7 speedup."""

import pytest

from repro.core.epsilon import (
    EpsilonView,
    epsilon_termination,
    run_epsilon_gossip,
)
from repro.core.problem import everyone_starts_instance
from repro.core.runner import run_gossip
from repro.errors import ConfigurationError
from repro.experiments import SweepSpec, build_config, execute_run, run_sweep
from repro.experiments.specs import canonical_json
from repro.graphs.dynamic import RelabelingAdversary, StaticDynamicGraph
from repro.graphs.topologies import complete, cycle, expander


class TestTermination:
    def test_condition_uses_lemma_7_3(self):
        class Stub:
            def __init__(self, uid, tokens):
                self.uid = uid
                self.known_tokens = frozenset(tokens)

        cond = epsilon_termination(0.5)
        # 3 of 4 nodes share a full set -> solved at eps=0.5.
        nodes = {
            0: Stub(1, {1, 2, 3}),
            1: Stub(2, {1, 2, 3}),
            2: Stub(3, {1, 2, 3}),
            3: Stub(4, {4}),
        }
        assert cond(nodes, 1)
        # All singletons -> unsolved.
        nodes = {i: Stub(i + 1, {i + 1}) for i in range(4)}
        assert not cond(nodes, 1)


class TestRun:
    def test_solves_on_expander(self):
        result = run_epsilon_gossip(
            StaticDynamicGraph(expander(16, 4, seed=1)),
            epsilon=0.5,
            seed=3,
            max_rounds=30_000,
        )
        assert result.solved
        assert result.epsilon == 0.5
        assert result.instance.k == 16

    def test_solves_on_dynamic_graph(self):
        result = run_epsilon_gossip(
            RelabelingAdversary(expander(12, 4, seed=2), tau=1, seed=5),
            epsilon=0.5,
            seed=3,
            max_rounds=30_000,
        )
        assert result.solved

    def test_core_size_reported(self):
        result = run_epsilon_gossip(
            StaticDynamicGraph(complete(10)),
            epsilon=0.5,
            seed=1,
            max_rounds=30_000,
        )
        assert result.solved
        assert result.core_size >= 0.5 * 10 or result.residual_potential == 0

    def test_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            run_epsilon_gossip(
                StaticDynamicGraph(cycle(8)), epsilon=1.0, seed=0,
                max_rounds=10,
            )

    def test_smaller_epsilon_not_slower(self):
        """Relaxing the requirement can only help (monotone in ε)."""
        dg = lambda: StaticDynamicGraph(expander(16, 4, seed=1))
        loose = run_epsilon_gossip(dg(), epsilon=0.3, seed=3,
                                   max_rounds=30_000)
        tight = run_epsilon_gossip(dg(), epsilon=0.95, seed=3,
                                   max_rounds=60_000)
        assert loose.solved and tight.solved
        assert loose.rounds <= tight.rounds

    def test_epsilon_faster_than_full_gossip(self):
        """The §7 headline: ε-gossip beats full gossip for constant ε on a
        well-connected graph with k = n."""
        topo = expander(20, 6, seed=2)
        eps_result = run_epsilon_gossip(
            StaticDynamicGraph(topo), epsilon=0.5, seed=3, max_rounds=60_000
        )
        inst = everyone_starts_instance(n=20, seed=3)
        full_result = run_gossip(
            "sharedbit",
            StaticDynamicGraph(topo),
            inst,
            seed=3,
            max_rounds=60_000,
        )
        assert eps_result.solved and full_result.solved
        assert eps_result.rounds < full_result.rounds


class TestEpsilonView:
    def test_view_shape(self):
        view = EpsilonView(known_tokens=frozenset({1, 2}), own_token_id=1)
        assert view.known_tokens == frozenset({1, 2})
        assert view.own_token_id == 1


EXPANDER16 = {"family": "expander",
              "params": {"n": 16, "degree": 4, "seed": 1}}


def epsilon_payload(seed=3, **blocks):
    return {
        "algorithm": "epsilon",
        "graph": EXPANDER16,
        "instance": {"kind": "everyone"},
        "config": {"epsilon": 0.5},
        "seed": seed,
        "max_rounds": 50_000,
        **blocks,
    }


class TestStandardPath:
    """ε-gossip is SharedBit run toward a weaker goal, so every regime
    SharedBit runs under applies with no ε-specific code."""

    @pytest.mark.parametrize("blocks", [
        {"fault": {"kind": "sleep", "period": 4, "duty": 2}},
        {"fault": {"kind": "churn", "cycle": 16, "crash_prob": 0.3,
                   "min_outage": 2, "max_outage": 5}},
        {"timing": {"kind": "jitter"}},
        {"timing": {"kind": "heterogeneous"}},
        {"timing": {"kind": "bursty"}},
        {"engine": {"gauges": ["coverage"], "gauge_every": 4}},
        {"fault": {"kind": "sleep"}, "timing": {"kind": "jitter"}},
    ], ids=lambda blocks: "+".join(
        block.get("kind", "gauges") for block in blocks.values()
    ))
    def test_solves_and_repeats_byte_for_byte(self, blocks):
        record = execute_run(epsilon_payload(**blocks))
        assert record["solved"]
        assert record["core_size"] >= 8
        assert ("events" in record) == ("timing" in blocks)
        if "engine" in blocks:
            assert record["gauges"]["coverage"]
        again = execute_run(epsilon_payload(**blocks))
        assert canonical_json(again) == canonical_json(record)

    def test_telemetry_only_adds_the_profile(self):
        plain = execute_run(epsilon_payload())
        profiled = execute_run(
            epsilon_payload(telemetry={"enabled": True})
        )
        assert "run.total" in profiled.pop("profile")
        assert profiled == plain

    def test_object_and_array_paths_agree(self):
        def run(engine_mode):
            result = run_gossip(
                "epsilon",
                StaticDynamicGraph(expander(16, 4, seed=1)),
                everyone_starts_instance(n=16, seed=3),
                seed=3, max_rounds=50_000, fault="sleep",
                engine_mode=engine_mode,
            )
            assert result.solved
            return result.trace.records, result.goal_report

        assert run("object") == run("array")

    def test_sweep_parallel_identical(self):
        base = epsilon_payload(fault={"kind": "sleep", "period": 8})
        del base["seed"]
        sweep = SweepSpec(name="eps-sleep", base=base,
                          grid={"fault.duty": [4, 6]}, seeds=(11, 23))
        serial = run_sweep(sweep, jobs=1)
        assert all(point.all_solved for point in serial.points)
        assert run_sweep(sweep, jobs=2).to_json() == serial.to_json()

    def test_goal_rejects_instances_other_than_everyone(self):
        with pytest.raises(ConfigurationError, match="'everyone'"):
            execute_run(
                epsilon_payload(instance={"kind": "uniform", "k": 3})
            )

    def test_epsilon_is_a_config_field(self):
        assert build_config("epsilon", {"epsilon": 0.75}).epsilon == 0.75
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            build_config("epsilon", {"epsilon": 1.5})
