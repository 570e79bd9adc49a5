"""Tests for the motivating workload scenarios."""

import networkx as nx
import pytest

from repro.core.runner import run_gossip
from repro.registry import SCENARIO_REGISTRY
from repro.sim.faults import CrashChurn, LossyLinks, SleepCycle
from repro.workloads.scenarios import (
    disaster_scenario,
    festival_nightfall_scenario,
    festival_scenario,
    protest_lossy_scenario,
    protest_scenario,
    rural_mesh_scenario,
    subway_scenario,
)


class TestScenarioShapes:
    @pytest.mark.parametrize("name", sorted(SCENARIO_REGISTRY.names()))
    def test_instance_matches_graph(self, name):
        scenario = SCENARIO_REGISTRY.get(name).build(seed=1)
        assert scenario.dynamic_graph.n == scenario.instance.n
        assert scenario.recommended_algorithm in (
            "blindmatch", "sharedbit", "simsharedbit", "crowdedbin",
        )

    @pytest.mark.parametrize("name", sorted(SCENARIO_REGISTRY.names()))
    def test_topologies_connected(self, name):
        scenario = SCENARIO_REGISTRY.get(name).build(seed=1)
        for r in (1, 5, 9):
            assert nx.is_connected(scenario.dynamic_graph.graph_at(r))

    def test_protest_is_dynamic(self):
        scenario = protest_scenario(seed=2)
        assert scenario.dynamic_graph.tau != float("inf")

    def test_festival_is_stable(self):
        scenario = festival_scenario(seed=2)
        assert scenario.dynamic_graph.tau == float("inf")

    def test_disaster_single_holder(self):
        scenario = disaster_scenario(seed=2)
        assert len(scenario.instance.initial_tokens) == 1
        assert scenario.instance.k == 3

    def test_clean_scenarios_have_no_fault(self):
        for factory in (protest_scenario, festival_scenario,
                        disaster_scenario, rural_mesh_scenario):
            assert factory(seed=1).fault is None

    def test_faulty_scenarios_carry_their_regime(self):
        assert isinstance(subway_scenario(seed=1).fault, CrashChurn)
        assert isinstance(protest_lossy_scenario(seed=1).fault, LossyLinks)
        assert isinstance(
            festival_nightfall_scenario(seed=1).fault, SleepCycle
        )

    def test_faulty_variants_share_clean_shapes(self):
        clean = protest_scenario(n=24, k=3, seed=7)
        lossy = protest_lossy_scenario(n=24, k=3, seed=7)
        assert lossy.instance.initial_tokens == clean.instance.initial_tokens
        assert lossy.dynamic_graph.n == clean.dynamic_graph.n


class TestScenarioRuns:
    def test_festival_crowdedbin_solves(self):
        scenario = festival_scenario(n=24, k=3, seed=3)
        from repro.core.crowdedbin import CrowdedBinConfig

        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=3,
            max_rounds=300_000,
            config=CrowdedBinConfig.practical(),
            termination_every=16,
            trace_sample_every=256,
        )
        assert result.solved

    def test_protest_simsharedbit_solves(self):
        scenario = protest_scenario(n=20, k=3, seed=4)
        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=4,
            max_rounds=60_000,
        )
        assert result.solved

    def test_disaster_sharedbit_solves(self):
        scenario = disaster_scenario(n=24, seed=5)
        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=5,
            max_rounds=60_000,
        )
        assert result.solved

    def test_rural_mesh_solves(self):
        scenario = rural_mesh_scenario(n=20, k=3, seed=6)
        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=6,
            max_rounds=60_000,
        )
        assert result.solved

    def test_subway_solves_under_churn(self):
        scenario = subway_scenario(n=20, k=3, seed=7)
        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=7,
            max_rounds=60_000,
            fault=scenario.fault,
        )
        assert result.solved

    def test_protest_lossy_solves_and_drops(self):
        scenario = protest_lossy_scenario(n=20, k=3, seed=8)
        result = run_gossip(
            scenario.recommended_algorithm,
            scenario.dynamic_graph,
            scenario.instance,
            seed=8,
            max_rounds=60_000,
            fault=scenario.fault,
        )
        assert result.solved
        assert result.trace.total_dropped_connections > 0

    def test_festival_nightfall_slower_than_clean_festival(self):
        # The same mesh and sources, radios duty-cycled: gossip still
        # completes, but no faster than the always-awake festival.
        night = festival_nightfall_scenario(n=24, k=3, seed=9)
        clean = festival_scenario(n=24, k=3, seed=9)
        faulty_run = run_gossip(
            "sharedbit", night.dynamic_graph, night.instance, seed=9,
            max_rounds=60_000, fault=night.fault,
        )
        clean_run = run_gossip(
            "sharedbit", clean.dynamic_graph, clean.instance, seed=9,
            max_rounds=60_000,
        )
        assert faulty_run.solved and clean_run.solved
        assert faulty_run.rounds >= clean_run.rounds
