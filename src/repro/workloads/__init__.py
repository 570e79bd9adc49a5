"""Scenario generators motivated by the paper's introduction.

The paper motivates smartphone peer-to-peer meshes with concrete settings:
censored infrastructure (protests), overwhelmed infrastructure (festivals,
marches), absent infrastructure (disasters, remote events), and
data-budget conservation in developing regions.  Each scenario here builds
a (dynamic graph, gossip instance) pair exercising the corresponding
regime of the model parameters.
"""

from repro.workloads.scenarios import (
    Scenario,
    protest_scenario,
    festival_scenario,
    disaster_scenario,
    rural_mesh_scenario,
)

__all__ = [
    "Scenario",
    "protest_scenario",
    "festival_scenario",
    "disaster_scenario",
    "rural_mesh_scenario",
]
