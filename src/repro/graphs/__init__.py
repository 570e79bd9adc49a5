"""Network topologies, dynamic graphs, and graph metrics.

The mobile telephone model runs on a *dynamic graph*: a sequence
``G_1, G_2, ...`` of connected graphs over a fixed vertex set, constrained
by a stability factor τ (at least τ rounds between changes; τ = ∞ means the
graph never changes).  This subpackage provides:

* :mod:`repro.graphs.topologies` — named static graph families used
  throughout the paper's analysis (stars, the Ω(Δ²) double-star, paths,
  expanders, ...), each annotated with known structural facts;
* :mod:`repro.graphs.metrics` — vertex expansion α, boundary ∂S, maximum
  degree Δ, diameter D (exact for small graphs, witness-based estimates for
  larger ones);
* :mod:`repro.graphs.dynamic` — dynamic-graph adversaries respecting τ,
  including full per-round re-sampling (τ = 1) and a geometric mobility
  workload.
"""

from repro.graphs.topologies import (
    Topology,
    star,
    double_star,
    path,
    cycle,
    complete,
    hypercube,
    random_regular,
    erdos_renyi,
    grid,
    barbell,
    lollipop,
    binary_tree,
    expander,
)
from repro.graphs.metrics import (
    boundary,
    expansion_of_set,
    vertex_expansion_exact,
    vertex_expansion_estimate,
    max_degree,
    diameter,
    ExpansionEstimate,
)
from repro.graphs.dynamic import (
    TAU_INFINITY,
    DynamicGraph,
    StaticDynamicGraph,
    PeriodicRewireGraph,
    RelabelingAdversary,
    GeometricMobilityGraph,
    dynamic_max_degree,
    dynamic_expansion_estimate,
)

__all__ = [
    "Topology",
    "star",
    "double_star",
    "path",
    "cycle",
    "complete",
    "hypercube",
    "random_regular",
    "erdos_renyi",
    "grid",
    "barbell",
    "lollipop",
    "binary_tree",
    "expander",
    "boundary",
    "expansion_of_set",
    "vertex_expansion_exact",
    "vertex_expansion_estimate",
    "max_degree",
    "diameter",
    "ExpansionEstimate",
    "TAU_INFINITY",
    "DynamicGraph",
    "StaticDynamicGraph",
    "PeriodicRewireGraph",
    "RelabelingAdversary",
    "GeometricMobilityGraph",
    "dynamic_max_degree",
    "dynamic_expansion_estimate",
]
