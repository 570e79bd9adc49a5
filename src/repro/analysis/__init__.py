"""Theory-vs-measurement utilities.

* :mod:`repro.analysis.bounds` — the paper's proven round-complexity bounds
  as evaluable functions of (n, k, α, Δ, τ, ε), one per theorem;
* :mod:`repro.analysis.fits` — log–log scaling-exponent estimation, ratio
  series, and crossover detection for comparing measured sweeps to bound
  shapes;
* :mod:`repro.analysis.tables` — the fixed-width plain-text table
  formatter.
"""

from repro.analysis.bounds import (
    blindmatch_bound,
    sharedbit_bound,
    simsharedbit_bound,
    crowdedbin_bound,
    epsilon_gossip_bound,
    ppush_bound,
    doublestar_lower_bound,
    BOUNDS,
)
from repro.analysis.fits import (
    loglog_slope,
    ratio_series,
    crossover_point,
    geometric_mean,
)
from repro.analysis.tables import render_table
from repro.analysis.curves import (
    SpreadCurve,
    spread_curve_from_trace,
    sparkline,
)

__all__ = [
    "SpreadCurve",
    "spread_curve_from_trace",
    "sparkline",
    "blindmatch_bound",
    "sharedbit_bound",
    "simsharedbit_bound",
    "crowdedbin_bound",
    "epsilon_gossip_bound",
    "ppush_bound",
    "doublestar_lower_bound",
    "BOUNDS",
    "loglog_slope",
    "ratio_series",
    "crossover_point",
    "geometric_mean",
    "render_table",
]
