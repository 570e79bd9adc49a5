"""Experiment orchestration: declarative sweeps, run in parallel, cached.

This package is the substrate every sweep in the repo — benchmarks, the
``repro-gossip sweep`` CLI, and the examples — runs on:

* :mod:`repro.experiments.specs` — :class:`RunSpec` / :class:`SweepSpec`,
  a JSON-serializable description of what to run (algorithm, graph family,
  dynamic-graph recipe, instance recipe, seeds, parameter grid), with
  stable content hashes;
* :mod:`repro.experiments.runner` — :func:`execute_run` (one spec, one
  record) and :func:`run_sweep` (the whole grid, optionally over a
  ``ProcessPoolExecutor`` and an on-disk result cache);
* :mod:`repro.experiments.results` — aggregation (median / percentiles),
  tables, and the cache itself.

Quickstart::

    from repro.experiments import SweepSpec, run_sweep

    sweep = SweepSpec(
        name="sharedbit-n",
        base={
            "algorithm": "sharedbit",
            "graph": {"family": "star", "params": {"n": 8}},
            "dynamic": {"kind": "relabeling", "tau": 1},
            "instance": {"kind": "uniform", "k": 2},
            "max_rounds": 200_000,
        },
        grid={"graph.params.n": [8, 16, 32]},
        seeds=(11, 23, 37),
    )
    result = run_sweep(sweep, jobs=4, cache_dir="benchmarks/.cache")
    print(result.table())
"""

from repro.experiments.figures import argv_flag
from repro.experiments.results import (
    PointSummary,
    ResultCache,
    SweepResult,
    aggregate,
    percentile,
)
from repro.experiments.runner import (
    CROWDEDBIN_TAU_NOTE,
    execute_run,
    normalize_payload,
    run_sweep,
    stable_topology_note,
)
from repro.experiments.specs import (
    RunSpec,
    SweepSpec,
    build_config,
    build_dynamic_graph,
    build_instance,
    build_timing,
    build_topology,
    canonical_json,
    run_hash,
)

__all__ = [
    "CROWDEDBIN_TAU_NOTE",
    "argv_flag",
    "PointSummary",
    "ResultCache",
    "RunSpec",
    "SweepResult",
    "SweepSpec",
    "aggregate",
    "build_config",
    "build_dynamic_graph",
    "build_instance",
    "build_timing",
    "build_topology",
    "canonical_json",
    "execute_run",
    "normalize_payload",
    "percentile",
    "run_hash",
    "run_sweep",
    "stable_topology_note",
]
