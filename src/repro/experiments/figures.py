"""Canonical sweep specs for the paper's figures.

One definition per figure, shared by the benchmark that regenerates the
table (``benchmarks/bench_figure1.py``) and the example that drives it in
parallel (``examples/sweep_figure1.py``) — the two must never drift, and
sharing the spec also means they share cache entries.

:func:`argv_flag` is the tolerant flag lookup the example drivers use:
example scripts are executed by the test suite under pytest's own
``sys.argv``, so unknown flags must be ignored and a trailing bare flag
must not crash.
"""

from __future__ import annotations

from repro.experiments.specs import SweepSpec

__all__ = ["FIGURE1_ROW_KEYS", "argv_flag", "figure1_sweep"]

#: The rows of Figure 1, in the paper's order (the last is §7 ε-gossip).
FIGURE1_ROW_KEYS = (
    "blindmatch", "sharedbit", "simsharedbit", "crowdedbin", "epsilon",
)


def figure1_sweep(n: int = 16, k: int = 2, seeds=(11, 23, 37)) -> SweepSpec:
    """The Figure-1 comparison as one declarative sweep.

    Rows 1–3 on a relabeled star (τ = 1); CrowdedBin's τ = ∞ requirement
    and ε-gossip's k = n static-expander setting are stated as overrides.
    """
    return SweepSpec(
        name=f"figure1-n{n}-k{k}",
        base={
            "algorithm": "sharedbit",
            "graph": {"family": "star", "params": {"n": n}},
            "dynamic": {"kind": "relabeling", "tau": 1},
            "instance": {"kind": "uniform", "k": k},
            "max_rounds": 600_000,
            "engine": {"trace_sample_every": 1024},
        },
        grid={"algorithm": list(FIGURE1_ROW_KEYS)},
        seeds=tuple(seeds),
        overrides=[
            {
                "when": {"algorithm": "crowdedbin"},
                "set": {
                    "dynamic": {"kind": "static"},
                    "config": {"preset": "practical"},
                    "engine.termination_every": 16,
                    "max_rounds": 2_000_000,
                },
            },
            {
                "when": {"algorithm": "epsilon"},
                "set": {
                    "graph": {
                        "family": "expander",
                        "params": {"n": n, "degree": 4, "seed": 1},
                    },
                    "dynamic": {"kind": "static"},
                    "instance": {"kind": "everyone"},
                    "config": {"epsilon": 0.5},
                    # The coverage check costs O(n^2); every 4th round
                    # is the cadence run_epsilon_gossip defaults to.
                    "engine.termination_every": 4,
                    "max_rounds": 400_000,
                },
            },
        ],
    )


def argv_flag(argv, name: str, default=None):
    """Value following ``name`` in ``argv``, or ``default`` (never raises).

    The next token must look like a value — a bare flag followed by
    another flag falls back to ``default``.
    """
    if name in argv:
        index = argv.index(name)
        if index + 1 < len(argv) and not argv[index + 1].startswith("--"):
            return argv[index + 1]
    return default
