"""Degraded networks: the same gossip algorithms under realistic faults.

The paper's model assumes every phone is awake every round and every
accepted connection succeeds.  The fault layer (repro.sim.faults, see
DESIGN.md §6) deliberately breaks those assumptions — duty-cycled
radios, crash/rejoin churn, lossy links — while keeping the clean model
byte-identical as the null case.  This example runs SharedBit on one
mesh under each regime and shows what each kind of degradation costs.

Run:  python examples/degraded_network.py
"""

from repro.analysis.tables import render_table
from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.graphs.dynamic import GeometricMobilityGraph

SEED = 7
N, K = 32, 4

FAULTS = [
    ("clean", None),
    ("sleep 6/8", {"kind": "sleep", "period": 8, "duty": 6}),
    ("sleep 4/8", {"kind": "sleep", "period": 8, "duty": 4}),
    ("churn", {"kind": "churn", "cycle": 32, "crash_prob": 0.3,
               "min_outage": 4, "max_outage": 12}),
    ("churn+reset", {"kind": "churn", "cycle": 32, "crash_prob": 0.3,
                     "min_outage": 4, "max_outage": 12,
                     "reset_tokens": True}),
    ("lossy 25%", {"kind": "lossy", "drop_prob": 0.25}),
]


def main() -> None:
    rows = []
    for label, fault in FAULTS:
        graph = GeometricMobilityGraph(n=N, radius=0.35, step=0.05,
                                       tau=4, seed=SEED)
        result = run_gossip(
            "sharedbit",
            graph,
            uniform_instance(n=N, k=K, seed=SEED),
            seed=SEED,
            max_rounds=100_000,
            fault=fault,
            trace_sample_every=256,
        )
        rows.append((
            label,
            result.rounds,
            "yes" if result.solved else "no",
            result.trace.total_connections,
            result.trace.total_dropped_connections,
        ))
    print(render_table(
        headers=("fault regime", "rounds", "solved", "connections",
                 "dropped"),
        rows=rows,
        title=f"sharedbit on a mobility mesh (n={N}, k={K}), "
              "clean vs degraded",
    ))
    print(
        "Same seed, same mesh, same algorithm: only the fault regime "
        "changes.\nThe clean row is byte-identical to the pre-fault-layer "
        "engine (the\nNoFaults null-model guarantee, pinned by the golden "
        "corpus)."
    )


if __name__ == "__main__":
    main()
