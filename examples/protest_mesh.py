"""Protest mesh: gossip over a moving crowd with no infrastructure.

The paper's motivating scenario: phones of protesters drift through a
square; organizers hold a few messages that must reach everyone.  The
topology changes every few rounds (the τ ≥ 1 regime), and there is no
shared-randomness service — exactly the setting SimSharedBit was built
for.  We compare it against BlindMatch (b = 0) to show what the single
advertising bit buys.

Run:  python examples/protest_mesh.py
"""

from repro.analysis.tables import render_table
from repro.core.runner import run_gossip
from repro.workloads.scenarios import protest_scenario

SEED = 11


def main() -> None:
    rows = []
    for algorithm in ("blindmatch", "simsharedbit"):
        scenario = protest_scenario(n=30, k=4, seed=SEED, tau=4)
        result = run_gossip(
            algorithm=algorithm,
            dynamic_graph=scenario.dynamic_graph,
            instance=scenario.instance,
            seed=SEED,
            max_rounds=200_000,
            trace_sample_every=256,
        )
        rows.append(
            (
                algorithm,
                "0" if algorithm == "blindmatch" else "1",
                result.rounds,
                "yes" if result.solved else "no",
                result.trace.total_connections,
            )
        )
    print(f"scenario: {protest_scenario(seed=SEED).description}")
    print(
        render_table(
            headers=("algorithm", "tag bits b", "rounds", "solved",
                     "connections"),
            rows=rows,
            title="protest mesh (n=30, k=4, mobile topology, tau=4)",
        )
    )
    print(
        "\nWith b=0 every connection is a blind guess; with b=1 nodes only "
        "chase\nneighbors whose token sets provably differ.  At this density "
        "the two are\nclose — BlindMatch's Δ² penalty bites when hubs emerge "
        "(see\nexamples/specs/figures/lb1_doublestar.txt), while "
        "SimSharedBit's O(kn)\nis insensitive to Δ."
    )


if __name__ == "__main__":
    main()
