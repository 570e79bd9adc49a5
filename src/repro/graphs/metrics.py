"""Graph metrics: vertex expansion, boundary, degree, diameter.

The paper (§2) defines, for a connected graph ``G = (V, E)`` and
``S ⊆ V``::

    ∂S   = { v ∈ V \\ S : N(v) ∩ S ≠ ∅ }      (the outer boundary)
    α(S) = |∂S| / |S|
    α(G) = min over S ⊂ V, 0 < |S| ≤ n/2 of α(S)

and for a dynamic graph, α is the minimum over all constituent graphs and
Δ the maximum over them.

Exact α is NP-hard in general, so this module offers two entry points:

* :func:`vertex_expansion_exact` — exhaustive over all subsets; only for
  small n (default guard: n ≤ 18);
* :func:`vertex_expansion_estimate` — an *upper bound with witness*, taking
  the best cut found among: Fiedler-vector sweep cuts, BFS balls around
  every vertex, degree-ordered prefixes, and randomized local search.  For
  the structured families in :mod:`repro.graphs.topologies` the estimate is
  exact in practice (tests cross-check it against closed forms and the
  exhaustive computation).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graphs import lazy_nx as nx

__all__ = [
    "boundary",
    "expansion_of_set",
    "vertex_expansion_exact",
    "vertex_expansion_estimate",
    "ExpansionEstimate",
    "max_degree",
    "diameter",
    "cut_edges",
    "conductance_of_set",
    "conductance_exact",
    "conductance_estimate",
]

_EXACT_LIMIT = 18


def boundary(graph: nx.Graph, subset) -> set:
    """Return ∂S: vertices outside ``subset`` adjacent to it."""
    s = set(subset)
    if not s:
        raise ConfigurationError("boundary of the empty set is undefined")
    out = set()
    for u in s:
        for v in graph.neighbors(u):
            if v not in s:
                out.add(v)
    return out


def expansion_of_set(graph: nx.Graph, subset) -> float:
    """Return α(S) = |∂S| / |S|."""
    s = set(subset)
    return len(boundary(graph, s)) / len(s)


def vertex_expansion_exact(graph: nx.Graph, limit: int = _EXACT_LIMIT) -> float:
    """Exact α(G) by exhausting all subsets with 0 < |S| ≤ n/2.

    Guarded by ``limit`` because the cost is Θ(2^n); raise the limit
    explicitly if you really want a bigger exhaustive run.
    """
    n = graph.number_of_nodes()
    if n > limit:
        raise ConfigurationError(
            f"exact expansion is exponential; n={n} exceeds limit={limit} "
            "(use vertex_expansion_estimate instead)"
        )
    nodes = list(graph.nodes)
    best = float("inf")
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(nodes, size):
            best = min(best, expansion_of_set(graph, subset))
    return best


@dataclass(frozen=True)
class ExpansionEstimate:
    """An upper bound on α(G) with the witness set that achieves it."""

    alpha: float
    witness: frozenset

    def __float__(self) -> float:
        return self.alpha


def _candidate_cuts(graph: nx.Graph, rng: random.Random, samples: int):
    """Yield candidate subsets S with 0 < |S| <= n/2."""
    n = graph.number_of_nodes()
    nodes = list(graph.nodes)
    half = n // 2

    # Fiedler sweep: order vertices by the second Laplacian eigenvector and
    # take every prefix.  This is the classic spectral heuristic; it finds
    # the bottleneck cut of every structured family we generate.
    # A graph without one (disconnected, or fewer than two vertices) skips
    # the sweep; anything else — a missing scipy above all — raises.
    try:
        fiedler = nx.fiedler_vector(graph, seed=0)
    except nx.NetworkXError:
        fiedler = None
    if fiedler is not None:
        order = [v for _, v in sorted(zip(fiedler, nodes))]
        for size in range(1, half + 1):
            yield order[:size]

    # BFS balls: for each vertex, every ball that fits in half the graph.
    for root in nodes:
        ball = [root]
        seen = {root}
        frontier = [root]
        while frontier and len(ball) < half:
            nxt = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            take = nxt[: half - len(ball)]
            if not take:
                break
            ball.extend(take)
            frontier = nxt
            yield list(ball)

    # Degree-ordered prefixes (low-degree fringe first).
    by_degree = sorted(nodes, key=lambda v: graph.degree(v))
    for size in range(1, half + 1):
        yield by_degree[:size]

    # Random subsets.
    for _ in range(samples):
        size = rng.randint(1, half)
        yield rng.sample(nodes, size)


def _local_search(graph: nx.Graph, subset: set, rounds: int = 2) -> set:
    """Greedy improvement: try single-vertex swaps that lower α(S)."""
    n = graph.number_of_nodes()
    current = set(subset)
    best_alpha = expansion_of_set(graph, current)
    for _ in range(rounds):
        improved = False
        for v in list(graph.nodes):
            if v in current:
                if len(current) <= 1:
                    continue
                trial = current - {v}
            else:
                if len(current) + 1 > n // 2:
                    continue
                trial = current | {v}
            alpha = expansion_of_set(graph, trial)
            if alpha < best_alpha:
                best_alpha = alpha
                current = trial
                improved = True
        if not improved:
            break
    return current


def vertex_expansion_estimate(
    graph: nx.Graph,
    samples: int = 64,
    seed: int = 0,
    local_search: bool = True,
) -> ExpansionEstimate:
    """Best (smallest) α(S) found over heuristic candidate cuts.

    Always an *upper bound* on the true α(G), with a concrete witness set.
    For n ≤ 18 callers wanting ground truth should use
    :func:`vertex_expansion_exact`.
    """
    if graph.number_of_nodes() < 2:
        raise ConfigurationError("expansion needs at least 2 vertices")
    rng = random.Random(seed)
    best_alpha = float("inf")
    best_set: set = set()
    for candidate in _candidate_cuts(graph, rng, samples):
        alpha = expansion_of_set(graph, candidate)
        if alpha < best_alpha:
            best_alpha = alpha
            best_set = set(candidate)
    if local_search:
        refined = _local_search(graph, best_set)
        alpha = expansion_of_set(graph, refined)
        if alpha < best_alpha:
            best_alpha = alpha
            best_set = refined
    return ExpansionEstimate(alpha=best_alpha, witness=frozenset(best_set))


def max_degree(graph: nx.Graph) -> int:
    """Δ(G): the maximum vertex degree."""
    return max(d for _, d in graph.degree)


def diameter(graph: nx.Graph) -> int:
    """The diameter of a connected graph."""
    return nx.diameter(graph)


# ---------------------------------------------------------------------------
# Graph conductance.
#
# The paper's related-work section leans on a result from [11]: efficient
# rumor spreading *with respect to conductance* is impossible in the mobile
# telephone model, while vertex expansion does govern spreading time.  The
# star is the separating family — conductance Θ(1) but α = Θ(1/n), and
# spreading takes Θ(n) because the hub serves one leaf per round.  The
# conductance computations here power that contrast
# (tests/test_conductance.py; PPUSH's spreading times by family are
# examples/specs/figures/thm61_ppush_alpha).
# ---------------------------------------------------------------------------


def cut_edges(graph: nx.Graph, subset) -> int:
    """Number of edges crossing the cut (S, V \\ S)."""
    s = set(subset)
    if not s:
        raise ConfigurationError("cut of the empty set is undefined")
    return sum(1 for u in s for v in graph.neighbors(u) if v not in s)


def conductance_of_set(graph: nx.Graph, subset) -> float:
    """φ(S) = cut(S, V\\S) / min(vol(S), vol(V\\S)), vol = degree sum."""
    s = set(subset)
    vol_s = sum(graph.degree(u) for u in s)
    vol_rest = sum(graph.degree(u) for u in graph.nodes if u not in s)
    denominator = min(vol_s, vol_rest)
    if denominator == 0:
        raise ConfigurationError(
            "conductance undefined: one side of the cut has volume 0"
        )
    return cut_edges(graph, s) / denominator


def conductance_exact(graph: nx.Graph, limit: int = _EXACT_LIMIT) -> float:
    """Exact conductance by exhausting all proper subsets (small n only)."""
    n = graph.number_of_nodes()
    if n > limit:
        raise ConfigurationError(
            f"exact conductance is exponential; n={n} exceeds limit={limit} "
            "(use conductance_estimate instead)"
        )
    nodes = list(graph.nodes)
    best = float("inf")
    # Volume-balanced side can exceed n/2 vertices, so scan all proper
    # subsets containing a fixed vertex (complements cover the rest).
    import itertools

    anchor, rest = nodes[0], nodes[1:]
    for size in range(0, n - 1):
        for combo in itertools.combinations(rest, size):
            subset = {anchor, *combo}
            if len(subset) == n:
                continue
            best = min(best, conductance_of_set(graph, subset))
    return best


def conductance_estimate(
    graph: nx.Graph, samples: int = 64, seed: int = 0
) -> float:
    """Upper-bound estimate of φ(G) over the same heuristic cuts as
    :func:`vertex_expansion_estimate` (Fiedler sweeps find the bottleneck
    cut of every structured family we generate)."""
    if graph.number_of_nodes() < 2:
        raise ConfigurationError("conductance needs at least 2 vertices")
    rng = random.Random(seed)
    best = float("inf")
    for candidate in _candidate_cuts(graph, rng, samples):
        best = min(best, conductance_of_set(graph, candidate))
    return best
