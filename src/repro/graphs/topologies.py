"""Named static topology families.

Each generator returns a :class:`Topology`: a connected ``networkx.Graph``
on vertices ``0 .. n-1`` plus the structural facts the paper's bounds are
stated in terms of (when they have clean closed forms): vertex expansion α,
maximum degree Δ, diameter D.

The families here are the ones the paper's analysis leans on:

* :func:`star` / :func:`double_star` — the double star is the Ω(Δ²/√α)
  lower-bound construction sketched in the paper's introduction;
* :func:`path` / :func:`cycle` — worst-case α = Θ(1/n) graphs;
* :func:`complete` — best-case expansion;
* :func:`random_regular` (= :func:`expander`) — constant-expansion graphs
  for the "well-connected" regimes where CrowdedBin and ε-gossip shine;
* :func:`hypercube`, :func:`grid`, :func:`barbell`, :func:`lollipop`,
  :func:`binary_tree`, :func:`erdos_renyi` — intermediate shapes used by
  the test suite and the sweep benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.graphs import lazy_nx as nx
from repro.registry import register_topology

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
    "ring_expander",
]


@dataclass(frozen=True)
class Topology:
    """A connected graph plus its known structural facts.

    ``alpha`` / ``diameter_hint`` are exact when the family has a closed
    form and ``None`` otherwise (callers fall back to
    :mod:`repro.graphs.metrics`).  ``max_degree`` is always exact — it is
    cheap to compute for any graph.
    """

    graph: nx.Graph
    name: str
    params: dict = field(default_factory=dict)
    alpha: float | None = None
    diameter_hint: int | None = None
    notes: str = ""

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def max_degree(self) -> int:
        return max(d for _, d in self.graph.degree)

    def __post_init__(self):
        if self.graph.number_of_nodes() < 2:
            raise ConfigurationError(
                f"topology {self.name!r} needs at least 2 nodes"
            )
        if not nx.is_connected(self.graph):
            raise ConfigurationError(
                f"topology {self.name!r} must be connected"
            )
        if sorted(self.graph.nodes) != list(range(self.graph.number_of_nodes())):
            raise ConfigurationError(
                f"topology {self.name!r} must use vertices 0..n-1"
            )

    def __repr__(self) -> str:
        return f"Topology({self.name}, n={self.n}, Δ={self.max_degree})"


#: The largest n whose vertex ids fit the int64 arrays they live in.
_MAX_N = 2**63 - 1


def _check_n(n: int, minimum: int = 2) -> None:
    if not n >= minimum:
        raise ConfigurationError(f"need n >= {minimum}, got n={n}")
    if not n <= _MAX_N:
        raise ConfigurationError(
            f"need n <= 2**63 - 1 (vertex ids are int64), got n={n}"
        )


def _check_seed(seed) -> None:
    if not isinstance(seed, int):
        raise ConfigurationError(f"need an integer seed, got seed={seed!r}")


def _check_degree(n: int, degree) -> None:
    if not isinstance(degree, int) or not 2 <= degree < n or (n * degree) % 2:
        raise ConfigurationError(
            f"need an integer 2 <= degree < n with n*degree even for a "
            f"regular graph, got degree={degree!r} (n={n})"
        )


def _size_only(n: int, seed: int) -> dict:
    """``from_size`` hook for families parameterized by ``n`` alone."""
    return {"n": n}


def _expander_from_size(n: int, seed: int) -> dict:
    """Near-6-regular expander params for a bare ``--n`` (CLI convention)."""
    degree = min(6, n - 1)
    if (n * degree) % 2:
        degree -= 1
    return {"n": n, "degree": max(degree, 2), "seed": seed}


def _grid_from_size(n: int, seed: int) -> dict:
    """A roughly square grid of about ``n`` vertices (CLI convention)."""
    cols = max(2, int(n**0.5))
    rows = max(2, n // cols)
    return {"rows": rows, "cols": cols}


@register_topology(
    name="star",
    description="one hub, n-1 leaves; alpha = 1/floor(n/2), D = 2",
    from_size=_size_only,
)
def star(n: int) -> Topology:
    """A star: vertex 0 is the hub, 1..n-1 are leaves.

    α = 1/⌊n/2⌋ (witness: any ⌊n/2⌋ leaves have boundary {hub}), Δ = n-1,
    D = 2.
    """
    _check_n(n, 3)
    g = nx.star_graph(n - 1)
    return Topology(
        graph=g,
        name="star",
        params={"n": n},
        alpha=1.0 / (n // 2),
        diameter_hint=2,
    )


@register_topology(
    name="double_star",
    description="two bridged hubs; the Omega(D^2/sqrt(a)) lower-bound shape",
)
def double_star(points: int) -> Topology:
    """Two hubs joined by an edge, each with ``points`` leaves.

    This is the construction behind the Ω(Δ²/√α) lower bound for blind
    strategies sketched in the paper's introduction: for the bridge edge to
    fire, one hub must pick the other (probability ≈ 1/Δ) *and* the pick
    must be accepted against ≈ Δ competing proposals (probability ≈ 1/Δ).

    n = 2·points + 2, Δ = points + 1, α = 1/(points + 1) (witness: one
    whole star), D = 3.
    """
    if not points >= 1:
        raise ConfigurationError(f"need points >= 1, got {points}")
    n = 2 * points + 2
    _check_n(n)
    g = nx.Graph()
    hub_u, hub_v = 0, 1
    g.add_edge(hub_u, hub_v)
    for i in range(points):
        g.add_edge(hub_u, 2 + i)
        g.add_edge(hub_v, 2 + points + i)
    return Topology(
        graph=g,
        name="double_star",
        params={"points": points, "n": n},
        alpha=1.0 / (points + 1),
        diameter_hint=3,
        notes="Ω(Δ²/√α) lower-bound construction for blind strategies",
    )


@register_topology(
    name="path",
    description="worst-case expansion alpha = Theta(1/n), D = n-1",
    from_size=_size_only,
)
def path(n: int) -> Topology:
    """A path on n vertices. α = 1/⌊n/2⌋, Δ = 2, D = n-1."""
    _check_n(n)
    return Topology(
        graph=nx.path_graph(n),
        name="path",
        params={"n": n},
        alpha=1.0 / (n // 2),
        diameter_hint=n - 1,
    )


@register_topology(
    name="cycle",
    description="ring; alpha = Theta(1/n), Delta = 2",
    from_size=_size_only,
)
def cycle(n: int) -> Topology:
    """A cycle on n vertices. α = 2/⌊n/2⌋, Δ = 2, D = ⌊n/2⌋."""
    _check_n(n, 3)
    return Topology(
        graph=nx.cycle_graph(n),
        name="cycle",
        params={"n": n},
        alpha=2.0 / (n // 2),
        diameter_hint=n // 2,
    )


@register_topology(
    name="complete",
    description="K_n, best-case expansion (alpha >= 1)",
    from_size=_size_only,
)
def complete(n: int) -> Topology:
    """The complete graph K_n. α = ⌈n/2⌉/⌊n/2⌋ ≥ 1, Δ = n-1, D = 1."""
    _check_n(n)
    return Topology(
        graph=nx.complete_graph(n),
        name="complete",
        params={"n": n},
        alpha=math.ceil(n / 2) / (n // 2),
        diameter_hint=1,
    )


@register_topology(
    name="hypercube",
    description="dim-dimensional hypercube (n = 2^dim)",
)
def hypercube(dim: int) -> Topology:
    """The ``dim``-dimensional hypercube (n = 2^dim, Δ = dim, D = dim).

    α = Θ(1/√dim) (Harper's theorem); we leave ``alpha=None`` and let the
    metrics module compute or estimate it, since the exact constant depends
    on n.
    """
    if not 1 <= dim <= 62:
        raise ConfigurationError(f"need 1 <= dim <= 62, got {dim}")
    g = nx.hypercube_graph(dim)
    mapping = {node: int("".join(map(str, node)), 2) for node in g.nodes}
    g = nx.relabel_nodes(g, mapping)
    return Topology(
        graph=g,
        name="hypercube",
        params={"dim": dim, "n": 2**dim},
        diameter_hint=dim,
    )


@register_topology(
    name="random_regular",
    description="connected random d-regular graph (expander w.h.p.)",
)
def random_regular(n: int, degree: int, seed: int) -> Topology:
    """A connected random ``degree``-regular graph.

    Random d-regular graphs (d ≥ 3) are expanders with high probability, so
    this family provides the constant-α graphs in the benchmarks.  Sampling
    retries until connected (a.a.s. one attempt suffices).
    """
    _check_n(n, 4)
    _check_seed(seed)
    _check_degree(n, degree)
    for attempt in range(64):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return Topology(
                graph=g,
                name="random_regular",
                params={"n": n, "degree": degree, "seed": seed},
                notes="expander w.h.p. for degree >= 3",
            )
    raise ConfigurationError(
        f"could not sample a connected {degree}-regular graph on {n} vertices"
    )


@register_topology(
    name="expander",
    description="random_regular alias emphasizing constant alpha",
    from_size=_expander_from_size,
)
def expander(n: int, degree: int = 6, seed: int = 0) -> Topology:
    """Alias for :func:`random_regular` emphasizing its role: constant α."""
    topo = random_regular(n, degree, seed)
    return Topology(
        graph=topo.graph,
        name="expander",
        params=topo.params,
        notes=topo.notes,
    )


def _ring_expander_from_size(n: int, seed: int) -> dict:
    """Even degree ≤ 6 for a bare ``--n`` (CLI convention)."""
    degree = min(6, n - 1)
    if degree % 2:
        degree -= 1
    return {"n": n, "degree": max(degree, 2), "seed": seed}


def _ring_expander_dynamic(**params):
    """``build_dynamic`` hook: straight to a CSR-backed DynamicGraph."""
    from repro.graphs.dynamic import ring_expander_graph

    return ring_expander_graph(**params)


@register_topology(
    name="ring_expander",
    description="union of degree/2 random Hamiltonian cycles — connected "
                "by construction, CSR-direct at million-node scale",
    from_size=_ring_expander_from_size,
    build_dynamic=_ring_expander_dynamic,
)
def ring_expander(n: int, degree: int = 6, seed: int = 0) -> Topology:
    """The :func:`~repro.graphs.dynamic.ring_expander_graph` family as a
    conventional ``nx`` Topology (object path, CLI, small-n tests).

    At scale the experiments layer never calls this factory — the
    registered ``build_dynamic`` hook returns the CSR-backed dynamic
    graph directly, skipping the ``nx`` materialization and the
    connectivity check this constructor performs.  Both views are built
    from the same edge arrays, so they are the same graph.
    """
    from repro.graphs.dynamic import ring_expander_graph

    dyn = ring_expander_graph(n=n, degree=degree, seed=seed)
    return Topology(
        graph=dyn.graph_at(1),
        name="ring_expander",
        params={"n": n, "degree": degree, "seed": seed},
        notes="expander w.h.p. for degree >= 4; connected by construction",
    )


@register_topology(
    name="erdos_renyi",
    description="connected G(n, p) sample",
)
def erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """A connected G(n, p) sample (resamples until connected)."""
    _check_n(n)
    _check_seed(seed)
    if not 0 < p <= 1:
        raise ConfigurationError(f"need 0 < p <= 1, got p={p}")
    for attempt in range(256):
        g = nx.gnp_random_graph(n, p, seed=seed + attempt)
        if g.number_of_nodes() >= 2 and nx.is_connected(g):
            return Topology(
                graph=g,
                name="erdos_renyi",
                params={"n": n, "p": p, "seed": seed},
            )
    raise ConfigurationError(
        f"could not sample a connected G({n},{p}); increase p"
    )


@register_topology(
    name="grid",
    description="rows x cols street grid; alpha = Theta(1/max(rows, cols))",
    from_size=_grid_from_size,
)
def grid(rows: int, cols: int) -> Topology:
    """A rows×cols grid. Δ = 4, D = rows+cols-2, α = Θ(1/max(rows, cols))."""
    if not (rows >= 1 and cols >= 1 and rows * cols >= 2):
        raise ConfigurationError(f"need rows*cols >= 2, got {rows}x{cols}")
    _check_n(rows * cols)
    g = nx.grid_2d_graph(rows, cols)
    mapping = {(r, c): r * cols + c for r, c in g.nodes}
    g = nx.relabel_nodes(g, mapping)
    return Topology(
        graph=g,
        name="grid",
        params={"rows": rows, "cols": cols, "n": rows * cols},
        diameter_hint=rows + cols - 2,
    )


@register_topology(
    name="barbell",
    description="two cliques joined by a path; alpha = Theta(1/clique_size)",
)
def barbell(clique_size: int, bridge_length: int = 0) -> Topology:
    """Two cliques of ``clique_size`` joined by a path of ``bridge_length``.

    A classic bottleneck graph: α = Θ(1/clique_size).
    """
    if not clique_size >= 3:
        raise ConfigurationError(f"need clique_size >= 3, got {clique_size}")
    if not bridge_length >= 0:
        raise ConfigurationError(f"need bridge_length >= 0, got {bridge_length}")
    _check_n(2 * clique_size + bridge_length)
    g = nx.barbell_graph(clique_size, bridge_length)
    return Topology(
        graph=g,
        name="barbell",
        params={"clique_size": clique_size, "bridge_length": bridge_length},
    )


@register_topology(
    name="lollipop",
    description="a clique with a path attached",
)
def lollipop(clique_size: int, path_length: int) -> Topology:
    """A clique with a path attached (the lollipop graph)."""
    if not clique_size >= 3:
        raise ConfigurationError(f"need clique_size >= 3, got {clique_size}")
    if not path_length >= 1:
        raise ConfigurationError(f"need path_length >= 1, got {path_length}")
    _check_n(clique_size + path_length)
    g = nx.lollipop_graph(clique_size, path_length)
    return Topology(
        graph=g,
        name="lollipop",
        params={"clique_size": clique_size, "path_length": path_length},
    )


@register_topology(
    name="binary_tree",
    description="complete binary tree of the given depth",
)
def binary_tree(depth: int) -> Topology:
    """A complete binary tree of the given depth (n = 2^(depth+1) - 1)."""
    if not 1 <= depth <= 61:
        raise ConfigurationError(f"need 1 <= depth <= 61, got {depth}")
    g = nx.balanced_tree(2, depth)
    return Topology(
        graph=g,
        name="binary_tree",
        params={"depth": depth, "n": 2 ** (depth + 1) - 1},
        diameter_hint=2 * depth,
    )
