"""Dynamic graphs with a stability factor τ.

The model (§2 of the paper): the topology in round ``r`` is a connected
graph ``G_r`` over the fixed vertex set; the sequence ``G_1, G_2, ...`` is
*fixed at the beginning of the execution* (an oblivious adversary) and at
least τ rounds must pass between changes.  ``τ = 1`` allows arbitrary
change every round; ``τ = ∞`` (``TAU_INFINITY``) means the graph never
changes.

Implementations here derive each epoch's CSR snapshot deterministically
from a seed, so the dynamic graph is a pure function of (seed, round) —
i.e. fixed in advance — while only the current snapshot (or block of
snapshots) is kept.

:class:`RelabelingAdversary` deserves a note: it permutes the vertex labels
of a fixed *shape* each epoch.  Because relabeling preserves α, Δ and D,
this adversary gives experiments a fully-dynamic (τ = 1) graph whose
structural parameters are still known exactly — which is what the paper's
bounds are stated in terms of.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.graphs import lazy_nx as nx
from repro.graphs import spatial
from repro.graphs.metrics import vertex_expansion_estimate
from repro.graphs.spatial import disk_csr
from repro.graphs.topologies import (
    Topology, _check_degree, _check_n, _check_seed,
)
from repro.registry import register_dynamics
from repro.rng import SeedTree

__all__ = [
    "TAU_INFINITY",
    "DynamicGraph",
    "StaticDynamicGraph",
    "CSRStaticGraph",
    "PeriodicRewireGraph",
    "RelabelingAdversary",
    "GeometricMobilityGraph",
    "ring_expander_graph",
    "dynamic_max_degree",
    "dynamic_expansion_estimate",
]

#: Stability factor meaning "the graph never changes".
TAU_INFINITY = math.inf


def _check_round(round_index: int) -> None:
    if round_index < 1:
        raise ConfigurationError(f"rounds are 1-indexed, got {round_index}")


def _check_graph(
    graph: nx.Graph, n: int, context: str, require_connected: bool = True
) -> nx.Graph:
    """Validate an epoch graph.  Connectivity is *policy*, not an
    invariant: the paper's clean model requires every ``G_r`` connected
    (the default), but fault-era workloads may deliberately run on a
    fragmented topology (e.g. an unbridged mobility mesh), where only the
    vertex-set check applies."""
    if graph.number_of_nodes() != n or sorted(graph.nodes) != list(range(n)):
        raise TopologyError(f"{context}: graph must use vertices 0..{n - 1}")
    if require_connected and not nx.is_connected(graph):
        raise TopologyError(f"{context}: graph must be connected")
    return graph


class DynamicGraph(ABC):
    """A τ-stable sequence of connected graphs over vertices ``0..n-1``.

    A subclass defines one method, :meth:`_csr_for_epoch`; the epoch's
    snapshot is the topology, and :meth:`graph_at` is a view of it.
    """

    def __init__(self, n: int, tau):
        _check_n(n)
        if tau != TAU_INFINITY and (isinstance(tau, bool)
                                    or not isinstance(tau, int) or tau < 1):
            raise ConfigurationError(
                f"tau must be a positive integer or TAU_INFINITY, got {tau!r}"
            )
        self.n = n
        self.tau = tau
        #: Forced CSR index dtype for every snapshot this graph produces
        #: (``None`` = the narrowest dtype that fits, see
        #: :func:`repro.sim.adjacency.index_dtype_for`).  The int32/int64
        #: differential gate sets this to pin byte-identity.
        self.csr_dtype = None
        # The last snapshot served, keyed on (epoch, csr_dtype).
        self._snapshot_key = None
        self._snapshot = None

    def epoch_of(self, round_index: int) -> int:
        """The index of the stability window containing ``round_index``."""
        _check_round(round_index)
        if self.tau == TAU_INFINITY:
            return 0
        return (round_index - 1) // self.tau

    def graph_at(self, round_index: int) -> nx.Graph:
        """The (connected) topology for round ``round_index`` (1-indexed),
        as an ``nx.Graph`` — for analysis and tests; neither the engines
        nor the live coordinator read it (they read :meth:`csr_at`).

        A fresh graph over the snapshot's edges on every call.
        """
        csr = self.csr_at(round_index)
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        sources = csr.edge_sources()
        upper = csr.indices > sources
        graph.add_edges_from(
            zip(sources[upper].tolist(), csr.indices[upper].tolist())
        )
        return graph

    def csr_at(self, round_index: int):
        """The round's topology as a :class:`~repro.sim.adjacency.CSRAdjacency`.

        The one topology hook the engines (both front halves of both)
        and the live coordinator read.  The epoch's snapshot is built
        once by :meth:`_csr_for_epoch` and served for the rest of the
        epoch, so every round of an epoch gets the same object (the
        engine's epoch-change key); setting ``csr_dtype`` rebuilds it.
        """
        key = (self.epoch_of(round_index), self.csr_dtype)
        if key != self._snapshot_key:
            self._snapshot = self._csr_for_epoch(key[0])
            self._snapshot_key = key
        return self._snapshot

    @abstractmethod
    def _csr_for_epoch(self, epoch: int):
        """The snapshot of a stability window (deterministic in epoch),
        in ``csr_dtype`` when set, every row's neighbors in ascending
        vertex order — the order every consumer's random draws are
        aligned to."""

    def __repr__(self) -> str:
        tau = "inf" if self.tau == TAU_INFINITY else self.tau
        return f"{type(self).__name__}(n={self.n}, tau={tau})"


class CSRStaticGraph(DynamicGraph):
    """τ = ∞ over a CSR snapshot — no ``nx.Graph``, no O(n) node dicts.

    The million-node static workhorse: families that can certify
    connectivity *by construction* (``ring_expander`` — a union of
    Hamiltonian cycles) build their edge arrays directly and skip both
    the ``nx`` materialization and the O(n + m) connectivity check that
    :class:`~repro.graphs.topologies.Topology` performs.  The snapshot
    is the topology; :meth:`graph_at` converts it on demand (fine at
    test sizes, deliberately unbounded at scale).
    :class:`StaticDynamicGraph` is this class over a ``Topology``'s
    snapshot.
    """

    def __init__(self, csr, name: str = "csr"):
        super().__init__(n=csr.n, tau=TAU_INFINITY)
        self.name = name
        self._csr = csr

    def _csr_for_epoch(self, epoch: int):
        csr = self._csr
        if self.csr_dtype is None or csr.indptr.dtype == self.csr_dtype:
            return csr
        from repro.sim.adjacency import CSRAdjacency

        return CSRAdjacency(
            n=csr.n,
            indptr=csr.indptr.astype(self.csr_dtype),
            indices=csr.indices.astype(self.csr_dtype),
        )


class StaticDynamicGraph(CSRStaticGraph):
    """τ = ∞: the same topology in every round — a
    :class:`CSRStaticGraph` over ``topology.graph``'s snapshot.

    Always connected — :class:`~repro.graphs.topologies.Topology` itself
    enforces connectivity, so there is no fragmented-static variant; the
    fault-era fragmentation knobs live on the dynamics that build raw
    graphs (``PeriodicRewireGraph(require_connected=False)``,
    ``GeometricMobilityGraph(bridge=False)``).
    """

    def __init__(self, topology: Topology):
        from repro.sim.adjacency import CSRAdjacency

        _check_graph(topology.graph, topology.n, topology.name)
        super().__init__(CSRAdjacency.from_graph(topology.graph),
                         name=topology.name)
        self.topology = topology


class PeriodicRewireGraph(DynamicGraph):
    """Re-sample a fresh graph from a family every τ rounds.

    ``factory(epoch, rng)`` must return a connected graph on ``0..n-1``;
    it is called with a per-epoch ``random.Random`` derived from ``seed``,
    so the whole sequence is reproducible and, importantly, *re-derivable*:
    old epochs can be regenerated exactly (used by tests to verify that the
    sequence is fixed in advance).
    """

    def __init__(self, n: int, tau, seed: int, factory,
                 require_connected: bool = True):
        super().__init__(n=n, tau=tau)
        self.seed = seed
        self.require_connected = require_connected
        self._factory = factory
        self._tree = SeedTree(seed).child("periodic-rewire")

    def _csr_for_epoch(self, epoch: int):
        from repro.sim.adjacency import CSRAdjacency

        graph = self._factory(epoch, self._tree.stream("epoch", epoch))
        _check_graph(graph, self.n, f"epoch {epoch}",
                     require_connected=self.require_connected)
        return CSRAdjacency.from_graph(graph, dtype=self.csr_dtype)

    @classmethod
    def resampled_regular(cls, n: int, degree: int, tau, seed: int):
        """Fresh random ``degree``-regular graph each epoch."""
        _check_degree(n, degree)

        def factory(epoch: int, rng: random.Random) -> nx.Graph:
            for attempt in range(64):
                g = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
                if nx.is_connected(g):
                    return g
            raise TopologyError(
                f"failed to sample connected {degree}-regular graph (epoch {epoch})"
            )

        return cls(n=n, tau=tau, seed=seed, factory=factory)

    @classmethod
    def resampled_gnp(cls, n: int, p: float, tau, seed: int,
                      require_connected: bool = True):
        """Fresh G(n, p) sample each epoch.

        With ``require_connected=False`` the first sample is taken as-is
        — possibly fragmented, the fault-era regime where raw proximity
        is all there is (clean-model runs keep the default: resample
        until connected).
        """

        def factory(epoch: int, rng: random.Random) -> nx.Graph:
            for attempt in range(256 if require_connected else 1):
                g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
                if not require_connected or nx.is_connected(g):
                    return g
            raise TopologyError(
                f"failed to sample connected G({n},{p}) (epoch {epoch})"
            )

        return cls(n=n, tau=tau, seed=seed, factory=factory,
                   require_connected=require_connected)


class RelabelingAdversary(DynamicGraph):
    """Permute the labels of a fixed shape every τ rounds.

    The graph "changes completely" from the nodes' point of view (their
    neighborhoods are rewired arbitrarily) while α, Δ and D stay exactly
    those of the base topology — the natural adversary for the paper's
    τ = 1 results, where bounds are stated in terms of those parameters.
    """

    #: A block of consecutive epochs holds at most this many directed
    #: edges, and at most ``_BLOCK_EPOCHS`` epochs: a large shape still
    #: builds one epoch at a time.
    _BLOCK_EDGES = 1 << 15
    _BLOCK_EPOCHS = 64

    def __init__(self, topology: Topology, tau, seed: int):
        from repro.sim.adjacency import CSRAdjacency

        super().__init__(n=topology.n, tau=tau)
        self.topology = topology
        self.seed = seed
        _check_graph(topology.graph, topology.n, topology.name)
        self._tree = SeedTree(seed).child("relabeling")
        base = CSRAdjacency.from_graph(topology.graph)
        self._base_degrees = base.degrees.astype(np.int64)
        self._base_ends = (base.edge_sources().astype(np.int64),
                           base.indices.astype(np.int64))
        self._max_block = max(1, min(
            self._BLOCK_EPOCHS, self._BLOCK_EDGES // max(len(base.indices), 1)
        ))
        # (first epoch, csr_dtype, indptr rows, indices rows, source rows)
        self._block = None

    def _csr_for_epoch(self, epoch: int):
        """Row ``epoch - first`` of the block holding ``epoch``.

        The next epoch past the block builds a block twice as long (up
        to ``_max_block``); any other epoch outside it, or a changed
        ``csr_dtype``, builds a block of that one epoch."""
        from repro.sim.adjacency import CSRAdjacency

        block = self._block
        if block is None or block[1] != self.csr_dtype or not (
            0 <= epoch - block[0] < len(block[2])
        ):
            count = 1
            if (block is not None and block[1] == self.csr_dtype
                    and epoch == block[0] + len(block[2])):
                count = min(2 * len(block[2]), self._max_block)
            block = self._block = self._build_block(epoch, count)
        row = epoch - block[0]
        return CSRAdjacency(n=self.n, indptr=block[2][row],
                            indices=block[3][row], _edge_sources=block[4][row])

    def _build_block(self, first: int, count: int) -> tuple:
        """Epochs ``first .. first + count - 1``: each epoch's labels
        shuffled from its own stream (so any epoch re-derives alone),
        then the relabeled edges of all of them packed as
        ``source * n + target`` keys and sorted row by row in one call.
        The keys permute the base's checked edges, so no range check is
        needed."""
        from repro.sim.adjacency import index_dtype_for

        n = self.n
        labels = []
        for epoch in range(first, first + count):
            perm = list(range(n))
            self._tree.stream("epoch", epoch).shuffle(perm)
            labels += perm
        perms = np.array(labels, dtype=np.int64).reshape(count, n)
        sources, targets = self._base_ends
        keys = perms.take(sources, axis=1)
        keys *= n
        keys += perms.take(targets, axis=1)
        keys.sort(axis=1)
        dtype = self.csr_dtype
        if dtype is None:
            dtype = index_dtype_for(n, len(sources))
        # Vertex perm[v] has the degree of base vertex v.
        degrees = np.empty_like(perms)
        np.put_along_axis(degrees, perms, self._base_degrees[None, :], 1)
        indptr = np.zeros((count, n + 1), dtype=dtype)
        np.cumsum(degrees, axis=1, out=indptr[:, 1:])
        rows, indices = np.divmod(keys, n)
        return (first, self.csr_dtype, indptr, indices.astype(dtype),
                rows.astype(dtype))


class GeometricMobilityGraph(DynamicGraph):
    """A unit-square random-waypoint mobility mesh (smartphone crowd).

    Nodes live on the unit square; each epoch every node drifts toward a
    waypoint by ``step`` and the topology is the unit-disk graph of radius
    ``radius``.  Because the clean model requires connectivity,
    disconnected components are bridged by the minimum spanning tree
    over components, each edge the closest pair of nodes across two
    (recorded in ``bridges_added``); this keeps the workload honest
    about when raw proximity alone fails.  ``bridge=False`` disables
    that repair — connectivity as *policy* — for fault-era workloads
    that want the raw fragmented proximity mesh (the engine tolerates
    isolated vertices on both paths).

    Epochs are **re-derivable**: positions are a pure function of (seed,
    epoch), so any past epoch can be replayed from scratch — sequential
    engine access walks forward incrementally, while post-run consumers
    (``dynamic_max_degree``, ``dynamic_expansion_estimate``) revisit old
    epochs and get the exact graphs the run saw.

    This is the substitute for real smartphone mobility traces (DESIGN.md
    §4): it exercises exactly the same code paths — a τ-stable dynamic
    graph with evolving neighborhoods.
    """

    def __init__(self, n: int, radius: float, step: float, tau, seed: int,
                 bridge: bool = True):
        super().__init__(n=n, tau=tau)
        if not 0 < radius <= 1.5:
            raise ConfigurationError(f"need 0 < radius <= 1.5, got {radius}")
        if not 0 <= step <= 1:
            raise ConfigurationError(f"need 0 <= step <= 1, got {step}")
        self.radius = radius
        self.step = step
        self.seed = seed
        self.bridge = bridge
        self.bridges_added = 0
        self._tree = SeedTree(seed).child("mobility")
        self._positions, self._waypoints = self._initial_state()
        self._built_through = -1

    def _initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Epoch-0 positions and waypoints as ``(n, 2)`` float64 columns
        (x, y), re-derivable from the seed."""
        rng = self._tree.stream("init")
        draws = np.array([rng.random() for _ in range(4 * self.n)])
        return draws[:2 * self.n].reshape(-1, 2), \
            draws[2 * self.n:].reshape(-1, 2)

    def positions_at(self, epoch: int) -> np.ndarray:
        """The node positions of ``epoch`` (an ``(n, 2)`` array),
        replayed from the seed.

        A pure function — it never touches the live forward state, so
        analysis code can sample any epoch's geometry at any time.
        """
        if epoch < 0:
            raise ConfigurationError(f"epochs are 0-indexed, got {epoch}")
        positions, waypoints = self._initial_state()
        for past in range(1, epoch + 1):
            self._move(positions, waypoints, past)
        return positions

    def _csr_for_epoch(self, epoch: int):
        """Positions, then the grid's disk snapshot, then the bridges.

        Sequential access (the engine's pattern) steps the live
        positions forward; revisiting an older epoch replays them from
        the seed instead — same snapshot, live state untouched.  Only
        the forward walk counts its bridges in ``bridges_added``: a
        replayed epoch's were counted when the run first reached it.
        """
        forward = epoch > self._built_through
        if forward:
            for past in range(max(self._built_through + 1, 1), epoch + 1):
                self._move(self._positions, self._waypoints, past)
            self._built_through = epoch
            positions = self._positions
        else:
            positions = self.positions_at(epoch)
        xs, ys = positions[:, 0], positions[:, 1]
        csr = disk_csr(xs, ys, self.radius, self.csr_dtype)
        if not self.bridge:
            return csr
        bridges = self._bridges(csr, xs, ys)
        if forward:
            self.bridges_added += len(bridges)
        if not bridges:
            return csr
        from repro.sim.adjacency import CSRAdjacency

        u, v = np.array(bridges, dtype=np.int64).T
        return CSRAdjacency.from_edge_lists(
            np.concatenate([csr.edge_sources(), u, v]),
            np.concatenate([csr.indices, v, u]), self.n,
            dtype=self.csr_dtype,
        )

    def _move(self, positions: np.ndarray, waypoints: np.ndarray,
              epoch: int) -> None:
        """One epoch of motion, in place: every node steps ``step``
        toward its waypoint, and one within reach lands on it and draws
        a new one — in index order, x then y.  Each value is the
        per-node scalar formula's to the bit: ``math.hypot`` (numpy's
        differs in the last place on some inputs), then IEEE
        ``-``, ``/``, ``*``, ``+`` elementwise."""
        delta = waypoints - positions
        dist = np.fromiter(
            map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()),
            dtype=np.float64, count=self.n,
        )
        arrive = dist <= self.step
        moving = ~arrive
        scale = self.step / dist[moving]
        positions[moving] += delta[moving] * scale[:, None]
        arrived = np.flatnonzero(arrive)
        if arrived.size:
            positions[arrived] = waypoints[arrived]
            rng = self._tree.stream("epoch", epoch)
            waypoints[arrived] = np.array(
                [rng.random() for _ in range(2 * arrived.size)]
            ).reshape(-1, 2)

    def _bridges(self, csr, xs: np.ndarray,
                 ys: np.ndarray) -> list[tuple[int, int]]:
        """The edges that join ``csr``'s components into one: the
        minimum spanning tree over components by nearest-pair distance
        (:func:`repro.graphs.spatial.bridges`), pinned by
        tests/test_dynamic.py against the Prim loop it replaced."""
        return spatial.bridges(xs, ys, self.radius, _component_labels(csr))


def _component_labels(csr) -> np.ndarray:
    """Each vertex's connected component in the snapshot, components
    numbered by smallest vertex — the order ``nx.connected_components``
    yields them on the same graph.

    Hook and shortcut over the CSR rows: each vertex reads the smallest
    parent among itself and its neighbors (one ``minimum.reduceat``),
    hooks its parent's root onto it, then pointer jumping flattens the
    forest into stars.  A parent only ever points at a smaller vertex
    of the same component, so when no hook moves anything every
    component is one star whose root is its smallest vertex."""
    parent = np.arange(csr.n, dtype=np.int64)
    indices = csr.indices
    rows = np.flatnonzero(np.diff(csr.indptr))
    starts = csr.indptr[rows]
    while True:
        low = parent.copy()
        if rows.size:
            low[rows] = np.minimum(
                parent[rows], np.minimum.reduceat(parent[indices], starts)
            )
        hooked = parent.copy()
        np.minimum.at(hooked, parent, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, parent):
            break
        parent = hooked
    return np.unique(parent, return_inverse=True)[1]


def ring_expander_graph(n: int, degree: int = 6, seed: int = 0,
                        csr_dtype=None) -> CSRStaticGraph:
    """A union of ``degree/2`` random Hamiltonian cycles, CSR-direct.

    The million-node static expander: each cycle alone is connected, so
    the union is connected **by construction** — no O(n + m) check, no
    ``nx`` materialization, just numpy permutations into a
    :class:`CSRStaticGraph`.  Unions of independent Hamiltonian cycles
    are expanders w.h.p. (constant α for degree ≥ 4), which is the
    regime the paper's bounds, and the scale benchmarks, care about.
    Duplicate edges across cycles (rare at large n) are deduplicated so
    the graph is simple, matching every other family's contract.
    """
    _check_n(n, 3)
    _check_seed(seed)
    if seed < 0:
        raise ConfigurationError(f"need seed >= 0, got seed={seed}")
    if degree < 2 or degree % 2 or degree >= n:
        raise ConfigurationError(
            f"need an even 2 <= degree < n, got degree={degree}"
        )
    from repro.sim.adjacency import CSRAdjacency

    rng = np.random.default_rng(np.random.SeedSequence([seed, n, degree]))
    cycle_us, cycle_vs = [], []
    for _ in range(degree // 2):
        perm = rng.permutation(n)
        cycle_us.append(perm)
        cycle_vs.append(np.roll(perm, -1))
    a = np.concatenate(cycle_us)
    b = np.concatenate(cycle_vs)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    # n^2 fits int64 up to n ~ 3e9, far past the int32 vertex ceiling.
    unique = np.unique(lo * np.int64(n) + hi)
    lo, hi = np.divmod(unique, np.int64(n))
    csr = CSRAdjacency.from_edge_lists(
        np.concatenate([lo, hi]), np.concatenate([hi, lo]), n,
        dtype=csr_dtype,
    )
    return CSRStaticGraph(csr, name="ring_expander")


def dynamic_max_degree(dynamic_graph: DynamicGraph, horizon: int) -> int:
    """Δ of the dynamic graph over rounds ``1..horizon`` (max over epochs)."""
    _check_round(horizon)
    best = 0
    round_index = 1
    while round_index <= horizon:
        best = max(best, int(dynamic_graph.csr_at(round_index).degrees.max()))
        if dynamic_graph.tau == TAU_INFINITY:
            break
        round_index += dynamic_graph.tau
    return best


def dynamic_expansion_estimate(
    dynamic_graph: DynamicGraph, horizon: int, samples: int = 32, seed: int = 0
) -> float:
    """Upper-bound estimate of the dynamic graph's α over ``1..horizon``.

    α of a dynamic graph is the minimum over its constituent graphs (§2);
    we estimate each epoch's α and take the minimum.
    """
    _check_round(horizon)
    best = float("inf")
    round_index = 1
    while round_index <= horizon:
        graph = dynamic_graph.graph_at(round_index)
        best = min(
            best,
            vertex_expansion_estimate(graph, samples=samples, seed=seed).alpha,
        )
        if dynamic_graph.tau == TAU_INFINITY:
            break
        round_index += dynamic_graph.tau
    return best


@register_dynamics(
    name="static",
    description="one fixed topology for the whole execution (tau = infinity)",
)
def _build_static_dynamics(topology, seed):
    return StaticDynamicGraph(topology)


@register_dynamics(
    name="relabeling",
    description="same shape, vertex labels permuted every tau rounds "
                "(alpha, Delta, D preserved)",
)
def _build_relabeling_dynamics(topology, seed, *, tau=1):
    return RelabelingAdversary(topology, tau=tau, seed=seed)


@register_dynamics(
    name="resampled_regular",
    description="a fresh random degree-regular graph every tau rounds",
    topology_free=True,
)
def _build_resampled_regular_dynamics(topology, seed, *, degree, tau=1):
    return PeriodicRewireGraph.resampled_regular(
        n=topology.n, degree=degree, tau=tau, seed=seed
    )


@register_dynamics(
    name="resampled_gnp",
    description="a fresh G(n, p) sample every tau rounds (connected by "
                "default; require_connected=False allows fragments)",
    topology_free=True,
)
def _build_resampled_gnp_dynamics(topology, seed, *, p, tau=1,
                                  require_connected=True):
    return PeriodicRewireGraph.resampled_gnp(
        n=topology.n, p=p, tau=tau, seed=seed,
        require_connected=require_connected,
    )


@register_dynamics(
    name="geometric",
    description="random-waypoint mobility on the unit square (tau-stable "
                "unit-disk graph; bridge=False allows fragmentation)",
    topology_free=True,
)
def _build_geometric_dynamics(topology, seed, *, radius=0.35, step=0.05,
                              tau=1, bridge=True):
    return GeometricMobilityGraph(
        n=topology.n, radius=radius, step=step, tau=tau, seed=seed,
        bridge=bridge,
    )
