"""CSR adjacency snapshots — the flat-array view of one epoch's topology.

Every engine reads the topology as one :class:`CSRAdjacency` per epoch:
the topology in compressed-sparse-row form (``indptr``/``indices`` in
the narrowest index dtype that fits — int32 below 2^31 vertices/edges,
int64 above, see :func:`index_dtype_for`), with each row's neighbors
**sorted by vertex**.  The array path hands it to bulk protocol hooks;
the object path builds its per-vertex ``NeighborView`` tuples from its
rows, in the same order, which is what keeps the two paths'
random-stream consumption aligned.  UID arrays stay int64 regardless
(the matching resolvers coerce to int64, so the index dtype never
reaches a random draw — the int32/int64 identity the golden corpus's
"int64 CSR" variant row pins).

A CSR snapshot is built once per τ-epoch.  :meth:`DynamicGraph.csr_at
<repro.graphs.dynamic.DynamicGraph.csr_at>` is the producing hook: each
dynamics class builds its epoch as a snapshot and nothing else, and
``graph_at`` converts that snapshot to an ``nx.Graph`` for analysis.

UIDs are simulation-side knowledge (the dynamic graph only knows
vertices), so the engine *binds* its per-vertex UID array onto the epoch
snapshot with :meth:`CSRAdjacency.bind_uids`; bulk hooks then read
``csr.uids`` (per-edge neighbor UIDs) and ``csr.vertex_uids`` without any
per-round translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CSRAdjacency", "index_dtype_for"]

#: Largest value an int32 index array can hold.  Vertex ids must stay
#: below it, and so must the edge count (``indptr``'s last entry).
_INT32_LIMIT = np.iinfo(np.int32).max

#: Largest ``n`` whose packed edge keys ``source * n + target`` fit int64.
_KEY_LIMIT = math.isqrt(np.iinfo(np.int64).max)


def index_dtype_for(n: int, nnz: int | None = None) -> np.dtype:
    """The narrowest index dtype that can hold a snapshot's structure.

    int32 when every vertex id (< ``n``) and every ``indptr`` offset
    (≤ ``nnz``) fits, int64 otherwise.  Halving the index width is the
    single biggest memory lever at n = 10^6: a degree-6 snapshot's
    ``indices`` drop from 48 MB to 24 MB, and every masked/bound copy
    shrinks with them.  When ``nnz`` is unknown pass ``None`` and the
    decision is made on ``n`` alone (callers that later learn the edge
    count re-check it).
    """
    if n > _INT32_LIMIT or (nnz is not None and nnz > _INT32_LIMIT):
        return np.dtype(np.int64)
    return np.dtype(np.int32)


# eq=False: a generated __eq__ over array fields raises on comparison;
# snapshots compare by identity (the engine's epoch key), and
# same_structure() is the content comparison.
@dataclass(eq=False)
class CSRAdjacency:
    """One epoch's topology as flat arrays.

    ``indices[indptr[v]:indptr[v + 1]]`` are vertex ``v``'s neighbors in
    ascending vertex order.  ``uids``/``vertex_uids`` are populated only
    on snapshots returned by :meth:`bind_uids` (the engine's view);
    ``base`` then points at the unbound epoch snapshot, which the engine
    uses as the epoch-change identity key.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    uids: np.ndarray | None = None
    vertex_uids: np.ndarray | None = None
    base: "CSRAdjacency | None" = None
    arena: "object | None" = field(default=None, repr=False)
    _edge_sources: np.ndarray | None = field(default=None, repr=False)
    _masked_memo: dict | None = field(default=None, repr=False)
    _rows: dict | None = field(default=None, repr=False)
    _uid_memo: dict | None = field(default=None, repr=False)

    @classmethod
    def from_graph(cls, graph, dtype=None) -> "CSRAdjacency":
        """Snapshot an ``nx.Graph`` over vertices ``0..n-1``.

        ``dtype`` forces the index dtype; ``None`` picks the narrowest
        one that fits (:func:`index_dtype_for`).
        """
        n = graph.number_of_nodes()
        adj = graph.adj
        counts = [len(adj[vertex]) for vertex in range(n)]
        nnz = sum(counts)
        if dtype is None:
            dtype = index_dtype_for(n, nnz)
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(nnz, dtype=dtype)
        for vertex in range(n):
            row = sorted(adj[vertex])
            indices[indptr[vertex]:indptr[vertex + 1]] = row
        return cls(n=n, indptr=indptr, indices=indices)

    @classmethod
    def from_edge_lists(cls, sources, targets, n: int,
                        dtype=None) -> "CSRAdjacency":
        """Snapshot from parallel per-edge arrays (both directions listed).

        Rows come out sorted by neighbor vertex whatever order the edges
        arrive in — the contract every snapshot shares.  ``dtype`` as in
        :meth:`from_graph`.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if len(sources) != len(targets):
            raise ConfigurationError(
                f"edge lists differ in length: {len(sources)} sources, "
                f"{len(targets)} targets"
            )
        if n > _KEY_LIMIT:
            raise ConfigurationError(
                f"n={n}: packed edge keys (n * n) would overflow int64"
            )
        # Viewed as unsigned, a negative endpoint reads as a huge one:
        # one max per array checks both ends of [0, n).
        for name, ends in (("source", sources), ("target", targets)):
            if len(ends) and int(ends.view(np.uint64).max()) >= n:
                raise ConfigurationError(
                    f"edge {name} outside the vertex range [0, {n})"
                )
        keys = sources * n
        keys += targets
        return cls.from_keys(keys, n, dtype=dtype)

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int,
                  dtype=None) -> "CSRAdjacency":
        """Snapshot from directed edges packed as int64 keys
        ``source * n + target`` (endpoints in ``[0, n)``, both
        directions present), in any order.

        One in-place sort of the keys orders rows by source and each row
        by neighbor vertex — a topology change costs this sort and
        nothing else.  ``keys`` is consumed.  ``dtype`` as in
        :meth:`from_graph`.
        """
        if dtype is None:
            dtype = index_dtype_for(n, len(keys))
        keys.sort()
        row_starts = np.arange(n + 1, dtype=np.int64)
        row_starts *= n
        indptr = np.searchsorted(keys, row_starts).astype(dtype)
        keys %= n
        return cls(n=n, indptr=indptr, indices=keys.astype(dtype))

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def edge_sources(self) -> np.ndarray:
        """Per-edge source vertex (``rows`` of the CSR), built lazily."""
        if self._edge_sources is None:
            self._edge_sources = np.repeat(
                np.arange(self.n, dtype=self.indices.dtype), self.degrees
            )
        return self._edge_sources

    def row(self, vertex: int) -> tuple[tuple[int, ...], list[int]]:
        """``vertex``'s row as Python objects — ``(neighbor UID tuple,
        neighbor vertex list)`` — filled on first use and kept with the
        snapshot (UID-bound snapshots only): degree-sized rows are
        cheaper to walk in Python than to slice and index with numpy."""
        if self._rows is None:
            self._rows = {}
        entry = self._rows.get(vertex)
        if entry is None:
            start, end = self.indptr[vertex], self.indptr[vertex + 1]
            entry = self._rows[vertex] = (
                tuple(self.uids[start:end].tolist()),
                self.indices[start:end].tolist(),
            )
        return entry

    def round_buffer(self, name: str, shape, dtype,
                     fill=None) -> np.ndarray:
        """A per-round scratch array, arena-backed when one is attached.

        Bulk hooks allocate their tag/proposal arrays through this so
        Stage 1–2 stop creating fresh numpy arrays every round: with an
        engine :class:`~repro.sim.arena.BufferArena` attached (UID-bound
        snapshots on the array path) the same buffer comes back each
        round; without one it degrades to a plain allocation.  Buffers
        are only valid until the next round's call with the same name.
        """
        if self.arena is None:
            buf = np.empty(shape, dtype=dtype)
        else:
            buf = self.arena.take(name, shape, dtype)
        if fill is not None:
            buf[...] = fill
        return buf

    def candidate_rows(self, tags, source_tag: int = 1,
                       neighbor_tag: int = 0):
        """The proposal candidates of a b = 1 round, as a CSR of their
        own: ``(vertices, bounds, uids)``.

        The bulk-hook scaffold shared by PPUSH and SharedBit.
        ``vertices`` are the vertices advertising ``source_tag`` that
        have at least one neighbor advertising ``neighbor_tag``, in
        ascending order (the scalar hooks' iteration order), and
        ``uids[bounds[i]:bounds[i + 1]]`` are the UIDs of vertex
        ``vertices[i]``'s such neighbors, ascending (the scalar hooks'
        candidate order).  The round's eligible edges are sorted once,
        by (source, UID rank) packed into one int64 key below n², the
        same bound as :meth:`from_keys`' edge keys — instead of one sort
        per row.  UID-bound snapshots only.
        """
        if self.uids is None:
            raise ValueError("candidate_rows needs a UID-bound snapshot")
        order, rank = self.uid_ranking()
        sources = self.edge_sources()
        eligible = tags.take(self.indices) == neighbor_tag
        eligible &= (tags == source_tag).take(sources)
        sources = sources[eligible]
        keys = sources.astype(np.int64)
        keys *= self.n
        keys += rank.take(self.indices[eligible])
        keys.sort()
        keys %= self.n
        uids = self.vertex_uids.take(order.take(keys))
        # Sources stay ascending: a row starts wherever the source changes.
        first = np.ones(len(sources), dtype=bool)
        np.not_equal(sources[1:], sources[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return sources[starts], np.append(starts, len(sources)), uids

    def uid_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, rank)`` of the bound UIDs: ``vertex_uids[order]``
        ascends, and ``rank[v]`` is vertex ``v``'s place in it.  Sorted
        on first use into the binding's memo (:meth:`bind_uids`), which
        every masked snapshot of the binding shares, so a fault mask
        never re-sorts (UID-bound snapshots only)."""
        memo = self._uid_memo
        if "order" not in memo:
            order = np.argsort(self.vertex_uids, kind="stable")
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n, dtype=np.int64)
            memo["order"], memo["rank"] = order, rank
        return memo["order"], memo["rank"]

    def masked_bound(self, active: np.ndarray,
                     keep: int = 8) -> "CSRAdjacency":
        """The active-subgraph snapshot under a boolean vertex mask
        (UID-bound snapshots only), memoized per mask.

        Keeps exactly the edges whose *both* endpoints are active:
        inactive vertices come out with empty rows, and active vertices
        lose their sleeping neighbors.  Row order is preserved, so rows
        stay sorted by vertex — the invariant every snapshot shares —
        and the UID binding is carried along in the same edge pass.
        This is how the fault layer's activity mask reaches every
        front half.  A per-snapshot memo of the ``keep`` most recent
        masks, keyed by the mask's bytes, makes repeated masks reuse the
        filtered row buffers instead of rebuilding them: the many
        cohorts of one asynchronous round window revisit a handful of
        fault masks, while the round engine sees one mask per round and
        passes ``keep=1`` — an outage spanning rounds still hits, and
        nothing older is retained (a masked snapshot is the size of the
        topology itself).
        """
        if self.uids is None:
            raise ValueError("masked_bound needs a UID-bound snapshot")
        if self._masked_memo is None:
            self._masked_memo = {}
        key = active.tobytes()
        snapshot = self._masked_memo.get(key)
        if snapshot is None:
            sources = self.edge_sources()
            kept = np.flatnonzero(
                active.take(sources) & active.take(self.indices)
            )
            sources = sources.take(kept)
            indptr = np.zeros(self.n + 1, dtype=self.indptr.dtype)
            np.cumsum(np.bincount(sources, minlength=self.n), out=indptr[1:])
            snapshot = CSRAdjacency(
                n=self.n,
                indptr=indptr,
                indices=self.indices.take(kept),
                uids=self.uids.take(kept),
                vertex_uids=self.vertex_uids,
                base=self.base if self.base is not None else self,
                arena=self.arena,
                _edge_sources=sources,
                _uid_memo=self._uid_memo,
            )
            while len(self._masked_memo) >= keep:
                self._masked_memo.pop(next(iter(self._masked_memo)))
            self._masked_memo[key] = snapshot
        return snapshot

    def bind_uids(self, vertex_uids: np.ndarray, arena=None,
                  ranking: dict | None = None) -> "CSRAdjacency":
        """Return a snapshot with UID arrays attached (engine-side).

        ``ranking`` is the :meth:`uid_ranking` memo of whoever owns
        ``vertex_uids`` — the engine passes one dict for the whole run,
        so a new epoch's binding sorts nothing; without it the binding
        keeps a memo of its own.  Edge sources the snapshot already has
        are carried over."""
        return CSRAdjacency(
            n=self.n,
            indptr=self.indptr,
            indices=self.indices,
            uids=vertex_uids.take(self.indices),
            vertex_uids=vertex_uids,
            base=self,
            arena=arena,
            _edge_sources=self._edge_sources,
            _uid_memo={} if ranking is None else ranking,
        )

    def same_structure(self, other: "CSRAdjacency") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(n={self.n}, edges={len(self.indices) // 2}, "
            f"bound={self.uids is not None})"
        )
