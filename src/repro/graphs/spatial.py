"""Cell-sorted spatial grid for unit-disk neighbor queries.

:class:`~repro.graphs.dynamic.GeometricMobilityGraph` needs two
geometric primitives per epoch: the radius-``r`` unit-disk edge set of
the node positions, and (when bridging fragments) the edges that join
its components, :func:`bridges` — Kruskal's spanning tree over them,
searched on the same grid at a doubling radius.  Done as O(n^2)
pairwise sweeps, a single epoch at n = 10^6 is 10^12 distance
evaluations.

The disk edges instead cost **one cell sort and one key sort**
(:func:`_disk_pairs`).  Points are binned into cells at least
``radius`` wide, keyed ``cx * ncells + cy``, and argsorted by key once;
``xs``/``ys`` are gathered into that order once.  Column-major keys
make every point's candidates two *contiguous runs* of the sorted
order: the rest of its own cell through cell ``cy + 1`` of its column
(adjacent keys), and cells ``cy - 1 .. cy + 1`` of column ``cx + 1``
(three adjacent keys) — the half-neighborhood, so each unordered pair
is examined exactly once, read sequentially, with run bounds looked up
in a ``bincount``/``cumsum`` cell-start table.  Sources are processed
in chunks, fewer per pass where cells are crowded, so peak memory stays
bounded.  Survivors map back through the sort order, and
:func:`disk_csr` packs both orientations into ``u * n + v`` keys for
``CSRAdjacency.from_keys``, whose one sort yields the CSR snapshot
without an edge list in between.

The snapshot is **pinned identical** to the blocked sweep's edges
through ``from_edge_lists`` (the sweep is kept here as
:func:`disk_edges_blocked`, the differential reference).  Identity
holds because the grid only chooses *which* pairs to test: every pair
within ``radius`` is at most one cell apart (cells are never narrower
than ``radius``), and the test itself is the sweep's IEEE double ops
(``(dx)**2 + (dy)**2 <= r*r``; squaring makes the operand order
irrelevant).  Gated by tests/test_dynamic.py, tests/test_spatial.py
and ``bench_scale.py --quick`` in CI.

Coordinates are assumed to lie in the unit square (the mobility model's
domain); the binning clips boundary values inward so ``x == 1.0`` is
legal.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bridges",
    "disk_csr",
    "disk_edges_blocked",
]

#: Source points examined per pass of :func:`_disk_pairs`.  Bounds the
#: candidate arrays to a few MB at mesh densities whatever ``n`` is —
#: small enough that the allocator reuses them pass after pass instead
#: of mapping fresh pages.
_CHUNK_SOURCES = 1 << 14

#: Candidate pairs per pass where cells are crowded (a source meets
#: about five cells' worth of points), as :func:`bridges` radii reach.
_CHUNK_CANDIDATES = 1 << 20


def disk_edges_blocked(
    xs: np.ndarray, ys: np.ndarray, radius: float, block: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs within ``radius``, by blocked pairwise sweep — O(n^2).

    The differential reference for :func:`disk_csr`: this is the
    exact computation GeometricMobilityGraph shipped with (same blocking,
    same distance arithmetic), kept verbatim so the grid can be pinned
    against it.  Returns ``(rows, cols)`` with ``rows[k] < cols[k]``,
    lexicographically sorted.
    """
    n = len(xs)
    r2 = radius * radius
    all_rows, all_cols = [], []
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = (xs[start:stop, None] - xs[None, :]) ** 2
        d2 += (ys[start:stop, None] - ys[None, :]) ** 2
        rows, cols = np.nonzero(d2 <= r2)
        rows += start
        upper = cols > rows
        all_rows.append(rows[upper])
        all_cols.append(cols[upper])
    if not all_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(all_rows), np.concatenate(all_cols)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` segments."""
    ends = np.cumsum(counts)
    flat = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    flat += np.repeat(starts - ends + counts, counts)
    return flat


def _cells(xs: np.ndarray, ys: np.ndarray, radius: float):
    """Bin the points into an ``ncells`` × ``ncells`` grid of cells at
    least ``radius`` wide: ``(ncells, cell)``, ``cell[i] = cx * ncells +
    cy`` (column-major).  Cells are radius-sized, but never more than ~n
    of them: at low density wider cells keep any per-cell table O(n)
    and still hold about one point each."""
    ncells = max(1, min(math.ceil(1.0 / radius), math.isqrt(len(xs))))
    width = max(radius, 1.0 / ncells)
    cell = np.minimum((xs / width).astype(np.int64), ncells - 1)
    cell *= ncells
    cell += np.minimum((ys / width).astype(np.int64), ncells - 1)
    return ncells, cell


def _disk_pairs(xs: np.ndarray, ys: np.ndarray, radius: float):
    """Yield every unordered pair within ``radius`` exactly once, chunk
    by chunk, as point index arrays ``(a, b)`` — in no particular order
    or orientation (callers pack them into sort keys).  See the module
    docstring."""
    n = len(xs)
    r2 = radius * radius
    ncells, cell = _cells(xs, ys, radius)
    order = np.argsort(cell, kind="stable")
    sx, sy, cell = xs[order], ys[order], cell[order]

    # start[c] = first sorted position of cell c; the padding past the
    # last cell reads n, so the last column's right-hand run is empty.
    start = np.full(ncells * ncells + ncells + 2, n, dtype=np.int64)
    start[0] = 0
    np.cumsum(np.bincount(cell, minlength=ncells * ncells),
              out=start[1:ncells * ncells + 1])

    # (An empty pair first, so an empty cloud still concatenates.)
    yield order[:0], order[:0]
    chunk = max(1, min(_CHUNK_SOURCES,
                       _CHUNK_CANDIDATES * ncells * ncells // (5 * n or 1)))
    for lo in range(0, n, chunk):
        position = np.arange(lo, min(lo + chunk, n), dtype=np.int64)
        own = cell[lo:lo + chunk]
        cy = own % ncells
        up = cy < ncells - 1
        right = own + ncells
        run_start = np.concatenate([position + 1, start[right - (cy > 0)]])
        run_count = np.concatenate([start[own + up + 1], start[right + up + 1]])
        run_count -= run_start
        src = np.repeat(np.concatenate([position, position]), run_count)
        dst = _concat_ranges(run_start, run_count)
        d2 = (sx[src] - sx[dst]) ** 2
        d2 += (sy[src] - sy[dst]) ** 2
        keep = np.nonzero(d2 <= r2)[0]
        yield order[src[keep]], order[dst[keep]]


def disk_csr(xs: np.ndarray, ys: np.ndarray, radius: float, dtype=None):
    """The unit-disk graph as a :class:`~repro.sim.adjacency.CSRAdjacency`
    — what ``from_edge_lists`` builds from the mirrored
    :func:`disk_edges_blocked` output, without the edge list or its
    sort.  O(n) at constant density; ``dtype`` as in
    ``CSRAdjacency.from_graph``.
    """
    from repro.sim.adjacency import CSRAdjacency

    n = len(xs)
    keys = np.concatenate([
        packed
        for a, b in _disk_pairs(xs, ys, radius)
        for packed in (a * n + b, b * n + a)
    ])
    return CSRAdjacency.from_keys(keys, n, dtype=dtype)


def bridges(xs: np.ndarray, ys: np.ndarray, radius: float,
            label: np.ndarray) -> list[tuple[int, int]]:
    """The edges that join the radius-``radius`` disk graph's components
    into one, where ``label[v]`` is v's component id (0..C-1).

    The minimum spanning tree over components, each pair weighted by its
    nearest-pair squared distance, built by Kruskal: the cross-component
    pairs within ``r`` (from :func:`_disk_pairs`) in ``(d2, u, v)``
    order, u < v, each accepted when its endpoints' sets differ.  ``r``
    starts at ``2 * radius`` (no cross pair is nearer than ``radius``)
    and doubles until one set is left; by then every pair within the
    previous ``r`` is inside a set, so the order is global.  Only points
    in the 3 × 3 cell block around a point outside the largest set are
    searched: every cross pair has such an endpoint.  Exact ties go to
    the smallest ``(d2, u, v)``; without ties the tree is unique.
    Returns ``(u, v)`` pairs, u < v, in acceptance order.
    """
    label = np.asarray(label, dtype=np.int64)
    parent = list(range(int(label.max(initial=-1)) + 1))
    chosen = []
    r = 2.0 * radius
    while len(chosen) < len(parent) - 1:
        ncells, cell = _cells(xs, ys, r)
        outside = cell[label != np.bincount(label).argmax()]
        marked = np.zeros((ncells + 2, ncells + 2), dtype=bool)
        marked[outside // ncells + 1, outside % ncells + 1] = True
        near = np.zeros((ncells, ncells), dtype=bool)
        for dx in range(3):
            for dy in range(3):
                near |= marked[dx:dx + ncells, dy:dy + ncells]
        keep = np.flatnonzero(near.ravel()[cell])
        # keep ascends, so keep[min(a, b)] is the smaller endpoint.
        lightest = [
            _lightest(keep[np.minimum(a, b)], keep[np.maximum(a, b)],
                      xs, ys, label)
            for a, b in _disk_pairs(xs[keep], ys[keep], r)
        ]
        u, v = _lightest(*map(np.concatenate, zip(*lightest)),
                         xs, ys, label)
        for pair, cu, cv in zip(zip(u.tolist(), v.tolist()),
                                label[u].tolist(), label[v].tolist()):
            ru, rv = _root(parent, cu), _root(parent, cv)
            if ru != rv:
                parent[ru] = rv
                chosen.append(pair)
        label = np.array([_root(parent, c) for c in range(len(parent))],
                         dtype=np.int64)[label]
        r *= 2.0
    return chosen


def _lightest(u: np.ndarray, v: np.ndarray, xs: np.ndarray, ys: np.ndarray,
              label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of the pairs ``(u, v)``, u < v, that join two sets of ``label``,
    the first in ``(d2, u, v)`` order of each set pair, in that order.
    Kruskal rejects every other pair (the first merges the two sets),
    so a pass keeps memory to one pair per neighbouring set pair."""
    cross = label[u] != label[v]
    u, v = u[cross], v[cross]
    d2 = (xs[u] - xs[v]) ** 2
    d2 += (ys[u] - ys[v]) ** 2
    pair = np.minimum(label[u], label[v]) * len(label)
    pair += np.maximum(label[u], label[v])
    order = np.lexsort((v, u, d2, pair))
    order = order[np.unique(pair[order], return_index=True)[1]]
    order = order[np.lexsort((v[order], u[order], d2[order]))]
    return u[order], v[order]


def _root(parent: list[int], c: int) -> int:
    """Union-find root of ``c``, halving the path on the way."""
    while parent[c] != c:
        parent[c] = parent[parent[c]]
        c = parent[c]
    return c
