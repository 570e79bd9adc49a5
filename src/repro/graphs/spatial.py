"""Cell-sorted spatial grid for unit-disk neighbor queries.

:class:`~repro.graphs.dynamic.GeometricMobilityGraph` needs two
geometric primitives per epoch: the radius-``r`` unit-disk edge set of
the node positions, and (when bridging fragments) the nearest pair of
points across two components.  Done as O(n^2) pairwise sweeps, a single
epoch at n = 10^6 is 10^12 distance evaluations.

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
in chunks so peak memory is bounded at constant density.  Survivors
map back through the sort order, and :func:`disk_csr` packs both
orientations into ``u * n + v`` keys for ``CSRAdjacency.from_keys``,
whose one sort yields the CSR snapshot without an edge list in
between.

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
    "disk_csr",
    "disk_edges_blocked",
    "nearest_pair",
    "PointIndex",
]

#: Source points examined per pass of :func:`_disk_pairs`.  Bounds the
#: candidate arrays to a few MB at mesh densities whatever ``n`` is —
#: small enough that the allocator reuses them pass after pass instead
#: of mapping fresh pages.
_CHUNK_SOURCES = 1 << 14


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


def _disk_pairs(xs: np.ndarray, ys: np.ndarray, radius: float):
    """Yield every unordered pair within ``radius`` exactly once, chunk
    by chunk, as point index arrays ``(a, b)`` — in no particular order
    or orientation (callers pack them into sort keys).  See the module
    docstring."""
    n = len(xs)
    r2 = radius * radius
    # Cells are radius-sized, but never more than ~n of them: at low
    # density wider cells keep the cell-start table O(n) and still hold
    # about one point each.
    ncells = max(1, min(math.ceil(1.0 / radius), math.isqrt(n)))
    width = max(radius, 1.0 / ncells)
    cell = np.minimum((xs / width).astype(np.int64), ncells - 1)
    cell *= ncells
    cell += np.minimum((ys / width).astype(np.int64), ncells - 1)
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
    for lo in range(0, n, _CHUNK_SOURCES):
        position = np.arange(lo, min(lo + _CHUNK_SOURCES, n), dtype=np.int64)
        own = cell[lo:lo + _CHUNK_SOURCES]
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


def nearest_pair(
    bx: np.ndarray, by: np.ndarray, ox: np.ndarray, oy: np.ndarray
) -> tuple[float, int, int]:
    """Closest (base, other) point pair, by dense pairwise reduction.

    Returns ``(d2, u_index, v_index)`` where the tie-break is
    ``np.argmin``'s row-major first minimum — smallest ``u_index``, then
    smallest ``v_index`` — the contract the bridging loop was pinned to
    (tests/test_dynamic.py).  O(|base| * |other|) memory and time; the
    differential reference for :meth:`PointIndex.nearest`.
    """
    d2 = (bx[:, None] - ox[None, :]) ** 2
    d2 += (by[:, None] - oy[None, :]) ** 2
    flat = int(np.argmin(d2))
    u_index, v_index = divmod(flat, len(ox))
    return float(d2[u_index, v_index]), u_index, v_index


class PointIndex:
    """A cell grid over a fixed point set for exact nearest queries.

    Built once per bridging iteration over the (large) base component;
    :meth:`nearest` then answers each small component's closest-pair
    query by expanding cell rings outward from the query instead of
    scanning all of the base.  Results — value *and* tie-break — are
    identical to :func:`nearest_pair`: distances are the same IEEE ops,
    ring pruning uses a strict lower bound so exact ties are never cut
    off, and ties resolve to the smallest base index, then the smallest
    query index (row-major first-minimum order).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = xs
        self.ys = ys
        nb = len(xs)
        self.x0 = float(xs.min())
        self.y0 = float(ys.min())
        extent = max(float(xs.max()) - self.x0, float(ys.max()) - self.y0)
        # ~1 point per cell at uniform density; degenerate (all points
        # coincident) collapses to a single cell.
        self.cell = extent / max(1.0, math.sqrt(nb)) or 1.0
        self.ncx = min(nb, int(extent / self.cell) + 1)
        self.ncy = self.ncx
        cx = np.minimum(
            ((xs - self.x0) / self.cell).astype(np.int64), self.ncx - 1
        )
        cy = np.minimum(
            ((ys - self.y0) / self.cell).astype(np.int64), self.ncy - 1
        )
        keys = cx * self.ncy + cy
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
        # Buckets hold ascending base indices (stable sort over arange),
        # which is what makes the min-index tie-break cheap.  Each split
        # segment holds original point indices sharing one cell key.
        self._buckets = {
            int(keys[seg[0]]): seg
            for seg in np.split(order, boundaries)
            if len(seg)
        }

    def _nearest_one(self, qx: float, qy: float) -> tuple[float, int]:
        """Exact nearest base point to ``(qx, qy)``: (d2, min base index
        among exact-d2 ties)."""
        cell = self.cell
        qcx = min(max(int((qx - self.x0) / cell), 0), self.ncx - 1)
        qcy = min(max(int((qy - self.y0) / cell), 0), self.ncy - 1)
        best_d2 = math.inf
        best_u = -1
        max_ring = max(self.ncx, self.ncy)
        for ring in range(max_ring + 1):
            # Any cell at Chebyshev ring k is at least (k-1)*cell away
            # from the query (valid for clipped/outside queries too:
            # projection onto the grid box only shrinks distances).
            if best_u >= 0 and ((ring - 1) * cell) ** 2 > best_d2:
                break
            for ccx, ccy in self._ring_cells(qcx, qcy, ring):
                pts = self._buckets.get(ccx * self.ncy + ccy)
                if pts is None:
                    continue
                d2 = (self.xs[pts] - qx) ** 2
                d2 += (self.ys[pts] - qy) ** 2
                m = float(d2.min())
                if m < best_d2:
                    best_d2 = m
                    best_u = int(pts[d2 == m][0])
                elif m == best_d2:
                    best_u = min(best_u, int(pts[d2 == m][0]))
        return best_d2, best_u

    def _ring_cells(self, qcx: int, qcy: int, ring: int):
        """In-bounds cells at exactly Chebyshev distance ``ring``."""
        if ring == 0:
            yield qcx, qcy
            return
        lo_x, hi_x = qcx - ring, qcx + ring
        lo_y, hi_y = qcy - ring, qcy + ring
        for ccx in range(max(lo_x, 0), min(hi_x, self.ncx - 1) + 1):
            on_x_edge = ccx == lo_x or ccx == hi_x
            for ccy in range(max(lo_y, 0), min(hi_y, self.ncy - 1) + 1):
                if on_x_edge or ccy == lo_y or ccy == hi_y:
                    yield ccx, ccy

    def nearest(
        self, ox: np.ndarray, oy: np.ndarray
    ) -> tuple[float, int, int]:
        """Closest (base, query) pair — :func:`nearest_pair`'s contract."""
        best: tuple[float, int, int] | None = None
        for v_index in range(len(ox)):
            d2, u = self._nearest_one(float(ox[v_index]), float(oy[v_index]))
            if (
                best is None
                or d2 < best[0]
                or (d2 == best[0] and u < best[1])
            ):
                best = (d2, u, v_index)
        return best
