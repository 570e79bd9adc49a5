"""The fused disk → CSR build against the blocked-sweep reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import spatial
from repro.graphs.spatial import disk_csr, disk_edges_blocked
from repro.sim.adjacency import CSRAdjacency


def reference_csr(xs, ys, radius, dtype=None) -> CSRAdjacency:
    u, v = disk_edges_blocked(xs, ys, radius)
    return CSRAdjacency.from_edge_lists(
        np.concatenate([u, v]), np.concatenate([v, u]), len(xs), dtype=dtype
    )


@st.composite
def adversarial_clouds(draw):
    """Point clouds built to sit on every boundary the grid has: the
    unit square's far edge, cell edges (exact multiples of the radius),
    coincident points, and pairs at distance exactly ``radius``."""
    radius = draw(st.one_of(
        st.sampled_from([0.0625, 0.125, 0.25, 0.3, 0.5, 1.0, 1.5]),
        st.floats(0.04, 1.5),
    ))
    coordinate = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.integers(0, int(1.0 / radius)).map(lambda k: min(k * radius, 1.0)),
        st.floats(0.0, 1.0),
    )
    points = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 3)) if points else 0
        if kind <= 1:
            points.append((draw(coordinate), draw(coordinate)))
            continue
        x, y = points[draw(st.integers(0, len(points) - 1))]
        if kind == 3 and x + radius <= 1.0:
            x += radius  # usually lands at distance exactly radius
        points.append((x, y))
    cloud = np.array(points, dtype=float).reshape(len(points), 2)
    return cloud[:, 0], cloud[:, 1], radius


class TestDiskCsrDifferential:
    @given(
        cloud=adversarial_clouds(),
        chunk=st.integers(1, 7),
        dtype=st.sampled_from([None, np.int32, np.int64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_blocked_sweep_across_chunk_seams(
        self, cloud, chunk, dtype
    ):
        xs, ys, radius = cloud
        # Chunks of 1-7 sources put a seam inside every cell.
        saved = spatial._CHUNK_SOURCES
        spatial._CHUNK_SOURCES = chunk
        try:
            fused = disk_csr(xs, ys, radius, dtype)
        finally:
            spatial._CHUNK_SOURCES = saved
        expected = reference_csr(xs, ys, radius, dtype)
        assert fused.indptr.dtype == expected.indptr.dtype
        assert fused.indices.dtype == expected.indices.dtype
        assert fused.same_structure(expected)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("radius", [0.1, 1.0, 1.5])
    def test_tiny_clouds(self, n, radius):
        xs = np.linspace(0.2, 0.25, n)
        fused = disk_csr(xs, xs, radius)
        assert fused.same_structure(reference_csr(xs, xs, radius))
        assert fused.indices.tolist() == ([1, 0] if n == 2 else [])

    def test_chunk_seams_on_a_many_cell_mesh(self, monkeypatch):
        # Mesh density (mean degree 12, ~25 x 25 cells) with a chunk
        # length coprime to everything, against the O(n^2) reference.
        rng = np.random.default_rng(3)
        n = 2048
        xs, ys = rng.random(n), rng.random(n)
        radius = (12.0 / (np.pi * n)) ** 0.5
        monkeypatch.setattr(spatial, "_CHUNK_SOURCES", 257)
        assert disk_csr(xs, ys, radius).same_structure(
            reference_csr(xs, ys, radius))

    def test_sparse_cloud_keeps_the_cell_table_small(self):
        # radius 1e-6 would mean 10^12 radius-sized cells; the grid
        # widens them instead of allocating a table that size.
        xs = np.array([0.1, 0.1 + 5e-7, 0.9, 0.5])
        ys = np.array([0.3, 0.3, 0.9, 0.5])
        fused = disk_csr(xs, ys, 1e-6)
        assert fused.indptr.tolist() == [0, 1, 2, 2, 2]
        assert fused.indices.tolist() == [1, 0]

    def test_crowded_cells_take_fewer_sources_per_pass(self, monkeypatch):
        # 400 points in 2 x 2 cells: each source meets ~5 * 100
        # candidates, so a 4000-candidate budget is 8 sources a pass.
        rng = np.random.default_rng(5)
        xs, ys = rng.random(400), rng.random(400)
        monkeypatch.setattr(spatial, "_CHUNK_CANDIDATES", 4000)
        passes = list(spatial._disk_pairs(xs, ys, 0.5))
        assert len(passes) == 1 + 400 // 8  # after the leading empty pair
        assert max(len(a) for a, _ in passes) <= 8 * 400
        assert disk_csr(xs, ys, 0.5).same_structure(
            reference_csr(xs, ys, 0.5))
