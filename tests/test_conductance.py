"""Tests for graph conductance and the conductance-vs-expansion contrast."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import execute_run
from repro.graphs.metrics import (
    conductance_estimate,
    conductance_exact,
    conductance_of_set,
    cut_edges,
    vertex_expansion_exact,
)
from repro.graphs.topologies import complete, cycle, path, star


class TestCutEdges:
    def test_path_prefix(self):
        g = path(5).graph
        assert cut_edges(g, {0, 1}) == 1

    def test_star_leaves(self):
        g = star(6).graph
        assert cut_edges(g, {1, 2, 3}) == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            cut_edges(path(3).graph, set())


class TestConductanceOfSet:
    def test_star_single_leaf(self):
        g = star(6).graph
        # S = {leaf}: cut 1, vol(S) 1 -> phi(S) = 1.
        assert conductance_of_set(g, {1}) == pytest.approx(1.0)

    def test_star_half_leaves(self):
        g = star(9).graph  # 8 leaves, hub degree 8, total volume 16
        # S = 4 leaves: cut 4, vol(S) 4, vol rest 12 -> 4/4 = 1.
        assert conductance_of_set(g, {1, 2, 3, 4}) == pytest.approx(1.0)

    def test_cycle_half(self):
        g = cycle(8).graph
        # Half the cycle: cut 2, vol 8 -> 1/4.
        assert conductance_of_set(g, set(range(4))) == pytest.approx(0.25)

    def test_full_set_rejected(self):
        with pytest.raises(ConfigurationError):
            conductance_of_set(path(4).graph, {0, 1, 2, 3})


class TestExactAndEstimate:
    def test_star_conductance_is_constant(self):
        # Every cut of a star has phi(S) >= 1/2-ish; exact phi(star) does
        # not vanish with n — unlike alpha = Theta(1/n).
        for n in (6, 8, 10):
            phi = conductance_exact(star(n).graph)
            assert phi >= 0.4

    def test_cycle_conductance_small(self):
        assert conductance_exact(cycle(12).graph) == pytest.approx(2 / 12)

    def test_complete_conductance_large(self):
        assert conductance_exact(complete(6).graph) > 0.5

    def test_estimate_upper_bounds_exact(self):
        for topo in (star(10), cycle(10), path(10)):
            exact = conductance_exact(topo.graph)
            est = conductance_estimate(topo.graph, seed=1)
            assert est >= exact - 1e-12
            # Heuristic cuts find the bottleneck on these families.
            assert est == pytest.approx(exact, rel=0.5)

    def test_size_guard(self):
        with pytest.raises(ConfigurationError):
            conductance_exact(cycle(40).graph)


class TestSeparation:
    def test_star_separates_conductance_from_expansion(self):
        """The family behind the paper's related-work claim: stars have
        constant conductance but vanishing vertex expansion, and in the
        mobile telephone model spreading tracks expansion, not
        conductance (PPUSH's side: the next test)."""
        small, large = star(8), star(16)
        phi_small = conductance_exact(small.graph)
        phi_large = conductance_exact(large.graph)
        alpha_small = vertex_expansion_exact(small.graph)
        alpha_large = vertex_expansion_exact(large.graph)
        # Conductance stays put; expansion halves when n doubles.
        assert phi_large == pytest.approx(phi_small, rel=0.3)
        assert alpha_large == pytest.approx(alpha_small / 2, rel=0.1)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_ppush_time_tracks_inverse_expansion_on_stars(self, n):
        """From the hub, PPUSH serves one leaf a round: n - 1 rounds,
        linear in 1/α = floor(n/2), while conductance stays put."""
        record = execute_run({
            "algorithm": "ppush",
            "graph": {"family": "star", "params": {"n": n}},
            "instance": {"kind": "token_at", "vertex": 0},
            "seed": 11,
            "max_rounds": 1_000,
        })
        assert record["rounds"] == n - 1
