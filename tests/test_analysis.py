"""Tests for the bound predictors, fit helpers, and table rendering."""

import math

import pytest

from repro.analysis.bounds import (
    BOUNDS,
    blindmatch_bound,
    crowdedbin_bound,
    doublestar_lower_bound,
    epsilon_gossip_bound,
    ppush_bound,
    sharedbit_bound,
    simsharedbit_bound,
)
from repro.analysis.fits import (
    crossover_point,
    geometric_mean,
    loglog_slope,
    ratio_series,
)
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError


class TestBounds:
    def test_sharedbit_linear_in_k_and_n(self):
        assert sharedbit_bound(10, 2) == 20
        assert sharedbit_bound(10, 4) == 40
        assert sharedbit_bound(20, 2) == 40

    def test_blindmatch_quadratic_in_delta(self):
        base = blindmatch_bound(16, 1, 0.5, 4)
        assert blindmatch_bound(16, 1, 0.5, 8) == pytest.approx(4 * base)

    def test_blindmatch_inverse_in_alpha(self):
        base = blindmatch_bound(16, 1, 0.5, 4)
        assert blindmatch_bound(16, 1, 0.25, 4) == pytest.approx(2 * base)

    def test_simsharedbit_is_sharedbit_plus_leader_term(self):
        # The bound is additive: the leader term is independent of k.
        gap_k1 = simsharedbit_bound(64, 1, alpha=0.5, delta=8, tau=2) - \
            sharedbit_bound(64, 1)
        gap_k9 = simsharedbit_bound(64, 9, alpha=0.5, delta=8, tau=2) - \
            sharedbit_bound(64, 9)
        assert gap_k1 == pytest.approx(gap_k9)
        assert gap_k1 > 0

    def test_simsharedbit_tau_discount(self):
        slow = simsharedbit_bound(64, 1, alpha=0.1, delta=32, tau=1)
        fast = simsharedbit_bound(64, 1, alpha=0.1, delta=32, tau=100)
        assert fast < slow

    def test_crowdedbin_beats_sharedbit_for_large_alpha(self):
        # Shape statement: at constant α the ratio (k/α)·log⁶n : k·n
        # vanishes as n grows (the paper's "factor of n faster, ignoring
        # log factors").  With unit constants the crossover sits at large
        # n, so compare there.
        n, k = 2**40, 8
        assert crowdedbin_bound(n, k, alpha=1.0) < sharedbit_bound(n, k)
        # And the ratio improves with n.
        r_small = crowdedbin_bound(2**20, k, 1.0) / sharedbit_bound(2**20, k)
        r_large = crowdedbin_bound(2**40, k, 1.0) / sharedbit_bound(2**40, k)
        assert r_large < r_small

    def test_sharedbit_beats_crowdedbin_for_tiny_alpha(self):
        n, k = 256, 8
        alpha = 2.0 / n
        # At worst-case alpha the log^6 overhead loses to plain kn.
        assert crowdedbin_bound(n, k, alpha=alpha) > sharedbit_bound(n, k)

    def test_epsilon_bound_degrades_as_eps_to_one(self):
        loose = epsilon_gossip_bound(64, 0.5, 8, epsilon=0.5)
        tight = epsilon_gossip_bound(64, 0.5, 8, epsilon=0.99)
        assert tight > loose

    def test_ppush_bound_alpha_inverse(self):
        assert ppush_bound(64, 0.25) == pytest.approx(2 * ppush_bound(64, 0.5))

    def test_doublestar_quadratic(self):
        assert doublestar_lower_bound(10) == 100
        assert doublestar_lower_bound(10, alpha=0.25) == pytest.approx(200)

    def test_registry_complete(self):
        assert set(BOUNDS) == {
            "blindmatch", "sharedbit", "simsharedbit", "crowdedbin",
            "epsilon_gossip", "ppush", "doublestar_lower",
        }

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sharedbit_bound(1, 1)
        with pytest.raises(ConfigurationError):
            blindmatch_bound(4, 1, 0.0, 2)
        with pytest.raises(ConfigurationError):
            epsilon_gossip_bound(4, 0.5, 2, epsilon=0.0)


class TestFits:
    def test_loglog_slope_recovers_exponent(self):
        xs = [2, 4, 8, 16, 32]
        ys = [x**2 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_loglog_slope_with_constant(self):
        xs = [2, 4, 8, 16]
        ys = [7 * x for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(1.0)

    def test_ratio_series(self):
        assert ratio_series([10, 20], [5, 5]) == [2.0, 4.0]

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([3, 3, 3]) == pytest.approx(3.0)

    def test_crossover_detected(self):
        xs = [1, 2, 3, 4]
        ys_a = [10, 8, 6, 4]
        ys_b = [4, 6, 8, 10]
        x = crossover_point(xs, ys_a, ys_b)
        assert x == pytest.approx(2.5)

    def test_no_crossover_is_none(self):
        assert crossover_point([1, 2], [1, 2], [5, 6]) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            loglog_slope([1], [1])
        with pytest.raises(ConfigurationError):
            geometric_mean([])
        with pytest.raises(ConfigurationError):
            ratio_series([1], [1, 2])


class TestTables:
    def test_render_basic(self):
        text = render_table(
            headers=("a", "b"), rows=[(1, 2.5), (30, 4)], title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_row_width_checked(self):
        with pytest.raises(ConfigurationError):
            render_table(headers=("a", "b"), rows=[(1,)])

    def test_large_floats_compact(self):
        text = render_table(headers=("x",), rows=[(123456.789,)])
        assert "1.23e+05" in text
