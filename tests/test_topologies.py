"""Tests for the topology generators: shape, connectivity, known facts."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.graphs.topologies import (
    barbell,
    binary_tree,
    complete,
    cycle,
    double_star,
    erdos_renyi,
    expander,
    grid,
    hypercube,
    lollipop,
    path,
    random_regular,
    star,
)
from repro.registry import TOPOLOGY_REGISTRY


def _all_samples():
    return [
        star(9),
        double_star(5),
        path(8),
        cycle(9),
        complete(7),
        hypercube(4),
        random_regular(12, 3, seed=1),
        erdos_renyi(14, 0.4, seed=2),
        grid(3, 5),
        barbell(4, 2),
        lollipop(4, 3),
        binary_tree(3),
        expander(12, degree=4, seed=0),
    ]


class TestCommonInvariants:
    @pytest.mark.parametrize("topo", _all_samples(), ids=lambda t: t.name)
    def test_connected(self, topo):
        assert nx.is_connected(topo.graph)

    @pytest.mark.parametrize("topo", _all_samples(), ids=lambda t: t.name)
    def test_vertices_are_zero_to_n(self, topo):
        assert sorted(topo.graph.nodes) == list(range(topo.n))

    @pytest.mark.parametrize("topo", _all_samples(), ids=lambda t: t.name)
    def test_max_degree_matches_graph(self, topo):
        assert topo.max_degree == max(d for _, d in topo.graph.degree)

    @pytest.mark.parametrize("topo", _all_samples(), ids=lambda t: t.name)
    def test_diameter_hint_correct_when_given(self, topo):
        if topo.diameter_hint is not None:
            assert nx.diameter(topo.graph) == topo.diameter_hint


class TestStar:
    def test_shape(self):
        topo = star(6)
        assert topo.n == 6
        assert topo.max_degree == 5
        assert topo.graph.degree(0) == 5

    def test_alpha_closed_form(self):
        assert star(8).alpha == pytest.approx(1 / 4)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            star(2)


class TestDoubleStar:
    def test_shape(self):
        topo = double_star(4)
        assert topo.n == 10
        assert topo.max_degree == 5  # hub: 4 leaves + other hub
        assert topo.graph.has_edge(0, 1)

    def test_hub_degrees(self):
        topo = double_star(6)
        assert topo.graph.degree(0) == 7
        assert topo.graph.degree(1) == 7
        leaves = [v for v in topo.graph.nodes if v > 1]
        assert all(topo.graph.degree(v) == 1 for v in leaves)

    def test_alpha_closed_form(self):
        topo = double_star(5)
        # One whole star (hub + 5 leaves = 6 nodes, exactly half) has
        # boundary {other hub}.
        assert topo.alpha == pytest.approx(1 / 6)

    def test_rejects_zero_points(self):
        with pytest.raises(ConfigurationError):
            double_star(0)


class TestCompleteAndCycle:
    def test_complete_alpha_even(self):
        assert complete(8).alpha == pytest.approx(1.0)

    def test_complete_alpha_odd(self):
        assert complete(7).alpha == pytest.approx(4 / 3)

    def test_cycle_alpha(self):
        assert cycle(10).alpha == pytest.approx(2 / 5)

    def test_path_alpha(self):
        assert path(10).alpha == pytest.approx(1 / 5)


class TestRandomFamilies:
    def test_regular_degrees(self):
        topo = random_regular(16, 4, seed=3)
        assert all(d == 4 for _, d in topo.graph.degree)

    def test_regular_parity_rejected(self):
        with pytest.raises(ConfigurationError):
            random_regular(7, 3, seed=0)

    def test_regular_determinism(self):
        a = random_regular(16, 4, seed=3)
        b = random_regular(16, 4, seed=3)
        assert set(a.graph.edges) == set(b.graph.edges)

    def test_erdos_renyi_needs_valid_p(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(10, 0.0, seed=0)

    def test_expander_is_regular(self):
        topo = expander(12, degree=4, seed=1)
        assert all(d == 4 for _, d in topo.graph.degree)


class TestStructured:
    def test_hypercube_size_and_degree(self):
        topo = hypercube(4)
        assert topo.n == 16
        assert topo.max_degree == 4

    def test_grid_size(self):
        topo = grid(3, 4)
        assert topo.n == 12
        assert topo.max_degree == 4

    def test_binary_tree_size(self):
        assert binary_tree(3).n == 15

    def test_barbell_size(self):
        assert barbell(4, 2).n == 10

    def test_lollipop_size(self):
        assert lollipop(5, 3).n == 8


class TestFamilyRegistry:
    def test_registry_covers_all_generators(self):
        assert set(TOPOLOGY_REGISTRY.names()) == {
            "star", "double_star", "path", "cycle", "complete", "hypercube",
            "random_regular", "erdos_renyi", "grid", "barbell", "lollipop",
            "binary_tree", "expander", "ring_expander",
        }


def test_import_repro_leaves_networkx_unimported():
    # networkx loads on the first nx.<attribute> (repro.graphs.lazy_nx),
    # not with the package: a CSR-direct run and `--help` never pay for it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro, repro.cli, repro.experiments, repro.net\n"
        "assert 'networkx' not in sys.modules, 'eager networkx import'\n"
        "from repro.graphs.topologies import cycle\n"
        "assert cycle(5).graph.number_of_edges() == 5\n"
        "assert 'networkx' in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
