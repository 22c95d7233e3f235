"""Benchmark model generators."""

import pytest

from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.families import (
    gen_complete,
    gen_connected_cliques,
    gen_friends_smokers,
    gen_grid,
)


class TestGraphFamilies:
    def test_grid_shape(self):
        g = gen_grid(3)
        assert g.n == 9
        assert len(g.edges) == 12
        assert g.names[:3] == ("a", "b", "c")

    def test_grid_edge_count_formula(self):
        for k in (2, 3, 4, 5):
            assert len(gen_grid(k).edges) == 2 * k * (k - 1)

    def test_cliques_shape(self):
        g = gen_connected_cliques(3)
        assert g.n == 9
        # 4 cliques of size 2 (1 inner edge each) plus 4 hub edges
        assert len(g.edges) == 8
        hub = g.n - 1
        assert len(g.adj[hub]) == 4

    def test_cliques_group_order(self):
        g = gen_connected_cliques(3)
        assert automorphism_generators(g).order() == 24

    def test_complete_shape(self):
        g = gen_complete(3)
        assert g.n == 9
        assert len(g.edges) == 36
        assert max(len(a) for a in g.adj) == 8

    def test_size_guards(self):
        for gen in (gen_grid, gen_connected_cliques, gen_complete):
            with pytest.raises(ValueError):
                gen(1)


class TestFriendsSmokers:
    def test_variable_count(self):
        model, _ = gen_friends_smokers(3)
        # smokes + cancer + directed friendship between distinct people
        assert model.n == 3 + 3 + 6

    def test_deterministic_evidence(self):
        _, ev1 = gen_friends_smokers(5, evidence_fraction=0.4, seed=9)
        _, ev2 = gen_friends_smokers(5, evidence_fraction=0.4, seed=9)
        assert ev1 == ev2
        assert len(ev1) == 2

    def test_people_guard(self):
        with pytest.raises(ValueError):
            gen_friends_smokers(1)
