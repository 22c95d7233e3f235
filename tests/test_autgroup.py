"""Colored-graph refinement and automorphism search against the brute-force oracle."""

from collections import Counter
from random import Random

import pytest

from helpers import (FS_EVIDENCE, brute_force_automorphisms, dense_color_refine, elements,
                     parse_cycles, read_graph, recolored)
from orbitalmcmc import autgroup, clauses, families
from orbitalmcmc.autgroup import (
    automorphism_generators,
    color_cells,
    color_refine,
    is_automorphism,
)
from orbitalmcmc.graphs import Graph, format_graph
from orbitalmcmc.perm import Permutation, PermutationGroup


def example_clause_graph() -> Graph:
    """Two weighted clauses over three variables: the 8-vertex benchmark graph.

    Vertices 0..2 unnegated a,b,c (color 1); 3..5 negated (color 0);
    6..7 the two equal-weight clause nodes (color 2).  Clause one contains
    a and not-c, clause two contains b and not-c.
    """
    edges = [(0, 3), (1, 4), (2, 5),        # negation pairing
             (6, 0), (6, 5), (7, 1), (7, 5)]  # occurrence edges
    return Graph(8, edges, [1, 1, 1, 0, 0, 0, 2, 2],
                 names=["a", "b", "c", "-a", "-b", "-c", "f1", "f2"])


def grid3_plain() -> Graph:
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return Graph(9, edges)


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0), +-(1,1): srg(16, 6, 2, 2),
    automorphism group of order 192."""
    steps = [(0, 1), (1, 0), (1, 1)]
    return Graph(16, [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                      for a in range(4) for b in range(4) for da, db in steps])


def rook4() -> Graph:
    """The 4 x 4 rook's graph, also srg(16, 6, 2, 2), automorphism group of
    order 1152."""
    return Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if u // 4 == v // 4 or u % 4 == v % 4])


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, vertices numbered in order, one color."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def random_colored_graph(rng: Random, max_n: int = 8) -> Graph:
    n = rng.randrange(1, max_n + 1)
    n_colors = rng.randrange(1, min(3, n) + 1)
    colors = [rng.randrange(n_colors) for _ in range(n)]
    # densify in case a color went unused
    used = sorted(set(colors))
    remap = {c: i for i, c in enumerate(used)}
    colors = [remap[c] for c in colors]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    return Graph(n, edges, colors)


def random_start(rng: Random, graph: Graph) -> tuple:
    """A start partition that respects the colors: color classes cut into
    random pieces, cells in random order, each cell in random vertex order."""
    cells = []
    for cell in color_cells(graph):
        cell = list(cell)
        rng.shuffle(cell)
        while len(cell) > 1 and rng.random() < 0.3:
            cut = rng.randrange(1, len(cell))
            cells.append(tuple(cell[:cut]))
            cell = cell[cut:]
        cells.append(tuple(cell))
    rng.shuffle(cells)
    return tuple(cells)


def assert_equitable(graph: Graph, cells) -> None:
    """Every vertex of a cell has the same neighbor count in every cell."""
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    assert sorted(cell_of) == list(range(graph.n))
    for cell in cells:
        profiles = {frozenset(Counter(cell_of[w] for w in graph.adj[v]).items())
                    for v in cell}
        assert len(profiles) == 1, cell


def cells_of(part) -> tuple:
    """The cells of a search partition (lab, start, size), in order, after
    checking that its three lists agree."""
    lab, start, size = part
    cells = tuple(tuple(lab[p:p + k]) for p, k in enumerate(size) if k)
    assert sorted(lab) == list(range(len(lab))) and sum(size) == len(lab)
    assert all(start[v] == p for p, k in enumerate(size) if k for v in lab[p:p + k])
    return cells


def split_off(cells: tuple, v: int) -> tuple:
    """The cells with v split off the front of its cell."""
    idx = next(i for i, cell in enumerate(cells) if v in cell)
    rest = tuple(x for x in cells[idx] if x != v)
    return cells[:idx] + ((v,), rest) + cells[idx + 1:]


class TestColoredGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_sparse_colors(self):
        with pytest.raises(ValueError):
            Graph(2, [], [0, 2])

    @pytest.mark.parametrize("edges,colors,names,message", [
        ([], [0], None, "1 colors for 2 vertices"),
        ([(0, 2)], None, None, r"edge \(0, 2\) out of range"),
        ([(0, 1)], None, ["a"], "vertex name count does not match n"),
    ])
    def test_rejects_bad_input(self, edges, colors, names, message):
        with pytest.raises(ValueError, match=message):
            Graph(2, edges, colors, names)

    def test_file_round_trip(self, tmp_path):
        g = example_clause_graph()
        path = tmp_path / "graph.txt"
        path.write_text(format_graph(g))
        back = read_graph(path)
        assert back.n == g.n
        assert back.colors == g.colors
        assert back.edges == g.edges


class TestColorRefine:
    def test_discrete_is_fixpoint(self):
        discrete = ((0,), (1,), (2,))
        assert color_refine(recolored(triangle(), discrete)) == discrete

    def test_equitable_unchanged(self):
        g = triangle()
        assert color_refine(g) == ((0, 1, 2),)

    def test_clause_graph_separates_by_clause_degree(self):
        cells = color_refine(example_clause_graph())
        # c has no clause edge while a, b have one; same for the negated side
        as_sets = [set(c) for c in cells]
        assert {0, 1} in as_sets and {2} in as_sets
        assert {3, 4} in as_sets and {5} in as_sets
        assert {6, 7} in as_sets

    def test_monotone_and_idempotent(self):
        rng = Random(11)
        for _ in range(40):
            g = random_colored_graph(rng)
            refined = color_refine(g)
            assert color_refine(recolored(g, refined)) == refined
            start_cells = {frozenset(c) for c in color_cells(g)}
            for cell in refined:
                assert any(set(cell) <= s for s in start_cells)


class TestRefinementOrder:
    """The sparse incremental refinement returns the dense oracle's tuple."""

    def test_matches_dense_oracle_on_random_starts(self):
        rng = Random(21)
        for _ in range(200):
            g = random_colored_graph(rng, max_n=rng.choice((8, 16)))
            starts = [recolored(g, random_start(rng, g)) for _ in range(3)]
            for colored in [g] + starts:
                refined = color_refine(colored)
                assert refined == dense_color_refine(colored)
                assert_equitable(g, refined)

    def test_individualize_matches_dense_oracle(self, monkeypatch):
        calls = []
        individualize = autgroup._individualize

        def recording(graph, part, x, v):
            out = individualize(graph, part, x, v)
            calls.append((graph, cells_of(part), v, cells_of(out)))
            return out

        monkeypatch.setattr(autgroup, "_individualize", recording)
        model, _ = families.gen_friends_smokers(7)
        clauses.model_symmetry_group(model, FS_EVIDENCE)
        assert len(calls) >= 10
        for graph, cells, v, out in calls:
            assert out == dense_color_refine(recolored(graph, split_off(cells, v)))
            assert_equitable(graph, out)

    @pytest.mark.parametrize("detect", [
        lambda: clauses.model_symmetry_group(families.gen_friends_smokers(7)[0], FS_EVIDENCE),
        lambda: automorphism_generators(disjoint_union(shrikhande(), rook4())),
    ], ids=["fs7e", "shrikhande-rook4"])
    def test_search_leaves_the_first_path_unchanged(self, monkeypatch, detect):
        # the search keeps the first path's partitions to the end and
        # individualizes each of them again; when it is over, each must
        # still be the refinement of the split it was made from
        calls = []
        individualize = autgroup._individualize

        def recording(graph, part, x, v):
            cells = cells_of(part)
            out = individualize(graph, part, x, v)
            calls.append((graph, cells, v, out, all(out[2])))
            return out

        monkeypatch.setattr(autgroup, "_individualize", recording)
        detect()
        leaves = [i for i, call in enumerate(calls) if call[4]]
        first_path = calls[:leaves[0] + 1]  # up to the first discrete leaf
        graph = calls[0][0]
        assert cells_of(autgroup._root(graph)) == color_refine(graph) == calls[0][1]
        for graph, cells, v, out, _ in first_path:
            assert cells_of(out) == dense_color_refine(recolored(graph, split_off(cells, v)))
        assert len(first_path) >= 3 and len(calls) > len(first_path)


class TestIsAutomorphism:
    def test_identity(self):
        g = example_clause_graph()
        assert is_automorphism(g, Permutation.identity(8))

    def test_grid_generator(self):
        names = list("abcdefghi")
        g = grid3_plain()
        assert is_automorphism(g, parse_cycles("(a i)(b f)(d h)", names=names))
        assert is_automorphism(g, parse_cycles("(a c)(d f)(g i)", names=names))

    def test_color_violation(self):
        g = example_clause_graph()
        assert not is_automorphism(g, parse_cycles("(0 3)", n=8))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_automorphism(triangle(), Permutation.identity(4))


class TestBruteForce:
    def test_clause_graph_has_two(self):
        auts = brute_force_automorphisms(example_clause_graph())
        assert len(auts) == 2

    def test_triangle(self):
        assert len(brute_force_automorphisms(triangle())) == 6

    def test_path(self):
        assert len(brute_force_automorphisms(path3())) == 2

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_automorphisms(Graph(11, []))


class TestSearch:
    def test_clause_graph_exact_generator(self):
        group = automorphism_generators(example_clause_graph())
        assert group.order() == 2
        expected = parse_cycles("(0 1)(3 4)(6 7)", n=8)
        assert group.generators == (expected,)

    def test_grid_order(self):
        assert automorphism_generators(grid3_plain()).order() == 8

    def test_rigid_graph(self):
        g = Graph(3, [], [0, 1, 2])
        group = automorphism_generators(g)
        assert not group.generators
        assert group.order() == 1

    def test_generators_are_automorphisms(self):
        rng = Random(12)
        for _ in range(30):
            g = random_colored_graph(rng)
            for gen in automorphism_generators(g).generators:
                assert is_automorphism(g, gen)

    def test_matches_brute_force_on_corpus(self):
        rng = Random(13)
        for _ in range(60):
            g = random_colored_graph(rng)
            group = automorphism_generators(g)
            assert len(group.generators) <= g.n
            found = set(elements(group))
            oracle = set(brute_force_automorphisms(g))
            assert found == oracle

    def test_conjugation_by_relabeling(self):
        rng = Random(14)
        for _ in range(15):
            g = random_colored_graph(rng, max_n=7)
            order = automorphism_generators(g).order()
            rho = list(range(g.n))
            rng.shuffle(rho)
            rho_p = Permutation(rho)
            relabeled = Graph(
                g.n,
                [(rho_p.apply(u), rho_p.apply(v)) for u, v in g.edges],
                [g.colors[rho_p.inverse().apply(v)] for v in range(g.n)])
            conj_group = automorphism_generators(relabeled)
            assert conj_group.order() == order
            # conjugating back by rho yields automorphisms of the original
            inv = rho_p.inverse()
            back = [rho_p.compose(h).compose(inv) for h in conj_group.generators]
            assert all(is_automorphism(g, b) for b in back)
            assert set(elements(PermutationGroup(back, n=g.n))) == \
                set(elements(automorphism_generators(g)))


class TestSearchBranches:
    """Graphs on which each branch of the search decides the result."""

    def test_empty_graph_is_trivial(self):
        group = automorphism_generators(Graph(0, []))
        assert group.n == 0 and not group.generators
        assert group.order() == 1

    def test_backtracks_past_a_child_that_finds_nothing(self):
        # triangle 0-1-2, square 3-4-5-6, triangle 7-8-9, all of degree 2:
        # the first path fixes triangle 0-1-2 and then branches into the
        # square; below the swap of the triangles that cell's first vertex
        # is 0, a triangle vertex, so the search must try further children
        g = disjoint_union(cycle(3), cycle(4), cycle(3))
        assert automorphism_generators(g).order() == 6 * 8 * 6 * 2

    def test_union_of_cycles_matches_brute_force(self):
        g = disjoint_union(cycle(3), cycle(4))
        group = automorphism_generators(g)
        assert group.order() == 6 * 8
        assert set(elements(group)) == set(brute_force_automorphisms(g))

    def test_profile_pruning_bounds_leaf_checks(self, monkeypatch):
        # both halves are srg(16, 6, 2, 2), so refinement cannot tell them
        # apart; a branch into the wrong half is cut by its cell sizes, not
        # by checking its 1152 x 192 leaves
        bound = 20
        calls = []
        check = autgroup.is_automorphism

        def counting(graph, p):
            calls.append(p)
            assert len(calls) <= bound, "leaf checks past the bound"
            return check(graph, p)

        monkeypatch.setattr(autgroup, "is_automorphism", counting)
        group = automorphism_generators(disjoint_union(shrikhande(), rook4()))
        assert group.order() == 192 * 1152
        assert len(calls) <= bound
