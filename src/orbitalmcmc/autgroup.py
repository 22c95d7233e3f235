"""Automorphism groups of vertex-colored undirected graphs.

The search is classic individualization-refinement: refine the color
partition until equitable, branch on a vertex of the first smallest
non-singleton cell, and read candidate automorphisms off pairs of discrete
partitions.  Discovered automorphisms prune sibling branches in the same
orbit, a node whose cell sizes differ from the first path's at its depth
is pruned (an invariant, as in McKay & Piperno, "Practical graph
isomorphism, II", 2014), and a child that finds no automorphism is
backtracked past.  Every emitted permutation is re-checked explicitly, so
the search is sound by construction; completeness is exercised against a
brute-force oracle in the test suite (`tests/helpers.py`), and the pruning
and the backtracking each by a graph that needs it.

Refinement works in synchronous passes with a sparse key: a vertex is keyed
by the (-cell index, neighbor count) pairs of the cells it has neighbors
in, which orders fragments exactly as dense per-cell count vectors would,
without a pass costing n * cells.  After the first pass only fresh cells,
those the previous pass split off, are counted, and only the cells next to
them are examined; individualizing a vertex of an equitable partition
counts the new singleton alone.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Optional, Sequence

from .graphs import Graph
from .perm import Permutation, PermutationGroup, orbit_ids

Cells = tuple[tuple[int, ...], ...]


def color_cells(graph: Graph) -> Cells:
    """Initial ordered partition: one cell per color, in color order."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(graph.colors):
        cells.setdefault(c, []).append(v)
    return tuple(tuple(cells[c]) for c in sorted(cells))


def color_refine(graph: Graph) -> Cells:
    """Coarsest equitable refinement of the color partition, `color_cells`;
    to refine from other cells, recolor the graph by cell.

    A partition is equitable when all vertices in a cell have the same
    number of neighbors in every cell.  Refinement runs in passes; each
    pass splits every cell into fragments by a key taken against the
    partition at the start of the pass, fragments ordered by key and each
    sorted by vertex, so the output order depends only on graph structure.
    Splitting never merges cells and a pass over an equitable partition is
    a no-op.

    The key is sparse: the (-cell index, count) pairs, ascending by cell,
    of the cells a vertex has neighbors in.  It orders fragments as the
    dense vector of counts in every cell would: at the first cell where two
    vertices differ, the one with more neighbors there sorts later, and a
    missing pair is a count of 0.

    The first pass counts neighbors in every cell.  Later passes count only
    neighbors in fresh cells, the fragments the previous pass split off
    except the last fragment of each split cell, and examine only cells
    holding such a neighbor.  Counts in any other cell are already uniform
    within a cell, so they neither split it nor reorder its fragments; a
    last fragment's count is the split cell's uniform count minus its
    siblings', so it never holds the first difference between two vertices.
    """
    cells = [list(c) for c in color_cells(graph)]
    return _refine(graph, cells, range(len(cells)))


def _refine(graph: Graph, cells: list[list[int]], fresh: Sequence[int]) -> Cells:
    """Refine sorted cells to equitable; see `color_refine` for the rules.

    `fresh` lists, ascending, the cells whose neighbors the first pass
    counts.  It must be what a pass would list: every cell, or the pieces
    just split off the cells of an equitable partition except the last
    piece of each.
    """
    adj = graph.adj
    cell_of = [0] * graph.n
    while fresh:
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = idx
        # hits[v]: (-c, count of v's neighbors in c) per fresh cell c, c ascending
        hits: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for c in fresh:
            counts = Counter(itertools.chain.from_iterable(adj[w] for w in cells[c]))
            for v, k in counts.items():
                hits[v].append((-c, k))
        splits: dict[int, list[list[int]]] = {}
        for x in {cell_of[v] for v in hits}:
            cell = cells[x]
            if len(cell) == 1:
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                groups.setdefault(tuple(hits.get(v, ())), []).append(v)
            if len(groups) > 1:
                splits[x] = [groups[k] for k in sorted(groups)]
        if not splits:
            break
        new_cells: list[list[int]] = []
        fresh = []
        for idx, cell in enumerate(cells):
            frags = splits.get(idx)
            if frags is None:
                new_cells.append(cell)
                continue
            for frag in frags[:-1]:
                fresh.append(len(new_cells))
                new_cells.append(frag)
            new_cells.append(frags[-1])
        cells = new_cells
    return tuple(tuple(c) for c in cells)


def _target_cell(cells: Cells) -> int:
    """Index of the first non-singleton cell of minimum size."""
    best = -1
    best_size = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (best_size is None or len(cell) < best_size):
            best, best_size = i, len(cell)
    return best


def _individualize(graph: Graph, cells: Cells, idx: int, v: int) -> Cells:
    # cells is equitable and (v,) comes before the rest of its cell, so
    # counting v's neighbors decides the first pass
    split = [list(c) for c in cells]
    split[idx:idx + 1] = [[v], [x for x in cells[idx] if x != v]]
    return _refine(graph, split, (idx,))


def _profile(cells: Cells) -> tuple[int, ...]:
    return tuple(len(c) for c in cells)


def is_automorphism(graph: Graph, p: Permutation) -> bool:
    """True iff p preserves vertex colors and maps the edge set onto itself."""
    if p.n != graph.n:
        raise ValueError(f"permutation on {p.n} points for {graph.n} vertices")
    m = p.image
    for v in range(graph.n):
        if graph.colors[m[v]] != graph.colors[v]:
            return False
    for u, v in graph.edges:
        a, b = m[u], m[v]
        if ((a, b) if a < b else (b, a)) not in graph.edges:
            return False
    return True


def automorphism_generators(graph: Graph) -> PermutationGroup:
    """Generating set of the full automorphism group of a colored graph.

    Walks the first branch of the individualization-refinement tree to a
    discrete base partition, then, deepest level first, searches for an
    automorphism moving the branch vertex to each other vertex of the
    target cell.  One representative per reachable vertex makes the union
    of per-level representatives generate the whole group; vertices already
    reachable under discovered generators are skipped.
    """
    root = color_refine(graph)

    # first branch: partitions and branch choices from root to a discrete leaf
    path: list[tuple[Cells, int]] = []
    profiles: list[tuple[int, ...]] = []
    cells = root
    while True:
        profiles.append(_profile(cells))
        idx = _target_cell(cells)
        if idx < 0:
            break
        path.append((cells, idx))
        cells = _individualize(graph, cells, idx, cells[idx][0])
    base_leaf = cells

    def leaf_permutation(leaf: Cells) -> Optional[Permutation]:
        mapping = [0] * graph.n
        for (src,), (dst,) in zip(base_leaf, leaf):
            mapping[src] = dst
        p = Permutation._trusted(mapping)
        return p if is_automorphism(graph, p) else None

    def search(cells: Cells, depth: int) -> Optional[Permutation]:
        # exhaustive hunt for one automorphism below this node; a node that
        # passes the profile check is discrete only at the base leaf's depth
        if _profile(cells) != profiles[depth]:
            return None
        idx = _target_cell(cells)
        if idx < 0:
            return leaf_permutation(cells)
        for u in cells[idx]:
            found = search(_individualize(graph, cells, idx, u), depth + 1)
            if found is not None:
                return found
        return None

    gens: list[Permutation] = []
    ids = list(range(graph.n))  # point orbit ids under gens
    for depth in range(len(path) - 1, -1, -1):
        cells, idx = path[depth]
        cell = cells[idx]
        v = cell[0]
        for u in cell[1:]:
            if ids[u] == ids[v]:
                continue
            found = search(_individualize(graph, cells, idx, u), depth + 1)
            if found is not None:  # found takes v to u, so it is not in gens
                gens.append(found)
                ids = orbit_ids(PermutationGroup(gens).point_action()).tolist()
    return PermutationGroup(gens, n=graph.n)

