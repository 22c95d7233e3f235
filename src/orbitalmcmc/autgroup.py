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
by the (-cell start, neighbor count) pairs of the cells it has neighbors
in, which orders fragments exactly as dense per-cell count vectors would,
without a pass costing n * cells.  After the first pass only fresh cells,
those the previous pass split off, are counted, and only the cells next to
them are examined; individualizing a vertex of an equitable partition
counts the new singleton alone.  The partition is three flat lists, the
vertices in cell order, each vertex's cell start and each start's cell
size; a pass splits cells in place, and the search copies the lists once
per individualized vertex, so no pass renumbers the cells it leaves alone.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Optional

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

    The partition is kept in three lists of length n: `lab`, the vertices
    in cell order; `start[v]`, the position of v's cell in `lab`, which is
    its cell id; and `size[p]`, the size of the cell at position p, 0 where
    no cell starts.  A split writes the fragments back over the cell and
    renumbers only the vertices outside its first fragment.

    The key is sparse: the (-cell start, count) pairs, ascending by cell,
    of the cells a vertex has neighbors in, kept written out as -start
    once per neighbor.  That list sorts as the pairs do: of two runs of
    one start, the shorter ends first or meets a lower -start.  Cell
    starts order cells as their indices do, so the key orders fragments as
    the dense vector of counts in every cell would: at the first cell
    where two vertices differ, the one with more neighbors there sorts
    later, and a missing pair is a count of 0.

    The first pass counts neighbors in every cell.  Later passes count only
    neighbors in fresh cells, the fragments the previous pass split off
    except the last fragment of each split cell, and examine only cells
    holding such a neighbor.  Counts in any other cell are already uniform
    within a cell, so they neither split it nor reorder its fragments; a
    last fragment's count is the split cell's uniform count minus its
    siblings', so it never holds the first difference between two vertices.
    """
    lab, _, size = _root(graph)
    return tuple(tuple(lab[p:p + k]) for p, k in enumerate(size) if k)


Partition = tuple[list[int], list[int], list[int]]  # lab, start, size


def _root(graph: Graph) -> Partition:
    """`color_refine` as the lists the search works on."""
    lab, start, size = [], [0] * graph.n, [0] * graph.n
    for cell in color_cells(graph):
        size[len(lab)] = len(cell)
        for v in cell:
            start[v] = len(lab)
        lab += cell
    _refine(graph, lab, start, size, [p for p, k in enumerate(size) if k])
    return lab, start, size


def _refine(graph: Graph, lab: list[int], start: list[int], size: list[int],
            fresh: list[int]) -> None:
    """Refine a partition to equitable in place; see `color_refine` for the
    lists and the rules.

    `fresh` lists, ascending, the starts of the cells whose neighbors the
    first pass counts.  It must be what a pass would list: every cell, or
    the pieces just split off the cells of an equitable partition except
    the last piece of each.
    """
    adj = graph.adj
    while fresh:
        # hits[v]: -c once per neighbor of v in c, per fresh cell c ascending
        hits: defaultdict[int, list[int]] = defaultdict(list)
        for c in fresh:
            for w in lab[c:c + size[c]]:
                for v in adj[w]:
                    hits[v].append(-c)
        # a cell's fragments depend on its own vertices alone, so each is
        # split as soon as it is keyed; a vertex without hits keys [],
        # which sorts first, and the stable sort keeps each fragment sorted
        key = hits.__getitem__
        fresh = []
        for x in {start[v] for v in hits}:
            if size[x] == 1:
                continue
            cell = sorted(lab[x:x + size[x]], key=key)
            frags = [list(g) for _, g in itertools.groupby(cell, key)]
            if len(frags) == 1:
                continue
            lab[x:x + size[x]] = cell
            p = x
            for frag in frags:
                size[p] = len(frag)
                fresh.append(p)
                if p != x:
                    for v in frag:
                        start[v] = p
                p += len(frag)
            fresh.pop()  # the last fragment
        fresh.sort()


def _target_cell(size: list[int]) -> int:
    """Start of the first non-singleton cell of minimum size, -1 if none."""
    sizes = set(size) - {0, 1}
    return size.index(min(sizes)) if sizes else -1


def _individualize(graph: Graph, part: Partition, x: int, v: int) -> Partition:
    """The refinement of `part` with v split off the front of its cell, the
    one at x; `part` itself is left as it was."""
    lab, start, size = part[0][:], part[1][:], part[2][:]
    # part is equitable and (v,) comes before the rest of its cell, so
    # counting v's neighbors decides the first pass
    i = lab.index(v, x)
    lab[x + 1:i + 1] = lab[x:i]
    lab[x] = v
    size[x + 1] = size[x] - 1
    size[x] = 1
    for w in lab[x + 1:x + 1 + size[x + 1]]:
        start[w] = x + 1
    _refine(graph, lab, start, size, [x])
    return lab, start, size


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
    # first branch: partitions and branch cells from root to a discrete leaf;
    # no partition is changed once made, so the path's size lists are the
    # profiles a node is checked against
    path: list[tuple[Partition, int]] = []
    part = _root(graph)
    while (x := _target_cell(part[2])) >= 0:
        path.append((part, x))
        part = _individualize(graph, part, x, part[0][x])
    profiles = [size for (_, _, size), _ in path] + [part[2]]
    base_start = part[1]  # a discrete partition's starts are positions

    def leaf_permutation(lab: list[int]) -> Optional[Permutation]:
        p = Permutation._trusted(list(map(lab.__getitem__, base_start)))
        return p if is_automorphism(graph, p) else None

    def search(part: Partition, depth: int) -> Optional[Permutation]:
        # exhaustive hunt for one automorphism below this node; a node that
        # passes the profile check is discrete only at the base leaf's depth
        lab, _, size = part
        if size != profiles[depth]:
            return None
        x = _target_cell(size)
        if x < 0:
            return leaf_permutation(lab)
        for u in lab[x:x + size[x]]:
            found = search(_individualize(graph, part, x, u), depth + 1)
            if found is not None:
                return found
        return None

    gens: list[Permutation] = []
    ids = list(range(graph.n))  # point orbit ids under gens
    for depth in range(len(path) - 1, -1, -1):
        part, x = path[depth]
        cell = part[0][x:x + part[2][x]]
        v = cell[0]
        for u in cell[1:]:
            if ids[u] == ids[v]:
                continue
            found = search(_individualize(graph, part, x, u), depth + 1)
            if found is not None:  # found takes v to u, so it is not in gens
                gens.append(found)
                ids = orbit_ids(PermutationGroup(gens).point_action()).tolist()
    return PermutationGroup(gens, n=graph.n)
