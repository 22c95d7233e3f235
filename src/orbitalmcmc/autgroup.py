"""Automorphism groups of vertex-colored undirected graphs.

The search is classic individualization-refinement: refine the color
partition until equitable, branch on a vertex of the first smallest
non-singleton cell, and read candidate automorphisms off pairs of discrete
partitions.  Discovered automorphisms prune sibling branches in the same
orbit.  Every emitted permutation is re-checked explicitly, so the search
is sound by construction; completeness is exercised against the
brute-force oracle in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .graphs import Graph
from .perm import Permutation, PermutationGroup

Cells = tuple[tuple[int, ...], ...]


def color_cells(graph: Graph) -> Cells:
    """Initial ordered partition: one cell per color, in color order."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(graph.colors):
        cells.setdefault(c, []).append(v)
    return tuple(tuple(cells[c]) for c in sorted(cells))


def is_valid_partition(graph: Graph, cells: Cells) -> bool:
    seen: set[int] = set()
    for cell in cells:
        if not cell or (seen & set(cell)):
            return False
        if len({graph.colors[v] for v in cell}) != 1:
            return False
        seen |= set(cell)
    return seen == set(range(graph.n))


def color_refine(graph: Graph, start: Optional[Cells] = None) -> Cells:
    """Coarsest equitable refinement of the starting partition.

    A partition is equitable when all vertices in a cell have the same
    number of neighbors in every cell.  Cells split into fragments ordered
    by their neighbor-count signature, so the output order depends only on
    graph structure; splitting never merges cells and a second pass on an
    equitable partition is a no-op.
    """
    if start is None:
        cells = [list(c) for c in color_cells(graph)]
    else:
        if not is_valid_partition(graph, start):
            raise ValueError("start partition must respect vertex colors")
        cells = [list(c) for c in start]
    while True:
        cell_of = [0] * graph.n
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = idx
        sig = {}
        for v in range(graph.n):
            counts = [0] * len(cells)
            for w in graph.adj[v]:
                counts[cell_of[w]] += 1
            sig[v] = tuple(counts)
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                groups.setdefault(sig[v], []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new_cells.append(sorted(groups[key]))
        cells = new_cells
        if not changed:
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
    cell = cells[idx]
    rest = tuple(x for x in cell if x != v)
    split = cells[:idx] + ((v,), rest) + cells[idx + 1:]
    return color_refine(graph, split)


def _profile(cells: Cells) -> tuple[int, ...]:
    return tuple(len(c) for c in cells)


def is_automorphism(graph: Graph, p: Permutation) -> bool:
    """True iff p preserves vertex colors and maps the edge set onto itself."""
    if p.n != graph.n:
        raise ValueError(f"permutation on {p.n} points for {graph.n} vertices")
    m = p.mapping
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
    if graph.n == 0:
        return PermutationGroup([], n=0)
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
        for src_cell, dst_cell in zip(base_leaf, leaf):
            mapping[src_cell[0]] = dst_cell[0]
        if len(set(mapping)) != graph.n:
            return None
        p = Permutation._trusted(tuple(mapping))
        return p if is_automorphism(graph, p) else None

    def search(cells: Cells, depth: int) -> Optional[Permutation]:
        # exhaustive hunt for one automorphism below this node
        if depth < len(profiles) and _profile(cells) != profiles[depth]:
            return None
        idx = _target_cell(cells)
        if idx < 0:
            if len(cells) != graph.n:
                return None
            return leaf_permutation(cells)
        for u in cells[idx]:
            found = search(_individualize(graph, cells, idx, u), depth + 1)
            if found is not None:
                return found
        return None

    gens: list[Permutation] = []
    for depth in range(len(path) - 1, -1, -1):
        cells, idx = path[depth]
        cell = cells[idx]
        v = cell[0]
        for u in cell[1:]:
            if u in PermutationGroup(gens, n=graph.n).orbit_of_point(v):
                continue
            found = search(_individualize(graph, cells, idx, u), depth + 1)
            if found is not None and found not in gens:
                gens.append(found)
    return PermutationGroup(gens, n=graph.n)


def brute_force_automorphisms(graph: Graph) -> list[Permutation]:
    """All automorphisms by exhaustion over color-respecting bijections (n <= 10)."""
    if graph.n > 10:
        raise ValueError(f"brute force limited to 10 vertices, got {graph.n}")
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(graph.colors):
        classes.setdefault(c, []).append(v)
    keys = sorted(classes)
    out = []
    for images in itertools.product(*(itertools.permutations(classes[k]) for k in keys)):
        mapping = [0] * graph.n
        for k, img in zip(keys, images):
            for src, dst in zip(classes[k], img):
                mapping[src] = dst
        p = Permutation._trusted(tuple(mapping))
        if is_automorphism(graph, p):
            out.append(p)
    return out
