"""Shared model fixtures and reference oracles for the test suite."""

import math
from typing import Optional

import numpy as np

from orbitalmcmc.autgroup import Cells, color_cells, is_valid_partition
from orbitalmcmc.clauses import WeightedClauseSet, parse_clause_file
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import Permutation, PermutationGroup, config_orbit_partition

# Two equal-weight clauses over three variables; the classic two-fold
# symmetric example: (a or !c) and (b or !c), both weighted 0.5.
EXAMPLE_CLAUSES = parse_clause_file(
    "vars: a b c\n"
    "0.5 :: a | !c\n"
    "0.5 :: b | !c\n")

# friends-smokers evidence pinning three people, two smoking and one not:
# the symmetry group is S_{k-3} x S_2 x S_1 on the people
FS_EVIDENCE = {"smokes_p1": True, "smokes_p4": True, "smokes_p5": False}


def two_spin_model() -> WeightedClauseSet:
    """Two binary variables with a symmetric pairwise potential.

    Weights are tuned so the stationary distribution over (00, 01, 10, 11)
    is (0.01, 0.49, 0.49, 0.01): both clauses carry weight ln 49, the
    first satisfied unless both variables are 0, the second unless both
    are 1.
    """
    w = repr(math.log(49.0))
    return WeightedClauseSet(
        ["x1", "x2"],
        [([(0, False), (1, False)], w),
         ([(0, True), (1, True)], w)])


def apply_config_action(group: PermutationGroup, states) -> np.ndarray:
    """Reference for `perm.state_action`: action[g][i] is the index of
    generator g applied to states[i], one `apply_config` call per state."""
    index = {s: i for i, s in enumerate(states)}
    action = [[index[g.apply_config(s)] for s in states] for g in group.generators]
    return np.array(action, dtype=np.intp).reshape(len(group.generators), len(states))


def config_orbits(group: PermutationGroup) -> dict:
    """The orbit of every configuration, from `config_orbit_partition`."""
    return {c: orbit for orbit in config_orbit_partition(group) for c in orbit.elements}


def clause_multiset(model: WeightedClauseSet) -> dict:
    """Count of each (literals, weight) clause."""
    out: dict[tuple, int] = {}
    for c in model.clauses:
        key = (c.literals, c.weight)
        out[key] = out.get(key, 0) + 1
    return out


def permuted_clause_multiset(model: WeightedClauseSet, p: Permutation) -> dict:
    """Clause multiset after renaming variables through p."""
    out: dict[tuple, int] = {}
    for c in model.clauses:
        lits = tuple(sorted((p.apply(v), neg) for v, neg in c.literals))
        key = (lits, c.weight)
        out[key] = out.get(key, 0) + 1
    return out


def dense_color_refine(graph: Graph, start: Optional[Cells] = None) -> Cells:
    """Ordering oracle: refinement by dense neighbor-count vectors.

    Every pass gives each vertex its count of neighbors in every cell and
    splits each cell by that vector, fragments in vector order, each
    sorted by vertex.  O(n * cells) per pass; `autgroup.color_refine` must
    return the identical tuple.
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
