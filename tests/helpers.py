"""Shared model fixtures and reference oracles for the test suite."""

import itertools
import math
from random import Random
from typing import Optional

import numpy as np

from orbitalmcmc.analysis import CouplingReport, CouplingSimulator
from orbitalmcmc.autgroup import Cells, color_cells, is_automorphism, is_valid_partition
from orbitalmcmc.clauses import WeightedClauseSet, parse_clause_file
from orbitalmcmc.graphs import Graph, enumerate_independent_sets
from orbitalmcmc.perm import (Permutation, PermutationGroup, config_orbit_partition,
                              orbit_ids, parse_cycles)

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
    index = {bytes(s): i for i, s in enumerate(states)}
    action = [[index[g.apply_config(s)] for s in states] for g in group.generators]
    return np.array(action, dtype=np.intp).reshape(len(group.generators), len(states))


def brute_force_automorphisms(graph: Graph) -> list[Permutation]:
    """Reference for `autgroup.automorphism_generators`: all automorphisms
    by exhaustion over color-respecting bijections (n <= 10)."""
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
        p = Permutation._trusted(mapping)
        if is_automorphism(graph, p):
            out.append(p)
    return out


def closure_elements(group: PermutationGroup) -> list[Permutation]:
    """Reference for `PermutationGroup.elements`: breadth-first closure of
    the identity under right multiplication by the generators, sorted."""
    seen = {Permutation.identity(group.n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = p.compose(g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen, key=lambda p: p.mapping)


def cycle_count_burnside(group: PermutationGroup, elements) -> int:
    """Reference for `perm.burnside_config_orbit_count`: 2^(cycles,
    fixed points included) summed per element and averaged."""
    total = 0
    for g in elements:
        cycles = g.cycles()
        total += 2 ** (len(cycles) + group.n - sum(map(len, cycles)))
    count, rem = divmod(total, len(elements))
    assert rem == 0
    return count


def read_graph(path) -> Graph:
    """Reader for `graphs.write_graph`'s text format, for round trips."""
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows:
        raise ValueError("empty graph file")
    n, m, c = (int(x) for x in rows[0])
    if len(rows) != 1 + n + m:
        raise ValueError(f"expected {1 + n + m} lines, found {len(rows)}")
    colors = [0] * n
    for v, col in (map(int, r) for r in rows[1:1 + n]):
        colors[v] = col
    edges = [tuple(map(int, r)) for r in rows[1 + n:]]
    graph = Graph(n, edges, colors)
    if graph.num_colors != c:
        raise ValueError(f"header declares {c} colors, found {graph.num_colors}")
    return graph


def load_generating_set(path) -> tuple[PermutationGroup, list[str]]:
    """Reader for `perm.save_generating_set`'s format, for round trips."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty generating-set file")
    names = lines[0].split()
    gens = [parse_cycles(ln, names=names) for ln in lines[1:]]
    return PermutationGroup(gens, n=len(names)), names


def distance_one_pairs(graph: Graph) -> list:
    """Reference for `CouplingSimulator.pairs`: all ordered pairs
    (X, X minus one vertex) of independent sets."""
    pairs = []
    for s in enumerate_independent_sets(graph):
        for v in range(graph.n):
            if s[v]:
                pairs.append((s, s[:v] + b"\x00" + s[v + 1:]))
    return pairs


def exact_rho(graph: Graph, group: PermutationGroup) -> float:
    """Reference for `CouplingSimulator.rho`: enumerates every (X, v, w)
    with {v, w} an edge and both X + v and X + w independent, checked by a
    scan over all edges, and reports how often the two extended sets are
    not in one orbit."""
    states = enumerate_independent_sets(graph)
    ids = orbit_ids(apply_config_action(group, states))
    orbit_of = dict(zip(states, ids.tolist()))
    total = 0
    apart = 0
    for s in orbit_of:
        for u, w in graph.edges:
            for v, other in ((u, w), (w, u)):
                if s[v] or s[other]:
                    continue
                with_v = s[:v] + b"\x01" + s[v + 1:]
                if not graph.is_independent(with_v):
                    continue
                with_other = s[:other] + b"\x01" + s[other + 1:]
                if not graph.is_independent(with_other):
                    continue
                total += 1
                if orbit_of[with_v] != orbit_of[with_other]:
                    apart += 1
    if total == 0:
        raise ValueError("no valid adjacent extensions; graph has no edges?")
    return apart / total


def exact_varrho(graph: Graph) -> float:
    """Reference for `CouplingSimulator.varrho`: the probability that a
    uniform vertex choice from a uniform distance-one pair can only be
    inserted into the smaller set, by a scan of every pair and vertex."""
    pairs = distance_one_pairs(graph)
    hits = 0
    for upper, lower in pairs:
        v = next(i for i in range(graph.n) if upper[i] != lower[i])
        for w in range(graph.n):
            if w == v or upper[w]:
                continue
            in_upper = any(upper[x] for x in graph.adj[w])
            in_lower = any(lower[x] for x in graph.adj[w])
            if in_upper and not in_lower:
                hits += 1
    return hits / (len(pairs) * graph.n)


def coupling_drift_by_steps(model, group: PermutationGroup, trials: int,
                            seed: int = 0) -> CouplingReport:
    """Reference for `analysis.coupling_drift`: one `CouplingSimulator.step`
    per trial on the listed states, the distance counted on the stepped states,
    with the constants from `exact_rho` and `exact_varrho`."""
    sim = CouplingSimulator(model, group)
    pairs = distance_one_pairs(model.graph)
    rng = Random(seed)
    counts = {k: 0 for k in range(1, 6)}
    drift_sum = 0.0
    drift_sq = 0.0
    for _ in range(trials):
        upper, lower = pairs[rng.randrange(len(pairs))]
        new_upper, new_lower, case = sim.step(upper, lower, rng)
        counts[case] += 1
        d = sum(a != b for a, b in zip(new_upper, new_lower)) - 1
        drift_sum += d
        drift_sq += d * d
    mean = drift_sum / trials
    var = max(drift_sq / trials - mean * mean, 0.0)
    rho, varrho, lam = exact_rho(model.graph, group), exact_varrho(model.graph), model.lam
    bound = -1.0 / model.n + varrho * (2 * rho - 1) * lam / (1 + lam)
    return CouplingReport(case_counts=counts, rho=rho, varrho=varrho, expected_drift=mean,
                          drift_se=math.sqrt(var / trials), bound=bound)


def config_orbits(group: PermutationGroup) -> dict:
    """The orbit of every configuration, from `config_orbit_partition`."""
    return {c: orbit for orbit in config_orbit_partition(group) for c in orbit}


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
