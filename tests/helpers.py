"""Shared model fixtures and reference oracles for the test suite."""

import itertools
import math
import re
from operator import itemgetter
from random import Random
from typing import Iterator, Optional, Sequence

import numpy as np

from orbitalmcmc.analysis import (CouplingReport, CouplingSimulator, ExactDistribution,
                                  TVSeries)
from orbitalmcmc.autgroup import Cells, color_cells, is_automorphism
from orbitalmcmc.chains import ChainKind, ChainTrace, ClauseModel
from orbitalmcmc.clauses import Clause, WeightedClauseSet, parse_clause_file
from orbitalmcmc.cli import write_csv
from orbitalmcmc.graphs import Graph, enumerate_independent_sets
from orbitalmcmc.perm import (BURN_IN_PER_SLOT, DRAW_MOVES, MAX_BYTES_N, MIN_SLOTS, Config,
                              Permutation, PermutationGroup, SamplerMode, StateSpace, _as_image,
                              _compose, _orbit_tuples, _scatter, config_orbit_partition,
                              orbit_ids)

# Two equal-weight clauses over three variables; the classic two-fold
# symmetric example: (a or !c) and (b or !c), both weighted 0.5.
EXAMPLE_CLAUSES = parse_clause_file(
    "vars: a b c\n"
    "0.5 :: a | !c\n"
    "0.5 :: b | !c\n")

# Two hard pairs, a|b and c|d, so 9 states, where a Gibbs move can find a
# value barred; soft clauses a|c and b|d and a field on every variable keep
# the symmetry group generated by (a b)(c d) and (a c)(b d).
HARD_PAIRS_TEXT = ("vars: a b c d\ninf :: a | b\ninf :: c | d\n0.5 :: a | c\n0.5 :: b | d\n"
                   + "".join(f"-0.3 :: {v}\n" for v in "abcd"))

# friends-smokers evidence pinning three people, two smoking and one not:
# the symmetry group is S_{k-3} x S_2 x S_1 on the people
FS_EVIDENCE = {"smokes_p1": True, "smokes_p4": True, "smokes_p5": False}


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p followed by q, x -> q[p[x]]: `perm._compose` on the images."""
    return Permutation._trusted(_compose(p.image, q.image))


def inverse(p: Permutation) -> Permutation:
    """p's inverse: `perm._scatter` of the identity image through p."""
    return Permutation._trusted(_scatter(p.image, Permutation.identity(p.n).image))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: Optional[int] = None,
                 names: Optional[Sequence[str]] = None) -> Permutation:
    """Parse a product of cycles like "(a c)(d f)" over named points, the
    reader of `perm.format_cycles`' text.

    Without `names` the points are the integers 0..n-1.  Cycles in the
    product need not be disjoint; they are composed left to right.  A point
    repeated inside a single cycle is an error.
    """
    if names is not None:
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("duplicate point names")
        n = len(names)
    elif n is None:
        raise ValueError("either n or names is required")
    else:
        index = None

    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"unparseable cycle text: {text!r}")

    result = Permutation.identity(n)
    for body in _CYCLE_RE.findall(text):
        tokens = body.split()
        if not tokens:
            continue
        if index is not None:
            try:
                points = [index[t] for t in tokens]
            except KeyError as exc:
                raise ValueError(f"unknown point name {exc.args[0]!r}") from exc
        else:
            points = [int(t) for t in tokens]
            for x in points:
                if not 0 <= x < n:
                    raise ValueError(f"point {x} outside domain 0..{n - 1}")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point within cycle ({body})")
        mapping = list(range(n))
        for a, b in zip(points, points[1:]):
            mapping[a] = b
        mapping[points[-1]] = points[0]
        result = compose(result, Permutation._trusted(mapping))
    return result


def elements(group: PermutationGroup) -> tuple[Permutation, ...]:
    """All group elements in lexicographic order of their images: the rows
    of `PermutationGroup.image_array` as permutations."""
    els = group.image_array()
    rows = map(bytes, els) if group.n <= MAX_BYTES_N else map(tuple, els.tolist())
    return tuple(map(Permutation._trusted, rows))


def orbit_partition(group: PermutationGroup) -> list[tuple[int, ...]]:
    """The group's point orbits as sorted tuples, ordered by least point."""
    return _orbit_tuples(orbit_ids(group.point_action()), range(group.n))


def reference_schreier_sims(n: int, gens: Sequence) -> list[dict]:
    """Reference for `perm._schreier_sims`: the same chain, re-sifting every
    Schreier generator on each return to a level and rescanning every
    (orbit point, strong generator) pair to extend an orbit; each level's
    dict maps a point to (u, u's inverse), both n-point images."""
    ident = _as_image(range(n))
    base, strong, chain = [], [], []

    def sift(g, i):
        for i in range(i, len(base)):
            beta = g[base[i]]
            if beta != base[i]:  # else the transversal element is the identity
                if beta not in chain[i]:
                    return g, i
                g = _compose(g, chain[i][beta][1])
        return g, len(base)

    def add(h, j, first):  # h fixes b_0..b_{j-1}
        if j == len(base):
            base.append(next(x for x, y in enumerate(h) if x != y))
            strong.append([])
            chain.append({base[j]: (ident, ident)})
        for level in range(first, j + 1):
            strong[level].append(h)
            t = chain[level]
            todo = list(t)
            for beta in todo:  # extend the orbit and its transversal
                for s in strong[level]:
                    if s[beta] not in t:
                        u = _compose(t[beta][0], s)
                        t[s[beta]] = (u, _scatter(u, ident))
                        todo.append(s[beta])

    def residues(i):
        for beta, (u, _) in chain[i].items():
            for s in strong[i]:
                us, (v, v_inv) = _compose(u, s), chain[i][s[beta]]
                if us != v:
                    yield sift(_compose(us, v_inv), i + 1)

    for g in gens:
        h, j = sift(g, 0)
        if h != ident:
            add(h, j, 0)
    i = len(base) - 1
    while i >= 0:  # the first residue that is not the identity, if any
        h, j = next((r for r in residues(i) if r[0] != ident), (None, i - 1))
        if h is not None:
            add(h, j, i + 1)
        i = j
    return chain


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


def satisfied_by(clause: Clause, bits) -> bool:
    """Reference for a clause's truth on one assignment, literal by literal."""
    return any(bits[v] == (0 if neg else 1) for v, neg in clause.literals)


def marginal(dist: ExactDistribution, var: int) -> float:
    """Reference for P(var = 1) under `dist`: a sum over its states in order."""
    return float(sum(p for s, p in zip(dist.states, dist.probs) if s[var]))


def reference_write_matrix(path, labels: list, rows: np.ndarray) -> None:
    """Reference for `cli.write_matrix`: `cli.write_csv` of the header and
    one row per matrix row, `repr` called on every cell."""
    write_csv(path, ["state"] + labels,
              ([label, *map(repr, row.tolist())] for label, row in zip(labels, rows)))


def reference_tv_curve(trace: ChainTrace, exact: ExactDistribution,
                       checkpoints: Sequence[int]) -> TVSeries:
    """Reference for `analysis.tv_curve`: counts added checkpoint by
    checkpoint into one float vector, one TV sum per checkpoint."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive sample counts")
    if checkpoints[-1] > len(trace.states):
        raise ValueError(
            f"checkpoint {checkpoints[-1]} exceeds {len(trace.states)} samples")
    states = trace.states[:checkpoints[-1]]
    try:  # one key more, so that one state too gives a tuple; fromiter stops before it
        found = itemgetter(*states, states[0])(exact.index)
    except KeyError as miss:
        exact.index_of(miss.args[0])  # raises, naming the state
        raise
    found = np.fromiter(found, np.intp, len(states))
    counts, points, used = np.zeros(len(exact.states)), [], 0
    for target in checkpoints:
        counts += np.bincount(found[used:target], minlength=len(counts))
        used = target
        points.append((used, float(0.5 * np.abs(counts / used - exact.probs).sum())))
    return TVSeries(points)


def apply_config_action(group: PermutationGroup, states) -> np.ndarray:
    """Reference for `perm.StateSpace.action`: action[g][i] is the index of
    generator g applied to states[i], one `apply_config` call per state."""
    index = {bytes(s): i for i, s in enumerate(states)}
    action = [[index[g.apply_config(s)] for s in states] for g in group.generators]
    return np.array(action, dtype=np.intp).reshape(len(group.generators), len(states))


def orbit_walk(action: np.ndarray):
    """Breadth-first walk of the states under the generators, one orbit at a
    time in order of its first state.  Yields (x, z, g) with x = action[g][z],
    or z = g = -1 when x is the first state of its orbit."""
    images = action.tolist()
    seen = [False] * action.shape[1]
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        yield start, -1, -1
        frontier = [start]
        while frontier:
            nxt = []
            for z in frontier:
                for g, image in enumerate(images):
                    x = image[z]
                    if not seen[x]:
                        seen[x] = True
                        nxt.append(x)
                        yield x, z, g
            frontier = nxt


def walk_gather(matrix) -> np.ndarray:
    """Reference for the gather of `analysis.representative_rows` on a kernel
    that does not lump: built along `orbit_walk`, orbit by orbit."""
    action = matrix.space.action
    n, ids = len(matrix.space.states), orbit_ids(action)
    back = np.argsort(action, axis=1)  # index arrays of the inverses
    gather = np.empty((n, n), dtype=np.intp)
    for x, z, g in orbit_walk(action):
        # row x = row z with its columns moved by generator g
        gather[x] = ids[x] * n + np.arange(n) if z < 0 else gather[z][back[g]]
    return gather


def reference_lumping(matrix, dist: ExactDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the lumped branch of `analysis.representative_rows` and
    for `analysis._reduced_pi`: the kernel and pi each multiplied by the
    N x M 0/1 orbit indicator, (the first state's row of K C per orbit,
    pi C), the orbits in order of their first states."""
    ids = orbit_ids(matrix.space.action)
    indicator = np.eye(int(ids.max()) + 1)[ids]
    reps = np.unique(ids, return_index=True)[1]
    return (matrix.rows @ indicator)[reps], dist.probs @ indicator


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
    """Reference for `PermutationGroup.image_array`: breadth-first closure of
    the identity under right multiplication by the generators, sorted."""
    seen = {Permutation.identity(group.n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = compose(p, g)
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
    """Reader for `graphs.format_graph`'s text format, for round trips."""
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
    """Reader for `perm.format_generating_set`'s format, for round trips."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty generating-set file")
    names = lines[0].split()
    gens = [parse_cycles(ln, names=names) for ln in lines[1:]]
    return PermutationGroup(gens, n=len(names)), names


class CoupledSteps(CouplingSimulator):
    """A `CouplingSimulator` that also applies its draws: the coupled step
    on configurations, with the drawn group element applied to both sides."""

    def __init__(self, model, group: PermutationGroup):
        super().__init__(model, group)
        self._group = group

    def _pair_of(self, upper: Config, lower: Config) -> int:
        """The index in `pairs` of a distance-one pair of configurations."""
        index = self.space.index
        if upper not in index or lower not in index:
            raise ValueError("coupled states must be independent sets")
        diff = [v for v, (a, b) in enumerate(zip(upper, lower)) if a != b]
        if len(diff) != 1 or not upper[diff[0]]:
            raise ValueError(
                "states must differ at exactly one vertex present in the first")
        # the pairs of a state are its vertices in ascending order
        return int(np.searchsorted(self._upper, index[upper])) + sum(upper[:diff[0]])

    def pairs(self) -> list[tuple[Config, Config]]:
        """All ordered pairs (X, X minus one vertex), X in lexicographic
        order and the vertex ascending: the simulator's pair indices."""
        states = self.space.states
        return [(states[u], states[v]) for u, v in zip(self._upper.tolist(),
                                                       self._lower.tolist())]

    def step(self, upper: Config, lower: Config,
             rng: Random) -> tuple[Config, Config, int]:
        """One coupled step of a distance-one pair of configurations: the new
        upper and lower states and the case of the chosen vertex."""
        a, b, element, case = self._draw(self._pair_of(upper, lower), rng)
        g = Permutation._trusted(self._group.image_array()[element].tolist())
        states = self.space.states
        new = g.apply_config(states[a])
        return new, (new if a == b else g.apply_config(states[b])), case


def distance_one_pairs(graph: Graph) -> list:
    """Reference for `CoupledSteps.pairs`: all ordered pairs
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


def reference_cases(model, space: StateSpace) -> np.ndarray:
    """Reference for `CouplingSimulator._cases`: the case rule on a table of
    blocked vertices, `blocked[s, w]` whether state s holds a neighbour of
    w, one product of the states' 0/1 matrix with the adjacency matrix; the
    lower state of each pair is its upper state with the vertex cleared."""
    n = model.n
    adjacency = np.zeros((n, n), dtype=bool)
    for v, w in model.graph.edges:
        adjacency[v, w] = adjacency[w, v] = True
    bits = space.bits.astype(bool)
    upper, vertex = np.nonzero(bits)
    upper_bits = bits[upper]
    lower_bits = upper_bits.copy()
    lower_bits[np.arange(len(upper)), vertex] = False
    return np.select([np.arange(n) == vertex[:, None], upper_bits, ~(upper_bits @ adjacency),
                      lower_bits @ adjacency], [1, 2, 3, 5], 4).astype(np.uint8)


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
    """Reference for `analysis.coupling_drift`: one `CoupledSteps.step`
    per trial on the listed states, the distance counted on the stepped states,
    with the constants from `exact_rho` and `exact_varrho`."""
    sim = CoupledSteps(model, group)
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
        lits = tuple(sorted((p.image[v], neg) for v, neg in c.literals))
        key = (lits, c.weight)
        out[key] = out.get(key, 0) + 1
    return out


def recolored(graph: Graph, cells: Cells) -> Graph:
    """The graph colored by cell: vertex v gets the index of its cell, so
    `color_cells` of the result is `cells`, each cell sorted."""
    colors = [0] * graph.n
    for i, cell in enumerate(cells):
        for v in cell:
            colors[v] = i
    return Graph(graph.n, graph.edges, colors)


def dense_color_refine(graph: Graph) -> Cells:
    """Ordering oracle: refinement by dense neighbor-count vectors.

    Every pass gives each vertex its count of neighbors in every cell and
    splits each cell by that vector, fragments in vector order, each
    sorted by vertex.  O(n * cells) per pass; `autgroup.color_refine` must
    return the identical tuple.
    """
    cells = [list(c) for c in color_cells(graph)]
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


class ReferenceProductReplacement:
    """Reference for `perm.ProductReplacement`: the same slots, moves and
    accumulator, one move at a time through `randrange`, `_compose` and
    `_scatter`."""

    def __init__(self, group: PermutationGroup, rng: Random):
        gens = group.generators
        self.rng = rng
        self._ident = self._acc = Permutation.identity(group.n).image
        n_slots = max(MIN_SLOTS, 2 * len(gens) + 1) if gens else 0
        self._slots = [gens[i % len(gens)].image for i in range(n_slots)]
        for _ in range(BURN_IN_PER_SLOT * n_slots):
            self._move()

    def _move(self) -> None:
        rng = self.rng
        slots = self._slots
        s = len(slots)
        i = rng.randrange(s)
        j = rng.randrange(s - 1)
        if j >= i:
            j += 1
        q = slots[j]
        # scattering the identity inverts
        if rng.random() < 0.5:
            q = _scatter(q, self._ident)
        r = slots[i] = _compose(slots[i], q)
        if rng.random() < 0.5:
            r = _scatter(r, self._ident)
        self._acc = _compose(self._acc, r)

    def next(self) -> Permutation:
        if self._slots:
            for _ in range(DRAW_MOVES):
                self._move()
        return Permutation._trusted(self._acc)


# References for the index draws that `perm`'s module docstring defines: each
# draws its indices through `Random.randrange` of the running interpreter.


def reference_insert_delete_step(model, bits: bytes, rng: Random) -> bytes:
    """Reference for an `IndependentSetModel.stepper` move, blocking read off
    the adjacency."""
    v = rng.randrange(model.graph.n)
    if bits[v]:
        if rng.random() < 1.0 / (1.0 + model.lam):
            return bits[:v] + b"\x00" + bits[v + 1:]
        return bits
    free = not any(bits[u] for u in model.graph.adj[v])
    if free and rng.random() < model.lam / (1.0 + model.lam):
        return bits[:v] + b"\x01" + bits[v + 1:]
    return bits


def reference_gibbs_step(model, bits: bytes, rng: Random) -> bytes:
    """Reference for a `ClauseModel.stepper` move, through `conditional_p1`."""
    if not model.free:
        return bits
    v = model.free[rng.randrange(len(model.free))]
    value = 1 if rng.random() < model.conditional_p1(bits, v) else 0
    return bits[:v] + bytes((value,)) + bits[v + 1:]


def moves(model, bits: Config) -> Iterator[tuple[Config, float]]:
    """Reference for a row of `model.move_table`: the model's `stepper` move
    from `bits` as (state, probability) pairs, a state possibly more than
    once.  A Gibbs value of conditional probability 0 is skipped; the
    conditionals come from `_p1`, so they fill its tables."""
    if isinstance(model, ClauseModel):
        free = model.free
        if not free:
            yield bits, 1.0
        for v in free:
            p1 = model._p1(bits, v)
            for value, p in ((1, p1), (0, 1.0 - p1)):
                if p == 0.0:
                    continue
                yield bits[:v] + bytes((value,)) + bits[v + 1:], p / len(free)
        return
    n, lam = model.graph.n, model.lam
    p_del = 1.0 / (n * (1.0 + lam))
    p_ins = lam / (n * (1.0 + lam))
    for v, (gather, empty) in enumerate(model._neighbours):
        if bits[v]:
            yield bits[:v] + b"\x00" + bits[v + 1:], p_del
            yield bits, 1.0 / n - p_del
        elif gather(bits) == empty:
            yield bits[:v] + b"\x01" + bits[v + 1:], p_ins
            yield bits, 1.0 / n - p_ins
        else:
            yield bits, 1.0 / n


def reference_kernel(model, kind: ChainKind,
                     group: Optional[PermutationGroup] = None) -> np.ndarray:
    """Reference for `transition_matrix` rows: `moves` added state by state
    with `+=`, then, for an orbital kind, the product with the N x N
    orbit-averaging matrix."""
    space = StateSpace(model.states(), group)
    rows = np.zeros((len(space),) * 2)
    for i, s in enumerate(space.states):
        for t, p in moves(model, s):
            rows[i, space.index[t]] += p
    if ChainKind(kind).is_orbital and space.action is not None:
        same = space.orbits[:, None] == space.orbits[None, :]
        rows = rows @ (same / same.sum(axis=1, keepdims=True))
    return rows


def reference_exact_sample(els, bits: bytes, rng: Random) -> bytes:
    """Reference for an EXACT `OrbitSampler.sample`: `els` is the group's
    `elements`."""
    return els[rng.randrange(len(els))].apply_config(bits)


def reference_chain(model, kind: ChainKind, steps: int, seed: int, record_every: int = 1,
                    group: PermutationGroup = None, mode: SamplerMode = SamplerMode.EXACT):
    """Reference for `run_chain`'s states: its loop, one call per draw
    through the reference steps, `reference_exact_sample` and
    `ReferenceProductReplacement`; a trivial group draws nothing."""
    kind, rng = ChainKind(kind), Random(seed)
    step = (reference_gibbs_step if kind.base is ChainKind.GIBBS
            else reference_insert_delete_step)
    resample = None
    if kind.is_orbital and group.generators:
        if SamplerMode(mode) is SamplerMode.EXACT:
            listed = elements(group)

            def resample(bits):
                return reference_exact_sample(listed, bits, rng)
        else:
            pr = ReferenceProductReplacement(group, rng)

            def resample(bits):
                return pr.next().apply_config(bits)
    state = model.start
    states = [state]
    for t in range(1, steps + 1):
        state = step(model, state, rng)
        if resample is not None:
            state = resample(state)
        if t % record_every == 0:
            states.append(state)
    return states


def reference_coupled_draw(sim: CouplingSimulator, pair: int, rng: Random) -> tuple:
    """Reference for `CouplingSimulator._draw`, on the simulator's tables."""
    hi, lo = int(sim._upper[pair]), int(sim._lower[pair])
    w = rng.randrange(sim.model.n)
    case = int(sim._cases[pair, w])
    flip, orbit, lam = sim.space.flip, sim.space.orbits, sim.model.lam
    a, b = hi, lo
    if case == 1:
        a = b = hi if rng.random() < lam / (1.0 + lam) else lo
    elif case == 2 and rng.random() < 1.0 / (1.0 + lam):
        a, b = int(flip[hi, w]), int(flip[lo, w])
    elif case == 3 and rng.random() < lam / (1.0 + lam):
        a, b = int(flip[hi, w]), int(flip[lo, w])
    elif case == 4 and rng.random() < lam / (1.0 + lam):
        b = int(flip[lo, w])
        if orbit[b] == orbit[hi]:
            b = hi
    return a, b, rng.randrange(sim._order), case


def reference_drift_draws(sim: CouplingSimulator, trials: int, rng: Random) -> list:
    """Reference for `coupling_drift`'s trials: per trial, the pair by
    `randrange`, then `reference_coupled_draw`; the (case, new Hamming
    distance) of each trial."""
    pairs, out = len(distance_one_pairs(sim.model.graph)), []
    for _ in range(trials):
        a, b, _, case = reference_coupled_draw(sim, rng.randrange(pairs), rng)
        states = sim.space.states
        out.append((case, sum(x != y for x, y in zip(states[a], states[b]))))
    return out
