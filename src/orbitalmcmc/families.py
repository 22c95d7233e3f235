"""Benchmark model generators: grids, connected cliques, complete graphs,
and a small ground social-network clause model."""

from __future__ import annotations

from random import Random

from .clauses import Evidence, WeightedClauseSet
from .graphs import Graph, default_names


def gen_grid(k: int) -> Graph:
    """The 2-dimensional k x k lattice, vertices named row-major."""
    if k < 2:
        raise ValueError(f"grid size must be at least 2, got {k}")
    edges = []
    for r in range(k):
        for c in range(k):
            v = k * r + c
            if c < k - 1:
                edges.append((v, v + 1))
            if r < k - 1:
                edges.append((v, v + k))
    return Graph(k * k, edges, names=default_names(k * k))


def gen_connected_cliques(k: int) -> Graph:
    """k+1 cliques of size k-1, each tied by one edge to a shared hub.

    Clique i occupies vertices i*(k-1) .. (i+1)*(k-1)-1; its first member
    carries the hub edge.  The hub is the last vertex.
    """
    if k < 2:
        raise ValueError(f"clique parameter must be at least 2, got {k}")
    size = k - 1
    hub = (k + 1) * size
    edges = []
    for i in range(k + 1):
        base = i * size
        for a in range(size):
            for b in range(a + 1, size):
                edges.append((base + a, base + b))
        edges.append((base, hub))
    return Graph(hub + 1, edges, names=default_names(hub + 1))


def gen_complete(k: int) -> Graph:
    """Complete graph on k^2 vertices."""
    if k < 2:
        raise ValueError(f"complete-graph parameter must be at least 2, got {k}")
    n = k * k
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, names=default_names(n))


# Ground social-network model: seven clause families, one per rule, with
# pairwise-distinct weights so relabeling people is the only symmetry and
# each family forms a single feature orbit regardless of population size.
_W_CANCER = "1.5"      # smoking causes cancer
_W_INFLUENCE = "1.1"   # a friend's smoking spreads
_W_MUTUAL = "2"        # friendship tends to be mutual
_W_WORRY = "0.7"       # a smoking friend raises one's own cancer risk
_W_PRIOR_S = "-1.4"    # most people do not smoke
_W_PRIOR_C = "-2.3"    # most people do not have cancer
_W_PRIOR_F = "-4.6"    # most pairs are not friends


def gen_friends_smokers(people: int, evidence_fraction: float = 0.0,
                        seed: int = 0) -> tuple[WeightedClauseSet, Evidence]:
    """Grounded smokers/friends/cancer model over a fixed population.

    Evidence fixes the smoking status of a random fraction of the people
    (the count rounded to nearest, at least one), drawn reproducibly from
    the seed.
    """
    if people < 2:
        raise ValueError(f"need at least 2 people, got {people}")
    persons = [f"p{i}" for i in range(people)]
    smokes = {p: f"smokes_{p}" for p in persons}
    cancer = {p: f"cancer_{p}" for p in persons}
    pairs = [(p, q) for p in persons for q in persons if p != q]
    friends = {(p, q): f"friends_{p}_{q}" for p, q in pairs}

    variables = ([smokes[p] for p in persons]
                 + [cancer[p] for p in persons]
                 + [friends[p, q] for p, q in pairs])
    index = {name: i for i, name in enumerate(variables)}

    def lit(name: str, neg: bool = False):
        return (index[name], neg)

    raw = []
    for p in persons:
        raw.append(([lit(smokes[p], True), lit(cancer[p])], _W_CANCER))
        raw.append(([lit(smokes[p], True)], _W_PRIOR_S))
        raw.append(([lit(cancer[p], True)], _W_PRIOR_C))
    for p, q in pairs:
        raw.append(([lit(friends[p, q], True), lit(smokes[p], True),
                     lit(smokes[q])], _W_INFLUENCE))
        raw.append(([lit(friends[p, q], True), lit(friends[q, p])], _W_MUTUAL))
        raw.append(([lit(friends[p, q], True), lit(smokes[q], True),
                     lit(cancer[p])], _W_WORRY))
        raw.append(([lit(friends[p, q], True)], _W_PRIOR_F))
    model = WeightedClauseSet(variables, raw)

    evidence: Evidence = {}
    if evidence_fraction > 0:
        rng = Random(seed)
        count = min(people, max(1, round(evidence_fraction * people)))
        chosen = rng.sample(persons, count)
        for p in chosen:
            evidence[smokes[p]] = rng.random() < 0.5
    return model, evidence
