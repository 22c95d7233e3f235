"""Shared model fixtures for the test suite."""

import math

from orbitalmcmc.clauses import WeightedClauseSet, parse_clause_file
from orbitalmcmc.perm import Permutation

# Two equal-weight clauses over three variables; the classic two-fold
# symmetric example: (a or !c) and (b or !c), both weighted 0.5.
EXAMPLE_CLAUSES = parse_clause_file(
    "vars: a b c\n"
    "0.5 :: a | !c\n"
    "0.5 :: b | !c\n")


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
