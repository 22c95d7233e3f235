"""Base Markov chains and their orbit-resampling variants.

Each model class owns its chain's rules, and `run_chain` and the exact
analysis read them instead of branching on the model family:

- `base`, the base chain kind the model runs;
- `start`, the start state, valid by construction;
- `step(bits, rng)`, one base move;
- `moves(bits)`, the exact one-step distribution of `step` as
  (state, probability) pairs;
- `states()` and `weights(states)`, the enumerated state space and its
  unnormalized stationary weights.

`IndependentSetModel` moves by single-vertex insert/delete over the
independent sets of a graph with fugacity lambda.  `ClauseModel` moves by
single-site Gibbs over a weighted clause set and is the one place where
evidence lives: clamped variables are never resampled or enumerated.  An
orbital chain kind runs the base move and then replaces the state by a
uniform (or near-uniform) sample from its orbit under a symmetry group of
the target distribution; with evidence, that is the conditioned one.

Within a step the random draws happen in a fixed order (site choice, then
acceptance coin or conditional draw, then group element), so a trace is a
pure function of model, kind, steps and seed.

The steps trust their input: each base move keeps an independent set
independent, never leaves a hard clause violated and never touches a
clamped variable, and an orbit resample under a symmetry group of the
model keeps a valid state valid, so no step pays an O(n + m) check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .clauses import WeightedClauseSet, weight_value
from .errors import GuardExceededError, InfeasibleModelError, enumeration_cap
from .graphs import Graph, enumerate_independent_sets
from .perm import Config, OrbitSampler, PermutationGroup, SamplerMode


class ChainKind(str, Enum):
    GIBBS = "gibbs"
    ORBITAL_GIBBS = "orbital-gibbs"
    INSERT_DELETE = "id"
    ORBITAL_INSERT_DELETE = "orbital-id"

    @property
    def is_orbital(self) -> bool:
        return self in (ChainKind.ORBITAL_GIBBS, ChainKind.ORBITAL_INSERT_DELETE)

    @property
    def base(self) -> "ChainKind":
        if self is ChainKind.ORBITAL_GIBBS:
            return ChainKind.GIBBS
        if self is ChainKind.ORBITAL_INSERT_DELETE:
            return ChainKind.INSERT_DELETE
        return self


class IndependentSetModel:
    """Independent sets of a graph weighted by fugacity: pi(X) ~ lam^|X|.

    Chains start from the empty set.
    """

    __slots__ = ("graph", "lam", "start")
    base = ChainKind.INSERT_DELETE

    def __init__(self, graph: Graph, lam: float):
        if lam <= 0:
            raise ValueError(f"fugacity must be positive, got {lam}")
        self.graph = graph
        self.lam = lam
        self.start = (0,) * graph.n

    @property
    def n(self) -> int:
        return self.graph.n

    def step(self, bits: Config, rng: Random) -> Config:
        """One insert/delete move.

        Pick a vertex uniformly; delete it with probability 1/(1+lam) if
        present, insert it with probability lam/(1+lam) if absent and
        unblocked, otherwise leave the state unchanged.
        """
        graph = self.graph
        v = rng.randrange(graph.n)
        lam = self.lam
        if bits[v]:
            if rng.random() < 1.0 / (1.0 + lam):
                return bits[:v] + (0,) + bits[v + 1:]
            return tuple(bits)
        if not any(bits[w] for w in graph.adj[v]):
            if rng.random() < lam / (1.0 + lam):
                return bits[:v] + (1,) + bits[v + 1:]
            return tuple(bits)
        return tuple(bits)

    def moves(self, bits: Config) -> Iterator[tuple[Config, float]]:
        """`step` from `bits` as (state, probability) pairs; a state can
        appear more than once."""
        n = self.graph.n
        lam = self.lam
        p_del = 1.0 / (n * (1.0 + lam))
        p_ins = lam / (n * (1.0 + lam))
        for v in range(n):
            if bits[v]:
                yield bits[:v] + (0,) + bits[v + 1:], p_del
                yield bits, 1.0 / n - p_del
            elif not any(bits[w] for w in self.graph.adj[v]):
                yield bits[:v] + (1,) + bits[v + 1:], p_ins
                yield bits, 1.0 / n - p_ins
            else:
                yield bits, 1.0 / n

    def states(self) -> list[Config]:
        return enumerate_independent_sets(self.graph)

    def weights(self, states: Sequence[Config]) -> np.ndarray:
        return np.array([self.lam ** sum(s) for s in states], dtype=float)

    def __repr__(self) -> str:
        return f"IndependentSetModel({self.graph!r}, lam={self.lam})"


class ClauseModel:
    """A weighted clause set conditioned on evidence, moved by Gibbs.

    `evidence` maps variable names to truth values.  Clamped variables keep
    their value: `step` and `moves` resample only `free`, the unclamped
    variables, and the scans below enumerate the free variables alone.
    Per variable, the model precomputes the clauses it occurs in, so the
    exact single-site conditional costs only the touched clauses.
    Construction finds `start`, the first assignment in counting order
    (bit i of the counter is the i-th free variable, so free variables all
    zero comes first) that satisfies every hard clause.
    """

    base = ChainKind.GIBBS

    def __init__(self, clause_set: WeightedClauseSet,
                 evidence: Optional[Mapping[str, bool]] = None):
        self.clause_set = clause_set
        self.n = clause_set.n
        clamped = {clause_set.var_index(name): int(value)
                   for name, value in (evidence or {}).items()}
        self.free = tuple(v for v in range(self.n) if v not in clamped)
        self._clamped = tuple(clamped.get(v, 0) for v in range(self.n))
        self._hard = tuple(c for c in clause_set.clauses if c.is_hard)
        # per variable, one term per clause it occurs in, in clause order:
        # (hard, weight, the value of the variable that satisfies the
        # clause, the other literals as (variable, satisfying value) pairs)
        terms: list[list[tuple]] = [[] for _ in range(self.n)]
        for c in clause_set.clauses:
            weight = 0.0 if c.is_hard else weight_value(c.weight)
            for v, neg in c.literals:
                others = tuple((u, int(not m)) for u, m in c.literals if u != v)
                terms[v].append((c.is_hard, weight, int(not neg), others))
        self._terms = [tuple(t) for t in terms]
        start = next(self._satisfying(low_first=True), None)
        if start is None:
            raise InfeasibleModelError(
                "no assignment satisfies every hard clause and the evidence")
        self.start = start

    def _satisfying(self, low_first: bool) -> Iterator[Config]:
        """Assignments satisfying every hard clause, the free variables
        taken from a counter 0, 1, ..., 2^|free| - 1.

        The i-th free variable is bit i of the counter if `low_first`, else
        bit |free| - 1 - i (lexicographic order).  The scan is exponential
        in |free|; it raises GuardExceededError at counter
        `enumeration_cap()`.
        """
        m = len(self.free)
        shifts = range(m) if low_first else range(m - 1, -1, -1)
        places = tuple(zip(self.free, shifts))
        bits = list(self._clamped)
        cap = enumeration_cap()
        for k in range(2 ** m):
            if k >= cap:
                raise GuardExceededError(
                    f"no assignment satisfying the hard clauses among the first "
                    f"{cap} of 2^{m} (enumeration cap)")
            for v, shift in places:
                bits[v] = (k >> shift) & 1
            state = tuple(bits)
            if all(c.satisfied_by(state) for c in self._hard):
                yield state

    def conditional_p1(self, bits: Sequence[int], v: int) -> float:
        """Exact probability that variable v is 1 given all other variables.

        Only clauses touching v matter; hard clauses zero out a value of v
        that violates them.  Raises if neither value is consistent.
        """
        score0 = score1 = 0.0
        ok0 = ok1 = True
        # each score sums its satisfied soft weights in clause order
        for hard, weight, want, others in self._terms[v]:
            for u, b in others:
                if bits[u] == b:
                    if not hard:
                        score0 += weight
                        score1 += weight
                    break
            else:
                if hard:
                    if want:
                        ok0 = False
                    else:
                        ok1 = False
                elif want:
                    score1 += weight
                else:
                    score0 += weight
        if not ok0 and not ok1:
            raise InfeasibleModelError(
                f"no value of variable {self.clause_set.variables[v]} "
                "satisfies the hard clauses")
        if not ok0:
            return 1.0
        if not ok1:
            return 0.0
        # exp-normalize against the larger score for stability
        m = max(score0, score1)
        w0, w1 = math.exp(score0 - m), math.exp(score1 - m)
        return w1 / (w0 + w1)

    def step(self, bits: Config, rng: Random) -> Config:
        """Resample one uniformly chosen free variable from its exact
        conditional; with no free variable, draw nothing and stay."""
        free = self.free
        if not free:
            return bits
        v = free[rng.randrange(len(free))]
        p1 = self.conditional_p1(bits, v)
        value = 1 if rng.random() < p1 else 0
        if bits[v] == value:
            return tuple(bits)
        return bits[:v] + (value,) + bits[v + 1:]

    def moves(self, bits: Config) -> Iterator[tuple[Config, float]]:
        """`step` from `bits` as (state, probability) pairs; a state can
        appear more than once."""
        free = self.free
        if not free:
            yield bits, 1.0
        for v in free:
            p1 = self.conditional_p1(bits, v)
            for value, p in ((1, p1), (0, 1.0 - p1)):
                if p == 0.0:
                    continue
                yield bits[:v] + (value,) + bits[v + 1:], p / len(free)

    def states(self) -> list[Config]:
        """Every assignment satisfying the hard clauses and the evidence,
        in lexicographic order."""
        cap = enumeration_cap()
        if 2 ** len(self.free) > cap:
            raise GuardExceededError(
                f"2^{len(self.free)} assignments exceed enumeration cap {cap}")
        return list(self._satisfying(low_first=False))

    def weights(self, states: Sequence[Config]) -> np.ndarray:
        """exp(total weight of the satisfied soft clauses) per state, each
        total added in clause order as a per-state loop would add it."""
        bits = np.array(states, dtype=np.int8).reshape(len(states), self.n)
        total = np.zeros(len(states))
        for c in self.clause_set.clauses:
            if not c.is_hard:
                sat = np.zeros(len(states), dtype=bool)
                for v, neg in c.literals:
                    sat |= bits[:, v] == (0 if neg else 1)
                total[sat] += weight_value(c.weight)
        return np.exp(total)

    def __repr__(self) -> str:
        clamped = self.n - len(self.free)
        return f"ClauseModel({self.clause_set!r}, {clamped} clamped)"


gibbs_step = ClauseModel.step
insert_delete_step = IndependentSetModel.step


@dataclass
class ChainTrace:
    """Recorded run of a chain; states[i] is the state after i*record_every steps."""

    states: list
    elapsed_seconds: float = 0.0


def initial_state(model, kind: ChainKind) -> Config:
    """The start state of a `kind` chain on `model`: the model's `start`.

    Raises TypeError when the kind's base chain is not the model's.
    """
    kind = ChainKind(kind)
    if kind.base is not model.base:
        raise TypeError(
            f"{kind.value} chains do not run on {type(model).__name__}")
    return model.start


def run_chain(model, kind: ChainKind, steps: int, seed: int,
              record_every: int = 1, group: Optional[PermutationGroup] = None,
              mode: SamplerMode = SamplerMode.EXACT) -> ChainTrace:
    """Run a chain from `initial_state` and record its states.

    Orbital kinds require `group`, a symmetry group of the model's
    distribution (the caller asserts this; desk-scale validation lives in
    the analysis helpers).
    """
    kind = ChainKind(kind)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    state = initial_state(model, kind)
    step = type(model).step

    rng = Random(seed)
    sampler = None
    if kind.is_orbital:
        if group is None:
            raise ValueError(f"chain kind {kind.value} requires a symmetry group")
        sampler = OrbitSampler(group, mode, rng)

    trace = ChainTrace([state])
    t0 = time.perf_counter()
    for t in range(1, steps + 1):
        state = step(model, state, rng)
        if sampler is not None:
            state = sampler.sample(state)
        if t % record_every == 0:
            trace.states.append(state)
    trace.elapsed_seconds = time.perf_counter() - t0
    return trace
