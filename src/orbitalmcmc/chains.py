"""Base Markov chains and their orbit-resampling variants.

Two base kernels are provided: single-site Gibbs over a weighted clause
model, and the single-vertex insert/delete chain over independent sets of
a graph with fugacity lambda.  An orbital chain kind runs the base kernel
and then replaces the state by a uniform (or near-uniform) sample from its
orbit under a symmetry group of the target distribution.

Within a step the random draws happen in a fixed order (site choice, then
acceptance coin or conditional draw, then group element), so a trace is a
pure function of model, kind, steps and seed.

States are validated once, by `initial_state`, when a chain starts.  The
step functions trust their input: each base move keeps an independent set
independent and never leaves a hard clause violated, and an orbit resample
under a symmetry group of the model keeps a valid state valid, so no step
pays an O(n + m) check.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Optional, Sequence

from .clauses import WeightedClauseSet, weight_value
from .errors import GuardExceededError, InfeasibleModelError, enumeration_cap
from .graphs import Graph
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
    """Independent sets of a graph weighted by fugacity: pi(X) ~ lam^|X|."""

    __slots__ = ("graph", "lam")

    def __init__(self, graph: Graph, lam: float):
        if lam <= 0:
            raise ValueError(f"fugacity must be positive, got {lam}")
        self.graph = graph
        self.lam = lam

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"IndependentSetModel({self.graph!r}, lam={self.lam})"


class ClauseModel:
    """Gibbs-ready view of a weighted clause set.

    Precomputes, per variable, the clauses it occurs in, so the exact
    single-site conditional costs only the touched clauses.  Construction
    finds `start`, the first assignment (all-zeros first) that satisfies
    every hard clause.
    """

    def __init__(self, clause_set: WeightedClauseSet):
        self.clause_set = clause_set
        self.n = clause_set.n
        self.hard = [c.is_hard for c in clause_set.clauses]
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
        start = self._hard_witness()
        if start is None:
            raise InfeasibleModelError("no assignment satisfies every hard clause")
        self.start = start

    def _hard_witness(self) -> Optional[Config]:
        """First assignment satisfying every hard clause, or None if none does.

        Scans assignments in counting order, bit i of the counter being
        variable i, so all-zeros comes first.  The scan is exponential in n;
        it raises GuardExceededError after `enumeration_cap()` assignments
        without a hit.
        """
        if not any(self.hard):
            return (0,) * self.n
        cap = enumeration_cap()
        for k in range(2 ** self.n):
            if k >= cap:
                raise GuardExceededError(
                    f"no assignment satisfying the hard clauses among the first "
                    f"{cap} of 2^{self.n} (enumeration cap)")
            bits = tuple((k >> i) & 1 for i in range(self.n))
            if self.satisfies_hard(bits):
                return bits
        return None

    def satisfies_hard(self, bits: Sequence[int]) -> bool:
        clauses = self.clause_set.clauses
        return all(c.satisfied_by(bits)
                   for c, h in zip(clauses, self.hard) if h)

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

    def __repr__(self) -> str:
        return f"ClauseModel({self.clause_set!r})"


def gibbs_step(model: ClauseModel, bits: Config, rng: Random) -> Config:
    """Resample one uniformly chosen variable from its exact conditional.

    `bits` must satisfy every hard clause (see `initial_state`).
    """
    v = rng.randrange(model.n)
    p1 = model.conditional_p1(bits, v)
    value = 1 if rng.random() < p1 else 0
    if bits[v] == value:
        return tuple(bits)
    return bits[:v] + (value,) + bits[v + 1:]


def insert_delete_step(model: IndependentSetModel, bits: Config,
                       rng: Random) -> Config:
    """One insert/delete move on an independent set.

    Pick a vertex uniformly; delete it with probability 1/(1+lam) if
    present, insert it with probability lam/(1+lam) if absent and
    unblocked, otherwise leave the state unchanged.  `bits` must be an
    independent set (see `initial_state`).
    """
    graph = model.graph
    v = rng.randrange(graph.n)
    lam = model.lam
    if bits[v]:
        if rng.random() < 1.0 / (1.0 + lam):
            return bits[:v] + (0,) + bits[v + 1:]
        return tuple(bits)
    if not any(bits[w] for w in graph.adj[v]):
        if rng.random() < lam / (1.0 + lam):
            return bits[:v] + (1,) + bits[v + 1:]
        return tuple(bits)
    return tuple(bits)


@dataclass
class ChainTrace:
    """Recorded run of a chain; states[i] is the state after i*record_every steps."""

    chain_kind: ChainKind
    seed: int
    step_count: int
    record_every: int
    states: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "state"])
            for i, state in enumerate(self.states):
                writer.writerow([i * self.record_every,
                                 "".join(map(str, state))])


def initial_state(model, kind: ChainKind,
                  override: Optional[Sequence[int]] = None) -> Config:
    """The validated start state of a chain.

    Without `override`: the empty set for insert/delete chains, and for
    Gibbs chains the model's `start` (all-zeros whenever that satisfies the
    hard clauses).  An override must have one 0/1 entry per variable
    (ValueError) and be an independent set (ValueError) or satisfy every
    hard clause (InfeasibleModelError).
    """
    gibbs = kind.base is ChainKind.GIBBS
    if override is None:
        return model.start if gibbs else (0,) * model.n
    state = tuple(override)
    if len(state) != model.n or not set(state) <= {0, 1}:
        raise ValueError(
            f"initial state must be {model.n} entries of 0 or 1, got {state}")
    if gibbs:
        if not model.satisfies_hard(state):
            raise InfeasibleModelError("initial state violates a hard clause")
    elif not model.graph.is_independent(state):
        raise ValueError("initial state is not an independent set")
    return state


def run_chain(model, kind: ChainKind, steps: int, seed: int,
              record_every: int = 1, group: Optional[PermutationGroup] = None,
              mode: SamplerMode = SamplerMode.EXACT,
              initial: Optional[Sequence[int]] = None) -> ChainTrace:
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
    if kind.base is ChainKind.GIBBS:
        if not isinstance(model, ClauseModel):
            raise TypeError("Gibbs chains need a ClauseModel")
        step = gibbs_step
    else:
        if not isinstance(model, IndependentSetModel):
            raise TypeError("insert/delete chains need an IndependentSetModel")
        step = insert_delete_step
    state = initial_state(model, kind, initial)

    rng = Random(seed)
    sampler = None
    if kind.is_orbital:
        if group is None:
            raise ValueError(f"chain kind {kind.value} requires a symmetry group")
        sampler = OrbitSampler(group, mode, rng)

    trace = ChainTrace(chain_kind=kind, seed=seed, step_count=steps,
                       record_every=record_every, states=[state])
    t0 = time.perf_counter()
    for t in range(1, steps + 1):
        state = step(model, state, rng)
        if sampler is not None:
            state = sampler.sample(state)
        if t % record_every == 0:
            trace.states.append(state)
    trace.elapsed_seconds = time.perf_counter() - t0
    return trace
