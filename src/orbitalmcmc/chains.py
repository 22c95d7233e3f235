"""Base Markov chains and their orbit-resampling variants.

Each model class owns its chain's rules, which `run_chain` and the exact
analysis read; every state is a `Config`, one 0/1 byte per variable:

- `base`, the base chain kind the model runs: `ChainKind.check`, the one
  test that a kind runs on a model, compares it with the kind's base;
- `start`, the start state, valid by construction;
- `stepper(rng)`, one base move as a closure `move(bits)` over the
  generator, a new state by two slices and a byte;
- `move_table(space)`, the exact one-step distribution of that move from
  every state of a `perm.StateSpace` of its states, as two N x K arrays,
  target state indices and probabilities, row i listing states[i]'s moves
  in the move's order, targets read off the space's `flip` table;
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
pure function of model, kind, steps and seed.  The site choice and the
group element are index draws as `perm`'s module docstring defines them.
`run_chain` binds its loop once per run: the model's `stepper` and, for an
orbital kind, `OrbitSampler.resample`, closures over the run's generator.

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
from operator import itemgetter
from random import Random
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .clauses import WeightedClauseSet, weight_value
from .errors import GuardExceededError, InfeasibleModelError, enumeration_cap
from .graphs import Graph, enumerate_independent_sets
from .perm import (Config, OrbitSampler, PermutationGroup, SamplerMode, StateSpace,
                   config_matrix)

_BIT = (b"\x00", b"\x01")  # a variable's value as a one-byte configuration
SCAN_CHUNK = 64  # assignments per step of the scan for a start state
TABLE_WIDTH = 8  # most variables a tabled conditional reads: 2^8 floats a table at most


class ChainKind(str, Enum):
    GIBBS = "gibbs"
    ORBITAL_GIBBS = "orbital-gibbs"
    INSERT_DELETE = "id"
    ORBITAL_INSERT_DELETE = "orbital-id"

    @property
    def is_orbital(self) -> bool:
        return self.value.startswith("orbital-")

    @property
    def base(self) -> "ChainKind":
        return ChainKind(self.value.removeprefix("orbital-"))

    def check(self, model) -> None:
        """Raise TypeError unless `model`, an instance or a class, has this kind's `base`."""
        if self.base is not model.base:
            cls = model if isinstance(model, type) else type(model)
            raise TypeError(f"{self.value} chains do not run on {cls.__name__}")


class IndependentSetModel:
    """Independent sets of a graph weighted by fugacity: pi(X) ~ lam^|X|.

    Chains start from the empty set.
    """

    __slots__ = ("graph", "lam", "start", "_k", "_p_delete", "_p_insert", "_neighbours")
    base = ChainKind.INSERT_DELETE

    def __init__(self, graph: Graph, lam: float):
        if not 0 < lam < math.inf:  # NaN fails too
            raise ValueError(f"fugacity must be finite and positive, got {lam}")
        self.graph = graph
        self.lam = lam
        self.start = bytes(graph.n)
        self._k = graph.n.bit_length()  # bits per vertex draw, see `perm`
        self._p_delete, self._p_insert = 1.0 / (1.0 + lam), lam / (1.0 + lam)
        # per vertex, a gather of its neighbours' bits and its value when none is set
        self._neighbours = tuple(
            (itemgetter(*adj), (0,) * len(adj)) if len(adj) > 1
            else (itemgetter(adj[0]), 0) if adj else (itemgetter(slice(0)), b"")
            for adj in graph.adj)

    @property
    def n(self) -> int:
        return self.graph.n

    def stepper(self, rng: Random) -> Callable[[Config], Config]:
        """One insert/delete move as a closure over `rng`.

        Pick a vertex uniformly; delete it with probability 1/(1+lam) if
        present, insert it with probability lam/(1+lam) if absent and
        unblocked, otherwise leave the state unchanged.  Stepping a graph
        with no vertices raises ValueError.
        """
        n, k, getrandbits, random = self.graph.n, self._k, rng.getrandbits, rng.random
        p_delete, p_insert, neighbours = self._p_delete, self._p_insert, self._neighbours

        def move(bits: Config) -> Config:
            v = getrandbits(k)
            while v >= n:
                if not n:
                    raise ValueError("cannot step a model with no vertices")
                v = getrandbits(k)
            if bits[v]:
                if random() < p_delete:
                    return bits[:v] + b"\x00" + bits[v + 1:]
                return bits
            gather, empty = neighbours[v]
            if gather(bits) == empty and random() < p_insert:
                return bits[:v] + b"\x01" + bits[v + 1:]
            return bits
        return move

    def move_table(self, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
        """`stepper`'s move from every state of `space`, its independent sets,
        as N x 2n (targets, probs): per vertex in order, the toggle, then the
        stay.  A vertex can be inserted iff its toggle is listed; a blocked
        one's toggle is (self, 0.0)."""
        n, lam, flip = self.graph.n, self.lam, space.flip
        p_del, p_ins = 1.0 / (n * (1.0 + lam)), lam / (n * (1.0 + lam))
        here = np.arange(len(space))[:, None]
        toggle = np.where(space.bits == 1, p_del, np.where(flip >= 0, p_ins, 0.0))
        targets = np.stack(np.broadcast_arrays(np.where(flip >= 0, flip, here), here), axis=2)
        probs = np.stack((toggle, 1.0 / n - toggle), axis=2)
        return targets.reshape(len(space), -1), probs.reshape(len(space), -1)

    def states(self) -> list[Config]:
        return enumerate_independent_sets(self.graph)

    def weights(self, states: Sequence[Config]) -> np.ndarray:
        """lam^|X| per state, read off a table of lam^i that holds inf where
        the power overflows a float, for `exact_distribution` to report."""
        powers = np.full(self.graph.n + 1, math.inf)
        for i in range(self.graph.n + 1):
            try:
                powers[i] = self.lam ** i
            except OverflowError:
                break
        return powers[config_matrix(states, self.graph.n).sum(axis=1)]

    def __repr__(self) -> str:
        return f"IndependentSetModel({self.graph!r}, lam={self.lam})"


class ClauseModel:
    """A weighted clause set conditioned on evidence, moved by Gibbs.

    `evidence` maps variable names to truth values.  Clamped variables keep
    their value: `stepper` and `move_table` resample only `free`, the unclamped
    variables, and the scans below enumerate the free variables alone.
    Per variable, the model precomputes the clauses it occurs in, so the
    exact single-site conditional costs only the touched clauses, and is
    tabled per neighbourhood for a variable reading at most `TABLE_WIDTH` others.
    Construction finds `start`, the first assignment in counting order
    (bit i of the counter is the i-th free variable, so free variables all
    zero comes first) that satisfies every hard clause, by a scan in
    chunks that raises GuardExceededError at counter `enumeration_cap()`.
    A free variable whose clauses' absolute soft weights sum past a float
    raises ValueError first: its conditional would be NaN.
    """

    base = ChainKind.GIBBS

    def __init__(self, clause_set: WeightedClauseSet,
                 evidence: Optional[Mapping[str, bool]] = None):
        self.clause_set = clause_set
        self.n = clause_set.n
        clamped = {clause_set.var_index(name): int(value)
                   for name, value in (evidence or {}).items()}
        self.free = tuple(v for v in range(self.n) if v not in clamped)
        self._k = len(self.free).bit_length()  # bits per site draw, see `perm`
        self._clamped = bytes(clamped.get(v, 0) for v in range(self.n))
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
        # per variable: (a gather of the others it reads, a table) if tabled, else None
        self._tables = [None] * self.n
        for v in self.free:  # a conditional past a float would be exp(inf - inf), NaN
            if not math.isfinite(sum(abs(w) for hard, w, *_ in self._terms[v] if not hard)):
                raise ValueError(f"the soft weights of variable {clause_set.variables[v]} "
                                 "sum past the float range")
            read = sorted({u for *_, others in self._terms[v] for u, _ in others})
            if len(read) <= TABLE_WIDTH:
                self._tables[v] = (itemgetter(*read) if read else itemgetter(slice(0)), {})
        m, cap = len(self.free), enumeration_cap()
        for low in range(0, min(2 ** m, cap), SCAN_CHUNK):
            rows = self._satisfying(np.arange(low, min(low + SCAN_CHUNK, 2 ** m, cap)), range(m))
            if len(rows):
                self.start = rows[0].tobytes()
                break
        else:
            if 2 ** m > cap:
                raise GuardExceededError(
                    f"no assignment satisfying the hard clauses among the first "
                    f"{cap} of 2^{m} (enumeration cap)")
            raise InfeasibleModelError(
                "no assignment satisfies every hard clause and the evidence")

    def _satisfying(self, counter: np.ndarray, shifts: Sequence[int]) -> np.ndarray:
        """The assignments numbered by `counter`, free variable i read from bit
        shifts[i], that satisfy every hard clause, as uint8 rows in counter order."""
        bits = np.tile(np.frombuffer(self._clamped, np.uint8), (len(counter), 1))
        for v, shift in zip(self.free, shifts):
            bits[:, v] = counter >> shift & 1
        for c in self._hard:
            bits = bits[_holds(c, bits)]
        return bits

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

    def _p1(self, bits: Config, v: int) -> float:
        """`conditional_p1(bits, v)`, lazily tabled if v has a table; an
        infeasible neighbourhood is never stored, so it raises every time."""
        if (table := self._tables[v]) is None:
            return self.conditional_p1(bits, v)
        p1 = table[1].get(key := table[0](bits))
        if p1 is None:
            p1 = table[1][key] = self.conditional_p1(bits, v)
        return p1

    def stepper(self, rng: Random) -> Callable[[Config], Config]:
        """A closure over `rng` resampling one uniformly chosen free variable
        from its exact conditional; with no free variable, it draws nothing."""
        free, p1 = self.free, self._p1
        m, k, getrandbits, random = len(free), self._k, rng.getrandbits, rng.random
        if not m:
            return lambda bits: bits

        def move(bits: Config) -> Config:
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            v = free[i]
            value = 1 if random() < p1(bits, v) else 0
            if bits[v] == value:
                return bits
            return bits[:v] + _BIT[value] + bits[v + 1:]
        return move

    def move_table(self, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
        """`stepper`'s move from every state of `space`, states of this model,
        as N x 2m (targets, probs) for m free variables: per free variable in
        order, value 1, then value 0, a value of conditional probability 0
        as (self, 0.0).  With no free variable, N x 1: (self, 1.0)."""
        free, p1, here = list(self.free), self._p1, np.arange(len(space))[:, None]
        if not free:
            return here, np.ones((len(space), 1))
        probs = np.array([[p1(s, v) for v in free] for s in space.states]).reshape(here.size, -1)
        probs = np.stack((probs, 1.0 - probs), axis=2)
        bits = space.bits[:, free, None]
        moved = (bits != (1, 0)) & (probs != 0.0)  # a drawn value that differs
        targets = np.where(moved, space.flip[:, free, None], here[:, :, None])
        return targets.reshape(here.size, -1), (probs / len(free)).reshape(here.size, -1)

    def states(self) -> list[Config]:
        """Every assignment satisfying the hard clauses and the evidence, lexicographically."""
        m, n, cap = len(self.free), self.n, enumeration_cap()
        if 2 ** m > cap:
            raise GuardExceededError(f"2^{m} assignments exceed enumeration cap {cap}")
        rows = self._satisfying(np.arange(2 ** m), range(m - 1, -1, -1))  # lexicographic
        flat = rows.tobytes()
        return [flat[i * n:(i + 1) * n] for i in range(len(rows))]

    def weights(self, states: Sequence[Config]) -> np.ndarray:
        """exp(total weight of the satisfied soft clauses) per state, each
        total added in clause order as a per-state loop would add it; inf
        past a float, for `exact_distribution` to report."""
        bits, total = config_matrix(states, self.n), np.zeros(len(states))
        for c in self.clause_set.clauses:
            if not c.is_hard:
                total[_holds(c, bits)] += weight_value(c.weight)
        with np.errstate(over="ignore"):
            return np.exp(total)

    def __repr__(self) -> str:
        clamped = self.n - len(self.free)
        return f"ClauseModel({self.clause_set!r}, {clamped} clamped)"


def _holds(clause, bits: np.ndarray) -> np.ndarray:
    """Per row of a 0/1 matrix, whether it satisfies the clause."""
    return np.logical_or.reduce([bits[:, v] != neg for v, neg in clause.literals])


def _step(model, bits: Config, rng: Random) -> Config:
    """One move of `model.stepper(rng)`, bound for this call alone."""
    return model.stepper(rng)(bits)


# the one-call step under the names `perfbench/workloads.py` reads
gibbs_step = insert_delete_step = _step


@dataclass
class ChainTrace:
    """Recorded run of a chain; states[i] is the state after i*record_every steps."""

    states: list
    elapsed_seconds: float = 0.0


def initial_state(model, kind: ChainKind) -> Config:
    """The model's `start`, once `ChainKind.check` passes `kind` on it;
    `run_chain` and `perfbench/workloads.py` start from it."""
    ChainKind(kind).check(model)
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
    rng = Random(seed)
    resample = None
    if kind.is_orbital:
        if group is None:
            raise ValueError(f"chain kind {kind.value} requires a symmetry group")
        if group.n != len(state):  # `resample` trusts the length `sample` checks
            raise ValueError(f"configuration length {len(state)} != domain size {group.n}")
        resample = OrbitSampler(group, mode, rng).resample
    step = model.stepper(rng)

    trace = ChainTrace([state])
    record = trace.states.append
    t0 = time.perf_counter()
    for t in range(1, steps + 1):
        state = step(state)
        if resample is not None:
            state = resample(state)
        if t % record_every == 0:
            record(state)
    trace.elapsed_seconds = time.perf_counter() - t0
    return trace
