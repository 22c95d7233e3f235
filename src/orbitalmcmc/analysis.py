"""Exact desk-scale verification: enumerated distributions, transition
matrices with orbit averaging, total-variation curves, mixing times,
detailed balance, and a coupling simulator for adjacent state pairs.

Everything here is exact or exhaustive by design and guarded by size caps;
it exists to let tests and experiments compare sampled behavior against
ground truth on small models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

import numpy as np

from .chains import ChainKind, ChainTrace, IndependentSetModel
from .errors import GuardExceededError, enumeration_cap
from .graphs import Graph
from .perm import (Config, Permutation, PermutationGroup, _orbit_walk, _row_lookup, as_config,
                   config_matrix, orbit_ids, state_action)


class ExactDistribution:
    """A fully enumerated distribution over configurations, given as any 0/1 sequences."""

    def __init__(self, states: Sequence[Config], probs, partition_value: float):
        self.states = tuple(map(as_config, states))
        self.probs = np.asarray(probs, dtype=float)
        self.partition_value = float(partition_value)
        if len(self.states) != len(self.probs):
            raise ValueError("states and probabilities differ in length")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        if not abs(self.probs.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")
        self._index = {s: i for i, s in enumerate(self.states)}

    def index_of(self, state: Sequence[int]) -> int:
        try:
            return self._index[as_config(state)]
        except KeyError:
            raise KeyError(f"state {state} not in the enumerated universe") from None

    def prob_of(self, state: Sequence[int]) -> float:
        return float(self.probs[self.index_of(state)])

    def marginal(self, var: int) -> float:
        return float(sum(p for s, p in zip(self.states, self.probs) if s[var]))

    def __len__(self) -> int:
        return len(self.states)


def exact_distribution(model) -> ExactDistribution:
    """The model's normalized stationary distribution over `model.states()`."""
    states = model.states()
    weights = model.weights(states)
    z = weights.sum()
    if not math.isfinite(z):
        raise ValueError(f"state weights overflow: the partition function Z is {z}")
    return ExactDistribution(states, weights / z, z)


def exact_pi_lambda(graph: Graph, lam: float) -> ExactDistribution:
    """Normalized fugacity-weighted distribution over independent sets."""
    return exact_distribution(IndependentSetModel(graph, lam))


@dataclass(frozen=True)
class TransitionMatrix:
    """A row-stochastic kernel over enumerated states.  `action`, set when
    the kernel was built with a group, is the one record of its symmetry:
    one row per generator g with action[g][i] the index of g applied to
    state i."""

    states: tuple[Config, ...]
    rows: np.ndarray
    action: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(map(as_config, self.states)))
        rows, n = self.rows, len(self.states)
        if rows.shape != (n, n):
            raise ValueError("matrix shape does not match state count")
        if self.action is not None:
            if self.action.ndim != 2 or self.action.shape[1] != n:
                raise ValueError("group action does not match state count")
            if (np.sort(self.action, axis=1) != np.arange(n)).any():
                raise ValueError("group action does not permute the states")
        if np.any(rows < -1e-15):
            raise ValueError("negative transition probability")
        bad = np.abs(rows.sum(axis=1) - 1.0) > 1e-12
        if bad.any():
            raise ValueError(f"row {int(np.argmax(bad))} does not sum to 1")


def transition_matrix(model, kind: ChainKind,
                      group: Optional[PermutationGroup] = None) -> TransitionMatrix:
    """Exact transition matrix of a chain kind on an enumerated state space.

    Base kernels sum `model.moves` over every state; orbital kernels
    multiply the base kernel by the exact orbit-averaging matrix of the
    group action on the state list.  Given a group with generators, any
    kernel keeps the group's action on the state list, which must stay
    inside it (ValueError otherwise); `representative_rows` reduces the
    kernel by it.  A group without generators averages over one-state
    orbits, so its kernels are the dense base ones, action None.  An N x N
    kernel over 64 x `enumeration_cap()` cells raises GuardExceededError
    unbuilt.
    """
    kind = ChainKind(kind)
    if kind.base is not model.base:
        raise TypeError(
            f"{kind.value} kernels do not run on {type(model).__name__}")
    if kind.is_orbital and group is None:
        raise ValueError(f"kernel {kind.value} requires a symmetry group")
    states = tuple(model.states())
    n, cells = len(states), 64 * enumeration_cap()
    if n * n > cells:
        raise GuardExceededError(f"a dense {n} x {n} kernel ({n * n * 8 >> 20:,} "
                                 f"MiB) exceeds {cells:,} cells, 64 x the enumeration cap")
    index = {s: i for i, s in enumerate(states)}
    action = (state_action(group, states)
              if group is not None and group.generators else None)
    rows = np.zeros((n, n))
    for i, s in enumerate(states):
        for t, p in model.moves(s):
            rows[i, index[t]] += p
    if kind.is_orbital and action is not None:
        orbits = orbit_ids(action)
        same = orbits[:, None] == orbits[None, :]
        rows = rows @ (same / same.sum(axis=1, keepdims=True))
    return TransitionMatrix(states, rows, action)


def representative_rows(matrix: TransitionMatrix, dist: ExactDistribution
                        ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The kernel and pi reduced to one row per orbit of the kernel's group
    action, for `mixing_time`: (rows, pi, gather), with the M orbits in
    order of their first states.

    If the rows of the first states are constant on column orbits, as those
    of every orbital kernel K = P A are, the kernel is lumped: rows is the
    M x M quotient Q(O, O') = K(first state of O, O'), pi the lumped pi and
    gather None.  ValueError unless, to 1e-12, the rows of an orbit lump
    alike and every column is constant on orbits.  Otherwise rows are the
    M x N rows of the first states, pi is unchanged, and `rows.take(gather)`
    expands them, and those of every power P^t, to the whole kernel: if
    x = g r, then P^t(x, y) = P^t(r, g^-1 y).  ValueError unless, to 1e-12,
    P[s, s] = P for the index array s of every generator.  Either way
    ValueError unless pi[s] = pi to 1e-12 for every generator."""
    rows, pi, n = matrix.rows, dist.probs, len(matrix.states)
    ids = orbit_ids(matrix.action)
    reps = np.unique(ids, return_index=True)[1]
    columns = reps[ids]  # the first state of each state's orbit
    first, gather = rows[reps], None
    if np.abs(first - first[:, columns]).max() <= 1e-12:
        indicator = np.zeros((n, len(reps)))
        indicator[np.arange(n), ids] = 1.0
        lumped = rows @ indicator
        if np.abs(lumped - lumped[reps][ids]).max() > 1e-12:
            raise ValueError("kernel is not lumpable: rows differ within an orbit")
        if np.abs(rows - rows[:, columns]).max() > 1e-12:
            raise ValueError("kernel columns are not constant on orbits")
        reduced, reduced_pi = lumped[reps], pi @ indicator
    else:
        back = np.argsort(matrix.action, axis=1)  # index arrays of the inverses
        # P[s, s] - P vanishes off the nonzeros of P and their preimages under s
        i, j = np.nonzero(rows)
        values = rows[i, j]
        for s in (*matrix.action, *back):
            if np.abs(rows[s[i], s[j]] - values).max() > 1e-12:
                raise ValueError("kernel does not commute with the group action")
        gather = np.empty((n, n), dtype=np.intp)
        for x, z, g in _orbit_walk(matrix.action):
            # row x = row z with its columns moved by generator g
            gather[x] = ids[x] * n + np.arange(n) if z < 0 else gather[z][back[g]]
        reduced, reduced_pi = first, pi
    if any(np.abs(pi[s] - pi).max() > 1e-12 for s in matrix.action):
        raise ValueError("pi is not invariant under the group action")
    return reduced, reduced_pi, gather


@dataclass(frozen=True)
class DetailedBalanceReport:
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def check_detailed_balance(matrix: TransitionMatrix, dist: ExactDistribution,
                           tol: float = 1e-12) -> DetailedBalanceReport:
    """Largest |pi(x)P(x,y) - pi(y)P(y,x)| over all state pairs."""
    if matrix.states != dist.states:
        raise ValueError("matrix and distribution enumerate different states")
    flow = dist.probs[:, None] * matrix.rows
    violation = float(np.abs(flow - flow.T).max())
    return DetailedBalanceReport(violation, tol)


def stationary_deviation(matrix: TransitionMatrix,
                         dist: ExactDistribution) -> float:
    """Max-norm of pi P - pi."""
    if matrix.states != dist.states:
        raise ValueError("matrix and distribution enumerate different states")
    return float(np.abs(dist.probs @ matrix.rows - dist.probs).max())


def is_connected(matrix: TransitionMatrix) -> bool:
    """Strong connectivity of the positive-transition graph."""
    support = matrix.rows > 0

    def covers(step: np.ndarray) -> bool:
        seen = np.zeros(len(step), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = step[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    return covers(support) and covers(support.T)


@dataclass
class TVSeries:
    """Total-variation distance of the cumulative empirical distribution."""

    points: list  # (samples used, d_tv)

    def auc(self) -> float:
        xs, ys = zip(*self.points)
        return float(np.trapezoid(ys, xs))


def tv_curve(trace: ChainTrace, exact: ExactDistribution,
             checkpoints: Sequence[int]) -> TVSeries:
    """TV distance to the target at growing prefixes of the recorded samples.

    The empirical distribution at checkpoint c uses the first c recorded
    states, initial state included and no burn-in discarded; one
    `_row_lookup` finds them all, and counts are added per segment.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive sample counts")
    if checkpoints[-1] > len(trace.states):
        raise ValueError(
            f"checkpoint {checkpoints[-1]} exceeds {len(trace.states)} samples")
    states = [as_config(s) for s in trace.states[:checkpoints[-1]]]
    flat, width = b"".join(states), len(exact.states[0])
    found = np.full(len(states), -1)
    if width and len(flat) == len(states) * width:
        found = _row_lookup(config_matrix(exact.states, width))(
            np.frombuffer(flat, np.uint8).reshape(len(states), width))
    for i in np.flatnonzero(found < 0):  # KeyError unless a listed state
        found[i] = exact.index_of(states[i])
    counts, points, used = np.zeros(len(exact.states)), [], 0
    for target in checkpoints:
        counts += np.bincount(found[used:target], minlength=len(counts))
        used = target
        points.append((used, float(0.5 * np.abs(counts / used - exact.probs).sum())))
    return TVSeries(points)


MIXING_HORIZON = 1_000_000  # mixing_time gives up on t beyond this


def mixing_time(matrix: TransitionMatrix, dist: ExactDistribution, eps: float) -> int:
    """Least t with d(t) = max_x d_tv(P^t(x, .), pi) <= eps.

    d(t) never increases with t, so tau is one past the largest t with
    d(t) > eps, read off bit by bit.  Squarings: P^(2^j), each row
    renormalized, until the first at or below eps.  Descent: from the last
    square above eps, multiply in each lower square in turn and keep the
    product while its distance stays above eps; tau is one past the
    exponent reached.  Verification: P^tau squared up to three times, the
    distance staying at or below eps at 2 tau, 4 tau and 8 tau.

    A kernel with a group `action` runs all this on its
    `representative_rows`, one row per state orbit, and d(t) is unchanged:
    the kernel commutes with the group and pi is invariant, so row g r of
    P^t is row r with its columns permuted, at the same distance from pi
    (Boyd, Diaconis, Parrilo & Xiao 2005).  An orbital kernel, its rows
    constant on orbits, runs on the M x M lumped quotient, the distance
    summing orbit by orbit (Kemeny & Snell 1960, lumpability); any other
    runs on M x N rows, a right factor being expanded to N x N by one
    gather.  The reduction raises ValueError when its checks fail.  Without
    an action, M = N and nothing is gathered.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    if matrix.states != dist.states:
        raise ValueError("matrix and distribution enumerate different states")
    if not is_connected(matrix):
        raise ValueError("chain is not irreducible")
    if not (np.diag(matrix.rows) > 0).any():
        raise ValueError("cannot verify aperiodicity: no positive diagonal")
    rows, pi, gather = matrix.rows, dist.probs, None
    if matrix.action is not None:
        rows, pi, gather = representative_rows(matrix, dist)

    def distance(power: np.ndarray) -> float:
        return float(0.5 * np.abs(power - pi).sum(axis=1).max())

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = a @ (b if gather is None else b.take(gather))
        prod /= prod.sum(axis=1, keepdims=True)
        return prod

    squares = [rows]  # squares[j] = P^(2^j), M rows
    last = distance(rows)
    while last > eps:
        if 2 ** len(squares) > MIXING_HORIZON:
            raise GuardExceededError(
                f"no crossing below eps={eps} within horizon {MIXING_HORIZON}; "
                f"last distance {last} at t={2 ** (len(squares) - 1)}")
        squares.append(times(squares[-1], squares[-1]))
        last = distance(squares[-1])

    power, t = None, 0  # power = P^t with d(t) > eps
    for j in reversed(range(len(squares) - 1)):
        step = squares[j] if power is None else times(power, squares[j])
        if distance(step) > eps:
            power, t = step, t + 2 ** j
    tau = t + 1
    power = squares[0] if power is None else times(power, squares[0])
    squares = step = None  # no square outlives the descent

    check = 2 * tau
    while check <= min(MIXING_HORIZON, 8 * tau):
        power = times(power, power)
        if distance(power) > eps + 1e-12:
            raise AssertionError(
                f"distance rose above eps after crossing at t={check}")
        check *= 2
    return tau


@dataclass
class CouplingReport:
    case_counts: dict
    rho: float
    varrho: float
    expected_drift: float
    drift_se: float
    bound: float


class CouplingSimulator:
    """Coupled one-step evolution of two independent sets at distance one,
    and the exact constants of its drift bound.

    The model's states are enumerated once, in lexicographic order, and
    everything else is read from index tables over them, built once with
    numpy: the states' 0/1 matrix; `blocked[s, w]`, whether state s holds a
    neighbour of vertex w, one product with the adjacency matrix;
    `flip[s, w]`, the index of s with vertex w removed or added, -1 when
    that is not a state; each state's orbit id under the group action; the
    distance-one pairs as (upper, lower, vertex) index arrays in the order
    of `pairs`; and the case of every pair and vertex, one case rule read by
    `case`, `varrho` and the coupled draw.

    The two chains share the vertex choice and acceptance coin and apply a
    common uniformly drawn group element, so each side marginally follows
    the orbit-resampled insert/delete kernel.  When only the lower state
    can accept the chosen insertion and the upper state already lies in
    the inserted state's orbit, both sides move to one uniform sample of
    that shared orbit and the pair coalesces: some group element maps the
    upper state to the inserted one iff their orbit ids agree.  Only `step`
    applies the element, so only `step` enumerates the group.
    """

    def __init__(self, model: IndependentSetModel, group: PermutationGroup):
        self.model = model
        self.states = model.states()
        self._group, self._order = group, group.order()
        self._index = {s: i for i, s in enumerate(self.states)}
        n = model.n
        bits = config_matrix(self.states, n).astype(bool)
        adjacency = np.zeros((n, n), dtype=bool)
        for v, w in model.graph.edges:
            adjacency[v, w] = adjacency[w, v] = True
        blocked = bits @ adjacency
        find = _row_lookup(bits)
        flip = np.empty(bits.shape, dtype=np.intp)
        for w in range(n):
            toggled = bits.copy()
            toggled[:, w] ^= True
            flip[:, w] = find(toggled)
        upper, vertex = np.nonzero(bits)
        lower = flip[upper, vertex]
        # the case rule: 1 if the pair differs at w, 2 if w is in both, 3 if
        # both can take w, 4 if only the lower can, 5 if neither
        cases = np.select([np.arange(n) == vertex[:, None], bits[upper], ~blocked[upper],
                           blocked[lower]], [1, 2, 3, 5], 4).astype(np.uint8)
        self._bits, self._adjacency, self._flip = bits, adjacency, flip
        self._orbit = orbit_ids(state_action(group, self.states))
        self._upper, self._lower, self._cases = upper, lower, cases
        lam = model.lam
        self._p_insert, self._p_delete = lam / (1.0 + lam), 1.0 / (1.0 + lam)
        # the draw reads scalars through memoryviews, as Python ints
        self._views = tuple(map(memoryview, (upper, lower, cases, flip, self._orbit)))

    def _pair_of(self, upper: Config, lower: Config) -> int:
        """The index in `pairs` of a distance-one pair of 0/1 sequences."""
        index, upper, lower = self._index, as_config(upper), as_config(lower)
        if upper not in index or lower not in index:
            raise ValueError("coupled states must be independent sets")
        diff = [v for v, (a, b) in enumerate(zip(upper, lower)) if a != b]
        if len(diff) != 1 or not upper[diff[0]]:
            raise ValueError(
                "states must differ at exactly one vertex present in the first")
        # the pairs of a state are its vertices in ascending order
        return int(np.searchsorted(self._upper, index[upper])) + sum(upper[:diff[0]])

    def case(self, upper: Config, lower: Config, w: int) -> int:
        """The case of vertex w for a pair at distance one: 1 if the pair
        differs at w, 2 if w is in both, 3 if both can take w, 4 if only
        the lower can, 5 if neither."""
        return int(self._cases[self._pair_of(upper, lower), w])

    def pairs(self) -> list[tuple[Config, Config]]:
        """All ordered pairs (X, X minus one vertex), X in lexicographic
        order and the vertex ascending."""
        states = self.states
        return [(states[u], states[v]) for u, v in zip(self._upper.tolist(),
                                                       self._lower.tolist())]

    def rho(self) -> float:
        """Fraction of adjacent-extension triples landing in different orbits:
        over every state X and ordered edge (v, w) with both X + v and X + w
        independent, how often the two are not in one orbit."""
        takes = ~self._bits & (self._flip >= 0)  # X + v is a state
        extended = self._orbit[self._flip]  # the orbit of X + v where it is one
        v, w = np.nonzero(self._adjacency)
        both = takes[:, v] & takes[:, w]
        total = int(both.sum())
        if total == 0:
            raise ValueError("no valid adjacent extensions; graph has no edges?")
        return int((both & (extended[:, v] != extended[:, w])).sum()) / total

    def varrho(self) -> float:
        """Probability that a uniform vertex choice from a uniform distance-one
        pair can only be inserted into the smaller set: case 4."""
        hits = int(np.count_nonzero(self._cases == 4))
        return hits / (len(self._upper) * self.model.n)

    def _draw(self, pair: int, rng: Random) -> tuple[int, int, int, int]:
        """One coupled step of the pair with index `pair` in `pairs`, on
        state indices: (a, b, element, case), where the group element with
        index `element` in its sorted elements maps states a and b to the
        new upper and lower states.  Draws, from rng, the vertex, then the
        acceptance coin if the case has one, then the element."""
        upper, lower, cases, flip, orbit = self._views
        hi, lo = upper[pair], lower[pair]
        w = rng.randrange(self.model.n)
        case = cases[pair, w]
        a, b = hi, lo  # the pre-images of the common element
        if case == 1:
            a = b = hi if rng.random() < self._p_insert else lo
        elif case == 2 and rng.random() < self._p_delete:
            a, b = flip[hi, w], flip[lo, w]
        elif case == 3 and rng.random() < self._p_insert:
            a, b = flip[hi, w], flip[lo, w]
        elif case == 4 and rng.random() < self._p_insert:
            b = flip[lo, w]
            if orbit[b] == orbit[hi]:
                b = hi
        return a, b, rng.randrange(self._order), case

    def step(self, upper: Config, lower: Config,
             rng: Random) -> tuple[Config, Config, int]:
        """One coupled step of a distance-one pair of 0/1 sequences: the new
        upper and lower states and the case of the chosen vertex."""
        a, b, element, case = self._draw(self._pair_of(upper, lower), rng)
        g = Permutation._wrap(self._group.images[element])
        new = g.apply_config(self.states[a])
        return new, (new if a == b else g.apply_config(self.states[b])), case


def coupling_drift(model: IndependentSetModel, group: PermutationGroup,
                   trials: int, seed: int = 0) -> CouplingReport:
    """Monte Carlo drift of the coupled chains against the exact bound
    -1/n + varrho (2 rho - 1) lam / (1 + lam), all read from one simulator.

    Each trial draws a pair index, then one coupled step through the
    simulator's draw, so the random stream is that of `step` on the pair.
    The drawn element is not applied: a permutation of the vertices keeps
    Hamming distances, so the new pair is as far apart as its pre-images,
    one XOR of their bit masks.  Nothing is kept per trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    sim = CouplingSimulator(model, group)
    pairs = len(sim._upper)
    if not pairs:
        raise ValueError("graph admits no distance-one pairs")
    rng = Random(seed)
    rho, varrho = sim.rho(), sim.varrho()
    masks = [int.from_bytes(s, "big") for s in sim.states]  # one bit per byte

    counts = [0] * 6
    by_distance = [0] * (model.n + 1)  # trials per new Hamming distance
    draw = sim._draw
    for _ in range(trials):
        a, b, _, case = draw(rng.randrange(pairs), rng)
        counts[case] += 1
        by_distance[(masks[a] ^ masks[b]).bit_count()] += 1
    drift_sum = float(sum((h - 1) * k for h, k in enumerate(by_distance)))
    drift_sq = float(sum((h - 1) ** 2 * k for h, k in enumerate(by_distance)))
    mean = drift_sum / trials
    var = max(drift_sq / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)
    lam = model.lam
    bound = -1.0 / model.n + varrho * (2 * rho - 1) * lam / (1 + lam)
    return CouplingReport(case_counts={k: counts[k] for k in range(1, 6)}, rho=rho,
                          varrho=varrho, expected_drift=mean, drift_se=se, bound=bound)
