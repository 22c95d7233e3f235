"""Exact desk-scale verification: enumerated distributions, transition
matrices with orbit averaging, total-variation curves, mixing times,
detailed balance, and a coupling simulator for adjacent state pairs.
`transition_matrix` and `CouplingSimulator` ask `ChainKind.check` first.
Each enumerated state list is one `perm.StateSpace`: an `ExactDistribution`
is one, and a `TransitionMatrix` and a `CouplingSimulator` each hold one.

Everything here is exact or exhaustive by design and guarded by size caps;
it exists to let tests and experiments compare sampled behavior against
ground truth on small models.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

import numpy as np

from .chains import ChainKind, ChainTrace, IndependentSetModel
from .errors import GuardExceededError, enumeration_cap
from .graphs import Graph
from .perm import Config, PermutationGroup, StateSpace


class ExactDistribution(StateSpace):
    """A fully enumerated distribution: a `StateSpace` and its `probs`."""

    def __init__(self, states: Sequence[Config], probs, partition_value: float):
        super().__init__(states)
        self.probs = np.asarray(probs, dtype=float)
        self.partition_value = float(partition_value)
        if len(self.states) != len(self.probs):
            raise ValueError("states and probabilities differ in length")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        if not abs(self.probs.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    def index_of(self, state: Config) -> int:
        try:
            return self.index[state]
        except KeyError:
            raise KeyError(f"state {state} not in the enumerated universe") from None


def exact_distribution(model) -> ExactDistribution:
    """The model's normalized stationary distribution over `model.states()`.
    ValueError if the weights overflow (Z is inf) or all underflow (the
    largest is below the smallest normal float)."""
    states = model.states()
    weights = model.weights(states)
    z = weights.sum()
    if not math.isfinite(z):
        raise ValueError(f"state weights overflow: the partition function Z is {z}")
    if weights.max() < np.finfo(float).tiny:
        raise ValueError(f"state weights underflow: the largest is {weights.max()}")
    return ExactDistribution(states, weights / z, z)


def exact_pi_lambda(graph: Graph, lam: float) -> ExactDistribution:
    """Normalized fugacity-weighted distribution over independent sets:
    `exact_distribution` of the model, kept because `perfbench/workloads.py`
    calls it."""
    return exact_distribution(IndependentSetModel(graph, lam))


@dataclass(frozen=True)
class TransitionMatrix:
    """A row-stochastic kernel over a `StateSpace`, whose action is the one
    record of its symmetry.  `mixing_time` keeps its eps-free work on the
    kernel, so the arrays must not change after its first call."""

    space: StateSpace
    rows: np.ndarray
    # mixing_time's (squares, gather, orbit indicator), set once the kernel passes its checks
    _ladder: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, n = self.rows, len(self.space)
        if rows.shape != (n, n):
            raise ValueError("matrix shape does not match state count")
        if np.any(rows < -1e-15):
            raise ValueError("negative transition probability")
        bad = np.abs(rows.sum(axis=1) - 1.0) > 1e-12
        if bad.any():
            raise ValueError(f"row {int(np.argmax(bad))} does not sum to 1")


def check_dense_kernel(n: int) -> None:
    """GuardExceededError if a dense n x n kernel exceeds 64 x
    `enumeration_cap()` cells."""
    cells = 64 * enumeration_cap()
    if n * n > cells:
        raise GuardExceededError(f"a dense {n} x {n} kernel ({n * n * 8 >> 20:,} "
                                 f"MiB) exceeds {cells:,} cells, 64 x the enumeration cap")


def transition_matrix(model, kind: ChainKind,
                      group: Optional[PermutationGroup] = None) -> TransitionMatrix:
    """Exact transition matrix of a chain kind on an enumerated state space.

    Base kernels sum the model's `move_table` over the kernel's `StateSpace`
    with one `bincount`, which adds each cell's moves in table order; orbital
    kernels average the base kernel's columns over the orbits of the space,
    (rows @ C)[:, orbits] for C the N x M orbit indicator with each column
    divided by its orbit's size, N N M work.  The space's action, given a group,
    must keep the states inside the list (ValueError otherwise) and by
    which `representative_rows` reduces any kernel.  A group without
    generators leaves one-state orbits and the dense base kernels.  An N x N
    kernel that `check_dense_kernel` refuses raises GuardExceededError
    unbuilt; a kind that fails `ChainKind.check` raises TypeError.
    """
    kind = ChainKind(kind)
    kind.check(model)
    if kind.is_orbital and group is None:
        raise ValueError(f"kernel {kind.value} requires a symmetry group")
    states = tuple(model.states())
    check_dense_kernel(len(states))
    space = StateSpace(states, group)
    targets, probs = model.move_table(space)
    n = len(states)
    cells = (np.arange(n)[:, None] * n + targets).ravel()
    rows = np.bincount(cells, weights=probs.ravel(), minlength=n * n).reshape(n, n)
    if kind.is_orbital and space.action is not None:
        ids = space.orbits
        sizes = np.bincount(ids)
        rows = (rows @ (np.eye(len(sizes))[ids] / sizes))[:, ids]
    return TransitionMatrix(space, rows)


def representative_rows(matrix: TransitionMatrix
                        ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The kernel reduced to one row per orbit of its group action, for
    `mixing_time`: (rows, gather, indicator), with the M orbits in order
    of their first states.

    If the rows of the first states are constant on column orbits, as those
    of every orbital kernel K = P A are, the kernel is lumped: rows is the
    M x M quotient Q(O, O') = K(first state of O, O'), gather None and
    indicator the N x M 0/1 matrix of states by orbit, summing pi by orbit.
    ValueError unless, to 1e-12, the rows of an orbit lump alike and every
    column is constant on orbits.  Otherwise rows are the M x N rows of the
    first states, `rows.take(gather)` expands them, and those of every
    power P^t, to the whole kernel: if x = g r, then P^t(x, y) =
    P^t(r, g^-1 y), and indicator is None.  ValueError unless, to 1e-12,
    P[s, s] = P for the index array s of every generator.  A kernel with no
    action is its own reduction: (rows, None, None)."""
    rows, space = matrix.rows, matrix.space
    n, action, ids = len(space), space.action, space.orbits
    if action is None:
        return rows, None, None
    reps = np.unique(ids, return_index=True)[1]
    columns = reps[ids]  # the first state of each state's orbit
    first, gather, indicator = rows[reps], None, None
    if np.abs(first - first[:, columns]).max() <= 1e-12:
        indicator = np.eye(len(reps))[ids]
        lumped = rows @ indicator
        if np.abs(lumped - lumped[reps][ids]).max() > 1e-12:
            raise ValueError("kernel is not lumpable: rows differ within an orbit")
        if np.abs(rows - rows[:, columns]).max() > 1e-12:
            raise ValueError("kernel columns are not constant on orbits")
        reduced = lumped[reps]
    else:
        back = np.argsort(action, axis=1)  # index arrays of the inverses
        # P[s, s] - P vanishes off the nonzeros of P and their preimages under s
        i, j = np.nonzero(rows)
        values = rows[i, j]
        for s in (*action, *back):
            if np.abs(rows[s[i], s[j]] - values).max() > 1e-12:
                raise ValueError("kernel does not commute with the group action")
        gather = np.empty((n, n), dtype=np.intp)
        gather[reps] = np.arange(len(reps) * n).reshape(-1, n)
        images, queue, seen = action.tolist(), reps.tolist(), set(reps.tolist())
        for z in queue:  # breadth first from the first states, the queue growing as read
            for g, image in enumerate(images):
                if (x := image[z]) not in seen:  # row x = row z, columns moved by g
                    seen.add(x)
                    queue.append(x)
                    gather[x] = gather[z][back[g]]
        reduced = first
    return reduced, gather, indicator


def _reduced_pi(matrix: TransitionMatrix, dist: ExactDistribution,
                indicator: Optional[np.ndarray]) -> np.ndarray:
    """pi for `representative_rows`, the one path by which `mixing_time`
    reduces pi: summed orbit by orbit through the orbit indicator of a
    lumped kernel, else (indicator None) unchanged.  ValueError unless
    pi[s] = pi to 1e-12 for every generator's index array s, if any."""
    pi, action = dist.probs, () if matrix.space.action is None else matrix.space.action
    if any(np.abs(pi[s] - pi).max() > 1e-12 for s in action):
        raise ValueError("pi is not invariant under the group action")
    return pi if indicator is None else pi @ indicator


@dataclass(frozen=True)
class DetailedBalanceReport:
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def check_detailed_balance(matrix: TransitionMatrix, dist: ExactDistribution,
                           tol: float = 1e-12) -> DetailedBalanceReport:
    """Largest |pi(x)P(x,y) - pi(y)P(y,x)| over all state pairs, read in
    blocks of at most max(1, 2^18 // N) rows x, each block's flows multiplied
    from pi and the rows alone: 2 MiB a temporary at most."""
    if matrix.space.states != dist.states:
        raise ValueError("matrix and distribution enumerate different states")
    pi, rows, violation = dist.probs, matrix.rows, 0.0
    block = max(1, (1 << 18) // len(pi))
    for x in range(0, len(pi), block):
        out = pi[x:x + block, None] * rows[x:x + block]
        back = (pi[:, None] * rows[:, x:x + block]).T
        violation = max(violation, float(np.abs(out - back).max()))
    return DetailedBalanceReport(violation, tol)


def stationary_deviation(matrix: TransitionMatrix,
                         dist: ExactDistribution) -> float:
    """Max-norm of pi P - pi."""
    if matrix.space.states != dist.states:
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
    states, initial state included and no burn-in discarded, looked up
    all at once in `exact.index`; a state outside it raises
    `exact.index_of`'s KeyError, a checkpoint not an integer TypeError.
    Checkpoints go in blocks of at most max(1, 2^16 // N) for N states: one
    `bincount` counts each segment into its own row and an integer cumsum,
    from the counts carried over, gives the points of the per-checkpoint sum.
    """
    checkpoints = sorted(set(map(operator.index, checkpoints)))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive sample counts")
    if checkpoints[-1] > len(trace.states):
        raise ValueError(
            f"checkpoint {checkpoints[-1]} exceeds {len(trace.states)} samples")
    states = trace.states[:checkpoints[-1]]
    try:  # one key more, so that one state too gives a tuple; fromiter stops before it
        found = operator.itemgetter(*states, states[0])(exact.index)
    except KeyError as miss:
        exact.index_of(miss.args[0])  # raises, naming the state
        raise
    found = np.fromiter(found, np.intp, len(states))
    n, bounds = len(exact.states), np.array([0] + checkpoints)
    block, carry, points = max(1, (1 << 16) // n), np.zeros(n, np.intp), []
    for start in range(0, len(checkpoints), block):
        edges = bounds[start:start + block + 1]  # a block's counts: at most 512 KiB
        rows = np.repeat(np.arange(len(edges) - 1) * n, np.diff(edges))
        counts = np.bincount(rows + found[edges[0]:edges[-1]], minlength=n * (len(edges) - 1))
        counts = counts.reshape(-1, n)
        counts[0] += carry
        carry = np.cumsum(counts, axis=0, out=counts)[-1]
        tv = 0.5 * np.abs(counts / edges[1:, None] - exact.probs).sum(axis=1)
        points += zip(edges[1:].tolist(), tv.tolist())
    return TVSeries(points)


MIXING_HORIZON = 1_000_000  # mixing_time gives up on t beyond this


def mixing_time(matrix: TransitionMatrix, dist: ExactDistribution, eps: float) -> int:
    """Least t with d(t) = max_x d_tv(P^t(x, .), pi) <= eps.

    d(t) never increases with t, so tau is one past the largest t with
    d(t) > eps, read off bit by bit.  Squarings: P^(2^j), each row
    renormalized, until the first at or below eps.  Descent: from the last
    square above eps, multiply in each lower square in turn and keep the
    product while its distance stays above eps; tau is one past the
    exponent reached.  Verification: P^tau, which the descent already
    built (its last product at or below eps, or the first square at or
    below eps when none is), squared up to three times, the distance
    staying at or below eps at 2 tau, 4 tau and 8 tau.

    A kernel with a group `action` runs all this on its
    `representative_rows`, one row per state orbit, and d(t) is unchanged:
    the kernel commutes with the group and pi is invariant, so row g r of
    P^t is row r with its columns permuted, at the same distance from pi
    (Boyd, Diaconis, Parrilo & Xiao 2005).  An orbital kernel, its rows
    constant on orbits, runs on the M x M lumped quotient, the distance
    summing orbit by orbit (Kemeny & Snell 1960, lumpability); any other
    runs on M x N rows, a right factor being expanded to N x N by one
    gather.  Without an action, M = N and nothing is gathered.

    Per kernel, kept on it from its first call: the irreducibility and
    aperiodicity checks, `representative_rows`, a lumped kernel's orbit
    indicator and each square, a later call squaring only past the last one kept.

    Per call: pi, checked and reduced by `_reduced_pi` given an action,
    before the kernel's work is kept; the distance of each square read, the
    descent and the verification, so tau and every power are a fresh kernel's.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    if matrix.space.states != dist.states:
        raise ValueError("matrix and distribution enumerate different states")
    ladder = matrix._ladder
    if ladder is None:
        if not is_connected(matrix):
            raise ValueError("chain is not irreducible")
        if not (np.diag(matrix.rows) > 0).any():
            raise ValueError("cannot verify aperiodicity: no positive diagonal")
        rows, gather, indicator = representative_rows(matrix)
        ladder = [rows], gather, indicator  # [rows] grows: squares[j] = P^(2^j), M rows
    squares, gather, indicator = ladder
    pi = _reduced_pi(matrix, dist, indicator)
    object.__setattr__(matrix, "_ladder", ladder)  # kept once pi has passed its check

    def distance(power: np.ndarray) -> float:
        return float(0.5 * np.abs(power - pi).sum(axis=1).max())

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = a @ (b if gather is None else b.take(gather))
        prod /= prod.sum(axis=1, keepdims=True)
        return prod

    top, last = 0, distance(squares[0])  # squares[top]: the first at or below eps
    while last > eps:
        if 2 ** (top + 1) > MIXING_HORIZON:
            raise GuardExceededError(
                f"no crossing below eps={eps} within horizon {MIXING_HORIZON}; "
                f"last distance {last} at t={2 ** top}")
        top += 1
        if top == len(squares):
            squares.append(times(squares[-1], squares[-1]))
        last = distance(squares[top])

    # power = P^t with d(t) > eps; crossed = P^(t + 2^j) for the last j
    # whose step was at or below eps, the steps after it adding up to 2^j - 1
    power, t, crossed = None, 0, squares[top]
    for j in reversed(range(top)):
        step = squares[j] if power is None else times(power, squares[j])
        if distance(step) > eps:
            power, t = step, t + 2 ** j
        else:
            crossed = step
    tau, power = t + 1, crossed

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

    The model's states are enumerated once, in lexicographic order, into one
    `StateSpace` with the group, read for its 0/1 matrix, orbit ids and
    `flip` table (the index of s with vertex w removed or added, -1 when
    that is not a state), and index tables over them are built once with
    numpy: `blocked[s, w]`, whether state s holds a neighbour of vertex w,
    one product with the adjacency matrix; the distance-one
    pairs (X, X minus one vertex) as (upper, lower, vertex) index arrays, X
    in lexicographic order and the vertex ascending; and the case of every
    pair and vertex, one case rule read by `varrho` and the coupled draw.
    The model must run `orbital-id` chains.

    The two chains share the vertex choice and acceptance coin and apply a
    common uniformly drawn group element, so each side marginally follows
    the orbit-resampled insert/delete kernel.  When only the lower state
    can accept the chosen insertion and the upper state already lies in
    the inserted state's orbit, both sides move to one uniform sample of
    that shared orbit and the pair coalesces: some group element maps the
    upper state to the inserted one iff their orbit ids agree.  The draw
    gives the element as an index into the group's sorted elements and
    never applies it, so the group is never enumerated.
    """

    def __init__(self, model: IndependentSetModel, group: PermutationGroup):
        ChainKind.ORBITAL_INSERT_DELETE.check(model)
        self.model = model
        self.space = space = StateSpace(model.states(), group)
        self._order = group.order()
        n = model.n
        bits, flip = space.bits.astype(bool), space.flip
        adjacency = np.zeros((n, n), dtype=bool)
        for v, w in model.graph.edges:
            adjacency[v, w] = adjacency[w, v] = True
        blocked = bits @ adjacency
        upper, vertex = np.nonzero(bits)
        lower = flip[upper, vertex]
        # the case rule: 1 if the pair differs at w, 2 if w is in both, 3 if
        # both can take w, 4 if only the lower can, 5 if neither
        cases = np.select([np.arange(n) == vertex[:, None], bits[upper], ~blocked[upper],
                           blocked[lower]], [1, 2, 3, 5], 4).astype(np.uint8)
        self._bits, self._adjacency, self._flip = bits, adjacency, flip
        self._upper, self._lower, self._cases = upper, lower, cases
        lam = model.lam
        self._p_insert, self._p_delete = lam / (1.0 + lam), 1.0 / (1.0 + lam)
        # the draw reads scalars through memoryviews, as Python ints, and
        # draws its indices as `perm`'s module docstring says, from these bounds
        self._views = tuple(map(memoryview, (upper, lower, cases, flip, space.orbits)))
        self._bounds = (n, n.bit_length(), self._order, self._order.bit_length())

    def rho(self) -> float:
        """Fraction of adjacent-extension triples landing in different orbits:
        over every state X and ordered edge (v, w) with both X + v and X + w
        independent, how often the two are not in one orbit."""
        takes = ~self._bits & (self._flip >= 0)  # X + v is a state
        extended = self.space.orbits[self._flip]  # the orbit of X + v where it is one
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
        """One coupled step of the distance-one pair with index `pair`, on
        state indices: (a, b, element, case), where the group element with
        index `element` in its sorted elements maps states a and b to the
        new upper and lower states.  Draws, from rng, the vertex, then the
        acceptance coin if the case has one, then the element."""
        upper, lower, cases, flip, orbit = self._views
        n, kn, order, korder = self._bounds
        hi, lo = upper[pair], lower[pair]
        w = rng.getrandbits(kn)
        while w >= n:
            w = rng.getrandbits(kn)
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
        element = rng.getrandbits(korder)
        while element >= order:
            element = rng.getrandbits(korder)
        return a, b, element, case


def coupling_drift(model: IndependentSetModel, group: PermutationGroup,
                   trials: int, seed: int = 0) -> CouplingReport:
    """Monte Carlo drift of the coupled chains against the exact bound
    -1/n + varrho (2 rho - 1) lam / (1 + lam), all read from one simulator.

    Each trial draws a pair index, then one coupled step through the
    simulator's draw.  The drawn element is not applied: a permutation of
    the vertices keeps Hamming distances, so the new pair is as far apart
    as its pre-images, one XOR of their bit masks.  Nothing is kept per
    trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    sim = CouplingSimulator(model, group)
    pairs = len(sim._upper)
    if not pairs:
        raise ValueError("graph admits no distance-one pairs")
    rng = Random(seed)
    rho, varrho = sim.rho(), sim.varrho()
    masks = [int.from_bytes(s, "big") for s in sim.space.states]  # one bit per byte

    counts = [0] * 6
    by_distance = [0] * (model.n + 1)  # trials per new Hamming distance
    draw, getrandbits, k = sim._draw, rng.getrandbits, pairs.bit_length()
    for _ in range(trials):
        pair = getrandbits(k)
        while pair >= pairs:
            pair = getrandbits(k)
        a, b, _, case = draw(pair, rng)
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
