"""Permutations on finite point sets, generated groups, orbits and random elements.

Permutations act on points 0..n-1 and, extended pointwise, on binary
configurations of length n.  Composition is fixed left-to-right across the
whole package: `_compose(a, b)` maps x to b[a[x]], a first and then b.

A configuration (`Config`) is `bytes`, one 0/1 byte per variable, at every
n.  A permutation is stored as one raw image, the sequence of images of
0..n-1: `bytes` when n <= 256, since a byte holds every point of a
256-point domain, and a tuple of ints above that (the colored graphs of
larger clause models have more than 256 vertices).  For `bytes`,
`bytes.translate` gathers and `bytes.maketrans` scatters at C speed, which
gives composition, inversion and, in one call, the action on a
configuration.  Only `_compose` (gather), `_scatter`, `ProductReplacement`
and `OrbitSampler` look at the storage form; all other code indexes an
image, which reads the same ints from both forms.

Groups are represented by generating sets and a stabilizer chain, built
lazily by deterministic Schreier-Sims on the raw images: the order is the
product of its transversal sizes, and all elements, when needed, are one
sorted |G| x n array read off it once, the only copy kept and the one way
to list them (`image_array`).  Every orbit, of points, configurations or
states, is read off one routine, `orbit_ids`, from an action given as one
row of images per generator: `PermutationGroup.point_action` on points,
`StateSpace`, the one index of an enumerated state list, on configurations.
Lists of orbits are sorted tuples.
Cycle notation is written here (`format_cycles`, `format_generating_set`),
never read back.

Every uniform index in [0, m) that a sampler here or a step loop in
`chains` or `analysis` draws comes from the rejection loop CPython's
`Random.randrange(m)` runs: with k = m.bit_length() bound once,
`i = getrandbits(k)` retried while i >= m.  It is inlined at each caller,
so each draw costs no `randrange` call yet consumes the generator exactly
as `randrange(m)` would, and every stream is `randrange`'s.  The samplers
bind their loops once, as closures over the generator: a step loop calls
`OrbitSampler.resample` with no attribute read or mode branch per draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from operator import index, itemgetter
from random import Random
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import GuardExceededError, enumeration_cap

Config = bytes  # binary configuration: one 0/1 byte per variable, at every n
Image = Union[bytes, tuple]  # raw image of a permutation, see the module docstring

_PAD = bytes(range(256))
MAX_BYTES_N = 256  # largest domain stored as bytes: points 0..255


def _as_image(mapping: Sequence[int]) -> Image:
    """The raw image of a mapping; a raw image comes back as the same object."""
    return bytes(mapping) if len(mapping) <= MAX_BYTES_N else tuple(mapping)


def _check_config(bits: Config, n: int) -> None:
    """TypeError unless `bits` is `bytes`, ValueError unless of length n."""
    if not isinstance(bits, bytes):
        raise TypeError(f"a configuration is bytes, not {type(bits).__name__}")
    if len(bits) != n:
        raise ValueError(f"configuration length {len(bits)} != domain size {n}")


def config_matrix(states: Sequence[Config], n: int) -> np.ndarray:
    """The configurations as one read-only len(states) x n uint8 matrix."""
    return np.frombuffer(b"".join(states), dtype=np.uint8).reshape(len(states), n)


def config_rows(bits: np.ndarray) -> list[Config]:
    """The rows of a 0/1 matrix as configurations: `config_matrix` undone."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    return bits.view(np.dtype((np.void, bits.shape[1]))).ravel().tolist()


def _compose(a: Image, b: Image) -> Image:
    """Raw image of a followed by b: x -> b[a[x]]."""
    if type(a) is bytes:
        return a.translate(b + _PAD[len(a):])
    return itemgetter(*a)(b)  # a tuple: more than MAX_BYTES_N points


def _scatter(a: Image, values: Image) -> Image:
    """Raw image holding values[i] at position a[i].

    `values` has a's length.  With the identity image as `values` this is
    the inverse of a; with a configuration it moves bit i to position a[i]
    and gives a configuration, whatever a's storage form.
    """
    if type(a) is bytes:
        return bytes.maketrans(a, values)[:len(a)]
    out = [0] * len(a)
    for i, v in zip(a, values):
        out[i] = v
    return type(values)(out)


class Permutation:
    """A bijection on {0, ..., n-1}.

    `image` holds the images of 0..n-1 as `bytes` when n <= MAX_BYTES_N
    and as a tuple above that; `mapping` is the same images as a tuple
    whatever the storage.  Equality and hashing follow the image, so two permutations
    are equal exactly when they have the same domain and the same images.
    """

    __slots__ = ("image",)

    def __init__(self, mapping: Iterable[int]):
        given = tuple(mapping)
        n = len(given)
        try:
            m = tuple(map(index, given))  # numpy integers read as Python ints
        except TypeError:
            m = ()  # a non-integer entry: rejected below
        if sorted(m) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {given}")
        self.image = _as_image(m)

    @classmethod
    def _trusted(cls, mapping: Sequence[int]) -> "Permutation":
        # internal fast path: caller guarantees mapping, or a raw image, is a bijection
        p = object.__new__(cls)
        p.image = _as_image(mapping)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(range(n))

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def mapping(self) -> tuple[int, ...]:
        """The images of 0..n-1 as a tuple of ints (a copy for `bytes` images)."""
        return tuple(self.image)

    def is_identity(self) -> bool:
        return self.image == _as_image(range(len(self.image)))

    def apply_config(self, bits: Config) -> Config:
        """Move bit i of a configuration to position image[i]."""
        _check_config(bits, len(self.image))
        return _scatter(self.image, bits)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        m = self.image
        seen = [False] * len(m)
        out = []
        for i, j in enumerate(m):
            if seen[i] or j == i:
                continue
            cyc = [i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = m[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, n={len(self.image)})"


def format_cycles(p: Permutation, names: Optional[Sequence[str]] = None) -> str:
    """Disjoint-cycle text form, identity printed as "()"."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    label = (lambda i: names[i]) if names is not None else str
    return "".join("(" + " ".join(label(i) for i in cyc) + ")" for cyc in cycs)


class PermutationGroup:
    """A permutation group given by a generating set.

    The group always contains the identity, also for an empty generating
    set.  Instances are immutable; the stabilizer chain and the element
    list are computed lazily and cached.
    """

    def __init__(self, generators: Iterable[Permutation], n: Optional[int] = None):
        gens = tuple(generators)
        if gens:
            sizes = {g.n for g in gens}
            if len(sizes) != 1:
                raise ValueError(f"generators have mixed domain sizes {sorted(sizes)}")
            inferred = sizes.pop()
            if n is not None and n != inferred:
                raise ValueError(f"declared domain size {n} != generator size {inferred}")
            n = inferred
        elif n is None:
            raise ValueError("empty generating set requires an explicit domain size")
        self.generators = tuple(g for g in gens if not g.is_identity())
        self.n = n

    def __repr__(self) -> str:
        return f"PermutationGroup({len(self.generators)} generators, n={self.n})"

    def point_action(self) -> np.ndarray:
        """The generators' images as a G x n int array: the action on points."""
        return np.array([g.mapping for g in self.generators],
                        dtype=np.intp).reshape(len(self.generators), self.n)

    def orbit_partition(self) -> list[tuple[int, ...]]:
        """Point orbits as sorted tuples, ordered by least point."""
        return _orbit_tuples(orbit_ids(self.point_action()), range(self.n))

    @functools.cached_property
    def _chain(self) -> list[dict]:
        return _schreier_sims(self.n, [g.image for g in self.generators])

    def order(self) -> int:
        """|G|, the product of the transversal sizes of a stabilizer chain."""
        return math.prod(map(len, self._chain))

    def image_array(self) -> np.ndarray:
        """All |G| elements as images in lexicographic order, one read-only
        array built once, uint8 exactly when the images are `bytes` (up to
        MAX_BYTES_N points); GuardExceededError past the cap."""
        order, cap = self.order(), enumeration_cap()
        if order > cap:
            raise GuardExceededError(f"group of order {order} exceeds enumeration cap {cap}")
        return self._elements

    @functools.cached_property
    def _elements(self) -> np.ndarray:  # one gather per chain level
        dtype = np.uint8 if self.n <= MAX_BYTES_N else np.min_scalar_type(self.n - 1)
        els = np.arange(self.n, dtype=dtype).reshape(1, self.n)
        for level in reversed(self._chain):
            u = np.array([tuple(v) for v, _ in level.values()], dtype=dtype)
            els = u[:, els].reshape(-1, self.n)  # h from the level below, then u
        # distinct elements differ at a base point: sort on columns up to the last
        cols = 1 + max((next(iter(level)) for level in self._chain), default=0)
        els = els[np.lexsort(els[:, :cols].T[::-1])] if len(els) > 1 else els
        els.flags.writeable = False
        return els


def _schreier_sims(n: int, gens: Sequence[Image]) -> list[dict]:
    """A stabilizer chain by deterministic Schreier-Sims (Sims 1970; Seress,
    Permutation Group Algorithms, 2003): per base point b_i, a dict from
    each point of b_i's orbit under the stabilizer of b_0..b_{i-1} to an
    element u taking b_i there and u's inverse (for `bytes` images, as a
    256-byte translate table), b_i first with the identity.
    Each new base point is the first point moved by the residue needing it;
    a level is done when all its Schreier generators sift to the identity.

    Each (orbit point, strong generator) pair is sifted to the identity
    once: `done[i][p]` counts the strong generators of level i already
    checked against its p-th orbit point, and since no transversal entry or
    base point is ever replaced, a checked pair would sift to the identity
    again.  Pairs are visited point by point, then generator by generator,
    so the first residue that is not the identity is the one a full rescan
    would find.  An orbit grows only by what is new: its old points under
    the new generator, then the new points under every strong generator.
    Compose and inverse are bound once per storage form: a `bytes` strong
    generator is padded once to a 256-byte table and an inverse kept as
    `bytes.maketrans`'s table, so each product is one `bytes.translate`;
    tuple images use `_compose` and `_scatter`."""
    ident = _as_image(range(n))
    if type(ident) is bytes:
        pad, compose, inverse = _PAD[n:], bytes.translate, bytes.maketrans
    else:
        pad, compose, inverse = (), _compose, _scatter
    base, strong, chain, done = [], [], [], []

    def sift(g, i):
        for i in range(i, len(base)):
            beta = g[base[i]]
            if beta != base[i]:  # else the transversal element is the identity
                entry = chain[i].get(beta)
                if entry is None:
                    return g, i
                g = compose(g, entry[1])
        return g, len(base)

    def add(h, j, first):  # h fixes b_0..b_{j-1}
        if j == len(base):
            base.append(next(x for x, y in enumerate(h) if x != y))
            strong.append([])
            chain.append({base[j]: (ident, inverse(ident, ident))})
            done.append([])
        h += pad
        for level in range(first, j + 1):
            level_gens, t = strong[level], chain[level]
            level_gens.append(h)
            new = []
            # the orbit is closed under the old generators: only h leaves it
            for beta, (u, _) in list(t.items()):
                if h[beta] not in t:
                    w = compose(u, h)
                    t[h[beta]] = (w, inverse(w, ident))
                    new.append(h[beta])
            for beta in new:  # new points: every strong generator
                u = t[beta][0]
                for s in level_gens:
                    if s[beta] not in t:
                        w = compose(u, s)
                        t[s[beta]] = (w, inverse(w, ident))
                        new.append(s[beta])

    def residue(i):  # the first residue at level i that is not the identity
        t, level_gens, checked = chain[i], strong[i], done[i]
        checked += [0] * (len(t) - len(checked))
        for p, (beta, (u, _)) in enumerate(t.items()):
            for k in range(checked[p], len(level_gens)):
                s = level_gens[k]
                us, (v, v_inv) = compose(u, s), t[s[beta]]
                if us != v:
                    h, j = sift(compose(us, v_inv), i + 1)
                    if h != ident:
                        checked[p] = k
                        return h, j
            checked[p] = len(level_gens)
        return None, i - 1

    for g in gens:
        h, j = sift(g, 0)
        if h != ident:
            add(h, j, 0)
    i = len(base) - 1
    while i >= 0:
        h, j = residue(i)
        if h is not None:
            add(h, j, i + 1)
        i = j
    return chain


class StateSpace:
    """Distinct configurations as every exact judge reads them: `states`,
    their `index`, their `config_matrix` `bits` (built on first read) and,
    given a group, `action[g][i]`, the index of generator g applied to
    states[i] (one column gather of `bits`), and `orbits`, its `orbit_ids`;
    `flip`, the toggle table that the models' `move_table` reads, is built
    on first read too.
    A trivial group leaves `action` None, one orbit per state; no group,
    both None.  ValueError if a state repeats or an image is not listed."""

    def __init__(self, states: Iterable[Config], group: Optional[PermutationGroup] = None):
        self.states = tuple(states)
        self.index = index = {s: i for i, s in enumerate(self.states)}
        if len(index) < len(self.states):
            raise ValueError("a state is listed twice")
        gens = () if group is None else group.generators
        self.action = np.empty((len(gens), len(index)), dtype=np.intp) if gens else None
        for g, perm in enumerate(gens):
            images = config_rows(self.bits[:, np.argsort(perm.mapping)])  # bit i to perm[i]
            try:
                self.action[g] = [index[image] for image in images]
            except KeyError as miss:
                i = images.index(miss.args[0])
                raise ValueError("group does not preserve the state space: a generator "
                                 f"maps {tuple(self.states[i])} to {tuple(images[i])}") from None
        self.orbits = (None if group is None else
                       orbit_ids(self.action) if gens else np.arange(len(index)))

    @functools.cached_property
    def bits(self) -> np.ndarray:
        return config_matrix(self.states, len(self.states[0]) if self.states else 0)

    @functools.cached_property
    def flip(self) -> np.ndarray:
        """flip[s, v], the index of states[s] with bit v toggled, -1 if that
        is not listed: per bit, one binary search of the toggled rows of
        `bits` among the rows, each row one byte string."""
        bits, flip = self.bits.copy(), np.empty(self.bits.shape, dtype=np.intp)
        keys = self.bits.view(row := np.dtype((np.void, bits.shape[1]))).ravel()
        order = np.argsort(keys)
        for v in range(bits.shape[1]):
            bits[:, v] ^= 1
            wanted = bits.view(row).ravel()
            found = order[np.searchsorted(keys, wanted, sorter=order) % len(keys)]
            flip[:, v] = np.where(keys[found] == wanted, found, -1)
            bits[:, v] ^= 1
        return flip

    def __len__(self) -> int:
        return len(self.states)


def orbit_ids(action: np.ndarray) -> np.ndarray:
    """Orbit id per point of an action given as one row of images per
    generator, numbered in order of each orbit's first point.  Each point's
    label, at first its index, becomes the label of the least of its own and
    its generator images' labels until no label moves; each label is then
    the first point of its orbit."""
    first, nearer = None, np.arange(action.shape[1])
    while not np.array_equal(first, nearer):
        first, nearer = nearer, nearer[np.vstack((nearer, nearer[action])).min(axis=0)]
    return np.unique(first, return_inverse=True)[1]


def _orbit_tuples(ids: np.ndarray, members: Sequence) -> list[tuple]:
    """The members grouped by orbit id: orbits in id order, each a tuple in
    the members' order."""
    orbits: list[list] = [[] for _ in range(int(ids.max(initial=-1)) + 1)]
    for i, member in zip(ids.tolist(), members):
        orbits[i].append(member)
    return [tuple(orbit) for orbit in orbits]


def config_orbit_partition(group: PermutationGroup) -> list[tuple[Config, ...]]:
    """Partition all 2^n configurations into orbits, each a tuple in
    lexicographic order, the orbits ordered by their least configuration."""
    cap = enumeration_cap()
    if 2 ** group.n > cap:
        raise GuardExceededError(
            f"2^{group.n} configurations exceed enumeration cap {cap}")
    configs = [bytes(c) for c in itertools.product((0, 1), repeat=group.n)]
    return _orbit_tuples(StateSpace(configs, group).orbits, configs)


def burnside_config_orbit_count(group: PermutationGroup) -> int:
    """Number of configuration orbits as the average count of fixed configs.

    A permutation fixes 2^(number of point cycles, fixed points included)
    configurations; averaging over the enumerated group counts the orbits,
    giving an independent check on the exhaustive partition.  Cycles are
    counted in bulk by pointer doubling: after ceil(log2 n) rounds of
    `label = min(label, label[p]); p = p[p]` only the least point of each
    cycle keeps its own label.
    """
    els, n = group.image_array(), group.n
    points, total = np.arange(n), 0
    rows = (1 << 18) // (n + 1)  # a chunk's temporaries: at most 2 MiB each
    for start in range(0, len(els), rows):
        chunk = els[start:start + rows]
        p = (chunk + n * np.arange(len(chunk))[:, None]).ravel()  # flat indices
        label = np.tile(points, len(chunk))
        for _ in range((n - 1).bit_length()):
            np.minimum(label, label[p], out=label)
            p = p[p]
        cycles = (label.reshape(chunk.shape) == points).sum(axis=1)
        total += sum(count << c for c, count in enumerate(np.bincount(cycles).tolist()))
    count, rem = divmod(total, len(els))
    if rem:
        raise ArithmeticError("fixed-configuration total not divisible by order")
    return count


class SamplerMode(str, Enum):
    EXACT = "exact"
    PRODUCT_REPLACEMENT = "pr"


MIN_SLOTS = 10              # slots: max(MIN_SLOTS, 2 * generators + 1)
BURN_IN_PER_SLOT = 60       # replacement moves per slot before the first draw
DRAW_MOVES = 3              # replacement moves per draw


class ProductReplacement:
    """Near-uniform random group elements via randomized slot replacement.

    Keeps a list of slots initialized from the generators plus an
    accumulator (the "rattle" variant), all as raw images.  A draw performs
    a few replacement moves, folding each changed slot into the
    accumulator, and returns the accumulator; the extra moves decorrelate
    consecutive draws enough for frequency tests at the 10^5-draw scale.
    Every value produced is a member of the generated group.

    Burn-in and draws run one loop, `_moves(count)`, a closure bound once
    over the slots, the accumulator and the generator, which draws each
    slot index as the module docstring says.  `bytes` images are composed
    through full 256-byte tables: a slot padded with the identity above n,
    or its inverse, which `bytes.maketrans` already gives as such a table.
    """

    def __init__(self, group: PermutationGroup, *, rng: Random):
        gens = group.generators
        ident = acc = Permutation.identity(group.n).image
        pad, compose, inverse = ((_PAD[group.n:], bytes.translate, bytes.maketrans)
                                 if type(ident) is bytes else ((), _compose, _scatter))
        n_slots = max(MIN_SLOTS, 2 * len(gens) + 1) if gens else 0
        self._slots = slots = [gens[i % len(gens)].image for i in range(n_slots)]
        s, s1, getrandbits, random = n_slots, n_slots - 1, rng.getrandbits, rng.random
        k, k1 = s.bit_length(), s1.bit_length()

        def moves(count: int) -> Image:
            """Run `count` replacement moves; return the accumulator."""
            nonlocal acc
            for _ in range(count):
                i = getrandbits(k)
                while i >= s:
                    i = getrandbits(k)
                j = getrandbits(k1)
                while j >= s1:
                    j = getrandbits(k1)
                if j >= i:
                    j += 1
                q = slots[j]
                q = inverse(q, ident) if random() < 0.5 else q + pad
                r = slots[i] = compose(slots[i], q)
                acc = compose(acc, inverse(r, ident) if random() < 0.5 else r + pad)
            return acc

        self._moves = moves if slots else lambda count: acc  # no slots: no moves, no draws
        moves(BURN_IN_PER_SLOT * n_slots)

    def next(self) -> Permutation:
        """Advance the state and return a (near-uniform) group member."""
        return Permutation._trusted(self._moves(DRAW_MOVES))


class OrbitSampler:
    """Uniform (or near-uniform) resampling of a configuration within its orbit.

    EXACT mode draws a uniformly random element of the group, one row of its
    sorted element array read off a zero-copy view of the array's buffer,
    which by the orbit-stabilizer correspondence yields the uniform
    distribution on the orbit.  PRODUCT_REPLACEMENT trades exactness for
    scalability.  A trivial group consumes no randomness.

    `resample`, one closure bound for the mode and the images' storage form,
    is the resample: `sample` checks the state's type and length and calls
    it, a step loop calls it directly.  It is None for a trivial group, which moves nothing.
    """

    def __init__(self, group: PermutationGroup, mode: SamplerMode, rng: Random):
        self._n, self.resample = group.n, None
        n, maketrans, exact = group.n, bytes.maketrans, SamplerMode(mode) is SamplerMode.EXACT
        if not group.generators:
            return
        if exact:
            els = group.image_array()
            order, view = len(els), memoryview(els).cast("B").cast(els.dtype.char)
            k, getrandbits = order.bit_length(), rng.getrandbits

            def draw() -> Image:
                i = getrandbits(k)
                while i >= order:
                    i = getrandbits(k)
                return view[i * n:i * n + n]

            def resample(bits: Config) -> Config:  # `draw`, inlined, on `bytes` images
                i = getrandbits(k)
                while i >= order:
                    i = getrandbits(k)
                return maketrans(view[i * n:i * n + n], bits)[:n]
        else:
            draw = functools.partial(ProductReplacement(group, rng=rng)._moves, DRAW_MOVES)

            def resample(bits: Config) -> Config:
                return maketrans(draw(), bits)[:n]
        self.resample = resample if n <= MAX_BYTES_N else lambda bits: _scatter(draw(), bits)

    def sample(self, bits: Config) -> Config:
        _check_config(bits, self._n)
        return bits if self.resample is None else self.resample(bits)


def format_generating_set(group: PermutationGroup, names: Sequence[str]) -> str:
    """A generating set as text: point names on line one, one cycle form per line."""
    if len(names) != group.n:
        raise ValueError("name count does not match domain size")
    lines = [" ".join(names)]
    lines += [format_cycles(g, names) for g in group.generators]
    return "\n".join(lines) + "\n"

