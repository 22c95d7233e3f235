"""Permutations on finite point sets, generated groups, orbits and random elements.

Permutations act on points 0..n-1 and, extended pointwise, on binary
configurations of length n.  Composition is fixed left-to-right across the
whole package: (p * q) applied to x is q applied to (p applied to x).

A permutation is stored as one raw image, the sequence of images of
0..n-1: `bytes` when n <= 255 and a tuple of ints above that (the colored
graphs of larger clause models have more than 255 vertices).  For `bytes`,
`bytes.translate` gathers and `bytes.maketrans` scatters at C speed, which
gives composition, inversion and the action on configurations.  Only
`_compose` (gather) and `_scatter` look at the storage form, and the group
closure, which hoists `_compose`'s table building out of its loop; all
other code indexes an image, which reads the same ints from both forms.

Groups are represented by generating sets only.  Orbits and full element
lists are computed by breadth-first closure, which is exact and entirely
sufficient at the scales this toolkit targets; there is deliberately no
stabilizer-chain machinery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, Optional, Sequence, Union

from .errors import GuardExceededError, enumeration_cap

Config = tuple  # binary configuration: tuple of 0/1 ints
Image = Union[bytes, tuple]  # raw image of a permutation, see the module docstring

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_PAD = bytes(range(256))
MAX_BYTES_N = 255  # largest domain stored as bytes


def _as_image(mapping: Sequence[int]) -> Image:
    return bytes(mapping) if len(mapping) <= MAX_BYTES_N else tuple(mapping)


def _compose(a: Image, b: Image) -> Image:
    """Raw image of a followed by b: x -> b[a[x]]."""
    if type(a) is bytes:
        return a.translate(b + _PAD[len(a):])
    return tuple(map(b.__getitem__, a))


def _scatter(a: Image, values: Image) -> Image:
    """Raw image holding values[i] at position a[i].

    `values` has a's length and storage form.  With the identity as
    `values` this is the inverse of a; with a configuration it moves bit i
    to position a[i].
    """
    if type(a) is bytes:
        return bytes.maketrans(a, values)[:len(a)]
    out = [0] * len(a)
    for i, v in zip(a, values):
        out[i] = v
    return tuple(out)


class Permutation:
    """A bijection on {0, ..., n-1}.

    `image` holds the images of 0..n-1 as `bytes` when n <= 255 and as a
    tuple above that; `mapping` is the same images as a tuple whatever the
    storage.  Equality and hashing follow the image, so two permutations
    are equal exactly when they have the same domain and the same images.
    """

    __slots__ = ("image",)

    def __init__(self, mapping: Iterable[int]):
        m = tuple(mapping)
        n = len(m)
        seen = [False] * n
        for v in m:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {m}")
            seen[v] = True
        self.image = _as_image(m)

    @classmethod
    def _trusted(cls, mapping: Sequence[int]) -> "Permutation":
        # internal fast path: caller guarantees mapping is a bijection
        return cls._wrap(_as_image(mapping))

    @classmethod
    def _wrap(cls, image: Image) -> "Permutation":
        # internal fast path: image is already a raw image of a bijection
        p = object.__new__(cls)
        p.image = image
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(range(n))

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def mapping(self) -> tuple[int, ...]:
        """The images of 0..n-1 as a tuple of ints (a copy for n <= 255)."""
        return tuple(self.image)

    def is_identity(self) -> bool:
        return self.image == _as_image(range(len(self.image)))

    def apply(self, x: int) -> int:
        """Image of point x."""
        if not 0 <= x < len(self.image):
            raise ValueError(f"point {x} outside domain 0..{len(self.image) - 1}")
        return self.image[x]

    def apply_config(self, bits: Sequence[int]) -> Config:
        """Move bit i of the configuration to position image[i]."""
        if len(bits) != len(self.image):
            raise ValueError(
                f"configuration length {len(bits)} != domain size {len(self.image)}")
        return tuple(_scatter(self.image, _as_image(bits)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other: x -> other(self(x))."""
        if len(other.image) != len(self.image):
            raise ValueError("cannot compose permutations of different domain sizes")
        return Permutation._wrap(_compose(self.image, other.image))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_scatter(self.image, _as_image(range(self.n))))

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

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

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


def parse_cycles(text: str, n: Optional[int] = None,
                 names: Optional[Sequence[str]] = None) -> Permutation:
    """Parse a product of cycles like "(a c)(d f)" over named points.

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
        result = result.compose(Permutation._trusted(mapping))
    return result


@dataclass(frozen=True)
class Orbit:
    """An orbit of points or configurations with its least element."""

    elements: frozenset
    representative: object

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))


class PermutationGroup:
    """A permutation group given by a generating set.

    The group always contains the identity, also for an empty generating
    set.  Instances are immutable; the full element list is computed lazily
    and cached.
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
        self._elements: Optional[tuple[Permutation, ...]] = None

    def __repr__(self) -> str:
        return f"PermutationGroup({len(self.generators)} generators, n={self.n})"

    def is_trivial(self) -> bool:
        return not self.generators

    def orbit_of_point(self, x: int) -> Orbit:
        if not 0 <= x < self.n:
            raise ValueError(f"point {x} outside domain 0..{self.n - 1}")
        images = [g.image for g in self.generators]
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in images:
                    z = g[y]
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return Orbit(frozenset(seen), min(seen))

    def orbit_partition(self, domain: Optional[Iterable[int]] = None) -> list[Orbit]:
        """Disjoint orbits covering the domain, ordered by least representative."""
        points = sorted(domain) if domain is not None else range(self.n)
        done: set[int] = set()
        orbits = []
        for x in points:
            if x in done:
                continue
            orb = self.orbit_of_point(x)
            done |= orb.elements
            orbits.append(orb)
        return orbits

    def orbit_of_config(self, bits: Sequence[int]) -> Orbit:
        """Exact orbit of a configuration under the generated group."""
        if len(bits) != self.n:
            raise ValueError(f"configuration length {len(bits)} != domain size {self.n}")
        cap = enumeration_cap()
        gens = [g.image for g in self.generators]
        start = _as_image(bits)  # the search runs on configurations in image form
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                for g in gens:
                    d = _scatter(g, c)
                    if d not in seen:
                        if len(seen) >= cap:
                            raise GuardExceededError(
                                f"orbit too large for exact enumeration (cap {cap})")
                        seen.add(d)
                        nxt.append(d)
            frontier = nxt
        return Orbit(frozenset(map(tuple, seen)), tuple(min(seen)))

    def elements(self) -> tuple[Permutation, ...]:
        """All group elements by breadth-first closure, sorted, cached."""
        if self._elements is None:
            self._elements = tuple(map(Permutation._wrap, sorted(self._closure())))
        return self._elements

    def _closure(self) -> set:
        cap = enumeration_cap()
        ident = Permutation.identity(self.n).image
        gens = [g.image for g in self.generators]
        compose = _compose
        if type(ident) is bytes:
            # _compose's bytes branch with the translation tables built once
            compose = bytes.translate
            gens = [g + _PAD[self.n:] for g in gens]
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = compose(p, g)
                    if q not in seen:
                        if len(seen) >= cap:
                            raise GuardExceededError(
                                f"group enumeration exceeds cap {cap}")
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return seen

    def order(self) -> int:
        return len(self.elements())


def config_orbit_partition(group: PermutationGroup) -> list[Orbit]:
    """Partition all 2^n configurations into orbits, ordered by representative."""
    cap = enumeration_cap()
    if 2 ** group.n > cap:
        raise GuardExceededError(
            f"2^{group.n} configurations exceed enumeration cap {cap}")
    orbits = []
    done: set[Config] = set()
    for k in range(2 ** group.n):
        c = tuple((k >> (group.n - 1 - i)) & 1 for i in range(group.n))
        if c in done:
            continue
        orb = group.orbit_of_config(c)
        done |= orb.elements
        orbits.append(orb)
    orbits.sort(key=lambda o: o.representative)
    return orbits


def burnside_config_orbit_count(group: PermutationGroup) -> int:
    """Number of configuration orbits as the average count of fixed configs.

    A permutation fixes 2^(number of point cycles, fixed points included)
    configurations; averaging over the enumerated group counts the orbits,
    giving an independent check on the exhaustive partition.
    """
    els = group.elements()
    total = 0
    for g in els:
        cycles = g.cycles()
        n_cycles = len(cycles) + (group.n - sum(len(c) for c in cycles))
        total += 2 ** n_cycles
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
    """

    def __init__(self, group: PermutationGroup, *, seed: Optional[int] = None,
                 rng: Optional[Random] = None):
        gens = group.generators
        self.group = group
        self.rng = rng if rng is not None else Random(seed)
        self._ident = self._acc = Permutation.identity(group.n).image
        n_slots = max(MIN_SLOTS, 2 * len(gens) + 1) if gens else 0
        self._slots = [gens[i % len(gens)].image for i in range(n_slots)]
        for _ in range(BURN_IN_PER_SLOT * n_slots):
            self._move()

    @property
    def slots(self) -> list[Permutation]:
        """The current slots as permutations."""
        return [Permutation._wrap(s) for s in self._slots]

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

    def _draw(self) -> Image:
        """Advance the state and return the accumulator's raw image."""
        if self._slots:
            for _ in range(DRAW_MOVES):
                self._move()
        return self._acc

    def next(self) -> Permutation:
        """Advance the state and return a (near-uniform) group member."""
        return Permutation._wrap(self._draw())


class OrbitSampler:
    """Uniform (or near-uniform) resampling of a configuration within its orbit.

    EXACT mode draws a uniformly random element of the fully enumerated
    group, which by the orbit-stabilizer correspondence yields the uniform
    distribution on the orbit.  PRODUCT_REPLACEMENT trades exactness for
    scalability.  A trivial group consumes no randomness.
    """

    def __init__(self, group: PermutationGroup, mode: SamplerMode, rng: Random):
        self.group = group
        self.mode = SamplerMode(mode)
        self.rng = rng
        if group.is_trivial():
            self._els = None
            self._pr = None
        elif self.mode is SamplerMode.EXACT:
            self._els = group.elements()
            self._pr = None
        else:
            self._els = None
            self._pr = ProductReplacement(group, rng=rng)

    def sample(self, bits: Sequence[int]) -> Config:
        if self._els is not None:
            image = self._els[self.rng.randrange(len(self._els))].image
        elif self._pr is not None:
            image = self._pr._draw()
        else:
            return tuple(bits)
        if len(bits) != len(image):
            raise ValueError(
                f"configuration length {len(bits)} != domain size {len(image)}")
        return tuple(_scatter(image, _as_image(bits)))


def save_generating_set(path, group: PermutationGroup,
                        names: Optional[Sequence[str]] = None) -> None:
    """Write a generating set: point names on line one, one cycle form per line."""
    if names is None:
        names = [str(i) for i in range(group.n)]
    if len(names) != group.n:
        raise ValueError("name count does not match domain size")
    lines = [" ".join(names)]
    lines += [format_cycles(g, names) for g in group.generators]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_generating_set(path) -> tuple[PermutationGroup, list[str]]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty generating-set file")
    names = lines[0].split()
    gens = [parse_cycles(ln, names=names) for ln in lines[1:]]
    return PermutationGroup(gens, n=len(names)), names
