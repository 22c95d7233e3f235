"""Permutations on finite point sets, generated groups, orbits and random elements.

Permutations act on points 0..n-1 and, extended pointwise, on binary
configurations of length n.  Composition is fixed left-to-right across the
whole package: (p * q) applied to x is q applied to (p applied to x).

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
from typing import Iterable, Optional, Sequence

from .errors import GuardExceededError, enumeration_cap

Config = tuple  # binary configuration: tuple of 0/1 ints

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection on {0, ..., n-1}, stored as the image array."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Iterable[int]):
        m = tuple(mapping)
        n = len(m)
        seen = [False] * n
        for v in m:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {m}")
            seen[v] = True
        self.mapping = m

    @classmethod
    def _trusted(cls, mapping: tuple) -> "Permutation":
        # internal fast path: caller guarantees mapping is a bijection
        p = object.__new__(cls)
        p.mapping = mapping
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.mapping))

    def apply(self, x: int) -> int:
        """Image of point x."""
        if not 0 <= x < len(self.mapping):
            raise ValueError(f"point {x} outside domain 0..{len(self.mapping) - 1}")
        return self.mapping[x]

    def apply_config(self, bits: Sequence[int]) -> Config:
        """Move bit i of the configuration to position mapping[i]."""
        m = self.mapping
        if len(bits) != len(m):
            raise ValueError(f"configuration length {len(bits)} != domain size {len(m)}")
        out = [0] * len(m)
        for i, b in enumerate(bits):
            out[m[i]] = b
        return tuple(out)

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other: x -> other(self(x))."""
        q = other.mapping
        if len(q) != len(self.mapping):
            raise ValueError("cannot compose permutations of different domain sizes")
        return Permutation._trusted(tuple(q[v] for v in self.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation._trusted(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = [False] * len(self.mapping)
        out = []
        for i in range(len(self.mapping)):
            if seen[i] or self.mapping[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.mapping[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.mapping[j]
            out.append(tuple(cyc))
        return out

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, n={len(self.mapping)})"


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
        result = result.compose(Permutation._trusted(tuple(mapping)))
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
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in self.generators:
                    z = g.mapping[y]
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
        start = tuple(bits)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                for g in self.generators:
                    d = g.apply_config(c)
                    if d not in seen:
                        if len(seen) >= cap:
                            raise GuardExceededError(
                                f"orbit too large for exact enumeration (cap {cap})")
                        seen.add(d)
                        nxt.append(d)
            frontier = nxt
        return Orbit(frozenset(seen), min(seen))

    def elements(self) -> tuple[Permutation, ...]:
        """All group elements by breadth-first closure, sorted, cached."""
        if self._elements is not None:
            return self._elements
        if self.n <= 255:
            raw = self._closure_bytes()
            els = tuple(Permutation._trusted(tuple(b)) for b in sorted(raw))
        else:
            raw = self._closure_tuples()
            els = tuple(Permutation._trusted(t) for t in sorted(raw))
        self._elements = els
        return els

    def _closure_bytes(self) -> set:
        # bytes.translate gives C-speed composition for n <= 255
        cap = enumeration_cap()
        pad = bytes(range(256))
        tables = [bytes(g.mapping) + pad[self.n:] for g in self.generators]
        ident = bytes(range(self.n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for t in tables:
                    q = p.translate(t)
                    if q not in seen:
                        if len(seen) >= cap:
                            raise GuardExceededError(
                                f"group enumeration exceeds cap {cap}")
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return seen

    def _closure_tuples(self) -> set:
        cap = enumeration_cap()
        gens = [g.mapping for g in self.generators]
        ident = tuple(range(self.n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[v] for v in p)
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
    accumulator (the "rattle" variant).  A draw performs a few replacement
    moves, folding each changed slot into the accumulator, and returns the
    accumulator; the extra moves decorrelate consecutive draws enough for
    frequency tests at the 10^5-draw scale.  Every value produced is a
    member of the generated group.
    """

    def __init__(self, group: PermutationGroup, *, seed: Optional[int] = None,
                 rng: Optional[Random] = None):
        gens = group.generators
        self.group = group
        self.rng = rng if rng is not None else Random(seed)
        self._acc = Permutation.identity(group.n)
        n_slots = max(MIN_SLOTS, 2 * len(gens) + 1) if gens else 0
        self.slots = [gens[i % len(gens)] for i in range(n_slots)]
        for _ in range(BURN_IN_PER_SLOT * n_slots):
            self._move()

    def _move(self) -> Permutation:
        rng = self.rng
        s = len(self.slots)
        i = rng.randrange(s)
        j = rng.randrange(s - 1)
        if j >= i:
            j += 1
        q = self.slots[j]
        if rng.random() < 0.5:
            q = q.inverse()
        self.slots[i] = self.slots[i].compose(q)
        r = self.slots[i]
        if rng.random() < 0.5:
            r = r.inverse()
        self._acc = self._acc.compose(r)
        return self._acc

    def next(self) -> Permutation:
        """Advance the state and return a (near-uniform) group member."""
        if not self.slots:
            return self._acc
        for _ in range(DRAW_MOVES - 1):
            self._move()
        return self._move()


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
            g = self._els[self.rng.randrange(len(self._els))]
            return g.apply_config(bits)
        if self._pr is not None:
            return self._pr.next().apply_config(bits)
        return tuple(bits)


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
