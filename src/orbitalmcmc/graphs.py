"""Undirected graphs with vertex colors, for independent-set models and
automorphism search, their independent sets, and their text file format."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import GuardExceededError, enumeration_cap

_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to bit values


class Graph:
    """Simple undirected graph with dense integer vertex colors (default: one
    color) and optional vertex names."""

    __slots__ = ("n", "colors", "edges", "adj", "names")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 colors: Optional[Sequence[int]] = None,
                 names: Optional[Sequence[str]] = None):
        if colors is None:
            colors = [0] * n
        if len(colors) != n:
            raise ValueError(f"{len(colors)} colors for {n} vertices")
        palette = set(colors)
        if palette and palette != set(range(len(palette))):
            raise ValueError("colors must be dense integers starting at 0")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((u, v) if u < v else (v, u))
        if names is not None and len(names) != n:
            raise ValueError("vertex name count does not match n")
        self.n = n
        self.colors = tuple(colors)
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.names = tuple(names) if names is not None else None

    @property
    def num_colors(self) -> int:
        return len(set(self.colors)) if self.n else 0

    def to_colored(self) -> "Graph":
        """The graph itself: every graph carries colors.  Kept because
        `perfbench/workloads.py` calls it."""
        return self

    def is_independent(self, bits: Sequence[int]) -> bool:
        return not any(bits[u] and bits[v] for u, v in self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)}, c={self.num_colors})"


def enumerate_independent_sets(graph: Graph) -> list[bytes]:
    """All independent sets as `bytes` configurations, in lexicographic order.

    Raises GuardExceededError once more than `enumeration_cap()` sets are
    certain: at the cap, or on reaching a set of s vertices with 2^s over
    it, since its subsets are all independent.  The search keeps each set
    as an integer with vertex 0 as the top bit, so neither its memory nor
    its depth grows with the vertex count before the guard.
    """
    cap = enumeration_cap()
    n = graph.n
    masks: list[int] = []

    def grow(mask: int, size: int, candidates: list[int]) -> None:
        if len(masks) >= cap or 1 << size > cap:
            raise GuardExceededError(
                f"more than {cap} independent sets (cap exceeded)")
        masks.append(mask)
        for i, v in enumerate(candidates):
            blocked = set(graph.adj[v])
            grow(mask | 1 << (n - 1 - v), size + 1,
                 [w for w in candidates[i + 1:] if w not in blocked])

    grow(0, 0, list(range(n)))
    masks.sort()
    return [bin(m | 1 << n)[3:].encode().translate(_BITS) for m in masks]


def default_names(n: int) -> list[str]:
    """Letters a..z, then v26, v27, ..."""
    return [chr(ord("a") + i) if i < 26 else f"v{i}" for i in range(n)]


def write_graph(path, graph: Graph) -> None:
    """Text format: header "n m c", then "vertex color" lines, then "u v" lines."""
    lines = [f"{graph.n} {len(graph.edges)} {graph.num_colors}"]
    lines += [f"{v} {graph.colors[v]}" for v in range(graph.n)]
    lines += [f"{u} {v}" for u, v in sorted(graph.edges)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

