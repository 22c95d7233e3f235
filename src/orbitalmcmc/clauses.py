"""Weighted clause sets, their colored-graph encoding, and model symmetries.

A model is a set of clauses, each either hard (must hold) or carrying a
real weight.  Its symmetries are exactly the automorphisms of a vertex-
colored graph built from the clauses: two nodes per variable joined by an
edge (colored by sign), one node per clause colored by its weight, and an
edge for every literal occurrence.  Evidence pins a variable's unnegated
node to one of two dedicated truth colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .autgroup import automorphism_generators
from .graphs import Graph
from .perm import Permutation, PermutationGroup, _orbit_tuples, orbit_ids

HARD = "inf"

Literal = tuple[int, bool]  # (variable index, negated)
Evidence = dict  # variable name -> bool


def normalize_weight(text: str) -> str:
    """Canonical decimal string: trailing zeros stripped, "inf" means hard.

    Clause-node colors are keyed on this string, so two weights collide
    exactly when their normalized forms are equal.
    """
    text = text.strip()
    if text == HARD:
        return HARD
    sign = ""
    if text.startswith(("-", "+")):
        sign, text = text[0] if text[0] == "-" else "", text[1:]
    if not text.isascii() or not text.replace(".", "", 1).isdigit():
        raise ValueError(f"not a decimal weight: {text!r}")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    text = text.lstrip("0") or "0"
    if text.startswith("."):
        text = "0" + text
    if text == "0":
        sign = ""
    return sign + text


def weight_value(weight: str) -> float:
    return float("inf") if weight == HARD else float(weight)


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]
    weight: str

    @property
    def is_hard(self) -> bool:
        return self.weight == HARD


class WeightedClauseSet:
    """Clauses over named variables, each hard or weighted.

    Literals are canonicalized (sorted, duplicates dropped); a clause
    containing a variable both ways is rejected.  The induced distribution
    is proportional to exp(sum of weights of satisfied soft clauses) over
    assignments satisfying every hard clause.
    """

    def __init__(self, variables: Sequence[str], clauses: Iterable[tuple]):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = tuple(variables)
        canon = []
        for literals, weight in clauses:
            lits = sorted(set((int(v), bool(neg)) for v, neg in literals))
            for v, _ in lits:
                if not 0 <= v < len(self.variables):
                    raise ValueError(f"literal references unknown variable index {v}")
            by_var = {}
            for v, neg in lits:
                if by_var.setdefault(v, neg) != neg:
                    raise ValueError(
                        f"clause contains {self.variables[v]} and its negation")
            canon.append(Clause(tuple(lits), normalize_weight(weight)))
        self.clauses = tuple(canon)

    @property
    def n(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __repr__(self) -> str:
        return f"WeightedClauseSet({self.n} variables, {len(self.clauses)} clauses)"


def parse_clause_file(text: str) -> WeightedClauseSet:
    """Parse the clause text format.

    Line one may declare variables: "vars: a b c".  Every other non-empty
    line is "<weight> :: lit | lit | ..." with "!x" for a negated literal
    and weight "inf" for a hard clause.  Without a header, variables are
    collected in order of first occurrence.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    variables: list[str] = []
    declared = False
    if lines and lines[0].startswith("vars:"):
        variables = lines[0][len("vars:"):].split()
        declared = True
        lines = lines[1:]
    index = {name: i for i, name in enumerate(variables)}
    raw = []
    for ln in lines:
        if "::" not in ln:
            raise ValueError(f"clause line missing '::': {ln!r}")
        weight, body = (part.strip() for part in ln.split("::", 1))
        literals = []
        for tok in body.split("|"):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty literal in {ln!r}")
            neg = tok.startswith("!")
            name = tok[1:] if neg else tok
            if name not in index:
                if declared:
                    raise ValueError(f"undeclared variable {name!r}")
                index[name] = len(variables)
                variables.append(name)
            literals.append((index[name], neg))
        raw.append((literals, weight))
    return WeightedClauseSet(variables, raw)


def format_clause_file(model: WeightedClauseSet) -> str:
    lines = ["vars: " + " ".join(model.variables)]
    for c in model.clauses:
        body = " | ".join(("!" if neg else "") + model.variables[v]
                          for v, neg in c.literals)
        lines.append(f"{c.weight} :: {body}")
    return "\n".join(lines) + "\n"


def parse_evidence_file(text: str) -> Evidence:
    """One "name=true" or "name=false" per line."""
    out: Evidence = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"evidence line missing '=': {ln!r}")
        name, value = (part.strip() for part in ln.split("=", 1))
        if value not in ("true", "false"):
            raise ValueError(f"evidence value must be true or false: {ln!r}")
        if name in out:
            raise ValueError(f"variable {name!r} assigned twice")
        out[name] = value == "true"
    return out


def format_evidence_file(evidence: Evidence) -> str:
    return "".join(f"{name}={'true' if val else 'false'}\n"
                   for name, val in sorted(evidence.items()))


@dataclass(frozen=True)
class VertexMap:
    """Bidirectional correspondence between model entities and graph vertices."""

    pos: tuple[int, ...]     # variable index -> unnegated vertex
    neg: tuple[int, ...]     # variable index -> negated vertex
    clause: tuple[int, ...]  # clause index -> clause vertex


def build_colored_graph(model: WeightedClauseSet,
                        evidence: Optional[Mapping[str, bool]] = None
                        ) -> tuple[Graph, VertexMap]:
    """Colored graph whose automorphisms are exactly the model symmetries.

    Layout: unnegated variable nodes first, then negated nodes, then one
    node per clause.  Color 0 marks negated nodes and color 1 unnegated
    ones; each distinct normalized weight (hard included) gets its own
    clause color; evidence replaces color 1 with a true or false color.
    Unused color ids are compacted away at the end.
    """
    evidence = dict(evidence or {})
    for name in evidence:
        model.var_index(name)

    k = model.n
    pos = tuple(range(k))
    neg = tuple(range(k, 2 * k))
    clause = tuple(range(2 * k, 2 * k + len(model.clauses)))

    weight_color: dict[str, int] = {}
    for c in model.clauses:
        if c.weight not in weight_color:
            weight_color[c.weight] = 2 + len(weight_color)
    true_color = 2 + len(weight_color)
    false_color = true_color + 1

    colors = [0] * (2 * k + len(model.clauses))
    for i in range(k):
        name = model.variables[i]
        if name in evidence:
            colors[pos[i]] = true_color if evidence[name] else false_color
        else:
            colors[pos[i]] = 1
        colors[neg[i]] = 0
    for j, c in enumerate(model.clauses):
        colors[clause[j]] = weight_color[c.weight]

    used = sorted(set(colors))
    remap = {c: i for i, c in enumerate(used)}
    colors = [remap[c] for c in colors]

    edges = [(pos[i], neg[i]) for i in range(k)]
    for j, c in enumerate(model.clauses):
        for v, is_neg in c.literals:
            edges.append((clause[j], neg[v] if is_neg else pos[v]))

    names = (list(model.variables)
             + ["!" + v for v in model.variables]
             + [f"c{j}" for j in range(len(model.clauses))])
    graph = Graph(len(colors), edges, colors, names)
    return graph, VertexMap(pos, neg, clause)


@dataclass(frozen=True)
class SymmetryReport:
    """Detected symmetries of a clause set, on the graph and on the model."""

    graph_group: PermutationGroup       # acts on graph vertices
    model_group: PermutationGroup       # projected action on variables
    variable_orbits: tuple[tuple[int, ...], ...]
    feature_orbits: tuple[tuple[int, ...], ...]


def model_symmetry_group(model: WeightedClauseSet,
                         evidence: Optional[Mapping[str, bool]] = None
                         ) -> SymmetryReport:
    """Compute graph automorphisms and project them onto the variables."""
    graph, vmap = build_colored_graph(model, evidence)
    graph_group = automorphism_generators(graph)
    action = graph_group.point_action()
    variable_of = np.full(graph.n, -1)
    variable_of[list(vmap.pos)] = range(model.n)
    projected = variable_of[action[:, vmap.pos]]
    off = projected < 0
    bad = off | (action[:, vmap.neg] != np.array(vmap.neg)[projected])
    if bad.any():  # the first offending generator, then variable
        g, i = divmod(int(np.flatnonzero(bad)[0]), model.n)
        if off[g, i]:
            raise RuntimeError(
                "graph automorphism maps an unnegated node off the unnegated set")
        raise RuntimeError("inconsistent projection: negated partner disagrees "
                           f"for variable {model.variables[i]}")
    distinct = dict.fromkeys(map(Permutation._trusted, projected.tolist()))
    model_group = PermutationGroup(distinct, n=model.n)

    ids = orbit_ids(action)  # the unnegated vertices' orbits, kept among them, come first
    clause_ids = ids[list(vmap.clause)]
    return SymmetryReport(
        graph_group=graph_group,
        model_group=model_group,
        variable_orbits=tuple(_orbit_tuples(ids[:model.n], range(model.n))),
        feature_orbits=tuple(_orbit_tuples(np.unique(clause_ids, return_inverse=True)[1],
                                           range(len(model.clauses)))),
    )
