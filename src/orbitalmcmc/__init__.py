"""Symmetry detection for discrete probabilistic models and orbit-resampling
Markov chains, verified against exact desk-scale analysis."""

from .autgroup import (
    automorphism_generators,
    color_refine,
    is_automorphism,
)
from .chains import (
    ChainKind,
    ChainTrace,
    ClauseModel,
    IndependentSetModel,
    run_chain,
)
from .clauses import (
    HARD,
    Evidence,
    SymmetryReport,
    WeightedClauseSet,
    build_colored_graph,
    model_symmetry_group,
    parse_clause_file,
    parse_evidence_file,
)
from .errors import GuardExceededError, InfeasibleModelError
from .graphs import Graph
from .perm import (
    OrbitSampler,
    Permutation,
    PermutationGroup,
    ProductReplacement,
    SamplerMode,
    config_orbit_partition,
    format_cycles,
    parse_cycles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
