"""Symmetry detection for discrete probabilistic models and orbit-resampling
Markov chains, verified against exact desk-scale analysis.

The top level holds README's API; every other name lives in its submodule."""

from .autgroup import automorphism_generators
from .chains import ChainKind, IndependentSetModel, run_chain
from .perm import SamplerMode

__version__ = "0.1.0"

__all__ = ["ChainKind", "IndependentSetModel", "SamplerMode", "automorphism_generators",
           "run_chain"]
