"""symconj: a symbolic conjugacy engine.

Write a log-joint density as a tensor expression graph; the engine
canonicalizes it into a sum of einsum monomials, recognizes
exponential-family structure in each variable, and derives complete
conditionals, marginals, Gibbs samplers, and block mean-field updates.
"""

from .canonicalize import CanonicalForm, canonicalize, is_canonical, local_simplify
from .conjugacy import (
    ConditionalFactory, MultilinearRepr, StatisticSet, complete_conditional,
    find_sufficient_statistics, extract_natural_parameters, marginalize,
    multilinear_repr,
)
from .expfam import (
    Distribution, SupportType, log_normalizer, log_prob, mean_params,
    register_builtin_families, sample,
)
from .graph import (
    ExprHandle, GraphBuilder, TermGraph, build, cse, dump, evaluate, grad,
    parse, splice, subgraph,
)
from .inference import (
    GibbsState, MeanFieldState, cavi_update, elbo, gibbs_sweep,
    init_meanfield, make_gibbs, run_cavi, run_gibbs,
)
from .models import ModelFixture, fixture, fixtures
from .pattern import Rule, apply_rule

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm", "canonicalize", "is_canonical", "local_simplify",
    "ConditionalFactory", "MultilinearRepr", "StatisticSet",
    "complete_conditional", "find_sufficient_statistics",
    "extract_natural_parameters", "marginalize", "multilinear_repr",
    "Distribution", "SupportType", "log_normalizer", "log_prob",
    "mean_params", "register_builtin_families", "sample",
    "ExprHandle", "GraphBuilder", "TermGraph", "build", "cse", "dump",
    "evaluate", "grad", "parse", "splice", "subgraph",
    "GibbsState", "MeanFieldState", "cavi_update", "elbo", "gibbs_sweep",
    "init_meanfield", "make_gibbs", "run_cavi", "run_gibbs",
    "ModelFixture", "fixture", "fixtures",
    "Rule", "apply_rule",
]
