"""Exception hierarchy shared across the engine."""


class SymconjError(Exception):
    """Base class for all engine errors."""


class ContractionError(SymconjError):
    """Malformed einsum formula or operand/index mismatch."""


class NumericDomainError(SymconjError):
    """A kernel was evaluated outside its numeric domain (log of a
    nonpositive value, reciprocal of zero, ...)."""


class EncodingError(SymconjError):
    """Invalid one-hot encoding request (non-integral or out-of-range index)."""


class FactorizationError(SymconjError):
    """Matrix factorization failure (non-square or singular input)."""


class GraphError(SymconjError):
    """Inconsistent term-graph construction or evaluation request."""


class NonDifferentiableError(GraphError):
    """A gradient path crosses a primitive with no derivative rule."""


class RuleApplicationError(SymconjError):
    """A rewriter produced a subgraph violating the matched node's contract."""

    def __init__(self, message, rule=None):
        super().__init__(message)
        self.rule = rule


class CanonicalizationError(SymconjError):
    """The rewrite driver reached an inconsistent state."""


class NonTerminationError(CanonicalizationError):
    """Rewrite budget exhausted; carries the most recent rule firings."""

    def __init__(self, message, recent_rules=()):
        super().__init__(message)
        self.recent_rules = tuple(recent_rules)


class ConjugacyError(SymconjError):
    """Base class for conjugacy-analysis failures."""


class UnknownFamilyError(ConjugacyError):
    """Discovered statistics match no registered family, or one only without
    a statistic it needs to be proper. ``atoms`` names the offenders: the
    rendered atoms no statistic matched, or the descriptors at fault."""

    def __init__(self, message, atoms=()):
        super().__init__(message)
        self.atoms = tuple(atoms)


class NonMultiaffineError(ConjugacyError):
    """The log density is not multiaffine in a variable's statistics."""


class NaturalDomainError(SymconjError):
    """Natural parameters fall outside a family's natural domain."""


class SupportError(SymconjError):
    """A value violates a distribution's declared support."""
