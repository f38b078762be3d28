"""Exception types shared across the engine."""


class HybridMknfError(Exception):
    """Base class for all engine errors."""


class KbSyntaxError(HybridMknfError):
    """Raised when a .kb document cannot be parsed."""


class UndeclaredSymbol(HybridMknfError):
    """A sort, constant, predicate or role is used without a declaration."""


class SortMismatch(HybridMknfError):
    """A term or concept is used at a position of an incompatible sort."""


class UnsortableVariable(HybridMknfError):
    """An axiom whose concepts do not determine the sort it ranges over."""


class EmptyIntersection(HybridMknfError):
    """A classical theory has no models (raised by theory_model_set)."""


class CrossComponentFormula(HybridMknfError):
    """A query formula spans several components whose joint enumeration
    exceeds the configured budget."""


class EmptyUpdate(HybridMknfError):
    """An update sequence contains an unsatisfiable theory."""


class MixedLayer(HybridMknfError):
    """A layer mixes ontology axioms with proper rules and cannot be solved."""


class NotUpdatable(HybridMknfError):
    """No update-enabling layering was found for a knowledge base sequence."""


class NotUpdateEnabling(HybridMknfError):
    """The chosen layering is not update-enabling for the knowledge bases."""


class ResourceLimit(HybridMknfError):
    """A configured enumeration or branching budget would be exceeded."""
