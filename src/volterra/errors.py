"""Exception types shared across the package."""


class VolterraError(Exception):
    """Base class for package errors."""


class DomainError(VolterraError, ValueError):
    """Evaluation requested outside the guaranteed domain of a function."""


class HypothesisError(VolterraError, ValueError):
    """A criterion was invoked outside the parameter range where it applies."""


class ConstructionError(VolterraError, RuntimeError):
    """A normalization solve failed to reach its residual target."""


class UnknownSymbolError(VolterraError, KeyError):
    """Requested symbol name is not in the registry."""
