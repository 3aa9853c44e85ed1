"""Exception hierarchy shared by all ergochan modules."""


class ErgochanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ErgochanError, ValueError):
    """Operands have incompatible or invalid shapes."""


class DomainError(ErgochanError, ValueError):
    """A parameter lies outside its admissible range."""


class NumericError(ErgochanError):
    """An iterative linear-algebra routine failed to converge."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class IllConditionedDecompositionError(ErgochanError):
    """A peripheral eigenvalue is not semisimple: the kernel of L - lambda
    is smaller or larger than its cluster of eigenvalues.  No power-bounded
    map has one.  ``singular_value`` of L - lambda decided, against a cut."""

    def __init__(self, message, singular_value):
        super().__init__(message)
        self.singular_value = singular_value


class DecompositionFailureError(ErgochanError):
    """The stable remainder still has spectral radius >= 1, i.e. the
    peripheral eigenvalue set passed in was incomplete."""

    def __init__(self, message, spectral_radius):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class SplittingViolationError(ErgochanError):
    """Ker(I-L) and Rng(I-L) fail to span the whole space at the given
    tolerance."""


class DegenerateInputError(ErgochanError):
    """The requested computation is undefined for this input (e.g. a
    peripheral restriction when the peripheral spectrum is empty)."""


class SpecFormatError(ErgochanError):
    """A channel spec file could not be parsed."""


class SpecValidationError(ErgochanError):
    """A channel spec file parsed but violates the schema invariants."""


class CatalogLookupError(ErgochanError, KeyError):
    """Unknown catalog entry name."""
