"""Exception hierarchy shared by all ergochan modules."""


class ErgochanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ErgochanError, ValueError):
    """Operands have incompatible or invalid shapes."""


class DomainError(ErgochanError, ValueError):
    """A parameter lies outside its admissible range."""


class NumericError(ErgochanError):
    """An iterative linear-algebra routine failed to converge."""


class IllConditionedDecompositionError(ErgochanError):
    """An unresolved peripheral cluster.  Its size m is dim Ker(L - lambda),
    as every peripheral eigenvalue of a power-bounded map is semisimple,
    but sigma_m of L - lambda, ``singular_value``, is above the rank cut or
    not below ``ergodic.SEPARATION`` times sigma_{m+1}."""

    def __init__(self, message, singular_value):
        super().__init__(message)
        self.singular_value = singular_value


class DecompositionFailureError(ErgochanError):
    """The decomposition is refused: L is not power bounded, a lambda
    matches no cluster, the Cesaro check fails, or rho(S) >= 1; the
    message gives the number that decided it."""


class SplittingViolationError(ErgochanError):
    """Ker(I-L) and Rng(I-L) fail to span the whole space at the given
    tolerance."""


class DegenerateInputError(ErgochanError):
    """The requested computation is undefined for this input (e.g. a
    peripheral restriction when the peripheral spectrum is empty)."""


class SpecFormatError(ErgochanError):
    """An input file could not be read, decoded or parsed as JSON, or an
    output file could not be written."""


class SpecValidationError(ErgochanError):
    """A channel spec file parsed but violates the schema invariants."""


class CatalogLookupError(ErgochanError, KeyError):
    """Unknown catalog entry name."""
