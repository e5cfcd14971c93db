"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code of its failures as ``exit_code``, which
``cli.main`` returns, the one place that maps failures to codes: 2 for
SchemaError and exact input-validation failures such as InvalidInput (the
base-class default), 3 for ConeTooLarge, 4 for NumericDomainError.
"""


class HodgeChartsError(Exception):
    """Base class for all library errors."""
    exit_code = 2


class SchemaError(HodgeChartsError):
    """Malformed or inconsistent input data (JSON schema level)."""


class InvalidInput(HodgeChartsError, ValueError):
    """An argument outside a library function's domain; also a ValueError."""


class ConeTooLarge(HodgeChartsError):
    """A declared size exceeds its cap: the generator count of a cone, a
    residue-mode exponent, a summed cohomology dimension of an lmhs surface,
    or an ndim sample count above serialize.MAX_NDIM_SAMPLES."""
    exit_code = 3


class NotNilpotent(HodgeChartsError):
    """A matrix required to be nilpotent is not."""


class NotFiltrationCompatible(HodgeChartsError):
    """A map does not shift the filtration steps as required."""


class InvalidSplit(HodgeChartsError):
    """A stratum K whose S_K^perp does not vanish on K: some N_i with i in K
    is not in W_-1(ad N_K), so the cone is not strictly convex."""


class SeparationFailure(HodgeChartsError):
    """Two chart strata could not be separated by a vanishing pattern."""


class IncidenceError(HodgeChartsError):
    """Inconsistent incidence data in a normal-crossing configuration."""


class NotAComplex(HodgeChartsError):
    """A composition that must vanish is nonzero."""


class Disconnected(HodgeChartsError):
    """A dual graph required to be connected is not."""


class NumericDomainError(HodgeChartsError):
    """Base class for floating-point domain failures."""
    exit_code = 4


class NotPolarized(NumericDomainError):
    """A flag fails the positivity test of a polarized Hodge structure."""


class PoorFit(NumericDomainError):
    """An asymptotic fit exceeds the residual threshold."""


class PZero(NumericDomainError):
    """The solvable-parameter system degenerates (p(y) = 0)."""


class NotInDomain(NumericDomainError):
    """A point fails the open-domain inequalities of a parameter solve."""
