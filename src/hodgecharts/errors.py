"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code of its failures as ``exit_code``, which
``cli.main`` returns: 2 for SchemaError and exact input-validation failures
(the base-class default), 3 for ConeTooLarge, 4 for NumericDomainError.
"""


class HodgeChartsError(Exception):
    """Base class for all library errors."""
    exit_code = 2


class SchemaError(HodgeChartsError):
    """Malformed or inconsistent input data (JSON schema level)."""


class ConeTooLarge(HodgeChartsError):
    """A declared size exceeds its cap: the generator count of a cone, a
    residue-mode exponent, or a summed cohomology dimension of an lmhs surface."""
    exit_code = 3


class NotNilpotent(HodgeChartsError):
    """A matrix required to be nilpotent is not."""


class NotInvariant(HodgeChartsError):
    """A map does not carry the given domain subspace into the codomain."""


class NotFiltrationCompatible(HodgeChartsError):
    """A map does not shift the filtration steps as required."""


class InvalidSplit(HodgeChartsError):
    """The support subset passed along with S is not the one S determines."""


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


class SampleInconsistent(NumericDomainError):
    """Exact and sampled data disagree about a quantity that must vanish."""
