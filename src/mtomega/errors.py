"""Exception types shared across the toolkit."""


class MTOmegaError(Exception):
    """Base class for all toolkit errors."""


class LengthError(MTOmegaError):
    """Index has the wrong length for the requested operation (usually r < 2)."""


class NotInH1Error(MTOmegaError):
    """A word is not in the subalgebra spanned by words ending in x1."""


class NotAdmissibleError(MTOmegaError):
    """A word is non-admissible where a convergent value is required."""


class EmptyWordError(MTOmegaError):
    """Left multiplication by `a` applied to a term with no leading letter."""


class RangeError(MTOmegaError):
    """Numeric argument outside the documented range."""


class NotIntegralError(MTOmegaError):
    """Cyclotomic element is not integral at (1 - zeta_p) after unit clearing."""


class PrecisionError(MTOmegaError):
    """Inputs carry fewer certified digits than the computation requires."""


class DependentInputError(MTOmegaError):
    """Lattice basis reduction received linearly dependent input vectors."""


class ConfigError(MTOmegaError):
    """Invalid run configuration (CLI exit code 1)."""
