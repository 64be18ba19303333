"""mtomega: finite, cyclotomic, and symmetric Mordell-Tornheim multiple omega values.

Exact word-algebra computations, modular and cyclotomic evaluation, certified
high-precision numerics, and lattice relation mining for the dimension
tables of the omega-value spaces.
"""

__version__ = "0.1.0"

from .errors import MTOmegaError  # noqa: F401
