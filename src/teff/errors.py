"""Exception taxonomy.

Physical conditions (no classical region, no bound state) are kept apart
from numerical failures so that callers can enumerate states by catching
the physical ones and still see genuine numerics problems.
"""


class TeffError(Exception):
    """Base class for all package errors."""


class PotentialError(TeffError):
    """Invalid potential specification or parameters (a configuration error)."""


class NoClassicalRegion(TeffError):
    """The effective radial function is nowhere positive at this energy,
    or the requested angular channel exceeds the well amplitude."""


class MultipleMaxima(TeffError):
    """The effective radial function has more than one separated maximum;
    the single-maximum assumption behind the transform does not hold."""


class Divergent(TeffError):
    """An integral failed to stabilise; numerical, not physical."""


class NoBoundState(TeffError):
    """The requested level exceeds the capacity of the well."""


class NoConvergence(TeffError):
    """An iterative solve did not settle within its iteration budget."""


class LambdaTooSmall(TeffError):
    """The non-linear quantum number form is outside its validity range
    (angular index much smaller than the well amplitude)."""


class BracketMiss(TeffError):
    """An eigenvalue bracket does not contain the requested level."""


class NumericsError(TeffError):
    """Internal numerical consistency check failed."""
