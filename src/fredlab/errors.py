"""Exception vocabulary shared by all fredlab modules, and the integer check
that every experiment's sizes and counts pass, and every seed on its way to
``gallery.generator``."""

import operator


class FredlabError(Exception):
    """Base class for all fredlab errors."""


class NonSquare(FredlabError):
    """A square matrix was required."""


class NotSymmetric(FredlabError):
    """Symmetry beyond the allowed relative slack was required."""


class NoConvergence(FredlabError):
    """An iterative eigensolver or factorization failed to converge."""


class MalformedMatrix(FredlabError, ValueError):
    """A matrix was not two-dimensional or held NaN or Inf entries, or a
    subspace basis was not an orthonormal set of columns in its ambient space."""


class InvalidMetric(FredlabError, ValueError):
    """A metric report entry was NaN, infinite or negative."""


class EmptyMatrix(FredlabError):
    """A matrix with at least one entry was required."""


class FunctionUndefinedAtEigenvalue(FredlabError):
    """A scalar function returned a non-finite value at some eigenvalue."""


class AmbientMismatch(FredlabError):
    """Two subspaces live in different ambient dimensions."""


class DimensionMismatch(FredlabError):
    """Two operators act on spaces of different dimensions."""


class InvalidSpec(FredlabError):
    """An operator-family specification violates its constraints."""


class InvalidConfig(FredlabError):
    """A setting violates its constraints: a size, count, flip index or seed
    that is not an integer in range (see :func:`require_integer`; seeds are
    checked in ``gallery.generator``), or a coefficient, boundary angle or
    other setting of a run or a boundary-value problem."""


class MassNotPositiveDefinite(FredlabError):
    """The mass matrix of a discretization is not positive definite."""


class NoRootBracketed(FredlabError):
    """A root search was given an empty or malformed interval."""


class SamplingTooCoarse(FredlabError):
    """Parameter samples are too far apart to track eigenvalues safely."""


def require_integer(value, what, low):
    """``value`` as an ``int``; :class:`InvalidConfig` unless it is an integer
    of at least ``low``."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise InvalidConfig(f"need an integer {what}: {exc}") from None
    if value < low:
        raise InvalidConfig(f"need {what} >= {low}, got {value}")
    return value
