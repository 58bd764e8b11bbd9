"""Exception hierarchy shared across the toolkit, and the one check for
a count argument."""

import numbers


class CdFilterError(Exception):
    """Base class for all errors raised by this package."""


class RecoverableRhsError(CdFilterError):
    """An ODE right-hand side failed in a way that permits retrying with a
    smaller step (the adaptive solver rejects and halves)."""


class NotSymmetric(CdFilterError):
    """Input matrix is not symmetric within tolerance."""


class NotPositiveSemiDefinite(CdFilterError):
    """Input matrix has a significantly negative pivot."""


class SingularFactor(RecoverableRhsError):
    """A square factor is numerically singular; linear solves against it
    cannot proceed.  Recoverable inside an adaptive integration."""


class MaxStepsExceeded(CdFilterError):
    """The ODE solver exhausted its step budget."""


class StepUnderflow(CdFilterError):
    """The adaptive step size collapsed below resolvable size."""


class MissingDerivatives(CdFilterError):
    """The Ito-Taylor baseline needs a drift Jacobian, or Hessians under
    nonzero process noise, that the model does not provide."""


class DegenerateInnovationCovariance(CdFilterError):
    """The innovation covariance factor has a zero diagonal entry; the gain
    solve is ill-posed."""


class NonFiniteBelief(CdFilterError):
    """A belief's mean or factor is non-finite, or so large that its
    cubature points give a non-finite predicted measurement."""


class AtStationSingularity(CdFilterError):
    """Target is directly above the radar station; azimuth is undefined."""


class AllTrialsDivergent(CdFilterError):
    """RMSE requested but every trial diverged."""


def check_count(name: str, value, minimum: int):
    """Reject a ``value`` that is not an integer >= ``minimum`` with a
    ``ValueError`` naming ``name``.  NumPy integers are integers; ``bool``
    is not a count."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
