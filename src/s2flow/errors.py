"""Exception types shared across the package.

Everything raised on purpose derives from S2FlowError so callers (and the
command line driver) can distinguish domain failures from bugs.
"""


class S2FlowError(Exception):
    """Base class for all domain errors raised by this package."""


class ResourceLimitError(S2FlowError):
    """Requested object exceeds a hard resource guard (e.g. mesh level)."""


class FileFormatError(S2FlowError):
    """A mesh/map/params file does not parse; message carries line numbers."""


class ParameterDomainError(S2FlowError):
    """Parameter outside its mathematical domain (e.g. dilation |a| >= 1)."""


class PointLocationError(S2FlowError):
    """A point lies in no face around its nearest mesh vertex."""


class InterpolationDegenerateError(S2FlowError):
    """Interpolated vector too short to renormalize (antipodal cancellation)."""


class PullbackUnderresolvedError(S2FlowError):
    """Composition would compress features below the mesh resolution."""


class DegreeUnresolvedError(S2FlowError):
    """Face-sum degree is too far from an integer to round safely."""


class PreconditionError(S2FlowError):
    """Operation precondition violated (e.g. input map must have degree one)."""


class BalanceFailedError(S2FlowError):
    """Centering iteration did not reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SolverError(S2FlowError):
    """A linear solve did not meet its residual tolerance."""


class StepDegenerateError(S2FlowError):
    """A flow step produced a vector too short to renormalize."""


class EnergyMonotonicityError(S2FlowError):
    """Discrete energy increased beyond tolerance even after halving dt."""


class CertificateError(S2FlowError):
    """A flow certificate inequality failed numerically."""


class FitFailedError(S2FlowError):
    """Conformal fit did not reach its gradient tolerance; carries best params."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class VacuousRegimeError(S2FlowError):
    """Excess energy too large for the small-excess pipeline to say anything."""
