"""Exception hierarchy shared by all affinemetrics modules."""

from __future__ import annotations


class AffineMetricsError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# expression parsing / evaluation

class ExprError(AffineMetricsError):
    """Base class for tokenizer/parser/evaluator errors."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class InvalidCharacter(ExprError):
    pass


class ExprSyntaxError(ExprError):
    pass


class UnexpectedEnd(ExprSyntaxError):
    pass


class UnknownIdentifier(ExprError):
    def __init__(self, name, position=None):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class DomainError(AffineMetricsError):
    """Evaluation left the domain of an elementary function (log of a
    nonpositive number, sqrt of a negative, division by zero, ...)."""


# ---------------------------------------------------------------------------
# jets

class OrderMismatch(AffineMetricsError):
    pass


class UnsupportedOrder(AffineMetricsError):
    pass


# ---------------------------------------------------------------------------
# curve geometry

class DegenerateCurve(AffineMetricsError):
    """det[a', a'', a'''] is zero against its six terms (jets.ZERO_RTOL)."""


class NegativeOrientation(AffineMetricsError):
    """det[a', a'', a'''] < 0: the curve is negatively oriented and the
    real sixth root does not exist.  Carries the raw determinant so the
    caller may mirror the curve explicitly."""

    def __init__(self, det):
        super().__init__(f"negative curve orientation: det = {det!r}")
        self.det = det


class ZeroSpeed(AffineMetricsError):
    pass


class EuclideanDegenerate(AffineMetricsError):
    """a' and a'' are parallel: the Euclidean Frenet frame is undefined."""


class NonpositiveTorsion(AffineMetricsError):
    pass


# ---------------------------------------------------------------------------
# surface geometry

class IrregularPoint(AffineMetricsError):
    """X_u x X_v vanishes: the parametrization is not regular here."""


class DegenerateSurfacePoint(AffineMetricsError):
    """ln - m^2 is zero against its terms (jets.ZERO_RTOL): the affine
    fundamental form is undefined at this point."""


class SingularJacobian(AffineMetricsError):
    pass


class DomainExit(AffineMetricsError):
    """A requested evaluation point lies outside the declared parameter
    domain."""


# ---------------------------------------------------------------------------
# commensurate curves

class NegativeForm(AffineMetricsError):
    """The affine fundamental form has the wrong sign on the requested
    tangent direction for the sign branch in use, so the induced
    arc-length integrand is undefined there.  ``value`` is the raw form
    value and ``orientation`` the branch: +1 for sqrt(form), -1 for
    sqrt(-form)."""

    def __init__(self, value, orientation=1.0):
        branch = "negative" if orientation < 0.0 else "positive"
        super().__init__(f"form value {value!r} has the wrong sign for the "
                         f"decided {branch} branch")
        self.value = value
        self.orientation = orientation


class SingularDenominator(AffineMetricsError):
    """The coefficient multiplying theta'' in the curve condition vanished,
    so theta'' cannot be solved for.  The coefficient's size is |q| gm, so
    this happens only on an asymptotic direction: where q = form(a') is
    zero against its terms (jets.ZERO_RTOL).  No solve ends with it: the
    solver's AsymptoticProximity event stops a trace where the ratio
    |q| / gm reaches eps_asym."""


class InvalidIVP(AffineMetricsError):
    """Initial data starts on (or too close to) an asymptotic direction."""


# ---------------------------------------------------------------------------
# numerics kernels

class QuadratureFailure(AffineMetricsError):
    pass


class NonFiniteValue(AffineMetricsError):
    pass


class StepFailure(AffineMetricsError):
    """Adaptive step size underflowed.  ``trace`` holds the partial solution
    computed before the failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MaxSteps(AffineMetricsError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NoBracket(AffineMetricsError):
    pass
