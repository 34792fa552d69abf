"""Exception types shared across the package."""


class OrbichernError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` is the command line's exit status: 2, a cross-check that
    must hold did not, unless the class is an input error (1).
    """

    exit_code = 2


class ZeroInversion(OrbichernError):
    """Attempted to invert zero in an exact field."""


class FieldMismatch(OrbichernError):
    """Cyclotomic scalars of different conductors were mixed, or embedded
    into a field that does not contain them."""


class InvalidLabel(OrbichernError):
    """ADE label outside the admissible range."""

    exit_code = 1


class BoundExceeded(OrbichernError):
    """Multiplicative closure grew past the requested bound."""


class IdentityFailure(OrbichernError, ArithmeticError):
    """An identity or cross-check that must hold exactly did not; the message
    carries what failed.  Also an ``ArithmeticError``, so a caller that
    catches exact-arithmetic failures in general catches it too."""


class NonRationalTotal(OrbichernError):
    """A sum that must collapse to a rational number did not."""


class TraceTwoNonIdentity(OrbichernError):
    """A nontrivial group element or class reported trace 2."""


class DescriptionError(OrbichernError):
    """A surface description failed strict validation."""

    exit_code = 1
