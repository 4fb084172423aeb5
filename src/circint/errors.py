"""Exception types shared across the package."""


class CircError(Exception):
    """Base class for every error raised by this library."""


class NotAUnit(CircError):
    """A residue shares a factor with the modulus."""


class DegenerateOrder(CircError):
    """The order n is too small for the requested object."""


class DegenerateInput(CircError):
    """An input value outside the meaningful domain (e.g. d in {0, 1})."""


class NotSquarefree(CircError):
    """A quadratic-field radicand with a square factor."""


class BothZero(CircError):
    """Kronecker symbol with both arguments zero."""


class OrderMismatch(CircError):
    """Two cyclotomic integers of different orders were combined."""


class OutOfRange(CircError):
    """A residue outside the valid range for the given order."""


class InvalidSet(CircError):
    """A connection set violating its invariants (0 present, out of range)."""


class TooManyOrbits(CircError):
    """Enumeration would exceed the configured budget."""


class UnsupportedLattice(CircError):
    """No floating-point membership test exists for the requested lattice."""


class LimitExceeded(CircError):
    """A modulus or cyclotomic order above the configured resource limit."""


class FieldSpecError(CircError):
    """A field specification string that does not parse."""
