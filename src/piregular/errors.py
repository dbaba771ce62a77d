"""Exception types shared across the toolkit."""


class PiregularError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpec(PiregularError):
    """A ring description violates its own constraints (modulus < 2, non-monic quotient, ...)."""


class MalformedPayload(PiregularError):
    """Raw element data has the wrong shape or nesting for the target ring."""


class SpecMismatch(PiregularError):
    """Operands belong to different rings."""


class DimMismatch(PiregularError):
    """Matrix operands have incompatible dimensions."""


class NotEnumerable(PiregularError):
    """The ring is infinite, so exhaustive enumeration is unavailable."""


class BudgetExceeded(PiregularError):
    """An exhaustive scan would enumerate more matrices than the caller allowed."""


class InvalidBound(PiregularError):
    """A dimension, exponent, sample or worker count, or sampling bound is missing or below 1."""


class ParseError(PiregularError):
    """A ring-spec, element, matrix or expression literal failed to parse."""


class NonCommutativeRing(PiregularError):
    """A determinant-style operation was requested over a non-commutative ring."""


class PreconditionFailed(PiregularError):
    """Input data does not satisfy the identity an operation assumes."""


class DegreeTooLarge(PiregularError):
    """The standard identity degree exceeds the supported factorial range."""


class NonTerminating(PiregularError):
    """A rewrite chain exceeded its step budget."""


class InternalViolation(PiregularError):
    """An identity that must hold by construction or theory failed; implementation bug."""


class UnverifiedCertificate(PiregularError):
    """Refusing to serialize a certificate whose identities do not all hold."""
