"""Exception types shared across the toolkit."""

import sys


class PiregularError(Exception):
    """Base class for every error raised by this package.  ``exit_code`` is
    the CLI's: 2 for bad input, 1 for a negative verdict, 3 for a bug."""

    exit_code = 2


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
    """A scan, a table or an instance's n * dim would exceed DEFAULT_BUDGET
    (2^20), or a result holds an integer with more digits than CPython turns
    into text (``sys.get_int_max_str_digits()``, 4300 by default)."""

    @classmethod
    def digits(cls) -> "BudgetExceeded":
        return cls(f"an integer has more than {sys.get_int_max_str_digits()} digits to print")


class InvalidBound(PiregularError):
    """A dimension, exponent, sample or worker count, or sampling bound is missing or below 1."""


class ParseError(PiregularError):
    """A ring-spec, element, matrix or expression literal failed to parse."""


class NonCommutativeRing(PiregularError):
    """A determinant-style operation was requested over a non-commutative ring."""


class PreconditionFailed(PiregularError):
    """Input data does not satisfy the identity an operation assumes."""

    exit_code = 1


class DegreeTooLarge(PiregularError):
    """The standard identity degree exceeds the supported factorial range."""


class NonTerminating(PiregularError):
    """A rewrite chain exceeded its step budget."""


class InternalViolation(PiregularError):
    """An identity that must hold by construction or theory failed; implementation bug."""

    exit_code = 3


class UnverifiedCertificate(PiregularError):
    """Refusing to serialize a certificate whose identities do not all hold."""

    exit_code = 1
