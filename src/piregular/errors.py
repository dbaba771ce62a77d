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
    """A scan, a table, an instance's n * dim, a raised m * dim, a lowered left
    witness's N, a parsed power's size, the work of a sampled standard identity's
    samples (each entry product charged the square of an entry's coefficient
    slots) or a search's tuples of matrix units would exceed DEFAULT_BUDGET (2^20),
    the term products made parsing one text would exceed WORK_BUDGET (2^18), the
    dense coefficient slots its sums, products and negations walk would exceed
    SLOT_BUDGET (2^22), a product walking the right factor's slots once per nonzero
    entry of the left and a slot costing one per polynomial layer of the ring, or a
    result holds an integer with more digits than CPython turns into text
    (``sys.get_int_max_str_digits()``, 4300 by default)."""

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
    """The standard identity degree is not an integer from 1 to MAX_DEGREE (8);
    a bool or a float is no degree."""


class NonTerminating(PiregularError):
    """A rewrite chain exceeded its step budget."""


class InternalViolation(PiregularError):
    """An identity that must hold by construction or theory failed; implementation bug."""

    exit_code = 3


class UnverifiedCertificate(PiregularError):
    """Refusing to serialize a certificate whose identities do not all hold."""

    exit_code = 1
