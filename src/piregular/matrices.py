"""Square matrices over described rings, with division-free determinants.

A matrix holds rows of canonical payloads and does all of its arithmetic
on them through the entry ring's payload methods (``p_add``, ``p_dot``,
...).  The ring's ``p_matmul`` is the one product kernel;
``SquareMatrix.__mul__`` is its checked boundary wrapper, which matches
ring and dimension and then makes one kernel call.  ``RingElem`` appears
only at the boundary, in ``entries``, ``entry`` and
``UniPolynomial.coefficients``.  Matrix arithmetic never assumes the entry
ring is commutative, so the same type also carries matrices over the free
algebra, whose payloads are the polynomials themselves.
Determinant-flavoured operations (characteristic polynomial, determinants
of polynomial matrices) do require commutativity and refuse anything else.

Characteristic polynomials use the Samuelson-Berkowitz recurrence: the
coefficient vector of each leading principal block is pushed through a
Toeplitz convolution built from one new row and column.  That keeps the
whole computation inside the coefficient ring, with no divisions, which is
what makes it usable over rings with zero divisors like Z_k or Z_3[t]/(t^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DimMismatch, NonCommutativeRing, ParseError, SpecMismatch
from .rings import (
    PolyOver,
    RingElem,
    RingSpec,
    _seq_add,
    _seq_mul,
    _seq_neg,
    _strip,
    binary_power,
    parse_element,
)


def _require_dim(dim: int) -> None:
    if dim < 1:
        raise DimMismatch(f"matrices must have dimension >= 1, got {dim}")


@dataclass(frozen=True, slots=True)
class SquareMatrix:
    """An m-by-m matrix with entries from a single ring.

    ``rows`` holds canonical payloads and all arithmetic runs on them
    through the ring's ``p_*`` methods; :attr:`entries` and :meth:`entry`
    wrap payloads into boundary elements on the way out.  Build instances
    with :meth:`from_rows`; the dataclass constructor assumes canonical
    payload rows.
    """

    ring: object
    rows: tuple

    @staticmethod
    def from_rows(ring, rows) -> "SquareMatrix":
        rows = list(rows)
        dim = len(rows)
        _require_dim(dim)
        coerced = []
        for row in rows:
            row = list(row)
            if len(row) != dim:
                raise DimMismatch(f"expected {dim} entries per row, got {len(row)}")
            coerced.append(tuple(ring.p_coerce(value) for value in row))
        return SquareMatrix(ring, tuple(coerced))

    @staticmethod
    def identity(ring, dim: int) -> "SquareMatrix":
        _require_dim(dim)
        one, zero = ring.one_payload(), ring.zero_payload()
        return SquareMatrix(ring, tuple(
            tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))

    @staticmethod
    def zeros(ring, dim: int) -> "SquareMatrix":
        _require_dim(dim)
        zero = ring.zero_payload()
        return SquareMatrix(ring, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        wrap = self.ring.wrap
        return tuple(tuple(map(wrap, row)) for row in self.rows)

    def entry(self, i: int, j: int):
        return self.ring.wrap(self.rows[i][j])

    def _match(self, other) -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            raise SpecMismatch(f"cannot combine a matrix with {other!r}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise SpecMismatch("matrices live over different rings")
        if len(other.rows) != len(self.rows):
            raise DimMismatch(f"dimension mismatch: {len(self.rows)} vs {len(other.rows)}")
        return other

    def _zip_with(self, op, other) -> "SquareMatrix":
        return SquareMatrix(self.ring, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, self._match(other).rows)))

    def __add__(self, other):
        return self._zip_with(self.ring.p_add, other)

    def __sub__(self, other):
        return self._zip_with(self.ring.p_sub, other)

    def __neg__(self):
        neg = self.ring.p_neg
        return SquareMatrix(self.ring, tuple(tuple(map(neg, row)) for row in self.rows))

    def __mul__(self, other):
        return SquareMatrix(self.ring, self.ring.p_matmul(self.rows, self._match(other).rows))

    def __pow__(self, exponent: int):
        return binary_power(self, exponent, lambda: SquareMatrix.identity(self.ring, self.dim))

    def scale(self, value) -> "SquareMatrix":
        c, mul = self.ring.p_coerce(value), self.ring.p_mul
        return SquareMatrix(self.ring, tuple(tuple(mul(a, c) for a in row) for row in self.rows))

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(self.ring, tuple(zip(*self.rows)))

    @property
    def is_zero(self) -> bool:
        zero = self.ring.zero_payload()
        return all(a == zero for row in self.rows for a in row)

    def __str__(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(str(a) for a in row) + "]" for row in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class UniPolynomial:
    """A univariate polynomial over a described ring, stored as canonical
    coefficient payloads low-to-high with no trailing zeros; ``coefficients``
    and ``coefficient`` wrap them on the way out."""

    spec: RingSpec
    payloads: tuple

    @staticmethod
    def from_coeffs(spec: RingSpec, coeffs) -> "UniPolynomial":
        return UniPolynomial.from_payloads(spec, map(spec.p_coerce, coeffs))

    @staticmethod
    def from_payloads(spec: RingSpec, payloads) -> "UniPolynomial":
        """The polynomial with these canonical payloads, low to high."""
        return UniPolynomial(spec, _strip(spec, list(payloads)))

    @staticmethod
    def x_power(spec: RingSpec, k: int) -> "UniPolynomial":
        return UniPolynomial(spec, (spec.zero_payload(),) * k + (spec.one_payload(),))

    @property
    def degree(self) -> int:
        return len(self.payloads) - 1

    @property
    def is_zero(self) -> bool:
        return not self.payloads

    @property
    def coefficients(self) -> tuple:
        return tuple(map(self.spec.wrap, self.payloads))

    def coefficient(self, k: int) -> RingElem:
        if 0 <= k < len(self.payloads):
            return self.spec.wrap(self.payloads[k])
        return self.spec.zero()

    def _match(self, other) -> "UniPolynomial":
        if not isinstance(other, UniPolynomial) or other.spec != self.spec:
            raise SpecMismatch("polynomials live over different rings")
        return other

    def _seq(self, op, *others) -> "UniPolynomial":
        """Apply a payload-sequence operation (``rings._seq_*``) to this
        polynomial and ``others``."""
        operands = (self, *map(self._match, others))
        return UniPolynomial.from_payloads(
            self.spec, op(self.spec, *(p.payloads for p in operands)))

    def __add__(self, other):
        return self._seq(_seq_add, other)

    def __sub__(self, other):
        return self + -self._match(other)

    def __neg__(self):
        return self._seq(_seq_neg)

    def __mul__(self, other):
        return self._seq(_seq_mul, other)

    def shift(self, k: int) -> "UniPolynomial":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return UniPolynomial(self.spec, (self.spec.zero_payload(),) * k + self.payloads)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        var = _fresh_variable(self.spec, "xyzuvw")
        pieces = []
        for degree, c in enumerate(self.coefficients):
            if c.is_zero:
                continue
            if degree == 0:
                pieces.append(str(c))
            else:
                power = var if degree == 1 else f"{var}^{degree}"
                pieces.append(power if c.is_one else f"({c})*{power}")
        return "+".join(pieces).replace("+-", "-")


@dataclass(frozen=True, slots=True)
class MatrixPolynomial:
    """A polynomial whose coefficients are square matrices over one ring,
    stored low-to-high with no trailing zero matrix."""

    ring: object
    dim: int
    coefficients: tuple

    @staticmethod
    def from_matrices(ring, dim: int, mats: Sequence[SquareMatrix]) -> "MatrixPolynomial":
        out = []
        for mat in mats:
            if not isinstance(mat, SquareMatrix):
                raise SpecMismatch("matrix polynomial coefficients must be SquareMatrix")
            if mat.ring != ring:
                raise SpecMismatch("coefficient matrices live over different rings")
            if mat.dim != dim:
                raise DimMismatch(f"coefficient dimension {mat.dim}, expected {dim}")
            out.append(mat)
        while out and out[-1].is_zero:
            out.pop()
        return MatrixPolynomial(ring, dim, tuple(out))

    @staticmethod
    def from_scalar(poly: UniPolynomial, dim: int) -> "MatrixPolynomial":
        """Lift a scalar polynomial: each coefficient c becomes c * identity."""
        ring = poly.spec
        ident = SquareMatrix.identity(ring, dim)
        return MatrixPolynomial.from_matrices(
            ring, dim, [ident.scale(c) for c in poly.coefficients])

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> SquareMatrix:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return SquareMatrix.zeros(self.ring, self.dim)


def _fresh_variable(spec, pool: str) -> str:
    """The first name in ``pool`` that no polynomial layer of ``spec`` uses."""
    used = set()
    while spec is not None:
        used.add(getattr(spec, "variable", None))
        spec = getattr(spec, "base", None)
    return next(v for v in pool if v not in used)


def _require_commutative(ring):
    if not getattr(ring, "commutative", False):
        raise NonCommutativeRing("determinants need a commutative coefficient ring")


def berkowitz_char_poly(mat: SquareMatrix) -> UniPolynomial:
    """Characteristic polynomial det(xI - A), division-free.

    Runs the Samuelson-Berkowitz recurrence over leading principal blocks:
    if the block grows by a bottom-right scalar a with new row R and column
    C against the old block M, the new coefficient vector is the Toeplitz
    convolution of (1, -a, -RC, -RMC, -RM^2 C, ...) with the old one.  The
    recurrence runs on payloads; only the coefficients are wrapped.
    """
    _require_commutative(mat.ring)
    ring, rows, m = mat.ring, mat.rows, mat.dim
    dot, neg = ring.p_dot, ring.p_neg
    coeffs = [ring.one_payload()]  # leading-first; char poly of the empty block is 1
    for k in range(1, m + 1):
        block = [row[:k - 1] for row in rows[:k - 1]]
        row = rows[k - 1][:k - 1]
        toeplitz = [ring.one_payload(), neg(rows[k - 1][k - 1])]
        vec = [rows[i][k - 1] for i in range(k - 1)]
        for _ in range(k - 1):
            toeplitz.append(neg(dot(row, vec)))
            vec = [dot(block_row, vec) for block_row in block]
        rev = toeplitz[::-1]  # new[i] pairs toeplitz[i], toeplitz[i-1], ... with coeffs
        coeffs = [dot(rev[k - i:], coeffs[:i + 1]) for i in range(k)] + [dot(rev[:k], coeffs)]
    return UniPolynomial.from_payloads(ring, reversed(coeffs))


def determinant(mat: SquareMatrix) -> RingElem:
    """Determinant via the characteristic polynomial: (-1)^m times its
    constant coefficient."""
    char = berkowitz_char_poly(mat)
    const = char.coefficient(0)
    return const if mat.dim % 2 == 0 else -const


def det_poly_matrix(f: MatrixPolynomial) -> UniPolynomial:
    """Determinant of a matrix polynomial, read as one matrix over the
    polynomial ring and pushed through the same division-free routine."""
    _require_commutative(f.ring)
    base = f.ring
    pspec = PolyOver(base, _fresh_variable(base, "xyzuvwstp"))
    dim = f.dim
    lifted = SquareMatrix(pspec, tuple(
        tuple(pspec.canon([coeff.rows[i][j] for coeff in f.coefficients])
              for j in range(dim))
        for i in range(dim)))
    det = determinant(lifted)
    return UniPolynomial.from_payloads(base, det.payload)


def right_evaluate_poly(f, mat: SquareMatrix) -> SquareMatrix:
    """Right substitution: sum of A^k * C_k with powers of A on the left of
    the coefficients.  Scalar polynomials are lifted via c |-> c*I first."""
    if isinstance(f, UniPolynomial):
        if f.spec != mat.ring:
            raise SpecMismatch("polynomial and matrix live over different rings")
        f = MatrixPolynomial.from_scalar(f, mat.dim)
    if not isinstance(f, MatrixPolynomial):
        raise SpecMismatch(f"cannot evaluate {f!r}")
    if f.ring != mat.ring:
        raise SpecMismatch("polynomial and matrix live over different rings")
    if f.dim != mat.dim:
        raise DimMismatch(f"coefficient dimension {f.dim}, matrix dimension {mat.dim}")
    if not f.coefficients:
        return SquareMatrix.zeros(mat.ring, mat.dim)
    result = f.coefficients[-1]
    for k in range(len(f.coefficients) - 2, -1, -1):
        result = mat * result + f.coefficients[k]
    return result


def parse_matrix_literal(spec: RingSpec, text: str) -> SquareMatrix:
    """Parse ``[[e,e],[e,e]]`` with ring-element literals as entries."""
    body = text.strip()
    if not body.startswith("[") or not body.endswith("]"):
        raise ParseError(f"matrix literal must be bracketed, got {text!r}")
    rows_text = _split_top_level(body[1:-1])
    rows = []
    for row_text in rows_text:
        row_text = row_text.strip()
        if not row_text.startswith("[") or not row_text.endswith("]"):
            raise ParseError(f"matrix row must be bracketed, got {row_text!r}")
        cells = _split_top_level(row_text[1:-1])
        if cells == [""]:
            raise ParseError("empty matrix row")
        rows.append([parse_element(spec, cell) for cell in cells])
    if not rows:
        raise ParseError("empty matrix literal")
    return SquareMatrix.from_rows(spec, rows)


def _split_top_level(text: str) -> list:
    parts = []
    depth = 0
    current = []
    for c in text:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    return parts
