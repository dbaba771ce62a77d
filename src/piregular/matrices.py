"""Square matrices over described rings, with division-free determinants.

Matrix arithmetic never assumes the entry ring is commutative, so the same
type also carries matrices over the free algebra.  Determinant-flavoured
operations (characteristic polynomial, determinants of polynomial matrices)
do require commutativity and refuse anything else.

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
from .rings import PolyOver, RingElem, RingSpec, binary_power, parse_element


@dataclass(frozen=True, slots=True)
class SquareMatrix:
    """An m-by-m matrix with entries from a single ring.

    Build instances with :meth:`from_rows`; the dataclass constructor
    assumes entries are already validated.
    """

    ring: object
    entries: tuple

    @staticmethod
    def from_rows(ring, rows) -> "SquareMatrix":
        rows = list(rows)
        dim = len(rows)
        if dim == 0:
            raise DimMismatch("matrices must have dimension >= 1")
        coerced = []
        for row in rows:
            row = list(row)
            if len(row) != dim:
                raise DimMismatch(f"expected {dim} entries per row, got {len(row)}")
            coerced.append(tuple(ring.coerce(value) for value in row))
        return SquareMatrix(ring, tuple(coerced))

    @staticmethod
    def identity(ring, dim: int) -> "SquareMatrix":
        one, zero = ring.one(), ring.zero()
        return SquareMatrix(ring, tuple(
            tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))

    @staticmethod
    def zeros(ring, dim: int) -> "SquareMatrix":
        zero = ring.zero()
        return SquareMatrix(ring, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def _match(self, other) -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            raise SpecMismatch(f"cannot combine a matrix with {other!r}")
        if other.ring != self.ring:
            raise SpecMismatch("matrices live over different rings")
        if other.dim != self.dim:
            raise DimMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")
        return other

    def __add__(self, other):
        other = self._match(other)
        return SquareMatrix(self.ring, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other):
        other = self._match(other)
        return SquareMatrix(self.ring, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self):
        return SquareMatrix(self.ring, tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other):
        other = self._match(other)
        dim = self.dim
        cols = tuple(tuple(other.entries[k][j] for k in range(dim)) for j in range(dim))
        rows = []
        for i in range(dim):
            row_i = self.entries[i]
            out_row = []
            for j in range(dim):
                col_j = cols[j]
                acc = row_i[0] * col_j[0]
                for k in range(1, dim):
                    acc = acc + row_i[k] * col_j[k]
                out_row.append(acc)
            rows.append(tuple(out_row))
        return SquareMatrix(self.ring, tuple(rows))

    def __pow__(self, exponent: int):
        return binary_power(self, exponent, SquareMatrix.identity(self.ring, self.dim))

    def scale(self, value) -> "SquareMatrix":
        c = self.ring.coerce(value)
        return SquareMatrix(self.ring, tuple(tuple(a * c for a in row) for row in self.entries))

    def transpose(self) -> "SquareMatrix":
        dim = self.dim
        return SquareMatrix(self.ring, tuple(
            tuple(self.entries[j][i] for j in range(dim)) for i in range(dim)))

    @property
    def is_zero(self) -> bool:
        zero = self.ring.zero()
        return all(a == zero for row in self.entries for a in row)

    def __str__(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(str(a) for a in row) + "]" for row in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class UniPolynomial:
    """A univariate polynomial with coefficients in a described ring,
    stored low-to-high with no trailing zeros."""

    spec: RingSpec
    coefficients: tuple

    @staticmethod
    def from_coeffs(spec: RingSpec, coeffs) -> "UniPolynomial":
        out = [spec.coerce(c) for c in coeffs]
        while out and out[-1].is_zero:
            out.pop()
        return UniPolynomial(spec, tuple(out))

    @staticmethod
    def x_power(spec: RingSpec, k: int) -> "UniPolynomial":
        return UniPolynomial(spec, tuple([spec.zero()] * k + [spec.one()]))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, k: int) -> RingElem:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return self.spec.zero()

    def _match(self, other) -> "UniPolynomial":
        if not isinstance(other, UniPolynomial) or other.spec != self.spec:
            raise SpecMismatch("polynomials live over different rings")
        return other

    def __add__(self, other):
        other = self._match(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return UniPolynomial.from_coeffs(
            self.spec, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other):
        other = self._match(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return UniPolynomial.from_coeffs(
            self.spec, [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __neg__(self):
        return UniPolynomial(self.spec, tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        other = self._match(other)
        if self.is_zero or other.is_zero:
            return UniPolynomial(self.spec, ())
        out = [self.spec.zero()] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return UniPolynomial.from_coeffs(self.spec, out)

    def shift(self, k: int) -> "UniPolynomial":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return UniPolynomial(self.spec, tuple([self.spec.zero()] * k) + self.coefficients)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        var_pool = "xyzuvw"
        used = _variables_of(self.spec)
        var = next(v for v in var_pool if v not in used)
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


def _variables_of(spec) -> set:
    used = set()
    while True:
        var = getattr(spec, "variable", None)
        if var is not None:
            used.add(var)
        base = getattr(spec, "base", None)
        if base is None:
            return used
        spec = base


def _require_commutative(ring):
    if not getattr(ring, "commutative", False):
        raise NonCommutativeRing("determinants need a commutative coefficient ring")


def berkowitz_char_poly(mat: SquareMatrix) -> UniPolynomial:
    """Characteristic polynomial det(xI - A), division-free.

    Runs the Samuelson-Berkowitz recurrence over leading principal blocks:
    if the block grows by a bottom-right scalar a with new row R and column
    C against the old block M, the new coefficient vector is the Toeplitz
    convolution of (1, -a, -RC, -RMC, -RM^2 C, ...) with the old one.
    """
    _require_commutative(mat.ring)
    ring = mat.ring
    entries = mat.entries
    m = mat.dim
    coeffs = [ring.one()]  # leading-first; char poly of the empty block is 1
    for k in range(1, m + 1):
        corner = entries[k - 1][k - 1]
        row = entries[k - 1][:k - 1]
        col = [entries[i][k - 1] for i in range(k - 1)]
        toeplitz = [ring.one(), -corner]
        vec = list(col)
        for _ in range(k - 1):
            acc = ring.zero()
            for r_val, v_val in zip(row, vec):
                acc = acc + r_val * v_val
            toeplitz.append(-acc)
            vec = [_dot(entries[i][:k - 1], vec, ring) for i in range(k - 1)]
        new = []
        for i in range(k + 1):
            acc = ring.zero()
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = acc + toeplitz[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    return UniPolynomial(ring, tuple(reversed(coeffs)))


def _dot(row, vec, ring):
    acc = ring.zero()
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


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
    var_pool = "xyzuvwstp"
    used = _variables_of(base)
    var = next(v for v in var_pool if v not in used)
    pspec = PolyOver(base, var)
    dim = f.dim
    zero = base.zero_payload()
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            seq = [coeff.entries[i][j].payload for coeff in f.coefficients]
            while seq and seq[-1] == zero:
                seq.pop()
            row.append(RingElem(pspec, tuple(seq)))
        rows.append(tuple(row))
    lifted = SquareMatrix(pspec, tuple(rows))
    det = determinant(lifted)
    return UniPolynomial(base, tuple(RingElem(base, c) for c in det.payload))


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
