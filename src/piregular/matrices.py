"""Square matrices over described rings, with division-free determinants.

A matrix holds rows of canonical payloads and does all of its arithmetic
on them through the entry ring's payload methods (``p_add``, ``p_dot``,
...).  The ring's ``p_matmul`` is the one product entry point: a generated
straight-line kernel up to dimension 8, a loop of ``p_dot`` calls above.
``SquareMatrix.__mul__`` is its checked boundary wrapper, which matches
ring and dimension and then makes one ``p_matmul`` call.  ``RingElem`` appears
only at the boundary, in ``entries`` and ``entry``.  Matrix arithmetic
never assumes the entry ring is commutative, so the same type also carries
matrices over the free algebra, whose payloads are the polynomials
themselves.

There is one polynomial ring: a polynomial over R is an element of
``poly_ring(R)``, and a matrix polynomial is a matrix over that ring, as
M_m(R)[x] = M_m(R[x]).  Its determinant is :func:`determinant`, and
:func:`right_evaluate_poly` substitutes a matrix into either kind.
Determinant-flavoured operations require commutativity and refuse anything
else.

A matrix literal ``[[e,e],[e,e]]`` is read by the ring module's tokenizer
and recursive descent, with one element literal per entry.

Characteristic polynomials start from the closed form of the leading 1x1
or 2x2 block and run the Samuelson-Berkowitz recurrence from there: the
coefficient vector of each larger leading principal block is pushed
through a Toeplitz convolution built from one new row and column.  That
keeps the whole computation inside the coefficient ring, with no
divisions, which is what makes it usable over rings with zero divisors
like Z_k or Z_3[t]/(t^2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimMismatch, MalformedPayload, NonCommutativeRing, SpecMismatch
from .rings import (
    RingElem,
    RingSpec,
    _LiteralParser,
    _nonblank,
    _tokenize,
    binary_power,
    poly_ring,
    require_positive,
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


def matrix_to_json(mat: SquareMatrix):
    if mat.ring.atomic_literals:  # payload_to_json is the identity
        return [list(row) for row in mat.rows]
    return [list(map(mat.ring.payload_to_json, row)) for row in mat.rows]


def matrix_from_json(spec: RingSpec, data, dim: int) -> SquareMatrix:
    require_positive(MalformedPayload, dim=dim)
    if not isinstance(data, list) or len(data) != dim:
        raise MalformedPayload(f"expected {dim} matrix rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != dim:
            raise MalformedPayload(f"expected {dim} entries per matrix row")
        rows.append(tuple(map(spec.payload_from_json, row)))
    return SquareMatrix(spec, tuple(rows))


def _require_commutative(ring, what="determinants"):
    if not getattr(ring, "commutative", False):
        raise NonCommutativeRing(f"{what} need a commutative coefficient ring")


def berkowitz_char_poly(mat: SquareMatrix) -> RingElem:
    """Characteristic polynomial det(xI - A), an element of
    ``poly_ring(A.ring)``, computed without divisions.

    Starts from the closed form of the leading block, x - a at 1x1 and
    x^2 - (a+d)x + (ad - bc) for [[a, b], [c, d]], then runs the
    Samuelson-Berkowitz recurrence over the larger leading principal blocks:
    if the block grows by a bottom-right scalar a with new row R and column
    C against the old block M, the new coefficient vector is the Toeplitz
    convolution of (1, -a, -RC, -RMC, -RM^2 C, ...) with the old one.  The
    recurrence runs on payloads; only the result is wrapped.
    """
    return char_poly_rows(mat.ring, mat.rows)


def char_poly_rows(ring, rows) -> RingElem:  # berkowitz_char_poly on payload rows
    _require_commutative(ring)
    m = len(rows)
    dot, neg, mul, one = ring.p_dot, ring.p_neg, ring.p_mul, ring.one_payload()
    if m == 1:
        coeffs = [one, neg(rows[0][0])]  # leading-first
    else:
        (a, b), (c, d) = rows[0][:2], rows[1][:2]
        coeffs = [one, neg(ring.p_add(a, d)), ring.p_sub(mul(a, d), mul(b, c))]
    for k in range(3, m + 1):
        block = [row[:k - 1] for row in rows[:k - 1]]
        row = rows[k - 1][:k - 1]
        toeplitz = [one, neg(rows[k - 1][k - 1])]
        vec = [rows[i][k - 1] for i in range(k - 1)]
        for _ in range(k - 1):
            toeplitz.append(neg(dot(row, vec)))
            vec = [dot(block_row, vec) for block_row in block]
        rev = toeplitz[::-1]  # new[i] pairs toeplitz[i], toeplitz[i-1], ... with coeffs
        coeffs = [dot(rev[k - i:], coeffs[:i + 1]) for i in range(k)] + [dot(rev[:k], coeffs)]
    return poly_ring(ring).wrap(tuple(coeffs[::-1]))  # monic, so already canonical


def determinant(mat: SquareMatrix) -> RingElem:
    """Determinant via the characteristic polynomial: (-1)^m times its
    constant coefficient.  Over ``poly_ring(R)`` it is the determinant of a
    matrix polynomial."""
    ring, const = mat.ring, berkowitz_char_poly(mat).payload[0]
    return ring.wrap(const if mat.dim % 2 == 0 else ring.p_neg(const))


def right_evaluate_poly(f, mat: SquareMatrix) -> SquareMatrix:
    """Right substitution: the sum of A^k C_k, powers of A on the left of the
    coefficients.  ``f`` is a matrix over ``poly_ring(A.ring)``, whose x^k
    coefficient is C_k, or an element of that ring, whose coefficients c act
    as cI."""
    pring, dim = poly_ring(mat.ring), mat.dim
    if isinstance(f, RingElem):
        f = SquareMatrix.identity(pring, dim).scale(f)
    if not isinstance(f, SquareMatrix):
        raise SpecMismatch(f"cannot evaluate {f!r}")
    if f.ring != pring:
        raise SpecMismatch("polynomial and matrix live over different rings")
    if f.dim != dim:
        raise DimMismatch(f"coefficient dimension {f.dim}, matrix dimension {dim}")
    zero, result = mat.ring.zero_payload(), SquareMatrix.zeros(mat.ring, dim)
    for k in range(max(len(c) for row in f.rows for c in row) - 1, -1, -1):
        result = mat * result + SquareMatrix(mat.ring, tuple(
            tuple(c[k] if k < len(c) else zero for c in row) for row in f.rows))
    return result


def parse_matrix_literal(spec: RingSpec, text: str) -> SquareMatrix:
    """Parse ``[`` row (``,`` row)* ``]``, each row ``[`` e (``,`` e)* ``]``
    with ring-element literals ``e``; a ragged matrix is a DimMismatch."""
    parser = _LiteralParser(spec, _tokenize(_nonblank(text, "matrix literal")))

    def listed(item) -> list:
        parser.take("[")
        items = [item()]
        while parser.peek()[0] == ",":
            parser.take()
            items.append(item())
        parser.take("]")
        return items

    return SquareMatrix.from_rows(spec, parser.finish(listed(lambda: listed(parser.expression))))
