"""Constructive conversion of right witnesses into left witnesses.

A right witness for a square matrix A at exponent n is an X with
A^n = A^(n+1) X.  Over a commutative coefficient ring the conversion to a
left witness (a Y with A^n = Y A^(n+1)) is fully constructive:

1.  A kills the matrix polynomial x^n I - x^(n+1) X under right
    substitution, so it also kills p(x) = det(x^n I - x^(n+1) X) =
    x^(nm) q(x), where q(x) = det(I - xX) = x^m det(x^-1 I - X) is the
    characteristic polynomial of X read backwards, and q(0) = 1.  Its
    coefficients give a right witness C at N = n*m:  A^N = A^(N+1) C.
2.  w = A^N C^(N+1) commutes with A and still satisfies A^N = A^(N+1) w,
    hence A^N = w A^(N+1): a left witness at exponent N.
3.  Y = w^(N-n+1) A^(N-n) lowers the left exponent back to n:
    A^n = Y A^(n+1).

The pipeline is :func:`instance_rows` then :func:`certificate_rows` on payload
rows.  The instance check makes the one object of a public call, a table of
powers of A that checks n >= 1 and n*dim <= DEFAULT_BUDGET before it holds
anything, binds the product, and builds I only when a power reads A^0, as a
certificate's C does; every later stage fills it in place, so each power is
computed once.  :func:`exponent_raise` and :func:`azumaya_lower_left` hold m*dim
and N to the same budget before any power.  A failure raises.  A scan's kernel
is the same code, the instance check, Berkowitz and :func:`_witness_rows`, run
once per dimension and n on :class:`_Cells`, whose payloads are source text;
the scan holds the kernel it compiles, and reruns the steps only to name a
failure.  The verifier makes a table of its own (no power if N != n*dim) and
checks p against one Berkowitz call on X; emitting trusts only this producer's
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, count

from . import rings
from .errors import (BudgetExceeded, InternalViolation, MalformedPayload, PiregularError,
                     PreconditionFailed, SpecMismatch, UnverifiedCertificate)
from .jsonio import canonical_dumps
from .matrices import (SquareMatrix, _berkowitz_coefficients, char_poly_rows, matrix_from_json,
                       matrix_to_json)
from .matrices import determinant as det_poly_matrix  # noqa: F401  (perfbench wraps it by name)
from .rings import (DEFAULT_BUDGET, RingElem, RingSpec, _entry, _square, _strip, binary_power,
                    parse_ring_spec, poly_ring, require_positive)


class _Powers(dict):
    """k -> rows of A^k over ``ring`` at exponent ``n``, from A^1 = ``a``: the one object
    of a public call or a verification.  It refuses n < 1 and n*dim past DEFAULT_BUDGET
    before it holds anything, and binds ``mul``, the one product of every power and check."""

    __slots__ = ("ring", "n", "a", "mul")

    def __init__(self, ring, n: int, a):
        require_positive(PreconditionFailed, exponent=n)
        _check_exponent_budget(n, len(a))
        self.ring, self.n, self.a, self.mul = ring, n, a, ring.matmul(len(a))
        self[1] = a

    def identity(self) -> tuple:
        """The rows of I, A^0 of a table that reads it; instances and verifications never do."""
        zero, one, dim = self.ring.zero_payload(), self.ring.one_payload(), len(self.a)
        return tuple([(zero,) * i + (one,) + (zero,) * (dim - 1 - i) for i in range(dim)])

    def fill(self, exponents) -> "_Powers":
        """Add each missing A^k, ``exponents`` ascending, and return the table:
        one product from a held A^(k-1), else O(log k) binary powering."""
        a, mul = self.a, self.mul
        for k in exponents:
            if k not in self:
                self[k] = (mul(self[k - 1], a) if k - 1 in self
                           else binary_power(a, k, self.identity, mul))
        return self


def _rows_over(a, *mats) -> tuple:
    """Payload rows of ``mats``, each a SquareMatrix over ``a``'s ring and dimension."""
    if not all(isinstance(mat, SquareMatrix) for mat in (a, *mats)):
        raise SpecMismatch("base and witness must be square matrices")
    if any((mat.ring is not a.ring and mat.ring != a.ring) or mat.dim != a.dim for mat in mats):
        raise SpecMismatch("witness matrix must match the base matrix")
    return tuple(mat.rows for mat in mats)


def _require(checks: tuple) -> tuple:
    """Pass name/holds pairs through; any failure is an implementation bug."""
    failing = [name for name, holds in checks if not holds]
    if failing:
        raise InternalViolation("identities failed: " + ", ".join(failing))
    return checks


# Both powers below have exponent >= 1 (N >= n >= 1), so no identity is passed.
def _commuting_witness(mul, a_big, c, big_n):  # w = A^N C^(N+1); C right witness at N
    return mul(a_big, binary_power(c, big_n + 1, None, mul))


def _lowered_left_witness(mul, w, a_gap, big_n, n):  # Y = w^(N-n+1) A^(N-n); w left at N
    return mul(binary_power(w, big_n - n + 1, None, mul), a_gap)


def _check_exponent_budget(n: int, dim: int) -> None:
    """Refuse n * dim past DEFAULT_BUDGET: an instance's n or a raised m times its
    dimension, which bounds a certificate's p, or a lowered N at dim 1, as N = n*dim."""
    if n * dim > DEFAULT_BUDGET:
        raise BudgetExceeded(f"exponent {n} times dimension {dim} exceeds budget {DEFAULT_BUDGET}")


def instance_rows(ring, n: int, a, x) -> tuple:
    """(powers of A to n+1, A^(n+1) X), payload rows; PreconditionFailed unless A^n = A^(n+1) X."""
    powers = _Powers(ring, n, a).fill((n, n + 1))
    ax = powers.mul(powers[n + 1], x)
    if powers[n] != ax:
        raise PreconditionFailed(f"A^{n} != A^{n + 1}*X: not a right witness instance")
    return powers, ax


@dataclass(frozen=True, slots=True)
class RightWitnessInstance:
    """A verified instance of A^n = A^(n+1) X; checked at construction by
    :func:`instance_rows`, keeping its result as ``_checked_rows``."""

    A: SquareMatrix
    n: int
    X: SquareMatrix
    _checked_rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        (x,), a = _rows_over(self.A, self.X), self.A
        object.__setattr__(self, "_checked_rows", instance_rows(a.ring, self.n, a.rows, x))


@dataclass(frozen=True, slots=True)
class ExponentRaiseRecord:
    """Checked consequence of one right witness: the same X works at every
    higher exponent, and iterating it closes the gap in one step."""

    n: int
    m: int
    shift: int


@dataclass(frozen=True, slots=True)
class LeftWitnessCertificate:
    """Everything needed to re-verify a right-to-left conversion.

    Fields mirror the JSON schema; ``identities`` holds the name/holds pairs
    recorded when the certificate was built, and ``verified`` their
    conjunction.  :func:`verify_certificate` recomputes all of it from
    scratch and trusts none of the stored flags.
    """

    A: SquareMatrix
    n: int
    X: SquareMatrix
    p: RingElem  # of poly_ring(A.ring)
    C: SquareMatrix
    N: int
    w: SquareMatrix
    Y: SquareMatrix
    verified: bool
    identities: tuple
    _checked: bool = field(default=False, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class CertificateVerdict:
    ok: bool
    identities: tuple  # of (name, holds) pairs

    def failing(self) -> tuple:
        return tuple(name for name, holds in self.identities if not holds)


def drazin_witness(a: SquareMatrix, x: SquareMatrix, n: int) -> SquareMatrix:
    """From a^n = a^(n+1) x build w = a^n x^(n+1), which commutes with a and
    is again a witness: a^n = a^(n+1) w, hence also a^n = w a^(n+1)."""
    powers = RightWitnessInstance(a, n, x)._checked_rows[0]
    ar, mul = a.rows, powers.mul
    w = _commuting_witness(mul, powers[n], x.rows, n)
    _require((("a*w = w*a", mul(ar, w) == mul(w, ar)),
              ("a^n = a^(n+1)*w", powers[n] == mul(powers[n + 1], w))))
    return SquareMatrix(a.ring, w)


def exponent_raise(a: SquareMatrix, x: SquareMatrix, n: int, m: int) -> ExponentRaiseRecord:
    """Check that a right witness at n is one at any m >= n, and that the
    gap closes in one multiplication: a^n = a^(n+k) x^k for k = m - n."""
    require_positive(PreconditionFailed, n=n, m=m)
    if m < n:
        raise PreconditionFailed(f"need 1 <= n <= m, got n={n!r}, m={m!r}")
    _check_exponent_budget(m, len(_rows_over(a, x)[0]))  # before any power
    k, powers = m - n, RightWitnessInstance(a, n, x)._checked_rows[0].fill((m, m + 1))
    mul, x_k = powers.mul, binary_power(x.rows, k, powers.identity, powers.mul)
    _require((("a^m = a^(m+1)*x", powers[m] == mul(powers[m + 1], x.rows)),
              ("a^n = a^(n+k)*x^k", powers[n] == mul(powers[m], x_k))))
    return ExponentRaiseRecord(n=n, m=m, shift=k)


def azumaya_lower_left(a: SquareMatrix, x: SquareMatrix, w: SquareMatrix,
                       N: int, n: int) -> SquareMatrix:
    """Lower a left witness from exponent N back down to n.

    Preconditions: a^n = a^(n+1) x and a^N = w a^(N+1) with n <= N.  Then
    Y = w^(N-n+1) a^(N-n) satisfies a^n = Y a^(n+1); the returned Y is
    checked against that identity before it leaves.
    """
    require_positive(PreconditionFailed, n=n, N=N)
    if N < n:
        raise PreconditionFailed(f"need 1 <= n <= N, got n={n!r}, N={N!r}")
    _check_exponent_budget(N, 1)  # before any power
    powers = RightWitnessInstance(a, n, x)._checked_rows[0].fill((N - n, N, N + 1))
    mul, (wr,) = powers.mul, _rows_over(a, w)
    if powers[N] != mul(wr, powers[N + 1]):
        raise PreconditionFailed(f"a^{N} != w*a^{N + 1}")
    y = _lowered_left_witness(mul, wr, powers[N - n], N, n)
    _require((("a^n = Y*a^(n+1)", powers[n] == mul(y, powers[n + 1])),))
    return SquareMatrix(a.ring, y)


def _witness_rows(powers: _Powers, q) -> tuple:
    """(C, N, w, Y) over ``powers``' ring, from the table of an instance and
    q = (1, s1, ..., sm), the characteristic polynomial of X read backwards."""
    ring, n, mul, dim = powers.ring, powers.n, powers.mul, len(powers.a)
    big_n = n * dim
    powers[0] = powers.identity()
    powers.fill((*range(1, dim), big_n - n, big_n, big_n + 1))
    # C = -(s1 I + s2 A + ... + sm A^(m-1)), one combination of A^0, ..., A^(m-1)
    c = ring.p_combination(tuple(map(ring.p_neg, q[1:])), [powers[k] for k in range(dim)])
    w = _commuting_witness(mul, powers[big_n], c, big_n)
    return c, big_n, w, _lowered_left_witness(mul, w, powers[big_n - n], big_n, n)


def certificate_rows(x, powers, ax) -> tuple:
    """(p, C, N, w, Y, identities) on payload rows, from :func:`instance_rows`'
    ``powers`` and ``ax``; raises InternalViolation naming any failing identity."""
    ring = powers.ring
    # q(x) = det(I - xX) = 1 + s1 x + ... + sm x^m, the char poly of X reversed
    chi = char_poly_rows(ring, x)
    q = chi.payload[::-1]  # (step 1); p = x^(nm) q(x), in chi's ring poly_ring(ring)
    c, big_n, w, y = _witness_rows(powers, q)
    p = chi.spec.wrap((ring.zero_payload(),) * big_n + _strip(ring, list(q)))  # q(0) = 1
    return p, c, big_n, w, y, _require(_certificate_checks(
        powers, x, p, chi, c, big_n, w, y, ax))


def right_to_left_certificate(inst: RightWitnessInstance) -> LeftWitnessCertificate:
    """Run the full pipeline and return a self-contained, verified
    certificate; raises InternalViolation naming any failing identity."""
    p, c, big_n, w, y, identities = certificate_rows(inst.X.rows, *inst._checked_rows)
    c, w, y = (SquareMatrix(inst.A.ring, rows) for rows in (c, w, y))
    cert = LeftWitnessCertificate(A=inst.A, n=inst.n, X=inst.X, p=p, C=c, N=big_n, w=w, Y=y,
                                  verified=True, identities=identities)
    object.__setattr__(cert, "_checked", True)
    return cert


def _certificate_checks(powers: _Powers, x, p, chi, c, big_n, w, y, ax=None) -> tuple:
    """The seven identities on A, n, X, p, C, N, w, Y (payload rows), each evaluated
    once; A and n are the table's, and p must be x^N times ``chi``, the char poly of
    X, reversed.  A^n, A^(n+1), A^N, A^(N+1) fill ``powers`` in place only if
    N = n*dim; else every identity needing them fails."""
    ring, n, a, mul = powers.ring, powers.n, powers.a, powers.mul
    zero, ok = ring.zero_payload(), big_n == n * len(a)
    if ok:
        powers.fill((n, n + 1, big_n, big_n + 1))
        a_n, a_n1, a_big, a_big1 = powers[n], powers[n + 1], powers[big_n], powers[big_n + 1]
    return (
        ("right_witness", ok and a_n == (mul(a_n1, x) if ax is None else ax)),
        ("exponent_is_n_times_dim", ok),
        ("char_poly_factor_shape", ok and (p.spec is chi.spec or p.spec == chi.spec)
         and p.payload[:big_n].count(zero) == big_n
         and p.payload[big_n:] == _strip(ring, list(chi.payload[::-1]))),
        ("raised_right_witness", ok and a_big == mul(a_big1, c)),
        ("commuting_witness", mul(a, w) == mul(w, a)),
        ("raised_left_witness", ok and a_big == mul(w, a_big1)),
        ("left_witness", ok and a_n == mul(y, a_n1)),
    )


def verify_certificate(cert: LeftWitnessCertificate) -> CertificateVerdict:
    """Re-check every identity from the stored fields alone, all over A's
    ring and dimension, on powers of A computed here and shared with nothing."""
    a, (x, c, w, y) = cert.A, _rows_over(cert.A, cert.X, cert.C, cert.w, cert.Y)
    checks = _certificate_checks(_Powers(a.ring, cert.n, a.rows), x, cert.p,
                                 char_poly_rows(a.ring, x), c, cert.N, w, y)
    return CertificateVerdict(ok=all(holds for _, holds in checks), identities=checks)


# -- a scan's certificate kernel ---------------------------------------------


class _Cells(RingSpec):
    """The staged ring of a scan's certificate kernel over ``zmod:k``: a payload is the
    source text of a name, a negated name, ``0`` or ``1``; a matrix, its cells' names.
    Each product, dot product and scalar operation writes one line to ``lines`` and
    returns the names it assigned; products and dots take one ``% k`` and drop ``1*``
    factors and ``0`` terms, and a negation is written inline."""

    def __init__(self):
        self.lines, self.names = [], count()

    def _line(self, text: str) -> str:
        name = f"t{next(self.names)}"
        self.lines.append(f"{name} = {text}")
        return name

    @staticmethod
    def _terms(row, col) -> list:
        return [l if r == "1" else r if l == "1" else (l, r)
                for l, r in zip(row, col) if "0" not in (l, r)]

    def matmul(self, dim: int):
        def mul(l, r) -> tuple:  # one block of cells p<i>_<row>_<col>
            block, cols = f"p{next(self.names)}", tuple(zip(*r))
            self.lines.extend(f"{block}_{i}_{j} = " + _entry("residue", self._terms(row, col))
                              for i, row in enumerate(l) for j, col in enumerate(cols))
            return tuple(tuple(f"{block}_{i}_{j}" for j in range(dim)) for i in range(dim))
        return mul

    def zero_payload(self):
        return "0"

    def one_payload(self):
        return "1"

    def p_dot(self, row, col):
        terms = self._terms(row, col)  # 1*1 is each Berkowitz step's leading coefficient
        return "1" if terms == ["1"] else self._line(_entry("residue", terms))

    def p_neg(self, a):
        return a[1:] if a[:1] == "-" else "-" + a

    def p_add(self, a, b):
        return self._line(f"{a} + {b}")

    def p_mul(self, a, b):
        return self._line(f"{a}*{b}")


def _certificate_source(m: int, n: int) -> str:
    """``kernel(spec, a, x)``: a scan's certificate for m-by-m payload rows over
    ``zmod:k`` at exponent n, straight-line code written by the step path's instance
    check, Berkowitz and :func:`_witness_rows` on :class:`_Cells`, so it makes that
    path's products in its order.  ``(None, None, None, False)`` if A^n != A^(n+1) X,
    else ``(C, w, Y, ok)``, ``ok`` the identities that can fail: ``raised_right_witness``,
    ``commuting_witness``, ``raised_left_witness`` and ``left_witness``."""
    cells, (a, x) = _Cells(), (tuple(tuple(f"{name}_{i}_{j}" for j in range(m))
                                     for i in range(m)) for name in "ax")
    powers = _Powers(cells, n, a).fill((n, n + 1))
    mul, a_n, a_n1 = powers.mul, powers[n], powers[n + 1]

    def equal(left, right) -> str:
        return "(" + " and ".join(map("{} == {}".format, chain(*left), chain(*right))) + ")"

    def square(rows) -> str:
        return _square(m, lambda i, j: rows[i][j])

    cells.lines.append(f"if not {equal(a_n, mul(a_n1, x))}: return None, None, None, False")
    c, big_n, w, y = _witness_rows(powers, _berkowitz_coefficients(cells, x))
    a_big, a_big1 = powers[big_n], powers[big_n + 1]
    checks = (equal(a_big, mul(a_big1, c)), equal(mul(a, w), mul(w, a)),
              equal(a_big, mul(w, a_big1)), equal(a_n, mul(y, a_n1)))
    return "\n    ".join(("def kernel(spec, a, x):", "k = spec.modulus", square(a) + " = a",
                          square(x) + " = x", *cells.lines, "return " + ", ".join(
                              map(square, (c, w, y))) + ", " + " and ".join(checks)))


def _certificate_kernel(m: int, n: int):
    """The kernel of :func:`_certificate_source`, compiled afresh for the scan that holds it."""
    return rings._compile(_certificate_source(m, n), f"<{m}x{m} residue certificate n={n}>")


def _step_failure(spec: RingSpec, n: int, a, x) -> str:
    """Why the step path fails the certificate the kernel failed, in its own words; if it
    passes, the disagreement is an InternalViolation, never silent."""
    try:
        certificate_rows(x, *instance_rows(spec, n, a, x))
    except PiregularError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "InternalViolation: the certificate kernel fails a certificate the step path passes"


# -- JSON round trip ---------------------------------------------------------


def certificate_to_json(cert: LeftWitnessCertificate) -> dict:
    spec = cert.A.ring
    return {
        "ring": spec.token(),
        "dim": cert.A.dim,
        "n": cert.n,
        "N": cert.N,
        "A": matrix_to_json(cert.A),
        "X": matrix_to_json(cert.X),
        "p_coeffs": [spec.payload_to_json(c) for c in cert.p.payload],
        "C": matrix_to_json(cert.C),
        "w": matrix_to_json(cert.w),
        "Y": matrix_to_json(cert.Y),
        "verified": cert.verified,
        "identities": [{"name": name, "holds": holds} for name, holds in cert.identities],
    }


def certificate_from_json(data: dict) -> LeftWitnessCertificate:
    if not isinstance(data, dict):
        raise MalformedPayload("certificate document must be a JSON object")
    try:
        spec = parse_ring_spec(data["ring"])
        dim, n, big_n = data["dim"], data["n"], data["N"]
        if any(isinstance(e, bool) or not isinstance(e, int) or e < 1 for e in (n, big_n)):
            raise MalformedPayload("certificate exponents n and N must be positive integers")
        require_positive(MalformedPayload, dim=dim)
        _check_exponent_budget(n, dim)  # as for an instance, before any matrix is built
        mats = {key: matrix_from_json(spec, data[key], dim) for key in ("A", "X", "C", "w", "Y")}
        p_coeffs, items = data["p_coeffs"], data["identities"]
        if not (isinstance(p_coeffs, list) and isinstance(items, list)
                and all(isinstance(item, dict) for item in items)):
            raise MalformedPayload(
                "certificate p_coeffs must be a list and identities a list of objects")
        p = poly_ring(spec).wrap(_strip(spec, list(map(spec.payload_from_json, p_coeffs))))
        identities = tuple((item["name"], item["holds"]) for item in items)
        verified = data["verified"]
    except KeyError as exc:
        raise MalformedPayload(f"certificate document missing field {exc}") from exc
    if not all(isinstance(flag, bool) for flag in (verified, *(h for _, h in identities))):
        raise MalformedPayload("certificate verified and every holds must be true or false")
    return LeftWitnessCertificate(
        A=mats["A"], n=n, X=mats["X"], p=p, C=mats["C"], N=big_n,
        w=mats["w"], Y=mats["Y"], verified=verified, identities=identities)


def emit_certificate(cert: LeftWitnessCertificate) -> str:
    """Canonical JSON for a certificate; refuses one that does not verify.
    Only a certificate from :func:`right_to_left_certificate` skips the check;
    any other is written with the verdict, not with its stored flags, so the
    bytes depend only on the mathematics."""
    if not cert._checked:
        verdict = verify_certificate(cert)
        if not verdict.ok:
            raise UnverifiedCertificate(
                f"refusing to emit certificate; failing identities: {verdict.failing()}")
        cert = replace(cert, verified=True, identities=verdict.identities)
    return canonical_dumps(certificate_to_json(cert))
