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

Ring and dimension are checked once per instance or certificate, then every
product is one ``p_matmul`` call on payload rows.  Each power of A is
computed once, from the instance check's A^n, A^(n+1) and A^(n+1) X on, and
the seven identities once; a failure raises instead of returning a bad
witness.  The verifier recomputes them on its own powers of A (none if
N != n*dim).  Emitting trusts only this producer's certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    InternalViolation,
    MalformedPayload,
    PreconditionFailed,
    SpecMismatch,
    UnverifiedCertificate,
)
from .jsonio import canonical_dumps
from .matrices import SquareMatrix, berkowitz_char_poly, matrix_from_json, matrix_to_json
from .matrices import determinant as det_poly_matrix  # noqa: F401  (perfbench wraps it by name)
from .rings import (
    DEFAULT_BUDGET,
    RingElem,
    _strip,
    binary_power,
    parse_ring_spec,
    poly_ring,
    require_positive,
)


@lru_cache(maxsize=256)
def _identity_rows(ring, dim: int) -> tuple:
    return SquareMatrix.identity(ring, dim).rows


def _powers(ring, a, exponents, known=()) -> dict:
    """Rows of A^k (k -> rows) for each k in ``exponents`` and ``known``, each
    computed once: A^(k+1) from A^k, others by O(log k) binary powering.
    ``known`` itself comes back, unchanged, when it holds every exponent."""
    missing = sorted(set(exponents).difference(known))
    if not missing:
        return known
    out, mul = dict(known), ring.p_matmul
    for k in missing:
        out[k] = mul(out[k - 1], a) if k >= 2 and k - 1 in out else binary_power(
            a, k, lambda: _identity_rows(ring, len(a)), mul)
    return out


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
def _commuting_witness(ring, a_big, c, big_n):  # w = A^N C^(N+1); C right witness at N
    return ring.p_matmul(a_big, binary_power(c, big_n + 1, None, ring.p_matmul))


def _lowered_left_witness(ring, w, a_gap, big_n, n):  # Y = w^(N-n+1) A^(N-n); w left at N
    return ring.p_matmul(binary_power(w, big_n - n + 1, None, ring.p_matmul), a_gap)


def _check_exponent_budget(n: int, dim: int) -> None:
    """Refuse n * dim, which bounds a certificate's p, past DEFAULT_BUDGET."""
    if n * dim > DEFAULT_BUDGET:
        raise BudgetExceeded(f"exponent {n} times dimension {dim} exceeds budget {DEFAULT_BUDGET}")


@dataclass(frozen=True, slots=True)
class RightWitnessInstance:
    """A verified instance of A^n = A^(n+1) X; checked at construction,
    which keeps the payload rows of A^n, A^(n+1) and A^(n+1) X it compared.
    Its certificate's p holds over n * dim coefficients, so n * dim must not
    exceed DEFAULT_BUDGET; that is checked before any power."""

    A: SquareMatrix
    n: int
    X: SquareMatrix
    _checked_powers: dict = field(init=False, compare=False, repr=False)
    _checked_product: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n, (x,) = self.n, _rows_over(self.A, self.X)
        require_positive(PreconditionFailed, exponent=n)
        _check_exponent_budget(n, self.A.dim)
        powers = _powers(self.A.ring, self.A.rows, (n, n + 1))
        ax = self.A.ring.p_matmul(powers[n + 1], x)
        if powers[n] != ax:
            raise PreconditionFailed(f"A^{n} != A^{n + 1}*X: not a right witness instance")
        object.__setattr__(self, "_checked_powers", powers)
        object.__setattr__(self, "_checked_product", ax)


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
    powers = RightWitnessInstance(a, n, x)._checked_powers
    ring, ar, mul = a.ring, a.rows, a.ring.p_matmul
    w = _commuting_witness(ring, powers[n], x.rows, n)
    _require((("a*w = w*a", mul(ar, w) == mul(w, ar)),
              ("a^n = a^(n+1)*w", powers[n] == mul(powers[n + 1], w))))
    return SquareMatrix(ring, w)


def exponent_raise(a: SquareMatrix, x: SquareMatrix, n: int, m: int) -> ExponentRaiseRecord:
    """Check that a right witness at n is one at any m >= n, and that the
    gap closes in one multiplication: a^n = a^(n+k) x^k for k = m - n."""
    require_positive(PreconditionFailed, n=n, m=m)
    if m < n:
        raise PreconditionFailed(f"need 1 <= n <= m, got n={n!r}, m={m!r}")
    ring, mul, k = a.ring, a.ring.p_matmul, m - n
    powers = _powers(ring, a.rows, (m, m + 1), RightWitnessInstance(a, n, x)._checked_powers)
    x_k = _powers(ring, x.rows, (k,))[k]
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
    powers = RightWitnessInstance(a, n, x)._checked_powers
    ring, mul, (wr,) = a.ring, a.ring.p_matmul, _rows_over(a, w)
    powers = _powers(ring, a.rows, (N - n, N, N + 1), powers)
    if powers[N] != mul(wr, powers[N + 1]):
        raise PreconditionFailed(f"a^{N} != w*a^{N + 1}")
    y = _lowered_left_witness(ring, wr, powers[N - n], N, n)
    _require((("a^n = Y*a^(n+1)", powers[n] == mul(y, powers[n + 1])),))
    return SquareMatrix(ring, y)


def right_to_left_certificate(inst: RightWitnessInstance) -> LeftWitnessCertificate:
    """Run the full pipeline and return a self-contained, verified
    certificate; raises InternalViolation naming any failing identity."""
    a, n, x, ring, m = inst.A, inst.n, inst.X, inst.A.ring, inst.A.dim
    big_n = n * m
    powers = _powers(ring, a.rows, (*range(m), big_n - n, big_n, big_n + 1), inst._checked_powers)
    # q(x) = det(I - xX) = 1 + s1 x + ... + sm x^m, the char poly of X reversed
    chi = berkowitz_char_poly(x)
    q = chi.payload[::-1]  # (step 1); p = x^(nm) q(x), in chi's ring poly_ring(ring)
    p = chi.spec.wrap(_strip(ring, [ring.zero_payload()] * big_n + list(q)))
    # C = -(s1 I + s2 A + ... + sm A^(m-1)); each entry is (-s1, ..., -sm)
    # dotted with that entry of A^0, ..., A^(m-1).
    neg_s, dot = list(map(ring.p_neg, q[1:])), ring.p_dot
    c = tuple(tuple(dot(neg_s, stack) for stack in zip(*row_stack))
              for row_stack in zip(*(powers[i] for i in range(m))))
    w = _commuting_witness(ring, powers[big_n], c, big_n)
    y = _lowered_left_witness(ring, w, powers[big_n - n], big_n, n)
    identities = _require(_certificate_checks(
        ring, powers, a.rows, n, x.rows, p, c, big_n, w, y, inst._checked_product))
    cert = LeftWitnessCertificate(
        A=a, n=n, X=x, p=p, C=SquareMatrix(ring, c), N=big_n, w=SquareMatrix(ring, w),
        Y=SquareMatrix(ring, y), verified=True, identities=identities)
    object.__setattr__(cert, "_checked", True)
    return cert


def _certificate_checks(ring, known: dict, a, n, x, p, c, big_n, w, y, ax=None) -> tuple:
    """The seven identities on A, n, X, p, C, N, w, Y (matrices as payload
    rows), each evaluated once.  A^n, A^(n+1), A^N, A^(N+1) come from ``known``
    or are computed only if N = n*dim; else every identity needing them fails."""
    mul, zero, ok = ring.p_matmul, ring.zero_payload(), big_n == n * len(a)
    if ok:
        powers = _powers(ring, a, (n, n + 1, big_n, big_n + 1), known)
        a_n, a_n1, a_big, a_big1 = (powers[k] for k in (n, n + 1, big_n, big_n + 1))
    return (
        ("right_witness", ok and a_n == (mul(a_n1, x) if ax is None else ax)),
        ("exponent_is_n_times_dim", ok),
        ("char_poly_factor_shape", ok and p.spec == poly_ring(ring) and len(p.payload) > big_n
         and all(c_i == zero for c_i in p.payload[:big_n])
         and p.payload[big_n] == ring.one_payload()),
        ("raised_right_witness", ok and a_big == mul(a_big1, c)),
        ("commuting_witness", mul(a, w) == mul(w, a)),
        ("raised_left_witness", ok and a_big == mul(w, a_big1)),
        ("left_witness", ok and a_n == mul(y, a_n1)),
    )


def verify_certificate(cert: LeftWitnessCertificate) -> CertificateVerdict:
    """Re-check every identity from the stored fields alone, all over A's
    ring and dimension, on powers of A computed here and shared with nothing."""
    x, c, w, y = _rows_over(cert.A, cert.X, cert.C, cert.w, cert.Y)
    checks = _certificate_checks(cert.A.ring, {}, cert.A.rows, cert.n, x, cert.p, c,
                                 cert.N, w, y)
    return CertificateVerdict(ok=all(holds for _, holds in checks), identities=checks)


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
