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

Each power of A is computed once, from the A^n and A^(n+1) of the instance
check on, and the seven certificate identities are checked once; a failure
raises instead of returning a bad witness.  The verifier recomputes them on
its own powers of A from the certificate alone.  Emitting trusts only this
producer's certificates; it verifies every other one first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InternalViolation,
    MalformedPayload,
    PreconditionFailed,
    SpecMismatch,
    UnverifiedCertificate,
)
from .jsonio import canonical_dumps
from .matrices import SquareMatrix, UniPolynomial, berkowitz_char_poly
from .matrices import det_poly_matrix  # noqa: F401  (perfbench/tracing.py wraps it by name)
from .rings import RingSpec, parse_ring_spec, require_positive


def _powers(a: SquareMatrix, exponents, known=()) -> dict:
    """A^k for every k in ``exponents`` and in ``known`` (k -> A^k), each
    distinct power computed once.  A^(k+1) reuses A^k; any other power is
    binary powering, so an exponent read from an untrusted certificate
    costs O(log k) products."""
    out = dict(known)
    for k in sorted(set(exponents).difference(out)):
        out[k] = out[k - 1] * a if k >= 2 and k - 1 in out else a ** k
    return out


def _require(checks: tuple) -> tuple:
    """Pass name/holds pairs through; any failure is an implementation bug."""
    failing = [name for name, holds in checks if not holds]
    if failing:
        raise InternalViolation("identities failed: " + ", ".join(failing))
    return checks


def _commuting_witness(a_big, c, big_n):  # w = A^N C^(N+1); C right witness at N
    return a_big * c ** (big_n + 1)


def _lowered_left_witness(w, a_gap, big_n, n):  # Y = w^(N-n+1) A^(N-n); w left at N
    return w ** (big_n - n + 1) * a_gap


@dataclass(frozen=True, slots=True)
class RightWitnessInstance:
    """A verified instance of A^n = A^(n+1) X; checked at construction,
    which keeps the A^n and A^(n+1) it compared for the producer."""

    A: SquareMatrix
    n: int
    X: SquareMatrix
    _checked_powers: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.A, SquareMatrix) and isinstance(self.X, SquareMatrix)):
            raise SpecMismatch("base and witness must be square matrices")
        require_positive(PreconditionFailed, exponent=self.n)
        if self.X.ring != self.A.ring or self.X.dim != self.A.dim:
            raise SpecMismatch("witness matrix must match the base matrix")
        powers = _powers(self.A, (self.n, self.n + 1))
        if powers[self.n] != powers[self.n + 1] * self.X:
            raise PreconditionFailed(
                f"A^{self.n} != A^{self.n + 1}*X: not a right witness instance")
        object.__setattr__(self, "_checked_powers", powers)


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
    p: UniPolynomial
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
    require_positive(PreconditionFailed, exponent=n)
    powers = _powers(a, (n, n + 1))
    if powers[n] != powers[n + 1] * x:
        raise PreconditionFailed(f"a^{n} != a^{n + 1}*x")
    w = _commuting_witness(powers[n], x, n)
    _require((("a*w = w*a", a * w == w * a),
              ("a^n = a^(n+1)*w", powers[n] == powers[n + 1] * w)))
    return w


def exponent_raise(a: SquareMatrix, x: SquareMatrix, n: int, m: int) -> ExponentRaiseRecord:
    """Check that a right witness at n is one at any m >= n, and that the
    gap closes in one multiplication: a^n = a^(n+k) x^k for k = m - n."""
    require_positive(PreconditionFailed, n=n, m=m)
    if m < n:
        raise PreconditionFailed(f"need 1 <= n <= m, got n={n!r}, m={m!r}")
    powers = _powers(a, (n, n + 1, m, m + 1))
    if powers[n] != powers[n + 1] * x:
        raise PreconditionFailed(f"a^{n} != a^{n + 1}*x")
    k = m - n
    _require((("a^m = a^(m+1)*x", powers[m] == powers[m + 1] * x),
              ("a^n = a^(n+k)*x^k", powers[n] == powers[m] * x ** k)))
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
    powers = _powers(a, (n, n + 1, N - n, N, N + 1))
    if powers[n] != powers[n + 1] * x:
        raise PreconditionFailed(f"a^{n} != a^{n + 1}*x")
    if powers[N] != w * powers[N + 1]:
        raise PreconditionFailed(f"a^{N} != w*a^{N + 1}")
    y = _lowered_left_witness(w, powers[N - n], N, n)
    _require((("a^n = Y*a^(n+1)", powers[n] == y * powers[n + 1]),))
    return y


def right_to_left_certificate(inst: RightWitnessInstance) -> LeftWitnessCertificate:
    """Run the full pipeline and return a self-contained, verified
    certificate; raises InternalViolation naming any failing identity."""
    a, n, x = inst.A, inst.n, inst.X
    ring, m = a.ring, a.dim
    big_n = n * m
    powers = _powers(a, (*range(m), big_n - n, big_n, big_n + 1), inst._checked_powers)
    # q(x) = det(I - xX) = 1 + s1 x + ... + sm x^m, the char poly of X reversed
    q = berkowitz_char_poly(x).payloads[::-1]  # (step 1); p = x^(nm) q(x)
    p = UniPolynomial.from_payloads(ring, [ring.zero_payload()] * big_n + list(q))
    # C = -(s1 I + s2 A + ... + sm A^(m-1)); each entry is (-s1, ..., -sm)
    # dotted with that entry of A^0, ..., A^(m-1).
    neg_s = list(map(ring.p_neg, q[1:]))
    c = SquareMatrix(ring, tuple(tuple(ring.p_dot(neg_s, stack) for stack in zip(*row_stack))
                                 for row_stack in zip(*(powers[i].rows for i in range(m)))))
    w = _commuting_witness(powers[big_n], c, big_n)
    y = _lowered_left_witness(w, powers[big_n - n], big_n, n)
    identities = _require(_certificate_checks(powers, a, n, x, p, c, big_n, w, y))
    cert = LeftWitnessCertificate(A=a, n=n, X=x, p=p, C=c, N=big_n,
                                  w=w, Y=y, verified=True, identities=identities)
    object.__setattr__(cert, "_checked", True)
    return cert


def _certificate_checks(powers: dict, a, n, x, p, c, big_n, w, y) -> tuple:
    """The seven identities on the certificate fields A, n, X, p, C, N, w, Y,
    each evaluated once; ``powers`` holds A^n, A^(n+1), A^N and A^(N+1)."""
    ring, zero = a.ring, a.ring.zero_payload()
    shape_ok = (
        big_n == n * a.dim
        and p.spec == ring and p.degree >= big_n
        and all(c_i == zero for c_i in p.payloads[:big_n])
        and p.payloads[big_n] == ring.one_payload()
    )
    a_n, a_n1 = powers[n], powers[n + 1]
    a_big, a_big1 = powers[big_n], powers[big_n + 1]
    return (
        ("right_witness", a_n == a_n1 * x),
        ("exponent_is_n_times_dim", big_n == n * a.dim),
        ("char_poly_factor_shape", shape_ok),
        ("raised_right_witness", a_big == a_big1 * c),
        ("commuting_witness", a * w == w * a),
        ("raised_left_witness", a_big == w * a_big1),
        ("left_witness", a_n == y * a_n1),
    )


def verify_certificate(cert: LeftWitnessCertificate) -> CertificateVerdict:
    """Re-check every identity from the stored fields alone, on powers of
    the stored A computed here and shared with nothing else."""
    checks = _certificate_checks(
        _powers(cert.A, (cert.n, cert.n + 1, cert.N, cert.N + 1)),
        cert.A, cert.n, cert.X, cert.p, cert.C, cert.N, cert.w, cert.Y)
    return CertificateVerdict(ok=all(holds for _, holds in checks), identities=checks)


# -- JSON round trip ---------------------------------------------------------


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


def certificate_to_json(cert: LeftWitnessCertificate) -> dict:
    spec = cert.A.ring
    return {
        "ring": spec.token(),
        "dim": cert.A.dim,
        "n": cert.n,
        "N": cert.N,
        "A": matrix_to_json(cert.A),
        "X": matrix_to_json(cert.X),
        "p_coeffs": [spec.payload_to_json(c) for c in cert.p.payloads],
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
        dim = data["dim"]
        n = data["n"]
        big_n = data["N"]
        mats = {key: matrix_from_json(spec, data[key], dim) for key in ("A", "X", "C", "w", "Y")}
        p_coeffs, items = data["p_coeffs"], data["identities"]
        if not (isinstance(p_coeffs, list) and isinstance(items, list)
                and all(isinstance(item, dict) for item in items)):
            raise MalformedPayload(
                "certificate p_coeffs must be a list and identities a list of objects")
        p = UniPolynomial.from_payloads(spec, map(spec.payload_from_json, p_coeffs))
        identities = tuple((item["name"], item["holds"]) for item in items)
        verified = data["verified"]
    except KeyError as exc:
        raise MalformedPayload(f"certificate document missing field {exc}") from exc
    if any(isinstance(e, bool) or not isinstance(e, int) or e < 1 for e in (n, big_n)):
        raise MalformedPayload("certificate exponents n and N must be positive integers")
    if not all(isinstance(flag, bool) for flag in (verified, *(h for _, h in identities))):
        raise MalformedPayload("certificate verified and every holds must be true or false")
    return LeftWitnessCertificate(
        A=mats["A"], n=n, X=mats["X"], p=p, C=mats["C"], N=big_n,
        w=mats["w"], Y=mats["Y"], verified=verified, identities=identities)


def emit_certificate(cert: LeftWitnessCertificate) -> str:
    """Canonical JSON for a certificate; refuses one that does not verify.
    Only a certificate from :func:`right_to_left_certificate` skips the check."""
    if not cert._checked:
        verdict = verify_certificate(cert)
        if not verdict.ok:
            raise UnverifiedCertificate(
                f"refusing to emit certificate; failing identities: {verdict.failing()}")
    return canonical_dumps(certificate_to_json(cert))
