"""Constructive conversion of right witnesses into left witnesses.

A right witness for a square matrix A at exponent n is an X with
A^n = A^(n+1) X.  Over a commutative coefficient ring the conversion to a
left witness (a Y with A^n = Y A^(n+1)) is fully constructive:

1.  A kills the matrix polynomial x^n I - x^(n+1) X under right
    substitution, so it also kills the scalar polynomial
    p(x) = det(x^n I - x^(n+1) X) = x^(nm) * q(x) with q(x) = det(I - xX)
    and q(0) = 1.  Reading the coefficients of q off gives a right witness
    C at the raised exponent N = n*m:  A^N = A^(N+1) C.
2.  w = A^N C^(N+1) commutes with A and still satisfies A^N = A^(N+1) w,
    hence A^N = w A^(N+1): a left witness at exponent N.
3.  Y = w^(N-n+1) A^(N-n) lowers the left exponent back to n:
    A^n = Y A^(n+1).

Each power of A is computed once and the seven certificate identities are
checked once; a failure raises instead of returning a bad witness.  The
verifier recomputes them on its own powers of A from the certificate alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    InternalViolation,
    MalformedPayload,
    PreconditionFailed,
    SpecMismatch,
    UnverifiedCertificate,
)
from .jsonio import canonical_dumps
from .matrices import MatrixPolynomial, SquareMatrix, UniPolynomial, det_poly_matrix
from .rings import RingSpec, parse_ring_spec


def _powers(a: SquareMatrix, exponents) -> dict:
    """A^k for every k in ``exponents``, each distinct power computed once.
    A^(k+1) reuses A^k; any other power is binary powering, so an exponent
    read from an untrusted certificate costs O(log k) products."""
    out = {}
    for k in sorted(set(exponents)):
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
    """A verified instance of A^n = A^(n+1) X; checked at construction."""

    A: SquareMatrix
    n: int
    X: SquareMatrix

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise PreconditionFailed(f"exponent must be a positive integer, got {self.n!r}")
        if self.X.ring != self.A.ring or self.X.dim != self.A.dim:
            raise SpecMismatch("witness matrix must match the base matrix")
        powers = _powers(self.A, (self.n, self.n + 1))
        if powers[self.n] != powers[self.n + 1] * self.X:
            raise PreconditionFailed(
                f"A^{self.n} != A^{self.n + 1}*X: not a right witness instance")


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


@dataclass(frozen=True, slots=True)
class CertificateVerdict:
    ok: bool
    identities: tuple  # of (name, holds) pairs

    def failing(self) -> tuple:
        return tuple(name for name, holds in self.identities if not holds)


def drazin_witness(a: SquareMatrix, x: SquareMatrix, n: int) -> SquareMatrix:
    """From a^n = a^(n+1) x build w = a^n x^(n+1), which commutes with a and
    is again a witness: a^n = a^(n+1) w, hence also a^n = w a^(n+1)."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionFailed(f"exponent must be a positive integer, got {n!r}")
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
    if not isinstance(n, int) or n < 1 or not isinstance(m, int) or m < n:
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
    if not isinstance(n, int) or n < 1 or not isinstance(N, int) or N < n:
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
    powers = _powers(a, (*range(m), n, n + 1, big_n - n, big_n, big_n + 1))
    # q(x) = det(I - x X); the full polynomial is p = x^(n m) * q(x).
    q = det_poly_matrix(MatrixPolynomial.from_matrices(
        ring, m, [SquareMatrix.identity(ring, m), -x]))
    # C = -(s1 I + s2 A + ... + sm A^(m-1)) where q = 1 + s1 x + ... + sm x^m
    acc = SquareMatrix.zeros(ring, m)
    for i in range(m):
        acc = acc + powers[i].scale(q.coefficient(i + 1))
    c = -acc
    w = _commuting_witness(powers[big_n], c, big_n)
    y = _lowered_left_witness(w, powers[big_n - n], big_n, n)
    cert = LeftWitnessCertificate(A=a, n=n, X=x, p=q.shift(big_n), C=c, N=big_n,
                                  w=w, Y=y, verified=True, identities=())
    return replace(cert, identities=_require(_certificate_checks(cert, powers)))


def _certificate_checks(cert: LeftWitnessCertificate, powers: dict) -> tuple:
    """The seven certificate identities, each evaluated once; ``powers``
    holds A^n, A^(n+1), A^N and A^(N+1)."""
    a, n, big_n, p, w = cert.A, cert.n, cert.N, cert.p, cert.w
    shape_ok = (
        big_n == n * a.dim
        and p.degree >= big_n
        and all(p.coefficient(i).is_zero for i in range(big_n))
        and p.coefficient(big_n) == a.ring.one()
    )
    a_n, a_n1 = powers[n], powers[n + 1]
    a_big, a_big1 = powers[big_n], powers[big_n + 1]
    return (
        ("right_witness", a_n == a_n1 * cert.X),
        ("exponent_is_n_times_dim", big_n == n * a.dim),
        ("char_poly_factor_shape", shape_ok),
        ("raised_right_witness", a_big == a_big1 * cert.C),
        ("commuting_witness", a * w == w * a),
        ("raised_left_witness", a_big == w * a_big1),
        ("left_witness", a_n == cert.Y * a_n1),
    )


def verify_certificate(cert: LeftWitnessCertificate) -> CertificateVerdict:
    """Re-check every identity from the stored fields alone, on powers of
    the stored A computed here and shared with nothing else."""
    checks = _certificate_checks(
        cert, _powers(cert.A, (cert.n, cert.n + 1, cert.N, cert.N + 1)))
    return CertificateVerdict(ok=all(holds for _, holds in checks), identities=checks)


# -- JSON round trip ---------------------------------------------------------


def matrix_to_json(mat: SquareMatrix):
    spec = mat.ring
    return [[spec.payload_to_json(e.payload) for e in row] for row in mat.entries]


def matrix_from_json(spec: RingSpec, data, dim: int) -> SquareMatrix:
    if not isinstance(data, list) or len(data) != dim:
        raise MalformedPayload(f"expected {dim} matrix rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != dim:
            raise MalformedPayload(f"expected {dim} entries per matrix row")
        rows.append([spec.element(spec.payload_from_json(v)) for v in row])
    return SquareMatrix.from_rows(spec, rows)


def certificate_to_json(cert: LeftWitnessCertificate) -> dict:
    spec = cert.A.ring
    return {
        "ring": spec.token(),
        "dim": cert.A.dim,
        "n": cert.n,
        "N": cert.N,
        "A": matrix_to_json(cert.A),
        "X": matrix_to_json(cert.X),
        "p_coeffs": [spec.payload_to_json(c.payload) for c in cert.p.coefficients],
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
        p = UniPolynomial.from_coeffs(
            spec, [spec.element(spec.payload_from_json(v)) for v in data["p_coeffs"]])
        identities = tuple(
            (item["name"], bool(item["holds"])) for item in data["identities"])
        verified = bool(data["verified"])
    except KeyError as exc:
        raise MalformedPayload(f"certificate document missing field {exc}") from exc
    if any(isinstance(e, bool) or not isinstance(e, int) or e < 1 for e in (n, big_n)):
        raise MalformedPayload("certificate exponents n and N must be positive integers")
    return LeftWitnessCertificate(
        A=mats["A"], n=n, X=mats["X"], p=p, C=mats["C"], N=big_n,
        w=mats["w"], Y=mats["Y"], verified=verified, identities=identities)


def emit_certificate(cert: LeftWitnessCertificate) -> str:
    """Canonical JSON for a certificate; refuses one that does not verify."""
    verdict = verify_certificate(cert)
    if not verdict.ok:
        raise UnverifiedCertificate(
            f"refusing to emit certificate; failing identities: {verdict.failing()}")
    return canonical_dumps(certificate_to_json(cert))
