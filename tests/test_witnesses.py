import json
import random

import pytest

from piregular import (
    Integers,
    IntegersMod,
    InternalViolation,
    MalformedPayload,
    MatrixPolynomial,
    PreconditionFailed,
    RightWitnessInstance,
    SpecMismatch,
    SquareMatrix,
    UniPolynomial,
    UnverifiedCertificate,
    azumaya_lower_left,
    certificate_from_json,
    certificate_to_json,
    drazin_witness,
    edge_instances,
    emit_certificate,
    exponent_raise,
    det_poly_matrix,
    integer_instance,
    left_witness_search,
    parse_matrix_literal,
    parse_ring_spec,
    right_to_left_certificate,
    right_witness_search,
    sampled_finite_instance,
    verify_certificate,
)
from piregular import witnesses

from helpers import naive_left_witness, random_matrix

Z = Integers()
Z4 = IntegersMod(4)
Z5 = IntegersMod(5)
Z9 = IntegersMod(9)


def mat(spec, text):
    return parse_matrix_literal(spec, text)


# -- commuting witness -------------------------------------------------------


def test_drazin_idempotent():
    e = mat(Z, "[[1,0],[0,0]]")
    assert drazin_witness(e, e, 1) == e


def test_drazin_mod5_scalar():
    # 2 = 4*3 mod 5, so x = 3 witnesses a = 2 at n = 1; w = 2*3^2 = 18 = 3
    a, x = mat(Z5, "[[2]]"), mat(Z5, "[[3]]")
    assert drazin_witness(a, x, 1) == mat(Z5, "[[3]]")


def test_drazin_zero():
    z = SquareMatrix.zeros(Z, 2)
    assert drazin_witness(z, z, 1) == z


def test_drazin_rejects_non_witness():
    a = mat(Z, "[[2,0],[0,2]]")
    x = mat(Z, "[[1,0],[0,1]]")
    with pytest.raises(PreconditionFailed):
        drazin_witness(a, x, 1)
    with pytest.raises(PreconditionFailed):
        drazin_witness(a, x, 0)


def test_drazin_commutes_on_generated_instances():
    count = 0
    for seed in range(40):
        inst = integer_instance(seed % 3, 1 + seed % 2, seed)
        w = drazin_witness(inst.A, inst.X, inst.n)
        assert inst.A * w == w * inst.A
        assert inst.A ** inst.n == (inst.A ** (inst.n + 1)) * w
        assert inst.A ** inst.n == w * (inst.A ** (inst.n + 1))
        count += 1
    assert count == 40


# -- exponent shifts -----------------------------------------------------------


def test_exponent_raise_idempotent():
    e = mat(Z, "[[1,0],[0,0]]")
    record = exponent_raise(e, e, 1, 3)
    assert (record.n, record.m, record.shift) == (1, 3, 2)


def test_exponent_raise_modular_examples():
    a = mat(Z4, "[[2,0],[0,1]]")
    ident = SquareMatrix.identity(Z4, 2)
    assert exponent_raise(a, ident, 2, 4).shift == 2
    a5, x5 = mat(Z5, "[[2]]"), mat(Z5, "[[3]]")
    assert exponent_raise(a5, x5, 1, 2).shift == 1
    with pytest.raises(PreconditionFailed):
        exponent_raise(a5, x5, 2, 1)


def test_azumaya_degenerate_and_scalar():
    e = mat(Z, "[[1,0],[0,0]]")
    # N = n: Y collapses to w itself
    assert azumaya_lower_left(e, e, e, 1, 1) == e
    # over Z5: a=2, x=3, w=3, N=2, n=1 -> Y = 3^2 * 2 = 18 = 3
    a, x, w = mat(Z5, "[[2]]"), mat(Z5, "[[3]]"), mat(Z5, "[[3]]")
    assert azumaya_lower_left(a, x, w, 2, 1) == mat(Z5, "[[3]]")


def test_azumaya_matrix_example():
    a = mat(Z4, "[[2,0],[0,1]]")
    x = SquareMatrix.identity(Z4, 2)
    w = mat(Z4, "[[0,0],[0,1]]")
    y = azumaya_lower_left(a, x, w, 4, 2)
    assert y == mat(Z4, "[[0,0],[0,1]]")
    assert a ** 2 == y * (a ** 3)


def test_azumaya_rejects_bad_inputs():
    a = mat(Z5, "[[2]]")
    x = mat(Z5, "[[3]]")
    with pytest.raises(PreconditionFailed):
        azumaya_lower_left(a, x, mat(Z5, "[[1]]"), 2, 1)  # w fails its identity
    with pytest.raises(PreconditionFailed):
        azumaya_lower_left(a, mat(Z5, "[[1]]"), mat(Z5, "[[3]]"), 2, 1)


# -- full pipeline --------------------------------------------------------------


def test_pipeline_idempotent_case():
    e = mat(Z, "[[1,0],[0,0]]")
    cert = right_to_left_certificate(RightWitnessInstance(e, 1, e))
    assert cert.N == 2
    assert cert.C == SquareMatrix.identity(Z, 2)
    assert cert.w == e
    assert cert.Y == e
    assert cert.verified


def test_pipeline_modular_example():
    a = mat(Z4, "[[2,0],[0,1]]")
    cert = right_to_left_certificate(
        RightWitnessInstance(a, 2, SquareMatrix.identity(Z4, 2)))
    assert cert.N == 4
    assert cert.C == mat(Z4, "[[0,0],[0,1]]")  # 2I - A
    assert cert.w == mat(Z4, "[[0,0],[0,1]]")
    assert cert.Y == mat(Z4, "[[0,0],[0,1]]")
    assert [c.payload for c in cert.p.coefficients] == [0, 0, 0, 0, 1, 2, 1]
    assert cert.verified and verify_certificate(cert).ok


def test_pipeline_invertible_case():
    a = mat(Z5, "[[1,1],[0,1]]")
    x = mat(Z5, "[[1,4],[0,1]]")  # a^-1
    cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
    assert cert.C == x  # q = det(I - x a^-1) makes C = 2I - A = A^-1 here
    assert cert.verified
    assert a ** 1 == cert.Y * (a ** 2)
    # exhaustive search agrees a left witness exists
    assert left_witness_search(a, 1) is not None


def test_pipeline_handles_zero_and_any_witness():
    # A^2 = 0 makes any X a witness at n = 2; X = 0 and A itself both work
    a = mat(Z, "[[0,1],[0,0]]")
    for x in (SquareMatrix.zeros(Z, 2), a):
        cert = right_to_left_certificate(RightWitnessInstance(a, 2, x))
        assert cert.verified
    z = SquareMatrix.zeros(Z4, 2)
    assert right_to_left_certificate(RightWitnessInstance(z, 1, z)).verified


def test_pipeline_edge_instances():
    for spec in (Z, Z4, parse_ring_spec("quot:zmod:3:t^2")):
        for inst in edge_instances(spec):
            cert = right_to_left_certificate(inst)
            assert cert.verified
            assert inst.A ** inst.n == cert.Y * (inst.A ** (inst.n + 1))


def test_pipeline_on_integer_instances():
    for seed in range(25):
        inst = integer_instance(1 + seed % 3, 1 + seed % 2, 1000 + seed)
        cert = right_to_left_certificate(inst)
        assert cert.verified
        assert cert.N == inst.n * inst.A.dim


def test_pipeline_on_sampled_finite_instances_with_search_cross_check():
    for seed in range(30):
        spec = (Z4, Z9)[seed % 2]
        inst = sampled_finite_instance(spec, 2, seed)
        cert = right_to_left_certificate(inst)
        assert cert.verified
        found = left_witness_search(inst.A, inst.n)
        assert found is not None
        assert inst.A ** inst.n == found * (inst.A ** (inst.n + 1))


def test_pipeline_y_matches_naive_left_existence():
    rng = random.Random(64)
    checked = 0
    for _ in range(60):
        a = random_matrix(Z4, 2, rng)
        from piregular import right_witness_search
        x = right_witness_search(a, 1)
        if x is None:
            continue
        cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
        assert cert.verified
        assert naive_left_witness(a, 1) is not None
        checked += 1
    assert checked > 0


def test_pipeline_computes_each_power_once(monkeypatch):
    a = mat(Z9, "[[2,3],[1,5]]")
    x = right_witness_search(a, 1)
    calls = []
    plain_mul = SquareMatrix.__mul__
    monkeypatch.setattr(SquareMatrix, "__mul__",
                        lambda self, other: calls.append(1) or plain_mul(self, other))
    cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
    produced = len(calls)
    assert verify_certificate(cert).ok
    assert len(calls) - produced <= 8
    assert len(calls) <= 25


def test_failing_identity_raises_internal_violation(monkeypatch):
    # A wrong q(x) = 1 makes C = 0, so the raised and lowered witnesses fail.
    monkeypatch.setattr(witnesses, "det_poly_matrix",
                        lambda f: UniPolynomial.from_coeffs(f.ring, [1]))
    a = mat(Z4, "[[2,0],[0,1]]")
    inst = RightWitnessInstance(a, 2, SquareMatrix.identity(Z4, 2))
    with pytest.raises(InternalViolation) as info:
        right_to_left_certificate(inst)
    assert str(info.value) == ("identities failed: raised_right_witness, "
                               "raised_left_witness, left_witness")


def test_factored_determinant_identity():
    # det(x^n I - x^(n+1) X) computed directly equals the stored factored p
    rng = random.Random(11)
    for spec, bound in [(Z4, None), (Z5, None), (Z, 3)]:
        for _ in range(10):
            dim = rng.randint(1, 3)
            n = rng.randint(1, 3)
            x = random_matrix(spec, dim, rng, bound)
            ident = SquareMatrix.identity(spec, dim)
            zero = SquareMatrix.zeros(spec, dim)
            direct = det_poly_matrix(MatrixPolynomial.from_matrices(
                spec, dim, [zero] * n + [ident, -x]))
            factored = det_poly_matrix(MatrixPolynomial.from_matrices(
                spec, dim, [ident, -x])).shift(n * dim)
            assert direct == factored


def test_transpose_carries_right_witness_to_left():
    for seed in range(20):
        inst = sampled_finite_instance(Z4, 2, 500 + seed)
        at = inst.A.transpose()
        xt = inst.X.transpose()
        assert at ** inst.n == xt * (at ** (inst.n + 1))


# -- certificates as data --------------------------------------------------------


def build_cert():
    a = mat(Z4, "[[2,0],[0,1]]")
    return right_to_left_certificate(
        RightWitnessInstance(a, 2, SquareMatrix.identity(Z4, 2)))


def test_certificate_json_round_trip():
    cert = build_cert()
    text = emit_certificate(cert)
    again = certificate_from_json(json.loads(text))
    assert again == cert
    assert emit_certificate(again) == text


def test_certificate_schema_keys():
    payload = certificate_to_json(build_cert())
    assert set(payload) == {"ring", "dim", "n", "N", "A", "X", "p_coeffs",
                            "C", "w", "Y", "verified", "identities"}


def test_tampered_certificate_fails_and_is_refused():
    cert = build_cert()
    payload = certificate_to_json(cert)
    payload["Y"] = [[1, 0], [0, 2]]
    bad = certificate_from_json(payload)
    verdict = verify_certificate(bad)
    assert not verdict.ok
    assert "left_witness" in verdict.failing()
    with pytest.raises(UnverifiedCertificate):
        emit_certificate(bad)


def test_certificate_with_wrong_exponent_fails_shape_check():
    cert = build_cert()
    payload = certificate_to_json(cert)
    payload["N"] = cert.N + 1
    verdict = verify_certificate(certificate_from_json(payload))
    assert not verdict.ok
    assert "exponent_is_n_times_dim" in verdict.failing()


@pytest.mark.parametrize("field, value",
                         [("n", -1), ("N", -1), ("n", 0), ("N", 0), ("n", True), ("N", 4.0)])
def test_certificate_exponents_must_be_positive_integers(field, value):
    payload = certificate_to_json(build_cert())
    payload[field] = value
    with pytest.raises(MalformedPayload):
        certificate_from_json(payload)


def test_certificate_missing_field_rejected():
    payload = certificate_to_json(build_cert())
    del payload["w"]
    with pytest.raises(MalformedPayload):
        certificate_from_json(payload)
    with pytest.raises(MalformedPayload):
        certificate_from_json("not a dict")


def test_instance_validation():
    a = mat(Z4, "[[2,0],[0,1]]")
    with pytest.raises(PreconditionFailed):
        RightWitnessInstance(a, 1, SquareMatrix.identity(Z4, 2))
    with pytest.raises(PreconditionFailed):
        RightWitnessInstance(a, 0, SquareMatrix.identity(Z4, 2))
    with pytest.raises(SpecMismatch):
        RightWitnessInstance(a, 2, SquareMatrix.identity(Z5, 2))
