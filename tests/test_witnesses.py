import json
import random
import re
from dataclasses import replace

import pytest

from piregular import (
    BudgetExceeded,
    FreeAlgebra,
    Integers,
    IntegersMod,
    InternalViolation,
    MalformedPayload,
    PreconditionFailed,
    RightWitnessInstance,
    SpecMismatch,
    SquareMatrix,
    UnverifiedCertificate,
    azumaya_lower_left,
    certificate_from_json,
    certificate_to_json,
    drazin_witness,
    edge_instances,
    emit_certificate,
    determinant,
    exponent_raise,
    integer_instance,
    left_witness_search,
    parse_matrix_literal,
    parse_nc,
    parse_ring_spec,
    poly_ring,
    right_to_left_certificate,
    right_witness_search,
    sampled_finite_instance,
    verify_certificate,
)
from piregular import lab, rings, witnesses
from piregular.matrices import char_poly_rows
from piregular.rings import DEFAULT_BUDGET

from helpers import (
    cofactor_det,
    count_products,
    matrix_polynomial,
    naive_difference,
    naive_left_witness,
    naive_power,
    naive_product,
    random_matrix,
)

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


def test_instance_exponent_times_dim_must_fit_the_budget(monkeypatch):
    # A = diag(2, 1) over Z_4 has A^n = A^(n+1) for n >= 2, so X = I works at
    # every exponent; n * dim = DEFAULT_BUDGET still passes, one more does not,
    # and that refusal binds no product and computes no power.
    a, x = mat(Z4, "[[2,0],[0,1]]"), SquareMatrix.identity(Z4, 2)
    assert RightWitnessInstance(a, DEFAULT_BUDGET // 2, x).n == DEFAULT_BUDGET // 2

    def refuse(*args):
        raise AssertionError("a refused instance reached a product or a power")

    monkeypatch.setattr(witnesses, "binary_power", refuse)
    monkeypatch.setattr(IntegersMod, "matmul", refuse)
    for n in (DEFAULT_BUDGET // 2 + 1, 10 ** 9):
        with pytest.raises(BudgetExceeded, match="exceeds budget"):
            RightWitnessInstance(a, n, x)
    with pytest.raises(BudgetExceeded):
        RightWitnessInstance(SquareMatrix.identity(Z4, 3), DEFAULT_BUDGET // 3 + 1,
                             SquareMatrix.identity(Z4, 3))


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


def test_raised_and_lowered_exponents_must_fit_the_budget(monkeypatch):
    # exponent_raise holds m*dim to DEFAULT_BUDGET, as an instance holds n*dim, and
    # azumaya_lower_left holds N to it, as a certificate's N = n*dim is held: at each
    # bound over zmod:2 the call still runs, and past it the call refuses before any
    # product or power, as it does over int for A = [[2,1],[1,1]] and X = A^-1
    z2, big = IntegersMod(2), DEFAULT_BUDGET
    one, ident = mat(z2, "[[1]]"), SquareMatrix.identity(z2, 2)
    a, x = mat(Z, "[[2,1],[1,1]]"), mat(Z, "[[1,-1],[-1,2]]")
    assert exponent_raise(one, one, 1, big).shift == big - 1
    assert exponent_raise(ident, ident, 1, big // 2).shift == big // 2 - 1
    assert azumaya_lower_left(one, one, one, big, 1) == one
    assert azumaya_lower_left(ident, ident, ident, big, 1) == ident

    def refuse(*args):
        raise AssertionError("a refused step reached a product or a power")

    monkeypatch.setattr(witnesses, "binary_power", refuse)
    for spec in (Integers, IntegersMod):
        monkeypatch.setattr(spec, "matmul", refuse)
    for step in (lambda: exponent_raise(one, one, 1, big + 1),
                 lambda: exponent_raise(ident, ident, 1, big // 2 + 1),
                 lambda: exponent_raise(a, x, 1, 2 ** 24),
                 lambda: azumaya_lower_left(one, one, one, big + 1, 1),
                 lambda: azumaya_lower_left(ident, ident, ident, big + 1, 1),
                 lambda: azumaya_lower_left(a, x, x, 2 ** 23, 1)):
        with pytest.raises(BudgetExceeded, match="exceeds budget"):
            step()


def test_step_functions_run_over_the_free_algebra():
    # the three steps hold in any ring: over Q<a, ..., z>, A = [[1, a], [0, 0]]
    # is idempotent and X = [[1 - ay, 0], [y, 1]] a right witness at every n
    free = FreeAlgebra()

    def nc(rows):
        return SquareMatrix.from_rows(free, [[parse_nc(entry) for entry in row] for row in rows])

    a, x = nc([["1", "a"], ["0", "0"]]), nc([["1 - a y", "0"], ["y", "1"]])
    assert RightWitnessInstance(a, 2, x).n == 2
    assert drazin_witness(a, x, 2) == a
    assert exponent_raise(a, x, 1, 3).shift == 2
    assert exponent_raise(a, x, 2, 2).shift == 0
    assert azumaya_lower_left(a, x, a, 3, 1) == a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_only_a_zeroth_power_builds_the_identity(n, monkeypatch):
    # I is built on demand: an instance and a verification never read A^0, a
    # certificate's C does once, and exponent_raise at m = n reads x^0
    built = []
    identity = witnesses._Powers.identity
    monkeypatch.setattr(witnesses._Powers, "identity",
                        lambda powers: built.append(len(powers.a)) or identity(powers))
    a, x = mat(Z9, "[[1,3],[0,0]]"), mat(Z9, "[[4,0],[2,1]]")  # A idempotent, AX = A
    inst = RightWitnessInstance(a, n, x)
    assert built == [] and 0 not in inst._checked_rows[0]
    cert = right_to_left_certificate(inst)
    assert built == [2] and inst._checked_rows[0][0] == SquareMatrix.identity(Z9, 2).rows
    assert verify_certificate(cert).ok and built == [2]
    record = exponent_raise(a, x, n, n)
    assert (record.n, record.m, record.shift) == (n, n, 0) and built == [2, 2]


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
    assert list(cert.p.payload) == [0, 0, 0, 0, 1, 2, 1]
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
    calls = count_products(monkeypatch)
    cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
    produced = len(calls)
    assert verify_certificate(cert).ok
    assert len(calls) - produced == 8
    assert len(calls) == 21


def test_certificate_reuses_the_instance_powers(monkeypatch):
    # The instance check computes A^2 and A^2 X; the certificate reuses
    # both, A^2 for its powers and A^2 X for the right_witness identity.
    a = mat(Z9, "[[2,3],[1,5]]")
    x = right_witness_search(a, 1)
    calls = count_products(monkeypatch)
    cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
    produced = len(calls)
    assert verify_certificate(cert).ok
    assert produced == 13
    assert len(calls) - produced == 8


def test_step_functions_extend_the_instance_powers(monkeypatch):
    # Each step builds the instance's A^n, A^(n+1) and then walks its table
    # upwards, one product per next power; reading A^N before A^(N-n) would
    # make the first count 11.
    a, x = mat(Z5, "[[2]]"), mat(Z5, "[[3]]")
    calls = count_products(monkeypatch)
    for step, products in [(lambda: azumaya_lower_left(a, x, x, 4, 1), 10),
                           (lambda: azumaya_lower_left(a, x, x, 6, 2), 14),
                           (lambda: exponent_raise(a, x, 1, 4), 9),
                           (lambda: exponent_raise(a, x, 2, 5), 11),
                           (lambda: drazin_witness(a, x, 3), 10)]:
        calls.clear()
        step()
        assert len(calls) == products
    inst = RightWitnessInstance(mat(Z9, "[[2,3],[1,5]]"), 2, mat(Z9, "[[2,6],[5,8]]"))
    assert right_to_left_certificate(inst) == right_to_left_certificate(inst)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_certificate_kernel_writes_the_step_paths_products(monkeypatch, m, n):
    # the kernel is the step path run on named cells: one block of cells p<i>_<row>_<col>
    # for each product instance_rows and certificate_rows make on an instance of its
    # shape, here A = X = I over zmod:2
    blocks = re.findall(r"\bp(\d+)_0_0 = ", witnesses._certificate_source(m, n))
    a, calls = SquareMatrix.identity(IntegersMod(2), m).rows, count_products(monkeypatch)
    witnesses.certificate_rows(a, *witnesses.instance_rows(IntegersMod(2), n, a, a))
    assert len(blocks) == len(set(blocks)) == len(calls)


@pytest.mark.parametrize("dim", range(1, rings._KERNEL_CAP + 1))
def test_building_c_makes_one_dot_call_per_entry_and_none_in_a_scan(monkeypatch, dim):
    # the step path builds C with one p_dot per entry on top of its one Berkowitz
    # call on X; a scan's certificate kernel, over zmod:k, writes Berkowitz and C
    # out, so it makes no p_dot and no char_poly_rows call at all
    z12 = IntegersMod(12)
    insts = [integer_instance(dim // 2, dim - dim // 2, dim)]
    if dim <= 3:
        insts.append(sampled_finite_instance(z12, dim, dim))
    calls, berkowitz_calls = [], []
    for spec in (Integers, IntegersMod):
        monkeypatch.setattr(spec, "p_dot", lambda self, row, col, dot=spec.p_dot:
                            calls.append(1) or dot(self, row, col))
    monkeypatch.setattr(witnesses, "char_poly_rows", lambda ring, rows:
                        berkowitz_calls.append(1) or char_poly_rows(ring, rows))
    for inst in insts:
        char_poly_rows(inst.X.ring, inst.X.rows)
        berkowitz = len(calls)
        right_to_left_certificate(inst)
        assert len(calls) == 2 * berkowitz + dim * dim and len(berkowitz_calls) == 1
        if inst.A.ring == z12:
            certify = witnesses._certificate_kernel(dim, inst.n)
            assert certify(z12, inst.A.rows, inst.X.rows)[3]
            assert len(calls) == 2 * berkowitz + dim * dim and len(berkowitz_calls) == 1
        calls.clear()
        berkowitz_calls.clear()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_matches_naive_powers_and_products(n, dim):
    # q from cofactor expansion of det(xI - X); then C, w and Y by the
    # textbook formulas, every power a chain of naive products.
    z12, rng = IntegersMod(12), random.Random(100 * n + dim)
    while True:
        a = random_matrix(z12, dim, rng)
        x = right_witness_search(a, n)
        if x is not None:
            break
    cert = right_to_left_certificate(RightWitnessInstance(a, n, x))
    pspec = poly_ring(z12)
    x_minus_x = SquareMatrix.from_rows(pspec, [
        [pspec.element([z12.p_neg(x.rows[i][j])] + [1] * (i == j)) for j in range(dim)]
        for i in range(dim)])
    q = [z12.wrap(s) for s in cofactor_det(x_minus_x).payload[::-1]]
    big_n, ea = n * dim, a.entries
    c = [[z12.zero()] * dim for _ in range(dim)]
    for i in range(dim):  # C = -(s1 I + s2 A + ... + sm A^(m-1))
        c = naive_difference(c, [[q[i + 1] * e for e in row] for row in naive_power(z12, ea, i)])
    w = naive_product(z12, naive_power(z12, ea, big_n), naive_power(z12, c, big_n + 1))
    y = naive_product(z12, naive_power(z12, w, big_n - n + 1), naive_power(z12, ea, big_n - n))
    assert [[list(row) for row in mat.entries] for mat in (cert.C, cert.w, cert.Y)] == [c, w, y]


def test_emit_trusts_only_its_producer(monkeypatch):
    cert = build_cert()
    calls = count_products(monkeypatch)
    text = emit_certificate(cert)
    assert calls == []
    loaded = certificate_from_json(json.loads(text))
    assert loaded == cert
    assert emit_certificate(loaded) == text and calls != []
    with pytest.raises(UnverifiedCertificate):
        emit_certificate(replace(cert, Y=SquareMatrix.zeros(Z4, 2)))


def test_emit_writes_the_verdict_not_the_stored_flags():
    text = emit_certificate(build_cert())
    doc = json.loads(text)
    doc["verified"], doc["identities"] = False, [{"name": "made_up", "holds": False}]
    loaded = certificate_from_json(doc)
    assert verify_certificate(loaded).ok
    assert emit_certificate(loaded) == text


def test_warm_quotient_certificates_make_no_products_or_parses(monkeypatch):
    # Once a dual-number certificate has been built and verified, its ring's
    # tables hold every sum, product and literal that building it again,
    # emitting, loading and verifying the loaded copy need.
    inst = sampled_finite_instance(parse_ring_spec("quot:zmod:3:t^2"), 3, 5)
    assert verify_certificate(right_to_left_certificate(inst)).ok
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(rings, "_seq_mul", counted("_seq_mul", rings._seq_mul))
    monkeypatch.setattr(rings._LiteralParser, "parse",
                        counted("parse", rings._LiteralParser.parse))
    cert = right_to_left_certificate(RightWitnessInstance(inst.A, inst.n, inst.X))
    again = certificate_from_json(json.loads(emit_certificate(cert)))
    assert again == cert and verify_certificate(again).ok
    assert calls == []


def test_failing_identity_raises_internal_violation(monkeypatch):
    # A char poly x^m gives the wrong q(x) = 1, which makes C = 0, so the
    # raised and lowered witnesses fail.
    monkeypatch.setattr(witnesses, "char_poly_rows",
                        lambda ring, rows: poly_ring(ring).gen() ** len(rows))
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
            direct = determinant(matrix_polynomial([zero] * n + [ident, -x]))
            factored = determinant(matrix_polynomial([ident, -x])) \
                * poly_ring(spec).gen() ** (n * dim)
            assert direct == factored


@pytest.mark.parametrize("token, bound", [("int", 3), ("zmod:4", None), ("zmod:12", None),
                                          ("quot:zmod:3:t^2", None)])
def test_certificate_p_is_the_direct_determinant(token, bound):
    # The producer reads q off the characteristic polynomial of X; the oracle
    # is det(x^n I - x^(n+1) X) expanded over the polynomial ring.  A = 0
    # takes any X, and an idempotent E takes X = I + (I - E) Z for any Z.
    spec = parse_ring_spec(token)
    rng = random.Random(17)
    for dim in range(1, 5):
        ident, zero = SquareMatrix.identity(spec, dim), SquareMatrix.zeros(spec, dim)
        idem = SquareMatrix.from_rows(
            spec, [[1 if i == j and 2 * i < dim else 0 for j in range(dim)] for i in range(dim)])
        for n in range(1, 4):
            for a, x in ((zero, random_matrix(spec, dim, rng, bound)),
                         (idem, ident + (ident - idem) * random_matrix(spec, dim, rng, bound))):
                cert = right_to_left_certificate(RightWitnessInstance(a, n, x))
                direct = determinant(matrix_polynomial([zero] * n + [ident, -x]))
                assert cert.p == direct, (token, dim, n)


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


@pytest.mark.parametrize("field", ["X", "C", "w", "Y"])
def test_verify_refuses_matrices_off_the_base_ring_or_dimension(field):
    # The verifier checks ring and dimension once, before its products on
    # payload rows; a row product of mismatched shapes would not raise.
    cert = build_cert()
    for other in (SquareMatrix.identity(Z5, 2), SquareMatrix.identity(Z4, 1),
                  SquareMatrix.identity(Z4, 3), [[1, 0], [0, 1]]):
        with pytest.raises(SpecMismatch):
            verify_certificate(replace(cert, **{field: other}))


@pytest.mark.parametrize("field, value",
                         [("n", -1), ("N", -1), ("n", 0), ("N", 0), ("n", True), ("N", 4.0)])
def test_certificate_exponents_must_be_positive_integers(field, value):
    payload = certificate_to_json(build_cert())
    payload[field] = value
    with pytest.raises(MalformedPayload):
        certificate_from_json(payload)


@pytest.mark.parametrize("field, value",
                         [("identities", 5), ("identities", [5]), ("identities", {"a": 1}),
                          ("p_coeffs", 7), ("p_coeffs", "1")])
def test_certificate_with_wrongly_shaped_lists_rejected(field, value):
    payload = certificate_to_json(build_cert())
    payload[field] = value
    with pytest.raises(MalformedPayload):
        certificate_from_json(payload)


def one_by_one_cert():
    return right_to_left_certificate(RightWitnessInstance(mat(Z4, "[[3]]"), 1, mat(Z4, "[[3]]")))


@pytest.mark.parametrize("build, edit, message", [
    (one_by_one_cert, lambda doc: doc.update(dim=True), "dim must be a positive integer"),
    (one_by_one_cert, lambda doc: doc.update(dim=1.0), "dim must be a positive integer"),
    (build_cert, lambda doc: doc.update(dim=True), "dim must be a positive integer, got True"),
    (build_cert, lambda doc: doc.update(dim=0), "dim must be a positive integer, got 0"),
    (build_cert, lambda doc: doc.update(verified="no"), "verified and every holds"),
    (build_cert, lambda doc: doc["identities"][3].update(holds="no"), "verified and every holds"),
    (build_cert, lambda doc: doc["identities"][0].update(holds=1), "verified and every holds"),
], ids=["dim-true-1x1", "dim-float-1x1", "dim-true", "dim-zero", "verified-string",
        "holds-string", "holds-int"])
def test_certificate_dim_and_flags_must_have_their_json_types(build, edit, message):
    payload = certificate_to_json(build())
    assert certificate_from_json(payload) == build()
    edit(payload)
    with pytest.raises(MalformedPayload, match=message):
        certificate_from_json(payload)


def test_certificate_missing_field_rejected():
    payload = certificate_to_json(build_cert())
    del payload["w"]
    with pytest.raises(MalformedPayload):
        certificate_from_json(payload)
    with pytest.raises(MalformedPayload):
        certificate_from_json("not a dict")


ONE_Z4 = SquareMatrix.identity(Z4, 2)


@pytest.mark.parametrize("call", [
    lambda: right_witness_search(ONE_Z4, True),
    lambda: left_witness_search(ONE_Z4, True),
    lambda: RightWitnessInstance(ONE_Z4, True, ONE_Z4),
    lambda: drazin_witness(ONE_Z4, ONE_Z4, True),
    lambda: exponent_raise(ONE_Z4, ONE_Z4, True, 2),
    lambda: exponent_raise(ONE_Z4, ONE_Z4, 1, True),
    lambda: azumaya_lower_left(ONE_Z4, ONE_Z4, ONE_Z4, 2, True),
    lambda: azumaya_lower_left(ONE_Z4, ONE_Z4, ONE_Z4, True, 1),
], ids=["right_search", "left_search", "instance", "drazin", "raise_n", "raise_m",
        "azumaya_n", "azumaya_N"])
def test_bool_exponents_are_refused(call):
    # True == 1 as an int, but a certificate built from n=True would carry
    # "n":true, which certificate_from_json refuses.
    with pytest.raises(PreconditionFailed, match="must be a positive integer, got True"):
        call()


def test_instance_validation():
    a = mat(Z4, "[[2,0],[0,1]]")
    with pytest.raises(PreconditionFailed):
        RightWitnessInstance(a, 1, SquareMatrix.identity(Z4, 2))
    with pytest.raises(PreconditionFailed):
        RightWitnessInstance(a, 0, SquareMatrix.identity(Z4, 2))
    with pytest.raises(SpecMismatch):
        RightWitnessInstance(a, 2, SquareMatrix.identity(Z5, 2))
    # right_witness_search returns None when A has no witness at n
    assert right_witness_search(mat(Z4, "[[2,1],[0,2]]"), 1) is None
    for args in ((a, 2, None), (None, 2, a), (a, 2, [[1, 0], [0, 1]])):
        with pytest.raises(SpecMismatch, match="must be square matrices"):
            RightWitnessInstance(*args)


@pytest.mark.parametrize("token", ["int", "zmod:9", "poly:int:t", "quot:zmod:3:t^2",
                                   "quot:zmod:17:t^2"])
def test_matrix_records_convert_like_the_per_entry_path(token):
    # quot:zmod:17:t^2 has 289 elements, too many for a memo table
    spec = parse_ring_spec(token)
    rng = random.Random(token)
    engine = lab._engine(spec, 2) if spec.is_finite else None
    for _ in range(25):
        a = random_matrix(spec, 2, rng, bound=5)
        data = witnesses.matrix_to_json(a)
        assert data == [[spec.payload_to_json(p) for p in row] for row in a.rows]
        assert witnesses.matrix_from_json(spec, data, 2) == a
        if engine is not None:
            assert engine.to_square(engine.from_square(a)) == a
