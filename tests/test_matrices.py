import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import (
    DimMismatch,
    FREE,
    Integers,
    IntegersMod,
    NonCommutativeRing,
    ParseError,
    RightWitnessInstance,
    RingElem,
    RingSpec,
    SpecMismatch,
    SquareMatrix,
    berkowitz_char_poly,
    determinant,
    parse_matrix_literal,
    parse_nc,
    parse_ring_spec,
    poly_ring,
    right_evaluate_poly,
    right_to_left_certificate,
    right_witness_search,
    standard_identity,
    verify_certificate,
)

from helpers import (
    cofactor_det,
    matrix_polynomial,
    naive_difference,
    naive_power,
    naive_product,
    naive_sum,
    random_matrix,
)

Z = Integers()
Z4 = IntegersMod(4)
Z12 = IntegersMod(12)
DUAL_Z3 = parse_ring_spec("quot:zmod:3:t^2")

ORACLE_RINGS = [(Z, 9), (Z12, None), (DUAL_Z3, None)]


def mat(spec, text):
    return parse_matrix_literal(spec, text)


# -- arithmetic ----------------------------------------------------------------


def test_identity_is_neutral():
    a = mat(Z, "[[1,2],[3,4]]")
    ident = SquareMatrix.identity(Z, 2)
    assert ident * a == a
    assert a * ident == a


def test_modular_square():
    a = mat(Z4, "[[2,0],[0,1]]")
    assert a * a == mat(Z4, "[[0,0],[0,1]]")
    assert a ** 2 == a * a


def test_nilpotent_square_is_zero():
    a = mat(Z, "[[0,1],[0,0]]")
    assert (a ** 2).is_zero
    assert (a ** 0) == SquareMatrix.identity(Z, 2)


@pytest.mark.parametrize("exponent, products",
                         [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_powers_use_the_fewest_binary_products(monkeypatch, exponent, products):
    # Matrices and ring elements share one square-and-multiply loop.
    for base in (mat(Z, "[[1,2],[3,4]]"), Z.coerce(3)):
        cls = type(base)
        expected = base ** 0
        for _ in range(exponent):
            expected = expected * base
        calls = []
        plain_mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__",
                            lambda self, other: calls.append(1) or plain_mul(self, other))
        assert base ** exponent == expected
        monkeypatch.undo()
        assert len(calls) == products, cls


def test_positive_powers_build_no_identity(monkeypatch):
    # The identity is the 0th power only; binary powering never multiplies by it.
    a = mat(Z, "[[1,2],[3,4]]")
    calls = []
    plain_identity = SquareMatrix.identity
    monkeypatch.setattr(SquareMatrix, "identity", staticmethod(
        lambda ring, dim: calls.append(1) or plain_identity(ring, dim)))
    expected = a
    for k in range(1, 6):
        assert a ** k == expected
        expected = expected * a
    assert calls == []
    assert a ** 0 == plain_identity(Z, 2)
    assert calls == [1]


def test_arithmetic_identities_sampled():
    rng = random.Random(42)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3):
            a = random_matrix(spec, dim, rng, bound)
            b = random_matrix(spec, dim, rng, bound)
            c = random_matrix(spec, dim, rng, bound)
            assert (a + b) * c == a * c + b * c
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == SquareMatrix.zeros(spec, dim)
            assert a.transpose().transpose() == a
            assert (a * b).transpose() == b.transpose() * a.transpose()


def test_shape_and_spec_mismatches():
    a = mat(Z, "[[1,2],[3,4]]")
    with pytest.raises(DimMismatch, match=r"^dimension mismatch: 2 vs 1$"):
        a * mat(Z, "[[1]]")
    with pytest.raises(SpecMismatch, match="cannot combine a matrix with 3"):
        a * 3
    with pytest.raises(SpecMismatch):
        a * mat(Z4, "[[1,2],[3,4]]")
    with pytest.raises(DimMismatch):
        SquareMatrix.from_rows(Z, [[1, 2], [3]])
    for dim in (0, -1):
        with pytest.raises(DimMismatch):
            SquareMatrix.identity(Z, dim)
        with pytest.raises(DimMismatch):
            SquareMatrix.zeros(Z, dim)
    with pytest.raises(ValueError):
        a ** -1


# -- characteristic polynomial and determinants ---------------------------------


def test_char_poly_known_values():
    ident = SquareMatrix.identity(Z, 2)
    assert berkowitz_char_poly(ident) == poly_ring(Z).element([1, -2, 1])
    nil = mat(Z, "[[0,1],[0,0]]")
    assert berkowitz_char_poly(nil) == poly_ring(Z).element([0, 0, 1])
    a = mat(Z, "[[1,2],[3,4]]")
    # x^2 - tr x + det = x^2 - 5x - 2
    assert berkowitz_char_poly(a) == poly_ring(Z).element([-2, -5, 1])


def test_char_poly_of_companion_matrix():
    # the companion matrix of a monic polynomial has exactly that char poly
    coeffs = [5, 2, 0, 1]  # x^3 + 0x^2 + 2x + 5
    comp = SquareMatrix.from_rows(Z, [
        [0, 0, -5],
        [1, 0, -2],
        [0, 1, 0],
    ])
    assert berkowitz_char_poly(comp) == poly_ring(Z).element(coeffs)


def test_char_poly_against_cofactor_oracle():
    # det(xI - A) by Laplace expansion over the polynomial ring pins the
    # Berkowitz recurrence to an independent computation.
    rng = random.Random(1984)
    for spec, bound in ORACLE_RINGS:
        pspec = poly_ring(spec)
        for dim in range(1, 6):
            for _ in range(3):
                a = random_matrix(spec, dim, rng, bound)
                x_minus_a = SquareMatrix.from_rows(pspec, [
                    [pspec.element([spec.p_neg(a.rows[i][j])] + [spec.one_payload()] * (i == j))
                     for j in range(dim)] for i in range(dim)])
                expected = cofactor_det(x_minus_a)
                assert berkowitz_char_poly(a) == expected, (spec, dim)


def test_char_poly_is_monic_of_degree_dim():
    rng = random.Random(8)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3, 4):
            a = random_matrix(spec, dim, rng, bound)
            char = berkowitz_char_poly(a).payload
            assert len(char) - 1 == dim
            assert spec.wrap(char[dim]) == spec.one()


def test_determinant_against_cofactor_oracle():
    rng = random.Random(31337)
    for spec, bound in ORACLE_RINGS:
        for _ in range(60):
            dim = rng.randint(1, 4)
            a = random_matrix(spec, dim, rng, bound)
            assert determinant(a) == cofactor_det(a)


def test_determinant_multiplicative():
    rng = random.Random(27)
    for spec, bound in ORACLE_RINGS:
        for _ in range(40):
            dim = rng.randint(1, 3)
            a = random_matrix(spec, dim, rng, bound)
            b = random_matrix(spec, dim, rng, bound)
            assert determinant(a * b) == determinant(a) * determinant(b)


def test_determinant_of_transpose():
    rng = random.Random(12)
    for _ in range(25):
        a = random_matrix(Z12, 3, rng)
        assert determinant(a.transpose()) == determinant(a)


def test_cayley_hamilton_sampled():
    rng = random.Random(2026)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3, 4):
            for _ in range(10):
                a = random_matrix(spec, dim, rng, bound)
                assert right_evaluate_poly(berkowitz_char_poly(a), a).is_zero


# -- matrix polynomials ----------------------------------------------------------


def test_det_poly_matrix_reproduces_char_poly():
    rng = random.Random(5)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3):
            a = random_matrix(spec, dim, rng, bound)
            ident = SquareMatrix.identity(spec, dim)
            f = matrix_polynomial([-a, ident])
            assert determinant(f) == berkowitz_char_poly(a)


def test_det_poly_matrix_scalar_cases():
    ident = SquareMatrix.identity(Z, 2)
    # det of the constant identity is 1
    assert determinant(matrix_polynomial([ident])) == poly_ring(Z).element([1])
    # det((x - x^2) I) over 2x2 = (x - x^2)^2 = x^2 - 2x^3 + x^4
    zero = SquareMatrix.zeros(Z, 2)
    f = matrix_polynomial([zero, ident, -ident])
    assert determinant(f) == poly_ring(Z).element([0, 0, 1, -2, 1])


def test_det_poly_matrix_against_lifted_cofactor():
    # lift the matrix polynomial into a matrix over the polynomial ring entry
    # by entry and run the naive oracle there
    rng = random.Random(88)
    for spec, bound in [(Z4, None), (Z, 5)]:
        pspec = poly_ring(spec)
        for _ in range(15):
            dim = rng.randint(1, 3)
            coeffs = [random_matrix(spec, dim, rng, bound) for _ in range(3)]
            f = matrix_polynomial(coeffs)
            lifted_rows = []
            for i in range(dim):
                row = []
                for j in range(dim):
                    row.append(pspec.element(
                        [c.entry(i, j).payload for c in coeffs]))
                lifted_rows.append(row)
            lifted = SquareMatrix.from_rows(pspec, lifted_rows)
            expected = cofactor_det(lifted)
            assert determinant(f) == expected


def test_right_evaluate_of_char_poly_shape():
    a = mat(Z4, "[[2,0],[0,1]]")
    ident = SquareMatrix.identity(Z4, 2)
    zero = SquareMatrix.zeros(Z4, 2)
    # f = x^2 I - x^3 I at A: A^2 - A^3 = 0 since A^2 = A^3 = diag(0,1)
    f = matrix_polynomial([zero, zero, ident, -ident])
    assert right_evaluate_poly(f, a).is_zero
    # constant polynomial evaluates to its constant
    c = mat(Z4, "[[1,2],[3,0]]")
    assert right_evaluate_poly(matrix_polynomial([c]), a) == c
    # x I - A at A is zero
    g = matrix_polynomial([-a, ident])
    assert right_evaluate_poly(g, a).is_zero


def test_right_evaluate_refuses_other_rings_and_dimensions():
    a = mat(Z4, "[[2,0],[0,1]]")
    ident = SquareMatrix.identity(Z4, 2)
    with pytest.raises(SpecMismatch):
        right_evaluate_poly(poly_ring(Z).gen(), a)
    with pytest.raises(SpecMismatch):
        right_evaluate_poly(ident, a)
    with pytest.raises(SpecMismatch):
        right_evaluate_poly(matrix_polynomial([mat(Z, "[[1,0],[0,1]]")]), a)
    with pytest.raises(SpecMismatch, match="cannot evaluate"):
        right_evaluate_poly([ident], a)
    with pytest.raises(DimMismatch):
        right_evaluate_poly(matrix_polynomial([SquareMatrix.identity(Z4, 3)]), a)
    assert right_evaluate_poly(poly_ring(Z4).zero(), a).is_zero


def test_right_evaluate_puts_powers_on_the_left():
    # with A and C that do not commute, f = x * C evaluated at A must give
    # AC (power first), not CA
    amat = mat(Z, "[[0,1],[0,0]]")
    cmat = mat(Z, "[[0,0],[1,0]]")
    f = matrix_polynomial([SquareMatrix.zeros(Z, 2), cmat])
    value = right_evaluate_poly(f, amat)
    assert value == amat * cmat
    assert value != cmat * amat


def test_determinant_refuses_noncommutative_entries():
    a_gen = FREE.gen("a")
    m = SquareMatrix.from_rows(FREE, [[a_gen, a_gen], [a_gen, a_gen]])
    with pytest.raises(NonCommutativeRing):
        berkowitz_char_poly(m)
    with pytest.raises(NonCommutativeRing):
        determinant(m)


# -- literals ---------------------------------------------------------------------


def test_matrix_literal_round_trip():
    rng = random.Random(4)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3):
            a = random_matrix(spec, dim, rng, bound)
            assert parse_matrix_literal(spec, str(a)) == a


def test_matrix_literal_errors():
    with pytest.raises(DimMismatch):
        parse_matrix_literal(Z, "[[1,2],[3]]")
    with pytest.raises(DimMismatch):
        parse_matrix_literal(Z, "[[1,2]]")
    with pytest.raises(ParseError):
        parse_matrix_literal(Z, "[[1,2],[3,4]")
    with pytest.raises(ParseError):
        parse_matrix_literal(Z, "1,2")
    for text in ("[[]]", "[]", "[[1],]", "[[1,],[2,]]", "[[1]] [[2]]", "[[1]]x"):
        with pytest.raises(ParseError):
            parse_matrix_literal(Z, text)


# -- payload kernel against entrywise oracles -----------------------------------

NC_ENTRIES = ["0", "1", "a", "b", "2c - d", "1/2 w", "x y", "a + z", "y a - 3"]


@st.composite
def kernel_case(draw):
    """A ring, a dimension and three matrices over it.  Commutative rings
    are sampled from a drawn seed; free-algebra entries come from parse_nc.
    Of the two quotient rings, Z_3[t]/(t^2) computes through its memo
    tables and Z_17[t]/(t^2), too large for a table, through plain methods."""
    kind = draw(st.sampled_from(["int", "zmod", "poly:int:t", "quot:zmod:3:t^2",
                                 "quot:zmod:17:t^2", "free"]))
    dim = draw(st.integers(1, 4))
    if kind == "free":
        def matrix():
            return SquareMatrix.from_rows(FREE, [
                [parse_nc(draw(st.sampled_from(NC_ENTRIES))) for _ in range(dim)]
                for _ in range(dim)])
        return FREE, dim, matrix(), matrix(), matrix()
    token = f"zmod:{draw(st.integers(2, 30))}" if kind == "zmod" else kind
    spec = parse_ring_spec(token)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bound = None if spec.is_finite else 4
    return (spec, dim, *(random_matrix(spec, dim, rng, bound) for _ in range(3)))


def rows_of(mat):
    return [list(row) for row in mat.entries]


@settings(max_examples=80, deadline=None)
@given(kernel_case(), st.integers(0, 4))
def test_kernel_matches_entrywise_oracle(case, exponent):
    ring, dim, a, b, c = case
    ea, eb = a.entries, b.entries
    scalar = c.entry(0, dim - 1)
    expected = {
        "mul": naive_product(ring, ea, eb),
        "add": naive_sum(ea, eb),
        "sub": naive_difference(ea, eb),
        "neg": [[-e for e in row] for row in ea],
        "scale": [[e * scalar for e in row] for row in ea],
        "transpose": [[ea[j][i] for j in range(dim)] for i in range(dim)],
        "pow": naive_power(ring, ea, exponent),
    }
    got = {"mul": a * b, "add": a + b, "sub": a - b, "neg": -a, "scale": a.scale(scalar),
           "transpose": a.transpose(), "pow": a ** exponent}
    for name, result in got.items():
        assert rows_of(result) == expected[name], name
        # stored rows are canonical payloads, so == is entrywise ring equality
        assert result == SquareMatrix.from_rows(ring, expected[name]), name
        assert result.is_zero == all(e == ring.zero() for row in expected[name] for e in row)
    for i in range(dim):
        for j in range(dim):
            assert a.entry(i, j) == ea[i][j]
            assert isinstance(ea[i][j], RingElem) == (ring is not FREE)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["int", "zmod:2", "zmod:9", "zmod:97"]), st.integers(1, 6),
       st.integers(0, 2 ** 32))
def test_dot_overrides_agree_with_generic_dot(token, length, seed):
    spec = parse_ring_spec(token)
    rng = random.Random(seed)
    row, col = ([spec.sample_payload(rng, 50) for _ in range(length)] for _ in range(2))
    assert type(spec).p_dot is not RingSpec.p_dot
    assert spec.p_dot(row, col) == RingSpec.p_dot(spec, row, col)


def test_matrix_arithmetic_never_touches_ring_elements(monkeypatch):
    # The kernel must stay on payloads: RingElem operators are off limits.
    rng = random.Random(7)
    z4, z9 = IntegersMod(4), IntegersMod(9)
    mats = [random_matrix(z4, 3, rng) for _ in range(6)]
    a = mat(z9, "[[2,3],[1,5]]")
    x = right_witness_search(a, 1)

    def forbidden(self, other):
        raise AssertionError("RingElem arithmetic on the matrix hot path")

    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(RingElem, name, forbidden)
    assert standard_identity(mats).is_zero
    cert = right_to_left_certificate(RightWitnessInstance(a, 1, x))
    assert verify_certificate(cert).ok
