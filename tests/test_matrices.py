import random

import pytest

from piregular import (
    DimMismatch,
    FREE,
    Integers,
    IntegersMod,
    MatrixPolynomial,
    NonCommutativeRing,
    ParseError,
    SpecMismatch,
    SquareMatrix,
    UniPolynomial,
    berkowitz_char_poly,
    det_poly_matrix,
    determinant,
    parse_matrix_literal,
    parse_ring_spec,
    right_evaluate_poly,
)

from helpers import cofactor_det, random_matrix

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
    with pytest.raises(DimMismatch):
        a * mat(Z, "[[1]]")
    with pytest.raises(SpecMismatch):
        a * mat(Z4, "[[1,2],[3,4]]")
    with pytest.raises(DimMismatch):
        SquareMatrix.from_rows(Z, [[1, 2], [3]])
    with pytest.raises(ValueError):
        a ** -1


# -- characteristic polynomial and determinants ---------------------------------


def test_char_poly_known_values():
    ident = SquareMatrix.identity(Z, 2)
    assert berkowitz_char_poly(ident).coefficients == \
        (Z.from_int(1), Z.from_int(-2), Z.from_int(1))
    nil = mat(Z, "[[0,1],[0,0]]")
    assert berkowitz_char_poly(nil).coefficients == \
        (Z.zero(), Z.zero(), Z.one())
    a = mat(Z, "[[1,2],[3,4]]")
    # x^2 - tr x + det = x^2 - 5x - 2
    assert berkowitz_char_poly(a).coefficients == \
        (Z.from_int(-2), Z.from_int(-5), Z.from_int(1))


def test_char_poly_of_companion_matrix():
    # the companion matrix of a monic polynomial has exactly that char poly
    coeffs = [5, 2, 0, 1]  # x^3 + 0x^2 + 2x + 5
    comp = SquareMatrix.from_rows(Z, [
        [0, 0, -5],
        [1, 0, -2],
        [0, 1, 0],
    ])
    assert berkowitz_char_poly(comp) == UniPolynomial.from_coeffs(Z, coeffs)


def test_char_poly_is_monic_of_degree_dim():
    rng = random.Random(8)
    for spec, bound in ORACLE_RINGS:
        for dim in (1, 2, 3, 4):
            a = random_matrix(spec, dim, rng, bound)
            char = berkowitz_char_poly(a)
            assert char.degree == dim
            assert char.coefficient(dim) == spec.one()


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
            f = MatrixPolynomial.from_matrices(spec, dim, [-a, ident])
            assert det_poly_matrix(f) == berkowitz_char_poly(a)


def test_det_poly_matrix_scalar_cases():
    ident = SquareMatrix.identity(Z, 2)
    # det of the constant identity is 1
    assert det_poly_matrix(MatrixPolynomial.from_matrices(Z, 2, [ident])) == \
        UniPolynomial.from_coeffs(Z, [1])
    # det((x - x^2) I) over 2x2 = (x - x^2)^2 = x^2 - 2x^3 + x^4
    zero = SquareMatrix.zeros(Z, 2)
    f = MatrixPolynomial.from_matrices(Z, 2, [zero, ident, -ident])
    assert det_poly_matrix(f) == UniPolynomial.from_coeffs(Z, [0, 0, 1, -2, 1])


def test_det_poly_matrix_against_lifted_cofactor():
    # lift the matrix polynomial into a matrix over poly:base and run the
    # naive oracle there
    rng = random.Random(88)
    for spec, bound in [(Z4, None), (Z, 5)]:
        pspec = parse_ring_spec(f"poly:{spec.token()}:s")
        for _ in range(15):
            dim = rng.randint(1, 3)
            coeffs = [random_matrix(spec, dim, rng, bound) for _ in range(3)]
            f = MatrixPolynomial.from_matrices(spec, dim, coeffs)
            lifted_rows = []
            for i in range(dim):
                row = []
                for j in range(dim):
                    row.append(pspec.element(
                        [c.entry(i, j).payload for c in coeffs]))
                lifted_rows.append(row)
            lifted = SquareMatrix.from_rows(pspec, lifted_rows)
            expected = cofactor_det(lifted)
            got = det_poly_matrix(f)
            assert pspec.element([c.payload for c in got.coefficients]) == expected


def test_right_evaluate_of_char_poly_shape():
    a = mat(Z4, "[[2,0],[0,1]]")
    ident = SquareMatrix.identity(Z4, 2)
    zero = SquareMatrix.zeros(Z4, 2)
    # f = x^2 I - x^3 I at A: A^2 - A^3 = 0 since A^2 = A^3 = diag(0,1)
    f = MatrixPolynomial.from_matrices(Z4, 2, [zero, zero, ident, -ident])
    assert right_evaluate_poly(f, a).is_zero
    # constant polynomial evaluates to its constant
    c = mat(Z4, "[[1,2],[3,0]]")
    assert right_evaluate_poly(
        MatrixPolynomial.from_matrices(Z4, 2, [c]), a) == c
    # x I - A at A is zero
    g = MatrixPolynomial.from_matrices(Z4, 2, [-a, ident])
    assert right_evaluate_poly(g, a).is_zero


def test_right_evaluate_puts_powers_on_the_left():
    # over the free algebra, f = x * C with C = bI evaluated at A = aI must
    # give ab (power first), not ba
    a_gen, b_gen = FREE.gen("a"), FREE.gen("b")
    amat = SquareMatrix.from_rows(FREE, [[a_gen]])
    cmat = SquareMatrix.from_rows(FREE, [[b_gen]])
    zero = SquareMatrix.zeros(FREE, 1)
    f = MatrixPolynomial.from_matrices(FREE, 1, [zero, cmat])
    value = right_evaluate_poly(f, amat)
    assert value.entry(0, 0) == a_gen * b_gen
    assert value.entry(0, 0) != b_gen * a_gen


def test_determinant_refuses_noncommutative_entries():
    a_gen = FREE.gen("a")
    m = SquareMatrix.from_rows(FREE, [[a_gen, a_gen], [a_gen, a_gen]])
    with pytest.raises(NonCommutativeRing):
        berkowitz_char_poly(m)
    with pytest.raises(NonCommutativeRing):
        determinant(m)


def test_unipolynomial_algebra():
    x = UniPolynomial.x_power(Z, 1)
    one = UniPolynomial.from_coeffs(Z, [1])
    p = (x + one) * (x - one)
    assert p == UniPolynomial.from_coeffs(Z, [-1, 0, 1])
    assert p.shift(2) == UniPolynomial.from_coeffs(Z, [0, 0, -1, 0, 1])
    assert (p - p).is_zero
    assert p.coefficient(7) == Z.zero()
    assert UniPolynomial.from_coeffs(Z, [1, 0, 0]).degree == 0


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
    with pytest.raises(ParseError):
        parse_matrix_literal(Z, "[[]]")
