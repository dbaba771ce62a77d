import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piregular import (
    FREE,
    BudgetExceeded,
    InvalidSpec,
    NCPolynomial,
    NonTerminating,
    ParseError,
    RewriteSystem,
    RingElem,
    SquareMatrix,
    nc_normal_form,
    overlap_check,
    parse_element,
    parse_matrix_literal,
    parse_nc,
    parse_ring_spec,
    shepherdson_demo,
    shepherdson_system,
)
from piregular import rings
from piregular.freealg import ALPHABET, deglex_key

from helpers import naive_normal_form

words = st.text(alphabet=ALPHABET, max_size=5)


def random_poly(rng, max_terms=4, max_len=5):
    poly = FREE.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        poly = poly + NCPolynomial.from_word(word, coeff)
    return poly


# -- the algebra itself ---------------------------------------------------------


def test_monomial_product_concatenates():
    a, w = FREE.gen("a"), FREE.gen("w")
    assert a * w == NCPolynomial.from_word("aw")
    assert w * a == NCPolynomial.from_word("wa")
    assert a * w != w * a


def test_like_terms_cancel():
    by = NCPolynomial.from_word("by")
    assert (by - by).is_zero
    assert (by + by) == NCPolynomial.from_word("by", 2)


def test_distributivity_and_scalars():
    a, b, w = FREE.gen("a"), FREE.gen("b"), FREE.gen("w")
    assert (a + b) * w == a * w + b * w
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert 2 + a == a + 2 == NCPolynomial({"": 2, "a": 1})
    assert 2 - a == NCPolynomial({"": 2, "a": -1})
    assert Fraction(1, 2) - a == -(a - Fraction(1, 2))
    assert NCPolynomial({"": 3}) == 3
    assert (a * b).coefficient("ab") == 1 and a.coefficient("ab") == 0
    assert repr(2 * a - b) == "NCPolynomial('2*a - b')"
    assert hash(a + b) == hash(b + a)
    for bad in (lambda: a + "x", lambda: "x" - a, lambda: a * 1.5):
        with pytest.raises(TypeError):
            bad()


@given(words, words, words)
def test_word_product_is_associative(u, v, t):
    pu, pv, pt = (NCPolynomial.from_word(w) for w in (u, v, t))
    assert (pu * pv) * pt == pu * (pv * pt)


@given(words, words)
def test_deglex_order_is_degree_first(u, v):
    if len(u) < len(v):
        assert deglex_key(u) < deglex_key(v)


def test_deglex_letter_order():
    # a > b > ... > z on equal length: later letters sort lower
    assert deglex_key("a") > deglex_key("b") > deglex_key("d")
    assert deglex_key("d") > deglex_key("w") > deglex_key("z")
    assert deglex_key("by") < deglex_key("aw")
    assert deglex_key("bz") < deglex_key("ax")
    assert deglex_key("dy") < deglex_key("cw")
    assert deglex_key("dz") < deglex_key("cx")


# -- normal forms ----------------------------------------------------------------


def test_stock_reductions():
    one = FREE.one()
    by = NCPolynomial.from_word("by")
    assert nc_normal_form(parse_nc("a*w")) == one - by
    assert nc_normal_form(parse_nc("a*x + b*z")).is_zero
    assert nc_normal_form(parse_nc("c*a*w")) == \
        FREE.gen("c") - NCPolynomial.from_word("cby")
    wa = parse_nc("w*a")
    assert nc_normal_form(wa) == wa


def test_nf_fixes_irreducibles():
    for text in ("w*a", "b*y", "1", "d", "y*x*w"):
        poly = parse_nc(text)
        assert nc_normal_form(poly) == poly


def test_nf_idempotent_and_strategy_independent():
    rng = random.Random(1612)
    for _ in range(200):
        poly = random_poly(rng)
        left = nc_normal_form(poly, strategy="leftmost")
        right = nc_normal_form(poly, strategy="rightmost")
        assert left == right
        assert nc_normal_form(left) == left


def test_nf_is_a_homomorphism_onto_normal_forms():
    rng = random.Random(99)
    for _ in range(60):
        p, q = random_poly(rng, max_len=4), random_poly(rng, max_len=4)
        assert nc_normal_form(p * q) == nc_normal_form(nc_normal_form(p) * nc_normal_form(q))
        assert nc_normal_form(p + q) == nc_normal_form(nc_normal_form(p) + nc_normal_form(q))


def test_nf_budget_guard():
    # a perfectly fine reduction hits the guard if the budget is tiny
    big = parse_nc("a*w*a*w*a*w")
    with pytest.raises(NonTerminating):
        nc_normal_form(big, max_steps=1)
    assert nc_normal_form(big) == nc_normal_form(nc_normal_form(big))


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_nf_matches_the_sort_every_step_oracle(strategy):
    rng, system = random.Random(4417), shepherdson_system()
    polys = [parse_nc("(a+b+c+d+w+x)^3"), parse_nc("a*w*a*w*a*w + c*x*c*x")]
    polys += [random_poly(rng, max_terms=8, max_len=7) for _ in range(40)]
    if strategy == "leftmost":
        polys.append(parse_nc("(a+b+c+d+w+x)^4"))
    for poly in polys:
        expected, steps = naive_normal_form(poly, system, strategy)
        assert nc_normal_form(poly, strategy=strategy, max_steps=steps) == expected
        if steps:
            with pytest.raises(NonTerminating):
                nc_normal_form(poly, strategy=strategy, max_steps=steps - 1)


def test_nf_rejects_unknown_strategy():
    with pytest.raises(InvalidSpec):
        nc_normal_form(FREE.one(), strategy="middle")


# -- rewrite systems --------------------------------------------------------------


def test_shepherdson_system_has_no_ambiguities():
    assert overlap_check(shepherdson_system()) == []


def test_overlapping_system_is_detected():
    system = RewriteSystem([("ab", FREE.zero()), ("ba", FREE.zero())])
    found = overlap_check(system)
    assert {amb.word for amb in found} == {"aba", "bab"}
    assert all(amb.kind == "overlap" for amb in found)


def test_inclusion_is_detected():
    system = RewriteSystem([("abc", FREE.zero()), ("b", FREE.zero())])
    kinds = {(amb.kind, amb.word) for amb in overlap_check(system)}
    assert ("inclusion", "abc") in kinds


def test_single_short_rule_cannot_self_overlap():
    assert overlap_check(RewriteSystem([("aw", FREE.zero())])) == []


def test_termination_certificate_enforced():
    with pytest.raises(InvalidSpec):
        RewriteSystem([("b", FREE.gen("a"))])  # a is deglex-larger than b
    with pytest.raises(InvalidSpec):
        RewriteSystem([("aw", NCPolynomial.from_word("aw"))])  # not smaller
    with pytest.raises(InvalidSpec):
        RewriteSystem([("", FREE.one())])
    with pytest.raises(InvalidSpec):
        RewriteSystem([])
    with pytest.raises(InvalidSpec):
        RewriteSystem([("ae", FREE.zero())])  # e is not in the alphabet
    # shrinking replacements are fine
    RewriteSystem([("aw", FREE.gen("b") + FREE.one())])


# -- parser -----------------------------------------------------------------------


def test_parser_basics():
    assert parse_nc("2") == FREE.one() + FREE.one()
    assert parse_nc("a w") == NCPolynomial.from_word("aw")
    assert parse_nc("a*w") == parse_nc("aw")
    assert parse_nc("a^3") == NCPolynomial.from_word("aaa")
    assert parse_nc("(a+b)*(w+x)") == parse_nc("aw + ax + bw + bx")
    assert parse_nc("1/2 * a + 1/2 * a") == FREE.gen("a")
    assert parse_nc("-a") == -FREE.gen("a")
    assert parse_nc("ab^2") == NCPolynomial.from_word("abb")
    assert parse_nc("2ab") == NCPolynomial.from_word("ab", 2)
    assert parse_nc("(a+b)^2w") == parse_nc("aaw + abw + baw + bbw")


@pytest.mark.parametrize("text", ["(a+b+c+d)^15", "(a+b)^21", "a^349526", "(2a)^262145"])
def test_parser_refuses_powers_past_the_size_budget(text):
    with pytest.raises(BudgetExceeded, match="size budget"):
        parse_nc(text)


def test_parser_refuses_powers_past_the_work_budget():
    # exactly 4^10 = 2^20 terms, but 1114384 term products to get there
    with pytest.raises(BudgetExceeded, match="work budget"):
        parse_nc("(a+b+c+d)^10")
    assert len(parse_nc("(a+b+c+d)^8")) == 4 ** 8


@pytest.mark.parametrize("ring, text, accepted", [
    ("free", "(a+b+c)^7", True),
    ("free", "2ab - (1/2)w^2(x + y)", True),
    ("free", "(a+b)^3 (w+x+y)^4 (a-z)", True),
    ("free", "(a+b+c+d)^10", False),
    ("free", "(a+b+c+d)^5 (a+b+c+d)^5", False),
    ("poly:poly:int:t:u", "(1+t)^300 (t+u)^7 - u^2(1+t)", True),
    ("quot:zmod:3:t^2", "(1+t)^99 * (2+t)", True),
    ("poly:poly:int:t:u", "(1+t)^800*(1+t)^800", False),
    ("poly:poly:int:t:u", "[[(1+t)^2, t u], [u^5, (t+u)^6]]", True),  # one matrix, one account
])
def test_work_account_is_the_sum_of_the_term_products_made(ring, text, accepted, monkeypatch):
    if ring == "free":
        parse = parse_nc
    else:
        literal = parse_matrix_literal if text.startswith("[") else parse_element
        parse = partial(literal, parse_ring_spec(ring))
    products, parsers = [], []
    nc_mul, elem_mul, finish = NCPolynomial.__mul__, RingElem.__mul__, rings._ExpressionParser.finish
    monkeypatch.setattr(NCPolynomial, "__mul__",
                        lambda a, b: products.append(len(a) * len(b)) or nc_mul(a, b))
    monkeypatch.setattr(RingElem, "__mul__", lambda a, b: products.append(
        rings._terms(a.payload) * rings._terms(b.payload)) or elem_mul(a, b))
    monkeypatch.setattr(rings._ExpressionParser, "finish",
                        lambda parser, value: parsers.append(parser) or finish(parser, value))
    if accepted:
        parse(text)
        assert products and [parser.work for parser in parsers] == [sum(products)]
    else:
        with pytest.raises(BudgetExceeded, match="work budget"):
            parse(text)
        assert 0 < sum(products) <= rings.WORK_BUDGET


def test_parser_allows_powers_within_the_size_budget():
    # one letter plus 1-bit numerator and denominator: 3 * 349525 < 2^20
    assert len(parse_nc("a^349525").terms().popitem()[0]) == 349525
    assert len(parse_nc("(a+b+c+d)^5")) == 4 ** 5


def test_parser_round_trips_canonical_printing():
    rng = random.Random(7)
    for _ in range(100):
        poly = random_poly(rng)
        assert parse_nc(str(poly)) == poly


def test_parser_rejects_garbage():
    for bad in ("e", "a +", "(a", "a**w", "2.5", "", "a²"):
        with pytest.raises(ParseError):
            parse_nc(bad)


# -- the one-sided inverse demo ----------------------------------------------------


def test_demo_passes_and_lists_all_five_checks():
    report = shepherdson_demo()
    assert report.verified
    assert [check.name for check in report.checks] == [
        "product_is_identity",
        "reverse_product_is_not_identity",
        "left_annihilates_gap",
        "right_witness_exists",
        "no_left_witness",
    ]
    payload = report.to_json_payload()
    assert payload["verified"] is True
    assert len(payload["checks"]) == 5


def test_demo_identities_directly():
    system = shepherdson_system()
    a, b, c, d = (FREE.gen(ch) for ch in "abcd")
    w, x, y, z = (FREE.gen(ch) for ch in "wxyz")
    mat_a = SquareMatrix.from_rows(FREE, [[a, b], [c, d]])
    mat_b = SquareMatrix.from_rows(FREE, [[w, x], [y, z]])
    ident = SquareMatrix.identity(FREE, 2)

    def nf(mat):
        return SquareMatrix(FREE, tuple(
            tuple(nc_normal_form(e, system) for e in row) for row in mat.entries))

    assert nf(mat_a * mat_b) == ident
    ba = nf(mat_b * mat_a)
    assert ba != ident
    assert ba.entry(0, 0) == parse_nc("w*a + x*c")
    gap = nf(ident - ba)
    assert not gap.is_zero
    assert nf(mat_a * gap).is_zero
    # right witness at n = 1: A = A^2 (B^2 A)
    witness = mat_b * mat_b * mat_a
    assert nf(mat_a * mat_a * witness) == nf(mat_a)
    # the three ingredients of the no-left-witness contradiction
    assert nf(mat_a * mat_a * mat_b * mat_b) == ident
    assert nf(mat_a * mat_b * mat_b) == nf(mat_b)
    assert nf(mat_b * mat_a * mat_a) != nf(mat_a)
