import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import (
    Integers,
    IntegersMod,
    InvalidBound,
    InvalidSpec,
    MalformedPayload,
    NotEnumerable,
    ParseError,
    PolyOver,
    QuotientPoly,
    enumerate_elements,
    parse_element,
    parse_matrix_literal,
    parse_nc,
    parse_ring_spec,
    poly_ring,
    sample_element,
)
from piregular import rings
from piregular.rings import (
    _LiteralParser,
    _monic_rem,
    _poly_payload_str,
    _seq_add,
    _seq_mul,
    _tokenize,
)

Z = Integers()
Z4 = IntegersMod(4)
Z9 = IntegersMod(9)
Z12 = IntegersMod(12)
POLY_Z3 = PolyOver(IntegersMod(3), "t")
DUAL_Z3 = parse_ring_spec("quot:zmod:3:t^2")
GAUSS = parse_ring_spec("quot:int:x^2+1")

AXIOM_SPECS = [
    (Z, 9),
    (Z4, None),
    (Z9, None),
    (Z12, None),
    (POLY_Z3, 3),
    (DUAL_Z3, None),
    (GAUSS, 5),
    # leading coefficients whose product is a zero divisor must be stripped
    (PolyOver(DUAL_Z3, "x"), 3),
]


@pytest.mark.parametrize("spec,bound", AXIOM_SPECS, ids=lambda v: str(v))
def test_ring_axioms_on_sampled_triples(spec, bound):
    rng = random.Random(20260814)
    zero, one = spec.zero(), spec.one()
    for _ in range(500):
        a = sample_element(spec, rng, bound)
        b = sample_element(spec, rng, bound)
        c = sample_element(spec, rng, bound)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero
        assert a + (-a) == zero
        assert a - b == a + (-b)


@pytest.mark.parametrize("spec,bound", AXIOM_SPECS, ids=lambda v: str(v))
def test_power_and_canonical_idempotence(spec, bound):
    rng = random.Random(7)
    for _ in range(50):
        a = sample_element(spec, rng, bound)
        assert a ** 0 == spec.one()
        assert a ** 1 == a
        assert a ** 3 == a * a * a
        # canonical form is a fixed point of re-canonicalization
        assert spec.element(a.payload) == a


def test_integers_mod_reduces_into_range():
    assert Z4.from_int(7).payload == 3
    assert Z4.from_int(-1).payload == 3
    assert Z12.from_int(25).payload == 1
    assert (Z4.from_int(2) * Z4.from_int(2)).is_zero


def test_poly_strips_trailing_zeros():
    spec = PolyOver(Z, "t")
    e = spec.element([0, 1, 0])
    assert e.payload == (0, 1)
    assert str(e) == "t"
    assert spec.element([]).is_zero
    assert spec.element([0, 0]).is_zero


@pytest.mark.parametrize("token, variable", [
    ("int", "x"), ("quot:zmod:3:t^2", "x"), ("poly:int:x", "y"),
    ("poly:poly:zmod:2:x:y", "z"), ("quot:poly:int:y:x^2+1", "z"),
])
def test_poly_ring_takes_the_first_free_variable(token, variable):
    spec = parse_ring_spec(token)
    assert poly_ring(spec) == PolyOver(spec, variable)
    assert poly_ring(parse_ring_spec(token)) is poly_ring(spec)


def test_poly_ring_past_the_preferred_names_takes_any_free_letter():
    spec = Z
    for v in "xyzuvwstp":
        spec = PolyOver(spec, v)
    assert poly_ring(spec.base) == PolyOver(spec.base, "p")
    assert poly_ring(spec) == PolyOver(spec, "a")
    for v in "abcdefghijklmnoqrABCDEFGHIJKLMNOPQRSTUVWXYZ":
        spec = PolyOver(spec, v)
    with pytest.raises(InvalidSpec, match="no free polynomial variable"):
        poly_ring(spec)


def test_quotient_reduces_by_monic_modulus():
    spec = parse_ring_spec("quot:zmod:2:t^2")
    # t^3 + t reduces to t under t^2 = 0
    e = spec.element([0, 1, 0, 1])
    assert e == spec.gen()
    assert [str(v) for v in enumerate_elements(spec)] == ["0", "1", "t", "1+t"]


def test_characteristic_two_square():
    spec = PolyOver(IntegersMod(2), "t")
    t = spec.gen()
    one = spec.one()
    assert (t + one) ** 2 == t * t + one


def test_gaussian_quotient_arithmetic():
    i = GAUSS.gen()
    assert i * i == -GAUSS.one()
    assert (GAUSS.from_int(2) + i) * (GAUSS.from_int(2) - i) == GAUSS.from_int(5)


@pytest.mark.parametrize("spec,expected", [
    (IntegersMod(3), ["0", "1", "2"]),
    (parse_ring_spec("quot:zmod:2:t^2"), ["0", "1", "t", "1+t"]),
])
def test_enumeration_order(spec, expected):
    assert [str(e) for e in enumerate_elements(spec)] == expected


@pytest.mark.parametrize("spec", [Z4, Z9, IntegersMod(16), DUAL_Z3,
                                  parse_ring_spec("quot:zmod:2:t^3")])
def test_enumeration_complete_and_closed(spec):
    elements = list(enumerate_elements(spec))
    assert len(elements) == spec.cardinality() <= 256
    assert len(set(elements)) == len(elements)
    pool = set(elements)
    for a in elements:
        assert -a in pool
        for b in elements:
            assert a + b in pool
            assert a * b in pool


@pytest.mark.parametrize("spec", [Z, PolyOver(Z, "t"), PolyOver(Z4, "t")])
def test_infinite_rings_refuse_enumeration(spec):
    assert not spec.is_finite
    with pytest.raises(NotEnumerable):
        list(enumerate_elements(spec))


def test_sampling_is_seed_deterministic():
    for spec, bound in AXIOM_SPECS:
        a = [sample_element(spec, random.Random(5), bound) for _ in range(20)]
        b = [sample_element(spec, random.Random(5), bound) for _ in range(20)]
        assert a == b
    assert sample_element(Z, 5, 9) == sample_element(Z, 5, 9)


def test_sampling_needs_bound_on_infinite_rings():
    with pytest.raises(InvalidBound):
        sample_element(Z, 1)
    with pytest.raises(InvalidBound):
        sample_element(PolyOver(Z4, "t"), 1, None)
    with pytest.raises(InvalidBound):
        sample_element(Z, 1, 0)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        IntegersMod(1)
    with pytest.raises(InvalidSpec):
        IntegersMod(0)
    with pytest.raises(InvalidSpec):
        # non-monic modulus: 2t + 1 over Z4
        QuotientPoly(Z4, "t", (1, 2))
    with pytest.raises(InvalidSpec):
        # degree-0 modulus
        QuotientPoly(Z4, "t", (1,))


def test_malformed_payloads_rejected():
    with pytest.raises(MalformedPayload):
        Z4.element("three")
    with pytest.raises(MalformedPayload):
        Z4.element(1.5)
    with pytest.raises(MalformedPayload):
        POLY_Z3.element(3)
    with pytest.raises(MalformedPayload):
        POLY_Z3.element([[1]])


@pytest.mark.parametrize("token", ["int", "zmod:4", "zmod:12", "poly:int:t",
                                   "poly:zmod:3:u", "quot:zmod:3:t^2",
                                   "quot:int:x^2+1", "poly:quot:zmod:2:t^2:u",
                                   "quot:quot:zmod:2:t^2+t+1:u^2"])
def test_ring_spec_grammar_round_trip(token):
    spec = parse_ring_spec(token)
    assert parse_ring_spec(spec.token()) == spec


@pytest.mark.parametrize("text", [None, "", " \t", ["int"], 4])
def test_every_text_parser_refuses_blank_and_non_string_input(text):
    for parse in (parse_ring_spec, parse_nc, lambda t: parse_element(Z4, t),
                  lambda t: parse_matrix_literal(Z4, t)):
        with pytest.raises(ParseError):
            parse(text)


def test_ring_spec_whitespace_only_separates_tokens():
    assert parse_ring_spec("zmod: 4").token() == "zmod:4"
    assert parse_ring_spec(" quot : zmod:3 : t ^ 2 ") == parse_ring_spec("quot:zmod:3:t^2")


@pytest.mark.parametrize("token", ["zmod:seven", "zmod", "madeup:3", "",
                                   "poly:int", "quot:int:7", "zmod:4:extra",
                                   "zmod:²", "quot:zmod:2:t²", "int:", "poly:int:t:",
                                   "poly:int:tt", "quot:zmod:3:"])
def test_ring_spec_grammar_rejects_garbage(token):
    with pytest.raises((ParseError, InvalidSpec)):
        parse_ring_spec(token)


@pytest.mark.parametrize("spec", [Z4, Z9, DUAL_Z3,
                                  parse_ring_spec("quot:zmod:2:t^3")])
def test_element_literals_round_trip_exhaustively(spec):
    for e in enumerate_elements(spec):
        assert parse_element(spec, str(e)) == e


def test_element_literals_round_trip_sampled():
    rng = random.Random(99)
    for spec, bound in [(Z, 50), (POLY_Z3, 4), (GAUSS, 9)]:
        for _ in range(50):
            e = sample_element(spec, rng, bound)
            assert parse_element(spec, str(e)) == e


def test_element_literal_expressions():
    assert parse_element(Z4, "7") == Z4.from_int(3)
    assert parse_element(Z4, "-1") == Z4.from_int(3)
    assert parse_element(POLY_Z3, "1+2*t+t^2") == \
        POLY_Z3.element([1, 2, 1])
    assert parse_element(POLY_Z3, "t*t") == POLY_Z3.element([0, 0, 1])
    assert parse_element(DUAL_Z3, "t^2") == DUAL_Z3.zero()
    with pytest.raises(ParseError):
        parse_element(Z4, "t")
    with pytest.raises(ParseError):
        parse_element(Z4, "1+" )
    for bad in ("²", "1/2"):
        with pytest.raises(ParseError):
            parse_element(Z4, bad)


def test_json_payload_round_trip():
    for spec, bound in AXIOM_SPECS:
        rng = random.Random(3)
        for _ in range(25):
            e = sample_element(spec, rng, bound)
            assert spec.element(spec.payload_from_json(spec.payload_to_json(e.payload))) == e


@given(st.integers(), st.integers(), st.integers())
def test_integer_spec_matches_python_ints(a, b, c):
    ea, eb, ec = Z.from_int(a), Z.from_int(b), Z.from_int(c)
    assert (ea + eb).payload == a + b
    assert (ea * eb).payload == a * b
    assert (ea - ec).payload == a - c
    assert (-ea).payload == -a


@settings(max_examples=200)
@given(st.integers(), st.integers(), st.sampled_from([2, 3, 4, 9, 12, 16]))
def test_modular_spec_matches_python_mod(a, b, k):
    spec = IntegersMod(k)
    assert (spec.from_int(a) + spec.from_int(b)).payload == (a + b) % k
    assert (spec.from_int(a) * spec.from_int(b)).payload == (a * b) % k


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=6),
       st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_poly_mul_matches_convolution(xs, ys):
    spec = POLY_Z3
    p, q = spec.element(xs), spec.element(ys)
    conv = [0] * (len(xs) + len(ys) + 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] = (conv[i + j] + x * y) % 3
    assert p * q == spec.element(conv)


# -- memo tables of small finite quotient rings -----------------------------------


def _forbidden(*args):
    raise AssertionError("a raw helper ran")


MEMO_OPS = {"p_add", "p_mul", "show_payload", "payload_from_json"}


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty registry, and no cached spec that outlives it."""
    monkeypatch.setattr(rings, "_TABLES", {})
    rings._parse_ring_token.cache_clear()
    yield
    rings._parse_ring_token.cache_clear()


@pytest.mark.parametrize("spec", [DUAL_Z3, parse_ring_spec("quot:zmod:2:t^3+t+1"),
                                  parse_ring_spec("quot:quot:zmod:2:t^2+t+1:u^2")], ids=str)
def test_memoized_quotient_ops_match_the_raw_helpers(spec, monkeypatch):
    base, mod, var = spec.base, spec.modulus, spec.variable
    payloads = spec.payloads()
    results = {}
    for a in payloads:
        text = spec.show_payload(a)
        assert text == _poly_payload_str(base, a, var)
        parsed = _LiteralParser(spec, _tokenize(text)).parse().payload
        assert spec.payload_from_json(text) == a == parsed
        for b in payloads:
            results[a, b] = spec.p_add(a, b), spec.p_mul(a, b)
            assert results[a, b] == (_seq_add(base, a, b),
                                     _monic_rem(base, _seq_mul(base, a, b), mod))
    # a second pass reads every result from the tables
    for name in ("_seq_add", "_seq_mul", "_poly_payload_str"):
        monkeypatch.setattr(rings, name, _forbidden)
    monkeypatch.setattr(_LiteralParser, "parse", _forbidden)
    for a in payloads:
        assert spec.payload_from_json(spec.show_payload(a)) == a
        for b in payloads:
            assert (spec.p_add(a, b), spec.p_mul(a, b)) == results[a, b]


def test_literals_outside_the_table_take_the_parser():
    for p in DUAL_Z3.payloads():
        DUAL_Z3.show_payload(p)
    assert DUAL_Z3.token() == "quot:zmod:3:t^2"
    assert DUAL_Z3.payload_from_json("t^2") == ()
    assert DUAL_Z3.payload_from_json("4") == (1,)
    assert DUAL_Z3.payload_from_json("t+1") == (1, 1)
    for _ in range(2):  # a failed parse is not kept
        with pytest.raises(ParseError, match="unknown symbol 'u'"):
            DUAL_Z3.payload_from_json("u")
    for value in (1, [1], {"t": 1}):
        with pytest.raises(MalformedPayload):
            DUAL_Z3.payload_from_json(value)


def test_equal_specs_share_tables_and_variables_keep_their_own(monkeypatch):
    t_ring = QuotientPoly(IntegersMod(5), "t", (0, 0, 1))
    u_ring = QuotientPoly(IntegersMod(5), "u", (0, 0, 1))
    assert t_ring.show_payload((0, 1)) == "t" and u_ring.show_payload((0, 1)) == "u"
    with pytest.raises(ParseError):
        u_ring.payload_from_json("t")
    assert u_ring.show_payload is not t_ring.show_payload
    parsed = parse_ring_spec("quot:zmod:5:t^2")
    reparsed = parse_ring_spec("quot:zmod:5:t^2+0*t")
    assert parsed == reparsed == t_ring and parsed is not reparsed
    assert all(getattr(parsed, op) is getattr(reparsed, op) is getattr(t_ring, op)
               for op in MEMO_OPS)
    monkeypatch.setattr(_LiteralParser, "parse", _forbidden)
    assert reparsed.payload_from_json("t") == (0, 1)


@pytest.mark.parametrize("token, memoized", [
    ("quot:zmod:2:t^8", True), ("quot:zmod:17:t^2", False), ("quot:int:t^2", False)])
def test_only_rings_whose_pairs_fit_a_table_are_memoized(token, memoized, fresh_tables):
    spec = parse_ring_spec(token)
    rng = random.Random(4)
    for _ in range(50):
        a, b = sample_element(spec, rng, 9), sample_element(spec, rng, 9)
        assert spec.parse(spec.payload_to_json((a * b + a).payload)) == a * b + a
    assert spec.payload_from_json(str(a)) == a.payload
    assert MEMO_OPS & vars(spec).keys() == (MEMO_OPS if memoized else set())
    assert bool(rings._TABLES) == memoized


def test_no_table_grows_past_the_cap(monkeypatch, fresh_tables):
    spec = QuotientPoly(IntegersMod(3), "t", (0, 0, 1))
    monkeypatch.setattr(rings, "_MEMO_CAP", 10)
    table = rings._Table(lambda key: 2 * key)
    assert [table[k] for k in range(25)] == [2 * k for k in range(25)]
    assert len(table) == 10 and table.keep(99, 7) == 7 and 99 not in table
    for a in spec.payloads():
        assert spec.payload_from_json(spec.show_payload(a)) == a
        for b in spec.payloads():
            assert spec.p_add(a, b) == _seq_add(spec.base, a, b)
            assert spec.p_mul(a, b) == _monic_rem(spec.base, _seq_mul(spec.base, a, b),
                                                  spec.modulus)
    assert len(spec.show_payload.__self__) == 9
    assert [len(cell.cell_contents) for cell in spec.p_mul.__closure__] == [10]


def test_specs_pickle_without_their_tables(fresh_tables):
    tower = parse_ring_spec("quot:quot:zmod:2:t^2+t+1:u^2")
    spec = QuotientPoly(tower.base, "u", ((), (), (1,)))
    cold = pickle.dumps(spec)
    for a in spec.payloads():
        spec.show_payload(a)
        for b in spec.payloads():
            spec.p_mul(a, b)
    assert pickle.dumps(spec) == cold
    again = pickle.loads(cold)
    assert again == spec and again.token() == spec.token()
    assert all(getattr(again, op) is getattr(spec, op) for op in MEMO_OPS)
