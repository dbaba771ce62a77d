import ast
import hashlib
import inspect
import pickle
import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import (
    BudgetExceeded,
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
from piregular import lab, rings, witnesses
from piregular.matrices import _berkowitz_coefficients, char_poly_rows
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


def test_a_sum_with_zero_returns_the_other_operand_itself():
    # a canonical operand is neither rebuilt nor stripped again
    b = (1, 0, 3)
    assert _seq_add(Z, (), b) is b
    assert _seq_add(Z, b, ()) is b
    assert _seq_add(Z, (), ()) == ()
    assert _seq_add(Z, b, (-1, 0, -3)) == ()


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
    with pytest.raises(InvalidSpec):
        # a tower that reuses a letter
        parse_ring_spec("poly:poly:int:t:t")


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
    towers = [PolyOver(DUAL_Z3, "x"), parse_ring_spec("poly:poly:int:t:u"),
              parse_ring_spec("poly:quot:int:t^2:u")]
    for spec, bound in [(Z, 50), (POLY_Z3, 4), (GAUSS, 9)] + [(tower, 4) for tower in towers]:
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
    # parentheses group in the literal's own ring
    assert parse_element(PolyOver(Z, "t"), "(1+t)^2") == PolyOver(Z, "t").element([1, 2, 1])
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


def test_the_literal_table_holds_only_spelled_texts(monkeypatch, fresh_tables):
    spec = QuotientPoly(IntegersMod(3), "t", (0, 0, 1))
    parses = []
    parse = _LiteralParser.parse
    monkeypatch.setattr(_LiteralParser, "parse",
                        lambda self: parses.append(1) or parse(self))
    literal = inspect.getclosurevars(spec.payload_from_json).nonlocals["literal"]
    for _ in range(2):
        assert spec.payload_from_json("t+1") == (1, 1)
    assert len(parses) == 2 and not literal
    for a in spec.payloads():
        assert spec.payload_from_json(spec.show_payload(a)) == a
        assert spec.payload_from_json("0+" + spec.show_payload(a)) == a
        assert len(literal) <= spec.cardinality()
    assert len(literal) == spec.cardinality() == 9 and len(parses) == 11
    assert set(literal) == {spec.show_payload(a) for a in spec.payloads()}
    monkeypatch.setattr(_LiteralParser, "parse", _forbidden)
    for a in spec.payloads():  # canonical texts are still read without parsing
        assert spec.payload_from_json(spec.show_payload(a)) == a
        for b in spec.payloads():
            assert spec.p_add(a, b) == _seq_add(spec.base, a, b)
            assert spec.p_mul(a, b) == _monic_rem(spec.base, _seq_mul(spec.base, a, b),
                                                  spec.modulus)
    assert len(spec.show_payload.__self__) == 9


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


def test_integer_specs_pickle_alike_before_and_after_products():
    # the product kernels live in a module-level cache, never on a spec
    for spec in (Integers(), IntegersMod(9)):
        cold = pickle.dumps(spec)
        for dim in range(1, rings._KERNEL_CAP + 2):
            rows = tuple(tuple(range(i, i + dim)) for i in range(dim))
            assert spec.matmul(dim)(rows, rows) == spec.p_matmul(rows, rows)
        assert pickle.dumps(spec) == cold and not vars(spec).keys() - {"modulus"}


def test_residue_kernels_read_the_modulus_from_the_spec():
    rows = ((5, 6), (7, 8))
    assert IntegersMod(7).p_matmul(rows, rows) == ((4, 1), (0, 1))
    assert IntegersMod(9).p_matmul(rows, rows) == ((4, 6), (1, 7))
    assert Integers().p_matmul(rows, rows) == ((67, 78), (91, 106))
    # rows -+ rows^2, as a signed term of a standard identity
    assert IntegersMod(7).accumulate(2)(rows, True, rows, rows) == ((1, 5), (0, 0))
    assert IntegersMod(9).accumulate(2)(rows, True, rows, rows) == ((1, 0), (6, 1))
    assert IntegersMod(9).accumulate(2)(rows, False, rows, rows) == ((0, 3), (8, 6))
    # one kernel per form, dimension and kind serves every modulus; no scan's
    # certificate kernel is cached
    assert all(form in ("integer", "residue", "calls", "table") and type(dim) is int
               and kind in ("product", "accumulate", "solve", "solve_left", "codes")
               for form, dim, kind in rings._KERNELS)


@pytest.mark.parametrize("k", [2, 9, 12])
def test_table_kernels_return_payload_rows_like_every_form(k):
    # over zmod:k the element indices are the residues, so the engine's
    # bound table kernel and the p_dot loop must agree on the very same rows
    rng = random.Random(k)
    spec = IntegersMod(k)
    for dim in (1, 2, 3, 4):
        engine = lab._Engine(spec, dim)
        for _ in range(5):
            l, r = (tuple(tuple(rng.randrange(k) for _ in range(dim)) for _ in range(dim))
                    for _ in range(2))
            assert engine.mat_mul(l, r) == spec.p_matmul(l, r)


@pytest.mark.parametrize("dim", [1, 2, 9])
@pytest.mark.parametrize("form", ["integer", "residue", "calls", "table"])
def test_generated_kernels_reach_no_globals(form, dim):
    # the compiled source names only its own locals and these spec attributes,
    # for a product and a signed term alike; index rows are never summed with a
    # sign, so ``table`` has no signed term, and only ``table`` has the engine's
    # two solves and its column maps, which also name the builtin ``chr`` and
    # the ``str`` methods ``join`` and ``find``; a scan's certificate kernel,
    # over ``residue`` only, reads nothing but the modulus
    kinds = ("product",) + (
        ("solve", "solve_left", "codes") if form == "table" else ("accumulate",))
    kernels = [rings._KERNELS[form, dim, kind] for kind in kinds]
    if form == "residue" and dim < rings._KERNEL_CAP:
        kernels += [witnesses._certificate_kernel(dim, n) for n in (1, 3)]
    strings = {"chr", "join", "find"} if form == "table" else set()
    for code in (kernel.__code__ for kernel in kernels):
        assert set(code.co_names) <= {"modulus", "p_add", "p_sub", "p_mul", "add", "mul",
                                      "q", "indices", "vectors", "col_maps", "left_maps",
                                      *strings}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_certificate_kernel_is_straight_line(m, n):
    # Berkowitz included, a scan's certificate calls no function and reads no
    # attribute but the modulus
    tree = ast.parse(witnesses._certificate_source(m, n))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)} == {("spec", "modulus")}


def _generated_char_poly(m: int):
    """s1, ..., sm in [0, k) of the lines the certificate kernel writes for Berkowitz, the
    recurrence run on its staged ring, as a function of the rows."""
    cells, x = witnesses._Cells(), [[f"x_{i}_{j}" for j in range(m)] for i in range(m)]
    q = _berkowitz_coefficients(cells, x)
    source = "\n    ".join(("def kernel(spec, x):", "k = spec.modulus",
                            rings._square(m, "x_{}_{}".format) + " = x", *cells.lines,
                            "return (" + " ".join(f"({s}) % k," for s in q[1:]) + ")"))
    return rings._compile(source, f"<{m}x{m} char poly>")


@pytest.mark.parametrize("m", range(1, rings._KERNEL_CAP + 1))
@pytest.mark.parametrize("k", [2, 9, 12])
def test_the_generated_char_poly_is_char_poly_rows(m, k):
    # q = (1, s1, ..., sm) is char_poly_rows read backwards: on every 2x2 matrix
    # over zmod:9, and on 200 seeded matrices otherwise
    spec, kernel, rng = IntegersMod(k), _generated_char_poly(m), random.Random(f"{m}/{k}")
    if (m, k) == (2, 9):
        matrices = [(row0, row1) for row0 in product(range(k), repeat=2)
                    for row1 in product(range(k), repeat=2)]
    else:
        matrices = [tuple(tuple(rng.randrange(k) for _ in range(m)) for _ in range(m))
                    for _ in range(200)]
    for x in matrices:
        assert kernel(spec, x) == char_poly_rows(spec, x).payload[-2::-1], x


def test_product_sources_are_unchanged(monkeypatch):
    # the product kernels keep their sources byte for byte next to the other
    # kinds: the sha256 of these 20, file names included, as first pinned when
    # the certificate kernel came to share their entry expression
    seen = []

    def capture(source, filename, mode):
        seen.append(f"{filename}\n{source}\n")
        return compile(source, filename, mode)

    monkeypatch.setattr(rings, "compile", capture, raising=False)
    for form in ("integer", "residue", "calls", "table"):
        for dim in (1, 2, 3, 4, 8):
            rings._product_kernel((form, dim, "product"))
    assert len(seen) == 20
    assert hashlib.sha256("".join(seen).encode()).hexdigest() == (
        "7e833d126e8c4bd52d797e01554b4ac77a59bfb66c7dba7ea7d88c9e0358a3ff")


def test_importing_the_package_compiles_no_kernel():
    code = "import piregular, piregular.rings as r; print(len(r._KERNELS))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


@pytest.mark.parametrize("token, literal, refused", [
    ("int", "2^524288", False),  # 2 bits times 2^19: exactly the budget
    ("int", "2^524289", True),
    ("int", "0^99999999", False),
    ("poly:int:t", "t^1000", False),
    ("poly:int:t", "t^524289", True),  # degree 1 plus 1 coefficient bit
    ("poly:int:t", "3^524289", True),  # a constant's bits count too
    ("poly:poly:int:t:u", "(1+t)^524289", True),
    ("quot:int:t^2", "t^99999999", True),
    # a finite ring's powers stay small, whatever the exponent
    ("zmod:5", "3^99999999", False),
    ("quot:zmod:3:t^2", "t^99999999", False),
])
def test_powers_past_the_size_budget_are_refused(token, literal, refused):
    spec = parse_ring_spec(token)
    if refused:
        with pytest.raises(BudgetExceeded, match="size budget"):
            parse_element(spec, literal)
    else:
        parse_element(spec, literal)


@pytest.mark.parametrize("token, literal, refused", [
    # a dense power's term products grow as the square of its size
    ("poly:poly:int:t:u", "(1+t)^800", False),
    ("poly:poly:int:t:u", "(1+t)^3000", True),
    ("poly:poly:int:t:u", "(1+t+t^2)^500", True),
    # one account per text: a product of powers pays for both
    ("poly:poly:int:t:u", "(1+t)^800*(1+t)^800", True),
    # a monomial's powers stay monomials, and a quotient caps the degree
    ("poly:int:t", "t^500000", False),
    ("poly:quot:int:t^2:u", "(1+t)^100000", False),
])
def test_powers_past_the_work_budget_are_refused(token, literal, refused):
    spec = parse_ring_spec(token)
    if refused:
        with pytest.raises(BudgetExceeded, match="work budget"):
            parse_element(spec, literal)
    else:
        parse_element(spec, literal)


@pytest.mark.parametrize("token, literal, refused", [
    # one term each, but every sum and product walks the dense coefficient tuples
    ("poly:int:t", "t^500000+t^500000", False),
    pytest.param("poly:int:t", "+".join(["t^500000"] * 100), True, id="100 summands"),
    ("poly:int:t", "-t^500000-t^500000-t^500000", True),
    # a constant of the outer layer counts the slots of its inner tuple
    ("poly:poly:int:t:u", "t^500000-t^500000+t^500000", True),
    # a product walks the right factor's slots once for each live entry of the left
    ("poly:int:t", "t^500000*(1+t)^500", False),
    ("poly:int:t", "(1+t)^500*t^500000", True),
    ("poly:poly:int:t:u", "(t+u)^500", True),
    # a tower's slot is charged once per polynomial layer
    ("poly:poly:int:t:u", "(t+u)^300", True),
    ("poly:poly:int:t:u", "(t+u)^200", False),
])
def test_sparse_powers_past_the_slot_budget_are_refused(token, literal, refused):
    spec = parse_ring_spec(token)
    if refused:
        with pytest.raises(BudgetExceeded, match="slots exceed the work budget"):
            parse_element(spec, literal)
    else:
        parse_element(spec, literal)


def test_slot_account_is_the_sum_of_the_operands_walked(monkeypatch):
    assert [rings._slots(p) for p in (0, 5, (), (0, 0, 7), ((), (0, 1)), ((), (), (3,)))] == [
        1, 1, 1, 3, 3, 3]
    assert [rings._live(p) for p in (0, 5, (), (0, 0, 7), ((), (0, 1)), ((1, 2), (), (3,)))] == [
        1, 1, 1, 1, 1, 3]
    walked, parsers = [], []
    slots, live = rings._slots, rings._live
    # a product walks the right factor's slots once per live entry of the left
    for name, times in (("__add__", lambda a: 1), ("__sub__", lambda a: 1), ("__mul__", live)):
        plain = getattr(rings.RingElem, name)
        monkeypatch.setattr(rings.RingElem, name, lambda a, b, plain=plain, times=times:
                            walked.append(slots(a.payload) + times(a.payload) * slots(b.payload))
                            or plain(a, b))
    plain_neg, finish = rings.RingElem.__neg__, rings._ExpressionParser.finish
    monkeypatch.setattr(rings.RingElem, "__neg__",
                        lambda a: walked.append(slots(a.payload)) or plain_neg(a))
    monkeypatch.setattr(rings._ExpressionParser, "finish",
                        lambda parser, value: parsers.append(parser) or finish(parser, value))
    parse_element(parse_ring_spec("poly:poly:int:t:u"), "-(1+t)^3 u^2 + t^5 - u(t^2 + 3)")
    # a slot of this two-layer tower is charged once per layer
    assert len(walked) > 5 and [parser.built for parser in parsers] == [2 * sum(walked)]


def test_a_quotient_modulus_is_read_within_the_budget():
    with pytest.raises(BudgetExceeded):
        parse_ring_spec("quot:int:t^99999999")
    assert parse_ring_spec("quot:zmod:2:t^8").cardinality() == 256
