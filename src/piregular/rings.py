"""Exact arithmetic in towers of commutative rings.

A ring is described by an immutable ``RingSpec``: the integers, the integers
modulo k, univariate polynomials over a described base ring, or the quotient
of such a polynomial ring by a monic modulus.  Elements are ``RingElem``
values carrying a canonical payload, so structural equality is ring equality:

* integers mod k are stored as the residue in ``[0, k)``,
* polynomials as a low-to-high coefficient tuple with no trailing zeros,
* quotient elements as the remainder after monic long division.

``RingElem`` is the boundary type: bulk arithmetic (matrix products,
Berkowitz) runs on bare payloads through the spec's ``p_*`` methods, and
wraps a payload into a ``RingElem`` only when it is handed back to a caller.

Every text input is read by one tokenizer and one recursive descent: ring
specs such as ``zmod:4``, ``poly:int:t`` or ``quot:zmod:3:t^2`` (whose
modulus is an element literal), element literals such as ``1+2*t``, the
matrix literals of :mod:`piregular.matrices` and the free-algebra
expressions of :mod:`piregular.freealg`.  Whitespace only separates tokens,
and a run of ASCII digits is the only integer.

A finite quotient ring of at most 256 elements computes each sum, product,
literal and parse once and then reads it from a table of at most
``_MEMO_CAP`` entries.  Equal specs share the tables through a registry keyed
by ``(base, variable, modulus)``, which only grows; a pickled spec carries
none.  Larger and infinite quotient rings compute every result afresh.
"""

from __future__ import annotations

import operator
import random
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product, takewhile
from string import ascii_letters, digits
from typing import Any, Optional

from .errors import (
    BudgetExceeded,
    InvalidBound,
    InvalidSpec,
    MalformedPayload,
    NotEnumerable,
    ParseError,
    SpecMismatch,
)

Payload = Any


def binary_power(base, exponent: int, one, mul=operator.mul):
    """base^exponent by square-and-multiply with the product ``mul``;
    ``one()`` builds the 0th power and is called only at exponent 0, and
    nothing is squared after the top bit."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one() if result is None else result


DEFAULT_BUDGET = 1 << 20  # matrices per scan, table entries, and n * dim per instance


def require_positive(error=InvalidBound, /, **values) -> None:
    """Raise ``error`` unless every named value is an integer >= 1; a bool
    is not a count or an exponent."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise error(f"{name} must be a positive integer, got {value!r}")


class RingSpec:
    """Base class for ring descriptions.  Subclasses work on raw payloads;
    the element-level API wraps them into :class:`RingElem`."""

    commutative = True

    # -- payload interface ------------------------------------------------

    def canon(self, raw) -> Payload:
        raise NotImplementedError

    def zero_payload(self) -> Payload:
        raise NotImplementedError

    def one_payload(self) -> Payload:
        raise NotImplementedError

    def p_add(self, a, b) -> Payload:
        raise NotImplementedError

    def p_neg(self, a) -> Payload:
        raise NotImplementedError

    def p_mul(self, a, b) -> Payload:
        raise NotImplementedError

    def p_sub(self, a, b) -> Payload:
        return self.p_add(a, self.p_neg(b))

    def p_dot(self, row, col) -> Payload:
        """Sum of the products of paired entries of two nonempty sequences."""
        return reduce(self.p_add, map(self.p_mul, row, col))

    def p_matmul(self, rows, other_rows) -> tuple:
        """Payload rows of the product of two square matrices' payload rows;
        the one product kernel, in plain loops: one frame per product."""
        cols, dot, out = tuple(zip(*other_rows)), self.p_dot, []
        for row in rows:
            new = []
            for col in cols:
                new.append(dot(row, col))
            out.append(tuple(new))
        return tuple(out)

    def p_from_int(self, n: int) -> Payload:
        raise NotImplementedError

    def show_payload(self, payload) -> str:
        raise NotImplementedError

    # literals of this ring need no parentheses when used as coefficients
    atomic_literals = True

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def cardinality(self) -> int:
        raise NotEnumerable(f"{self} is infinite")

    def payloads(self) -> tuple:
        """All payloads in canonical enumeration order (finite rings only)."""
        raise NotEnumerable(f"{self} is infinite")

    def sample_payload(self, rng: random.Random, bound: Optional[int]) -> Payload:
        raise NotImplementedError

    def token(self) -> str:
        raise NotImplementedError

    # -- element-level conveniences ---------------------------------------

    def element(self, raw) -> "RingElem":
        return RingElem(self, self.canon(raw))

    def wrap(self, payload) -> "RingElem":
        """The boundary element of an already canonical payload."""
        return RingElem(self, payload)

    def p_coerce(self, value) -> Payload:
        """The payload of anything :meth:`coerce` accepts."""
        return self.coerce(value).payload

    def zero(self) -> "RingElem":
        return RingElem(self, self.zero_payload())

    def one(self) -> "RingElem":
        return RingElem(self, self.one_payload())

    def from_int(self, n: int) -> "RingElem":
        if not isinstance(n, int):
            raise MalformedPayload(f"expected an int, got {type(n).__name__}")
        return RingElem(self, self.p_from_int(n))

    def gen(self) -> "RingElem":
        raise InvalidSpec(f"{self} has no polynomial generator")

    def coerce(self, value) -> "RingElem":
        """Accept a RingElem of this spec, a plain int, or raw payload data."""
        if isinstance(value, RingElem):
            if value.spec != self:
                raise SpecMismatch(f"element of {value.spec} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        return self.element(value)

    def parse(self, text: str) -> "RingElem":
        return parse_element(self, text)

    def payload_to_json(self, payload):
        """Integers stay JSON numbers; structured payloads become literals."""
        return payload if self.atomic_literals else self.show_payload(payload)

    def payload_from_json(self, value) -> Payload:
        if self.atomic_literals:
            return self.canon(value)
        if not isinstance(value, str):
            raise MalformedPayload(f"expected a literal string for {self}")
        return self.parse(value).payload

    def __str__(self) -> str:
        return self.token()


@dataclass(frozen=True, slots=True)
class RingElem:
    """An element of a described ring, stored in canonical form."""

    spec: RingSpec
    payload: Payload

    def _match(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            raise SpecMismatch(f"cannot combine {self.spec} element with {other!r}")
        if other.spec != self.spec:
            raise SpecMismatch(f"cannot combine {self.spec} with {other.spec}")
        return other

    def __add__(self, other):
        other = self._match(other)
        return RingElem(self.spec, self.spec.p_add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._match(other)
        return RingElem(self.spec, self.spec.p_sub(self.payload, other.payload))

    def __mul__(self, other):
        other = self._match(other)
        return RingElem(self.spec, self.spec.p_mul(self.payload, other.payload))

    def __neg__(self):
        return RingElem(self.spec, self.spec.p_neg(self.payload))

    def __pow__(self, exponent: int):
        return binary_power(self, exponent, self.spec.one)

    @property
    def is_zero(self) -> bool:
        return self.payload == self.spec.zero_payload()

    def __str__(self) -> str:
        return self.spec.show_payload(self.payload)


# -- concrete specs --------------------------------------------------------


@dataclass(frozen=True)
class Integers(RingSpec):
    """The ring of integers with exact arbitrary-precision arithmetic."""

    def canon(self, raw):
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise MalformedPayload(f"integer payload must be int, got {type(raw).__name__}")
        return raw

    def zero_payload(self):
        return 0

    def one_payload(self):
        return 1

    def p_add(self, a, b):
        return a + b

    def p_neg(self, a):
        return -a

    def p_mul(self, a, b):
        return a * b

    def p_sub(self, a, b):
        return a - b

    def p_dot(self, row, col):
        return sum(map(operator.mul, row, col))

    def p_matmul(self, rows, other_rows):
        cols, mul, out = tuple(zip(*other_rows)), operator.mul, []
        for row in rows:
            new = []
            for col in cols:
                new.append(sum(map(mul, row, col)))
            out.append(tuple(new))
        return tuple(out)

    def p_from_int(self, n):
        return n

    def show_payload(self, payload):
        try:
            return str(payload)
        except ValueError:  # over sys.get_int_max_str_digits() digits
            raise BudgetExceeded.digits() from None

    @property
    def is_finite(self):
        return False

    def sample_payload(self, rng, bound):
        if bound is None or bound < 1:
            raise InvalidBound("sampling over the integers needs a positive bound")
        return rng.randint(-bound, bound)

    def token(self):
        return "int"


@dataclass(frozen=True)
class IntegersMod(RingSpec):
    """The ring of integers modulo ``modulus``, residues stored in [0, modulus)."""

    modulus: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise InvalidSpec(f"modulus must be an integer >= 2, got {self.modulus!r}")

    def canon(self, raw):
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise MalformedPayload(f"residue payload must be int, got {type(raw).__name__}")
        return raw % self.modulus

    def zero_payload(self):
        return 0

    def one_payload(self):
        return 1 % self.modulus

    def p_add(self, a, b):
        return (a + b) % self.modulus

    def p_neg(self, a):
        return (-a) % self.modulus

    def p_mul(self, a, b):
        return (a * b) % self.modulus

    def p_sub(self, a, b):
        return (a - b) % self.modulus

    def p_dot(self, row, col):
        return sum(map(operator.mul, row, col)) % self.modulus

    def p_matmul(self, rows, other_rows):
        cols, mul, k, out = tuple(zip(*other_rows)), operator.mul, self.modulus, []
        for row in rows:
            new = []
            for col in cols:
                new.append(sum(map(mul, row, col)) % k)
            out.append(tuple(new))
        return tuple(out)

    def p_from_int(self, n):
        return n % self.modulus

    def show_payload(self, payload):
        return str(payload)

    @property
    def is_finite(self):
        return True

    def cardinality(self):
        return self.modulus

    def payloads(self):
        return tuple(range(self.modulus))

    def sample_payload(self, rng, bound):
        return rng.randrange(self.modulus)

    def token(self):
        return f"zmod:{self.modulus}"


def _strip(base: RingSpec, coeffs: list) -> tuple:
    zero = base.zero_payload()
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return tuple(coeffs)


def _seq_add(base: RingSpec, a, b) -> tuple:
    out = []
    for i in range(max(len(a), len(b))):
        if i >= len(a):
            out.append(b[i])
        elif i >= len(b):
            out.append(a[i])
        else:
            out.append(base.p_add(a[i], b[i]))
    return _strip(base, out)


def _seq_neg(base: RingSpec, a) -> tuple:
    return tuple(base.p_neg(c) for c in a)


def _seq_mul(base: RingSpec, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [base.zero_payload()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = base.p_add(out[i + j], base.p_mul(ca, cb))
    return _strip(base, out)


def _monic_rem(base: RingSpec, a: tuple, modulus: tuple) -> tuple:
    """Remainder of a by a monic modulus; needs no inverses in the base."""
    deg_m = len(modulus) - 1
    rem = list(a)
    while len(rem) > deg_m:
        lead = rem[-1]
        shift = len(rem) - 1 - deg_m
        for i in range(deg_m):
            rem[shift + i] = base.p_sub(rem[shift + i], base.p_mul(lead, modulus[i]))
        rem.pop()
        zero = base.zero_payload()
        while rem and rem[-1] == zero:
            rem.pop()
    return tuple(rem)


def _poly_payload_str(base: RingSpec, coeffs: tuple, variable: str) -> str:
    if not coeffs:
        return "0"
    pieces = []
    one = base.one_payload()
    zero = base.zero_payload()
    for degree, c in enumerate(coeffs):
        if c == zero:
            continue
        if degree == 0:
            text = base.show_payload(c)
            if not base.atomic_literals:
                text = f"({text})"
            pieces.append(text)
            continue
        power = variable if degree == 1 else f"{variable}^{degree}"
        if c == one:
            pieces.append(power)
        else:
            text = base.show_payload(c)
            if not base.atomic_literals:
                text = f"({text})"
            pieces.append(f"{text}*{power}")
    joined = "+".join(pieces)
    return joined.replace("+-", "-")


def _canon_coeff_seq(base: RingSpec, raw) -> tuple:
    if isinstance(raw, (str, bytes)) or not isinstance(raw, (list, tuple)):
        raise MalformedPayload(
            f"polynomial payload must be a coefficient sequence, got {type(raw).__name__}"
        )
    return _strip(base, [base.canon(c) for c in raw])


@dataclass(frozen=True)
class PolyOver(RingSpec):
    """Univariate polynomials over a described base ring."""

    base: RingSpec
    variable: str

    atomic_literals = False

    def __post_init__(self):
        if not isinstance(self.base, RingSpec):
            raise InvalidSpec("polynomial base must be a RingSpec")
        if not (isinstance(self.variable, str) and len(self.variable) == 1
                and self.variable.isalpha()):
            raise InvalidSpec(f"variable must be a single letter, got {self.variable!r}")

    def canon(self, raw):
        return _canon_coeff_seq(self.base, raw)

    def zero_payload(self):
        return ()

    def one_payload(self):
        return (self.base.one_payload(),)

    def p_add(self, a, b):
        return _seq_add(self.base, a, b)

    def p_neg(self, a):
        return _seq_neg(self.base, a)

    def p_mul(self, a, b):
        return _seq_mul(self.base, a, b)

    def p_from_int(self, n):
        return _strip(self.base, [self.base.p_from_int(n)])

    def gen(self):
        return self.element((self.base.zero_payload(), self.base.one_payload()))

    def show_payload(self, payload):
        return _poly_payload_str(self.base, payload, self.variable)

    @property
    def is_finite(self):
        return False

    def sample_payload(self, rng, bound):
        if bound is None or bound < 1:
            raise InvalidBound("sampling a polynomial ring needs a positive bound")
        degree = rng.randint(0, bound)
        coeffs = [self.base.sample_payload(rng, bound) for _ in range(degree + 1)]
        return _strip(self.base, coeffs)

    def token(self):
        return f"poly:{self.base.token()}:{self.variable}"


@lru_cache(maxsize=None)
def poly_ring(spec: RingSpec) -> PolyOver:
    """R[x] over R = ``spec``, named by the first letter of ``xyzuvwstp`` (then
    of the alphabet) that no polynomial layer of ``spec`` uses.
    Characteristic polynomials live here, and a matrix over it is a matrix
    polynomial: M_m(R[x]) = M_m(R)[x]."""
    used, layer = set(), spec
    while layer is not None:
        used.add(getattr(layer, "variable", None))
        layer = getattr(layer, "base", None)
    variable = next((v for v in "xyzuvwstp" + ascii_letters if v not in used), None)
    if variable is None:
        raise InvalidSpec(f"{spec} leaves no free polynomial variable")
    return PolyOver(spec, variable)


_MEMO_CAP = 1 << 16  # entries per table; a ring is memoized only if all its pairs fit
_TABLES: dict = {}  # (base, variable, modulus) -> the memoized ops equal specs share


class _Table(dict):
    """A missing key is computed and kept while there are under _MEMO_CAP entries."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        return self.keep(key, self.compute(key))

    def keep(self, key, value):
        if len(self) < _MEMO_CAP:
            self[key] = value
        return value


def _memo_ops(spec: "QuotientPoly") -> dict:
    """Table-backed payload ops of a small finite quotient ring; the literal
    table memoizes the parser, and ``show_payload`` seeds it."""
    base, mod, var = spec.base, spec.modulus, spec.variable
    add = _Table(lambda pair: _seq_add(base, *pair))
    mul = _Table(lambda pair: _monic_rem(base, _seq_mul(base, *pair), mod))
    literal = _Table(lambda value: RingSpec.payload_from_json(spec, value))

    def spell(payload):
        text = _poly_payload_str(base, payload, var)
        literal.keep(text, payload)
        return text

    show = _Table(spell)
    return dict(p_add=lambda a, b: add[a, b], p_mul=lambda a, b: mul[a, b],
                show_payload=show.__getitem__, payload_from_json=lambda value: (
                    literal[value] if isinstance(value, str) else literal.compute(value)))


@dataclass(frozen=True)
class QuotientPoly(PolyOver):
    """The quotient of ``base[variable]`` by a monic modulus of degree >= 1.
    Constants need no reduction, so ``one_payload`` and ``p_from_int`` are
    the polynomial ring's."""

    modulus: tuple

    def __post_init__(self):
        super().__post_init__()
        mod = _canon_coeff_seq(self.base, self.modulus)
        if len(mod) < 2:
            raise InvalidSpec("quotient modulus must have degree >= 1")
        if mod[-1] != self.base.one_payload():
            raise InvalidSpec("quotient modulus must be monic")
        object.__setattr__(self, "modulus", mod)
        if self.is_finite and self.cardinality() ** 2 <= _MEMO_CAP:
            key = (self.base, self.variable, mod)
            vars(self).update(_TABLES.get(key) or _TABLES.setdefault(key, _memo_ops(self)))

    def __reduce__(self):  # the memoized ops stay in the registry of each process
        return QuotientPoly, (self.base, self.variable, self.modulus)

    def canon(self, raw):
        return _monic_rem(self.base, _canon_coeff_seq(self.base, raw), self.modulus)

    def p_mul(self, a, b):
        return _monic_rem(self.base, _seq_mul(self.base, a, b), self.modulus)

    @property
    def is_finite(self):
        return self.base.is_finite

    def cardinality(self):
        return self.base.cardinality() ** (len(self.modulus) - 1)

    def payloads(self):
        base_payloads = self.base.payloads()
        zero = self.base.zero_payload()
        degree = len(self.modulus) - 1
        out = [()]
        for length in range(1, degree + 1):
            for tup in product(base_payloads, repeat=length):
                if tup[-1] != zero:
                    out.append(tup)
        return tuple(out)

    def sample_payload(self, rng, bound):
        if not self.base.is_finite and (bound is None or bound < 1):
            raise InvalidBound("sampling this quotient ring needs a positive bound")
        degree = len(self.modulus) - 1
        coeffs = [self.base.sample_payload(rng, bound) for _ in range(degree)]
        return _monic_rem(self.base, _strip(self.base, coeffs), self.modulus)

    def token(self):
        modulus = _poly_payload_str(self.base, self.modulus, self.variable)
        return f"quot:{self.base.token()}:{modulus}"


# -- enumeration and sampling ----------------------------------------------


@lru_cache(maxsize=None)
def _cached_payloads(spec: RingSpec) -> tuple:
    return spec.payloads()


def enumerate_elements(spec: RingSpec) -> list:
    """All elements of a finite ring in canonical order (residues ascending,
    then polynomial payloads by degree and lexicographic coefficients)."""
    if not spec.is_finite:
        raise NotEnumerable(f"{spec} is infinite")
    return [RingElem(spec, p) for p in _cached_payloads(spec)]


def sample_element(spec: RingSpec, rng, bound: Optional[int] = None) -> RingElem:
    """Deterministically sample one element.  ``rng`` is a ``random.Random``
    or an integer seed; ``bound`` caps magnitude/degree for infinite rings."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    return RingElem(spec, spec.sample_payload(rng, bound))


# -- text inputs: one tokenizer, one recursive descent ------------------------


def _nonblank(text, what: str) -> str:
    """``text`` itself; anything but a string with a non-space character is
    a ParseError naming ``what``."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"empty {what}")
    return text


def _tokenize(text: str) -> list:
    """``(kind, value)`` tokens ending in ``("end", "")``: a run of ASCII
    digits is an ``int`` whose value is its integer, a run of letters a
    ``name``, each of ``+-*/^()[],:`` is a kind of its own, and whitespace
    only separates.  This is the one place where digits become an integer."""
    tokens, i = [], 0
    while i < len(text):
        c, j = text[i], i + 1
        if c in digits:
            while j < len(text) and text[j] in digits:
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError:  # CPython converts at most sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {j - i} digits exceeds the limit of "
                                 f"{sys.get_int_max_str_digits()}") from None
        elif c.isalpha():
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j]))
        elif c in "+-*/^()[],:":
            tokens.append((c, c))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}")
        i = j
    tokens.append(("end", ""))
    return tokens


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring spec such as ``zmod:4``, ``poly:int:t`` or
    ``quot:zmod:3:t^2``; a recently parsed text returns the same
    (immutable) spec."""
    return _parse_ring_token(_nonblank(text, "ring spec"))


@lru_cache(maxsize=256)
def _parse_ring_token(text: str) -> RingSpec:
    parser = _LiteralParser(None, _tokenize(text))
    return parser.finish(parser.ring_spec())


class _ExpressionParser:
    """Recursive descent over signed sums of products of powers, where
    juxtaposition multiplies; a subclass reads one ``primary`` of ``spec``."""

    def __init__(self, spec, tokens: list, pos: int = 0):
        self.spec = spec
        self.tokens = tokens
        self.pos = pos

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def finish(self, value):
        """``value``, once every token has been read."""
        if self.peek()[0] != "end":
            raise ParseError(f"unexpected token {self.peek()[1]!r}")
        return value

    def parse(self):
        return self.finish(self.expression())

    def expression(self):
        negate = False
        if self.peek()[0] in "+-":
            negate = self.take()[0] == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
                value = value * self.factor()
            elif kind in ("int", "name", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        value = self.primary()
        if self.peek()[0] == "^":
            self.take()
            value = value ** self.take("int")[1]
        return value

    def primary(self):
        raise NotImplementedError


class _LiteralParser(_ExpressionParser):
    """Ring-element literals such as ``-3``, ``1+2*t``, ``t^2`` or
    ``(1+t)*u^2`` for nested towers, and the ring specs that embed them."""

    def primary(self) -> RingElem:
        kind, value = self.take()
        if kind == "int":
            return self.spec.from_int(value)
        if kind == "name":
            if value == getattr(self.spec, "variable", None):
                return self.spec.gen()
            raise ParseError(f"unknown symbol {value!r} for ring {self.spec}")
        if kind == "(":
            base = getattr(self.spec, "base", None)
            if base is None:
                raise ParseError(f"parenthesized coefficients not allowed in {self.spec}")
            inner = _LiteralParser(base, self.tokens, self.pos)
            value = inner.expression()
            self.pos = inner.pos
            self.take(")")
            # lift the base element into this ring as a constant
            return self.spec.element([value.payload])
        raise ParseError(f"unexpected token {value!r}")

    def ring_spec(self) -> RingSpec:
        """``int | zmod:<k> | poly:<spec>:<var> | quot:<spec>:<monic>``, where
        the modulus is read as a literal of ``poly:<spec>:<var>``, ``<var>``
        being the one letter it uses."""
        head = self.take("name")[1]
        if head == "int":
            return Integers()
        if head not in ("zmod", "poly", "quot"):
            raise ParseError(f"unknown ring kind {head!r}")
        self.take(":")
        if head == "zmod":
            modulus = self.take("int")[1]
            if modulus < 2:
                raise ParseError(f"modulus must be >= 2, got {modulus}")
            return IntegersMod(modulus)
        base = self.ring_spec()
        self.take(":")
        if head == "poly":
            var = self.take("name")[1]
            if len(var) != 1:
                raise ParseError(f"invalid variable token {var!r}")
            return PolyOver(base, var)
        literal = takewhile(lambda tok: tok[0] not in (":", "end"), self.tokens[self.pos:])
        letters = {c for tok in literal if tok[0] == "name" for c in tok[1]}
        if len(letters) != 1:
            raise ParseError("a quot modulus literal must use exactly one variable")
        var = letters.pop()
        self.spec = PolyOver(base, var)
        modulus = self.expression().payload
        try:
            return QuotientPoly(base, var, modulus)
        except InvalidSpec as exc:
            raise ParseError(str(exc)) from exc


def parse_element(spec: RingSpec, text: str) -> RingElem:
    """Parse a ring-element literal for the given spec."""
    return _LiteralParser(spec, _tokenize(_nonblank(text, "element literal"))).parse()
