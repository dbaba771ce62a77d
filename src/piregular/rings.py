"""Exact arithmetic in towers of commutative rings.

A ring is described by an immutable ``RingSpec``: the integers, the integers
modulo k, univariate polynomials over a described base ring, or the quotient
of such a polynomial ring by a monic modulus.  Elements are ``RingElem``
values carrying a canonical payload, so structural equality is ring equality:

* integers mod k are stored as the residue in ``[0, k)``,
* polynomials as a low-to-high coefficient tuple with no trailing zeros,
* quotient elements as the remainder after monic long division.

Specs can be written down and re-read through a small colon-separated
grammar, e.g. ``"zmod:4"``, ``"poly:int:t"`` or ``"quot:zmod:3:t^2"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Any, Iterable, Optional

from .errors import (
    InvalidBound,
    InvalidSpec,
    MalformedPayload,
    NotEnumerable,
    ParseError,
    SpecMismatch,
)

Payload = Any


def binary_power(base, exponent: int, one):
    """base^exponent by square-and-multiply; ``one`` is the 0th power and is
    never multiplied, and nothing is squared after the top bit."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


def require_positive(**values) -> None:
    """Raise InvalidBound unless every named value is an integer >= 1."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InvalidBound(f"{name} must be a positive integer, got {value!r}")


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

    def owns(self, value) -> bool:
        return isinstance(value, RingElem) and value.spec == self

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
        return binary_power(self, exponent, RingElem(self.spec, self.spec.one_payload()))

    @property
    def is_zero(self) -> bool:
        return self.payload == self.spec.zero_payload()

    @property
    def is_one(self) -> bool:
        return self.payload == self.spec.one_payload()

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

    def p_from_int(self, n):
        return n

    def show_payload(self, payload):
        return str(payload)

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
        return RingElem(self, (self.base.zero_payload(), self.base.one_payload()))

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


@dataclass(frozen=True)
class QuotientPoly(RingSpec):
    """The quotient of ``base[variable]`` by a monic modulus of degree >= 1."""

    base: RingSpec
    variable: str
    modulus: tuple

    atomic_literals = False

    def __post_init__(self):
        if not isinstance(self.base, RingSpec):
            raise InvalidSpec("quotient base must be a RingSpec")
        if not (isinstance(self.variable, str) and len(self.variable) == 1
                and self.variable.isalpha()):
            raise InvalidSpec(f"variable must be a single letter, got {self.variable!r}")
        mod = _canon_coeff_seq(self.base, self.modulus)
        if len(mod) < 2:
            raise InvalidSpec("quotient modulus must have degree >= 1")
        if mod[-1] != self.base.one_payload():
            raise InvalidSpec("quotient modulus must be monic")
        object.__setattr__(self, "modulus", mod)

    def canon(self, raw):
        return _monic_rem(self.base, _canon_coeff_seq(self.base, raw), self.modulus)

    def zero_payload(self):
        return ()

    def one_payload(self):
        return _monic_rem(self.base, (self.base.one_payload(),), self.modulus)

    def p_add(self, a, b):
        return _seq_add(self.base, a, b)

    def p_neg(self, a):
        return _seq_neg(self.base, a)

    def p_mul(self, a, b):
        return _monic_rem(self.base, _seq_mul(self.base, a, b), self.modulus)

    def p_from_int(self, n):
        return _monic_rem(self.base, _strip(self.base, [self.base.p_from_int(n)]), self.modulus)

    def gen(self):
        return self.element((self.base.zero_payload(), self.base.one_payload()))

    def show_payload(self, payload):
        return _poly_payload_str(self.base, payload, self.variable)

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
        return f"quot:{self.base.token()}:{self.show_payload(self.modulus)}"


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


# -- ring-spec grammar -------------------------------------------------------


def parse_ring_spec(text: str) -> RingSpec:
    """Parse ``"int" | "zmod:<k>" | "poly:<base>:<var>" | "quot:<base>:<monic>"``."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty ring spec")
    parts = text.strip().split(":")
    spec, used = _parse_spec_parts(parts, 0)
    if used != len(parts):
        raise ParseError(f"trailing ring-spec tokens {':'.join(parts[used:])!r}")
    return spec


def _parse_spec_parts(parts, i):
    if i >= len(parts):
        raise ParseError("truncated ring spec")
    head = parts[i]
    if head == "int":
        return Integers(), i + 1
    if head == "zmod":
        if i + 1 >= len(parts):
            raise ParseError("zmod needs a modulus")
        raw = parts[i + 1]
        if not raw.isdigit():
            raise ParseError(f"invalid modulus token {raw!r}")
        modulus = int(raw)
        if modulus < 2:
            raise ParseError(f"modulus must be >= 2, got {raw!r}")
        return IntegersMod(modulus), i + 2
    if head == "poly":
        base, j = _parse_spec_parts(parts, i + 1)
        if j >= len(parts):
            raise ParseError("poly needs a variable")
        var = parts[j]
        if not (len(var) == 1 and var.isalpha()):
            raise ParseError(f"invalid variable token {var!r}")
        return PolyOver(base, var), j + 1
    if head == "quot":
        base, j = _parse_spec_parts(parts, i + 1)
        if j >= len(parts):
            raise ParseError("quot needs a monic modulus literal")
        literal = parts[j]
        letters = {c for c in literal if c.isalpha()}
        if len(letters) != 1:
            raise ParseError(f"modulus literal {literal!r} must use exactly one variable")
        var = letters.pop()
        payload = parse_element(PolyOver(base, var), literal).payload
        try:
            return QuotientPoly(base, var, payload), j + 1
        except InvalidSpec as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ring kind {head!r}")


# -- element literals --------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if c in "+-*^()":
            tokens.append((c, c))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} in literal")
    tokens.append(("end", ""))
    return tokens


class _LiteralParser:
    """Recursive-descent parser for ring-element literals such as
    ``-3``, ``1+2*t``, ``t^2`` or ``(1+t)*u^2`` for nested towers."""

    def __init__(self, spec: RingSpec, text: str = None, tokens=None, pos=0):
        self.spec = spec
        self.tokens = _tokenize(text) if tokens is None else tokens
        self.pos = pos

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> RingElem:
        value = self.expression()
        if self.peek()[0] != "end":
            raise ParseError(f"unexpected token {self.peek()[1]!r}")
        return value

    def expression(self) -> RingElem:
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

    def term(self) -> RingElem:
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

    def factor(self) -> RingElem:
        value = self.primary()
        if self.peek()[0] == "^":
            self.take()
            exp_tok = self.take("int")
            value = value ** int(exp_tok[1])
        return value

    def primary(self) -> RingElem:
        kind, text = self.peek()
        if kind == "int":
            self.take()
            return self.spec.from_int(int(text))
        if kind == "name":
            self.take()
            variable = getattr(self.spec, "variable", None)
            if variable is not None and text == variable:
                return self.spec.gen()
            raise ParseError(f"unknown symbol {text!r} for ring {self.spec}")
        if kind == "(":
            self.take()
            base = getattr(self.spec, "base", None)
            if base is None:
                raise ParseError(f"parenthesized coefficients not allowed in {self.spec}")
            inner = _LiteralParser(base, tokens=self.tokens, pos=self.pos)
            value = inner.expression()
            self.pos = inner.pos
            tok = self.take()
            if tok[0] != ")":
                raise ParseError(f"expected ')', found {tok[1]!r}")
            # lift the base element into this ring as a constant
            return self.spec.element([value.payload])
        raise ParseError(f"unexpected token {text!r}")


def parse_element(spec: RingSpec, text: str) -> RingElem:
    """Parse a ring-element literal for the given spec."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty element literal")
    return _LiteralParser(spec, text).parse()
