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

Every matrix product on payload rows is a call of ``RingSpec.matmul(dim)``,
bound once for a run of products of one ring and dimension.  Up to dimension
8 it is a kernel generated for that dimension, with every ``l[i][k]*r[k][j]``
term written out as straight-line code in one of three entry forms: plain
``+`` and ``*`` over the integers, the same with one ``% modulus`` per entry
mod k, and ``p_add``/``p_mul`` calls for every other ring; above that it is
``p_matmul``, a loop over ``p_dot``, as a kernel grows as dim^3.
``accumulate(dim)`` binds a signed term ``c +- l*r`` alike.  A fourth form,
``table``, serves :mod:`piregular.lab` at every dimension (its budget keeps
dim <= 20) on rows of element indices, with the engine's right and left
witness searches and the column maps they read as three more kinds.  Kernels
are cached in the module under ``(form, dim, kind)`` on first use, never on a
spec, a finite set; a binding is a fresh ``partial`` of one and the spec.  A
scan's certificate kernel is written by :mod:`piregular.witnesses` with
:func:`_entry` and compiled by :func:`_compile`; no cache here keeps one.

Every text input is read by one tokenizer and one recursive descent: ring
specs such as ``zmod:4``, ``poly:int:t`` or ``quot:zmod:3:t^2`` (whose
modulus is an element literal), element literals such as ``1+2*t``, the
matrix literals of :mod:`piregular.matrices` and the free-algebra
expressions of :mod:`piregular.freealg`.  Whitespace only separates tokens,
and a run of ASCII digits is the only integer.  Parentheses group; a name is
the generator of the tower layer with that letter, so no tower reuses one.
A text nested past ``NESTING_LIMIT`` is a ``ParseError``.  ``BudgetExceeded``
refuses a power whose size would pass ``DEFAULT_BUDGET``, the product that
would take a text's term products (about the square of the result's size for
a dense polynomial) past ``WORK_BUDGET``, and the sum, product or negation
that would take the dense coefficient slots its operations walk past
``SLOT_BUDGET``, before any of them is computed.  A product walks the right
factor's slots once for each nonzero entry at the bottom of the left one.

A finite quotient ring whose pairs number at most ``_MEMO_CAP`` (256
elements) computes each sum, product and spelling once and keeps it in a
``_Memo``, which holds at most one entry per pair or element.  A literal
that ``show_payload`` spelled is read back from a table of those texts; any
other text is parsed and not kept.  Equal specs share the tables through a
registry keyed by ``(base, variable, modulus)``, which only grows; a pickled
spec carries none.  Larger and infinite quotient rings compute every result
afresh.
"""

from __future__ import annotations

import operator
import random
import sys
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
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


DEFAULT_BUDGET = 1 << 20  # matrices per scan, table entries, n * dim, the size of a parsed power,
# the steps of a sampled identity's samples and the unit tuples of a search
NESTING_LIMIT = 100  # open parentheses and tower layers in one text, far below the recursion limit
WORK_BUDGET = 1 << 18  # the term products made while parsing one text
SLOT_BUDGET = 1 << 22  # the dense coefficient slots its sums, products and negations walk:
# 0.2-0.5 s at the 50-115 ns a slot they cost on a 2-core machine, while the largest
# power within DEFAULT_BUDGET, such as t^500000 over poly:int:t, walks under 1.6 million


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

    matmul_form = "calls"  # how the generated product kernel combines entries

    def p_matmul(self, rows, other_rows) -> tuple:
        """Payload rows of the product of two square matrices' payload rows, one
        ``p_dot`` per entry: :meth:`matmul` above ``_KERNEL_CAP``, since a kernel's
        source grows as dim^3."""
        cols, dot = tuple(zip(*other_rows)), self.p_dot
        return tuple([tuple([dot(row, col) for col in cols]) for row in rows])

    def matmul(self, dim: int):
        """The product of two ``dim``-by-``dim`` payload-row matrices, bound once for a
        run of products: the kernel of this ring's form and ``dim`` as a ``partial`` of
        it and this spec, compiled on its first binding; :meth:`p_matmul` above ``_KERNEL_CAP``."""
        if dim <= _KERNEL_CAP:
            return partial(_KERNELS[self.matmul_form, dim, "product"], self)
        return self.p_matmul

    def p_combination(self, s, mats) -> tuple:
        """The sum of ``s[t]*mats[t]``, one ``p_dot`` of ``s`` per stack of entries."""
        return tuple([tuple([self.p_dot(s, stack) for stack in zip(*rows)]) for rows in zip(*mats)])

    def accumulate(self, dim: int):
        """:meth:`p_accumulate` bound like :meth:`matmul`: a kernel up to ``_KERNEL_CAP``."""
        if dim <= _KERNEL_CAP:
            return partial(_KERNELS[self.matmul_form, dim, "accumulate"], self)
        return self.p_accumulate

    def p_accumulate(self, c, negative, l, r) -> tuple:
        """``c - l*r`` if ``negative``, else ``c + l*r``: one :meth:`p_matmul`, then
        entrywise ``p_sub`` or ``p_add``."""
        op = self.p_sub if negative else self.p_add
        return tuple([tuple(map(op, rc, rp)) for rc, rp in zip(c, self.p_matmul(l, r))])

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


# -- generated matrix-product kernels ----------------------------------------

_KERNEL_CAP = 8  # largest dimension with a payload kernel: 3-9 ms to compile at 8


def _product_kernel(key):
    """``kernel(spec, l, r)``, the product of the m-by-m matrices ``l`` and
    ``r`` in entry form ``form``, for ``key = (form, m, "product")``.  Every
    ``l[i][k]*r[k][j]`` term is written out: ``integer`` sums the terms with
    ``+`` and ``*``, ``residue`` then takes one ``% spec.modulus`` per entry,
    and ``calls`` folds ``spec.p_add`` over ``spec.p_mul`` from the left,
    keeping the left factor on the left, so entries need not commute.  ``table``
    folds ``spec.add[x][y]`` over ``spec.mul[x][y]`` alike, on rows of element
    indices.  ``(form, m, "accumulate")`` gives
    ``kernel(spec, c, negative, l, r)``, ``c - l*r`` if ``negative`` else ``c + l*r``:
    ``c + s*(...)`` with ``s = -1`` or ``1``, one ``% k`` after it, or ``acc(c, ...)``
    with ``acc`` bound to ``spec.p_sub`` or ``spec.p_add``; it has no ``table`` form.
    ``("table", m, "solve")``, ``("table", m, "solve_left")`` and ``("table", m,
    "codes")`` serve the searches of :mod:`piregular.lab`, see :func:`_solve_source`
    and :func:`_codes_source`.  Sources hold only integer indices and names."""
    form, m, kind = key
    if kind in ("solve", "solve_left", "codes"):
        source = _codes_source(m) if kind == "codes" else _solve_source(m, kind)
        return _compile(source, f"<{m}x{m} {form} {kind}>")
    prelude = {"integer": "pass", "residue": "k = spec.modulus",
               "calls": "add, mul = spec.p_add, spec.p_mul",
               "table": "add, mul = spec.add, spec.mul"}[form]
    square = partial(_square, m)

    def entry(i, j) -> str:
        return _entry(form, [(f"a{i}_{k}", f"b{k}_{j}") for k in range(m)],
                      f"c{i}_{j}" if kind == "accumulate" else None)

    head, lines = "def kernel(spec, l, r):", (prelude,)
    if kind == "accumulate":
        sign = ("acc = spec.p_sub if negative else spec.p_add" if form == "calls"
                else "s = -1 if negative else 1")
        head = "def kernel(spec, c, negative, l, r):"
        lines = (prelude, sign, square("c{}_{}".format) + " = c")
    source = "\n    ".join((head, *lines, square("a{}_{}".format) + " = l",
                            square("b{}_{}".format) + " = r", "return " + square(entry)))
    return _compile(source, f"<{m}x{m} {form} {kind}>")


def _entry(form: str, pairs, acc=None) -> str:
    """The source of one product entry in entry form ``form``, the sum of the
    products of the named ``(left, right)`` cells in ``pairs``, where a bare
    name is a term of its own; with ``acc``, the name of a cell of ``c``, the
    signed term ``c +- l*r``."""
    if form in ("calls", "table"):
        op = "{}[{}][{}]" if form == "table" else "{}({}, {})"
        total = reduce(partial(op.format, "add"), (
            term if isinstance(term, str) else op.format("mul", *term) for term in pairs))
        return total if acc is None else f"acc({acc}, {total})"
    total = " + ".join(term if isinstance(term, str) else "{}*{}".format(*term) for term in pairs)
    if acc is not None:
        total = f"{acc} + s*({total})"
    return f"({total}) % k" if form == "residue" else total


def _square(m: int, cell) -> str:
    return "(" + " ".join(
        "(" + " ".join(cell(i, j) + "," for j in range(m)) + ")," for i in range(m)) + ")"


def _solve_source(m: int, kind: str) -> str:
    """``kernel(engine, l, r)``: the first X in row-major order with ``l = r X``
    (``solve``), or the first Y with ``l = Y r`` (``solve_left``), or None, on an
    engine's rows of element indices.  Column j of ``l`` (row j for ``solve_left``)
    is coded base ``q``, first entry most significant, and found as ``chr(code)`` in
    the column map of ``r`` (of ``r``'s transpose): its first place is the first
    solving vector, and -1 means none; the chosen ``vectors`` are X's columns, or
    Y's rows as they stand."""
    right = kind == "solve"
    lines = ["def kernel(spec, l, r):", "q, vectors = spec.q, spec.vectors",
             _square(m, "a{}_{}".format) + " = l",
             f"find = spec.{'col_maps' if right else 'left_maps'}[r].find"]
    for j in range(m):
        cells = (f"a{i}_{j}" if right else f"a{j}_{i}" for i in range(m))
        lines += [f"v{j} = find(chr({reduce('({})*q + {}'.format, cells)}))",
                  f"if v{j} < 0: return None"]
    if not right:
        return "\n    ".join((*lines, "return (" + " ".join(f"vectors[v{j}]," for j in range(m)) + ")"))
    lines += ["(" + " ".join(f"x{i}_{j}," for i in range(m)) + f") = vectors[v{j}]" for j in range(m)]
    return "\n    ".join((*lines, "return " + _square(m, "x{}_{}".format)))


def _codes_source(m: int) -> str:
    """``kernel(engine, r)``: the column map of ``r``, a ``str`` whose place ``v``
    holds ``chr`` of the code of ``r v``, base ``q`` with its first entry most
    significant, for every index vector ``v`` in lexicographic order, so that
    ``find(chr(t))`` is the first ``v`` with ``r v = t``, or -1.  A place takes 1
    byte up to 256 places, else 2 or 4; every code fits ``chr``, as q^m is at most
    ``DEFAULT_BUDGET``.  One comprehension runs over the entries of ``v``, binding
    each row's sum up to entry k once for all the vectors that share those first
    k entries."""
    def prefix(i, k):
        return f"m{i}_0[x0]" if k == 0 else f"add[p{i}_{k - 1}][m{i}_{k}[x{k}]]"
    loops = []
    for k in range(m - 1):
        loops += [f"for x{k} in indices", "for " + " ".join(f"p{i}_{k}," for i in range(m))
                  + " in ((" + " ".join(prefix(i, k) + "," for i in range(m)) + "),)"]
    code = reduce("({})*q + {}".format, (prefix(i, m - 1) for i in range(m)))
    return "\n    ".join((
        "def kernel(spec, r):", "q, indices, add, mul = spec.q, spec.indices, spec.add, spec.mul",
        _square(m, "a{}_{}".format) + " = r",
        *(f"m{i}_{k} = mul[a{i}_{k}]" for i in range(m) for k in range(m)),
        "return ''.join([" + " ".join((f"chr({code})", *loops, f"for x{m - 1} in indices"))
        + "])"))


def _compile(source: str, filename: str):
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


# -- concrete specs --------------------------------------------------------


@dataclass(frozen=True)
class Integers(RingSpec):
    """The ring of integers with exact arbitrary-precision arithmetic."""

    matmul_form = "integer"

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

    matmul_form = "residue"

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
    if not a or not b:  # the other operand is already canonical
        return a or b
    return _strip(base, [*map(base.p_add, a, b), *(a[len(b):] or b[len(a):])])


def _seq_neg(base: RingSpec, a) -> tuple:
    return tuple(base.p_neg(c) for c in a)


def _seq_mul(base: RingSpec, a, b) -> tuple:
    if not a or not b:
        return ()
    zero = base.zero_payload()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == zero:  # so a power of the variable costs linear time
            continue
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


def _variables(spec: RingSpec) -> set:
    """The letters of the polynomial layers of ``spec``'s tower."""
    used = set()
    while isinstance(spec, PolyOver):
        used.add(spec.variable)
        spec = spec.base
    return used


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
        if self.variable in _variables(self.base):
            raise InvalidSpec(f"{self.base} already uses the variable {self.variable!r}")

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
    used = _variables(spec)
    variable = next((v for v in "xyzuvwstp" + ascii_letters if v not in used), None)
    if variable is None:
        raise InvalidSpec(f"{spec} leaves no free polynomial variable")
    return PolyOver(spec, variable)


_MEMO_CAP = 1 << 16  # most pairs of a quotient ring whose ops are memoized
_TABLES: dict = {}  # (base, variable, modulus) -> the memoized ops equal specs share


class _Memo(dict):
    """A missing key is computed by ``compute`` and kept."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


_KERNELS = _Memo(_product_kernel)  # (form, dim, kind) -> kernel; filled on first use


def _memo_ops(spec: "QuotientPoly") -> dict:
    """Table-backed payload ops of a small finite quotient ring; the literal
    table holds only the texts ``show_payload`` spelled."""
    base, mod, var = spec.base, spec.modulus, spec.variable
    add = _Memo(lambda pair: _seq_add(base, *pair))
    mul = _Memo(lambda pair: _monic_rem(base, _seq_mul(base, *pair), mod))
    literal = {}

    def spell(payload):
        text = _poly_payload_str(base, payload, var)
        literal[text] = payload
        return text

    def payload_from_json(value):
        try:
            return literal[value]
        except (KeyError, TypeError):
            return RingSpec.payload_from_json(spec, value)

    show = _Memo(spell)
    return dict(p_add=lambda a, b: add[a, b], p_mul=lambda a, b: mul[a, b],
                show_payload=show.__getitem__, payload_from_json=payload_from_json)


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


def enumerate_elements(spec: RingSpec) -> list:
    """All elements of a finite ring in canonical order (residues ascending,
    then polynomial payloads by degree and lexicographic coefficients)."""
    if not spec.is_finite:
        raise NotEnumerable(f"{spec} is infinite")
    return [RingElem(spec, p) for p in spec.payloads()]


def sample_element(spec: RingSpec, rng, bound: Optional[int] = None) -> RingElem:
    """Deterministically sample one element.  ``rng`` is a ``random.Random``
    or an integer seed; ``bound`` caps magnitude/degree for infinite rings."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    return RingElem(spec, spec.sample_payload(rng, bound))


# -- text inputs: one tokenizer, one recursive descent ------------------------


def _nonblank(text, what: str) -> str:
    """``text`` itself; anything but a string with a non-space character is
    a ParseError naming ``what`` and, for a non-string, its type."""
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a string, got {type(text).__name__}")
    if not text.strip():
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


def _weight(spec, payload) -> int:
    """0 for an element of a finite ring, whose powers stay bounded; else an
    integer's bit length, or a polynomial's degree plus its heaviest
    coefficient's weight: a power multiplies each by at most its exponent."""
    if spec.is_finite:
        return 0
    if isinstance(payload, int):
        return payload.bit_length()
    return len(payload) and len(payload) - 1 + max(_weight(spec.base, c) for c in payload)


def _terms(payload) -> int:
    """Coefficients of an element, counted densely down a tower of
    polynomial rings: the degree plus one at each level, or one where a
    single coefficient is nonzero, times the most terms of a coefficient."""
    if not isinstance(payload, tuple) or not payload:
        return 1
    nonzero = [c for c in payload if c]
    return (1 if len(nonzero) == 1 else len(payload)) * max(map(_terms, nonzero))


def _slots(payload) -> int:
    """The slots of an element's dense coefficient tuples down a tower of
    polynomial rings, one at least: a zero coefficient takes one, a nonzero
    one its own slots."""
    if not payload or not isinstance(payload, tuple):
        return 1
    if not isinstance(payload[-1], tuple):  # the leading coefficient is nonzero
        return len(payload)
    nonzero = list(filter(None, payload))
    return len(payload) - len(nonzero) + sum(map(_slots, nonzero))


def _live(payload) -> int:
    """The nonzero entries at the bottom of an element's coefficient tuples,
    one at least: a product walks the other factor's slots once for each."""
    if not payload or not isinstance(payload, tuple):
        return 1
    if not isinstance(payload[-1], tuple):
        return len(payload) - payload.count(0)
    return sum(map(_live, filter(None, payload)))


class _ExpressionParser:
    """Recursive descent over signed sums of products of powers, where
    juxtaposition multiplies and parentheses group; a subclass reads one
    ``atom`` of ``spec`` and counts its ``terms`` and ``slots``.  One parser
    reads one text: every product it makes is charged to its ``work``, and
    every sum, product and negation to its ``built``; ``live`` counts the
    entries of a left factor that each walk the right factor's slots."""

    def __init__(self, spec, tokens: list):
        self.spec = spec
        self.tokens = tokens
        self.pos = 0
        self.work = 0
        self.built = 0
        self.depth = 0

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

    def product(self, lhs, rhs):
        """lhs * rhs, charged the product of their term counts as work and
        ``slots(lhs) + live(lhs) * slots(rhs)`` as slots; the product that
        would take the text past either budget is refused before it runs."""
        self.work += self.terms(lhs) * self.terms(rhs)
        if self.work > WORK_BUDGET:
            raise BudgetExceeded(f"this text's term products exceed the work budget {WORK_BUDGET}")
        self.charge(self.slots(lhs) + self.live(lhs) * self.slots(rhs))
        return lhs * rhs

    def charge(self, slots: int):
        """Charge ``slots`` to ``built``: a sum or negation walks its operands'
        slots and builds at most as many, even where a sparse power has one
        term, so the operation that would take the text past SLOT_BUDGET is
        refused before it runs.  A slot costs one per polynomial layer of the
        ring, one at least: each layer adds its own ``p_add``/``p_mul`` calls
        and tuples around the slots at the bottom."""
        self.built += slots * max(1, len(_variables(self.spec)))
        if self.built > SLOT_BUDGET:
            raise BudgetExceeded(
                f"this text's coefficient slots exceed the work budget {SLOT_BUDGET}")

    def nested(self, read):
        """``read()`` one level deeper; the level past NESTING_LIMIT is refused."""
        if self.depth == NESTING_LIMIT:
            raise ParseError(f"this text nests deeper than {NESTING_LIMIT} levels")
        self.depth += 1
        value = read()
        self.depth -= 1
        return value

    def expression(self):
        negate = False
        if self.peek()[0] in "+-":
            negate = self.take()[0] == "-"
        value = self.term()
        if negate:
            self.charge(self.slots(value))
            value = -value
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            self.charge(self.slots(value) + self.slots(rhs))
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "int", "name", "("):
            if self.peek()[0] == "*":
                self.take()
            value = self.product(value, self.factor())
        return value

    def factor(self):
        """A primary, raised to a power only if the power's size stays within
        DEFAULT_BUDGET; a power past it is refused before any product."""
        value = self.primary()
        if self.peek()[0] == "^":
            self.take()
            exponent = self.take("int")[1]
            if self.power_size(value, exponent) > DEFAULT_BUDGET:
                raise BudgetExceeded(
                    f"a power with exponent {exponent} exceeds the size budget {DEFAULT_BUDGET}")
            value = binary_power(value, exponent, self.spec.one, self.product)
        return value

    def primary(self):
        if self.peek()[0] != "(":
            return self.atom()
        self.take()
        value = self.nested(self.expression)
        self.take(")")
        return value

    def atom(self):
        raise NotImplementedError

    def terms(self, value) -> int:
        raise NotImplementedError

    def slots(self, value) -> int:
        raise NotImplementedError

    def live(self, value) -> int:
        raise NotImplementedError

    def power_size(self, value, exponent: int) -> int:
        raise NotImplementedError


class _LiteralParser(_ExpressionParser):
    """Ring-element literals such as ``-3``, ``1+2*t``, ``t^2`` or
    ``(1+t)*u^2`` for nested towers, and the ring specs that embed them.
    A name is the generator of the tower layer that uses its letter."""

    def atom(self) -> RingElem:
        kind, value = self.take()
        if kind == "int":
            return self.spec.from_int(value)
        if kind == "name":
            return self.generator(self.spec, value)
        raise ParseError(f"unexpected token {value!r}")

    def generator(self, spec: RingSpec, name: str) -> RingElem:
        """The generator of the layer of ``spec``'s tower named ``name``,
        lifted into ``spec`` as a constant."""
        if not isinstance(spec, PolyOver):
            raise ParseError(f"unknown symbol {name!r} for ring {self.spec}")
        if name == spec.variable:
            return spec.gen()
        return spec.element([self.generator(spec.base, name).payload])

    def terms(self, value: RingElem) -> int:
        return _terms(value.payload)

    def slots(self, value: RingElem) -> int:
        return _slots(value.payload)

    def live(self, value: RingElem) -> int:
        return _live(value.payload)

    def power_size(self, value: RingElem, exponent: int) -> int:
        return exponent * _weight(self.spec, value.payload)

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
        base = self.nested(self.ring_spec)
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
