"""Noncommutative polynomials over Q in eight fixed letters, with rewriting.

Words over the alphabet a, b, c, d, w, x, y, z are plain strings; a
polynomial maps words to exact rationals.  The term order is deglex with
a > b > c > d > w > x > y > z, so longer words are larger and ties are
broken by the first differing letter.

A rewrite system replaces a leading word wherever it occurs as a subword.
Systems whose replacements are deglex-smaller than their leading words
terminate on every input; :func:`overlap_check` reports the critical
ambiguities (overlaps and inclusions) between leading words, and an empty
report for the stock system is what makes its normal forms trustworthy as
canonical representatives.

The stock system presents the quotient in which the 2-by-2 matrices
A = [[a,b],[c,d]] and B = [[w,x],[y,z]] satisfy AB = I exactly, while BA
stays away from I.  :func:`shepherdson_demo` machine-checks the resulting
one-sided behaviour, including that A has a right witness but provably no
left one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from .errors import BudgetExceeded, InternalViolation, InvalidSpec, NonTerminating, ParseError
from .matrices import SquareMatrix
from .rings import DEFAULT_BUDGET, RingSpec, _ExpressionParser, _nonblank, _tokenize, binary_power

ALPHABET = "abcdwxyz"
# rank for ascending comparison: z smallest, a largest
_RANK = {letter: position for position, letter in enumerate(reversed(ALPHABET))}


def deglex_key(word: str):
    """Sort key realizing deglex with a > b > c > d > w > x > y > z."""
    return (len(word), tuple(_RANK[c] for c in word))


def _check_word(word: str) -> str:
    if not isinstance(word, str) or any(c not in _RANK for c in word):
        raise InvalidSpec(f"word {word!r} uses letters outside {ALPHABET!r}")
    return word


class NCPolynomial:
    """A finitely supported map from words to nonzero exact rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for word, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    data[_check_word(word)] = coeff
        self._terms = data

    @staticmethod
    def from_word(word: str, coeff=1) -> "NCPolynomial":
        return NCPolynomial({word: coeff})

    def terms(self) -> dict:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, word: str) -> Fraction:
        return self._terms.get(word, Fraction(0))

    def _coerce(self, other) -> Optional["NCPolynomial"]:
        if isinstance(other, NCPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return NCPolynomial({"": other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _summed(other._terms.items(), dict(self._terms))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _summed((word, -coeff) for word, coeff in self._terms.items())

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _summed((w, c * other) for w, c in self._terms.items())
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return _summed((u + v, cu * cv) for u, cu in self._terms.items()
                       for v, cv in other._terms.items())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        return binary_power(self, exponent, lambda: NCPolynomial({"": 1}))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for word in sorted(self._terms, key=deglex_key, reverse=True):
            coeff = self._terms[word]
            body = _word_str(word)
            try:
                shown = str(coeff)
            except ValueError:  # over sys.get_int_max_str_digits() digits
                raise BudgetExceeded.digits() from None
            if word == "":
                text = shown
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{shown}*{body}"
            if pieces and not text.startswith("-"):
                pieces.append(f" + {text}")
            elif pieces:
                pieces.append(f" - {text[1:]}")
            else:
                pieces.append(text)
        return "".join(pieces)

    def __repr__(self):
        return f"NCPolynomial({str(self)!r})"


def _summed(terms, into=None) -> NCPolynomial:
    """The polynomial of ``into`` (a word -> coefficient dict, updated in
    place) plus the (word, coefficient) pairs ``terms``; a word whose
    coefficient cancels is dropped."""
    into = {} if into is None else into
    for word, coeff in terms:
        total = into.get(word, 0) + coeff
        if total:
            into[word] = total
        else:
            into.pop(word, None)
    result = NCPolynomial()
    result._terms = into
    return result


def _word_str(word: str) -> str:
    if not word:
        return "1"
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        pieces.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "*".join(pieces)


class FreeAlgebra:
    """Handle object so matrices can hold noncommutative entries.  Its
    payloads are the polynomials themselves, so matrix arithmetic runs
    through the same payload methods as over a :class:`RingSpec`."""

    commutative = False

    def zero(self) -> NCPolynomial:
        return NCPolynomial()

    def one(self) -> NCPolynomial:
        return NCPolynomial({"": 1})

    zero_payload, one_payload = zero, one
    p_add = staticmethod(operator.add)
    p_sub = staticmethod(operator.sub)
    p_neg = staticmethod(operator.neg)
    p_mul = staticmethod(operator.mul)
    p_dot = RingSpec.p_dot
    p_matmul, matmul, matmul_form = RingSpec.p_matmul, RingSpec.matmul, "calls"
    p_accumulate, accumulate = RingSpec.p_accumulate, RingSpec.accumulate

    def gen(self, letter: str) -> NCPolynomial:
        return NCPolynomial.from_word(_check_word(letter))

    def coerce(self, value) -> NCPolynomial:
        if isinstance(value, NCPolynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return NCPolynomial({"": value})
        raise InvalidSpec(f"cannot coerce {value!r} into the free algebra")

    wrap = p_coerce = coerce

    def parse(self, text: str) -> NCPolynomial:
        return parse_nc(text)

    def __eq__(self, other):
        return isinstance(other, FreeAlgebra)

    def __hash__(self):
        return hash(FreeAlgebra)

    def __str__(self):
        return f"free algebra over Q on {ALPHABET!r}"


FREE = FreeAlgebra()


@dataclass(frozen=True)
class RewriteRule:
    lead: str
    replacement: NCPolynomial

    def __str__(self):
        return f"{_word_str(self.lead)} -> {self.replacement}"


class RewriteSystem:
    """An ordered list of rules, each replacement deglex-smaller than its
    leading word (that is the termination certificate)."""

    def __init__(self, rules: Iterable):
        packed = []
        for item in rules:
            if isinstance(item, RewriteRule):
                lead, replacement = item.lead, item.replacement
            else:
                lead, replacement = item
            lead = _check_word(lead)
            if not lead:
                raise InvalidSpec("a leading word must be nonempty")
            replacement = FREE.coerce(replacement)
            for word in replacement.terms():
                if deglex_key(word) >= deglex_key(lead):
                    raise InvalidSpec(
                        f"replacement term {word!r} is not deglex-smaller than {lead!r}")
            packed.append(RewriteRule(lead, replacement))
        if not packed:
            raise InvalidSpec("a rewrite system needs at least one rule")
        self.rules = tuple(packed)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def shepherdson_system() -> RewriteSystem:
    """The stock presentation: aw = 1 - by, ax = -bz, cw = -dy, cx = 1 - dz."""
    one = FREE.one()
    by = NCPolynomial.from_word("by")
    bz = NCPolynomial.from_word("bz")
    dy = NCPolynomial.from_word("dy")
    dz = NCPolynomial.from_word("dz")
    return RewriteSystem([
        ("aw", one - by),
        ("ax", -bz),
        ("cw", -dy),
        ("cx", one - dz),
    ])


def nc_normal_form(poly: NCPolynomial, system: Optional[RewriteSystem] = None,
                   strategy: str = "leftmost",
                   max_steps: Optional[int] = None) -> NCPolynomial:
    """Reduce until no leading word occurs as a subword of any monomial.

    Each step picks the deglex-largest reducible monomial, the earliest
    listed applicable rule, and the leftmost occurrence (``strategy`` may
    flip that to rightmost; for confluent systems the result is the same).
    A heap pops words deglex-largest first; rewrites only yield smaller words.
    """
    if system is None:
        system = shepherdson_system()
    if strategy not in ("leftmost", "rightmost"):
        raise InvalidSpec(f"unknown strategy {strategy!r}")
    terms = poly.terms()
    budget = max_steps if max_steps is not None else 64 * max(1, len(terms))
    steps = 0
    # a > b > ... > z reverses ASCII, so the least (-len, word) is deglex-largest
    heap = [(-len(word), word) for word in terms]
    heapify(heap)
    while heap:
        word = heappop(heap)[1]
        rule = next((r for r in system if r.lead in word), None)
        if rule is None or word not in terms:
            continue
        pos = word.find(rule.lead) if strategy == "leftmost" else word.rfind(rule.lead)
        steps += 1
        if steps > budget:
            raise NonTerminating(f"exceeded {budget} rewrite steps")
        coeff = terms.pop(word)
        left, right = word[:pos], word[pos + len(rule.lead):]
        rewritten = [(left + rep_word + right, coeff * rep_coeff)
                     for rep_word, rep_coeff in rule.replacement._terms.items()]
        for new, _ in rewritten:
            if new not in terms:
                heappush(heap, (-len(new), new))
        _summed(rewritten, terms)
    return _summed((), terms)


@dataclass(frozen=True)
class Ambiguity:
    """A critical pair between two leading words."""

    kind: str  # "overlap" or "inclusion"
    left_rule: int
    right_rule: int
    word: str


def overlap_check(system: RewriteSystem) -> list:
    """All overlap and inclusion ambiguities between leading words,
    including self-overlaps.  Empty means no critical pairs to resolve."""
    found = []
    leads = [rule.lead for rule in system]
    for i, u in enumerate(leads):
        for j, v in enumerate(leads):
            for cut in range(1, len(u)):
                suffix = u[cut:]
                if len(suffix) < len(v) and v.startswith(suffix):
                    found.append(Ambiguity("overlap", i, j, u + v[len(suffix):]))
            if i != j and len(v) < len(u) and v in u:
                found.append(Ambiguity("inclusion", i, j, u))
    return found


# -- the Shepherdson matrices -------------------------------------------------


@dataclass(frozen=True)
class DemoCheck:
    name: str
    holds: bool
    details: tuple  # of (label, text) pairs


@dataclass(frozen=True)
class ShepherdsonReport:
    checks: tuple

    @property
    def verified(self) -> bool:
        return all(check.holds for check in self.checks)

    def to_json_payload(self) -> dict:
        return {
            "kind": "shepherdson-report",
            "verified": self.verified,
            "checks": [
                {"name": check.name, "holds": check.holds,
                 "details": {label: text for label, text in check.details}}
                for check in self.checks
            ],
        }


def _mat_nf(mat: SquareMatrix, system: RewriteSystem) -> SquareMatrix:
    return SquareMatrix(FREE, tuple(
        tuple(nc_normal_form(entry, system) for entry in row) for row in mat.rows))


def shepherdson_demo() -> ShepherdsonReport:
    """Machine-check the one-sided behaviour of the AB = I pair.

    With A = [[a,b],[c,d]] and B = [[w,x],[y,z]] in the rewritten quotient:
    AB = I but BA != I; A annihilates I - BA from the left; A is right
    strongly regular via X = B^2 A; and no Y with A = Y A^2 can exist,
    because A^2 B^2 = I forces any such Y to equal A B^2 = B while
    B A^2 != A.
    """
    system = shepherdson_system()
    a, b, c, d = (FREE.gen(ch) for ch in "abcd")
    w, x, y, z = (FREE.gen(ch) for ch in "wxyz")
    mat_a = SquareMatrix.from_rows(FREE, [[a, b], [c, d]])
    mat_b = SquareMatrix.from_rows(FREE, [[w, x], [y, z]])
    ident = SquareMatrix.identity(FREE, 2)

    def nf(mat):
        return _mat_nf(mat, system)

    checks = []

    ab = nf(mat_a * mat_b)
    checks.append(DemoCheck("product_is_identity", ab == ident,
                            (("AB", str(ab)),)))

    ba = nf(mat_b * mat_a)
    checks.append(DemoCheck("reverse_product_is_not_identity", ba != ident,
                            (("BA", str(ba)),
                             ("BA[0][0]", str(ba.entry(0, 0))))))

    gap = nf(ident - ba)
    annihilated = nf(mat_a * gap)
    checks.append(DemoCheck("left_annihilates_gap",
                            annihilated.is_zero and not gap.is_zero,
                            (("I-BA", str(gap)),
                             ("A(I-BA)", str(annihilated)))))

    x_witness = mat_b * mat_b * mat_a
    right_ok = nf(mat_a * mat_a * x_witness) == nf(mat_a)
    checks.append(DemoCheck("right_witness_exists", right_ok,
                            (("X", str(nf(x_witness))),)))

    # if A = Y A^2 then Y = Y(A^2 B^2) = (Y A^2) B^2 = A B^2 = B, but B A^2 != A
    aabb = nf(mat_a * mat_a * mat_b * mat_b)
    abb = nf(mat_a * mat_b * mat_b)
    baa = nf(mat_b * mat_a * mat_a)
    forced = aabb == ident and abb == nf(mat_b)
    refuted = baa != nf(mat_a)
    checks.append(DemoCheck("no_left_witness", forced and refuted,
                            (("A^2B^2", str(aabb)),
                             ("AB^2", str(abb)),
                             ("BA^2", str(baa)))))

    report = ShepherdsonReport(tuple(checks))
    if not report.verified:
        failing = [check.name for check in report.checks if not check.holds]
        raise InternalViolation(f"demo identities failed: {failing}")
    return report


# -- expression parser --------------------------------------------------------


class _NCParser(_ExpressionParser):
    """Sums of juxtaposed factors: ``2ab - (1/2)w^2(x + y)`` and the like."""

    def atom(self) -> NCPolynomial:
        kind, value = self.take()
        if kind == "int":
            if self.peek()[0] == "/":
                self.take()
                denominator = self.take("int")[1]
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal")
                return NCPolynomial({"": Fraction(value, denominator)})
            return NCPolynomial({"": value})
        if kind == "name":
            if value not in _RANK:
                raise ParseError(f"unknown generator {value!r}; alphabet is {ALPHABET!r}")
            return NCPolynomial.from_word(value)
        raise ParseError(f"unexpected token {value!r}")

    def terms(self, value: NCPolynomial) -> int:
        return len(value)

    # a sum walks the terms of a sparse polynomial, and only those; a product
    # walks the right factor's terms once for each term of the left
    slots = live = terms

    def power_size(self, value: NCPolynomial, exponent: int) -> int:
        """The term count raised to the exponent (capped where it must pass
        the budget), or the exponent times the longest word and coefficient
        bits, whichever is larger."""
        weight = max((len(word) + coeff.numerator.bit_length() + coeff.denominator.bit_length()
                      for word, coeff in value._terms.items()), default=0)
        return max(len(value) ** min(exponent, DEFAULT_BUDGET.bit_length()), exponent * weight)


def parse_nc(text: str) -> NCPolynomial:
    """Parse a noncommutative polynomial expression.  Each letter is a
    generator of its own, so a run of letters is split."""
    tokens = [(kind, part) for kind, run in _tokenize(_nonblank(text, "expression"))
              for part in (run if kind == "name" else (run,))]
    return _NCParser(FREE, tokens).parse()
