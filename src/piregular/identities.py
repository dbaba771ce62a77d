"""Multilinear standard identities on matrix arguments.

The standard identity of degree k is the signed sum over all permutations
of k arguments of the product in permuted order.  Matrix rings over a
commutative ring of dimension m satisfy the identity of degree 2m, and no
smaller even degree in general; degree 3 on 2-by-2 matrix units already
fails to vanish, which is what :func:`search_nonvanishing` digs up.

Grouping the permutations of a set S of arguments by the set H of the
arguments they put first gives the subset recurrence

    s(S) = sum over H in S with |H| = h of  e(H) s(H) s(S - H),

where e(H) = (-1)^#{(i, j) : i in H, j in S - H, j < i}.  The identity is
built on every subset of at most ceil(k/2) arguments from one-argument
splits (h = 1), smallest first, and then from one split of all k arguments
in half.  s(H) stays on the left of s(S - H), so entries need not commute.
That takes 18, 110 and 574 products for k = 4, 6, 8, against the 60, 1950
and 109592 of a walk over all k! permutations.  Each s(S) starts from the zero
rows and adds or subtracts one term at a time with the one ``ring.accumulate(dim)``
bound per identity, a generated kernel that folds the sum into the product, on
payload rows, so one identity compiles one kernel per ring form and dimension;
one matrix is wrapped at the end.

The sampled check refuses, with ``BudgetExceeded``, a run whose samples times
one evaluation's entry products (the recurrence's products times dim^3) and
sampled entries pass ``DEFAULT_BUDGET``, each product charged the square of
the coefficient slots a sampled entry can hold and each entry those slots, so
a polynomial tower is charged for its dense entries; and the search more than
``DEFAULT_BUDGET`` tuples of units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional, Sequence

from .errors import BudgetExceeded, DegreeTooLarge, DimMismatch, SpecMismatch
from .jsonio import content_hash
from .matrices import SquareMatrix, _require_commutative, matrix_to_json
from .rings import DEFAULT_BUDGET, PolyOver, QuotientPoly, RingSpec, require_positive

MAX_DEGREE = 8


def _require_degree(degree: int) -> None:
    """A degree is an integer from 1 to MAX_DEGREE; a bool or a float is none."""
    if isinstance(degree, bool) or not isinstance(degree, int) or not 1 <= degree <= MAX_DEGREE:
        raise DegreeTooLarge(f"degree must be an integer between 1 and {MAX_DEGREE}, "
                             f"got {degree!r}")


def _entry_slots(spec: RingSpec, bound: int) -> int:
    """The most coefficient slots of one sampled entry: ``bound + 1`` for each
    ``poly`` layer, the modulus degree for each ``quot`` layer, 1 over ``int``
    and ``zmod``."""
    slots = 1
    while isinstance(spec, PolyOver):
        slots *= len(spec.modulus) - 1 if isinstance(spec, QuotientPoly) else bound + 1
        spec = spec.base
    return slots


def _recurrence_products(degree: int) -> int:
    """The matrix products the subset recurrence makes for ``degree`` arguments."""
    half = (degree + 1) // 2
    return (sum(comb(degree, size) * size for size in range(2, half + 1))
            + (comb(degree, half) if degree > half else 0))


def _refuse_past_budget(work: int, what: str) -> None:
    if work > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{what} takes {work} steps, past the budget {DEFAULT_BUDGET}")


def standard_identity(mats: Sequence[SquareMatrix]) -> SquareMatrix:
    """Evaluate the standard identity on the given matrices by the subset
    recurrence of the module docstring; ``table`` maps a sorted tuple of
    argument indices to the payload rows of the identity on them."""
    mats = list(mats)
    k = len(mats)
    _require_degree(k)
    first = mats[0]
    for mat in mats[1:]:
        if mat.ring != first.ring:
            raise SpecMismatch("all arguments must live over one ring")
        if mat.dim != first.dim:
            raise DimMismatch("all arguments must share one dimension")
    ring, dim, half = first.ring, first.dim, (k + 1) // 2
    acc, zeros = ring.accumulate(dim), ((ring.zero_payload(),) * dim,) * dim
    table = {(i,): mat.rows for i, mat in enumerate(mats)}
    for size in range(2, half + 1):
        for subset in combinations(range(k), size):
            total = zeros
            for pos, i in enumerate(subset):
                total = acc(total, pos % 2, mats[i].rows, table[subset[:pos] + subset[pos + 1:]])
            table[subset] = total
    everything = tuple(range(k))
    if k > half:  # the pos-th member i of H exceeds i - pos members of the rest
        total = zeros
        for part in combinations(everything, half):
            total = acc(total, (sum(part) - half * (half - 1) // 2) % 2,
                        table[part], table[tuple(j for j in everything if j not in part)])
        table[everything] = total
    return SquareMatrix(ring, table[everything])


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of sampling one standard identity over one matrix ring."""

    ring: RingSpec
    dim: int
    degree: int
    samples: int
    seed: int
    bound: int
    all_vanish: bool
    witness: Optional[tuple]  # tuple of SquareMatrix, or None

    def to_json_payload(self) -> dict:
        return {
            "kind": "identity-report",
            "ring": self.ring.token(),
            "dim": self.dim,
            "degree": self.degree,
            "samples": self.samples,
            "seed": self.seed,
            "bound": self.bound,
            "all_vanish": self.all_vanish,
            "witness": None if self.witness is None
            else [matrix_to_json(mat) for mat in self.witness],
        }

    def hash(self) -> str:
        return content_hash(self.to_json_payload())


def check_identity_on_samples(spec: RingSpec, dim: int, degree: int,
                              samples: int, seed: int, bound: int = 9) -> IdentityReport:
    """Sample tuples deterministically and evaluate the identity on each;
    stops at the first non-vanishing tuple, which becomes the witness."""
    _require_commutative(spec, "sampled identity checks")  # the free algebra has no sampler
    require_positive(samples=samples, dim=dim, bound=bound)
    _require_degree(degree)
    # each evaluation: its entry products, and the entries of its sampled arguments,
    # each product charged the square of an entry's slots and each entry its slots
    slots = _entry_slots(spec, bound)
    _refuse_past_budget(samples * (_recurrence_products(degree) * dim ** 3 * slots ** 2
                                   + degree * dim ** 2 * slots),
                        f"{samples} samples of s_{degree} on {dim}-by-{dim} matrices")
    rng = random.Random(seed)
    witness = None
    for _ in range(samples):
        batch = tuple(_sample_matrix(spec, dim, rng, bound) for _ in range(degree))
        if not standard_identity(batch).is_zero:
            witness = batch
            break
    return IdentityReport(ring=spec, dim=dim, degree=degree, samples=samples,
                          seed=seed, bound=bound, all_vanish=witness is None,
                          witness=witness)


def _sample_matrix(spec: RingSpec, dim: int, rng: random.Random, bound: int) -> SquareMatrix:
    return SquareMatrix(spec, tuple(
        tuple(spec.sample_payload(rng, bound) for _ in range(dim)) for _ in range(dim)))


def matrix_units(spec: RingSpec, dim: int) -> list:
    """The dim^2 matrix units in row-major order of their nonzero position."""
    one, zero = spec.one_payload(), spec.zero_payload()
    return [SquareMatrix(spec, tuple(
        tuple(one if (r, c) == (i, j) else zero for c in range(dim)) for r in range(dim)))
        for i in range(dim) for j in range(dim)]


def search_nonvanishing(spec: RingSpec, dim: int, degree: int) -> Optional[tuple]:
    """Exhaust tuples of matrix units in lexicographic order and return the
    first one on which the identity does not vanish, or None."""
    require_positive(dim=dim)
    _require_degree(degree)
    # the tuples to try, or at degree 1 the dim^4 entries of the units themselves
    _refuse_past_budget(dim ** (2 * max(degree, 2)),
                        f"searching s_{degree} on {dim}-by-{dim} matrix units")
    units = matrix_units(spec, dim)
    for combo in product(units, repeat=degree):
        if not standard_identity(combo).is_zero:
            return combo
    return None
