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
and 109592 of a walk over all k! permutations.  Products are ``p_matmul``
calls and sums ``p_add``/``p_sub`` on payload rows; one matrix is wrapped
at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import DegreeTooLarge, DimMismatch, SpecMismatch
from .jsonio import content_hash
from .matrices import SquareMatrix, matrix_to_json
from .rings import RingSpec, require_positive

MAX_DEGREE = 8


def _require_degree(degree: int) -> None:
    if degree < 1 or degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree must be between 1 and {MAX_DEGREE}, got {degree}")


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
    ring = first.ring
    matmul, half = ring.p_matmul, (k + 1) // 2
    table = {(i,): mat.rows for i, mat in enumerate(mats)}
    for size in range(2, half + 1):
        for subset in combinations(range(k), size):
            table[subset] = _signed_sum(ring, (
                (pos % 2, matmul(mats[i].rows, table[subset[:pos] + subset[pos + 1:]]))
                for pos, i in enumerate(subset)))
    everything = tuple(range(k))
    if k > half:  # the pos-th member i of H exceeds i - pos members of the rest
        table[everything] = _signed_sum(ring, (
            ((sum(part) - half * (half - 1) // 2) % 2,
             matmul(table[part], table[tuple(j for j in everything if j not in part)]))
            for part in combinations(everything, half)))
    return SquareMatrix(ring, table[everything])


def _signed_sum(ring, terms) -> tuple:
    """Payload rows of the sum of ``(odd, rows)`` terms, the odd ones
    subtracted; the first term is never odd."""
    terms = iter(terms)
    _, total = next(terms)
    add, sub = ring.p_add, ring.p_sub
    for odd, rows in terms:
        op = sub if odd else add
        total = tuple(tuple(map(op, ra, rb)) for ra, rb in zip(total, rows))
    return total


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
    require_positive(samples=samples, dim=dim, bound=bound)
    _require_degree(degree)
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
    units = matrix_units(spec, dim)
    for combo in product(units, repeat=degree):
        if not standard_identity(combo).is_zero:
            return combo
    return None
