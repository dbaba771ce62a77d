"""Multilinear standard identities on matrix arguments.

The standard identity of degree k is the signed sum over all permutations
of k arguments of the product in permuted order.  Matrix rings over a
commutative ring of dimension m satisfy the identity of degree 2m, and no
smaller even degree in general; degree 3 on 2-by-2 matrix units already
fails to vanish, which is what :func:`search_nonvanishing` digs up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import DegreeTooLarge, DimMismatch, SpecMismatch
from .jsonio import content_hash
from .matrices import SquareMatrix
from .rings import RingSpec, require_positive, sample_element

MAX_DEGREE = 8


def standard_identity(mats: Sequence[SquareMatrix]) -> SquareMatrix:
    """Evaluate the standard identity on the given matrices.

    Permutations are walked as a lexicographic tree so prefix products are
    shared; the sign updates incrementally from the position each argument
    is pulled out of the remaining pool (the Lehmer count of inversions).
    """
    mats = list(mats)
    k = len(mats)
    if k < 1 or k > MAX_DEGREE:
        raise DegreeTooLarge(f"degree must be between 1 and {MAX_DEGREE}, got {k}")
    first = mats[0]
    for mat in mats[1:]:
        if mat.ring != first.ring:
            raise SpecMismatch("all arguments must live over one ring")
        if mat.dim != first.dim:
            raise DimMismatch("all arguments must share one dimension")
    total = SquareMatrix.zeros(first.ring, first.dim)

    def walk(remaining: tuple, prefix: Optional[SquareMatrix], inversions: int):
        nonlocal total
        if not remaining:
            total = total - prefix if inversions % 2 else total + prefix
            return
        for pos, index in enumerate(remaining):
            chosen = mats[index] if prefix is None else prefix * mats[index]
            walk(remaining[:pos] + remaining[pos + 1:], chosen, inversions + pos)

    walk(tuple(range(k)), None, 0)
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
        from .witnesses import matrix_to_json

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
    require_positive(samples=samples, dim=dim)
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
    return SquareMatrix.from_rows(
        spec, [[sample_element(spec, rng, bound) for _ in range(dim)] for _ in range(dim)])


def matrix_units(spec: RingSpec, dim: int) -> list:
    """The dim^2 matrix units in row-major order of their nonzero position."""
    units = []
    for i in range(dim):
        for j in range(dim):
            rows = [[spec.one() if (r, c) == (i, j) else spec.zero()
                     for c in range(dim)] for r in range(dim)]
            units.append(SquareMatrix.from_rows(spec, rows))
    return units


def search_nonvanishing(spec: RingSpec, dim: int, degree: int) -> Optional[tuple]:
    """Exhaust tuples of matrix units in lexicographic order and return the
    first one on which the identity does not vanish, or None."""
    if degree < 1 or degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree must be between 1 and {MAX_DEGREE}, got {degree}")
    units = matrix_units(spec, dim)
    for combo in product(units, repeat=degree):
        if not standard_identity(combo).is_zero:
            return combo
    return None
