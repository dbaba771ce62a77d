"""Exhaustive verification suites over finite coefficient rings.

Finite rings are compiled once into index tables (element list in canonical
order plus addition/multiplication tables), so the inner loops work on flat
tuples of small integers no matter how nested the ring tower is.  Every
exhaustive walk reads its matrices from one row-major iterator,
:meth:`_Engine.matrices`, and each matrix's powers from one ladder,
A, A^2, ... up to the first repeat.

There is one witness search: the first X in row-major order with T = B X.
Column j of X only has to solve B v = t_j, t_j the j-th column of T, and
those constraints are independent, so per-column lexicographic minima give
exactly the witness a full scan over whole matrices would find first.
Solutions are memoized per B; distinct powers are few.  A right witness
solves A^n = A^(n+1) X.  A left witness, A^n = Y A^(n+1), is the transpose of
that search on the transposes, as (Y B)^T = B^T Y^T over a commutative ring;
the rows of Y are scanned in the same lexicographic order, so the tie-breaks
agree, and the memoized tables are shared.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import Iterator, Optional

from .errors import (
    BudgetExceeded,
    InternalViolation,
    NotEnumerable,
    PiregularError,
    PreconditionFailed,
)
from .matrices import SquareMatrix
from .rings import IntegersMod, RingSpec, binary_power, require_positive
from .witnesses import (
    RightWitnessInstance,
    matrix_to_json,
    right_to_left_certificate,
)

DEFAULT_BUDGET = 1 << 20


def _check_budget(total: int, budget: Optional[int]) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    if total > cap:
        raise BudgetExceeded(f"scan of {total} matrices exceeds budget {cap}")


class _Engine:
    """Index-table arithmetic for m-by-m matrices over one finite ring.

    The ring must be commutative: the left search runs as the transposed
    right search.  Every finite ``RingSpec`` in the package is commutative.
    """

    def __init__(self, spec: RingSpec, m: int):
        if not spec.is_finite:
            raise NotEnumerable(f"{spec} is infinite; exhaustive search unavailable")
        self.spec = spec
        self.m = m
        payloads = list(spec.payloads())
        self.payloads = payloads
        self.q = len(payloads)
        index = {p: i for i, p in enumerate(payloads)}
        self.index = index
        self.add = [[index[spec.p_add(a, b)] for b in payloads] for a in payloads]
        self.mul = [[index[spec.p_mul(a, b)] for b in payloads] for a in payloads]
        self.zero = index[spec.zero_payload()]
        self.one = index[spec.one_payload()]
        self.vectors = list(product(range(self.q), repeat=m))
        self.ident = tuple(self.one if i == j else self.zero
                           for i in range(m) for j in range(m))
        self._col_maps = {}

    # -- flat-matrix arithmetic -------------------------------------------

    def mat_mul(self, lhs, rhs):
        m, add, mul = self.m, self.add, self.mul
        out = []
        for i in range(m):
            base = i * m
            for j in range(m):
                acc = mul[lhs[base]][rhs[j]]
                for k in range(1, m):
                    acc = add[acc][mul[lhs[base + k]][rhs[k * m + j]]]
                out.append(acc)
        return tuple(out)

    def mat_pow(self, mat, exponent: int):
        return binary_power(mat, exponent, lambda: self.ident, self.mat_mul)

    def transpose(self, mat):
        m = self.m
        return tuple(mat[j * m + i] for i in range(m) for j in range(m))

    def matrices(self, start: int = 0, stop: Optional[int] = None):
        """Matrices number ``start`` to ``stop - 1`` in row-major
        enumeration order."""
        return islice(product(range(self.q), repeat=self.m * self.m), start, stop)

    def from_square(self, mat: SquareMatrix):
        index = self.index
        return tuple(index[p] for row in mat.rows for p in row)

    def to_square(self, flat) -> SquareMatrix:
        m, payloads = self.m, self.payloads
        return SquareMatrix(self.spec, tuple(
            tuple(payloads[flat[i * m + j]] for j in range(m)) for i in range(m)))

    def to_json(self, flat):
        m, spec, payloads = self.m, self.spec, self.payloads
        return [[spec.payload_to_json(payloads[flat[i * m + j]]) for j in range(m)]
                for i in range(m)]

    # -- powers ---------------------------------------------------------------

    def ladder(self, mat):
        """The powers A, A^2, ... A^L up to the first repeat, and the
        exponent ``index`` with A^(L+1) = A^index; from ``index`` on, the
        powers cycle with period L + 1 - index."""
        seen = {}
        powers = []
        power = mat
        while power not in seen:
            powers.append(power)
            seen[power] = len(powers)
            power = self.mat_mul(power, mat)
        return powers, seen[power]

    def power_index(self, mat):
        """(index, cycle_length): index is the first exponent whose power
        lies on the eventual cycle of A, A^2, A^3, ..."""
        powers, index = self.ladder(mat)
        return index, len(powers) + 1 - index

    def power_pair(self, mat, n: int):
        """(A^n, A^(n+1))."""
        low = self.mat_pow(mat, n)
        return low, self.mat_mul(low, mat)

    # -- the witness search ---------------------------------------------------

    def _col_map(self, mat):
        """For each achievable column target of v -> mat*v, the first v in
        lexicographic order; -1 marks unreachable targets."""
        cached = self._col_maps.get(mat)
        if cached is not None:
            return cached
        m, q, add, mul = self.m, self.q, self.add, self.mul
        table = [-1] * (q ** m)
        for vcode, vec in enumerate(self.vectors):
            code = 0
            for i in range(m):
                base = i * m
                acc = mul[mat[base]][vec[0]]
                for k in range(1, m):
                    acc = add[acc][mul[mat[base + k]][vec[k]]]
                code = code * q + acc
            if table[code] < 0:
                table[code] = vcode
        self._col_maps[mat] = table
        return table

    def solve(self, target, base):
        """First X in row-major enumeration order with target = base X, or
        None.  Column constraints are independent, so per-column lex minima
        assemble exactly that first X."""
        m, q = self.m, self.q
        table = self._col_map(base)
        chosen = []
        for j in range(m):
            code = 0
            for i in range(m):
                code = code * q + target[i * m + j]
            vcode = table[code]
            if vcode < 0:
                return None
            chosen.append(self.vectors[vcode])
        return tuple(chosen[j][i] for i in range(m) for j in range(m))

    def solve_left(self, target, base):
        """First Y in row-major enumeration order with target = Y base: the
        transpose of :meth:`solve` on the transposes."""
        t = self.transpose
        found = self.solve(t(target), t(base))
        return None if found is None else t(found)


_ENGINES: dict = {}


def _engine(spec: RingSpec, m: int) -> _Engine:
    key = (spec, m)
    engine = _ENGINES.get(key)
    if engine is None:
        require_positive(dim=m)
        engine = _Engine(spec, m)
        _ENGINES[key] = engine
    return engine


def _search(mat: SquareMatrix, n: int, left: bool) -> Optional[SquareMatrix]:
    require_positive(PreconditionFailed, exponent=n)
    engine = _engine(mat.ring, mat.dim)
    low, high = engine.power_pair(engine.from_square(mat), n)
    found = engine.solve_left(low, high) if left else engine.solve(low, high)
    return None if found is None else engine.to_square(found)


def right_witness_search(mat: SquareMatrix, n: int) -> Optional[SquareMatrix]:
    """First X in deterministic enumeration order with A^n = A^(n+1) X."""
    return _search(mat, n, left=False)


def left_witness_search(mat: SquareMatrix, n: int) -> Optional[SquareMatrix]:
    """First Y in deterministic enumeration order with A^n = Y A^(n+1)."""
    return _search(mat, n, left=True)


def power_sequence_index(mat: SquareMatrix) -> tuple:
    """(index, cycle_length) of the power sequence of a matrix over a
    finite ring."""
    engine = _engine(mat.ring, mat.dim)
    return engine.power_index(engine.from_square(mat))


# -- classification -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassificationRecord:
    A: SquareMatrix
    power_index: int
    right_witnesses: tuple  # of (n, SquareMatrix)
    left_witnesses: tuple
    agrees: bool

    def to_json_payload(self) -> dict:
        return {
            "A": matrix_to_json(self.A),
            "power_index": self.power_index,
            "agrees": self.agrees,
            "right": [{"n": n, "witness": matrix_to_json(x)}
                      for n, x in self.right_witnesses],
            "left": [{"n": n, "witness": matrix_to_json(y)}
                     for n, y in self.left_witnesses],
        }


def classify_all(spec: RingSpec, m: int, n_bound: Optional[int] = None,
                 budget: Optional[int] = None) -> Iterator[ClassificationRecord]:
    """Walk every matrix in enumeration order and record its right/left
    witness exponents up to ``n_bound`` or power-sequence stabilization,
    whichever comes first (stabilization index + 1 when no bound given)."""
    if n_bound is not None:
        require_positive(n_bound=n_bound)
    engine = _engine(spec, m)
    total = engine.q ** (m * m)
    _check_budget(total, budget)

    def walk():
        for flat in engine.matrices():
            powers, index = engine.ladder(flat)
            cycle = powers[index - 1:]
            powers += cycle + cycle  # past the ladder, the powers repeat its cycle
            bound = index + 1 if n_bound is None else min(n_bound, index + 1)
            rights = []
            lefts = []
            for n in range(1, bound + 1):
                low, high = powers[n - 1], powers[n]
                x = engine.solve(low, high)
                if x is not None:
                    if low != engine.mat_mul(high, x):
                        raise InternalViolation("stored right witness fails its identity")
                    rights.append((n, engine.to_square(x)))
                y = engine.solve_left(low, high)
                if y is not None:
                    if low != engine.mat_mul(y, high):
                        raise InternalViolation("stored left witness fails its identity")
                    lefts.append((n, engine.to_square(y)))
            if index <= bound and all(n != index for n, _ in rights):
                raise InternalViolation(
                    "power-sequence index must always carry a right witness")
            agrees = {n for n, _ in rights} == {n for n, _ in lefts}
            yield ClassificationRecord(
                A=engine.to_square(flat), power_index=index,
                right_witnesses=tuple(rights), left_witnesses=tuple(lefts),
                agrees=agrees)

    return walk()


# -- two-sided agreement report ----------------------------------------------


@dataclass(frozen=True, slots=True)
class CpReport:
    """Exhaustive right-versus-left agreement over 2-by-2 blocks of Z_k,
    with every right witness fed through the conversion pipeline."""

    modulus: int
    dim: int
    exponent: int
    total: int
    counts: dict
    counterexamples: list
    pipeline_checked: int
    pipeline_failures: list
    wall_time_ms: int
    workers: int

    def to_json_payload(self) -> dict:
        """Deterministic content only; wall time stays out so repeated runs
        serialize byte-identically."""
        return {
            "kind": "cp-report",
            "modulus": self.modulus,
            "dim": self.dim,
            "exponent": self.exponent,
            "total": self.total,
            "counts": dict(self.counts),
            "counterexamples": list(self.counterexamples),
            "pipeline": {
                "checked": self.pipeline_checked,
                "failures": list(self.pipeline_failures),
            },
        }

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.pipeline_failures


def _cp_chunk(k: int, m: int, n: int, start: int, stop: int) -> dict:
    spec = IntegersMod(k)
    engine = _engine(spec, m)
    counts = {"both": 0, "right_only": 0, "left_only": 0, "neither": 0}
    counterexamples = []
    failures = []
    checked = 0
    for flat in engine.matrices(start, stop):
        low, high = engine.power_pair(flat, n)
        x = engine.solve(low, high)
        y = engine.solve_left(low, high)
        right, left = x is not None, y is not None
        if right and left:
            counts["both"] += 1
        elif right:
            counts["right_only"] += 1
        elif left:
            counts["left_only"] += 1
        else:
            counts["neither"] += 1
        if right != left:
            counterexamples.append(
                {"A": engine.to_json(flat), "right": right, "left": left})
        if right:
            checked += 1
            try:
                right_to_left_certificate(RightWitnessInstance(
                    engine.to_square(flat), n, engine.to_square(x)))
            except PiregularError as exc:
                failures.append({"A": engine.to_json(flat),
                                 "reason": f"{type(exc).__name__}: {exc}"})
    return {"counts": counts, "counterexamples": counterexamples,
            "pipeline_checked": checked, "pipeline_failures": failures}


def cp_report(k: int, m: int, n: int, workers: int = 1,
              budget: Optional[int] = None) -> CpReport:
    """Scan all of M_m(Z_k) at exponent n; the enumeration splits into
    contiguous chunks across workers and partial results merge in chunk
    order, so output is identical for any worker count."""
    started = time.perf_counter()
    require_positive(dim=m, n=n, workers=workers)
    spec = IntegersMod(k)
    total = spec.cardinality() ** (m * m)
    _check_budget(total, budget)
    if workers <= 1 or total < 4 * workers:
        parts = [_cp_chunk(k, m, n, 0, total)]
    else:
        chunk_count = workers * 4
        bounds = [total * i // chunk_count for i in range(chunk_count + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_cp_chunk, k, m, n), bounds[:-1], bounds[1:]))
    counts = {"both": 0, "right_only": 0, "left_only": 0, "neither": 0}
    counterexamples = []
    failures = []
    checked = 0
    for part in parts:
        for key in counts:
            counts[key] += part["counts"][key]
        counterexamples.extend(part["counterexamples"])
        failures.extend(part["pipeline_failures"])
        checked += part["pipeline_checked"]
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return CpReport(modulus=k, dim=m, exponent=n, total=total, counts=counts,
                    counterexamples=counterexamples, pipeline_checked=checked,
                    pipeline_failures=failures, wall_time_ms=elapsed_ms,
                    workers=workers)


# -- transpose closure ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TransposeClosureReport:
    ring: RingSpec
    dim: int
    exponent: int
    total: int
    right_count: int
    mismatches: list

    @property
    def holds(self) -> bool:
        return not self.mismatches

    def to_json_payload(self) -> dict:
        return {
            "kind": "transpose-closure",
            "ring": self.ring.token(),
            "dim": self.dim,
            "exponent": self.exponent,
            "total": self.total,
            "right_count": self.right_count,
            "holds": self.holds,
            "mismatches": list(self.mismatches),
        }


def transpose_closure_check(spec: RingSpec, m: int, n: int) -> TransposeClosureReport:
    """Exhaustively confirm that A is right strongly pi-regular at n exactly
    when its transpose is.  Over a commutative ring the transpose condition
    restates left strong pi-regularity, so this must coincide with the
    two-sided agreement scan."""
    require_positive(dim=m, n=n)
    engine = _engine(spec, m)
    total = engine.q ** (m * m)
    mismatches = []
    right_count = 0
    for flat in engine.matrices():
        low, high = engine.power_pair(flat, n)
        here = engine.solve(low, high) is not None
        # (A^T)^k = (A^k)^T
        there = engine.solve(engine.transpose(low), engine.transpose(high)) is not None
        if here:
            right_count += 1
        if here != there:
            mismatches.append({"A": engine.to_json(flat),
                               "right": here, "transpose_right": there})
    return TransposeClosureReport(ring=spec, dim=m, exponent=n, total=total,
                                  right_count=right_count, mismatches=mismatches)
