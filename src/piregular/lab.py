"""Exhaustive verification suites over finite coefficient rings.

Finite rings are compiled once into index tables (element list in canonical
order plus addition/multiplication tables), so the inner loops work on flat
tuples of small integers no matter how nested the ring tower is.

Witness searches are brute force over a deterministic enumeration.  The
search for X with A^n = A^(n+1) X factors through the columns: column j of
X only has to solve B v = t_j with B = A^(n+1) and t_j the j-th column of
A^n, and those constraints are independent.  Scanning candidate columns in
lexicographic order therefore returns exactly the witness a full row-major
scan over whole matrices would have found first, at a fraction of the cost.
Solutions are memoized per B, which collapses the exhaustive suites because
distinct powers are few.  The left search mirrors this with rows.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
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

WORKERS_ENV_VAR = "PIREGULAR_WORKERS"

DEFAULT_BUDGET = 1 << 20


def _check_budget(total: int, budget: Optional[int]) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    if total > cap:
        raise BudgetExceeded(f"scan of {total} matrices exceeds budget {cap}")


class _Engine:
    """Index-table arithmetic for m-by-m matrices over one finite ring."""

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
        self._row_maps = {}

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
        return binary_power(mat, exponent, self.ident, self.mat_mul)

    def transpose(self, mat):
        m = self.m
        return tuple(mat[j * m + i] for i in range(m) for j in range(m))

    def decode(self, index: int):
        """Matrix number ``index`` in row-major enumeration order."""
        digits = []
        for _ in range(self.m * self.m):
            index, r = divmod(index, self.q)
            digits.append(r)
        return tuple(reversed(digits))

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

    # -- witness searches ---------------------------------------------------

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

    def _row_map(self, mat):
        """Same as :meth:`_col_map` for u -> u*mat acting on row vectors."""
        cached = self._row_maps.get(mat)
        if cached is not None:
            return cached
        m, q, add, mul = self.m, self.q, self.add, self.mul
        table = [-1] * (q ** m)
        for ucode, vec in enumerate(self.vectors):
            code = 0
            for j in range(m):
                acc = mul[vec[0]][mat[j]]
                for k in range(1, m):
                    acc = add[acc][mul[vec[k]][mat[k * m + j]]]
                code = code * q + acc
            if table[code] < 0:
                table[code] = ucode
        self._row_maps[mat] = table
        return table

    def right_witness(self, mat, n: int):
        """First X in row-major enumeration order with A^n = A^(n+1) X, or
        None.  Column constraints are independent, so per-column lex minima
        assemble exactly that first X."""
        m, q = self.m, self.q
        target = self.mat_pow(mat, n)
        table = self._col_map(self.mat_pow(mat, n + 1))
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

    def left_witness(self, mat, n: int):
        """First Y in row-major enumeration order with A^n = Y A^(n+1)."""
        m, q = self.m, self.q
        target = self.mat_pow(mat, n)
        table = self._row_map(self.mat_pow(mat, n + 1))
        rows = []
        for i in range(m):
            code = 0
            for j in range(m):
                code = code * q + target[i * m + j]
            ucode = table[code]
            if ucode < 0:
                return None
            rows.append(self.vectors[ucode])
        return tuple(rows[i][j] for i in range(m) for j in range(m))

    def power_index(self, mat):
        """Tortoise-hare on the power sequence A, A^2, A^3, ...; returns
        (index, cycle_length) where index is the first exponent whose power
        lies on the eventual cycle."""
        def step(p):
            return self.mat_mul(p, mat)

        tortoise = step(mat)
        hare = step(tortoise)
        while tortoise != hare:
            tortoise = step(tortoise)
            hare = step(step(hare))
        mu = 0
        tortoise = mat
        while tortoise != hare:
            tortoise = step(tortoise)
            hare = step(hare)
            mu += 1
        length = 1
        hare = step(tortoise)
        while tortoise != hare:
            hare = step(hare)
            length += 1
        return mu + 1, length


_ENGINES: dict = {}


def _engine(spec: RingSpec, m: int) -> _Engine:
    key = (spec, m)
    engine = _ENGINES.get(key)
    if engine is None:
        require_positive(dim=m)
        engine = _Engine(spec, m)
        _ENGINES[key] = engine
    return engine


def right_witness_search(mat: SquareMatrix, n: int) -> Optional[SquareMatrix]:
    """First X in deterministic enumeration order with A^n = A^(n+1) X."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionFailed(f"exponent must be a positive integer, got {n!r}")
    engine = _engine(mat.ring, mat.dim)
    found = engine.right_witness(engine.from_square(mat), n)
    return None if found is None else engine.to_square(found)


def left_witness_search(mat: SquareMatrix, n: int) -> Optional[SquareMatrix]:
    """First Y in deterministic enumeration order with A^n = Y A^(n+1)."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionFailed(f"exponent must be a positive integer, got {n!r}")
    engine = _engine(mat.ring, mat.dim)
    found = engine.left_witness(engine.from_square(mat), n)
    return None if found is None else engine.to_square(found)


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
        for number in range(total):
            flat = engine.decode(number)
            index, _cycle = engine.power_index(flat)
            bound = index + 1 if n_bound is None else min(n_bound, index + 1)
            rights = []
            lefts = []
            for n in range(1, bound + 1):
                x = engine.right_witness(flat, n)
                if x is not None:
                    _spot_verify_right(engine, flat, n, x)
                    rights.append((n, engine.to_square(x)))
                y = engine.left_witness(flat, n)
                if y is not None:
                    _spot_verify_left(engine, flat, n, y)
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


def _spot_verify_right(engine, flat, n, x):
    if engine.mat_pow(flat, n) != engine.mat_mul(engine.mat_pow(flat, n + 1), x):
        raise InternalViolation("stored right witness fails its identity")


def _spot_verify_left(engine, flat, n, y):
    if engine.mat_pow(flat, n) != engine.mat_mul(y, engine.mat_pow(flat, n + 1)):
        raise InternalViolation("stored left witness fails its identity")


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
    for number in range(start, stop):
        flat = engine.decode(number)
        x = engine.right_witness(flat, n)
        y = engine.left_witness(flat, n)
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


def _cp_chunk_task(args):
    return _cp_chunk(*args)


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionFailed(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}")
    return max(1, value)


def cp_report(k: int, m: int, n: int, workers: Optional[int] = None,
              budget: Optional[int] = None) -> CpReport:
    """Scan all of M_m(Z_k) at exponent n; the enumeration splits into
    contiguous chunks across workers and partial results merge in chunk
    order, so output is identical for any worker count."""
    started = time.perf_counter()
    if workers is None:
        workers = default_workers()
    require_positive(dim=m, n=n, workers=workers)
    spec = IntegersMod(k)
    total = spec.cardinality() ** (m * m)
    _check_budget(total, budget)
    if workers <= 1 or total < 4 * workers:
        parts = [_cp_chunk(k, m, n, 0, total)]
    else:
        chunk_count = workers * 4
        bounds = [total * i // chunk_count for i in range(chunk_count + 1)]
        tasks = [(k, m, n, bounds[i], bounds[i + 1]) for i in range(chunk_count)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_cp_chunk_task, tasks))
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
    for number in range(total):
        flat = engine.decode(number)
        here = engine.right_witness(flat, n) is not None
        there = engine.right_witness(engine.transpose(flat), n) is not None
        if here:
            right_count += 1
        if here != there:
            mismatches.append({"A": engine.to_json(flat),
                               "right": here, "transpose_right": there})
    return TransposeClosureReport(ring=spec, dim=m, exponent=n, total=total,
                                  right_count=right_count, mismatches=mismatches)
