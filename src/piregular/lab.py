"""Exhaustive verification suites over finite coefficient rings.

Finite rings are compiled once into index tables (canonical element list
plus addition/multiplication tables), so a matrix over any ring tower is a
tuple of rows of small element indices, multiplied by the ``table`` kernels
of :mod:`piregular.rings`; over ``zmod:k`` they are its payload rows.  Every
exhaustive scan runs through one driver, :func:`_scan`: it checks every size
against the budget before an engine is built, then streams one per-matrix
function over each matrix in row-major order, on one process or in chunks on
a pool; :func:`cp_report` and the transpose check share one such function
and one fold.  The report certifies each right witness on payload rows with
the row functions of :mod:`piregular.witnesses`, and no wrapper objects.

There is one witness search: the first X in row-major order with T = B X.
Column j of X only has to solve B v = t_j, t_j the j-th column of T, and
those constraints are independent, so per-column lexicographic minima give
exactly the witness a full scan over whole matrices would find first.
The solutions for one B form a column map, built row by row from shared
prefix sums, memoized per B as an ``array``; distinct powers are few.  A
right witness solves A^n = A^(n+1) X.  A left witness, A^n = Y A^(n+1), is
the transpose of that search on the transposes, as (Y B)^T = B^T Y^T over a
commutative ring; the rows of Y are scanned in the same lexicographic order,
so the tie-breaks agree, and the memoized tables are shared.
"""

from __future__ import annotations

import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import Iterator, Optional

from .errors import BudgetExceeded, InternalViolation, PiregularError, PreconditionFailed
from .matrices import SquareMatrix, _require_commutative, matrix_to_json
from .rings import DEFAULT_BUDGET, IntegersMod, RingSpec, _KERNELS, binary_power, require_positive
from .witnesses import _check_exponent_budget, certificate_rows, instance_rows


def _size(spec: RingSpec, exponent: int, what: str) -> int:
    """q^exponent for a ring of q elements, or BudgetExceeded if that is more
    than DEFAULT_BUDGET; NotEnumerable if infinite."""
    q = spec.cardinality()
    # q >= 2, so q^exponent > the budget once exponent reaches its bit length
    if exponent >= DEFAULT_BUDGET.bit_length() or q ** exponent > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{spec.token()}: {q}^{exponent} {what} exceed budget {DEFAULT_BUDGET}")
    return q ** exponent


class _Engine:
    """Index-table arithmetic for m-by-m matrices over one finite ring, held
    as tuples of rows of indices into ``payloads`` and multiplied by the
    ``table`` kernel, bound once, over the ``add``/``mul`` tables.  The
    payloads of ``zmod:k`` are 0..k-1, so there index rows are payload rows.
    The ring must be commutative: the left search runs as the transposed
    right search, and :func:`_engine` refuses any other.
    """

    def __init__(self, spec: RingSpec, m: int):
        self.spec = spec
        self.m = m
        self.payloads = payloads = list(spec.payloads())
        self.q = len(payloads)
        self.index = index = {p: i for i, p in enumerate(payloads)}
        self.add = [[index[spec.p_add(a, b)] for b in payloads] for a in payloads]
        self.mul = [[index[spec.p_mul(a, b)] for b in payloads] for a in payloads]
        zero, one = index[spec.zero_payload()], index[spec.one_payload()]
        self.vectors = list(product(range(self.q), repeat=m))
        self.ident = tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))
        self._col_maps = {}
        self._kernel = _KERNELS["table", m]
        self._plain = payloads == list(range(self.q))  # index rows are payload rows

    # -- index-matrix arithmetic ----------------------------------------------

    def mat_mul(self, lhs, rhs):
        return self._kernel(self, lhs, rhs)

    def mat_pow(self, mat, exponent: int):
        return binary_power(mat, exponent, lambda: self.ident, self.mat_mul)

    def transpose(self, mat):
        return tuple(zip(*mat))

    def from_square(self, mat: SquareMatrix):
        index = self.index.__getitem__
        return tuple(tuple(map(index, row)) for row in mat.rows)

    def payload_rows(self, mat):
        return mat if self._plain else tuple(tuple(map(self.payloads.__getitem__, row))
                                             for row in mat)

    def to_square(self, mat) -> SquareMatrix:
        return SquareMatrix(self.spec, self.payload_rows(mat))

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

    def power_pair(self, mat, n: int):
        """(A^n, A^(n+1))."""
        low = self.mat_pow(mat, n)
        return low, self.mat_mul(low, mat)

    # -- the witness search ---------------------------------------------------

    def _col_map(self, mat):
        """For each achievable column target of v -> mat*v, the first v in
        lexicographic order; -1 marks unreachable targets.  Row i of mat*v
        over all v grows one coordinate k at a time (prefix sum plus each
        mat[i][k]*a); a backward pass leaves the first v per code."""
        cached = self._col_maps.get(mat)
        if cached is not None:
            return cached
        m, q, add, mul = self.m, self.q, self.add, self.mul
        codes = None
        for row in mat:
            vals = mul[row[0]]
            for entry in row[1:]:
                mul_row = mul[entry]
                vals = [add[x][p] for x in vals for p in mul_row]
            codes = vals if codes is None else [c * q + v for c, v in zip(codes, vals)]
        table = array("h" if q ** m <= 32768 else "i", [-1]) * (q ** m)
        for vcode in range(len(codes) - 1, -1, -1):
            table[codes[vcode]] = vcode
        self._col_maps[mat] = table
        return table

    def solve(self, target, base, transposed=False):
        """First X in row-major enumeration order with target = base X (X^T
        if ``transposed``), or None.  Column constraints are independent, so
        per-column lex minima assemble exactly that first X, whose transpose
        has them as its rows."""
        q = self.q
        table = self._col_map(base)
        chosen = []
        for column in zip(*target):
            code = 0
            for t in column:
                code = code * q + t
            vcode = table[code]
            if vcode < 0:
                return None
            chosen.append(self.vectors[vcode])
        return tuple(chosen) if transposed else tuple(zip(*chosen))

    def solve_left(self, target, base):
        """First Y in row-major enumeration order with target = Y base: the
        transpose of :meth:`solve` on the transposes."""
        return self.solve(self.transpose(target), self.transpose(base), transposed=True)


_ENGINES: dict = {}


def _engine(spec: RingSpec, m: int) -> _Engine:
    """The cached engine.  Its tables hold q^2 entries (sums, products) and
    q^m entries (vectors, column maps); both must fit the budget."""
    require_positive(dim=m)
    _size(spec, max(2, m), "table entries")
    _require_commutative(spec, "witness searches")  # the left one runs transposed
    key = (spec, m)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = _ENGINES[key] = _Engine(spec, m)
    return engine


def _walk(spec: RingSpec, m: int, visit, start: int, stop: int):
    """``visit`` on matrices number ``start`` to ``stop - 1`` in row-major order."""
    engine = _engine(spec, m)
    return map(partial(visit, engine), islice(product(engine.vectors, repeat=m), start, stop))


def _walk_chunk(*args) -> list:
    return list(_walk(*args))


def _pool_size(workers: int, total: int) -> int:
    """min(workers, usable CPUs), or 1 if that leaves under 4 matrices each."""
    used = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    return used if total >= 4 * used else 1


def _scan(spec: RingSpec, m: int, visit, workers: int = 1) -> Iterator:
    """``visit(engine, A)`` for every A in M_m(spec), in row-major order.

    Every size is checked and the engine built before this returns; the
    results come lazily.  More workers (see :func:`_pool_size`) split the
    walk into contiguous chunks on a process pool, read back in chunk order,
    so the results are the same for any worker count; ``visit`` must then
    be a module-level function or a partial of one."""
    require_positive(dim=m, workers=workers)
    total = _size(spec, m * m, f"{m}x{m} matrices to scan")
    _engine(spec, m)  # checked and built before any worker starts
    workers = _pool_size(workers, total)
    if workers == 1:
        return _walk(spec, m, visit, 0, total)
    return _pooled(partial(_walk_chunk, spec, m, visit), total, workers)


def _pooled(walk_chunk, total: int, workers: int) -> Iterator:
    """4 contiguous chunks per worker, each passed on as soon as the pool
    returns it; stopping early cancels the chunks not yet started."""
    bounds = [total * i // (4 * workers) for i in range(4 * workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for part in pool.map(walk_chunk, bounds[:-1], bounds[1:]):
                yield from part
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    """(index, cycle_length) of the power sequence of a matrix over a finite
    ring: index is the first exponent whose power lies on the eventual cycle
    of A, A^2, A^3, ..."""
    engine = _engine(mat.ring, mat.dim)
    powers, index = engine.ladder(engine.from_square(mat))
    return index, len(powers) + 1 - index


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


def _classify(n_bound: Optional[int], engine: _Engine, mat) -> ClassificationRecord:
    powers, index = engine.ladder(mat)
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
    return ClassificationRecord(
        A=engine.to_square(mat), power_index=index,
        right_witnesses=tuple(rights), left_witnesses=tuple(lefts),
        agrees=agrees)


def classify_all(spec: RingSpec, m: int,
                 n_bound: Optional[int] = None) -> Iterator[ClassificationRecord]:
    """Walk every matrix in enumeration order and record its right/left
    witness exponents up to ``n_bound`` or power-sequence stabilization,
    whichever comes first (stabilization index + 1 when no bound given)."""
    if n_bound is not None:
        require_positive(n_bound=n_bound)
    return _scan(spec, m, partial(_classify, n_bound))


# -- two-sided agreement report ----------------------------------------------


@dataclass(frozen=True, slots=True)
class CpReport:
    """Exhaustive right-versus-left agreement over M_m(Z_k), with every
    right witness fed through the conversion pipeline."""

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


_KINDS = {(True, True): "both", (True, False): "right_only",
          (False, True): "left_only", (False, False): "neither"}
_OUTCOMES = {sides: (*sides, None, None) for sides in _KINDS}  # shared: pickled once per chunk


def _sides(n: int, certify: bool, engine: _Engine, mat) -> tuple:
    """(right, left, A, failure): whether A has a right and a left witness
    at n; A as JSON if it has just one, else None; the failure of the
    certificate built on payload rows from its right witness if ``certify``."""
    low, high = engine.power_pair(mat, n)
    x = engine.solve(low, high)
    right, left = x is not None, engine.solve_left(low, high) is not None
    failure = None
    if certify and right:
        ring, a, x = engine.spec, engine.payload_rows(mat), engine.payload_rows(x)
        try:
            certificate_rows(ring, a, n, x, *instance_rows(ring, a, n, x))
        except PiregularError as exc:
            failure = {"A": matrix_to_json(engine.to_square(mat)),
                       "reason": f"{type(exc).__name__}: {exc}"}
    if right == left and failure is None:
        return _OUTCOMES[right, left]
    return right, left, matrix_to_json(engine.to_square(mat)) if right != left else None, failure


def _agreement(spec: RingSpec, m: int, n: int, certify: bool, workers: int = 1) -> tuple:
    """The fold of :func:`_sides` over M_m(spec): the ``_KINDS`` counts, the
    one-sided matrices and the certificate failures, in scan order."""
    require_positive(n=n)
    counts = dict.fromkeys(_KINDS.values(), 0)
    one_sided, failures = [], []
    for right, left, a, failure in _scan(spec, m, partial(_sides, n, certify), workers):
        counts[_KINDS[right, left]] += 1
        if a is not None:
            one_sided.append({"A": a, "right": right, "left": left})
        if failure is not None:
            failures.append(failure)
    return counts, one_sided, failures


def cp_report(k: int, m: int, n: int, workers: int = 1) -> CpReport:
    """Scan all of M_m(Z_k) at exponent n; the output is identical for any
    worker count, and ``workers`` in the report is the count used."""
    started = time.perf_counter()
    require_positive(n=n, dim=m)
    _check_exponent_budget(n, m)  # as every certificate would, but once and before the scan
    counts, counterexamples, failures = _agreement(IntegersMod(k), m, n, True, workers)
    total = sum(counts.values())
    return CpReport(modulus=k, dim=m, exponent=n, total=total, counts=counts,
                    counterexamples=counterexamples, pipeline_failures=failures,
                    pipeline_checked=counts["both"] + counts["right_only"],
                    wall_time_ms=int((time.perf_counter() - started) * 1000),
                    workers=_pool_size(workers, total))


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
    restates left strong pi-regularity, which is how the left search runs,
    so this is the two-sided agreement scan relabelled."""
    counts, one_sided, _ = _agreement(spec, m, n, False)
    return TransposeClosureReport(
        ring=spec, dim=m, exponent=n, total=sum(counts.values()),
        right_count=counts["both"] + counts["right_only"],
        mismatches=[{"A": c["A"], "right": c["right"], "transpose_right": c["left"]}
                    for c in one_sided])
