"""Exhaustive verification suites over finite coefficient rings.

Finite rings are compiled once into index tables (canonical element list
plus addition/multiplication tables), so a matrix over any ring tower is a
tuple of rows of small element indices, multiplied by the ``table`` kernels
of :mod:`piregular.rings`; over ``zmod:k`` they are its payload rows.  Every
exhaustive scan runs through one driver, :func:`_scan`: it checks every size
against the budget before an engine is built, then streams one per-matrix
function over each matrix in row-major order, or folds its results, on one
process or on forked ones that each keep the matrices whose {B, B^T} group
it owns, B = A^(n+1), so that each column map is built once; :func:`cp_report`
and the transpose check share one such function and one fold.  The report
certifies each right witness on payload rows with one call of the certificate
kernel of :mod:`piregular.witnesses`, compiled before the scan, and no wrapper
objects; a certificate the kernel fails is rerun there by the step path, whose
exception names the failure.

The right search finds the first X in row-major order with T = B X.
Column j of X only has to solve B v = t_j, t_j the j-th column of T, and
those constraints are independent, so per-column lexicographic minima give
exactly the witness a full scan over whole matrices would find first.
The solutions for one B form a column map, a ``str`` of ``chr`` of the code of
B v for every v, which share each row's sums over v's leading entries,
memoized per B and read by ``str.find``; distinct powers are few.  A
right witness solves A^n = A^(n+1) X.  A left witness, A^n = Y A^(n+1),
needs row i of Y to solve B^T y = (row i of T) over a commutative ring, so
the left search reads T's rows against the column map of B^T, found through
a second memo per B that holds the same maps; the rows of Y are scanned in
the same lexicographic order, so the tie-breaks agree.  Both searches and the
map are straight-line kernels generated per dimension next to the ``table``
product.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, product, repeat
from typing import Iterator, Optional

from .errors import BudgetExceeded, InternalViolation, PreconditionFailed
from .matrices import SquareMatrix, _require_commutative, matrix_to_json
from .rings import (DEFAULT_BUDGET, IntegersMod, RingSpec, _KERNELS, _Memo, binary_power,
                    require_positive)
from .witnesses import _certificate_kernel, _check_exponent_budget, _step_failure


def _size(spec: RingSpec, exponent: int, what: str) -> int:
    """q^exponent for a ring of q elements, or BudgetExceeded if that is more
    than DEFAULT_BUDGET; NotEnumerable if infinite.  A non-commutative ring is
    refused first: the left search reads transposed column maps, and the free
    algebra has no size."""
    _require_commutative(spec, "witness searches")
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
    ``solve(T, B)`` and ``solve_left(T, B)``, the first X with T = B X and the
    first Y with T = Y B, or None, are the ``table`` solve kernels bound alike;
    they read ``col_maps``, B's column map from the ``codes`` kernel, and
    ``left_maps``, B^T's.  A map is a ``str`` of one ``chr(code of B v)`` per
    vector v in lexicographic order, 1 byte a place up to 256 places, else 2 or
    4: as lists, the maps of one ``certify-mix`` benchmark job took its peak RSS
    from 27.8-28.1 to 33.4-34.8 MiB.  The ring must be commutative: the left
    search rests on (Y B)^T = B^T Y^T, and :func:`_size` refuses any other.
    """

    def __init__(self, spec: RingSpec, m: int):
        self.spec = spec
        self.m = m
        self.payloads = payloads = list(spec.payloads())
        self.q = len(payloads)
        self.index = index = {p: i for i, p in enumerate(payloads)}
        self.add = [[index[spec.p_add(a, b)] for b in payloads] for a in payloads]
        self.mul = [[index[spec.p_mul(a, b)] for b in payloads] for a in payloads]
        self.indices = range(self.q)
        self.vectors = list(product(self.indices, repeat=m))
        self.col_maps = _Memo(partial(_KERNELS["table", m, "codes"], self))  # base -> its map
        self.left_maps = _Memo(lambda base: self.col_maps[tuple(zip(*base))])  # of base^T
        self.mat_mul = partial(_KERNELS["table", m, "product"], self)
        self.solve = partial(_KERNELS["table", m, "solve"], self)
        self.solve_left = partial(_KERNELS["table", m, "solve_left"], self)
        self._plain = payloads == list(range(self.q))  # index rows are payload rows

    # -- index-matrix arithmetic ----------------------------------------------

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
        """(A^n, A^(n+1)) for n >= 1."""
        low = binary_power(mat, n, None, self.mat_mul)
        return low, self.mat_mul(low, mat)


_ENGINES: dict = {}  # (spec, m) -> its engine, for the last key asked for only


def _engine(spec: RingSpec, m: int) -> _Engine:
    """The cached engine.  Its tables hold q^2 entries (sums, products) and
    q^m entries (vectors, column maps); both must fit the budget.  Building
    one drops every other."""
    require_positive(dim=m)
    _size(spec, max(2, m), "table entries")
    key = (spec, m)
    if key not in _ENGINES:
        _ENGINES.clear()
        _ENGINES[key] = _Engine(spec, m)
    return _ENGINES[key]


def _pool_size(workers: int, total: int) -> int:
    """min(workers, usable CPUs), or 1 if that leaves under 4 matrices each or
    this platform cannot fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    used = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    return used if total >= 4 * used else 1


def _scan(spec: RingSpec, m: int, visit, workers: int = 1, fold=None):
    """``visit(engine, A)`` for every A in M_m(spec), in row-major order.

    Every size is checked and the engine built before this returns.  Without
    ``fold`` the results come lazily, on this process.  With it, this returns
    the parts ``fold(pairs)``, one per process, each over the ``(number,
    result)`` pairs, by row-major number, of the matrices that process kept.
    One process keeps every matrix.  On W (see :func:`_pool_size`), process w
    calls ``visit(engine, A, owns)`` on every A, where ``owns(B)`` says whether
    the pair {B, B^T} hashes to w, and keeps the results that are not None; a
    ``visit`` that keeps A only when ``owns`` holds for the base whose column
    maps (B's and B^T's) it reads builds each map in one process."""
    require_positive(dim=m, workers=workers)
    total = _size(spec, m * m, f"{m}x{m} matrices to scan")
    engine = _engine(spec, m)  # checked and built before any process forks
    results = map(partial(visit, engine), product(engine.vectors, repeat=m))
    if fold is None:
        return results
    workers = _pool_size(workers, total)
    if workers == 1:
        return [fold(enumerate(results))]
    return _pooled(partial(_part, engine, visit, fold, workers), workers)


def _part(engine: _Engine, visit, fold, workers: int, worker: int):
    owns = _Memo(lambda base: hash(min(base, tuple(zip(*base)))) % workers == worker)
    results = map(partial(visit, engine), product(engine.vectors, repeat=engine.m),
                  repeat(owns.__getitem__))
    return fold((number, result) for number, result in enumerate(results)
                if result is not None)


def _pooled(part, workers: int) -> list:
    """``[part(0), ..., part(workers - 1)]``: this process computes part 0 while
    ``fork`` children, which inherit the engine and the compiled kernels,
    compute the others, each sent back through a one-way pipe.  A child's
    exception is raised here with its type, a child that ends without sending
    its part is an InternalViolation, and no child outlives the call."""
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for worker in range(1, workers):
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_send, args=(part, worker, writer))
            child.start()
            writer.close()  # so that the reader sees the end if the child never writes
            children.append((child, reader))
        parts = [part(0)]
        for worker, (_, reader) in enumerate(children, 1):
            try:
                done, result = reader.recv()
            except EOFError:
                raise InternalViolation(
                    f"scan process {worker} of {workers} ended without sending its part") from None
            if not done:
                raise result
            parts.append(result)
        return parts
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()


def _send(part, worker: int, writer) -> None:
    try:
        result = True, part(worker)
    except Exception as exc:  # raised again in the parent
        result = False, exc
    writer.send(result)


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
_OUTCOMES = {sides: (*sides, None, None) for sides in _KINDS}  # shared: no tuple per matrix


def _sides(n: int, certify, engine: _Engine, mat, owns=None) -> Optional[tuple]:
    """(right, left, A, failure): whether A has a right and a left witness
    at n; A as JSON if it has just one, else None; the failure of the certificate
    built on payload rows from its right witness by ``certify``, the bound certificate
    kernel, unless it is None.  None if ``owns`` is given and false for A^(n+1), the
    base of both searches."""
    low, high = engine.power_pair(mat, n)
    if owns is not None and not owns(high):
        return None
    x = engine.solve(low, high)
    right, left = x is not None, engine.solve_left(low, high) is not None
    failure = None
    if certify is not None and right:
        a, x = engine.payload_rows(mat), engine.payload_rows(x)
        if not certify(a, x)[3]:
            failure = {"A": matrix_to_json(engine.to_square(mat)),
                       "reason": _step_failure(engine.spec, n, a, x)}
    if right == left and failure is None:
        return _OUTCOMES[right, left]
    return right, left, matrix_to_json(engine.to_square(mat)) if right != left else None, failure


def _fold(pairs) -> tuple:
    """The ``_KINDS`` counts of the ``(number, sides)`` pairs, and their one-sided
    matrices and certificate failures, each tagged with its number."""
    counts = dict.fromkeys(_KINDS.values(), 0)
    one_sided, failures = [], []
    for number, (right, left, a, failure) in pairs:
        counts[_KINDS[right, left]] += 1
        if a is not None:
            one_sided.append((number, {"A": a, "right": right, "left": left}))
        if failure is not None:
            failures.append((number, failure))
    return counts, one_sided, failures


def _agreement(spec: RingSpec, m: int, n: int, certify: bool, workers: int = 1) -> tuple:
    """The fold of :func:`_sides` over M_m(spec): the ``_KINDS`` counts, the
    one-sided matrices and the certificate failures, in scan order."""
    require_positive(n=n)
    kernel = None
    if certify:  # refuse first: a 12x12 kernel took 0.4 s to compile on a 2-core machine
        _check_exponent_budget(n, m)
        _size(spec, m * m, f"{m}x{m} matrices to scan")
        kernel = partial(_certificate_kernel(m, n), spec)  # compiled before the scan forks
    parts = _scan(spec, m, partial(_sides, n, kernel), workers, _fold)
    counts = {kind: sum(part[0][kind] for part in parts) for kind in _KINDS.values()}
    one_sided, failures = ([entry for _, entry in sorted(chain.from_iterable(
        part[i] for part in parts))] for i in (1, 2))
    return counts, one_sided, failures


def cp_report(k: int, m: int, n: int, workers: int = 1) -> CpReport:
    """Scan all of M_m(Z_k) at exponent n; the output is identical for any
    worker count, and ``workers`` in the report is the count used."""
    started = time.perf_counter()
    require_positive(n=n, dim=m)  # _agreement checks n * m before the scan
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
