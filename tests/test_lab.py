import ast
import json
import multiprocessing
import os
import random
import re
import sys
import time
from functools import partial
from itertools import product

import pytest

from piregular import (
    FREE,
    BudgetExceeded,
    Integers,
    InternalViolation,
    IntegersMod,
    InvalidBound,
    NonCommutativeRing,
    NotEnumerable,
    PreconditionFailed,
    RingSpec,
    SquareMatrix,
    canonical_dumps,
    check_identity_on_samples,
    classify_all,
    cp_report,
    left_witness_search,
    parse_matrix_literal,
    parse_ring_spec,
    power_sequence_index,
    right_witness_search,
    transpose_closure_check,
)
from piregular import lab, rings, witnesses
from piregular.rings import DEFAULT_BUDGET

from helpers import (
    all_matrices,
    count_products,
    naive_col_map,
    naive_left_witness,
    naive_product,
    naive_right_witness,
    random_matrix,
    reference_solve,
    reference_solve_left,
)

Z4 = IntegersMod(4)
Z2 = IntegersMod(2)
Z5 = IntegersMod(5)
Z9 = IntegersMod(9)
DUAL_Z2 = parse_ring_spec("quot:zmod:2:t^2")


def mat(text, spec=Z4):
    return parse_matrix_literal(spec, text)


def patch_certificate_verdict(monkeypatch, verdict):
    """Make each scan's certificate kernel keep its C, w and Y but return ``verdict(a)``."""
    def compiled(m, n):
        kernel = witnesses._certificate_kernel(m, n)
        return lambda spec, a, x: (*kernel(spec, a, x)[:3], verdict(a))
    monkeypatch.setattr(lab, "_certificate_kernel", compiled)


# -- witness searches ------------------------------------------------------------


def test_identity_has_unique_witness():
    ident = SquareMatrix.identity(Z4, 2)
    assert right_witness_search(ident, 1) == ident
    assert left_witness_search(ident, 1) == ident


def test_nilpotent_has_no_witness_at_one_but_at_two():
    nil = mat("[[0,1],[0,0]]")
    assert right_witness_search(nil, 1) is None
    assert left_witness_search(nil, 1) is None
    assert right_witness_search(nil, 2) == SquareMatrix.zeros(Z4, 2)
    assert left_witness_search(nil, 2) == SquareMatrix.zeros(Z4, 2)


def test_diag_example_witness():
    a = mat("[[2,0],[0,1]]")
    x = right_witness_search(a, 2)
    # the first witness in enumeration order leaves the free entries at zero
    assert x == mat("[[0,0],[0,1]]")
    assert a ** 2 == (a ** 3) * x


def test_search_agrees_with_naive_full_scan():
    rng = random.Random(271828)
    for spec in (Z2, IntegersMod(3), DUAL_Z2):
        for _ in range(12):
            a = random_matrix(spec, 2, rng)
            for n in (1, 2, 3):
                assert right_witness_search(a, n) == naive_right_witness(a, n)
                assert left_witness_search(a, n) == naive_left_witness(a, n)


def test_search_validates_inputs():
    ident = SquareMatrix.identity(Z4, 2)
    with pytest.raises(PreconditionFailed):
        right_witness_search(ident, 0)
    with pytest.raises(NotEnumerable):
        right_witness_search(SquareMatrix.identity(Integers(), 2), 1)


# -- power sequences ---------------------------------------------------------------


def test_power_sequence_examples():
    assert power_sequence_index(SquareMatrix.identity(Z4, 2)) == (1, 1)
    assert power_sequence_index(mat("[[0,1],[0,0]]")) == (2, 1)
    assert power_sequence_index(mat("[[2,0],[0,1]]")) == (2, 1)
    # unipotent over Z5 cycles with period 5 from the start
    assert power_sequence_index(mat("[[1,1],[0,1]]", Z5)) == (1, 5)


def test_power_sequence_matches_brute_force():
    rng = random.Random(5050)
    for spec in (Z4, DUAL_Z2):
        for _ in range(20):
            a = random_matrix(spec, 2, rng)
            index, cycle = power_sequence_index(a)
            powers = [a]
            for _ in range(index + 2 * cycle + 2):
                powers.append(powers[-1] * a)
            # exponents are 1-based: powers[e-1] = A^e
            assert powers[index - 1] == powers[index - 1 + cycle]
            if index > 1:
                assert powers[index - 2] != powers[index - 2 + cycle]


def test_every_matrix_is_right_sr_at_its_index():
    rng = random.Random(33)
    for _ in range(15):
        a = random_matrix(Z4, 2, rng)
        index, _ = power_sequence_index(a)
        assert right_witness_search(a, index) is not None


# -- classification -----------------------------------------------------------------


def test_classify_counts_and_nilpotent_record():
    records = list(classify_all(Z4, 2))
    assert len(records) == 256
    assert all(r.agrees for r in records)
    nil = mat("[[0,1],[0,0]]")
    record = next(r for r in records if r.A == nil)
    assert record.power_index == 2
    right_ns = {n for n, _ in record.right_witnesses}
    left_ns = {n for n, _ in record.left_witnesses}
    assert 1 not in right_ns and 1 not in left_ns
    assert 2 in right_ns and 2 in left_ns


def test_classify_stored_witnesses_hold():
    for record in classify_all(IntegersMod(3), 2):
        for n, x in record.right_witnesses:
            assert record.A ** n == (record.A ** (n + 1)) * x
        for n, y in record.left_witnesses:
            assert record.A ** n == y * (record.A ** (n + 1))


def test_classify_respects_explicit_bound():
    records = list(classify_all(Z4, 2, n_bound=1))
    assert all(all(n == 1 for n, _ in r.right_witnesses) for r in records)


def test_classify_record_serializes():
    record = next(iter(classify_all(Z2, 2)))
    line = canonical_dumps(record.to_json_payload())
    parsed = json.loads(line)
    assert parsed["A"] == [[0, 0], [0, 0]]
    assert parsed["agrees"] is True


@pytest.mark.parametrize("scan, too_large", [
    (lambda: transpose_closure_check(IntegersMod(3), 5, 1), "3^25 5x5 matrices"),
    (lambda: classify_all(IntegersMod(150), 3), "150^9 3x3 matrices"),
    (lambda: classify_all(IntegersMod(2000), 1), "2000^2 table entries"),
    (lambda: cp_report(5000, 1, 1), "5000^2 table entries"),
    (lambda: right_witness_search(SquareMatrix.identity(IntegersMod(150), 3), 1),
     "150^3 table entries"),
])
def test_oversized_scans_refuse_before_building_an_engine(scan, too_large):
    # q^(m^2) matrices, q^2 sum/product entries and q^m vectors all count
    before = dict(lab._ENGINES)
    with pytest.raises(BudgetExceeded, match=re.escape(too_large)):
        scan()
    assert lab._ENGINES == before


def test_the_engine_cache_keeps_only_the_last_ring_and_dimension(monkeypatch):
    # building an engine drops every other, whichever was used most
    monkeypatch.setattr(lab, "_ENGINES", {})
    for spec in (Z4, Z9, Z4):
        assert sum(1 for _ in classify_all(spec, 2)) == spec.modulus ** 4
    assert list(lab._ENGINES) == [(Z4, 2)]


def test_a_loop_of_searches_over_one_ring_builds_one_engine(monkeypatch):
    built, plain = [], lab._Engine
    monkeypatch.setattr(lab, "_ENGINES", {})
    monkeypatch.setattr(lab, "_Engine", lambda spec, m: built.append((spec, m)) or plain(spec, m))
    rng = random.Random(7)
    for _ in range(20):
        right_witness_search(random_matrix(Z9, 2, rng), 1)
    assert built == [(Z9, 2)]


def test_tables_exactly_at_the_budget_still_run(monkeypatch):
    monkeypatch.setattr(lab, "_ENGINES", {})  # drop the large tables afterwards
    report = cp_report(1024, 1, 1)  # 1024^2 == DEFAULT_BUDGET table entries
    assert report.total == 1024
    assert report.ok


@pytest.mark.parametrize("workers", [1, 2])
def test_scans_refuse_an_exponent_past_the_certificate_budget(workers, capsys):
    # n * dim bounds every certificate's p, so a scan past it is refused
    # before it starts, not reported as one pipeline failure per certificate
    from piregular.cli import dispatch
    assert cp_report(2, 1, DEFAULT_BUDGET, workers=workers).ok
    for m, n in [(1, DEFAULT_BUDGET + 1), (2, DEFAULT_BUDGET // 2 + 1)]:
        with pytest.raises(BudgetExceeded, match=f"exponent {n} times dimension {m}"):
            cp_report(2, m, n, workers=workers)
    capsys.readouterr()
    argv = ["cp-verify", "--k", "2", "--dim", "1", "--n", "2000000", "--workers", str(workers)]
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds budget" in err and "Traceback" not in err


def test_classify_walks_lazily(monkeypatch):
    calls = []
    plain_ladder = lab._Engine.ladder
    monkeypatch.setattr(lab._Engine, "ladder",
                        lambda self, mat: calls.append(1) or plain_ladder(self, mat))
    records = classify_all(Z4, 2)
    assert calls == []
    next(records)
    assert len(calls) == 1


def read_map(table) -> list:
    """The first vector code per target code, as the solves read a column map;
    -1 marks unreachable targets."""
    return [table.find(chr(code)) for code in range(len(table))]


@pytest.mark.parametrize("spec, m", [(Z4, 2), (DUAL_Z2, 2), (Z2, 3), (Z5, 1), (Z2, 4),
                                     (IntegersMod(3), 4)])
def test_column_maps_match_the_enumeration_oracle(spec, m):
    # every base, unreachable targets (-1) included; 100 drawn bases past 5000
    engine = lab._Engine(spec, m)
    rng = random.Random(m)
    bases = (all_matrices(spec, m) if engine.q ** (m * m) <= 5000
             else (random_matrix(spec, m, rng) for _ in range(100)))
    for base in bases:
        assert read_map(engine.col_maps[engine.from_square(base)]) == naive_col_map(spec, base)


@pytest.mark.parametrize("token, slots, width", [
    ("zmod:16", 256, 1),  # q^m <= 256: every vector code fits one byte
    ("zmod:17", 289, 2),
    ("zmod:256", 65536, 2),
    ("zmod:257", 66049, 4),
])
def test_column_maps_take_the_narrowest_storage(token, slots, width):
    spec = parse_ring_spec(token)
    engine = lab._Engine(spec, 2)
    # a singular base leaves targets unreachable and reaches others many times,
    # its largest code among them; a drawn base is most likely invertible
    for base in (mat("[[1,2],[2,4]]", spec), random_matrix(spec, 2, random.Random(slots))):
        table = engine.col_maps[engine.from_square(base)]
        assert len(table) == slots
        assert sys.getsizeof(table * 2) - sys.getsizeof(table) == slots * width  # bytes a place
        assert read_map(table) == naive_col_map(spec, base)


def test_every_vector_code_fits_a_character():
    # a map holds chr(code) for codes below q^m, which the budget keeps at most
    # DEFAULT_BUDGET
    assert DEFAULT_BUDGET - 1 <= sys.maxunicode


def solves_agree(engine, a, n):
    """Both generated solves on A^n and A^(n+1) against the loop they replace;
    returns the right witness, or None."""
    low, high = engine.power_pair(a, n)
    x = engine.solve(low, high)
    assert x == reference_solve(engine, low, high)
    assert engine.solve_left(low, high) == reference_solve_left(engine, low, high)
    return x


@pytest.mark.parametrize("token, m", [("zmod:6", 2), ("quot:zmod:3:t^2", 2), ("zmod:2", 3)])
def test_generated_solves_match_the_loop_on_every_matrix(token, m):
    engine = lab._Engine(parse_ring_spec(token), m)
    found = 0
    for a in product(engine.vectors, repeat=m):
        for n in (1, 2):
            found += solves_agree(engine, a, n) is not None
    assert 0 < found < 2 * engine.q ** (m * m)  # both outcomes are reached


@pytest.mark.parametrize("token, m", [("zmod:6", 1), ("quot:zmod:3:t^2", 1), ("zmod:2", 4),
                                      ("zmod:3", 4)])
def test_generated_solves_match_the_loop_on_a_sample(token, m):
    engine = lab._Engine(parse_ring_spec(token), m)
    rng = random.Random(m)
    for _ in range(300):
        a = tuple(tuple(rng.randrange(engine.q) for _ in range(m)) for _ in range(m))
        for n in (1, 2):
            solves_agree(engine, a, n)


@pytest.mark.parametrize("spec, m", [(IntegersMod(6), 2), (DUAL_Z2, 2), (Z2, 3)])
def test_generated_solves_match_the_naive_witnesses(spec, m):
    engine = lab._engine(spec, m)
    rng = random.Random(m)
    for _ in range(6):
        a = random_matrix(spec, m, rng)
        low, high = engine.power_pair(engine.from_square(a), 1)
        for solve, naive in ((engine.solve, naive_right_witness),
                             (engine.solve_left, naive_left_witness)):
            found = solve(low, high)
            assert (found and engine.to_square(found)) == naive(a, 1)


def test_a_second_left_solve_on_a_base_builds_no_map(monkeypatch):
    engine = lab._Engine(Z4, 2)
    built = []
    plain = engine.col_maps.compute
    monkeypatch.setattr(engine.col_maps, "compute", lambda base: built.append(base) or plain(base))
    base = ((1, 2), (3, 0))
    engine.solve_left(((1, 0), (0, 1)), base)
    assert built == [((1, 3), (2, 0))]  # the transpose's map, built once
    engine.solve_left(((2, 1), (0, 3)), base)
    engine.solve(((2, 1), (0, 3)), ((1, 3), (2, 0)))  # the right search shares it
    assert len(built) == 1
    # a symmetric base's left map is its own column map
    symmetric = ((1, 2), (2, 3))
    assert engine.left_maps[symmetric] is engine.col_maps[symmetric] and len(built) == 2


@pytest.mark.parametrize("token, m", [
    *((token, m) for token in ("zmod:9", "quot:zmod:3:t^2") for m in (1, 2, 3, 4)),
    # above rings._KERNEL_CAP no payload kernel exists, only the table kernel
    *(("zmod:2", m) for m in (1, 2, 3, 4, 8, 9, 12)),
])
def test_engine_product_matches_the_naive_product(token, m):
    spec = parse_ring_spec(token)
    engine = lab._Engine(spec, m)
    rng = random.Random(m)
    for _ in range(4):
        a, b = random_matrix(spec, m, rng), random_matrix(spec, m, rng)
        got = engine.to_square(engine.mat_mul(engine.from_square(a), engine.from_square(b)))
        assert [list(row) for row in got.entries] == naive_product(spec, a.entries, b.entries)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_engine_transpose_matches_square_matrix(m):
    # the left search reads the column map of the base's transpose, the very map
    # the right search keeps for it; m = 1 is the identity: a transpose must stay
    # a matrix of rows, not an entry.
    engine = lab._Engine(Z5, m)
    rng = random.Random(m)
    for _ in range(20):
        a = random_matrix(Z5, m, rng)
        flat = engine.from_square(a)
        assert engine.left_maps[flat] is engine.col_maps[engine.from_square(a.transpose())]


# -- the agreement report -------------------------------------------------------------


def test_cp_report_small_case_matches_naive_counts():
    report = cp_report(2, 2, 1, workers=1)
    assert report.total == 16
    both = right_only = left_only = neither = 0
    from helpers import all_matrices
    for a in all_matrices(Z2, 2):
        r = naive_right_witness(a, 1) is not None
        l = naive_left_witness(a, 1) is not None
        both += r and l
        right_only += r and not l
        left_only += l and not r
        neither += not r and not l
    assert report.counts == {"both": both, "right_only": right_only,
                             "left_only": left_only, "neither": neither}
    assert report.counterexamples == []
    assert report.pipeline_failures == []
    assert report.pipeline_checked == both + right_only


def test_cp_report_deterministic_across_workers():
    solo = cp_report(3, 2, 1, workers=1)
    duo = cp_report(3, 2, 1, workers=2)
    assert solo.to_json_payload() == duo.to_json_payload()
    assert canonical_dumps(solo.to_json_payload()) == canonical_dumps(duo.to_json_payload())


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, capsys, cpus):
    from piregular.cli import dispatch
    pools = []  # the process count of each pooled scan

    def recording_pool(part, workers):
        """Stands in for lab._pooled: records its size and computes every part
        in this process, starting no child."""
        pools.append(workers)
        return [part(worker) for worker in range(workers)]

    monkeypatch.setattr(lab, "_pooled", recording_pool)
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(lab.os, "cpu_count", lambda: cpus)
    solo = canonical_dumps(cp_report(3, 2, 1, workers=1).to_json_payload())
    assert pools == []
    report = cp_report(3, 2, 1, workers=100000)
    assert report.workers == cpus
    assert pools == ([] if cpus == 1 else [cpus])
    assert canonical_dumps(report.to_json_payload()) == solo
    # under 4 matrices per process the scan runs serially and says so
    assert cp_report(2, 1, 1, workers=100000).workers == 1
    capsys.readouterr()
    assert dispatch(["cp-verify", "--k", "3", "--workers", "100000"]) == 0
    assert f"{cpus} worker(s)" in capsys.readouterr().err


def test_no_worker_outlives_a_pooled_scan(monkeypatch):
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parts = lab._scan(Z5, 2, partial(lab._sides, 1, None), 2,
                      lambda pairs: (os.getpid(), sum(1 for _ in pairs)))
    # this process folds part 0 and a forked child part 1; both are joined on return
    assert parts[0][0] == os.getpid() != parts[1][0]
    assert parts[0][1] + parts[1][1] == 625
    assert multiprocessing.active_children() == []


def failing_visit(parent: int, in_parent, in_child, engine, mat, owns=None):
    """A scan visit that calls ``in_parent`` in process ``parent`` and ``in_child``
    in a forked child, and keeps nothing."""
    (in_parent if os.getpid() == parent else in_child)()


def leave_silently():
    os._exit(0)


def raise_budget():
    raise BudgetExceeded("raised in a scan process")


@pytest.mark.parametrize("fail, error, message", [
    (raise_budget, BudgetExceeded, "raised in a scan process"),  # re-raised with its type
    (leave_silently, InternalViolation, "scan process 1 of 2 ended without sending its part"),
])
def test_a_failing_child_fails_the_scan_and_leaves_no_process(monkeypatch, fail, error, message):
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)
    with pytest.raises(error, match=message) as caught:
        lab._scan(Z5, 2, partial(failing_visit, os.getpid(), lambda: None, fail), 2, list)
    assert caught.value.exit_code == error.exit_code
    assert multiprocessing.active_children() == []


def test_a_failing_parent_stops_its_children(monkeypatch):
    # each child would sleep 2 ms on each of 625 matrices, 1.25 s in all; the
    # parent fails at once and stops them
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        lab._scan(Z5, 2, partial(failing_visit, os.getpid(), raise_budget,
                                 partial(time.sleep, 0.002)), 3, list)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - start < 0.6


def test_a_platform_without_fork_scans_on_one_process(monkeypatch):
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(lab.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert lab._pool_size(3, 10 ** 6) == 1
    assert cp_report(3, 2, 1, workers=3).workers == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pooled_scan_builds_each_column_map_in_one_process(monkeypatch, tmp_path, workers):
    # each process logs the bases of the maps it holds after its part, on an
    # engine built for this scan, so that no map is inherited
    log, plain = tmp_path / "maps", lab._part

    def logged(engine, *args):
        part = plain(engine, *args)
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {list(engine.col_maps)}\n")
        return part

    monkeypatch.setattr(lab, "_part", logged)
    monkeypatch.setattr(lab, "_ENGINES", {})
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)
    assert cp_report(9, 2, 1, workers=workers).workers == workers
    held = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert len({pid for pid, _ in held}) == workers
    bases = [base for _, maps in held for base in ast.literal_eval(maps)]
    monkeypatch.setattr(lab, "_ENGINES", {})
    cp_report(9, 2, 1, workers=1)
    serial = lab._engine(Z9, 2).col_maps
    assert len(bases) == len(set(bases)) == len(serial) == 1587
    assert set(bases) == set(serial)


@pytest.mark.parametrize("args", [(4, 2, 1), (3, 2, 2), (2, 3, 1), (9, 2, 1)])
def test_pooled_reports_are_the_one_process_bytes(monkeypatch, args):
    solo = canonical_dumps(cp_report(*args, workers=1).to_json_payload())
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)
    for workers in (2, 3):
        report = cp_report(*args, workers=workers)
        assert report.workers == workers
        assert canonical_dumps(report.to_json_payload()) == solo


def test_pooled_parts_merge_in_scan_order(monkeypatch):
    # one-sided matrices and failures come from every process, merged by number
    engine = lab._engine(Z4, 2)  # the scans below run on this cached engine, forked too
    plain_solve_left = engine.solve_left
    monkeypatch.setattr(engine, "solve_left", lambda target, base: (
        None if target[0][0] == 1 else plain_solve_left(target, base)))
    patch_certificate_verdict(monkeypatch, lambda a: a[1][1] != 2)
    solo = cp_report(4, 2, 1, workers=1).to_json_payload()
    assert len(solo["counterexamples"]) > 20 and len(solo["pipeline"]["failures"]) > 20
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)
    for workers in (2, 3):
        assert cp_report(4, 2, 1, workers=workers).to_json_payload() == solo


def test_cp_report_payload_excludes_timing():
    report = cp_report(2, 2, 1, workers=1)
    payload = report.to_json_payload()
    assert "wall_time_ms" not in canonical_dumps(payload)
    assert report.wall_time_ms >= 0
    assert payload["total"] == 2 ** 4


# -- transpose closure ------------------------------------------------------------------


def test_transpose_closure_holds_on_z4():
    report = transpose_closure_check(Z4, 2, 1)
    assert report.holds
    assert report.mismatches == []
    assert report.total == 256
    # symmetric matrices make the check trivially true; count a known one
    assert right_witness_search(mat("[[2,0],[0,1]]"), 1) is None
    nil = mat("[[0,1],[0,0]]")
    assert right_witness_search(nil, 1) is None
    assert right_witness_search(nil.transpose(), 1) is None


def test_transpose_closure_matches_naive_oracle_over_dual_numbers():
    report = transpose_closure_check(DUAL_Z2, 2, 1)
    rights = [naive_right_witness(a, 1) is not None for a in all_matrices(DUAL_Z2, 2)]
    transposed = [naive_right_witness(a.transpose(), 1) is not None
                  for a in all_matrices(DUAL_Z2, 2)]
    assert report.total == len(rights) == 256
    assert report.right_count == sum(rights) == 145
    assert rights == transposed
    assert report.holds


@pytest.mark.parametrize("m, n", [(1, -1), (1, 0), (0, 1), (-1, 1)])
def test_transpose_closure_rejects_non_positive_sizes(m, n):
    # n = -1 used to spin forever in the engine's matrix power
    with pytest.raises(InvalidBound):
        transpose_closure_check(Z2, m, n)


@pytest.mark.parametrize("exponent, products", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4)])
def test_engine_power_uses_the_fewest_binary_products(exponent, products):
    # binary powering for A^n, then one product for A^(n+1)
    engine = lab._Engine(Z5, 2)
    a = mat("[[1,2],[3,4]]", Z5)
    flat = engine.from_square(a)
    plain_mul = engine.mat_mul
    calls = []
    engine.mat_mul = lambda lhs, rhs: calls.append(1) or plain_mul(lhs, rhs)
    low, high = engine.power_pair(flat, exponent)
    assert (engine.to_square(low), engine.to_square(high)) == (a ** exponent, a ** (exponent + 1))
    assert len(calls) == products
    with pytest.raises(ValueError):
        engine.power_pair(flat, -1)


def test_scans_compute_each_power_once(monkeypatch):
    # one power ladder per classified matrix, and one (A^n, A^(n+1)) pair
    # per scanned matrix shared by both search directions
    calls = []
    engine = lab._engine(Z4, 2)  # the scans below run on this cached engine
    plain_mul = engine.mat_mul
    monkeypatch.setattr(engine, "mat_mul", lambda lhs, rhs: calls.append(1) or plain_mul(lhs, rhs))
    assert sum(1 for _ in classify_all(Z4, 2)) == 256
    assert 0 < len(calls) <= 2048
    for scan in (lambda: cp_report(4, 2, 1, workers=1),
                 lambda: transpose_closure_check(Z4, 2, 1)):
        calls.clear()
        scan()
        assert len(calls) == 256


def test_agreeing_outcomes_share_one_result_tuple():
    # the scan shares each common result, so an agreeing matrix makes no tuple
    results = list(lab._scan(IntegersMod(4), 2, partial(lab._sides, 1, None)))
    agreeing = [r for r in results if r[0] == r[1]]
    assert len(agreeing) == 256  # Z_4 is commutative: no matrix is one-sided
    assert len({id(r) for r in agreeing}) == len({r[:2] for r in agreeing}) == 2


def test_transpose_closure_agrees_with_cp_verdict():
    cp = cp_report(4, 2, 1, workers=1)
    tc = transpose_closure_check(Z4, 2, 1)
    assert tc.holds == (cp.counterexamples == [])
    assert tc.right_count == cp.counts["both"] + cp.counts["right_only"]
    payload = tc.to_json_payload()
    assert payload["kind"] == "transpose-closure"
    assert payload["holds"] is True


# -- fold paths that no scan over a commutative ring reaches -----------------------------

IDENTITY_JSON = [[1, 0], [0, 1]]


def test_a_one_sided_matrix_reaches_both_reports_and_the_exit_code(monkeypatch, capsys):
    from piregular.cli import dispatch
    engine = lab._engine(Z4, 2)  # the scans below run on this cached engine
    plain_solve_left = engine.solve_left
    identity = engine.from_square(SquareMatrix.identity(Z4, 2))
    monkeypatch.setattr(engine, "solve_left", lambda target, base: (
        None if target == identity else plain_solve_left(target, base)))
    report = cp_report(4, 2, 1, workers=1)
    assert (report.counts["right_only"], report.counts["left_only"]) == (1, 0)
    assert report.counterexamples == [{"A": IDENTITY_JSON, "right": True, "left": False}]
    assert not report.ok
    closure = transpose_closure_check(Z4, 2, 1)
    assert closure.mismatches == [
        {"A": IDENTITY_JSON, "right": True, "transpose_right": False}]
    assert not closure.holds
    assert dispatch(["cp-verify", "--k", "4"]) == 1
    capsys.readouterr()


def test_a_certificate_failure_reaches_the_report(monkeypatch):
    # the kernel fails the identity's certificate, so the step path reruns it and
    # its certificate_rows names the failure
    plain_certificate = witnesses.certificate_rows
    identity = SquareMatrix.identity(Z4, 2)

    def certificate(x, powers, ax):
        if powers.a == identity.rows:
            raise InternalViolation("boom")
        return plain_certificate(x, powers, ax)

    patch_certificate_verdict(monkeypatch, lambda a: a != identity.rows)
    monkeypatch.setattr(witnesses, "certificate_rows", certificate)
    report = cp_report(4, 2, 1, workers=1)
    assert report.pipeline_failures == [
        {"A": IDENTITY_JSON, "reason": "InternalViolation: boom"}]
    assert report.counterexamples == []
    assert report.pipeline_checked == report.total - report.counts["neither"]
    assert not report.ok


def test_a_failed_instance_check_reaches_the_report(monkeypatch):
    engine = lab._engine(Z4, 2)  # the scan below runs on this cached engine
    plain_solve = engine.solve
    identity = engine.from_square(SquareMatrix.identity(Z4, 2))

    def solve(target, base):
        if target == base == identity:
            return ((0, 0), (0, 0))  # A^2 X = 0, not A = I
        return plain_solve(target, base)

    monkeypatch.setattr(engine, "solve", solve)
    report = cp_report(4, 2, 1, workers=1)
    assert [failure["A"] for failure in report.pipeline_failures] == [IDENTITY_JSON]
    assert report.pipeline_failures[0]["reason"].startswith(
        "PreconditionFailed: A^1 != A^2*X")
    assert report.counterexamples == []
    assert not report.ok


# -- the scan's certificates on payload rows -------------------------------------


@pytest.mark.parametrize("k, m, n, per_certificate", [(4, 2, 1, 13), (4, 2, 2, 17), (2, 3, 1, 15)])
def test_scan_certificates_make_the_public_paths_products(monkeypatch, k, m, n, per_certificate):
    # A passing certificate is one kernel call and makes no bound product.  A
    # certificate the kernel fails is rerun by the step path, with the products of
    # RightWitnessInstance plus right_to_left_certificate (13 for a 2x2 n = 1
    # instance) and none of a verification on top; here the step path passes
    # each, so the scan records each disagreement.
    calls = count_products(monkeypatch)
    report = cp_report(k, m, n, workers=1)
    assert report.ok and report.pipeline_checked > 0 and calls == []
    patch_certificate_verdict(monkeypatch, lambda a: False)
    report = cp_report(k, m, n, workers=1)
    assert len(calls) == per_certificate * report.pipeline_checked
    assert len(report.pipeline_failures) == report.pipeline_checked
    assert {failure["reason"] for failure in report.pipeline_failures} == {
        "InternalViolation: the certificate kernel fails a certificate the step path passes"}


class _Solving:
    """An engine whose right search returns ``x`` whatever it is asked."""

    def __init__(self, engine, x):
        self.engine, self.x = engine, x

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def solve(self, low, high):
        return self.x


@pytest.mark.parametrize("k, m", [(4, 2), (6, 2), (9, 2), (2, 3), (12, 1), (2, 4)])
@pytest.mark.parametrize("n", [1, 2])
def test_the_certificate_kernel_agrees_with_the_step_path(k, m, n):
    # every matrix with a right witness, or 500 seeded ones past 6561 matrices: the
    # kernel's C (so its generated q), w, Y and verdict are the step path's; the
    # witness with one entry moved by 1, where that breaks A^n = A^(n+1) X, fails in
    # the kernel and the scan names it as the step path does
    spec = IntegersMod(k)
    certify, engine = partial(witnesses._certificate_kernel(m, n), spec), lab._engine(spec, m)
    matrices = list(product(engine.vectors, repeat=m))
    if len(matrices) > 6561:
        matrices = random.Random(f"{k}/{m}/{n}").sample(matrices, 500)
    broken = 0
    for number, a in enumerate(matrices):
        low, high = engine.power_pair(a, n)
        x = engine.solve(low, high)
        if x is None:
            continue
        _, c, _, w, y, _ = witnesses.certificate_rows(x, *witnesses.instance_rows(spec, n, a, x))
        assert certify(a, x) == (c, w, y, True)
        moved = divmod(number % (m * m), m)  # a different entry from matrix to matrix
        x = tuple(tuple((e + ((i, j) == moved)) % k for j, e in enumerate(row))
                  for i, row in enumerate(x))
        if low == spec.p_matmul(high, x):
            continue
        broken += 1
        assert certify(a, x) == (None, None, None, False)
        failure = lab._sides(n, certify, _Solving(engine, x), a)[3]
        assert failure["reason"] == (
            f"PreconditionFailed: A^{n} != A^{n + 1}*X: not a right witness instance")
    assert broken > 0


def test_the_scan_kernel_is_compiled_once_before_the_pool_forks(monkeypatch, tmp_path):
    # every kernel a scan binds is compiled in the parent, so the forked workers
    # inherit them and compile none: each compile is logged with its process id
    log, plain = tmp_path / "compiles", rings._compile

    def logged(source, filename):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {filename}\n")
        return plain(source, filename)

    monkeypatch.setattr(rings, "_compile", logged)
    kernels = rings._Memo(rings._product_kernel)  # a cold cache, so that the parent compiles
    for module in (rings, lab):
        monkeypatch.setattr(module, "_KERNELS", kernels)
    monkeypatch.setattr(lab, "_ENGINES", {})
    monkeypatch.setattr(lab, "_pool_size", lambda workers, total: workers)  # a pool on any machine
    report = cp_report(9, 2, 1, workers=2)
    assert report.ok and report.workers == 2
    compiles = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert {pid for pid, _ in compiles} == {str(os.getpid())}
    assert [name for _, name in compiles].count("<2x2 residue certificate n=1>") == 1


def test_no_cache_keeps_a_certificate_kernel_whatever_a_process_scans():
    # a scan compiles its certificate kernel and holds it alone, so a loop over
    # exponents leaves the kernel cache its finite set of string kinds, and a
    # kernel bound before the loop still certifies
    live = partial(witnesses._certificate_kernel(2, 1), Z4)
    for n in range(1, 51):
        assert cp_report(2, 2, n).ok
    assert cp_report(2, 1, 3).ok
    assert all(type(kind) is str for _, _, kind in rings._KERNELS)
    a = ((1, 2), (0, 1))  # A^2 = I over Z_4, so X = A
    _, c, _, w, y, _ = witnesses.certificate_rows(a, *witnesses.instance_rows(Z4, 1, a, a))
    assert live(a, a) == (c, w, y, True)


@pytest.mark.parametrize("argv, refusal", [
    (["--k", "2", "--dim", "2", "--n", "1048577"], "exponent 1048577 times dimension 2"),
    (["--k", "2", "--dim", "12"], "2^144 12x12 matrices to scan"),
])
def test_cp_verify_refuses_before_compiling_or_building_anything(monkeypatch, capsys,
                                                                 argv, refusal):
    # the exponent budget, then the scan's size, are read before its certificate
    # kernel is compiled (0.4 s at 12x12 on a 2-core machine) and before its engine is built
    from piregular.cli import dispatch
    compiles = []
    monkeypatch.setattr(rings, "_compile", lambda *args: compiles.append(args))
    monkeypatch.setattr(lab, "_ENGINES", {})
    assert dispatch(["cp-verify", *argv]) == 2
    assert refusal in capsys.readouterr().err
    assert compiles == [] and lab._ENGINES == {}


def test_the_largest_admitted_exponent_keeps_the_kernel_small():
    # the kernel's power chains are log2(n * dim) products deep, so even the largest
    # n the budget admits compiles and scans M_2(Z_2) at once
    n = DEFAULT_BUDGET // 2
    start = time.perf_counter()
    report = cp_report(2, 2, n)
    assert time.perf_counter() - start < 2.0
    assert report.ok and report.pipeline_checked == 16


@pytest.mark.parametrize("token", ["zmod:9", "quot:zmod:3:t^2", "zmod:2"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_engine_payload_rows_are_the_matrix_rows(token, m):
    spec, rng = parse_ring_spec(token), random.Random(f"{token}/{m}")
    engine = lab._engine(spec, m)
    for _ in range(20):
        a = random_matrix(spec, m, rng)
        rows = engine.from_square(a)
        assert engine.to_square(rows) == a
        assert engine.payload_rows(rows) == a.rows
        # zmod:k payloads are the indices 0..k-1, so no translation is made
        assert (engine.payload_rows(rows) is rows) == token.startswith("zmod:")


class NoncommutativeStub(RingSpec):
    """Two elements declared noncommutative: enough to reach the engine."""

    commutative = False

    def cardinality(self):
        return 2

    def payloads(self):
        return (0, 1)

    def token(self):
        return "noncommutative-stub"


def test_engines_refuse_noncommutative_rings(monkeypatch):
    monkeypatch.setattr(lab, "_ENGINES", {})
    stub = NoncommutativeStub()
    for build in (lambda: lab._engine(stub, 2), lambda: classify_all(stub, 2),
                  lambda: transpose_closure_check(stub, 2, 1)):
        with pytest.raises(NonCommutativeRing):
            build()
    assert lab._ENGINES == {}


def test_the_free_algebra_is_refused_before_any_size(monkeypatch):
    # it has no cardinality and no sampler: each call refuses it up front, exit 2
    monkeypatch.setattr(lab, "_ENGINES", {})
    a = SquareMatrix.from_rows(FREE, [[FREE.gen("a"), 0], [0, 1]])
    for call in (lambda: right_witness_search(a, 1), lambda: left_witness_search(a, 1),
                 lambda: power_sequence_index(a), lambda: classify_all(FREE, 2),
                 lambda: transpose_closure_check(FREE, 2, 1),
                 lambda: check_identity_on_samples(FREE, 2, 4, samples=1, seed=0)):
        with pytest.raises(NonCommutativeRing) as caught:
            call()
        assert caught.value.exit_code == 2
    assert lab._ENGINES == {}
