import json
import multiprocessing
import random
import re
from functools import partial

import pytest

from piregular import (
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
    classify_all,
    cp_report,
    left_witness_search,
    parse_matrix_literal,
    parse_ring_spec,
    power_sequence_index,
    right_witness_search,
    transpose_closure_check,
)
from piregular import lab
from piregular.rings import DEFAULT_BUDGET

from helpers import (
    all_matrices,
    count_products,
    naive_col_map,
    naive_left_witness,
    naive_product,
    naive_right_witness,
    random_matrix,
)

Z4 = IntegersMod(4)
Z2 = IntegersMod(2)
Z5 = IntegersMod(5)
DUAL_Z2 = parse_ring_spec("quot:zmod:2:t^2")


def mat(text, spec=Z4):
    return parse_matrix_literal(spec, text)


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


@pytest.mark.parametrize("spec, m", [(Z4, 2), (DUAL_Z2, 2), (Z2, 3)])
def test_column_maps_match_the_enumeration_oracle(spec, m):
    # every base, unreachable targets (-1) included
    engine = lab._Engine(spec, m)
    for base in all_matrices(spec, m):
        assert list(engine._col_map(engine.from_square(base))) == naive_col_map(spec, base)


@pytest.mark.parametrize("token, slots, typecode", [
    ("zmod:181", 32761, "h"),  # q^m <= 32768: every vector code fits a short
    ("zmod:182", 33124, "i"),
])
def test_column_maps_switch_typecode_at_the_short_limit(token, slots, typecode):
    spec = parse_ring_spec(token)
    engine = lab._Engine(spec, 2)
    rng = random.Random(slots)
    # a singular base leaves targets unreachable and reaches others many times
    bases = [mat("[[1,2],[2,4]]", spec), *(random_matrix(spec, 2, rng) for _ in range(2))]
    for base in bases:
        table = engine._col_map(engine.from_square(base))
        assert (len(table), table.typecode) == (slots, typecode)
        assert list(table) == naive_col_map(spec, base)


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
    # m = 1 is the identity: a transpose must stay a matrix of rows, not an entry.
    engine = lab._Engine(Z5, m)
    rng = random.Random(m)
    for _ in range(20):
        a = random_matrix(Z5, m, rng)
        flat = engine.from_square(a)
        assert engine.transpose(flat) == engine.from_square(a.transpose())
        assert engine.to_square(engine.transpose(flat)) == a.transpose()


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
    pools = []  # [max_workers, chunk count] per pool

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size and chunk
        count and runs the chunks in this process, starting no worker."""

        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, starts, stops):
            starts = list(starts)
            pools[-1].append(len(starts))
            return map(fn, starts, stops)

    monkeypatch.setattr(lab, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(lab.os, "cpu_count", lambda: cpus)
    solo = canonical_dumps(cp_report(3, 2, 1, workers=1).to_json_payload())
    assert pools == []
    report = cp_report(3, 2, 1, workers=100000)
    assert report.workers == cpus
    assert pools == ([] if cpus == 1 else [[cpus, 4 * cpus]])
    assert canonical_dumps(report.to_json_payload()) == solo
    # under 4 matrices per process the scan runs serially and says so
    assert cp_report(2, 1, 1, workers=100000).workers == 1
    capsys.readouterr()
    assert dispatch(["cp-verify", "--k", "3", "--workers", "100000"]) == 0
    assert f"{cpus} worker(s)" in capsys.readouterr().err


def test_no_worker_outlives_a_pooled_scan(monkeypatch):
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = lab._scan(Z5, 2, partial(lab._sides, 1, False), workers=2)
    next(results)
    # the chunks stream from a live pool; closing the scan shuts it down
    assert multiprocessing.active_children() != []
    results.close()
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize("exponent, products",
                         [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_engine_power_uses_the_fewest_binary_products(exponent, products):
    engine = lab._Engine(Z5, 2)
    a = mat("[[1,2],[3,4]]", Z5)
    flat = engine.from_square(a)
    plain_mul = engine.mat_mul
    calls = []
    engine.mat_mul = lambda lhs, rhs: calls.append(1) or plain_mul(lhs, rhs)
    assert engine.to_square(engine.mat_pow(flat, exponent)) == a ** exponent
    assert len(calls) == products
    with pytest.raises(ValueError):
        engine.mat_pow(flat, -1)


def test_scans_compute_each_power_once(monkeypatch):
    # one power ladder per classified matrix, and one (A^n, A^(n+1)) pair
    # per scanned matrix shared by both search directions
    calls = []
    plain_mul = lab._Engine.mat_mul
    monkeypatch.setattr(lab._Engine, "mat_mul",
                        lambda self, lhs, rhs: calls.append(1) or plain_mul(self, lhs, rhs))
    assert sum(1 for _ in classify_all(Z4, 2)) == 256
    assert 0 < len(calls) <= 2048
    for scan in (lambda: cp_report(4, 2, 1, workers=1),
                 lambda: transpose_closure_check(Z4, 2, 1)):
        calls.clear()
        scan()
        assert len(calls) == 256


def test_agreeing_outcomes_share_one_result_tuple():
    # a chunk pickles each common result once when the scan shares it
    results = lab._walk_chunk(IntegersMod(4), 2, partial(lab._sides, 1, False), 0, 256)
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
    plain_solve_left = lab._Engine.solve_left
    monkeypatch.setattr(lab._Engine, "solve_left", lambda self, target, base: (
        None if target == self.ident else plain_solve_left(self, target, base)))
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
    plain_certificate = lab.certificate_rows
    identity = SquareMatrix.identity(Z4, 2)

    def certificate(ring, a, *rest):
        if a == identity.rows:
            raise InternalViolation("boom")
        return plain_certificate(ring, a, *rest)

    monkeypatch.setattr(lab, "certificate_rows", certificate)
    report = cp_report(4, 2, 1, workers=1)
    assert report.pipeline_failures == [
        {"A": IDENTITY_JSON, "reason": "InternalViolation: boom"}]
    assert report.counterexamples == []
    assert report.pipeline_checked == report.total - report.counts["neither"]
    assert not report.ok


def test_a_failed_instance_check_reaches_the_report(monkeypatch):
    plain_solve = lab._Engine.solve

    def solve(self, target, base, transposed=False):
        if target == base == self.ident and not transposed:
            return ((0, 0), (0, 0))  # A^2 X = 0, not A = I
        return plain_solve(self, target, base, transposed)

    monkeypatch.setattr(lab._Engine, "solve", solve)
    report = cp_report(4, 2, 1, workers=1)
    assert [failure["A"] for failure in report.pipeline_failures] == [IDENTITY_JSON]
    assert report.pipeline_failures[0]["reason"].startswith(
        "PreconditionFailed: A^1 != A^2*X")
    assert report.counterexamples == []
    assert not report.ok


# -- the scan's certificates on payload rows -------------------------------------


@pytest.mark.parametrize("k, m, n, per_certificate", [(4, 2, 1, 13), (4, 2, 2, 17), (2, 3, 1, 15)])
def test_scan_certificates_make_the_public_paths_products(monkeypatch, k, m, n, per_certificate):
    # The same products as RightWitnessInstance plus right_to_left_certificate
    # (13 for a 2x2 n = 1 instance), and none of a verification on top.
    calls = count_products(monkeypatch)
    report = cp_report(k, m, n, workers=1)
    assert report.ok and report.pipeline_checked > 0
    assert len(calls) == per_certificate * report.pipeline_checked


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
