"""Acceptance suite: one test per criterion, run with -v for per-criterion
pass/fail lines.  Every bound asserted here is the contract bound, not a
softened one; golden hashes freeze the exact JSON bytes of every report.
"""

import os
import random
import time

import pytest

from piregular import (
    Integers,
    IntegersMod,
    RightWitnessInstance,
    SquareMatrix,
    berkowitz_char_poly,
    canonical_dumps,
    check_identity_on_samples,
    classify_all,
    content_hash,
    cp_report,
    determinant,
    drazin_witness,
    edge_instances,
    emit_certificate,
    hash_lines,
    integer_instance,
    nc_normal_form,
    overlap_check,
    parse_matrix_literal,
    parse_ring_spec,
    power_sequence_index,
    right_evaluate_poly,
    right_to_left_certificate,
    right_witness_search,
    sampled_finite_instance,
    search_nonvanishing,
    shepherdson_demo,
    shepherdson_system,
    standard_identity,
    transpose_closure_check,
    verify_certificate,
)

from helpers import all_matrices, cofactor_det, matrix_polynomial, random_matrix
from test_freealg import random_poly

Z = Integers()
Z4 = IntegersMod(4)
Z6 = IntegersMod(6)
Z9 = IntegersMod(9)
Z12 = IntegersMod(12)
DUAL_Z3 = parse_ring_spec("quot:zmod:3:t^2")

GOLDEN = {
    "cp4": "a9ec82c062c61ce6409293f0650e9dc784f07b14fd44d9071e718d8f4d4f711c",
    "cp9": "f1504947f864711a362f577386c0c5576d504fd2bc95d0dbef4a8b34d5890e24",
    "cp16": "8dd4c0b5e3d4a560a2a792603be6195b340888214c4340340c71f8cc655866e2",
    "classify_z4_records": "fc3e3ed0f9d7abcfe9835695bde0b55af15741d584c29da6d62d35037a28fa2b",
    "identity_z6": "42131b859837a4c9e70f49cfe4fe311c731f9f1b6ba0977fa3372be2115bef75",
    "shepherdson": "7cdb3c513c7fa1403ff8138f6e29e96a16f62e98ac027e375654c7185daeeb27",
}


@pytest.fixture(scope="module")
def cp4():
    return cp_report(4, 2, 1, workers=1)


@pytest.fixture(scope="module")
def cp9():
    return cp_report(9, 2, 1, workers=1)


@pytest.fixture(scope="module")
def cp16():
    return cp_report(16, 2, 1, workers=1)


@pytest.fixture(scope="module")
def cp16_w8():
    return cp_report(16, 2, 1, workers=8)


def test_criterion_1_exhaustive_agreement_reproduction(cp4, cp9, cp16, cp16_w8):
    for report, total, limit_ms in [
        (cp4, 256, 1_000),
        (cp9, 6_561, 30_000),
        (cp16, 65_536, 600_000),
        (cp16_w8, 65_536, 120_000),
    ]:
        assert report.total == total
        assert report.counterexamples == []
        assert report.pipeline_failures == []
        assert report.counts["right_only"] == 0
        assert report.counts["left_only"] == 0
        assert report.wall_time_ms < limit_ms
    # the pool is capped at the CPUs this process may use
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert cp16_w8.workers == min(8, cpus)
    print("criterion 1: zero one-sided matrices over zmod 4/9/16, "
          f"times {cp4.wall_time_ms}/{cp9.wall_time_ms}/{cp16.wall_time_ms}"
          f"/{cp16_w8.wall_time_ms} ms")


def test_criterion_2_pipeline_totality():
    converted = 0
    for spec in (Z4, Z9):
        for a in all_matrices(spec, 2):
            index, _ = power_sequence_index(a)
            for n in range(1, max(index, 3) + 1):
                x = right_witness_search(a, n)
                if x is None:
                    continue
                cert = right_to_left_certificate(RightWitnessInstance(a, n, x))
                assert cert.verified
                assert verify_certificate(cert).ok
                converted += 1
    assert converted > 10_000
    print(f"criterion 2: {converted} certificates, zero failures")


def test_criterion_3_commuting_witness_suite():
    checked = 0

    def run(inst):
        nonlocal checked
        w = drazin_witness(inst.A, inst.X, inst.n)
        assert inst.A * w == w * inst.A
        assert inst.A ** inst.n == (inst.A ** (inst.n + 1)) * w
        assert inst.A ** inst.n == w * (inst.A ** (inst.n + 1))
        checked += 1

    for seed in range(10):
        for nil, unit in [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                          (0, 3), (1, 2), (2, 1), (3, 0)]:
            run(integer_instance(nil, unit, 100 * seed + nil * 10 + unit))
    for spec in (Z12, DUAL_Z3):
        for dim in (1, 2, 3):
            for seed in range(20):
                run(sampled_finite_instance(spec, dim, seed))
    assert checked >= 200
    print(f"criterion 3: {checked} instances, both identities exact")


def test_criterion_4_cayley_hamilton_and_determinant_trick():
    rng = random.Random(20260814)
    checked = 0
    for spec, bound in [(Z, 9), (Z12, None), (DUAL_Z3, None)]:
        for dim in (2, 3, 4):
            for _ in range(112):
                a = random_matrix(spec, dim, rng, bound)
                assert right_evaluate_poly(berkowitz_char_poly(a), a).is_zero
                checked += 1
    assert checked >= 1000

    instances = [integer_instance(1 + s % 3, 1 + s % 2, s) for s in range(10)]
    instances += [sampled_finite_instance(Z4, 2, s) for s in range(10)]
    instances += [sampled_finite_instance(Z9, 2, s) for s in range(5)]
    instances += edge_instances(Z4) + edge_instances(Z)
    for inst in instances:
        spec, dim, n = inst.A.ring, inst.A.dim, inst.n
        ident = SquareMatrix.identity(spec, dim)
        zero = SquareMatrix.zeros(spec, dim)
        f = matrix_polynomial([zero] * n + [ident, -inst.X])
        p = determinant(f)
        assert right_evaluate_poly(p, inst.A).is_zero
    print(f"criterion 4: chi_A(A) = 0 on {checked} samples; determinant "
          f"polynomial vanished on {len(instances)} instances")


def test_criterion_5_determinant_oracle_equivalence():
    rng = random.Random(5)
    per_ring = 0
    for spec, bound in [(Z, 9), (Z12, None), (DUAL_Z3, None)]:
        per_ring = 0
        for _ in range(500):
            dim = rng.randint(1, 4)
            a = random_matrix(spec, dim, rng, bound)
            assert determinant(a) == cofactor_det(a)
            per_ring += 1
        assert per_ring == 500
    pairs = 0
    for _ in range(500):
        spec, bound = ((Z, 5), (Z12, None), (DUAL_Z3, None))[pairs % 3]
        dim = rng.randint(1, 3)
        a = random_matrix(spec, dim, rng, bound)
        b = random_matrix(spec, dim, rng, bound)
        assert determinant(a * b) == determinant(a) * determinant(b)
        pairs += 1
    assert pairs == 500
    print("criterion 5: 500 oracle matches per ring, 500 multiplicative pairs")


def test_criterion_6_standard_identity_suite():
    rng = random.Random(6)
    for spec, bound in [(Z, 9), (Z6, None)]:
        for _ in range(500):
            mats = [random_matrix(spec, 2, rng, bound) for _ in range(4)]
            assert standard_identity(mats).is_zero
    for _ in range(50):
        mats = [random_matrix(Z4, 3, rng) for _ in range(6)]
        assert standard_identity(mats).is_zero
    started = time.perf_counter()
    witness = search_nonvanishing(Z, 2, 3)
    elapsed = time.perf_counter() - started
    assert witness is not None
    assert not standard_identity(witness).is_zero
    assert elapsed < 1.0
    print(f"criterion 6: s4/s6 vanished on 1050 tuples; s3 witness in "
          f"{elapsed * 1000:.0f} ms")


def test_criterion_7_one_sided_inverse_suite():
    report = shepherdson_demo()
    assert report.verified
    names = {check.name: check.holds for check in report.checks}
    assert names == {
        "product_is_identity": True,
        "reverse_product_is_not_identity": True,
        "left_annihilates_gap": True,
        "right_witness_exists": True,
        "no_left_witness": True,
    }
    assert overlap_check(shepherdson_system()) == []
    rng = random.Random(7)
    for _ in range(200):
        poly = random_poly(rng, max_terms=4, max_len=5)
        left = nc_normal_form(poly, strategy="leftmost")
        right = nc_normal_form(poly, strategy="rightmost")
        assert left == right
        assert nc_normal_form(left) == left
    print("criterion 7: all five quotient-ring identities and 200 "
          "confluence samples exact")


def test_criterion_8_transpose_closure_equivalence(cp4, cp9):
    for spec, report in ((Z4, cp4), (Z9, cp9)):
        closure = transpose_closure_check(spec, 2, 1)
        assert closure.holds
        assert closure.holds == (report.counterexamples == [])
        assert closure.right_count == \
            report.counts["both"] + report.counts["right_only"]
    print("criterion 8: transpose closure exhaustive over zmod 4 and 9, "
          "verdicts coincide with criterion 1")


def test_criterion_9_byte_deterministic_reports(cp4, cp9, cp16, cp16_w8):
    assert content_hash(cp4.to_json_payload()) == GOLDEN["cp4"]
    assert content_hash(cp9.to_json_payload()) == GOLDEN["cp9"]
    assert content_hash(cp16.to_json_payload()) == GOLDEN["cp16"]
    assert canonical_dumps(cp16.to_json_payload()) == \
        canonical_dumps(cp16_w8.to_json_payload())

    lines = [canonical_dumps(r.to_json_payload()) for r in classify_all(Z4, 2)]
    again = [canonical_dumps(r.to_json_payload()) for r in classify_all(Z4, 2)]
    assert lines == again
    assert hash_lines(lines) == GOLDEN["classify_z4_records"]

    report = check_identity_on_samples(Z6, 2, 4, samples=200, seed=20260814)
    assert report.hash() == GOLDEN["identity_z6"]

    assert content_hash(shepherdson_demo().to_json_payload()) == \
        GOLDEN["shepherdson"]

    a = parse_matrix_literal(Z4, "[[2,0],[0,1]]")
    cert = right_to_left_certificate(
        RightWitnessInstance(a, 2, SquareMatrix.identity(Z4, 2)))
    assert emit_certificate(cert) == emit_certificate(cert)
    print("criterion 9: all report hashes match their golden values, "
          "worker count invisible in bytes")
