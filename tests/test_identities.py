import random
import time
from math import factorial

import pytest

from piregular import (
    FREE,
    DegreeTooLarge,
    Integers,
    IntegersMod,
    InvalidBound,
    SpecMismatch,
    SquareMatrix,
    check_identity_on_samples,
    matrix_units,
    parse_ring_spec,
    search_nonvanishing,
    standard_identity,
)
from piregular import identities

from helpers import count_products, permutation_standard_identity, random_matrix

Z = Integers()
Z4 = IntegersMod(4)
Z6 = IntegersMod(6)


def units(spec, dim):
    return matrix_units(spec, dim)


def test_s2_is_the_commutator():
    rng = random.Random(1)
    for _ in range(20):
        a = random_matrix(Z, 2, rng, 9)
        b = random_matrix(Z, 2, rng, 9)
        assert standard_identity([a, b]) == a * b - b * a


def test_s2_vanishes_on_scalars():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(Z, 1, rng, 9)
        b = random_matrix(Z, 1, rng, 9)
        assert standard_identity([a, b]).is_zero


def test_s3_on_matrix_units_is_nonzero():
    e11, e12, e21, _ = units(Z, 2)
    value = standard_identity([e11, e12, e21])
    expected = SquareMatrix.from_rows(Z, [[2, 0], [0, 1]])  # 2 E11 + E22
    assert value == expected


def test_s4_on_matrix_units_vanishes():
    assert standard_identity(units(Z, 2)).is_zero


def test_matches_permutation_oracle():
    rng = random.Random(3)
    for token in ("int", "zmod:6", "quot:zmod:3:t^2", "poly:int:t"):
        spec = parse_ring_spec(token)
        for degree in range(1, 7):
            for dim in (1, 2, 3):
                mats = [random_matrix(spec, dim, rng, 3) for _ in range(degree)]
                assert standard_identity(mats) == permutation_standard_identity(mats), \
                    (token, degree, dim)


def test_matches_permutation_oracle_over_the_free_algebra():
    # Distinct noncommuting generators keep every product word apart, so
    # this pins the order s(H) s(S - H) and the sign of every permutation.
    gens = [SquareMatrix.from_rows(FREE, [[FREE.gen(letter)]]) for letter in "abcdwx"]
    for degree in range(1, 7):
        value = standard_identity(gens[:degree])
        assert value == permutation_standard_identity(gens[:degree])
        assert len(value.rows[0][0].terms()) == factorial(degree)


def test_product_counts_follow_the_subset_recurrence(monkeypatch):
    rng = random.Random(9)
    tuples = {degree: [random_matrix(Z4, 3, rng) for _ in range(degree)] for degree in (4, 6, 8)}
    calls = count_products(monkeypatch)
    for degree, most in ((4, 18), (6, 110), (8, 574)):
        calls.clear()
        assert standard_identity(tuples[degree]).is_zero == (degree >= 6)
        assert 0 < len(calls) <= most


def test_antisymmetry():
    rng = random.Random(4)
    for _ in range(15):
        mats = [random_matrix(Z, 2, rng, 5) for _ in range(4)]
        swapped = [mats[1], mats[0], mats[2], mats[3]]
        assert standard_identity(swapped) == -standard_identity(mats)


def test_repeated_argument_gives_zero():
    rng = random.Random(5)
    for _ in range(15):
        a = random_matrix(Z, 2, rng, 5)
        b = random_matrix(Z, 2, rng, 5)
        assert standard_identity([a, a, b]).is_zero
        assert standard_identity([a, b, a]).is_zero


def test_multilinearity():
    rng = random.Random(6)
    for _ in range(10):
        a, u, v, c = (random_matrix(Z, 2, rng, 5) for _ in range(4))
        left = standard_identity([a, u + v, c])
        assert left == standard_identity([a, u, c]) + standard_identity([a, v, c])


def test_amitsur_levitzki_sampled():
    rng = random.Random(7)
    for spec, bound in [(Z, 9), (Z6, None)]:
        for _ in range(40):
            mats = [random_matrix(spec, 2, rng, bound) for _ in range(4)]
            assert standard_identity(mats).is_zero
    for _ in range(5):
        mats = [random_matrix(Z4, 3, rng) for _ in range(6)]
        assert standard_identity(mats).is_zero


def test_amitsur_levitzki_on_4x4_is_sharp():
    # s_8 vanishes on M_4(Z_4); s_7 does not.
    assert check_identity_on_samples(Z4, 4, 8, samples=20, seed=11).all_vanish
    sharp = check_identity_on_samples(Z4, 4, 7, samples=20, seed=11)
    assert not sharp.all_vanish
    assert not standard_identity(sharp.witness).is_zero


def test_degree_and_spec_guards(monkeypatch):
    rng = random.Random(8)
    nine = [random_matrix(Z, 2, rng, 2) for _ in range(9)]
    with pytest.raises(DegreeTooLarge):
        standard_identity(nine)
    with pytest.raises(SpecMismatch):
        standard_identity([random_matrix(Z, 2, rng, 2), random_matrix(Z6, 2, rng)])
    with pytest.raises(DegreeTooLarge):
        standard_identity([])
    # the sampled check refuses a bad degree before drawing any matrix
    monkeypatch.setattr(identities, "_sample_matrix", None)
    for degree in (-1, 0, 9):
        with pytest.raises(DegreeTooLarge, match=f"got {degree}$"):
            check_identity_on_samples(Z, 2, degree, samples=5, seed=0)


def test_search_finds_s3_witness_quickly():
    started = time.perf_counter()
    found = search_nonvanishing(Z, 2, 3)
    elapsed = time.perf_counter() - started
    assert found is not None
    assert not standard_identity(found).is_zero
    e11, e12, e21, _ = units(Z, 2)
    assert found == (e11, e12, e21)
    assert elapsed < 1.0


def test_search_confirms_vanishing_degrees():
    assert search_nonvanishing(Z, 1, 2) is None
    assert search_nonvanishing(Z, 2, 4) is None
    # no units to search is not a vanishing identity
    for dim in (0, -2):
        with pytest.raises(InvalidBound):
            search_nonvanishing(Z, dim, 3)


def test_sampled_report_is_deterministic_and_honest():
    ok = check_identity_on_samples(Z6, 2, 4, samples=60, seed=5)
    assert ok.all_vanish and ok.witness is None
    again = check_identity_on_samples(Z6, 2, 4, samples=60, seed=5)
    assert ok.hash() == again.hash()

    sharp = check_identity_on_samples(Z, 2, 3, samples=60, seed=5, bound=9)
    assert not sharp.all_vanish
    assert sharp.witness is not None
    assert not standard_identity(sharp.witness).is_zero
    assert sharp.hash() != ok.hash()


def test_report_json_shape():
    report = check_identity_on_samples(Z6, 2, 4, samples=5, seed=1)
    payload = report.to_json_payload()
    assert payload["kind"] == "identity-report"
    assert payload["witness"] is None
    assert payload["ring"] == "zmod:6"
