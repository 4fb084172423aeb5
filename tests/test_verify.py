import json

import pytest

from circint import (
    LimitExceeded,
    UnsupportedLattice,
    cross_verify,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    lattice_cross_verify,
    lemma1_check,
    limits,
    orbit_partition,
)


def test_cross_verify_exhaustive_counts():
    rep = cross_verify(10, field_rationals())
    assert rep.cases_checked == 512
    assert rep.passed and rep.mode == "exhaustive" and rep.seed is None

    rep = cross_verify(8, field_gaussian())
    assert rep.cases_checked == 128
    assert rep.passed


def test_cross_verify_sampled_and_deterministic():
    first = cross_verify(30, field_quadratic(2), samples=200, seed=1)
    second = cross_verify(30, field_quadratic(2), samples=200, seed=1)
    assert first.cases_checked == 200 and first.passed
    assert first.to_json(include_elapsed=False) == second.to_json(include_elapsed=False)
    assert first.seed == 1 and first.mode == "sample"


def test_cross_verify_exhaustive_bound(monkeypatch):
    with pytest.raises(LimitExceeded):
        cross_verify(15, field_rationals())
    monkeypatch.setattr(limits, "EXHAUSTIVE_BOUND", 15)
    rep = cross_verify(15, field_rationals())
    assert rep.cases_checked == 1 << 14 and rep.passed


def test_cross_verify_argument_validation():
    with pytest.raises(ValueError):
        cross_verify(10, field_rationals(), samples=0)


def test_lemma1_small_cases():
    rep = lemma1_check(6, field_rationals())
    assert rep.passed
    assert rep.cases_checked == 18  # 3 blocks x 5 frequencies + 3 block pairs
    assert rep.mode == "lemma1" and rep.seed is None

    rep = lemma1_check(8, field_gaussian())
    assert rep.passed
    assert rep.cases_checked == 5 * 7 + 10


def test_lemma1_vacuous_for_full_cyclotomic():
    for n in (4, 9, 14):
        rep = lemma1_check(n, field_cyclotomic(n))
        assert rep.passed
        r = len(orbit_partition(n, field_cyclotomic(n)).blocks)
        assert rep.cases_checked == r * (n - 1) + r * (r - 1) // 2


def test_lattice_cross_verify():
    rep = lattice_cross_verify(12, field_rationals())
    assert rep.passed and rep.mode == "numeric" and rep.cases_checked == 2048
    rep = lattice_cross_verify(20, field_gaussian(), samples=50, seed=9)
    assert rep.passed and rep.seed == 9
    with pytest.raises(UnsupportedLattice):
        lattice_cross_verify(10, field_quadratic(2))


def test_report_json_shape():
    rep = cross_verify(6, field_rationals())
    doc = rep.to_json()
    assert list(doc.keys()) == ["n", "field", "mode", "cases", "mismatches", "seed", "elapsed_ms"]
    assert doc["mismatches"] == [] and doc["seed"] is None
    json.dumps(doc)
    slim = rep.to_json(include_elapsed=False)
    assert "elapsed_ms" not in slim
