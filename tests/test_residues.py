from math import gcd

import pytest
from hypothesis import given, strategies as st

from circint import (
    CirculantSpec,
    DegenerateOrder,
    LimitExceeded,
    NotAUnit,
    UnitSubgroup,
    euler_phi,
    field_rationals,
    galois_subgroup_mod,
    is_integral,
    oracle_is_integral,
    parse_field,
    proper_divisors,
    subgroup_closure,
)
from cyc_helpers import reference_units


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (8, 4), (12, 4), (7, 6), (100, 40)])
def test_euler_phi_values(n, expected):
    assert euler_phi(n) == expected


def test_units_mod_values():
    # the unit group mod n is the Galois subgroup of the rationals at n
    def units(n):
        return galois_subgroup_mod(field_rationals(), n)

    assert units(8).elements == (1, 3, 5, 7)
    assert units(7).elements == (1, 2, 3, 4, 5, 6)
    assert units(12).elements == (1, 5, 7, 11)
    assert units(1).elements == (0,)
    assert units(1).modulus == 1
    for n in (1, 8, 7, 12):
        assert units(n) == reference_units(n)
    with pytest.raises(DegenerateOrder):
        units(0)


def test_subgroup_closure_examples():
    # 5*5 = 25 = 1 mod 8, so {5} closes to {1, 5}
    assert subgroup_closure(8, {5}).elements == (1, 5)
    assert subgroup_closure(12, set()).elements == (1,)
    # powers of 3 mod 7: 3, 2, 6, 4, 5, 1 -> the full unit group
    assert subgroup_closure(7, {3}).elements == (1, 2, 3, 4, 5, 6)
    # every residue is 0 modulo 1
    assert subgroup_closure(1, {5}).elements == (0,)


def test_subgroup_closure_rejects_non_units():
    with pytest.raises(NotAUnit):
        subgroup_closure(8, {2})
    with pytest.raises(NotAUnit):
        subgroup_closure(12, {1, 9})


@pytest.mark.parametrize("n,expected", [(6, (1, 2, 3)), (8, (1, 2, 4)), (7, (1,)), (36, (1, 2, 3, 4, 6, 9, 12, 18))])
def test_proper_divisors(n, expected):
    assert proper_divisors(n) == expected


def test_proper_divisors_degenerate():
    with pytest.raises(DegenerateOrder):
        proper_divisors(1)


def test_modulus_limit_enforced(monkeypatch):
    with pytest.raises(LimitExceeded):
        galois_subgroup_mod(field_rationals(), 100_001)
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "10")
    with pytest.raises(LimitExceeded):
        euler_phi(50)
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "50")
    assert euler_phi(50) == 20


def test_unit_subgroup_structural_checks():
    with pytest.raises(NotAUnit):
        UnitSubgroup(8, (1, 2))
    with pytest.raises(ValueError):
        UnitSubgroup(8, (3, 5))  # identity missing
    with pytest.raises(ValueError):
        UnitSubgroup(8, (1, 5, 3))  # not increasing
    with pytest.raises(ValueError):
        UnitSubgroup(1, (1,))  # trivial group is (0,)
    with pytest.raises(ValueError):
        UnitSubgroup(8, (0, 1))  # 0 is a unit only modulo 1
    with pytest.raises(ValueError):
        UnitSubgroup(7, (1, 2))  # 2*2=4 escapes, caught via missing inverse


class CountedTuple(tuple):
    def __hash__(self):
        self.hashes += 1
        return super().__hash__()


def test_fields_hash_without_rehashing_their_subgroup():
    # the partition and oracle caches hash the field on every lookup; a
    # subgroup of 10^4 or more elements must not be rehashed each time
    field = parse_field("sqrt:-7")
    elements = CountedTuple(field.fixing_subgroup.elements)
    elements.hashes = 0
    object.__setattr__(field.fixing_subgroup, "elements", elements)
    for s in range(1, 101):
        spec = CirculantSpec.of(28, {s % 27 + 1, 7})
        is_integral(spec, field)
        oracle_is_integral(spec, field)
    assert elements.hashes <= 1


@given(st.integers(1, 300))
def test_units_have_phi_many_elements(n):
    group = galois_subgroup_mod(field_rationals(), n)
    assert group == reference_units(n)
    assert len(group) == euler_phi(n)
    assert all(a * b % n in group for a in group.elements for b in group.elements)


@given(st.integers(2, 300))
def test_gcd_classes_partition_the_range(n):
    seen = set()
    for p in proper_divisors(n):
        cls = tuple(x for x in range(1, n) if gcd(x, n) == p)
        assert len(cls) == euler_phi(n // p)
        assert not seen.intersection(cls)
        seen.update(cls)
        # p times the units mod n/p gives the same class
        assert cls == tuple(p * u for u in galois_subgroup_mod(field_rationals(), n // p).elements)
    assert seen == set(range(1, n))


@given(st.integers(2, 120), st.data())
def test_closure_output_is_a_subgroup(n, data):
    units = galois_subgroup_mod(field_rationals(), n).elements
    gens = data.draw(st.sets(st.sampled_from(units), max_size=4))
    group = subgroup_closure(n, gens)
    assert all(a * b % n in group for a in group.elements for b in group.elements)
    assert set(gens) <= set(group.elements) or not gens
