from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

from circint import (
    AbelianField,
    BothZero,
    DegenerateInput,
    FieldSpecError,
    LimitExceeded,
    NotAUnit,
    NotSquarefree,
    UnitSubgroup,
    euler_phi,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    kronecker_symbol,
    parse_field,
    subgroup_closure,
)
from cyc_helpers import reference_units

PRESETS = [
    field_rationals(),
    field_gaussian(),
    field_quadratic(2),
    field_quadratic(-3),
    field_cyclotomic(8),
]


def legendre_by_search(a, q):
    """Brute-force quadratic-residue test for an odd prime q."""
    a %= q
    if a == 0:
        return 0
    squares = {x * x % q for x in range(1, q)}
    return 1 if a in squares else -1


def test_field_rationals():
    q = field_rationals()
    assert (q.conductor, q.fixing_subgroup.elements) == (1, (0,))
    assert q.degree == 1
    assert galois_subgroup_mod(q, 6).elements == (1, 5)


def test_field_gaussian():
    qi = field_gaussian()
    assert (qi.conductor, qi.fixing_subgroup.elements) == (4, (1,))
    assert qi.degree == 2
    assert qi == field_cyclotomic(4)


def test_field_cyclotomic():
    assert field_cyclotomic(5).fixing_subgroup.elements == (1,)
    assert field_cyclotomic(1) == field_rationals()
    assert field_cyclotomic(8).degree == 4


def test_field_quadratic_presets():
    assert field_quadratic(-1) == field_gaussian()
    assert field_quadratic(5).conductor == 5
    assert field_quadratic(5).fixing_subgroup.elements == (1, 4)  # squares mod 5
    assert field_quadratic(2).conductor == 8
    assert field_quadratic(2).fixing_subgroup.elements == (1, 7)  # residues +-1 mod 8
    assert field_quadratic(-3) == field_cyclotomic(3)
    for d in (-5, -2, 3, 7, 10, -7):
        assert field_quadratic(d).degree == 2


def test_field_quadratic_rejects():
    with pytest.raises(DegenerateInput):
        field_quadratic(0)
    with pytest.raises(DegenerateInput):
        field_quadratic(1)
    for d in (12, 8, -4, 18):
        with pytest.raises(NotSquarefree):
            field_quadratic(d)
    for d in [*range(-2000, -1), *range(2, 2001)]:
        if any(e > 1 for e in sympy.factorint(abs(d)).values()):
            with pytest.raises(NotSquarefree):
                field_quadratic(d)
        else:
            assert field_quadratic(d).degree == 2, d


def test_kronecker_symbol_values():
    assert kronecker_symbol(2, 7) == 1  # 2 = 3^2 mod 7
    assert kronecker_symbol(3, 5) == -1  # squares mod 5 are {1, 4}
    assert kronecker_symbol(6, 9) == 0
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(7, 1) == 1
    with pytest.raises(BothZero):
        kronecker_symbol(0, 0)
    # negative bottoms too
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a or b:
                assert kronecker_symbol(a, b) == sympy.kronecker_symbol(a, b), (a, b)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97])
def test_kronecker_matches_legendre_search(q):
    for a in range(-2 * q, 2 * q):
        assert kronecker_symbol(a, q) == legendre_by_search(a, q)


def test_kronecker_multiplicative_in_bottom():
    for a in range(-20, 21):
        for b1 in range(1, 15):
            for b2 in range(1, 15):
                assert kronecker_symbol(a, b1 * b2) == kronecker_symbol(a, b1) * kronecker_symbol(a, b2)


def test_galois_subgroup_examples():
    # units mod 8 that are 1 mod 4
    assert galois_subgroup_mod(field_gaussian(), 8).elements == (1, 5)
    assert galois_subgroup_mod(field_gaussian(), 12).elements == (1, 5)
    for g in (1, 2, 5, 9, 12):
        full = reference_units(g).elements
        assert galois_subgroup_mod(field_rationals(), g).elements == full
    # any cyclotomic field contains the smaller roots of unity
    for n in (6, 8, 12):
        for g in (d for d in range(2, n + 1) if n % d == 0):
            assert galois_subgroup_mod(field_cyclotomic(n), g).elements == (1,)
    assert galois_subgroup_mod(field_cyclotomic(8), 1).elements == (0,)


def lcm_scan_subgroup(field, g):
    """Reference: the mod-g image of the units modulo lcm(conductor, g)
    whose residue mod the conductor lies in the fixing subgroup."""
    m = field.conductor
    big = m * g // gcd(m, g)
    members = set(field.fixing_subgroup.elements)
    return tuple(sorted({a % g for a in range(1, big + 1) if gcd(a, big) == 1 and a % m in members}))


LCM_SCAN_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5", "cyclo:3", "cyclo:5",
                   "cyclo:8", "cyclo:12", "custom:13:5", "custom:16:7", "custom:21:4"]


@pytest.mark.parametrize("spec", LCM_SCAN_FIELDS)
def test_galois_subgroup_matches_lcm_scan(spec):
    field = parse_field(spec)
    for g in range(1, 300):
        assert galois_subgroup_mod(field, g).elements == lcm_scan_subgroup(field, g), (spec, g)


def test_galois_subgroup_needs_lcm_not_plain_reduction():
    # sqrt(2) does not lie in the 14th cyclotomic field, so the subgroup
    # is everything; reducing the mod-8 kernel condition naively would
    # wrongly shrink it.
    assert galois_subgroup_mod(field_quadratic(2), 14).elements == (1, 3, 5, 9, 11, 13)


@pytest.mark.parametrize("field", PRESETS)
def test_galois_subgroup_invariants_up_to_200(field):
    for g in range(1, 201):
        sub = galois_subgroup_mod(field, g)
        assert all(a * b % g in sub for a in sub.elements for b in sub.elements)
        assert euler_phi(g) % len(sub) == 0


@pytest.mark.parametrize("field", PRESETS)
def test_galois_subgroup_restriction_compatibility(field):
    for big in range(1, 61):
        image_src = galois_subgroup_mod(field, big).elements
        for g in range(1, big + 1):
            if big % g:
                continue
            expected = set(galois_subgroup_mod(field, g).elements)
            assert {a % g for a in image_src} == expected


def test_degree_of_intersection_divides_field_degree():
    # the intersection with any cyclotomic field is a subfield of K
    for field in PRESETS:
        for g in range(1, 100):
            sub = galois_subgroup_mod(field, g)
            inter_degree = euler_phi(g) // len(sub)
            assert field.degree % inter_degree == 0


@pytest.mark.parametrize("d", [2, 5, -3, -1, 13, -7])
def test_quadratic_prime_membership_matches_residue_search(d):
    k = field_quadratic(d)
    m = k.conductor
    disc = d if d % 4 == 1 else 4 * d
    for q in range(3, 100, 2):
        if any(q % p == 0 for p in range(2, q)):
            continue
        if disc % q == 0:
            continue
        in_subgroup = (q % m) in k.fixing_subgroup
        assert in_subgroup == (legendre_by_search(d, q) == 1)


def test_same_field_under_different_conductors():
    # conductor 8 with subgroup {1, 5} fixes the same field as Qi
    other = AbelianField(8, UnitSubgroup(8, (1, 5)))
    for g in range(1, 41):
        assert galois_subgroup_mod(other, g) == galois_subgroup_mod(field_gaussian(), g)


def test_parse_field():
    assert parse_field("Q") == field_rationals()
    assert parse_field("Qi") == field_gaussian()
    assert parse_field("sqrt:2") == field_quadratic(2)
    assert parse_field("cyclo:8") == field_cyclotomic(8)
    custom = parse_field("custom:8:5")
    assert custom.fixing_subgroup.elements == (1, 5)
    assert custom.describe() == "custom:8:5"
    assert parse_field("custom:12:").fixing_subgroup.elements == (1,)
    # an unlabeled field names itself by its whole subgroup, which parses back
    unlabeled = AbelianField(21, subgroup_closure(21, [4, 5]))
    assert unlabeled.describe() == "custom:21:1,4,5,16,17,20"
    assert parse_field(unlabeled.describe()) == unlabeled


def test_parse_field_rejects():
    for bad in ("", "QQ", "sqrt:x", "cyclo:", "cyclo:0", "custom:8", "custom:8:5:7", "custom:0:1"):
        with pytest.raises(FieldSpecError):
            parse_field(bad)
    with pytest.raises(NotAUnit):
        parse_field("custom:8:2")
    with pytest.raises(NotSquarefree):
        parse_field("sqrt:12")


def test_limits_on_field_operations(monkeypatch):
    with pytest.raises(LimitExceeded):
        field_cyclotomic(200_000)
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "50")
    # the bound applies to the modulus passed in, never to lcm(9, 7) = 63
    assert galois_subgroup_mod(field_cyclotomic(9), 7) == reference_units(7)
    with pytest.raises(LimitExceeded):
        galois_subgroup_mod(field_rationals(), 51)


@given(st.integers(1, 150))
def test_rationals_subgroup_is_everything(g):
    assert galois_subgroup_mod(field_rationals(), g) == reference_units(g)
