import ast
import cmath
import functools
import math
import random
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import circint.cyclotomic
import circint.oracle
from circint import (
    GAUSSIAN_LATTICE,
    RATIONAL_LATTICE,
    CirculantSpec,
    CyclotomicInteger,
    UnsupportedLattice,
    cyc_equal,
    eigenvalue,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    is_integral,
    numeric_lattice_check,
    numeric_spectrum,
    oracle_is_integral,
    orbit_partition,
    parse_field,
)
from cyc_helpers import dense_equal, galois_apply

ORACLE_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5",
                 "cyclo:3", "cyclo:5", "cyclo:8", "cyclo:12", "custom:13:5", "custom:20:9"]


def reference_oracle(spec, field):
    """Every eigenvalue against its image under every element of H."""
    n = spec.order
    fixers = galois_subgroup_mod(field, n).elements
    for r in range(n):
        lam = eigenvalue(n, spec.connection_set, r)
        for a in fixers:
            if a != 1 and not cyc_equal(galois_apply(a, lam), lam):
                return False
    return True


def orbit_walk(spec, field):
    """Reference: the oracle as it was when it built one eigenvalue per
    H-orbit of frequencies, at its least member, and compared it by dense
    reduction with the eigenvalue at each other distinct orbit member
    unless its coefficients were constant on the H-orbits of positions."""
    n = spec.order
    fixers = galois_subgroup_mod(field, n).elements
    orbits, leader_of = [], [None] * n
    for r in range(n):
        if leader_of[r] is None:
            orbit = list(dict.fromkeys([h * r % n for h in fixers]))
            for m in orbit:
                leader_of[m] = r
            orbits.append(orbit)
    for orbit in orbits:
        lam = eigenvalue(n, spec.connection_set, orbit[0])
        if all(c == lam.coefficients[r] for c, r in zip(lam.coefficients, leader_of)):
            continue
        for m in orbit[1:]:
            if not dense_equal(eigenvalue(n, spec.connection_set, m), lam):
                return False
    return True


def seeded_sets(n, field, rng, per_kind=2):
    """Unions of blocks, one-element perturbations of them, random subsets."""
    blocks = [b.members for b in orbit_partition(n, field).blocks]
    unions = [sorted(x for ms in blocks if rng.random() < 0.5 for x in ms) for _ in range(per_kind)]
    perturbed = [sorted(set(ms) ^ {rng.randrange(1, n)}) for ms in unions]
    subsets = [[x for x in range(1, n) if rng.random() < 0.5] for _ in range(per_kind)]
    return unions, perturbed, subsets


class ZeroTestCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = circint.cyclotomic._is_zero

        def counted(n, coeffs):
            self.calls += 1
            return original(n, coeffs)

        monkeypatch.setattr(circint.cyclotomic, "_is_zero", counted)


def eval_exact_at_unit_circle(n, members, r):
    lam = eigenvalue(n, members, r)
    zeta = cmath.exp(2j * cmath.pi / n)
    return sum(c * zeta**j for j, c in enumerate(lam.coefficients))


def test_oracle_examples():
    assert not oracle_is_integral(CirculantSpec.of(4, [1]), field_rationals())
    assert oracle_is_integral(CirculantSpec.of(4, [1]), field_gaussian())
    for n in (2, 5, 8, 11):
        full = CirculantSpec.of(n, range(1, n))
        for field in (field_rationals(), field_gaussian(), field_quadratic(-3)):
            assert oracle_is_integral(full, field)


def test_oracle_knows_quadratic_fields():
    # 1 + zeta_8 + zeta_8^7 = 1 + sqrt(2) is moved by conjugating sqrt(2)
    spec = CirculantSpec.of(8, [1, 7])
    assert not oracle_is_integral(spec, field_rationals())
    assert oracle_is_integral(spec, field_quadratic(2))
    assert not oracle_is_integral(spec, field_gaussian())
    assert oracle_is_integral(spec, field_cyclotomic(8))


def test_orbit_walk_matches_reference_oracle():
    # the divisor walk of the library, the orbit walk it replaced and the
    # all-eigenvalue reference agree
    rng = random.Random(20120104)
    cases = integral = 0
    for spec_text in ORACLE_FIELDS:
        field = parse_field(spec_text)
        for n in range(2, 70):
            for kind in seeded_sets(n, field, rng):
                for members in kind:
                    spec = CirculantSpec.of(n, members)
                    expected = reference_oracle(spec, field)
                    assert orbit_walk(spec, field) == expected, (spec_text, n, members)
                    assert oracle_is_integral(spec, field) == expected, (spec_text, n, members)
                    cases += 1
                    integral += expected
    assert cases == 13 * 68 * 6
    assert cases > integral > cases // 4


def test_oracle_reduces_nothing_on_block_unions(monkeypatch):
    # every element of H maps a union of blocks to itself, so the H-orbits
    # it meets hold |S| residues and settle it in O(|S|): no length-n
    # gather runs, no eigenvalue is built and nothing is tested for zero
    counter = ZeroTestCounter(monkeypatch)
    built, gathered = [], []
    original = circint.cyclotomic.CyclotomicInteger.__post_init__
    monkeypatch.setattr(circint.cyclotomic.CyclotomicInteger, "__post_init__",
                        lambda self: built.append(self.order) or original(self))

    def counted_itemgetter(*keys):
        gather = itemgetter(*keys)
        return lambda v: gathered.append(len(v)) or gather(v)

    monkeypatch.setattr(circint.oracle, "itemgetter", counted_itemgetter)
    circint.oracle._divisor_gathers.cache_clear()
    try:
        rng = random.Random(7)
        for spec_text in ("Q", "Qi", "sqrt:-7", "cyclo:12"):
            field = parse_field(spec_text)
            for n in (12, 35, 64, 97, 120):
                unions, _, _ = seeded_sets(n, field, rng)
                for members in unions:
                    assert oracle_is_integral(CirculantSpec.of(n, members), field)
        assert gathered == [] and built == [] and counter.calls == 0
        # a set that is not a union of blocks walks the gathers
        assert not oracle_is_integral(CirculantSpec.of(64, [1]), field_rationals()) and gathered
    finally:
        circint.oracle._divisor_gathers.cache_clear()  # drop the counting gathers


@pytest.mark.parametrize("spec_text, reductions",
                         [("Q", (51, 61, 41)), ("Qi", (51, 61, 41)), ("sqrt:-7", (41, 49, 29))])
def test_oracle_reduces_each_distinct_frequency_at_most_once(monkeypatch, spec_text, reductions):
    # for S = {s = 1 mod 7} many eigenvalues of one H-orbit of frequencies
    # are equal as numbers but not as coefficient vectors; the reductions
    # are the dense reductions of the orbit walk, which compared each
    # distinct orbit member once. The divisor walk meets the order 7 first,
    # where the eigenvalue |S| * zeta_7 differs from its first image.
    field = parse_field(spec_text)
    for n, bound in zip((77, 91, 63), reductions):
        spec = CirculantSpec.of(n, range(1, n, 7))
        counter = ZeroTestCounter(monkeypatch)
        assert not oracle_is_integral(spec, field)
        assert counter.calls == 1 <= bound
        assert not reference_oracle(spec, field)


def test_oracle_reaches_the_exact_order_bound():
    script = ("from circint import CirculantSpec, oracle_is_integral, parse_field\n"
              "full = CirculantSpec(10000, tuple(range(1, 10000)))\n"
              "for field in ('Q', 'cyclo:10000', 'cyclo:100'):\n"
              "    assert oracle_is_integral(full, parse_field(field))\n"
              "assert not oracle_is_integral(CirculantSpec(1001, tuple(range(1, 1001, 7))), parse_field('Q'))\n")
    subprocess.run([sys.executable, "-c", script], timeout=5, check=True)


@pytest.mark.parametrize("n, spec", [(10007, "Q"), (12000, "Qi"), (12000, "sqrt:-7")])
def test_oracle_answers_above_the_exact_order_bound(n, spec):
    field = parse_field(spec)
    blocks = [b.members for b in orbit_partition(n, field).blocks]
    union = sorted(x for ms in blocks[::2] for x in ms)
    assert oracle_is_integral(CirculantSpec.of(n, union), field)
    # less the first member of block 0, which has others
    assert len(blocks[0]) > 1 and not oracle_is_integral(CirculantSpec.of(n, union[1:]), field)
    sparse = CirculantSpec.of(n, [1, 5, 7])
    assert oracle_is_integral(sparse, field) == is_integral(sparse, field).integral


def test_oracle_reduces_at_most_once_per_eigenvalue(monkeypatch):
    # the divisors are walked by increasing order m = n/d, so every divisor
    # of m passed before m is reached; then the counts mod m are constant
    # on the orbits of the subgroup fixing the value, and the first image
    # that differs as a vector differs in value: one zero test, or none
    rng = random.Random(11)
    for spec_text in ("Q", "Qi", "sqrt:5", "cyclo:8"):
        field = parse_field(spec_text)
        for n in (12, 35, 64, 97, 120):
            for kind in seeded_sets(n, field, rng):
                for members in kind:
                    counter = ZeroTestCounter(monkeypatch)
                    integral = oracle_is_integral(CirculantSpec.of(n, members), field)
                    assert counter.calls == (0 if integral else 1)
    # the first comparison, zeta_4^3 against zeta_4, already fails
    counter = ZeroTestCounter(monkeypatch)
    assert not oracle_is_integral(CirculantSpec.of(64, [1]), field_rationals())
    assert counter.calls == 1


@functools.lru_cache(maxsize=8)
def indicator_gathers(n, field):
    """The gathers of indicator_walk: for every divisor m > 1 of n, m, H at
    modulus m and the gather onto orbit leaders; with the leader table and
    orbit sizes at m = n."""
    walk = []
    for m in sorted(m for m in range(2, n + 1) if n % m == 0):
        elements = galois_subgroup_mod(field, m).elements
        leader_of = [None] * m
        for r in range(m):
            if leader_of[r] is None:
                for h in elements:
                    leader_of[h * r % m] = r
        walk.append((m, elements, itemgetter(*leader_of)))
    orbit_size = [0] * n
    for r in leader_of:
        orbit_size[r] += 1
    return walk, leader_of, orbit_size


def indicator_walk(spec, field):
    """Reference: the oracle as it was when it built the length-n indicator
    of S and ran the gather at every divisor m of n, m = n and the moduli
    where H is trivial included, comparing each moved value with its images
    as CyclotomicInteger records."""
    n = spec.order
    walk, leader_of, orbit_size = indicator_gathers(n, field)
    members = spec.connection_set
    if sum(map(orbit_size.__getitem__, set(map(leader_of.__getitem__, members)))) == len(members):
        return True
    indicator = bytearray(n)
    for s in members:
        indicator[s] = 1
    whole = tuple(indicator)
    for m, fixers, spread in walk:
        counts = whole if m == n else tuple([sum(indicator[k::m]) for k in range(m)])
        if spread(counts) == counts:
            continue
        lam = CyclotomicInteger(m, counts)
        for h in fixers[1:]:
            inverse = pow(h, -1, m)
            image = tuple(counts[j * inverse % m] for j in range(m))
            if not cyc_equal(CyclotomicInteger(m, image), lam):
                return False
    return True


def agree_with_indicator_walk(counter, spec, field):
    """The oracle and indicator_walk give one verdict after as many zero
    tests, counted by counter; returns the verdict."""
    before = counter.calls
    expected = indicator_walk(spec, field)
    tests = counter.calls - before
    assert oracle_is_integral(spec, field) == expected, (spec, field.describe())
    assert counter.calls - before == 2 * tests, (spec, field.describe())
    return expected


def test_divisor_walk_matches_the_indicator_walk(monkeypatch):
    # the walk skips the moduli where H is trivial, counts S mod m from S,
    # compares images only at m = n and tests their differences for zero;
    # the walk it replaced built the indicator and gathered it at every m
    counter = ZeroTestCounter(monkeypatch)
    rng = random.Random(2024)
    verdicts = []
    for spec_text in ORACLE_FIELDS:
        field = parse_field(spec_text)
        for n in range(2, 70):
            for kind in seeded_sets(n, field, rng):
                for members in kind:
                    verdicts.append(agree_with_indicator_walk(counter, CirculantSpec.of(n, members), field))
    assert len(verdicts) > sum(verdicts) > len(verdicts) // 4
    # fields whose H is trivial at some divisor m of n but not at n
    for spec_text, orders in (("cyclo:12", (24, 36, 48, 60)), ("Qi", (8, 12, 20, 40)),
                              ("custom:21:4,5", (42, 84, 126))):
        field = parse_field(spec_text)
        for n in orders:
            assert len(galois_subgroup_mod(field, n).elements) > 1
            assert any(len(galois_subgroup_mod(field, m).elements) == 1 for m in range(2, n) if n % m == 0)
            for kind in seeded_sets(n, field, rng, per_kind=4):
                for members in kind:
                    agree_with_indicator_walk(counter, CirculantSpec.of(n, members), field)
    assert galois_subgroup_mod(field_gaussian(), 4).elements == (1,)
    for spec_text in ORACLE_FIELDS:
        for n in (63, 77, 91):
            assert not agree_with_indicator_walk(counter, CirculantSpec.of(n, range(1, n, 7)),
                                                 parse_field(spec_text))


@pytest.mark.parametrize("n, spec_text", [(10010, "Q"), (12000, "Qi"), (30030, "sqrt:-7"), (65536, "cyclo:8")])
def test_divisor_walk_matches_the_indicator_walk_at_large_orders(monkeypatch, n, spec_text):
    field = parse_field(spec_text)
    counter = ZeroTestCounter(monkeypatch)
    rng = random.Random(n)
    blocks = [ms for _, ms in orbit_partition(n, field).slices()]
    union = sorted(x for ms in blocks if rng.random() < 0.5 for x in ms)
    sets = [union, sorted(set(union) ^ {rng.randrange(1, n)}), [x for x in range(1, n) if rng.random() < 0.5],
            [1, 5, 7], range(1, n, 7)]
    verdicts = [agree_with_indicator_walk(counter, CirculantSpec.of(n, members), field) for members in sets]
    assert verdicts[0] and not verdicts[1]


# the fields of test_orbits.KEYED_BUILD_FIELDS
KEYED_BUILD_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5", "cyclo:3", "cyclo:5",
                      "cyclo:8", "cyclo:12", "custom:13:5", "custom:16:7", "custom:21:4"]


def count_listings(monkeypatch):
    """The moduli at which the oracle lists a Galois subgroup, in order."""
    listings, galois_subgroup = [], circint.oracle._galois_subgroup
    monkeypatch.setattr(circint.oracle, "_galois_subgroup", lambda k, g: listings.append(g) or galois_subgroup(k, g))
    return listings


def assert_tables_match_indicator_gathers(listings, n, field):
    """One build of the oracle's tables lists H once, at n, and holds what
    indicator_gathers lists at every divisor: H and the gather at each m < n
    where H is not trivial, and H, the leaders and orbit sizes at n."""
    listings.clear()
    gathers, fixers, leader_of, orbit_size = circint.oracle._divisor_gathers.__wrapped__(n, field)
    assert listings == [n]
    walk, expected_leaders, expected_sizes = indicator_gathers(n, field)
    expected = [(m, tuple(elements), spread(range(m))) for m, elements, spread in walk
                if m < n and len(elements) > 1]
    assert [(m, tuple(elements), spread(range(m))) for m, elements, spread in gathers] == expected, (n, field)
    assert all(elements.typecode == "I" for _, elements, _ in gathers) and fixers.typecode == "I"
    assert tuple(fixers) == walk[-1][1] == galois_subgroup_mod(field, n).elements
    assert leader_of == expected_leaders and orbit_size == expected_sizes, (n, field)


@pytest.mark.parametrize("spec_text", KEYED_BUILD_FIELDS)
def test_divisor_tables_are_stride_views_of_the_table_at_n(monkeypatch, spec_text):
    # H at m = n/d is H at n mod m, and the H-orbit of x at m is that of d*x at n over d
    field, listings = parse_field(spec_text), count_listings(monkeypatch)
    for n in range(2, 301):
        assert_tables_match_indicator_gathers(listings, n, field)


@pytest.mark.parametrize("n, spec_text", [(99990, "Q"), (98280, "Qi"), (60060, "sqrt:-7"), (99991, "cyclo:99991")])
def test_divisor_tables_are_stride_views_at_large_orders(monkeypatch, n, spec_text):
    assert_tables_match_indicator_gathers(count_listings(monkeypatch), n, parse_field(spec_text))


def test_oracle_path_has_no_block_machinery():
    # independence of the two decision routes hinges on this module never
    # touching the orbit construction or the block decision, at any depth:
    # function-level imports count as much as module-level ones
    tree = ast.parse(Path(circint.oracle.__file__).read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imports += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert imports
    assert "numpy" in imports  # the deferred import inside numeric_spectrum is seen
    assert not any("orbits" in name or ".integrality" in name for name in imports)


def test_numeric_spectrum_four_cycle():
    values = numeric_spectrum(CirculantSpec.of(4, [1]))
    expected = [1, 1j, -1, -1j]
    assert all(abs(a - b) < 1e-12 for a, b in zip(values, expected))


def test_numeric_spectrum_basics():
    spec = CirculantSpec.of(9, [2, 3, 5, 8])
    values = numeric_spectrum(spec)
    assert len(values) == 9
    assert abs(values[0] - len(spec.connection_set)) < 1e-12
    assert abs(sum(values)) < 9e-10
    assert numeric_spectrum(CirculantSpec.of(5, [])) == [0j] * 5


def test_numeric_spectrum_matches_exact_evaluation():
    for n in (2, 3, 7, 12, 30, 60, 100):
        members = tuple(x for x in range(1, n) if x % 3 != 0)
        values = numeric_spectrum(CirculantSpec.of(n, members))
        for r in range(n):
            assert abs(values[r] - eval_exact_at_unit_circle(n, members, r)) < 1e-9


def reduced_angle_reference(n, members, r):
    """The eigenvalue at frequency r from cos and sin at the reduced angles
    2*pi*(r*s mod n)/n, each sum taken exactly rounded by math.fsum."""
    angles = [2 * math.pi * (r * s % n) / n for s in members]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


def test_numeric_spectrum_is_accurate():
    rng = random.Random(5)
    specs = [CirculantSpec.of(99991, [1, 2, 99990])]
    for _ in range(60):
        n = rng.randint(2, 500)
        specs.append(CirculantSpec.of(n, rng.sample(range(1, n), rng.randint(0, n - 1))))
    for spec in specs:
        n, members = spec.order, spec.connection_set
        values = numeric_spectrum(spec)
        assert max(abs(values[r] - reduced_angle_reference(n, members, r)) for r in range(n)) < 1e-12


def test_numeric_spectrum_reaches_the_documented_order():
    script = ("from circint import CirculantSpec, numeric_spectrum\n"
              "assert len(numeric_spectrum(CirculantSpec(99991, tuple(range(1, 10001))))) == 99991\n")
    subprocess.run([sys.executable, "-c", script], timeout=30, check=True)


def test_lattice_check_examples():
    four_cycle = CirculantSpec.of(4, [1])
    assert numeric_lattice_check(four_cycle, GAUSSIAN_LATTICE, 1e-6)
    assert not numeric_lattice_check(four_cycle, RATIONAL_LATTICE, 1e-6)
    # spectrum of the undirected 6-cycle: 2, 1, -1, -2, -1, 1
    assert numeric_lattice_check(CirculantSpec.of(6, [1, 5]), RATIONAL_LATTICE, 1e-6)
    with pytest.raises(UnsupportedLattice):
        numeric_lattice_check(four_cycle, "eisenstein-integers", 1e-6)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            numeric_lattice_check(four_cycle, RATIONAL_LATTICE, tol)


@given(st.integers(2, 40), st.data())
@settings(max_examples=80, deadline=None)
def test_lattice_check_agrees_with_oracle(n, data):
    members = data.draw(st.sets(st.integers(1, n - 1)))
    spec = CirculantSpec.of(n, members)
    assert numeric_lattice_check(spec, RATIONAL_LATTICE, 1e-6) == oracle_is_integral(spec, field_rationals())
    assert numeric_lattice_check(spec, GAUSSIAN_LATTICE, 1e-6) == oracle_is_integral(spec, field_gaussian())
