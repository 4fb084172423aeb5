"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS line with its scope once it succeeds (visible with ``pytest -s``).
Run: pytest tests/test_acceptance.py -v -s
"""

import cmath
import random
import subprocess
import sys
import time
from math import gcd

from circint import (
    CirculantSpec,
    count_integral,
    cross_verify,
    cyclotomic_polynomial,
    eigenvalue,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    is_gauss_integral,
    lattice_cross_verify,
    lemma1_check,
    numeric_spectrum,
    oracle_is_integral,
    orbit_partition,
    proper_divisors,
    r_count,
)
from circint.cyclotomic import CyclotomicInteger, cyc_equal

FIELDS = {
    "Q": field_rationals(),
    "Qi": field_gaussian(),
    "sqrt:2": field_quadratic(2),
    "sqrt:-3": field_quadratic(-3),
    "cyclo:8": field_cyclotomic(8),
}


def _passed(criterion, detail):
    print(f"acceptance {criterion}: PASS ({detail})")


def _subset(mask, n):
    return tuple(i + 1 for i in range(n - 1) if mask >> i & 1)


def test_criterion_1_exhaustive_equivalence():
    """Block test == exact oracle on every subset, n = 2..14, all fields."""
    start = time.perf_counter()
    cases = 0
    for name, field in FIELDS.items():
        for n in range(2, 15):
            report = cross_verify(n, field)
            assert report.mismatches == (), f"{name} n={n}: {report.mismatches[:3]}"
            cases += report.cases_checked
    _passed("1 exhaustive equivalence", f"{cases} cases, {time.perf_counter() - start:.1f}s")


def test_criterion_2_sampled_equivalence():
    """Block test == exact oracle on 200 seeded subsets, n = 15..40."""
    start = time.perf_counter()
    cases = 0
    for name, field in FIELDS.items():
        for n in range(15, 41):
            report = cross_verify(n, field, samples=200, seed=1)
            assert report.mismatches == (), f"{name} n={n}: {report.mismatches[:3]}"
            cases += report.cases_checked
    _passed("2 sampled equivalence", f"{cases} cases, {time.perf_counter() - start:.1f}s")


def test_criterion_3_oracle_count_is_power_of_two():
    """The oracle accepts exactly 2^(block count) subsets for n <= 12."""
    start = time.perf_counter()
    for name, field in FIELDS.items():
        for n in range(2, 13):
            accepted = sum(
                oracle_is_integral(CirculantSpec(n, _subset(mask, n)), field)
                for mask in range(1 << (n - 1))
            )
            assert accepted == count_integral(n, field) == 1 << r_count(n, field), (name, n)
    _passed("3 integral count", f"n<=12 x {len(FIELDS)} fields, {time.perf_counter() - start:.1f}s")


def test_criterion_4_rational_specialization():
    """Over the rationals the blocks are exactly the gcd classes, n <= 2000."""
    start = time.perf_counter()
    q = field_rationals()
    for n in range(2, 2001):
        divisors = proper_divisors(n)
        assert r_count(n, q) == len(divisors)
        part = orbit_partition(n, q)
        assert len(part.blocks) == len(divisors)
        classes = {}
        for x in range(1, n):
            classes.setdefault(gcd(x, n), []).append(x)
        for block in part.blocks:
            assert tuple(classes[block.divisor]) == block.members
    from circint.orbits import _partition_cached

    _partition_cached.cache_clear()
    _passed("4 rational specialization", f"n<=2000, {time.perf_counter() - start:.1f}s")


def test_criterion_5_gaussian_desk_check():
    """Gauss integrality agrees with the oracle: n=8 and n=16 exhaustively,
    n=24 on 10000 seeded subsets."""
    start = time.perf_counter()
    qi = field_gaussian()
    total = 0
    for n in (8, 16):
        for mask in range(1 << (n - 1)):
            spec = CirculantSpec(n, _subset(mask, n))
            assert is_gauss_integral(spec).integral == oracle_is_integral(spec, qi), spec
            total += 1
    assert total == 128 + 32768
    rng = random.Random(1)
    for _ in range(10_000):
        spec = CirculantSpec(24, _subset(rng.getrandbits(23), 24))
        assert is_gauss_integral(spec).integral == oracle_is_integral(spec, qi), spec
        total += 1
    _passed("5 gaussian desk check", f"{total} cases, {time.perf_counter() - start:.1f}s")


def test_criterion_6_block_sums_lie_in_the_field():
    """Every block power sum is Galois-fixed and blocks are orthogonal,
    n <= 20, all fields."""
    start = time.perf_counter()
    cases = 0
    for name, field in FIELDS.items():
        for n in range(2, 21):
            report = lemma1_check(n, field)
            assert report.mismatches == (), (name, n, report.mismatches[:3])
            r = len(orbit_partition(n, field).blocks)
            assert report.cases_checked == r * (n - 1) + r * (r - 1) // 2
            cases += report.cases_checked
    _passed("6 block-sum fixedness", f"{cases} cases, {time.perf_counter() - start:.1f}s")


def test_criterion_7_cyclotomic_core():
    """Divisor product identity and root annihilation for n <= 200; the
    order-105 polynomial contains a -2 coefficient."""
    start = time.perf_counter()

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert tuple(prod) == (-1,) + (0,) * (n - 1) + (1,), n
        coeffs = [0] * n
        for j, c in enumerate(cyclotomic_polynomial(n)):
            coeffs[j % n] += c
        assert cyc_equal(CyclotomicInteger(n, tuple(coeffs)), CyclotomicInteger(n, (0,) * n)), n
    assert -2 in cyclotomic_polynomial(105)
    _passed("7 cyclotomic core", f"n<=200, {time.perf_counter() - start:.1f}s")


def test_criterion_8_numeric_sanity():
    """Lattice proximity at tol 1e-6 agrees with the exact oracle, and the
    numeric spectrum tracks the exact one to 1e-9, for n <= 50."""
    start = time.perf_counter()
    lattice_cases = 0
    for name in ("Q", "Qi"):
        field = FIELDS[name]
        for n in range(2, 51):
            report = lattice_cross_verify(n, field, 1e-6, samples=100, seed=n)
            assert report.mismatches == (), (name, n, report.mismatches[:3])
            lattice_cases += report.cases_checked
    spectra = 0
    rng = random.Random(8)
    for n in range(2, 51):
        zeta = cmath.exp(2j * cmath.pi / n)
        powers = [zeta**j for j in range(n)]
        for _ in range(10):
            members = _subset(rng.getrandbits(n - 1), n)
            numeric = numeric_spectrum(CirculantSpec(n, members))
            for r in range(n):
                lam = eigenvalue(n, members, r)
                exact = sum(c * powers[j] for j, c in enumerate(lam.coefficients) if c)
                assert abs(numeric[r] - exact) < 1e-9, (n, members, r)
            spectra += 1
    _passed("8 numeric sanity", f"{lattice_cases} lattice cases, {spectra} spectra, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_9_byte_identical_cli_output():
    """Repeated enumerate and seeded verify runs emit identical bytes."""
    start = time.perf_counter()
    invocations = [
        ["enumerate", "8", "--field", "Qi"],
        ["enumerate", "12", "--field", "Q", "--limit", "10"],
        ["verify", "10", "--field", "Q", "--samples", "50", "--seed", "7"],
        ["verify", "6..8", "--field", "Qi", "--samples", "20", "--seed", "3", "--lemma1"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "circint", *argv],
                           capture_output=True, check=False)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout
    _passed("9 determinism", f"{len(invocations)} invocations x2, {time.perf_counter() - start:.1f}s")
