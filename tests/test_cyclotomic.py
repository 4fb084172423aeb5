import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from circint import (
    CyclotomicInteger,
    LimitExceeded,
    NotAUnit,
    OrderMismatch,
    OutOfRange,
    cyc_equal,
    cyclotomic_polynomial,
    eigenvalue,
    euler_phi,
    limits,
    reduce_coefficients,
)
from cyc_helpers import add, at_root, dense_reduce, galois_apply, zero


def sympy_cyclotomic(n):
    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_and_monic():
    for n in range(1, 80):
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1
        assert poly[-1] == 1


def test_cyclotomic_polynomial_matches_sympy():
    for n in [*range(1, 401), 2310, 4620, 9240]:
        assert cyclotomic_polynomial(n) == sympy_cyclotomic(n)


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_order_limit(monkeypatch):
    # bounded by the modulus bound, not the exact-order bound
    assert len(cyclotomic_polynomial(10_001)) == euler_phi(10_001) + 1
    with pytest.raises(LimitExceeded):
        cyclotomic_polynomial(limits.MODULUS_LIMIT + 1)
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "200")
    with pytest.raises(LimitExceeded):
        cyclotomic_polynomial(300)


def test_cyc_equal_examples():
    full_sum = CyclotomicInteger(7, (1,) * 7)
    assert cyc_equal(full_sum, zero(7))
    i_plus_conj = CyclotomicInteger(4, (0, 1, 0, 1))
    assert cyc_equal(i_plus_conj, zero(4))
    assert not cyc_equal(at_root(8, (0, 1)), at_root(8, (0, 0, 0, 1)))


def test_cyc_equal_order_mismatch():
    with pytest.raises(OrderMismatch):
        cyc_equal(zero(4), zero(8))


def test_cyc_equal_matches_dense_reduction():
    # u against u + z, z a seeded sum of multiples of the zero-sum cosets
    # {k + j*n/p : 0 <= j < p}, with one more root of unity added to every
    # other z; division by the cyclotomic polynomial is the reference
    rng = random.Random(1990)
    equal = 0
    for n in [*range(1, 201), 210, 2310]:
        for trial in range(4):
            u = CyclotomicInteger(n, tuple(rng.randint(-2, 2) for _ in range(n)))
            z = [0] * n
            for p in sympy.primefactors(n):
                for _ in range(3):
                    k, c = rng.randrange(n // p), rng.randint(-3, 3)
                    for j in range(p):
                        z[k + j * n // p] += c
            if trial % 2:
                z[rng.randrange(n)] += 1
            v = add(u, CyclotomicInteger(n, tuple(z)))
            expected = not any(dense_reduce(n, [a - b for a, b in zip(u.coefficients, v.coefficients)]))
            assert cyc_equal(u, v) == expected, (n, z)
            equal += expected
    assert equal == 2 * 202


def test_construction_checks():
    with pytest.raises(ValueError):
        CyclotomicInteger(4, (1, 2))


def test_galois_apply_examples():
    u = CyclotomicInteger(8, (3, 1, 0, 0, 2, 1, 0, 0))
    assert galois_apply(1, u) == u
    conj = galois_apply(7, at_root(8, (0, 1)))
    assert conj == at_root(8, (0,) * 7 + (1,))
    moved = galois_apply(3, CyclotomicInteger(8, (0, 1, 0, 0, 0, 1, 0, 0)))
    assert moved == CyclotomicInteger(8, (0, 0, 0, 1, 0, 0, 0, 1))
    with pytest.raises(NotAUnit):
        galois_apply(2, u)


def test_eigenvalue_examples():
    lam = eigenvalue(9, (1, 3, 7), 0)
    assert cyc_equal(lam, at_root(9, (3,)))
    assert eigenvalue(4, (1,), 1) == at_root(4, (0, 1))
    # zeta_6 + zeta_6^5 reduces to the rational integer 1
    assert cyc_equal(eigenvalue(6, (1, 5), 1), at_root(6, (1,)))
    with pytest.raises(OutOfRange):
        eigenvalue(6, (0, 1), 1)
    with pytest.raises(OutOfRange):
        eigenvalue(6, (6,), 1)
    with pytest.raises(OutOfRange):
        eigenvalue(6, (1,), 6)


def test_reduce_coefficients_length():
    for n in (1, 2, 6, 8, 12):
        reduced = reduce_coefficients(at_root(n, (5,)))
        assert len(reduced) == euler_phi(n)
        assert reduced[0] == 5
        assert not any(reduced[1:])


def test_reduce_coefficients_matches_the_dense_division():
    # the reduction walks only the nonzero terms of Phi_n; the dense
    # division by all of them is its reference
    rng = random.Random(2012)
    for n in [*range(1, 301), 1155]:
        for _ in range(2):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
            assert reduce_coefficients(CyclotomicInteger(n, coeffs)) == dense_reduce(n, coeffs), n


def test_root_of_cyclotomic_polynomial_vanishes():
    for n in range(1, 60):
        value = at_root(n, cyclotomic_polynomial(n))
        assert cyc_equal(value, zero(n))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_product_over_divisors_gives_power_minus_one():
    for n in range(1, 60):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert tuple(prod) == (-1,) + (0,) * (n - 1) + (1,)


@given(st.integers(2, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_galois_action_composes(n, data):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    u = CyclotomicInteger(n, tuple(coeffs))
    assert galois_apply(a, galois_apply(b, u)) == galois_apply(a * b % n, u)


@given(st.integers(2, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_galois_action_respects_equality(n, data):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    a = data.draw(st.sampled_from(units))
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    u = CyclotomicInteger(n, tuple(coeffs))
    # add a multiple of the cyclotomic polynomial: same number, new vector
    shift = data.draw(st.integers(-3, 3))
    v = add(u, at_root(n, tuple(shift * c for c in cyclotomic_polynomial(n))))
    assert cyc_equal(u, v)
    assert cyc_equal(galois_apply(a, u), galois_apply(a, v))


@given(st.integers(2, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_eigenvalues_sum_to_zero(n, data):
    members = tuple(sorted(data.draw(st.sets(st.integers(1, n - 1)))))
    total = zero(n)
    for r in range(n):
        total = add(total, eigenvalue(n, members, r))
    assert cyc_equal(total, zero(n))


@given(st.integers(2, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_galois_twist_shifts_frequency(n, data):
    members = tuple(sorted(data.draw(st.sets(st.integers(1, n - 1)))))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    a = data.draw(st.sampled_from(units))
    r = data.draw(st.integers(0, n - 1))
    lam = eigenvalue(n, members, r)
    assert cyc_equal(galois_apply(a, lam), eigenvalue(n, members, a * r % n))
