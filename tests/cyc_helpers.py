"""Test-local cyclotomic helpers that the library does not export.

galois_apply is a reference copy of the automorphism zeta -> zeta^a on
coefficient vectors, kept so that tests can check the identity
sigma_a(P(s)) = P(a*s) the library relies on instead. dense_reduce and
dense_equal are the division by the n-th cyclotomic polynomial that
cyc_equal used before it tested zero along cosets, kept as its reference.
reference_units is the gcd scan that listed the unit group mod n before
galois_subgroup_mod over the rationals took its place.
"""

from math import gcd

from circint import CyclotomicInteger, NotAUnit, UnitSubgroup, cyclotomic_polynomial


def reference_units(n):
    """The full unit group modulo n, by a gcd scan of [0, n)."""
    return UnitSubgroup(n, tuple(x for x in range(n) if gcd(x, n) == 1))


def zero(n):
    return CyclotomicInteger(n, (0,) * n)


def at_root(n, poly):
    """An integer polynomial evaluated at zeta_n: coefficient j goes into
    slot j mod n."""
    coeffs = [0] * n
    for j, c in enumerate(poly):
        coeffs[j % n] += c
    return CyclotomicInteger(n, tuple(coeffs))


def add(u, v):
    return CyclotomicInteger(u.order, tuple(a + b for a, b in zip(u.coefficients, v.coefficients)))


def galois_apply(a, u):
    """Image of u under the automorphism sending zeta to zeta^a."""
    n = u.order
    a %= n
    if gcd(a, n) != 1:
        raise NotAUnit(f"{a} is not invertible modulo {n}")
    out = [0] * n
    for j, c in enumerate(u.coefficients):
        if c:
            out[a * j % n] += c
    return CyclotomicInteger(n, tuple(out))


def dense_reduce(n, coeffs):
    """Remainder of an ascending-degree coefficient vector modulo the n-th
    cyclotomic polynomial, length phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
            rem[i] = 0
    return tuple(rem[:deg])


def dense_equal(u, v):
    return not any(dense_reduce(u.order, [a - b for a, b in zip(u.coefficients, v.coefficients)]))
