"""Exact arithmetic in the ring of integers of cyclotomic fields.

A value of order n is a redundant length-n integer vector: the coefficients
of 1, zeta, ..., zeta^{n-1} for zeta = exp(2*pi*i/n). Distinct vectors can
denote the same number; semantic equality (cyc_equal) clears the
difference along cosets of roots of unity that sum to zero and checks that
nothing is left, while reduce_coefficients divides by the n-th cyclotomic
polynomial. Coefficients are plain Python integers, so no overflow is
possible.
"""

from __future__ import annotations

from itertools import combinations, cycle
from math import prod
from operator import sub

from . import limits
from .errors import DegenerateOrder, InvalidSet, OrderMismatch, OutOfRange
from .records import Record
from .residues import _prime_factors


class CyclotomicInteger(Record):
    _fields = ("order", "coefficients")

    def __post_init__(self):
        n = self.__dict__["order"] = limits.integer(self.order, "order")  # a numpy order becomes an int
        if n < 1:
            raise DegenerateOrder(f"order must be positive, got {n}")
        if len(self.coefficients) != n:
            raise ValueError(f"need exactly {n} coefficients, got {len(self.coefficients)}")


@limits.Memo  # at most n + 1 coefficients; read by _reduce (spectrum --exact), cyclotomic_polynomial
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    rad = prod(primes)
    deg = prod(p - 1 for p in primes)
    # Phi_rad(x) is the product over d | rad of (1 - x^d)^mu(rad/d), a
    # polynomial of degree phi(rad), so power series truncated past that
    # degree compute it exactly; factors with d > deg are 1 there.
    series = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in combinations(primes, k):
            d = prod(chosen)
            if d > deg:
                continue
            if (len(primes) - k) % 2 == 0:
                for i in range(deg, d - 1, -1):
                    series[i] -= series[i - d]
            else:
                for i in range(d, deg + 1):
                    series[i] += series[i - d]
    step = n // rad
    poly = [0] * (deg * step + 1)
    poly[::step] = series
    return tuple(poly)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Built as Phi_rad(x^(n/rad)), rad the product of the primes dividing n,
    with Phi_rad a sparse product of binomials (1 - x^d)^mu(rad/d) over the
    divisors d of rad; monic of degree phi(n).
    """
    return _cyclotomic(limits.checked(n, 1, "order"))


def _reduce(n: int, coeffs) -> tuple[int, ...]:
    """Remainder of an ascending-degree coefficient vector modulo the n-th
    cyclotomic polynomial; result has length phi(n). Phi_n(x) =
    Phi_rad(x^(n/rad)) is sparse, so only its nonzero terms are walked."""
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    terms = [(j, a) for j, a in enumerate(phi[:deg]) if a]
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, a in terms:
                rem[i - deg + j] -= c * a
    return tuple(rem[:deg])


def reduce_coefficients(u: CyclotomicInteger) -> tuple[int, ...]:
    """Canonical coefficient vector of u, length phi(order)."""
    return _reduce(u.order, u.coefficients)


def cyc_equal(u: CyclotomicInteger, v: CyclotomicInteger) -> bool:
    """Semantic equality: the difference is zero in the cyclotomic ring of
    the common order, tested by _is_zero."""
    if u.order != v.order:
        raise OrderMismatch(f"orders {u.order} and {v.order}")
    return u.coefficients == v.coefficients or _is_zero(u.order, list(map(sub, u.coefficients, v.coefficients)))


def _is_zero(n: int, coeffs: list[int]) -> bool:
    """True iff the sum of coeffs[k] * zeta_n^k is zero, in O(n * omega(n)).

    For each prime p dividing n, every coset {k + j*n/p : 0 <= j < p} sums
    to zero, so subtracting from each coset the coefficient of its
    designated member changes no value. All members of a coset for p share
    their residue mod q^b for every other prime q, so a coset already
    cleared for q stays cleared. What is left lies on the phi(n) positions
    designated for no prime, whose powers of zeta_n are a basis (W. Bosma,
    "Canonical bases for cyclotomic fields", 1990).
    """
    for designated in _coset_plan(n):
        top = [coeffs[i] for i in designated]
        coeffs = list(map(sub, coeffs, cycle(top)))
    return not any(coeffs)


@limits.Memo  # n/p entries per prime p of n, 4.3-4.7 MB near n = 10^5; one plan per order compared
def _coset_plan(n: int) -> tuple[tuple[int, ...], ...]:
    """Per prime p dividing n, the designated member of each coset
    {k + j*n/p}, 0 <= k < n/p: the one whose residue mod p^a (p^a exactly
    dividing n) has top base-p digit p - 1."""
    plan = []
    for p in _prime_factors(n):
        width, q = n // p, p
        while n % (q * p) == 0:
            q *= p
        lead = q // p
        designated = [0] * width
        for x in range((p - 1) * lead, n, q):
            for y in range(x, x + lead):
                designated[y % width] = y
        plan.append(tuple(designated))
    return tuple(plan)


def eigenvalue(n: int, connection_set, r: int) -> CyclotomicInteger:
    """Adjacency eigenvalue of the circulant digraph D(n, S) at frequency
    r: the sum of zeta_n^{r*s} over s in the connection set."""
    n, r = limits.integer(n, "order"), limits.integer(r, "frequency")
    if not 0 <= r < n:
        raise OutOfRange(f"frequency {r} outside [0, {n})")
    out = [0] * n
    for s in connection_set:
        if not hasattr(type(s), "__index__"):  # what index() takes, as CirculantSpec tests
            raise InvalidSet(f"connection element {s!r} is not an integer")
        if not 1 <= s < n:
            raise OutOfRange(f"connection element {s} outside [1, {n})")
        out[r * s % n] += 1
    return CyclotomicInteger(n, tuple(out))
