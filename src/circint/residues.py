"""Unit groups and divisor lists over desk-scale moduli.

Everything here is elementary modular arithmetic; these objects carry the
Galois-group data used by the orbit construction.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import limits
from .errors import DegenerateOrder, NotAUnit
from .records import Record


class UnitSubgroup(Record):
    """A multiplicatively closed set of residues modulo ``modulus``.

    Elements are units in [0, modulus), stored strictly increasing, so the
    group modulo 1 is the single residue 0. Construction runs the cheap
    structural checks (identity, range, units, inverses); closure under
    products is not checked.
    """

    _fields = ("modulus", "elements")

    def __post_init__(self):
        g = self.__dict__["modulus"] = limits.integer(self.modulus, "modulus")  # a numpy modulus becomes an int
        if g < 1:
            raise DegenerateOrder(f"modulus must be positive, got {g}")
        els = self.elements
        if not all(type(e) is int for e in els):  # a numpy element becomes an int
            els = self.__dict__["elements"] = tuple(limits.integer(e, "subgroup element") for e in els)
        if not els or list(els) != sorted(set(els)):
            raise ValueError("elements must be strictly increasing")
        if els[0] < 1 % g or els[-1] >= g:
            raise ValueError(f"elements must lie in [{1 % g}, {g})")
        if 1 % g not in self._member_set:
            raise ValueError(f"missing identity {1 % g}")
        for e in els:
            if gcd(e, g) != 1:
                raise NotAUnit(f"{e} is not a unit modulo {g}")
        for e in els:
            if pow(e, -1, g) not in self._member_set:
                raise ValueError(f"inverse of {e} missing modulo {g}")

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __hash__(self) -> int:  # a frozenset caches its hash, so cache lookups keyed by a field stay O(1)
        return hash(self._member_set)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set


def euler_phi(n: int) -> int:
    """Order of the unit group modulo n; phi(1) = 1."""
    return _euler_phi(limits.checked(n, 1, "modulus"))


def _euler_phi(n: int) -> int:
    """euler_phi without the argument checks, for moduli already checked."""
    result = n
    for q in _prime_factors(n):
        result -= result // q
    return result


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def subgroup_closure(n: int, generators) -> UnitSubgroup:
    """Smallest multiplicatively closed subset of the units mod n containing
    1 and every generator."""
    n = limits.checked(n, 1, "modulus")
    gens = []
    for gen in generators:
        r = limits.integer(gen, "generator") % n
        if gcd(r, n) != 1:
            raise NotAUnit(f"generator {gen} shares a factor with {n}")
        gens.append(r)
    members = {1 % n}
    frontier = [1 % n]
    while frontier:
        x = frontier.pop()
        for a in gens:
            y = (x * a) % n
            if y not in members:
                members.add(y)
                frontier.append(y)
    return UnitSubgroup(n, tuple(sorted(members)))


def proper_divisors(n: int) -> tuple[int, ...]:
    """All divisors p of n with 1 <= p < n, ascending."""
    return _proper_divisors(limits.checked(n, 2, "order"))


def _proper_divisors(n: int) -> tuple[int, ...]:
    """proper_divisors without the argument checks, for orders already checked."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            q = n // d
            if q != d and q != n:
                large.append(q)
        d += 1
    return tuple(small + large[::-1])
