"""The orbit partition of {1, ..., n-1} attached to a pair (n, K).

Residues are first split by gcd with n; the class with gcd p is p times
the units modulo g = n/p. Its blocks are the orbits of the Galois subgroup
of K at modulus g, that is (by CRT) the classes of units mod g with one
key: their residue mod d = gcd(conductor, g) up to the fixing subgroup
reduced mod d. So a block is a union of progressions y = c (mod d) less
their non-units; the build takes each as one strided slice of a sieve of
the units mod g and merges the runs of a class. A connection set yields a
digraph integral over K exactly when it is a union of whole blocks, which
is what downstream modules consume. Validation computes no gcd: divisibility
by the labels, with the label, size, count and coverage checks, forces them.

Blocks are ordered by (divisor, smallest member); block indices elsewhere
always refer to this canonical order. Tools that order blocks differently
should sort before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, itemgetter, lt, mod

from . import limits
from .errors import DegenerateOrder, OutOfRange
from .fields import AbelianField, _fixing_mod
from .residues import _euler_phi, _prime_factors, _proper_divisors


@dataclass(frozen=True)
class OrbitBlock:
    divisor: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class OrbitPartition:
    order: int
    field: AbelianField
    blocks: tuple[OrbitBlock, ...]

    @cached_property
    def _block_of(self) -> dict[int, int]:
        return {x: i for i, b in enumerate(self.blocks) for x in b.members}

    def locate(self, x: int) -> int:
        """Index of the unique block containing x."""
        if not 1 <= x < self.order:
            raise OutOfRange(f"{x} outside [1, {self.order})")
        return self._block_of[x]

    def to_json(self) -> dict:
        return {
            "n": self.order,
            "field": self.field.describe(),
            "blocks": [{"p": b.divisor, "members": list(b.members)} for b in self.blocks],
        }

    def validate(self) -> None:
        """Re-derive every structural property; raises on any failure.

        The labels are the proper divisors of n, ascending. Over p, with
        g = n/p and d = gcd(conductor, g), there are phi(g)/h blocks of
        h = phi(g) |H mod d| / phi(d) members, each block ascending with
        its members in one class mod p*d under H mod d, the blocks in order
        of first member, every member a multiple of p in [1, n). All n - 1
        members are distinct, so blocks are disjoint and strictly ascending.

        This forces gcd(x, n) = p over p, by descent from the largest proper
        divisor: if the blocks over each proper multiple q of p fill the
        phi(n/q) residues of gcd q, the multiples of p left to the blocks
        over p have gcd p, and they hold phi(g) = phi(n/p) of them: all.
        """
        n = self.order
        by_divisor = {}
        for p, group in groupby(self.blocks, attrgetter("divisor")):
            if p in by_divisor:
                raise ValueError("blocks out of canonical order")
            by_divisor[p] = list(map(attrgetter("members"), group))
        if tuple(by_divisor) != _proper_divisors(n):
            raise ValueError(f"block labels are not the proper divisors of {n}, ascending")
        seen = set()
        for p, found in by_divisor.items():
            g = n // p
            d, reduced = _fixing_mod(self.field, g)
            h = _euler_phi(g) * len(reduced) // _euler_phi(d)
            if set(map(len, found)) != {h}:
                raise ValueError(f"blocks over divisor {p} are not all of size {h}")
            if len(found) != _euler_phi(g) // h:
                raise ValueError(f"wrong number of blocks over divisor {p}")
            if h > 1:  # a single member is ascending and in its own class
                pd = p * d
                for ms in found:
                    if list(ms) != sorted(ms):
                        raise ValueError(f"block of {ms[0]} over divisor {p} is not ascending")
                    if d > 1 and not set(map(mod, ms, repeat(pd))) <= {a * ms[0] % pd for a in reduced}:
                        raise ValueError(f"block of {ms[0]} over divisor {p} is not one Galois orbit")
            firsts = list(map(itemgetter(0), found))
            if not all(map(lt, firsts, firsts[1:])):
                raise ValueError("blocks out of canonical order")
            if firsts[0] < 1 or max(map(itemgetter(-1), found)) >= n:
                raise ValueError(f"a block over divisor {p} leaves [1, {n})")
            if p > 1 and any(map(mod, chain.from_iterable(found), repeat(p))):
                raise ValueError(f"a block over divisor {p} has a member that is not a multiple of {p}")
            seen.update(chain.from_iterable(found))
        if len(seen) != n - 1:
            raise ValueError("blocks overlap or do not cover 1..n-1")


def orbit_partition(n: int, field: AbelianField) -> OrbitPartition:
    """Build the orbit partition of {1, ..., n-1} for (n, field).

    The single-vertex loopless digraph (n = 1) is integral over every
    field; partitions start at n = 2.
    """
    if n < 2:
        raise DegenerateOrder(f"orbit partition needs n >= 2, got {n}")
    limits.check_modulus(n)
    return _partition_cached(n, field)


@lru_cache(maxsize=256)  # bounded: a partition of n near 10^5 takes megabytes
def _partition_cached(n: int, field: AbelianField) -> OrbitPartition:
    primes = _prime_factors(n)
    blocks = []
    for p in _proper_divisors(n):
        g = n // p
        d, reduced = _fixing_mod(field, g)
        unit = _coprime_flags(g, primes)
        classes = _classes(d, p, reduced, unit if d == g else _coprime_flags(d, primes))
        if d == g:
            found = classes  # one unit per class mod d: the class is the block
        else:
            # the members p*y, y = c mod d a unit mod g, are compress(range(p*c, n, p*d), unit[c::d])
            found = sorted(tuple(sorted(chain.from_iterable(
                compress(range(x, n, p * d), unit[x // p::d]) for x in cls))) for cls in classes)
        blocks += map(OrbitBlock, repeat(p), found)
    part = OrbitPartition(n, field, tuple(blocks))
    part.validate()
    return part


def _coprime_flags(m: int, primes) -> bytearray:
    """flags[y] = 1 exactly when gcd(y, m) = 1; primes holds those of m."""
    flags = bytearray(b"\1") * m
    for q in primes:
        if m % q == 0:
            flags[::q] = bytes(len(range(0, m, q)))
    return flags


def _classes(d: int, p: int, reduced, unit) -> list[tuple[int, ...]]:
    """The classes of the units c mod d (unit[c] = 1) under reduced, as
    ascending tuples of p*c in order of their smallest member."""
    if len(reduced) == 1:
        return list(zip(compress(range(0, p * d, p), unit)))
    free = bytearray(unit)
    classes = []
    k = free.find(1)
    while k >= 0:
        cls = sorted([a * k % d for a in reduced])
        for c in cls:
            free[c] = 0
        classes.append(tuple([p * c for c in cls]))
        k = free.find(1, k + 1)
    return classes


def r_count(n: int, field: AbelianField) -> int:
    """Total number of blocks: the sum over proper divisors p of the degree
    of the field's meet with Q(zeta_(n/p)), which is phi(d) over the size
    of the fixing subgroup reduced mod d = gcd(conductor, n/p)."""
    if n < 2:
        raise DegenerateOrder(f"r_count needs n >= 2, got {n}")
    limits.check_modulus(n)
    total = 0
    for p in _proper_divisors(n):
        d, reduced = _fixing_mod(field, n // p)
        q, rem = divmod(_euler_phi(d), len(reduced))
        assert rem == 0
        total += q
    return total
