"""The orbit partition of {1, ..., n-1} attached to a pair (n, K).

Residues are first split by gcd with n; the class with gcd p is p times
the units modulo g = n/p. Its blocks are the orbits of the Galois subgroup
of K at modulus g, that is (by CRT) the classes of units mod g with one
key: their residue mod d = gcd(conductor, g) up to the fixing subgroup
reduced mod d. A connection set yields a digraph integral over K exactly
when it is a union of whole blocks, which is what downstream modules consume.

Blocks are ordered by (divisor, smallest member); block indices elsewhere
always refer to this canonical order. Tools that order blocks differently
should sort before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from . import limits
from .errors import DegenerateOrder, OutOfRange
from .fields import AbelianField, _fixing_mod
from .residues import euler_phi, proper_divisors


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
        """Re-derive every structural property; raises on any failure. Over
        divisor p, with g = n/p and d = gcd(conductor, g), a block is one orbit
        of |H_g| = phi(g) |H mod d| / phi(d) units with keys in one class mod d."""
        n = self.order
        seen = set()
        by_divisor = {}
        for b in self.blocks:
            ms = b.members
            if not ms or min(ms) < 1 or max(ms) >= n or not seen.isdisjoint(ms):
                raise ValueError(f"a block over divisor {b.divisor} is empty, out of range or overlaps another")
            seen.update(ms)
            if {gcd(x, n) for x in ms} != {b.divisor}:
                raise ValueError(f"block of {ms[0]} has a member whose gcd with {n} is not {b.divisor}")
            by_divisor.setdefault(b.divisor, []).append(ms)
        if len(seen) != n - 1:
            raise ValueError("blocks do not cover 1..n-1")
        for p, found in by_divisor.items():
            g = n // p
            d, reduced = _fixing_mod(self.field, g)
            h = euler_phi(g) * len(reduced) // euler_phi(d)
            if {len(ms) for ms in found} != {h}:
                raise ValueError(f"blocks over divisor {p} are not all of size {h}")
            if len(found) != euler_phi(g) // h:
                raise ValueError(f"wrong number of blocks over divisor {p}")
            for ms in found:
                if not {x // p % d for x in ms} <= {a * (ms[0] // p) % d for a in reduced}:
                    raise ValueError(f"block of {ms[0]} over divisor {p} is not one Galois orbit")
        keys = [(b.divisor, b.members[0]) for b in self.blocks]
        if keys != sorted(keys):
            raise ValueError("blocks out of canonical order")


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
    # per divisor p: d, H mod d, the key table mod d (filled on first sight), the blocks
    state = {}
    for p in proper_divisors(n):
        d, reduced = _fixing_mod(field, n // p)
        state[p] = (d, reduced, [None] * d, [])
    for x in range(1, n):
        p = gcd(x, n)
        d, reduced, table, found = state[p]
        key = x // p % d
        members = table[key]
        if members is None:
            found.append(members := [])
            for a in reduced:
                table[a * key % d] = members
        members.append(x)
    part = OrbitPartition(n, field, tuple(OrbitBlock(p, tuple(ms)) for p, (*_, found) in state.items() for ms in found))
    part.validate()
    return part


def r_count(n: int, field: AbelianField) -> int:
    """Total number of blocks: the sum over proper divisors p of the degree
    of the field's meet with Q(zeta_(n/p)), which is phi(d) over the size
    of the fixing subgroup reduced mod d = gcd(conductor, n/p)."""
    if n < 2:
        raise DegenerateOrder(f"r_count needs n >= 2, got {n}")
    total = 0
    for p in proper_divisors(n):
        d, reduced = _fixing_mod(field, n // p)
        q, rem = divmod(euler_phi(d), len(reduced))
        assert rem == 0
        total += q
    return total
