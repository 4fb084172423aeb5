"""The orbit partition of {1, ..., n-1} attached to a pair (n, K).

Residues are first split by gcd with n; the class with gcd p is p times
the units modulo g = n/p, and the Galois subgroup of K at modulus g acts
on it by multiplication on the unit part. The orbits of that action are
the blocks. A connection set yields a digraph integral over K exactly
when it is a union of whole blocks, which is what downstream modules
consume.

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
from .fields import AbelianField, galois_subgroup_mod
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
        """Re-derive every structural property; raises on any failure."""
        n = self.order
        seen = set()
        for b in self.blocks:
            if not b.members:
                raise ValueError("empty block")
            for x in b.members:
                if not 1 <= x < n or x in seen:
                    raise ValueError(f"member {x} out of range or duplicated")
                seen.add(x)
                if gcd(x, n) != b.divisor:
                    raise ValueError(f"gcd({x}, {n}) != {b.divisor}")
        if len(seen) != n - 1:
            raise ValueError("blocks do not cover 1..n-1")
        sizes: dict[int, set[int]] = {}
        counts: dict[int, int] = {}
        for b in self.blocks:
            sizes.setdefault(b.divisor, set()).add(len(b.members))
            counts[b.divisor] = counts.get(b.divisor, 0) + 1
        for p, found in sizes.items():
            g = n // p
            h = len(galois_subgroup_mod(self.field, g))
            if found != {h}:
                raise ValueError(f"blocks over divisor {p} have sizes {found}, expected {h}")
            if counts[p] != euler_phi(g) // h:
                raise ValueError(f"wrong number of blocks over divisor {p}")
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
    blocks = []
    for p in proper_divisors(n):
        g = n // p
        acts = galois_subgroup_mod(field, g).elements
        seen: set[int] = set()
        p_blocks = []
        for x in range(1, g):
            if x in seen or gcd(x, g) != 1:
                continue
            orbit = sorted(a * x % g for a in acts)
            assert len(set(orbit)) == len(acts), "group action is not free"
            seen.update(orbit)
            p_blocks.append(tuple(p * y for y in orbit))
        p_blocks.sort(key=lambda ms: ms[0])
        blocks.extend(OrbitBlock(p, ms) for ms in p_blocks)
    part = OrbitPartition(n, field, tuple(blocks))
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
        d = gcd(field.conductor, n // p)
        q, rem = divmod(euler_phi(d), len({h % d for h in field.fixing_subgroup.elements}))
        assert rem == 0
        total += q
    return total
