"""Reference description of the orbit blocks, computed apart from circint.

This module never imports circint. It describes the blocks of (n, K) the
way the paper does, by a key on each residue x in [1, n) with p = gcd(x, n)
and y = x / p:

- K = Q: the key is p alone (So's gcd classes, W. So, "Integral circulant
  graphs", Discrete Math. 306, 2006);
- K quadratic of discriminant D: the key is (p, chi_D(y)) when |D| divides
  n / p, and p alone otherwise;
- K = Q(zeta_m): the key is (p, y mod gcd(m, n / p)).

D(n, S) is integral over K exactly when S is a union of key classes. The
block count is the sum, over divisors g > 1 of n, of the degree of
K intersected with Q(zeta_g). Blocks are ordered by (p, smallest member),
the order circint documents for block indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


def kronecker(a: int, b: int) -> int:
    """The Kronecker symbol (a|b)."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    sign = 1
    if b < 0:
        b = -b
        if a < 0:
            sign = -1
    while b % 2 == 0:
        b //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                sign = -sign
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            sign = -sign
        a %= b
    return sign if b == 1 else 0


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _squarefree(d: int) -> bool:
    return all(abs(d) % (q * q) for q in range(2, int(abs(d) ** 0.5) + 1))


@dataclass(frozen=True)
class RefField:
    """A field of the benchmark's spec language: kind 'Q', 'quad' with a
    fundamental discriminant, or 'cyclo' with the order m of its root."""

    spec: str
    kind: str
    param: int = 1

    @property
    def conductor(self) -> int:
        return {"Q": 1, "quad": abs(self.param), "cyclo": self.param}[self.kind]

    def degree_at(self, g: int) -> int:
        """Degree over Q of K intersected with Q(zeta_g)."""
        if self.kind == "Q":
            return 1
        if self.kind == "quad":
            return 2 if g % abs(self.param) == 0 else 1
        return euler_phi(gcd(self.param, g))


def parse(spec: str) -> RefField:
    """Parse Q, Qi, sqrt:<d> and cyclo:<m>."""
    if spec == "Q":
        return RefField(spec, "Q")
    if spec == "Qi":
        return RefField(spec, "quad", -4)
    if spec.startswith("sqrt:"):
        d = int(spec[5:])
        if d in (0, 1) or not _squarefree(d):
            raise ValueError(f"sqrt:{d} is not a quadratic field")
        return RefField(spec, "quad", d if d % 4 == 1 else 4 * d)
    if spec.startswith("cyclo:"):
        m = int(spec[6:])
        if m < 1:
            raise ValueError(f"bad cyclotomic order in {spec!r}")
        return RefField(spec, "cyclo", m)
    raise ValueError(f"unsupported field spec {spec!r}")


def block_count(n: int, field: RefField) -> int:
    return sum(field.degree_at(g) for g in divisors(n) if g > 1)


def key(x: int, n: int, field: RefField) -> tuple[int, int]:
    p = gcd(x, n)
    g, y = n // p, x // p
    if field.kind == "quad":
        return (p, kronecker(field.param, y) if g % abs(field.param) == 0 else 0)
    if field.kind == "cyclo":
        return (p, y % gcd(field.param, g))
    return (p, 0)


def blocks(n: int, field: RefField) -> list[tuple[int, tuple[int, ...]]]:
    """Key classes as (p, members), in canonical block order."""
    classes: dict[tuple[int, int], list[int]] = {}
    for x in range(1, n):
        classes.setdefault(key(x, n, field), []).append(x)
    return sorted(((k[0], tuple(ms)) for k, ms in classes.items()), key=lambda b: (b[0], b[1][0]))


def is_union_of_blocks(n: int, field: RefField, members) -> bool:
    chosen = set(members)
    return all(set(ms) <= chosen or not chosen.intersection(ms) for _, ms in blocks(n, field))


def key_codes(n: int, field: RefField) -> np.ndarray:
    """Key of every x in [1, n) as one int64 code, index x - 1."""
    x = np.arange(1, n, dtype=np.int64)
    p = np.gcd(x, n)
    g, y = n // p, x // p
    if field.kind == "quad":
        d = abs(field.param)
        chi = np.array([kronecker(field.param, r) for r in range(d)], dtype=np.int64)
        part = np.where(g % d == 0, chi[y % d] + 2, 0)
    elif field.kind == "cyclo":
        part = y % np.gcd(g, field.param)
    else:
        part = np.zeros_like(x)
    return p * (field.conductor + 3) + part


def partition_matches(n: int, field: RefField, divisors_of_blocks, members_of_blocks) -> str | None:
    """Compare a partition given block by block with the key classes.

    Returns None when the blocks are exactly the key classes, each with its
    gcd divisor, in canonical order; otherwise a description of the first
    difference found.
    """
    sizes = np.fromiter((len(ms) for ms in members_of_blocks), dtype=np.int64)
    r = block_count(n, field)
    if len(sizes) != r:
        return f"{len(sizes)} blocks, expected {r}"
    if (sizes == 0).any():
        return "empty block"
    flat = np.fromiter((x for ms in members_of_blocks for x in ms), dtype=np.int64, count=int(sizes.sum()))
    if flat.size != n - 1 or not np.array_equal(np.sort(flat), np.arange(1, n)):
        return "blocks do not cover 1..n-1 exactly once"
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    divs = np.fromiter(divisors_of_blocks, dtype=np.int64, count=r)
    if not np.array_equal(np.gcd(flat, n), np.repeat(divs, sizes)):
        return "a member's gcd with n differs from its block's divisor"
    codes = key_codes(n, field)[flat - 1]
    if not np.array_equal(np.minimum.reduceat(codes, starts), np.maximum.reduceat(codes, starts)):
        return "a block mixes key classes"
    if np.unique(codes).size != r:
        return "the key classes do not number the reference block count"
    order = np.stack([divs, np.minimum.reduceat(flat, starts)])
    if not np.array_equal(np.lexsort(order[::-1]), np.arange(r)):
        return "blocks out of canonical order"
    return None
