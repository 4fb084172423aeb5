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
The build validates its own lists, one per block, then packs them.

A partition is stored flat: every member, block after block, in one
unsigned array, and one (divisor, block size, block count) triple per run
of consecutive blocks that share divisor and size; over a divisor every
block has the same size, so a built partition has one run per divisor and
holds about 4 bytes per residue. No other module reads this layout: one
lookup built on first use serves block(i), locate(x) and cover(S), and
``blocks`` is a view of OrbitBlock objects built on each access.

Blocks are ordered by (divisor, smallest member); block indices elsewhere
always refer to this canonical order. Tools that order blocks differently
should sort before comparing.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse, groupby, repeat
from operator import itemgetter, lt, mod

from . import limits
from .errors import OutOfRange
from .fields import AbelianField, _fixing_mod
from .records import Record
from .residues import _euler_phi, _prime_factors, _proper_divisors


class OrbitBlock(Record):
    _fields = ("divisor", "members")


class OrbitPartition(Record):
    """The blocks of (n, K), one after another in the 'I' array ``members``,
    and one (divisor, block size, block count) triple in ``runs`` per run
    of like blocks; from_blocks builds one from (divisor, members) pairs."""

    _fields = ("order", "field", "members", "runs")
    __hash__ = None  # the member array is mutable
    _NOWHERE = 0xFFFFFFFF  # the lookup's block index of a residue that no block holds

    @classmethod
    def from_blocks(cls, order: int, field: AbelianField, blocks) -> OrbitPartition:
        """Hold the (divisor, members) blocks as given, even unsorted,
        repeated or empty ones; validate() judges them. Members are held
        unsigned in 32 bits: one outside [0, 2^32) raises ValueError here."""
        pairs = ((p, list(ms)) for p, ms in blocks)
        return _pack(order, field, [(p, [ms for _, ms in grp]) for p, grp in groupby(pairs, itemgetter(0))])

    @property
    def block_count(self) -> int:
        return sum(k for _, _, k in self.runs)

    def slices(self):
        """(divisor, members) of each block in canonical order, members an
        array slice."""
        start = 0
        for p, h, k in self.runs:
            for _ in repeat(None, k):
                yield p, self.members[start:start + h]
                start += h

    @cached_property
    def _lookup(self) -> tuple[array, array, array]:
        """(starts, index, sizes): block i is members[starts[i]:starts[i + 1]], sizes[i] long, and block
        index[x] holds x, or _NOWHERE where none does; built in one walk on first use, never by a build."""
        sizes = array("I", chain.from_iterable(repeat(h, k) for _, h, k in self.runs))
        starts, index, first = array("I", accumulate(sizes, initial=0)), array("I", b"\xff" * (4 * self.order)), 0
        try:
            for p, h, k in self.runs:
                for j, x in enumerate(self.members[starts[first]:starts[first + k]]):
                    index[x] = first + j // h
                first += k
        except IndexError:  # only from_blocks holds a member past n - 1
            raise ValueError(f"a block over divisor {p} leaves [1, {self.order})") from None
        return starts, index, sizes

    def block(self, i: int) -> array:
        """The members of block i."""
        starts = self._lookup[0]
        if not 0 <= i < len(starts) - 1:
            raise IndexError(f"block index {i} outside [0, {len(starts) - 1})")
        return self.members[starts[i]:starts[i + 1]]

    @property
    def blocks(self) -> tuple[OrbitBlock, ...]:
        """Every block as an OrbitBlock; built afresh on each access, so
        read it once."""
        return tuple(OrbitBlock(p, tuple(ms)) for p, ms in self.slices())

    def locate(self, x: int) -> int:
        """Index of the unique block containing x."""
        if not 1 <= x < self.order:
            raise OutOfRange(f"{x} outside [1, {self.order})")
        if (i := self._lookup[1][x]) != self._NOWHERE:
            return i
        raise ValueError(f"no block holds {x}")

    def cover(self, members) -> tuple:
        """(covered block indices, None) if S, distinct residues in [1, n),
        is a union of blocks: the blocks it touches hold |S| members. Else
        (None, (i, missing, present)): the first touched block i that S
        covers in part, its members split in block order. A member outside
        [1, n) raises OutOfRange; a repeated one, or untiled blocks, ValueError."""
        if members and not 1 <= min(members) <= max(members) < self.order:
            raise OutOfRange(f"set spans {min(members)}..{max(members)}, not inside [1, {self.order})")
        if len(set(members)) != len(members):
            raise ValueError("set repeats a member")
        return self._cover(members)

    def _cover(self, members) -> tuple:
        """cover for a CirculantSpec's connection set, in range and without
        repeats by construction: the checks' passes over S would double the
        cost of a call."""
        try:
            touched, union = self._union(members)
        except IndexError:  # S holds a residue that no block holds
            index = self._lookup[1]
            raise ValueError(f"no block holds {min(x for x in members if index[x] == self._NOWHERE)}") from None
        if union:
            return tuple(sorted(touched)), None
        starts, inside = self._lookup[0], set(members).__contains__
        for i in sorted(touched):
            block = self.members[starts[i]:starts[i + 1]].tolist()
            present = tuple(filter(inside, block))
            if len(present) < len(block):
                return None, (i, tuple(filterfalse(inside, block)), present)
        raise ValueError("the blocks that S touches overlap or repeat a member")

    def _union(self, members) -> tuple[set, bool]:
        """(the blocks that S touches, whether they hold |S| members): on blocks that tile [1, n), whether
        S, distinct residues in [1, n), is a union of blocks. A residue no block holds raises IndexError."""
        _, index, sizes = self._lookup
        # one C-level gather; itemgetter returns a bare item for a single key
        touched = set(itemgetter(*members)(index)) if len(members) > 1 else {index[x] for x in members}
        return touched, sum(map(sizes.__getitem__, touched)) == len(members)

    def _check_tiling(self) -> None:
        """Raise ValueError unless the blocks tile [1, n): n - 1 members hold
        every residue of [1, n). Then _union alone decides every S."""
        if len(self.members) != self.order - 1 or self._lookup[1][1:].count(self._NOWHERE):
            raise ValueError(f"the blocks overlap, repeat a member or leave one of [1, {self.order}) out")

    def to_json(self) -> dict:
        return {
            "n": self.order,
            "field": self.field.describe(),
            "blocks": [{"p": p, "members": ms.tolist()} for p, ms in self.slices()],
        }

    def validate(self) -> None:
        """Re-derive every structural property; raises on any failure.

        The labels are the proper divisors of n, ascending. Over p, with
        g = n/p and d = gcd(conductor, g), there are phi(d)/|H mod d| blocks
        (the degree that _fixing_mod keeps) of phi(g) over that many members,
        each block ascending with its members in one class mod p*d under
        H mod d, the blocks in order of first member, every member a
        multiple of p in [1, n). All n - 1 members are distinct, so blocks
        are disjoint and strictly ascending.

        This forces gcd(x, n) = p over p, by descent from the largest proper
        divisor: if the blocks over each proper multiple q of p fill the
        phi(n/q) residues of gcd q, the multiples of p left to the blocks
        over p have gcd p, and they hold phi(g) = phi(n/p) of them: all.
        """
        _check(self.order, self.field,
               [(p, [ms.tolist() for _, ms in grp]) for p, grp in groupby(self.slices(), itemgetter(0))])


def _check(n: int, field: AbelianField, groups) -> None:
    """The checks of OrbitPartition.validate, on one (p, blocks) per run of
    blocks over a divisor p, in stored order, each block a list: the
    build's own, before packing, or the stored blocks that validate() lists."""
    labels = [p for p, _ in groups]
    if len(set(labels)) < len(labels):
        raise ValueError("blocks out of canonical order")
    if tuple(labels) != _proper_divisors(n):
        raise ValueError(f"block labels are not the proper divisors of {n}, ascending")
    seen = set()
    for p, blocks in groups:
        d, reduced, count = _fixing_mod(field, n // p)
        h = _euler_phi(n // p) // count
        if set(map(len, blocks)) != {h}:
            raise ValueError(f"blocks over divisor {p} are not all of size {h}")
        if len(blocks) != count:
            raise ValueError(f"wrong number of blocks over divisor {p}")
        if h > 1:  # a single member is ascending and in its own class
            pd = p * d
            for ms in blocks:
                if ms != sorted(ms):
                    raise ValueError(f"block of {ms[0]} over divisor {p} is not ascending")
                if d > 1 and not set(map(mod, ms, repeat(pd))) <= {a * ms[0] % pd for a in reduced}:
                    raise ValueError(f"block of {ms[0]} over divisor {p} is not one Galois orbit")
        firsts = [ms[0] for ms in blocks]
        if not all(map(lt, firsts, firsts[1:])):
            raise ValueError("blocks out of canonical order")
        if firsts[0] < 1 or max(map(itemgetter(-1), blocks)) >= n:
            raise ValueError(f"a block over divisor {p} leaves [1, {n})")
        # a block that passed the orbit test is its first member times units mod p*d, so its
        # first member decides divisibility by p; d = 1 leaves one block
        if p > 1 and any(map(mod, firsts if d > 1 else blocks[0], repeat(p))):
            raise ValueError(f"a block over divisor {p} has a member that is not a multiple of {p}")
        seen.update(chain.from_iterable(blocks))
    if len(seen) != n - 1:
        raise ValueError("blocks overlap or do not cover 1..n-1")


def orbit_partition(n: int, field: AbelianField) -> OrbitPartition:
    """Build the orbit partition of {1, ..., n-1} for (n, field).

    The single-vertex loopless digraph (n = 1) is integral over every
    field; partitions start at n = 2.
    """
    return _partition_cached(limits.checked(n, 2, "order"), field)


@limits.Memo  # about 4.3 bytes per residue, 0.43 MB near n = 10^5
def _partition_cached(n: int, field: AbelianField) -> OrbitPartition:
    primes = _prime_factors(n)
    groups = []
    for p in _proper_divisors(n):
        g = n // p
        d, reduced, _ = _fixing_mod(field, g)
        unit = _coprime_flags(g, primes)
        classes = _classes(d, p, reduced, unit if d == g else _coprime_flags(d, primes))
        if d < g:
            classes = sorted(_class_members(n, p, d, unit, cls) for cls in classes)
        groups.append((p, classes))
    _check(n, field, groups)
    return _pack(n, field, groups)


def _pack(n: int, field: AbelianField, groups) -> OrbitPartition:
    """The OrbitPartition of groups, one (p, blocks) per run of blocks over
    a divisor p, each block a list: one (p, block size, block count) run
    per run of like blocks. A member outside [0, 2^32) raises ValueError."""
    members = array("I")
    for p, blocks in groups:
        try:
            for ms in blocks:
                members.fromlist(ms)
        except OverflowError:
            raise ValueError(f"a block over divisor {p} leaves [1, {n})") from None
    runs = tuple((p, h, len(list(grp))) for p, blocks in groups for h, grp in groupby(map(len, blocks)))
    return OrbitPartition(n, field, members, runs)


def _class_members(n: int, p: int, d: int, unit: bytearray, cls) -> list[int]:
    """The members p*y, y = c mod d a unit mod n/p, of the classes p*c in
    cls: each c gives the ascending run compress(range(p*c, n, p*d),
    unit[c::d]), and the runs are merged."""
    runs = [compress(range(x, n, p * d), unit[x // p::d]) for x in cls]
    return list(runs[0]) if len(runs) == 1 else sorted(chain.from_iterable(runs))  # one run is ascending


def _coprime_flags(m: int, primes) -> bytearray:
    """flags[y] = 1 exactly when gcd(y, m) = 1; primes holds those of m."""
    flags = bytearray(b"\1") * m
    for q in primes:
        if m % q == 0:
            flags[::q] = bytes(len(range(0, m, q)))
    return flags


def _classes(d: int, p: int, reduced, unit) -> list[list[int]]:
    """The classes of the units c mod d (unit[c] = 1) under reduced, as
    ascending lists of p*c in order of their smallest member."""
    if len(reduced) == 1:
        return [[x] for x in compress(range(0, p * d, p), unit)]
    free = bytearray(unit)
    classes = []
    k = free.find(1)
    while k >= 0:
        cls = sorted([a * k % d for a in reduced])
        for c in cls:
            free[c] = 0
        classes.append([p * c for c in cls])
        k = free.find(1, k + 1)
    return classes


def r_count(n: int, field: AbelianField) -> int:
    """Total number of blocks: the sum over proper divisors p of the degree
    of the field's meet with Q(zeta_(n/p)), which _fixing_mod keeps."""
    n = limits.checked(n, 2, "order")
    return sum(_fixing_mod(field, n // p)[2] for p in _proper_divisors(n))
