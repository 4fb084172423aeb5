"""Integrality decisions and enumeration of integral connection sets.

A circulant digraph D(n, S) is integral over an abelian field exactly when
S is a union of whole orbit blocks. Enumeration therefore walks the
2^r block subsets; "how many integral digraphs" here always means how many
distinct connection sets, with no identification of isomorphic digraphs.
"""

from __future__ import annotations

from itertools import islice
from operator import index, lt

from . import limits
from .errors import DegenerateOrder, InvalidSet, TooManyOrbits
from .fields import AbelianField, field_gaussian
from .orbits import _partition_cached, orbit_partition, r_count
from .records import Record


class CirculantSpec(Record):
    """A circulant digraph D(n, S): order n and loop-free connection set."""

    _fields = ("order", "connection_set")

    def __post_init__(self):
        n = self.__dict__["order"] = limits.integer(self.order, "order")  # a numpy integer becomes an int
        if n < 2:
            raise DegenerateOrder(f"need at least 2 vertices, got {n}")
        c = self.connection_set
        try:  # strictly increasing integers inside [1, n): one pass at C speed
            if not c or (c[0] >= 1 and index(c[-1]) < n and all(map(lt, map(index, c), c[1:]))):
                return
        except TypeError:  # a member that is not an integer, named below
            pass
        for s in c:
            if not hasattr(type(s), "__index__"):  # what index() takes
                raise InvalidSet(f"connection element {s!r} is not an integer")
            if s == 0:
                raise InvalidSet("0 is not allowed in a connection set: a loop adds 1 to "
                                 "every eigenvalue and never changes integrality")
            if not 1 <= s < self.order:
                raise InvalidSet(f"connection element {s} outside [1, {self.order})")
        if list(c) != sorted(set(c)):
            raise InvalidSet("connection set must be strictly increasing")

    @classmethod
    def of(cls, order: int, members) -> "CirculantSpec":
        """Build from any iterable of residues, normalizing order and
        duplicates."""
        members = tuple(members)
        try:  # index() takes every integer type, before 1.0 can stand in for 1 in the set
            return cls(order, tuple(sorted(set(map(index, members)))))
        except TypeError:  # a member that is not an integer, which the constructor names
            return cls(order, members)


class BlockViolation(Record):
    _fields = ("block_index", "missing", "present")


class IntegralityVerdict(Record):
    _fields = ("integral", "block_indices", "violation")
    _defaults = {"block_indices": None, "violation": None}

    def __post_init__(self):
        if self.integral != (self.block_indices is not None) or self.integral != (self.violation is None):
            raise ValueError("verdict carries exactly one of block_indices / violation")


def is_integral(spec: CirculantSpec, field: AbelianField) -> IntegralityVerdict:
    """Decide integrality over the field: the connection set must be a
    union of whole orbit blocks. The verdict carries either the covered
    block indices or the first partially covered block as witness."""
    limits.check_modulus(spec.order)
    covered, witness = _partition_cached(spec.order, field)._cover(spec.connection_set)
    if witness is None:
        return IntegralityVerdict(True, block_indices=covered)
    return IntegralityVerdict(False, violation=BlockViolation(*witness))


def is_gauss_integral(spec: CirculantSpec) -> IntegralityVerdict:
    """Integrality over the Gaussian rationals (eigenvalues in Z[i])."""
    return is_integral(spec, field_gaussian())


def count_integral(n: int, field: AbelianField) -> int:
    """Exact number of integral connection sets: 2 to the block count."""
    return 1 << r_count(n, field)


def _integral_sets(n: int, field: AbelianField, limit: int | None):
    """(the blocks the masks reach, a stream of (covered block indices,
    sorted members) in counter order); the checks and the walk run on call."""
    if limit is not None and (limit := limits.integer(limit, "limit")) < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    part = orbit_partition(n, field)
    r = part.block_count
    total = 1 << r
    cap = limits.enum_budget()
    if limit is None and total > cap:
        raise TooManyOrbits(f"2^{r} sets exceeds budget {cap}; pass a limit (--limit) or raise {limits.ENV_ENUM}")
    stop = total if limit is None else min(total, limit)
    # the last mask is the largest, so no mask reaches a block past its top bit
    blocks = [ms.tolist() for _, ms in islice(part.slices(), max(stop - 1, 0).bit_length())]
    return blocks, _walk(blocks, stop)


def _walk(blocks: list, stop: int):
    """(covered block indices, sorted members) of masks 0, ..., stop - 1. Mask k is block t, its lowest
    set bit, over k less bit t: the latest mask with that one's lowest set bit, whose set is kept. So a
    set is one merge of two ascending runs. Later sets share the lists yielded: never change them."""
    last = [None] * len(blocks) + [([], [])]  # the latest set by lowest set bit; mask 0's at -1
    for k in range(stop):
        rest = k & (k - 1)
        covered, members = last[(rest & -rest).bit_length() - 1]
        if k:
            t = (k ^ rest).bit_length() - 1
            merged = blocks[t] + members
            merged.sort()  # Timsort merges the two runs
            covered, members = last[t] = [t] + covered, merged
        yield covered, members


def enumerate_integral(n: int, field: AbelianField, limit: int | None = None):
    """Stream every integral connection set exactly once.

    Order is the binary counter over canonical block indices (bit i covers
    block i): the empty set comes first and all of {1, ..., n-1} last.
    Without an explicit ``limit`` the full count must fit the enumeration
    budget; a negative ``limit`` raises ValueError.
    """
    return (CirculantSpec(n, tuple(members)) for _, members in _integral_sets(n, field, limit)[1])


def verdict_to_json(spec: CirculantSpec, field: AbelianField, verdict: IntegralityVerdict) -> dict:
    out = {
        "n": spec.order,
        "S": list(spec.connection_set),
        "field": field.describe(),
        "integral": verdict.integral,
        "blocks": list(verdict.block_indices) if verdict.integral else None,
        "violation": None,
    }
    if verdict.violation is not None:
        v = verdict.violation
        out["violation"] = {"block": v.block_index, "missing": list(v.missing), "present": list(v.present)}
    return out
