"""Verification harnesses: block test vs exact oracle, block-sum checks.

cross_verify runs the fast union-of-blocks decision and the exact
eigenvalue oracle side by side over subsets of {1, ..., n-1}, either
exhaustively, by subset size, or on seeded random samples (each subset
drawn when the sweep reaches it, as n-1 independent fair bits, bit i
covering residue i+1); either way mismatches are sorted by subset.
lemma1_check tests what the block construction promises: every block's
power sum P_B(s), the spectrum of D(n, B), lies in the target field (a
rejected block is searched once per gcd class of s), every block is one
Galois orbit, and blocks have pairwise disjoint nonempty supports.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import chain, combinations, repeat
from math import gcd

from . import limits
from .errors import OutOfRange, UnsupportedLattice
from .fields import AbelianField, galois_subgroup_mod
from .integrality import CirculantSpec
from .oracle import GAUSSIAN_LATTICE, RATIONAL_LATTICE, _decide, _divisor_gathers, _moved, numeric_lattice_check
from .orbits import orbit_partition
from .records import Record
from .residues import _proper_divisors


class VerificationReport(Record):
    _fields = ("n", "field", "mode", "cases_checked", "mismatches", "seed", "elapsed_ms")

    def __post_init__(self):
        if self.cases_checked < 1:
            raise ValueError("a report must cover at least one case")

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self, include_elapsed: bool = True) -> dict:
        out = {
            "n": self.n,
            "field": self.field,
            "mode": self.mode,
            "cases": self.cases_checked,
            "mismatches": list(self.mismatches),
            "seed": self.seed,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _subsets(n: int, samples: int | None, seed: int):
    if samples is None:
        limits.check_exhaustive(n)
        return chain.from_iterable(combinations(range(1, n), k) for k in range(n)), 1 << (n - 1), "exhaustive", None
    if (samples := limits.integer(samples, "samples")) < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = random.Random(seed)
    return (_members(rng.getrandbits(n - 1)) for _ in range(samples)), samples, "sample", seed


def _members(mask: int) -> tuple[int, ...]:
    """Bit i covers residue i + 1: one pass over bin(mask), not a shift per bit."""
    return tuple(i for i, b in enumerate(reversed(bin(mask)), 1) if b == "1")


def _sweep(n: int, field: AbelianField, samples: int | None, seed: int, mode: str | None,
           decider) -> VerificationReport:
    """Compare decide(members) with the exact oracle on every set of the
    sweep, decide = decider() taken once the order has been checked against
    the modulus bound, so neither side checks it or looks up its tables
    again per set. The report is named ``mode``, or after the sweep itself
    ("exhaustive" or "sample") when that is None."""
    start = time.perf_counter()
    n = limits.checked(n, 2, "order")  # before n - 1 random bits are drawn per sample
    subsets, cases, sweep_mode, used_seed = _subsets(n, samples, seed)
    decide, tables = decider(), _divisor_gathers(n, field)
    mismatches = []
    for members in subsets:
        got = decide(members)
        expected = _decide(tables, n, members)
        if got != expected:
            mismatches.append({"S": list(members), "expected": expected, "got": got})
    mismatches.sort(key=lambda m: m["S"])
    elapsed = int((time.perf_counter() - start) * 1000)
    return VerificationReport(n, field.describe(), mode or sweep_mode, cases, tuple(mismatches), used_seed, elapsed)


def cross_verify(n: int, field: AbelianField, *, samples: int | None = None,
                 seed: int = 0) -> VerificationReport:
    """Compare is_integral against oracle_is_integral subset by subset.

    samples=None sweeps all 2^(n-1) subsets (n capped by the exhaustive
    bound); otherwise that many seeded random subsets are drawn. Mismatch
    entries record the subset with the oracle verdict as expected value,
    sorted by subset. Blocks that do not tile [1, n) raise ValueError
    before the first subset.
    """
    def decider():
        part = orbit_partition(n, field)
        part._check_tiling()  # then the sizes of the blocks S touches decide S, with no witness built
        return lambda members: part._union(members)[1]

    return _sweep(n, field, samples, seed, None, decider)


def lattice_cross_verify(n: int, field: AbelianField, tol: float = 1e-6, *,
                         samples: int | None = None, seed: int = 0) -> VerificationReport:
    """Floating-point sanity sweep: lattice proximity vs the exact oracle.

    Supported only for the rationals (rational-integer lattice) and the
    Gaussian rationals (Gaussian-integer lattice), decided from the field
    rather than its spec: degree 1 is Q, and degree 2 with a fixing
    subgroup trivial mod 4 contains i, so it is Q(i). Advisory by design.
    """
    if field.degree == 1:
        lattice = RATIONAL_LATTICE
    elif field.degree == 2 and galois_subgroup_mod(field, 4).elements == (1,):
        lattice = GAUSSIAN_LATTICE
    else:
        raise UnsupportedLattice(f"numeric check supports Q and Qi only, not {field.describe()}")
    return _sweep(n, field, samples, seed, "numeric",
                  lambda: lambda members: numeric_lattice_check(CirculantSpec(n, members), lattice, tol))


def lemma1_check(n: int, field: AbelianField) -> VerificationReport:
    """Check the testable block properties in exact arithmetic.

    One case per (block, frequency) pair checks that the power sum P_B(s),
    the eigenvalue of D(n, B) at s, lies in the field: one oracle decision
    decides a block of distinct members in [1, n), and one it accepts that
    holds k > 1 orbits of H, the Galois subgroup at modulus n, is recorded
    with k. Any other nonempty block is searched (LimitExceeded above the
    exact-order bound) once per proper divisor d of n: P_B(d*u), u a unit,
    is the image of P_B(d) under zeta -> zeta^u, which commutes with H, so
    the first h in H that moves P_B(d) is recorded at every s with
    gcd(s, n) = d. P_B(d) has order n/d and H acts on it mod n/d, so the
    search builds at most log2|H| + 1 images of length n/d (_moved skips
    the stabilizer it has found). One case per block pair checks disjoint
    supports; only blocks that hold a repeated residue are intersected.
    """
    start = time.perf_counter()
    n = limits.checked(n, 2, "order")
    part = orbit_partition(n, field)
    tables = _divisor_gathers(n, field)
    (_, fixers, leader_of, orbit_size), mismatches, flat = tables, [], []
    for bi, (_, block) in enumerate(part.slices()):
        members = tuple(sorted(block))
        flat.extend(members)
        if not members:
            mismatches.append({"block": bi, "empty": True})
        elif 0 < members[0] and members[-1] < n and len(set(members)) == len(members) and _decide(tables, n, members):
            leaders = set(map(leader_of.__getitem__, members))
            if [len(members)] != [orbit_size[r] for r in leaders]:  # not one whole orbit
                mismatches.append({"block": bi, "orbits": len(leaders)})
        else:  # rejected, or members repeated or out of range: only a corrupted partition
            limits.check_order(n)
            for x in block:
                if not 1 <= x < n:
                    raise OutOfRange(f"connection element {x} outside [1, {n})")
            moved = {d: _moved(n // d, fixers, [(x % (n // d), 1) for x in members]) for d in _proper_divisors(n)}
            by_s = map(moved.__getitem__, map(gcd, range(1, n), repeat(n)))  # s = 1, ..., n - 1
            mismatches.extend({"block": bi, "s": s, "moved_by": a} for s, a in enumerate(by_s, 1) if a)
    if len(set(flat)) < len(flat):
        repeated = {x for x, k in Counter(flat).items() if k > 1}  # every overlap lies in these
        holders = [(i, set(block)) for i, (_, block) in enumerate(part.slices()) if not repeated.isdisjoint(block)]
        for (i, first), (j, second) in combinations(holders, 2):
            overlap = first & second
            if overlap:
                mismatches.append({"blocks": [i, j], "overlap": sorted(overlap)})
    r = part.block_count
    cases = (n - 1) * r + r * (r - 1) // 2
    elapsed = int((time.perf_counter() - start) * 1000)
    return VerificationReport(n, field.describe(), "lemma1", cases, tuple(mismatches), None, elapsed)
