"""Eigenvalue-level integrality oracle, plus floating-point sanity checks.

The exact path decides integrality straight from the definition: every
eigenvalue lies in a cyclotomic ring, so it lies in the target field
exactly when the field's Galois subgroup H fixes it, outright when its
coefficients are constant on the H-orbits of positions. This file
deliberately knows nothing about orbit blocks; it is the independent side
of every cross-check.

The numeric helpers are advisory only. Sums of roots of unity can sit
close to lattice points by accident, so nothing here lets floating point
overrule the exact decision.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter

from . import cyclotomic, limits
from .errors import UnsupportedLattice
from .fields import AbelianField, _galois_subgroup
from .residues import _proper_divisors

RATIONAL_LATTICE = "rational-integers"
GAUSSIAN_LATTICE = "gaussian-integers"


def oracle_is_integral(spec, field: AbelianField) -> bool:
    """True iff every adjacency eigenvalue of D(n, S) is fixed by every
    element of the field's Galois subgroup H at modulus n, decided in exact
    cyclotomic arithmetic.

    zeta -> zeta^h sends the eigenvalue at frequency r to the one at h*r,
    so all are fixed outright when h*S = S for every h in H, that is, when
    the H-orbits that S meets hold |S| residues. Otherwise, as
    the eigenvalue at d*u, u a unit, is the image of the one at d and the
    Galois group is abelian, only the proper divisors d of n are tested.
    The eigenvalue at d has order m = n/d, its coefficients the counts of
    S mod m, and H acts on it as the Galois subgroup at modulus m. It is
    fixed outright when the counts are constant on the orbits of that
    subgroup, always so when the subgroup is trivial; else it is compared
    with its image under each other element, until one differs. The orders
    m are taken increasing, shortest first; at m = n the counts are the
    indicator of S, which the failed outright test showed is not constant
    on the H-orbits, so only the images are compared there.
    """
    n = spec.order
    limits.check_modulus(n)
    return _decide(_divisor_gathers(n, field), n, spec.connection_set)


def _decide(tables, n: int, members) -> bool:
    """oracle_is_integral on the connection set ``members`` of order n,
    given tables = _divisor_gathers(n, field): for callers that checked
    the order and fetched the tables once for many sets."""
    gathers, fixers, leader_of, orbit_size = tables
    if sum(map(orbit_size.__getitem__, set(map(leader_of.__getitem__, members)))) == len(members):
        return True
    for m, elements, spread in gathers:
        counts = [0] * m
        for s in members:
            counts[s % m] += 1
        counts = tuple(counts)
        if spread(counts) != counts and _moved(m, elements, [(k, c) for k, c in enumerate(counts) if c]):
            return False
    return not _moved(n, fixers, [(s, 1) for s in members])


def _moved(m: int, elements, terms) -> int:
    """The first element h of H, listed ascending in elements at a modulus
    that m divides, that moves the value of order m that is the sum of
    c * zeta_m^k over the (k, c) in terms; 0 when none does. zeta_m ->
    zeta_m^h moves the coefficient at k to h*k mod m; an image that equals
    the value as a vector needs no zero test. The elements that fix the
    value form a subgroup, so every h in fixed, the residues mod m of the
    group the fixers found so far generate, is skipped: each new fixer at
    least doubles fixed, so at most log2|H| + 1 images are built."""
    fixed = {1 % m}
    for h in elements[1:]:
        g = h % m
        if g in fixed:
            continue
        diff = [0] * m
        for k, c in terms:
            diff[g * k % m] += c
            diff[k] -= c
        if any(diff) and not cyclotomic._is_zero(m, diff):
            return h
        power, grown = g, set(fixed)
        while power not in fixed:  # the cosets g^j * fixed, until g^j falls back in
            grown.update(power * f % m for f in fixed)
            power = power * g % m
        fixed = grown
    return 0


@limits.Memo  # about 35 bytes per residue, 3.5 MB at (99990, Q); keeps its field alive until evicted
def _divisor_gathers(n: int, field: AbelianField):
    """(gathers, fixers, leader_of, orbit_size). gathers holds, for each
    divisor 1 < m < n of n at which the field's Galois subgroup H is not
    trivial, increasing: m, the elements of H at modulus m, ascending, and
    spread, a gather with spread(v) == v exactly when the length-m vector v
    is constant on the H-orbits of {0, ..., m-1}, that is, when no element
    of H moves the value of order m that v denotes. fixers lists H at
    modulus n, ascending; leader_of[r] is the least member of the H-orbit
    of r at modulus n, and orbit_size[l] the size of the orbit led by l
    (0 where l leads none). H is listed and walked once, at n: H at m = n/d
    is H at n mod m and h*d*x = d*(h*x mod m) mod n, so the orbit of x at m
    is that of d*x at n over d, and H at m is the orbit of 1."""
    fixers = _galois_subgroup(field, n).elements
    leader_of = [None] * n
    for r in range(n):
        if leader_of[r] is None:
            for h in fixers:
                leader_of[h * r % n] = r
    orbit_size = [0] * n
    for r in leader_of:
        orbit_size[r] += 1
    gathers = []
    for d in reversed(_proper_divisors(n)[1:]):
        leaders = [r // d for r in leader_of[::d]]
        if leaders.count(1) > 1:  # the trivial group fixes every value
            gathers.append((n // d, array("I", [x for x, r in enumerate(leaders) if r == 1]), itemgetter(*leaders)))
    return tuple(gathers), array("I", fixers), leader_of, orbit_size


def numeric_spectrum(spec) -> list[complex]:
    """Floating-point eigenvalues, with the eigenvalue at frequency r in
    position r.

    The eigenvalue sum over s in S of zeta_n^(r*s) is the complex conjugate
    of the DFT of the indicator vector of S, so one FFT gives all n of them
    in O(n log n); at n <= 500 each is within about 1e-13 of its exactly
    rounded value.
    """
    import numpy as np  # deferred: only the numeric paths pay its import time

    indicator = np.zeros(spec.order)
    indicator[list(spec.connection_set)] = 1
    return np.fft.fft(indicator).conj().tolist()


def numeric_lattice_check(spec, lattice: str, tol: float) -> bool:
    """True iff every numeric eigenvalue is within tol (max of the real and
    imaginary deviations) of the nearest point of the chosen lattice.

    Only the rational integers and the Gaussian integers are supported;
    membership in a general field has no simple floating-point test.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if lattice not in (RATIONAL_LATTICE, GAUSSIAN_LATTICE):
        raise UnsupportedLattice(f"no floating-point membership test for {lattice!r}")
    snap_imag = lattice == GAUSSIAN_LATTICE
    for z in numeric_spectrum(spec):
        d_re = abs(z.real - round(z.real))
        d_im = abs(z.imag - round(z.imag)) if snap_imag else abs(z.imag)
        if max(d_re, d_im) > tol:
            return False
    return True
