"""Eigenvalue-level integrality oracle, plus floating-point sanity checks.

The exact path decides integrality straight from the definition: every
eigenvalue lies in the order-n cyclotomic ring, so it lies in the target
field exactly when the field's Galois subgroup H at modulus n fixes it,
outright when its coefficients are constant on the H-orbits of positions.
This file deliberately knows nothing about orbit blocks; it is the
independent side of every cross-check.

The numeric helpers are advisory only. Sums of roots of unity can sit
close to lattice points by accident, so nothing here lets floating point
overrule the exact decision.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from . import limits
from .cyclotomic import cyc_equal, eigenvalue
from .errors import UnsupportedLattice
from .fields import AbelianField, galois_subgroup_mod

RATIONAL_LATTICE = "rational-integers"
GAUSSIAN_LATTICE = "gaussian-integers"


def oracle_is_integral(spec, field: AbelianField) -> bool:
    """True iff every adjacency eigenvalue of D(n, S) is fixed by every
    element of the field's Galois subgroup H at modulus n, decided in exact
    cyclotomic arithmetic.

    The automorphism zeta -> zeta^h moves coefficient k to position h*k
    mod n and sends the eigenvalue at frequency r to the one at h*r mod n.
    So one eigenvalue is built per H-orbit of frequencies, at its least
    member; if its coefficients are constant on the H-orbits of positions,
    no element of H moves it. Otherwise it is compared exactly with the
    eigenvalue at each other orbit member, until one differs.
    """
    n = spec.order
    limits.check_order(n)
    orbits, spread = _frequency_orbits(galois_subgroup_mod(field, n))
    for orbit in orbits:
        lam = eigenvalue(n, spec.connection_set, orbit[0])
        if spread(lam.coefficients) == lam.coefficients:
            continue
        for m in orbit[1:]:
            if not cyc_equal(eigenvalue(n, spec.connection_set, m), lam):
                return False
    return True


@lru_cache(maxsize=256)  # bounded, as the Galois subgroup cache it is keyed on
def _frequency_orbits(group):
    """Orbits of {0, ..., g-1} under a subgroup of the units mod g, each its
    least member r then the other h*r mod g by first appearance over the
    increasing elements h; and spread, a gather with spread(v) == v exactly
    when the length-g vector v is constant on every orbit."""
    g = group.modulus
    leader_of = [None] * g
    orbits = []
    for r in range(g):
        if leader_of[r] is None:
            orbit = tuple(dict.fromkeys([h * r % g for h in group.elements]))
            for m in orbit:
                leader_of[m] = r
            orbits.append(orbit)
    return tuple(orbits), itemgetter(*leader_of)


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
    if lattice == RATIONAL_LATTICE:
        snap_imag = False
    elif lattice == GAUSSIAN_LATTICE:
        snap_imag = True
    else:
        raise UnsupportedLattice(f"no floating-point membership test for {lattice!r}")
    for z in numeric_spectrum(spec):
        d_re = abs(z.real - round(z.real))
        d_im = abs(z.imag - round(z.imag)) if snap_imag else abs(z.imag)
        if max(d_re, d_im) > tol:
            return False
    return True
