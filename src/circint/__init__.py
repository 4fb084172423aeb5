"""Integrality of circulant digraphs over abelian number fields.

The package builds the Galois-orbit partition of {1, ..., n-1} for a pair
(n, K), decides whether a circulant digraph D(n, S) is integral over K
(exactly when S is a union of whole blocks), enumerates and counts the
integral connection sets, and cross-verifies every decision against an
independent exact-cyclotomic eigenvalue oracle.

``import circint`` loads no submodule: each public name below loads the
module that defines it on first use, so a command pays only for the
modules it calls.
"""

from importlib import import_module

_EXPORTS = {
    "cyclotomic": "CyclotomicInteger cyc_equal cyclotomic_polynomial eigenvalue reduce_coefficients",
    "errors": "BothZero CircError DegenerateInput DegenerateOrder FieldSpecError InvalidSet LimitExceeded "
              "NotAUnit NotSquarefree OrderMismatch OutOfRange TooManyOrbits UnsupportedLattice",
    "fields": "AbelianField field_cyclotomic field_gaussian field_quadratic field_rationals galois_subgroup_mod "
              "kronecker_symbol parse_field",
    "integrality": "BlockViolation CirculantSpec IntegralityVerdict count_integral enumerate_integral "
                   "is_gauss_integral is_integral verdict_to_json",
    "oracle": "GAUSSIAN_LATTICE RATIONAL_LATTICE numeric_lattice_check numeric_spectrum oracle_is_integral",
    "orbits": "OrbitBlock OrbitPartition orbit_partition r_count",
    "residues": "UnitSubgroup euler_phi proper_divisors subgroup_closure",
    "verify": "VerificationReport cross_verify lattice_cross_verify lemma1_check",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load a public name from its module and bind it here (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
