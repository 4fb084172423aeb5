"""Integrality of circulant digraphs over abelian number fields.

The package builds the Galois-orbit partition of {1, ..., n-1} for a pair
(n, K), decides whether a circulant digraph D(n, S) is integral over K
(exactly when S is a union of whole blocks), enumerates and counts the
integral connection sets, and cross-verifies every decision against an
independent exact-cyclotomic eigenvalue oracle.
"""

from .cyclotomic import (
    CyclotomicInteger,
    cyc_equal,
    cyclotomic_polynomial,
    eigenvalue,
    reduce_coefficients,
)
from .errors import (
    BothZero,
    CircError,
    DegenerateInput,
    DegenerateOrder,
    FieldSpecError,
    InvalidSet,
    LimitExceeded,
    NotAUnit,
    NotSquarefree,
    OrderMismatch,
    OutOfRange,
    TooManyOrbits,
    UnsupportedLattice,
)
from .fields import (
    AbelianField,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    kronecker_symbol,
    parse_field,
)
from .integrality import (
    BlockViolation,
    CirculantSpec,
    IntegralityVerdict,
    count_integral,
    enumerate_integral,
    is_gauss_integral,
    is_integral,
    verdict_to_json,
)
from .oracle import (
    GAUSSIAN_LATTICE,
    RATIONAL_LATTICE,
    numeric_lattice_check,
    numeric_spectrum,
    oracle_is_integral,
)
from .orbits import OrbitBlock, OrbitPartition, orbit_partition, r_count
from .residues import (
    UnitSubgroup,
    euler_phi,
    proper_divisors,
    subgroup_closure,
)
from .verify import VerificationReport, cross_verify, lattice_cross_verify, lemma1_check

__all__ = [
    "AbelianField",
    "BlockViolation",
    "BothZero",
    "CircError",
    "CirculantSpec",
    "CyclotomicInteger",
    "DegenerateInput",
    "DegenerateOrder",
    "FieldSpecError",
    "GAUSSIAN_LATTICE",
    "IntegralityVerdict",
    "InvalidSet",
    "LimitExceeded",
    "NotAUnit",
    "NotSquarefree",
    "OrbitBlock",
    "OrbitPartition",
    "OrderMismatch",
    "OutOfRange",
    "RATIONAL_LATTICE",
    "TooManyOrbits",
    "UnitSubgroup",
    "UnsupportedLattice",
    "VerificationReport",
    "count_integral",
    "cross_verify",
    "cyc_equal",
    "cyclotomic_polynomial",
    "eigenvalue",
    "enumerate_integral",
    "euler_phi",
    "field_cyclotomic",
    "field_gaussian",
    "field_quadratic",
    "field_rationals",
    "galois_subgroup_mod",
    "is_gauss_integral",
    "is_integral",
    "kronecker_symbol",
    "lattice_cross_verify",
    "lemma1_check",
    "numeric_lattice_check",
    "numeric_spectrum",
    "oracle_is_integral",
    "orbit_partition",
    "parse_field",
    "proper_divisors",
    "r_count",
    "reduce_coefficients",
    "subgroup_closure",
    "verdict_to_json",
]
