"""Abelian number fields as (conductor, fixing subgroup) pairs.

A field K with conductor m is described by the subgroup H of the units
modulo m whose fixed field is K under the usual identification of
Gal(Q(zeta_m)/Q) with (Z/mZ)*. Only this abelian data ever matters to the
orbit construction, so no other field representation exists here.

Field equality is lenient about labels: two values with the same conductor
and subgroup compare equal. Distinct (conductor, subgroup) pairs can still
denote the same field; compare galois_subgroup_mod outputs when that
distinction matters.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod

from . import limits
from .errors import BothZero, DegenerateInput, FieldSpecError, LimitExceeded, NotSquarefree
from .records import Record
from .residues import UnitSubgroup, _euler_phi, _prime_factors, euler_phi, subgroup_closure


class AbelianField(Record):
    _fields = ("conductor", "fixing_subgroup", "label")
    _defaults = {"label": None}

    def __post_init__(self):
        m = self.__dict__["conductor"] = limits.integer(self.conductor, "conductor")  # a numpy conductor becomes an int
        if self.fixing_subgroup.modulus != m:
            raise ValueError("fixing subgroup modulus differs from conductor")
        if euler_phi(m) % len(self.fixing_subgroup):
            raise ValueError("subgroup order does not divide phi(conductor)")

    def __eq__(self, other):  # the label is a display name, not part of the value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.conductor == other.conductor and self.fixing_subgroup == other.fixing_subgroup

    def __hash__(self) -> int:
        return hash((self.conductor, self.fixing_subgroup))

    @cached_property  # _fixing_mod's triple, by d: filled by _fixing_mod, and freed with the field
    def _reductions(self) -> dict[int, tuple[int, frozenset[int], int]]:
        return {}

    @property
    def degree(self) -> int:
        """Dimension of the field over the rationals."""
        return _euler_phi(self.conductor) // len(self.fixing_subgroup)

    def describe(self) -> str:
        """Display/JSON name; falls back to a parseable custom spec."""
        if self.label:
            return self.label
        gens = ",".join(str(e) for e in self.fixing_subgroup.elements)
        return f"custom:{self.conductor}:{gens}"


def field_rationals() -> AbelianField:
    return AbelianField(1, UnitSubgroup(1, (0,)), label="Q")


def field_gaussian() -> AbelianField:
    """The Gaussian rationals, conductor 4."""
    return AbelianField(4, UnitSubgroup(4, (1,)), label="Qi")


def field_cyclotomic(m: int) -> AbelianField:
    m = limits.checked(m, 1, "modulus")
    return AbelianField(m, UnitSubgroup(m, (1 % m,)), label=f"cyclo:{m}")


def field_quadratic(d: int) -> AbelianField:
    """The quadratic field generated by a square root of d.

    The conductor is |disc| with disc = d for d = 1 mod 4 and 4d otherwise;
    the fixing subgroup is the kernel of the discriminant's Kronecker
    character on the units modulo the conductor. The conductor bound is
    checked before the squarefree test, which is trial division.
    """
    d = limits.integer(d, "radicand")
    if d in (0, 1):
        raise DegenerateInput(f"no quadratic field for d = {d}")
    disc = d if d % 4 == 1 else 4 * d
    m = abs(disc)
    limits.check_modulus(m)
    if prod(_prime_factors(abs(d))) != abs(d):
        raise NotSquarefree(f"{d} has a square factor")
    members = tuple(a for a in range(1, m) if gcd(a, m) == 1 and kronecker_symbol(disc, a) == 1)
    k = AbelianField(m, UnitSubgroup(m, members), label=f"sqrt:{d}")
    assert k.degree == 2
    return k


def kronecker_symbol(a: int, b: int) -> int:
    """The Kronecker symbol (a|b), extending the Jacobi symbol to all b."""
    if a == 0 and b == 0:
        raise BothZero("kronecker symbol undefined at (0, 0)")
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    twos = (b & -b).bit_length() - 1  # the power of 2 in b
    b >>= twos
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def galois_subgroup_mod(field: AbelianField, g: int) -> UnitSubgroup:
    """Subgroup of the units mod g fixing the intersection of the field
    with the g-th cyclotomic field.

    That intersection lies in the d-th cyclotomic field, d = gcd(conductor,
    g), so by the Chinese remainder theorem the result is every unit b mod
    g whose residue mod d is the residue of some element of the fixing
    subgroup. The index of the result in the full unit group mod g is the
    degree of the intersection field over the rationals.
    """
    return _galois_subgroup(field, limits.checked(g, 1, "modulus"))


def _galois_subgroup(field: AbelianField, g: int) -> UnitSubgroup:
    d, allowed, _ = _fixing_mod(field, g)
    return UnitSubgroup(g, tuple(b for b in range(g) if b % d in allowed and gcd(b, g) == 1))


def _fixing_mod(field: AbelianField, g: int) -> tuple[int, frozenset[int], int]:
    """d = gcd(conductor, g), the fixing subgroup mod d and the degree phi(d) / |H mod d| of the
    field's meet with Q(zeta_g), found once per (field, d); see galois_subgroup_mod."""
    d, reductions = gcd(field.conductor, g), field._reductions
    if d not in reductions:
        reduced = frozenset(x % d for x in field.fixing_subgroup.elements)
        degree, rem = divmod(_euler_phi(d), len(reduced))
        assert rem == 0  # Lagrange: H mod d is a subgroup of the units mod d
        reductions[d] = d, reduced, degree
    return reductions[d]


def parse_field(text: str) -> AbelianField:
    """Parse the field mini-language.

    Accepted forms: ``Q``, ``Qi``, ``sqrt:<d>``, ``cyclo:<m>``, and
    ``custom:<m>:<g1,g2,...>`` where the g_i generate the fixing subgroup
    (an empty generator list gives the trivial subgroup, i.e. the full
    m-th cyclotomic field). The field must be abelian; that is all this
    representation can express.
    """
    t = text.strip()
    try:
        if t == "Q":
            return field_rationals()
        if t == "Qi":
            return field_gaussian()
        if t.startswith("sqrt:"):
            return field_quadratic(_spec_int(t[5:], t))
        if t.startswith("cyclo:"):
            m = _spec_int(t[6:], t)
            if m < 1:
                raise FieldSpecError(f"cyclotomic order must be positive in {text!r}")
            return field_cyclotomic(m)
        if t.startswith("custom:"):
            parts = t.split(":")
            if len(parts) != 3:
                raise FieldSpecError(f"expected custom:<m>:<g1,g2,...>, got {text!r}")
            m = _spec_int(parts[1], t)
            if m < 1:
                raise FieldSpecError(f"modulus must be positive in {text!r}")
            gens = [_spec_int(x, t) for x in parts[2].split(",") if x.strip() != ""]
            return AbelianField(m, subgroup_closure(m, gens), label=t)
    except LimitExceeded as exc:  # name the spec whose conductor is over the bound
        raise LimitExceeded(f"{exc} (conductor of {t})") from None
    raise FieldSpecError(f"unrecognized field spec {text!r}")


def _spec_int(chunk: str, whole: str) -> int:
    try:
        return int(chunk)
    except ValueError:
        raise FieldSpecError(f"bad integer {chunk!r} in field spec {whole!r}") from None
