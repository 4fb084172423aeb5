"""Tests of the reference block description, on its own terms.

Run with: python -m pytest perfbench/test_reference.py
"""

import ast
import cmath
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

sympy_numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")


def test_no_circint_import():
    tree = ast.parse(Path(ref.__file__).read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "circint"]


@pytest.mark.parametrize("a", range(-40, 41))
def test_kronecker_matches_sympy(a):
    for b in range(-40, 41):
        if a == 0 and b == 0:
            continue
        assert ref.kronecker(a, b) == sympy_numbers.kronecker_symbol(a, b), (a, b)


def test_jacobi_matches_sympy():
    for b in range(1, 200, 2):
        for a in range(-50, 50):
            assert ref.kronecker(a, b) == sympy_numbers.jacobi_symbol(a, b), (a, b)


def _in_lattice(z: complex, gaussian: bool, tol: float = 1e-6) -> bool:
    im_gap = abs(z.imag - round(z.imag)) if gaussian else abs(z.imag)
    return abs(z.real - round(z.real)) <= tol and im_gap <= tol


@pytest.mark.parametrize("spec", ["Q", "Qi"])
@pytest.mark.parametrize("n", range(2, 15))
def test_key_classes_match_eigenvalue_lattice(n, spec):
    """Exhaustively: S is a union of key classes exactly when every
    eigenvalue, computed with cmath, lies in Z (for Q) or Z[i] (for Qi)."""
    field = ref.parse(spec)
    zeta = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    class_masks = [sum(1 << (x - 1) for x in ms) for _, ms in ref.blocks(n, field)]
    for mask in range(1 << (n - 1)):
        members = [i + 1 for i in range(n - 1) if mask >> i & 1]
        lattice = all(_in_lattice(sum(zeta[r * s % n] for s in members), spec == "Qi") for r in range(n))
        union = all(mask & cm in (0, cm) for cm in class_masks)
        assert lattice == union, (n, spec, members)


FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "cyclo:3", "cyclo:5", "cyclo:8", "cyclo:12"]


@pytest.mark.parametrize("spec", FIELDS)
def test_block_count_formula_counts_key_classes(spec):
    field = ref.parse(spec)
    for n in range(2, 200):
        assert len(ref.blocks(n, field)) == ref.block_count(n, field), (n, spec)


@pytest.mark.parametrize("spec", FIELDS)
def test_vector_keys_agree_with_scalar_keys(spec):
    field = ref.parse(spec)
    for n in list(range(2, 120)) + [720, 1000]:
        got = ref.partition_matches(n, field, *zip(*ref.blocks(n, field)))
        assert got is None, (n, spec, got)


def test_partition_matches_reports_differences():
    field = ref.parse("Qi")
    divs, members = map(list, zip(*ref.blocks(16, field)))
    assert ref.partition_matches(16, field, divs, members) is None
    merged = members[:2]
    assert ref.partition_matches(16, field, divs[1:], [merged[0] + merged[1]] + members[2:]) is not None
    swapped = [members[1], members[0]] + members[2:]
    assert ref.partition_matches(16, field, [divs[1], divs[0]] + divs[2:], swapped) is not None
    moved = [members[0][:-1], members[1] + members[0][-1:]] + members[2:]
    assert ref.partition_matches(16, field, divs, moved) is not None


def test_quadratic_discriminants():
    assert ref.parse("sqrt:5").param == 5
    assert ref.parse("sqrt:-3").param == -3
    assert ref.parse("sqrt:2").param == 8
    assert ref.parse("sqrt:-5").param == -20
    with pytest.raises(ValueError):
        ref.parse("sqrt:12")
