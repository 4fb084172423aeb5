import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import circint
from circint import (AbelianField, BlockViolation, CirculantSpec, CyclotomicInteger, IntegralityVerdict, OrbitBlock,
                     OrbitPartition, UnitSubgroup, VerificationReport)
from circint.records import Record

LAYERS = ("cyclotomic", "errors", "fields", "integrality", "oracle", "orbits", "residues", "verify")
H4 = UnitSubgroup(4, (1,))
Q = AbelianField(1, UnitSubgroup(1, (0,)), "Q")
# each record type with its fields by keyword, in declaration order, and the
# same fields with one value changed
RECORDS = [
    (UnitSubgroup, {"modulus": 4, "elements": (1,)}, {"modulus": 4, "elements": (1, 3)}),
    (AbelianField, {"conductor": 4, "fixing_subgroup": H4, "label": "Qi"},
     {"conductor": 4, "fixing_subgroup": UnitSubgroup(4, (1, 3)), "label": "Qi"}),
    (OrbitBlock, {"divisor": 1, "members": (1, 5)}, {"divisor": 2, "members": (1, 5)}),
    (OrbitPartition, {"order": 3, "field": Q, "members": array("I", [1, 2]), "runs": ((1, 2, 1),)},
     {"order": 3, "field": Q, "members": array("I", [2, 1]), "runs": ((1, 2, 1),)}),
    (CirculantSpec, {"order": 8, "connection_set": (1, 5)}, {"order": 8, "connection_set": (1, 3)}),
    (BlockViolation, {"block_index": 0, "missing": (5,), "present": (1,)},
     {"block_index": 1, "missing": (5,), "present": (1,)}),
    (IntegralityVerdict, {"integral": True, "block_indices": (0,), "violation": None},
     {"integral": True, "block_indices": (0, 1), "violation": None}),
    (CyclotomicInteger, {"order": 3, "coefficients": (0, 1, 0)}, {"order": 3, "coefficients": (0, 0, 1)}),
    (VerificationReport, {"n": 8, "field": "Qi", "mode": "sample", "cases_checked": 3, "mismatches": (),
                          "seed": 0, "elapsed_ms": 1},
     {"n": 8, "field": "Qi", "mode": "sample", "cases_checked": 4, "mismatches": (), "seed": 0,
      "elapsed_ms": 1}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_star_import_binds_exactly_the_public_names():
    assert len(circint.__all__) == len(set(circint.__all__))
    for name in circint.__all__:
        assert getattr(circint, name) is not None, name
    namespace = {}
    exec("from circint import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(circint.__all__)


def test_public_names_are_the_objects_of_their_modules():
    modules = [importlib.import_module(f"circint.{layer}") for layer in LAYERS]
    for name in circint.__all__:
        value = getattr(circint, name)
        # the module that defines it; a constant is defined wherever it is bound
        homes = [m for m in modules if vars(m).get(name) is value
                 and getattr(value, "__module__", m.__name__) == m.__name__]
        assert homes, name
    assert set(dir(circint)) >= set(circint.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        circint.no_such_name  # noqa: B018


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_records_construct_positionally_and_by_keyword(cls, fields, _):
    by_keyword, positional = cls(**fields), cls(*fields.values())
    for record in (by_keyword, positional):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_keyword == positional
    assert repr(by_keyword) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_records_take_their_fields_as_the_constructor_signature(cls, fields, _):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields == tuple(fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == cls._defaults
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    required = [name for name in cls._fields if name not in cls._defaults]
    with pytest.raises(TypeError, match=rf"{cls.__qualname__}\.__init__\(\) missing {len(required)} required"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match="takes"):
        cls(*fields.values(), 1)


def test_no_record_writes_its_own_constructor():
    # Record writes each subclass's __init__ from _fields and _defaults
    for path in sorted(Path(circint.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases):
                assert "__init__" not in {f.name for f in node.body if isinstance(f, ast.FunctionDef)}, node.name
    records = Path(circint.__file__).parent / "records.py"
    assert not re.search(r"^\s*(import|from)\s", records.read_text(), re.MULTILINE)


def test_a_subclass_gets_a_constructor_from_its_fields():
    class Pair(Record):
        _fields = ("left", "right")
        _defaults = {"right": []}

    class Checked(Pair):
        _fields, _defaults = ("left", "right", "total"), {}

        def __post_init__(self):
            if self.left + self.right != self.total:
                raise ValueError("total")

    class Empty(Record):
        pass

    assert Pair(1).right is Pair(2).right == []  # a default is one object, as in a def
    assert Pair(1, 2) == Pair(right=2, left=1) and not hasattr(Pair, "__post_init__")
    assert Checked(1, 2, 3).total == 3 and str(inspect.signature(Checked)) == "(left, right, total)"
    with pytest.raises(ValueError):
        Checked(1, 2, 4)
    assert Empty() == Empty() and repr(Empty()).endswith(".Empty()")


def test_record_defaults():
    assert AbelianField(4, H4).label is None
    yes = IntegralityVerdict(True, (0,))
    assert yes.violation is None
    no = IntegralityVerdict(False, violation=BlockViolation(0, (5,), (1,)))
    assert no.block_indices is None
    with pytest.raises(ValueError):
        IntegralityVerdict(True)


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_records_compare_and_hash_by_field(cls, fields, other):
    first, second = cls(**fields), cls(**fields)
    assert first is not second and first == second and not first != second
    assert cls(**other) != first
    assert first != tuple(fields.values())
    if cls is OrbitPartition:
        with pytest.raises(TypeError):
            hash(first)  # its member array is mutable
    else:
        assert hash(first) == hash(second)
        assert len({first, second, cls(**other)}) == 2


def test_field_equality_ignores_the_label():
    assert AbelianField(4, H4, "Qi") == AbelianField(4, H4, "gaussian") == AbelianField(4, H4)
    assert hash(AbelianField(4, H4, "Qi")) == hash(AbelianField(4, H4))
    assert AbelianField(4, H4) != AbelianField(4, UnitSubgroup(4, (1, 3)))


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, _):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cached_members_survive_the_refusal():
    group = UnitSubgroup(8, (1, 3, 5, 7))
    assert 5 in group and group._member_set == {1, 3, 5, 7}
    part = circint.orbit_partition(8, circint.field_gaussian())
    assert part.locate(6) == 3 and part._lookup is part._lookup


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_construction_calls_a_patched_post_init(monkeypatch, cls, fields, _):
    # the construction checks are looked up on the instance, so a wrapper
    # installed on the class (as a tracer does) sees every construction
    if "__post_init__" not in vars(cls):
        assert not hasattr(cls, "__post_init__")
        return
    seen = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self) or original(self))
    record = cls(**fields)
    assert seen == [record] and seen[0] is record


def test_records_with_construction_checks():
    checked = {cls.__name__ for cls, _, _ in RECORDS if "__post_init__" in vars(cls)}
    assert checked == {"UnitSubgroup", "AbelianField", "CirculantSpec", "IntegralityVerdict", "CyclotomicInteger",
                       "VerificationReport"}


def test_no_module_imports_dataclasses():
    sources = sorted(Path(circint.__file__).parent.glob("*.py"))
    assert len(sources) > len(LAYERS)
    for path in sources:
        assert not re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.MULTILINE), path.name


def test_the_oracle_loads_no_orbit_or_integrality_code():
    # the oracle is the independent side of every cross-check; the record
    # base it shares with the block test is a leaf module
    script = "import json, sys, circint.oracle; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
    loaded = set(json.loads(run.stdout))
    assert "circint.records" in loaded
    assert not loaded & {"circint.orbits", "circint.integrality", "circint.verify", "circint.cli"}
