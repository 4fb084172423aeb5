import random
import re
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from circint import (
    AbelianField,
    CirculantSpec,
    CyclotomicInteger,
    DegenerateInput,
    DegenerateOrder,
    InvalidSet,
    TooManyOrbits,
    UnitSubgroup,
    count_integral,
    cross_verify,
    cyclotomic_polynomial,
    eigenvalue,
    enumerate_integral,
    euler_phi,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    is_gauss_integral,
    is_integral,
    lattice_cross_verify,
    lemma1_check,
    oracle_is_integral,
    orbit_partition,
    parse_field,
    proper_divisors,
    r_count,
    subgroup_closure,
    verdict_to_json,
)
from circint.cyclotomic import _coset_plan, _cyclotomic
from circint.integrality import _integral_sets
from circint.oracle import _divisor_gathers
from circint.orbits import _partition_cached

PRESETS = [
    field_rationals(),
    field_gaussian(),
    field_quadratic(2),
    field_quadratic(-3),
    field_cyclotomic(8),
]


def test_circulant_spec_validation():
    assert CirculantSpec.of(6, [5, 1, 5]).connection_set == (1, 5)
    with pytest.raises(InvalidSet):
        CirculantSpec.of(6, [0, 1])
    with pytest.raises(InvalidSet):
        CirculantSpec.of(6, [6])
    with pytest.raises(InvalidSet):
        CirculantSpec(6, (2, 1))
    with pytest.raises(DegenerateOrder):
        CirculantSpec.of(1, [])


@pytest.mark.parametrize("members", [(1.5,), (1.0, 5.0), (Fraction(1), 5), (2, Fraction(3, 2)), (5.0, 7), ("3",),
                                     (2, "3"), (1, 1.0), (1.0, 1)])
def test_circulant_spec_rejects_members_that_are_not_integers(members):
    # the float and Fraction sets are strictly increasing inside [1, 8): the bounds-and-order test passes them
    for build in (CirculantSpec, CirculantSpec.of):
        with pytest.raises(InvalidSet, match="is not an integer"):
            build(8, members)


def test_numpy_integer_members_decide_as_ints():
    np = pytest.importorskip("numpy")
    rng = random.Random(4)
    for field in PRESETS:
        for n in (8, 12, 30):
            for _ in range(20):
                members = sorted(rng.sample(range(1, n), rng.randrange(1, n)))
                plain = CirculantSpec(n, tuple(members))
                wide = CirculantSpec(n, tuple(map(np.int64, members)))
                assert CirculantSpec.of(n, map(np.int64, members)) == wide
                assert is_integral(wide, field) == is_integral(plain, field)
                assert oracle_is_integral(wide, field) == oracle_is_integral(plain, field)


@pytest.mark.parametrize("order", [8.0, "8", Fraction(8), None])
def test_orders_that_are_not_integers_are_refused_by_name(order):
    # 8.0 used to construct, and the lookups then raised a bare TypeError
    field = field_rationals()
    for call in (lambda: CirculantSpec(order, (1,)), lambda: CirculantSpec.of(order, [1]),
                 lambda: orbit_partition(order, field), lambda: r_count(order, field)):
        with pytest.raises(DegenerateInput, match=f"^order {re.escape(repr(order))} is not an integer$"):
            call()
    # every other entry point that takes an order, a modulus or a count: 8.0 used to succeed in euler_phi,
    # proper_divisors and CyclotomicInteger, and to raise a bare TypeError or AttributeError in the rest
    calls = [("order", lambda: proper_divisors(order)), ("order", lambda: cyclotomic_polynomial(order)),
             ("order", lambda: CyclotomicInteger(order, (1, 0))), ("order", lambda: eigenvalue(order, (1,), 1)),
             ("order", lambda: cross_verify(order, field)), ("order", lambda: lattice_cross_verify(order, field)),
             ("order", lambda: lemma1_check(order, field)), ("order", lambda: count_integral(order, field)),
             ("order", lambda: enumerate_integral(order, field)), ("modulus", lambda: euler_phi(order)),
             ("modulus", lambda: subgroup_closure(order, [3])), ("modulus", lambda: galois_subgroup_mod(field, order)),
             ("modulus", lambda: field_cyclotomic(order)), ("modulus", lambda: UnitSubgroup(order, (1,))),
             ("radicand", lambda: field_quadratic(order))]
    if order is not None:  # no limit, and the exhaustive sweep
        calls += [("limit", lambda: enumerate_integral(6, field, limit=order)),
                  ("samples", lambda: cross_verify(8, field, samples=order))]
    for name, call in calls:
        with pytest.raises(DegenerateInput, match=f"^{name} {re.escape(repr(order))} is not an integer$"):
            call()


def test_bool_and_numpy_integer_orders_behave_as_ints():
    # a numpy order used to work only where an int order had filled the caches first: built cold,
    # the Galois subgroup's inverse check raised a bare TypeError from pow with a numpy modulus
    np = pytest.importorskip("numpy")
    for order in (True, False, np.int64(1)):
        with pytest.raises(DegenerateOrder):
            CirculantSpec(order, ())
        with pytest.raises(DegenerateOrder):
            orbit_partition(order, field_rationals())
    _partition_cached.cache_clear()
    _divisor_gathers.cache_clear()
    wide = CirculantSpec(np.int64(36), (1, 5, 7, 11))
    assert type(wide.order) is int and wide == CirculantSpec(36, (1, 5, 7, 11))
    for spec in ("Q", "Qi", "sqrt:-3", "cyclo:12"):
        cold, warm = parse_field(spec), parse_field(spec)  # a field keeps its reductions
        assert r_count(np.int64(36), cold) == r_count(36, warm)
        assert orbit_partition(np.int64(36), cold) == orbit_partition(36, warm)
        assert is_integral(wide, cold) == is_integral(CirculantSpec(36, (1, 5, 7, 11)), warm)
        assert oracle_is_integral(wide, cold) == oracle_is_integral(CirculantSpec(36, (1, 5, 7, 11)), warm)


def test_numpy_integers_give_the_int_results_at_every_entry_point():
    # each used to raise a bare TypeError (pow with a numpy modulus), an AttributeError (bit_length on a numpy
    # limit) or to return numpy values; each case runs cold, numpy first, and holds only built-in ints
    np = pytest.importorskip("numpy")

    def held(x):  # the integers a value holds, flat
        if isinstance(x, UnitSubgroup):
            return (x.modulus, *x.elements)
        if isinstance(x, CyclotomicInteger):
            return (x.order, *x.coefficients)
        return (x.conductor, *held(x.fixing_subgroup))  # an AbelianField

    cases = [
        lambda k: (euler_phi(k(12)),),
        lambda k: proper_divisors(k(12)),
        lambda k: held(subgroup_closure(k(8), [3])),
        lambda k: held(galois_subgroup_mod(field_gaussian(), k(12))),
        lambda k: held(field_cyclotomic(k(5))),
        lambda k: held(field_quadratic(k(5))),
        lambda k: cyclotomic_polynomial(k(12)),
        lambda k: held(CyclotomicInteger(k(3), (1, 0, 0))),
        lambda k: held(UnitSubgroup(k(8), (1, 3, 5, 7))),
        lambda k: held(eigenvalue(k(8), (1, 3), 1)),
        lambda k: (orbit_partition(k(12), field_gaussian()).order, r_count(k(12), field_gaussian()),
                   count_integral(k(12), field_gaussian())),
        lambda k: (cross_verify(k(6), field_gaussian()).n, cross_verify(k(6), field_gaussian()).cases_checked),
        lambda k: (lattice_cross_verify(k(6), field_rationals()).n,),
        lambda k: (lemma1_check(k(6), field_gaussian()).n, lemma1_check(k(6), field_gaussian()).cases_checked),
        lambda k: (cross_verify(8, field_rationals(), samples=k(2)).cases_checked,),
        lambda k: tuple(chain.from_iterable(
            s.connection_set for s in enumerate_integral(6, field_rationals(), limit=k(3)))),
    ]
    for i, case in enumerate(cases):
        for memo in (_partition_cached, _divisor_gathers, _cyclotomic, _coset_plan):
            memo.cache_clear()
        got, want = case(np.int64), case(int)
        assert got == want and all(type(x) is int for x in got), i
    assert euler_phi(True) == 1 and type(euler_phi(True)) is int



# (argument name, call with x in its place, an int that x may be, the error a non-integer x raises)
ARGUMENT_CALLS = [
    ("generator", lambda x: subgroup_closure(8, [x]).elements, 3, DegenerateInput),
    ("subgroup element", lambda x: UnitSubgroup(8, (1, 3, 5, x)).elements, 7, DegenerateInput),
    ("frequency", lambda x: eigenvalue(8, (1, 3), x).coefficients, 2, DegenerateInput),
    ("connection element", lambda x: eigenvalue(8, (1, x), 2).coefficients, 3, InvalidSet),
    ("conductor", lambda x: (AbelianField(x, UnitSubgroup(4, (1,))).conductor,), 4, DegenerateInput),
]


@pytest.mark.parametrize("name, call, value, error", ARGUMENT_CALLS, ids=[c[0] for c in ARGUMENT_CALLS])
def test_generators_elements_frequency_and_conductor_take_only_integers(name, call, value, error):
    # each used to keep a numpy value or raise a bare TypeError from pow, gcd, % or a list index
    np = pytest.importorskip("numpy")
    got, want = call(np.int64(value)), call(value)
    assert got == want and all(type(x) is int for x in got)
    for bad in (2.5, "3", None):
        with pytest.raises(error, match=re.escape(f"{name} {bad!r} is not an integer")):
            call(bad)

def loop_validated(order, connection_set):
    """Reference: CirculantSpec's set validation as a loop over every
    element, before the one-pass test of a valid set; returns the error
    raised as (type, message), or None."""
    for s in connection_set:
        if s == 0:
            return InvalidSet, ("0 is not allowed in a connection set: a loop adds 1 to "
                                "every eigenvalue and never changes integrality")
        if not 1 <= s < order:
            return InvalidSet, f"connection element {s} outside [1, {order})"
    if list(connection_set) != sorted(set(connection_set)):
        return InvalidSet, "connection set must be strictly increasing"
    return None


def test_circulant_spec_fast_path_matches_the_loop():
    rng = random.Random(20121)
    cases = [(5, ()), (5, (0,)), (5, (5, 0)), (5, (0, 5)), (5, (1, 5)), (5, (4, 4)), (5, (3, 1)), (5, (-1, 2)),
             (2, (1,)), (2, (2,))]
    for _ in range(3000):
        n = rng.randrange(2, 40)
        s = sorted(rng.sample(range(1, n), rng.randrange(0, n)))
        kind = rng.randrange(6)
        if kind == 1 and s:
            s[rng.randrange(len(s))] = rng.choice([0, n, n + 1, -1, -n])
        elif kind == 2 and s:
            s.insert(rng.randrange(len(s) + 1), rng.choice(s))
        elif kind == 3:
            rng.shuffle(s)
        elif kind == 4 and s:
            s = sorted(s + [rng.choice([0, n])])
        cases.append((n, tuple(s)))
    kinds = set()
    for n, s in cases:
        expected = loop_validated(n, s)
        try:
            CirculantSpec(n, s)
            got = None
        except InvalidSet as exc:
            got = type(exc), str(exc)
        assert got == expected, (n, s)
        kinds.add(expected and expected[1].split()[1])
    # accepted; "0 is not allowed"; "connection element ... outside"; "connection set must be strictly increasing"
    assert kinds == {None, "is", "element", "set"}


def test_is_integral_verdicts():
    verdict = is_integral(CirculantSpec.of(6, [1, 5]), field_rationals())
    assert verdict.integral and verdict.block_indices == (0,)
    verdict = is_integral(CirculantSpec.of(6, [1, 3, 5]), field_rationals())
    assert verdict.integral and verdict.block_indices == (0, 2)

    verdict = is_integral(CirculantSpec.of(8, [1]), field_gaussian())
    assert not verdict.integral
    assert verdict.violation.block_index == 0
    assert verdict.violation.missing == (5,)
    assert verdict.violation.present == (1,)

    verdict = is_integral(CirculantSpec.of(9, []), field_quadratic(2))
    assert verdict.integral and verdict.block_indices == ()

    assert is_integral(CirculantSpec.of(4, [1]), field_gaussian()).integral


def test_is_gauss_integral_examples():
    assert is_gauss_integral(CirculantSpec.of(8, [1, 5])).integral
    assert is_gauss_integral(CirculantSpec.of(8, [2, 6])).integral
    verdict = is_gauss_integral(CirculantSpec.of(8, [3]))
    assert not verdict.integral and verdict.violation.missing == (7,)


def test_enumerate_order_and_content():
    specs = list(enumerate_integral(6, field_rationals()))
    assert [s.connection_set for s in specs] == [
        (),
        (1, 5),
        (2, 4),
        (1, 2, 4, 5),
        (3,),
        (1, 3, 5),
        (2, 3, 4),
        (1, 2, 3, 4, 5),
    ]
    assert [s.connection_set for s in enumerate_integral(2, field_rationals())] == [(), (1,)]
    first_five = [s.connection_set for s in enumerate_integral(8, field_gaussian(), limit=5)]
    assert first_five == [(), (1, 5), (3, 7), (1, 3, 5, 7), (2,)]
    assert len(list(enumerate_integral(8, field_gaussian()))) == 32


def test_enumerate_budget(monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_ENUM", "4")
    with pytest.raises(TooManyOrbits):
        enumerate_integral(6, field_rationals())  # on the call, not on the first next()
    with pytest.raises(TooManyOrbits):
        list(enumerate_integral(6, field_rationals()))
    # a limit waives the budget
    assert len(list(enumerate_integral(6, field_rationals(), limit=3))) == 3


def test_enumerate_rejects_a_negative_limit():
    with pytest.raises(ValueError):
        enumerate_integral(6, field_rationals(), limit=-1)


@pytest.mark.parametrize("n,field", [(8, field_gaussian()), (36, field_quadratic(-3)), (30, field_rationals())])
def test_enumerate_reads_blocks_without_the_lookup(n, field):
    # the stream walks the first blocks once; the residue index of block(i) is never built
    _partition_cached.cache_clear()
    part = orbit_partition(n, field)
    blocks = [b.members for b in part.blocks]
    for limit in (0, 1, 3, 6):
        expected = [tuple(sorted(x for i, ms in enumerate(blocks) if mask >> i & 1 for x in ms))
                    for mask in range(limit)]
        assert [s.connection_set for s in enumerate_integral(n, field, limit=limit)] == expected
    assert "_lookup" not in part.__dict__


def sorted_walk(n, field, stop):
    """Reference: the walk with a sort per set, each mask's blocks gathered
    and sorted."""
    blocks = [ms for _, ms in islice(orbit_partition(n, field).slices(), max(stop - 1, 0).bit_length())]
    covers = ([i for i in range(mask.bit_length()) if mask >> i & 1] for mask in range(stop))
    return [(c, sorted(chain.from_iterable(map(blocks.__getitem__, c)))) for c in covers]


# the fields of test_orbits.KEYED_BUILD_FIELDS
KEYED_BUILD_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5", "cyclo:3", "cyclo:5",
                      "cyclo:8", "cyclo:12", "custom:13:5", "custom:16:7", "custom:21:4"]


@pytest.mark.parametrize("spec", KEYED_BUILD_FIELDS)
def test_walk_merges_what_a_sort_per_set_gives(spec):
    # each set is the merge of one block with a set kept from an earlier mask; limits around each
    # power of two end the walk just before and after a new top block, and the full count ends it at
    # the last block (counts past 2^12, up to 2^23 over cyclo:8, are walked to 2^12 + 1)
    field = parse_field(spec)
    for n in range(2, 60):
        total = count_integral(n, field)
        stop = min(total, (1 << 12) + 1)
        expected = sorted_walk(n, field, stop)
        ends = {0, 1, 2, stop} | {(1 << k) + e for k in range(1, stop.bit_length()) for e in (-1, 1)}
        for limit in sorted(ends):
            assert list(_integral_sets(n, field, limit)[1]) == expected[:limit], (n, limit)


def test_count_integral():
    assert count_integral(6, field_rationals()) == 8
    assert count_integral(8, field_gaussian()) == 32
    for n in (2, 5, 9, 12):
        assert count_integral(n, field_cyclotomic(n)) == 1 << (n - 1)


def test_enumerate_agrees_with_decision_exhaustively():
    from circint import orbit_partition

    for field in PRESETS:
        for n in range(2, 13):
            part = orbit_partition(n, field)
            accepted = set()
            for mask in range(1 << (n - 1)):
                members = tuple(i + 1 for i in range(n - 1) if mask >> i & 1)
                verdict = is_integral(CirculantSpec(n, members), field)
                if verdict.integral:
                    accepted.add(members)
                    rebuilt = sorted(
                        x for i in verdict.block_indices for x in part.blocks[i].members)
                    assert tuple(rebuilt) == members
            enumerated = [s.connection_set for s in enumerate_integral(n, field)]
            assert len(enumerated) == len(set(enumerated))
            assert set(enumerated) == accepted
            assert len(enumerated) == count_integral(n, field)


def test_verdict_json_shape():
    spec = CirculantSpec.of(8, [1])
    doc = verdict_to_json(spec, field_gaussian(), is_integral(spec, field_gaussian()))
    assert list(doc.keys()) == ["n", "S", "field", "integral", "blocks", "violation"]
    assert doc["integral"] is False and doc["blocks"] is None
    assert doc["violation"] == {"block": 0, "missing": [5], "present": [1]}

    spec = CirculantSpec.of(8, [2, 6])
    doc = verdict_to_json(spec, field_gaussian(), is_integral(spec, field_gaussian()))
    assert doc["integral"] is True and doc["blocks"] == [2, 3] and doc["violation"] is None


@given(st.integers(2, 24), st.sampled_from(PRESETS), st.data())
@settings(max_examples=100, deadline=None)
def test_complement_of_integral_is_integral(n, field, data):
    members = data.draw(st.sets(st.integers(1, n - 1)))
    spec = CirculantSpec.of(n, members)
    if is_integral(spec, field).integral:
        rest = set(range(1, n)) - set(members)
        assert is_integral(CirculantSpec.of(n, rest), field).integral


@given(st.integers(2, 24), st.sampled_from(PRESETS), st.data())
@settings(max_examples=100, deadline=None)
def test_integral_over_rationals_stays_integral(n, field, data):
    members = data.draw(st.sets(st.integers(1, n - 1)))
    spec = CirculantSpec.of(n, members)
    if is_integral(spec, field_rationals()).integral:
        assert is_integral(spec, field).integral
