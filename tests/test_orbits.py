import gc
import json
import random
import sys
import threading
import time
import tracemalloc
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import circint.cyclotomic
import circint.fields
import circint.oracle
import circint.orbits
import circint.verify
from circint import (
    CirculantSpec,
    DegenerateOrder,
    LimitExceeded,
    OrbitPartition,
    OutOfRange,
    cross_verify,
    cyclotomic_polynomial,
    euler_phi,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    is_integral,
    limits,
    oracle_is_integral,
    orbit_partition,
    parse_field,
    proper_divisors,
    r_count,
)

PRESETS = [
    field_rationals(),
    field_gaussian(),
    field_quadratic(2),
    field_quadratic(-3),
    field_cyclotomic(8),
]


def blocks_as_tuples(part):
    return [(b.divisor, b.members) for b in part.blocks]


def test_partition_over_rationals_small():
    part = orbit_partition(6, field_rationals())
    assert blocks_as_tuples(part) == [(1, (1, 5)), (2, (2, 4)), (3, (3,))]


def test_partition_gaussian_order_eight():
    part = orbit_partition(8, field_gaussian())
    assert blocks_as_tuples(part) == [
        (1, (1, 5)),
        (1, (3, 7)),
        (2, (2,)),
        (2, (6,)),
        (4, (4,)),
    ]


def test_partition_gaussian_order_twelve():
    part = orbit_partition(12, field_gaussian())
    assert blocks_as_tuples(part) == [
        (1, (1, 5)),
        (1, (7, 11)),
        (2, (2, 10)),
        (3, (3,)),
        (3, (9,)),
        (4, (4, 8)),
        (6, (6,)),
    ]
    assert r_count(12, field_gaussian()) == 7


def test_partition_full_cyclotomic_gives_singletons():
    for n in (2, 5, 9, 12, 65536, 99991):
        part = orbit_partition(n, field_cyclotomic(n))
        expected = sorted(((gcd(x, n), (x,)) for x in range(1, n)), key=lambda b: (b[0], b[1][0]))
        assert blocks_as_tuples(part) == expected
        assert r_count(n, field_cyclotomic(n)) == n - 1


def test_r_count_examples():
    assert r_count(12, field_rationals()) == 5
    assert r_count(8, field_gaussian()) == 5
    for n in range(2, 40):
        assert r_count(n, field_rationals()) == len(proper_divisors(n))


def test_r_count_matches_block_count():
    # custom fields with a non-cyclic or non-quadratic fixing subgroup check
    # the image-mod-gcd count against the listed orbits; the degree that
    # _fixing_mod keeps at each g is checked against the index of the listed
    # Galois subgroup at g
    extra = [parse_field(s) for s in ("cyclo:12", "custom:15:2", "custom:21:4,5", "custom:40:9,11")]
    for field in PRESETS + extra:
        for n in range(2, 90):
            assert r_count(n, field) == len(orbit_partition(n, field).blocks)
            for g in sympy.divisors(n)[1:]:
                index = euler_phi(g) // len(galois_subgroup_mod(field, g))
                assert circint.fields._fixing_mod(field, g)[2] == index, (field, n, g)


def test_locate():
    part = orbit_partition(8, field_gaussian())
    assert part.locate(7) == 1
    assert part.locate(1) == 0
    assert part.locate(6) == 3
    assert orbit_partition(6, field_rationals()).locate(3) == 2
    for x in range(1, 8):
        assert x in part.blocks[part.locate(x)].members
    with pytest.raises(OutOfRange):
        part.locate(0)
    with pytest.raises(OutOfRange):
        part.locate(8)
    assert part.block(part.block_count - 1).tolist() == [4]
    for i in (-1, part.block_count):
        with pytest.raises(IndexError):
            part.block(i)


@pytest.mark.parametrize("members", [[0], [-1], [6], [1, 6], [-1, 5]])
def test_cover_rejects_residues_outside_the_range(members):
    # 0 and -1 would read the index of residue 0 or 5, 6 would read past it
    with pytest.raises(OutOfRange):
        orbit_partition(6, field_rationals()).cover(members)


@pytest.mark.parametrize("members", [[1, 1], [5, 1, 1]])
def test_cover_rejects_repeated_residues(members):
    # the touched blocks' sizes would sum to |S| for [1, 1]; [5, 1, 1] would find no partial block
    with pytest.raises(ValueError, match="repeats"):
        orbit_partition(6, field_rationals()).cover(members)


def untiled(n, field, edit):
    """The partition from_blocks holds for edit(blocks), blocks the built
    (divisor, member list) pairs of (n, field)."""
    return OrbitPartition.from_blocks(n, field, edit([(p, ms.tolist()) for p, ms in orbit_partition(n, field).slices()]))


def test_lookups_refuse_a_residue_that_no_block_holds():
    # with 7 dropped, the index entry of 7 used to read block 0
    part = untiled(12, field_gaussian(), lambda blocks: [(p, [x for x in ms if x != 7]) for p, ms in blocks])
    with pytest.raises(ValueError, match="^no block holds 7$"):
        part.locate(7)
    for members in ((1, 5, 7, 11), (7,)):
        with pytest.raises(ValueError, match="^no block holds 7$"):
            part.cover(members)


def test_cover_refuses_blocks_that_overlap(monkeypatch):
    # (1, 5) and (5, 7, 11) both hold 5: S = {1, 5, 7, 11} touches both whole, yet their sizes sum to 5
    field = field_gaussian()
    part = untiled(12, field, lambda blocks: [(1, [1, 5]), (1, [5, 7, 11])] + blocks[2:])
    with pytest.raises(ValueError, match="^the blocks that S touches overlap or repeat a member$"):
        part.cover((1, 5, 7, 11))
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    with pytest.raises(ValueError, match="overlap"):
        cross_verify(12, field)


def test_lookups_refuse_a_member_past_the_order():
    part = untiled(12, field_gaussian(), lambda blocks: [(1, [1, 5, 13])] + blocks[1:])
    with pytest.raises(ValueError, match=r"^a block over divisor 1 leaves \[1, 12\)$"):
        part.cover((1, 5))


def test_degenerate_and_limit_errors(monkeypatch):
    with pytest.raises(DegenerateOrder):
        orbit_partition(1, field_rationals())
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "100")
    # the bound applies to n, never to lcm(7, 30) = 210; Q(zeta_7) meets
    # every Q(zeta_g), g | 30, in Q alone
    assert orbit_partition(30, field_cyclotomic(7)).blocks == orbit_partition(30, field_rationals()).blocks
    with pytest.raises(LimitExceeded):
        orbit_partition(101, field_rationals())
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "20")
    with pytest.raises(LimitExceeded):
        orbit_partition(30, field_rationals())  # cached above, still refused


def intersection_degree(spec, g):
    """Degree of K meet Q(zeta_g) from the field's own description: a
    quadratic field of conductor c lies in Q(zeta_g) exactly when c | g,
    and Q(zeta_m) meets Q(zeta_g) in Q(zeta_gcd(m, g))."""
    kind, _, arg = spec.partition(":")
    if kind == "cyclo":
        return int(sympy.totient(gcd(int(arg), g)))
    d = -1 if kind == "Qi" else int(arg)
    conductor = abs(d if d % 4 == 1 else 4 * d)
    return 2 if g % conductor == 0 else 1


@pytest.mark.parametrize("n,spec", [(30001, "Qi"), (99991, "sqrt:-7"), (50000, "cyclo:12"), (49999, "sqrt:5")])
def test_orders_past_the_conductor_lcm(n, spec):
    # lcm(conductor, n) exceeds the modulus bound here; only n is bounded
    expected = sum(intersection_degree(spec, g) for g in sympy.divisors(n) if g > 1)
    field = parse_field(spec)
    assert r_count(n, field) == expected
    assert len(orbit_partition(n, field).blocks) == expected


PER_ORDER_MEMOS = (circint.orbits._partition_cached, circint.cyclotomic._cyclotomic, circint.cyclotomic._coset_plan,
                   circint.oracle._divisor_gathers)


def test_caches_are_bounded():
    # a sweep over many orders must not keep every partition and subgroup: the per-order memos are
    # bounded by the residues they hold as well as by entries, and a field holds its fixing subgroup
    # reduced mod d only for the divisors d of its conductor
    for cached in PER_ORDER_MEMOS:
        info = cached.cache_info()
        assert (info["max_entries"], info["max_residues"]) == (limits.MEMO_ENTRIES, limits.MEMO_RESIDUES)
        assert info["entries"] <= info["max_entries"]
        assert info["residues"] <= info["max_residues"] or info["entries"] == 1
    field = parse_field("custom:21:4")
    for n in range(2, 200):
        r_count(n, field)
    assert set(field._reductions) == set(sympy.divisors(21))


def test_memos_hold_at_most_the_residue_bound():
    # orders near 5 * 10^4 over cyclo:n, whose gathers are cheap (H is trivial at every modulus); 12 of
    # them pass 2^19 residues, so the oldest are evicted and the newest that fit are kept
    memos = (circint.orbits._partition_cached, circint.oracle._divisor_gathers)
    for memo in memos:
        memo.cache_clear()
    orders = range(50_000, 50_012)
    for n in orders:
        field = field_cyclotomic(n)
        orbit_partition(n, field)
        assert oracle_is_integral(CirculantSpec(n, (1,)), field)
        for memo in memos:
            info = memo.cache_info()
            assert info["residues"] <= limits.MEMO_RESIDUES and info["entries"] <= limits.MEMO_ENTRIES
    kept = []
    for n in reversed(orders):
        if sum(kept) + n > limits.MEMO_RESIDUES:
            break
        kept.append(n)
    assert len(kept) < len(orders)
    for memo in memos:
        info = memo.cache_info()
        assert (info["misses"], info["entries"], info["residues"]) == (len(orders), len(kept), sum(kept))
    # many small orders are held up to the entry bound
    for n in range(2, limits.MEMO_ENTRIES + 50):
        orbit_partition(n, field_rationals())
    info = circint.orbits._partition_cached.cache_info()
    assert info["entries"] == limits.MEMO_ENTRIES and info["residues"] <= limits.MEMO_RESIDUES


def test_an_order_past_the_residue_bound_is_served_from_its_memo(monkeypatch):
    # the entry just built is never evicted, so a sweep at one order hits even above the bound
    n = limits.MEMO_RESIDUES + 1
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", str(n))
    for build, memo in ((lambda: orbit_partition(n, field_rationals()), circint.orbits._partition_cached),
                        (lambda: cyclotomic_polynomial(n), circint.cyclotomic._cyclotomic)):
        value = build()
        hits = memo.cache_info()["hits"]
        assert build() is value
        info = memo.cache_info()
        assert info["hits"] == hits + 1 and info["entries"] == 1 and info["residues"] == n
        memo.cache_clear()


def test_memo_is_safe_under_threads():
    # four threads through one memo past the residue bound, switching often: every call returns its
    # own key's value, every call counts as one hit or one miss, and the residues held are exactly
    # those of the entries left
    memo = limits.Memo(lambda n, k: [n, k])
    orders = [limits.MEMO_RESIDUES // 16 + i for i in range(40)]
    calls, errors = [0] * 4, []
    deadline = time.monotonic() + 1.0

    def worker(t):
        rng = random.Random(t)
        try:
            while time.monotonic() < deadline:
                n, k = rng.choice(orders), rng.randrange(3)
                if memo(n, k) != [n, k]:
                    errors.append((n, k))
                calls[t] += 1
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    info = memo.cache_info()
    assert info["hits"] + info["misses"] == sum(calls) and info["misses"] > len(orders) * 3
    assert info["residues"] == sum(n for n, _ in memo._entries) <= limits.MEMO_RESIDUES
    assert 1 <= info["entries"] <= limits.MEMO_ENTRIES


class WalkCountedTuple(tuple):
    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_fixing_subgroup_is_reduced_once_per_divisor_of_the_conductor():
    # the build, its checks and r_count read H mod d = gcd(21, 420/p) for each of the 23 divisors p
    # of 420, and galois_subgroup_mod reads it at every g; H is listed once for each of the 4 values of d,
    # and the field keeps the 4 reductions
    field = parse_field("custom:21:4")
    hash(field)
    elements = WalkCountedTuple(field.fixing_subgroup.elements)
    object.__setattr__(field.fixing_subgroup, "elements", elements)
    assert "_reductions" not in field.__dict__  # a new field has reduced nothing yet
    circint.orbits._partition_cached.cache_clear()
    elements.walks = 0
    orbit_partition(420, field)
    r_count(420, field)
    for g in (1, 3, 7, 12, 21, 35, 420):
        galois_subgroup_mod(field, g)
    assert elements.walks <= len({gcd(21, g) for g in sympy.divisors(420)}) == len(field._reductions) == 4


def test_json_shape():
    doc = orbit_partition(6, field_rationals()).to_json()
    assert list(doc.keys()) == ["n", "field", "blocks"]
    assert doc["n"] == 6 and doc["field"] == "Q"
    assert doc["blocks"] == [
        {"p": 1, "members": [1, 5]},
        {"p": 2, "members": [2, 4]},
        {"p": 3, "members": [3]},
    ]
    json.dumps(doc)  # must be serializable as-is


@pytest.mark.parametrize("field", PRESETS)
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 30])
def test_partition_invariants(field, n):
    orbit_partition(n, field).validate()


def test_partition_over_rationals_equals_gcd_classes():
    for n in range(2, 60):
        part = orbit_partition(n, field_rationals())
        gcd_classes = [tuple(x for x in range(1, n) if gcd(x, n) == p) for p in proper_divisors(n)]
        assert [b.members for b in part.blocks] == gcd_classes


@pytest.mark.parametrize("small,large", [
    (field_rationals(), field_gaussian()),
    (field_rationals(), field_quadratic(2)),
    (field_gaussian(), field_cyclotomic(8)),
])
def test_field_extension_refines_partition(small, large):
    for n in range(2, 31):
        coarse = orbit_partition(n, small)
        fine = orbit_partition(n, large)
        for block in fine.blocks:
            hosts = {coarse.locate(x) for x in block.members}
            assert len(hosts) == 1


@given(st.integers(2, 60), st.sampled_from(PRESETS))
@settings(max_examples=60, deadline=None)
def test_block_sizes_follow_the_galois_subgroups(n, field):
    from circint import euler_phi, galois_subgroup_mod

    part = orbit_partition(n, field)
    by_divisor = {}
    for b in part.blocks:
        by_divisor.setdefault(b.divisor, []).append(b.members)
    assert set(by_divisor) == set(proper_divisors(n))
    for p, members in by_divisor.items():
        h = len(galois_subgroup_mod(field, n // p))
        assert all(len(ms) == h for ms in members)
        assert len(members) == euler_phi(n // p) // h


def multiplication_partition(n, field):
    """Reference: every orbit multiplied out from the listed Galois subgroup
    at each modulus g = n/p, sorted, blocks in (divisor, smallest member)
    order."""
    blocks = []
    for p in proper_divisors(n):
        g = n // p
        acts = galois_subgroup_mod(field, g).elements
        seen = set()
        p_blocks = []
        for x in range(1, g):
            if x in seen or gcd(x, g) != 1:
                continue
            orbit = sorted(a * x % g for a in acts)
            assert len(set(orbit)) == len(acts), "group action is not free"
            seen.update(orbit)
            p_blocks.append(tuple(p * y for y in orbit))
        p_blocks.sort(key=lambda ms: ms[0])
        blocks.extend((p, ms) for ms in p_blocks)
    return blocks


# the fields of test_fields.test_galois_subgroup_matches_lcm_scan
KEYED_BUILD_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5", "cyclo:3", "cyclo:5",
                      "cyclo:8", "cyclo:12", "custom:13:5", "custom:16:7", "custom:21:4"]


@pytest.mark.parametrize("spec", KEYED_BUILD_FIELDS)
def test_keyed_build_matches_multiplied_orbits(spec):
    field = parse_field(spec)
    for n in range(2, 300):
        assert blocks_as_tuples(orbit_partition(n, field)) == multiplication_partition(n, field), (spec, n)


@pytest.mark.parametrize("spec", KEYED_BUILD_FIELDS)
def test_union_test_agrees_with_cover(spec):
    # the sweep's yes/no block test, on built partitions, which tile [1, n), against cover's witness
    field = parse_field(spec)
    for n in range(2, 13):
        part = orbit_partition(n, field)
        part._check_tiling()
        for k in range(n):
            for members in combinations(range(1, n), k):
                touched, union = part._union(members)
                assert touched == set(map(part.locate, members))
                assert union == (part.cover(members)[1] is None), (n, members)


@pytest.mark.parametrize("spec,n", [(spec, n) for spec in ("Q", "Qi", "sqrt:-7") for n in (65536, 83160, 99991)]
                         + [("custom:99991:-1", 99991)])  # d = g: 49995 blocks of two
def test_keyed_build_matches_multiplied_orbits_near_the_bound(spec, n):
    field = parse_field(spec)
    assert blocks_as_tuples(orbit_partition(n, field)) == multiplication_partition(n, field)


def with_blocks(part, blocks):
    return OrbitPartition.from_blocks(part.order, part.field, blocks)


def test_validate_rejects_blocks_that_are_not_orbits():
    good = orbit_partition(24, field_gaussian())
    good.validate()
    blocks = blocks_as_tuples(good)
    assert blocks[:2] == [(1, (1, 5, 13, 17)), (1, (7, 11, 19, 23))]
    # same sizes, counts, gcds, coverage and order, but each block mixes
    # two orbits: 1 and 7 differ mod 4, and Q(i) tells them apart
    regrouped = with_blocks(good, [(1, (1, 5, 7, 11)), (1, (13, 17, 19, 23))] + blocks[2:])
    assert not oracle_is_integral(CirculantSpec(24, (1, 5, 7, 11)), field_gaussian())
    with pytest.raises(ValueError, match="not one Galois orbit"):
        regrouped.validate()
    split = with_blocks(good, [(1, (1, 5)), (1, (13, 17))] + blocks[1:])
    merged = with_blocks(good, [(1, blocks[0][1] + blocks[1][1])] + blocks[2:])
    reordered = with_blocks(good, [blocks[1], blocks[0]] + blocks[2:])
    for bad, message in [(split, "size"), (merged, "size"), (reordered, "canonical order")]:
        with pytest.raises(ValueError, match=message):
            bad.validate()
    # the canonical-order check must not read a block's first member as its smallest
    unsorted = OrbitPartition.from_blocks(6, field_rationals(), [(1, (5, 1)), (2, (4, 2)), (3, (3,))])
    with pytest.raises(ValueError, match="ascending"):
        unsorted.validate()
    relabeled = OrbitPartition.from_blocks(6, field_rationals(), [(1, (1, 5)), (2, (2, 4)), (1, (3,))])
    with pytest.raises(ValueError, match="canonical order"):
        relabeled.validate()
    past_n = OrbitPartition.from_blocks(6, field_rationals(), [(1, (1, 5)), (2, (2, 6)), (3, (3,))])
    with pytest.raises(ValueError, match=r"leaves \[1, 6\)"):
        past_n.validate()
    # irregular shapes keep one run per run of like blocks, and validate() groups them by divisor
    empty = with_blocks(good, blocks[:1] + [(1, ())] + blocks[1:])
    mixed = with_blocks(good, [(1, blocks[0][1][:3]), (1, blocks[0][1][3:] + blocks[1][1])] + blocks[2:])
    returning = with_blocks(good, blocks[:1] + blocks[2:] + blocks[1:2])
    assert empty.runs[:3] == ((1, 4, 1), (1, 0, 1), (1, 4, 1)) and mixed.runs[:2] == ((1, 3, 1), (1, 5, 1))
    assert returning.runs[0] == returning.runs[-1] == (1, 4, 1)
    for bad, message in [(empty, "blocks over divisor 1 are not all of size 4"),
                         (mixed, "blocks over divisor 1 are not all of size 4"),
                         (returning, "blocks out of canonical order")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            bad.validate()


@pytest.mark.parametrize("member", [-1, 2**32])
def test_from_blocks_rejects_members_it_cannot_hold(member):
    with pytest.raises(ValueError, match=r"a block over divisor 2 leaves \[1, 6\)"):
        OrbitPartition.from_blocks(6, field_rationals(), [(1, (1, 5)), (2, (2, member)), (3, (3,))])


def per_member_validate(part):
    """Reference: the validation that tested gcd(x, n) and the orbit key of
    every member one at a time."""
    n = part.order
    seen = set()
    by_divisor = {}
    for b in part.blocks:
        ms = b.members
        if not ms or min(ms) < 1 or max(ms) >= n or not seen.isdisjoint(ms):
            raise ValueError(f"a block over divisor {b.divisor} is empty, out of range or overlaps another")
        seen.update(ms)
        if {gcd(x, n) for x in ms} != {b.divisor}:
            raise ValueError(f"block of {ms[0]} has a member whose gcd with {n} is not {b.divisor}")
        by_divisor.setdefault(b.divisor, []).append(ms)
    if len(seen) != n - 1:
        raise ValueError("blocks do not cover 1..n-1")
    for p, found in by_divisor.items():
        g = n // p
        d, reduced, _ = circint.fields._fixing_mod(part.field, g)
        h = euler_phi(g) * len(reduced) // euler_phi(d)
        if {len(ms) for ms in found} != {h}:
            raise ValueError(f"blocks over divisor {p} are not all of size {h}")
        if len(found) != euler_phi(g) // h:
            raise ValueError(f"wrong number of blocks over divisor {p}")
        for ms in found:
            if not {x // p % d for x in ms} <= {a * (ms[0] // p) % d for a in reduced}:
                raise ValueError(f"block of {ms[0]} over divisor {p} is not one Galois orbit")
    keys = [(b.divisor, b.members[0]) for b in part.blocks]
    if keys != sorted(keys):
        raise ValueError("blocks out of canonical order")


def canonical(blocks):
    return sorted(((p, tuple(sorted(ms))) for p, ms in blocks), key=lambda b: (b[0], b[1][0]))


def corruptions(part):
    """Partitions that are not the orbit partition of (n, K), one per kind
    of damage that applies: a member of gcd q swapped into, or copied
    into, a block over a proper divisor p of q; a block over q relabelled
    p where both have blocks of one size; labels that are not proper
    divisors; two blocks over one divisor regrouped, split, merged or
    reordered."""
    n, blocks = part.order, blocks_as_tuples(part)
    by_divisor = {}
    for i, (p, _) in enumerate(blocks):
        by_divisor.setdefault(p, []).append(i)
    for p, q in ((p, q) for p in by_divisor for q in by_divisor if q > p and q % p == 0):
        (i, *_), (j, *more) = by_divisor[p], by_divisor[q]
        (_, low), (_, high) = blocks[i], blocks[j]
        swapped, copied = list(blocks), list(blocks)
        swapped[i], swapped[j] = (p, low[:-1] + high[:1]), (q, low[-1:] + high[1:])
        copied[i] = (p, low[:-1] + high[:1])
        yield "gcd", canonical(swapped)
        yield "overlap", canonical(copied)
        if more and len(low) == len(high):
            yield "moved", canonical(blocks[:j] + [(p, high)] + blocks[j + 1:])
    last = blocks[-1][0]
    strays = [0, n] + [m for m in range(2, n) if n % m][:1]
    for stray in strays:
        yield "label", [(stray if b == last else b, ms) for b, ms in blocks]
    for p, (i, j, *_) in ((p, ix) for p, ix in by_divisor.items() if len(ix) > 1):
        (_, a), (_, b) = blocks[i], blocks[j]
        rest = blocks[:i] + blocks[j + 1:]
        if len(a) > 1:
            yield "regrouped", canonical(rest + [(p, a[:-1] + b[-1:]), (p, b[:-1] + a[-1:])])
            yield "split", canonical(rest + [(p, a[:1]), (p, a[1:]), (p, b)])
        yield "merged", canonical(rest + [(p, a + b)])
        yield "reordered", blocks[:i] + [blocks[j], blocks[i]] + blocks[j + 1:]
        break


@pytest.mark.parametrize("spec", KEYED_BUILD_FIELDS)
def test_validate_agrees_with_the_per_member_check(spec):
    # the divisibility, label and count checks must reach the verdicts of
    # the per-member gcd and key tests; messages may differ
    field = parse_field(spec)
    kinds = set()
    for n in range(2, 300):
        part = orbit_partition(n, field)
        part.validate()
        per_member_validate(part)
        for kind, blocks in corruptions(part):
            kinds.add(kind)
            bad = with_blocks(part, blocks)
            with pytest.raises(ValueError):
                per_member_validate(bad)
            with pytest.raises(ValueError):
                bad.validate()
    assert kinds >= {"gcd", "overlap", "label"}
    # over Q each divisor has a single block
    assert spec == "Q" or kinds >= {"regrouped", "split", "merged", "reordered"}


def scan_classify(part, members):
    """Reference: the block test as a scan of every member of every block,
    the first partly covered block being the witness."""
    members = frozenset(members)
    covered = []
    for i, block in enumerate(part.blocks):
        inside = [x for x in block.members if x in members]
        if len(inside) == len(block.members):
            covered.append(i)
        elif inside:
            missing = tuple(x for x in block.members if x not in members)
            return False, None, (i, missing, tuple(inside))
    return True, tuple(covered), None


@pytest.mark.parametrize("spec", KEYED_BUILD_FIELDS)
def test_block_counts_decide_like_the_scan(spec):
    # is_integral counts S's members per block through the residue index;
    # verdicts and witnesses must be those of the scan over every block
    field = parse_field(spec)
    rng = random.Random(spec)
    for n in range(2, 300):
        part = orbit_partition(n, field)
        blocks = part.blocks
        for x in range(1, n):
            assert part.locate(x) == next(i for i, b in enumerate(blocks) if x in b.members)
        union = sorted(x for b in blocks if rng.random() < 0.5 for x in b.members)
        flipped = sorted(set(union) ^ {rng.randrange(1, n)})
        subset = sorted(x for x in range(1, n) if rng.random() < 0.5)
        for members in (union, flipped, subset):
            verdict = is_integral(CirculantSpec(n, tuple(members)), field)
            v = verdict.violation
            got = verdict.integral, verdict.block_indices, v and (v.block_index, v.missing, v.present)
            assert got == scan_classify(part, members), (n, members)


def test_dropped_fields_leave_no_reductions_behind():
    # a field owns its reduced fixing subgroups, so once the field and the partitions built over it
    # are dropped nothing of it is held; a module-level cache keyed by the field kept each alive
    orbit_partition(12, field_quadratic(-5))  # warm the module-level state the build touches
    circint.orbits._partition_cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in (-5001, -5002, -5005, -5006):  # conductors near 2 * 10^4
            field = field_quadratic(d)
            orbit_partition(field.conductor, field)
            one = tracemalloc.get_traced_memory()[0] - before
            del field
            circint.orbits._partition_cached.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 20_000 < one, (one, held)  # one field and its partition take about 0.5 MB


@pytest.mark.parametrize("n,spec", [(99991, "cyclo:99991"), (98280, "Qi")])
def test_cached_partition_holds_about_four_bytes_per_residue(n, spec):
    # one unsigned member array and a run per divisor; the blocks view is
    # built per access and the residue index on the first lookup
    field = parse_field(spec)
    r = r_count(n, field)
    orbit_partition(12, field).validate()  # warm the field's own caches
    circint.orbits._partition_cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        part = orbit_partition(n, field)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        assert held <= 6 * n + 64_000, held
        for _ in range(2):
            assert len(part.blocks) == r
            gc.collect()
            # a cached view would hold megabytes; interpreter free lists move a few bytes
            assert tracemalloc.get_traced_memory()[0] - before <= held + 1_000
    finally:
        tracemalloc.stop()
