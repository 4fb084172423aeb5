import json
import math
import random
import subprocess
import sys
import types
from contextlib import suppress
from itertools import combinations

import pytest

import circint.verify
from circint import (
    CirculantSpec,
    CyclotomicInteger,
    InvalidSet,
    LimitExceeded,
    OrbitPartition,
    OutOfRange,
    UnsupportedLattice,
    VerificationReport,
    cross_verify,
    cyc_equal,
    field_cyclotomic,
    field_gaussian,
    field_quadratic,
    field_rationals,
    galois_subgroup_mod,
    lattice_cross_verify,
    lemma1_check,
    limits,
    oracle_is_integral,
    orbit_partition,
    parse_field,
)
from circint.oracle import _decide, _divisor_gathers, _moved
from cyc_helpers import galois_apply


def test_cross_verify_exhaustive_counts():
    rep = cross_verify(10, field_rationals())
    assert rep.cases_checked == 512
    assert rep.passed and rep.mode == "exhaustive" and rep.seed is None

    rep = cross_verify(8, field_gaussian())
    assert rep.cases_checked == 128
    assert rep.passed


def test_cross_verify_sampled_and_deterministic():
    first = cross_verify(30, field_quadratic(2), samples=200, seed=1)
    second = cross_verify(30, field_quadratic(2), samples=200, seed=1)
    assert first.cases_checked == 200 and first.passed
    assert first.to_json(include_elapsed=False) == second.to_json(include_elapsed=False)
    assert first.seed == 1 and first.mode == "sample"


def test_cross_verify_exhaustive_bound(monkeypatch):
    with pytest.raises(LimitExceeded):
        cross_verify(15, field_rationals())
    monkeypatch.setattr(limits, "EXHAUSTIVE_BOUND", 15)
    rep = cross_verify(15, field_rationals())
    assert rep.cases_checked == 1 << 14 and rep.passed


def test_cross_verify_argument_validation():
    with pytest.raises(ValueError):
        cross_verify(10, field_rationals(), samples=0)


def test_lemma1_small_cases():
    rep = lemma1_check(6, field_rationals())
    assert rep.passed
    assert rep.cases_checked == 18  # 3 blocks x 5 frequencies + 3 block pairs
    assert rep.mode == "lemma1" and rep.seed is None

    rep = lemma1_check(8, field_gaussian())
    assert rep.passed
    assert rep.cases_checked == 5 * 7 + 10


def test_lemma1_vacuous_for_full_cyclotomic():
    for n in (4, 9, 14):
        rep = lemma1_check(n, field_cyclotomic(n))
        assert rep.passed
        r = len(orbit_partition(n, field_cyclotomic(n)).blocks)
        assert rep.cases_checked == r * (n - 1) + r * (r - 1) // 2


def test_lattice_cross_verify():
    rep = lattice_cross_verify(12, field_rationals())
    assert rep.passed and rep.mode == "numeric" and rep.cases_checked == 2048
    rep = lattice_cross_verify(20, field_gaussian(), samples=50, seed=9)
    assert rep.passed and rep.seed == 9
    with pytest.raises(UnsupportedLattice):
        lattice_cross_verify(10, field_quadratic(2))


def test_lattice_is_chosen_by_the_field_not_its_spelling():
    for spec in ("cyclo:1", "cyclo:2", "custom:8:3,5", "custom:12:5,7"):
        rep = lattice_cross_verify(8, parse_field(spec))
        assert rep.passed and rep.field == spec and rep.cases_checked == 128
        assert rep.to_json(include_elapsed=False) == {
            **lattice_cross_verify(8, field_rationals()).to_json(include_elapsed=False), "field": spec}
    # n = 8 has sets such as {1, 3}, integral over Q(i) but not over Q, so
    # the rational lattice would report mismatches here
    for spec in ("cyclo:4", "sqrt:-1", "custom:8:5", "custom:12:5", "custom:20:9,13"):
        rep = lattice_cross_verify(8, parse_field(spec))
        assert rep.passed and rep.field == spec and rep.cases_checked == 128
    for spec in ("sqrt:-3", "sqrt:2", "cyclo:3", "cyclo:8"):
        with pytest.raises(UnsupportedLattice):
            lattice_cross_verify(8, parse_field(spec))


def galois_lemma1_check(n, field):
    """Reference: lemma1_check as it was when it applied every fixing
    automorphism to the power-sum vector with galois_apply."""
    part = circint.verify.orbit_partition(n, field)
    fixers = galois_subgroup_mod(field, n).elements
    cases = 0
    mismatches = []
    for bi, block in enumerate(part.blocks):
        if not block.members:
            mismatches.append({"block": bi, "empty": True})
        for s in range(1, n):
            coeffs = [0] * n
            for j in block.members:
                coeffs[s * j % n] += 1
            value = CyclotomicInteger(n, tuple(coeffs))
            for a in fixers:
                if a == 1:
                    continue
                if not cyc_equal(galois_apply(a, value), value):
                    mismatches.append({"block": bi, "s": s, "moved_by": a})
                    break
            cases += 1
    for i in range(len(part.blocks)):
        si = set(part.blocks[i].members)
        for j in range(i + 1, len(part.blocks)):
            overlap = si.intersection(part.blocks[j].members)
            if overlap:
                mismatches.append({"blocks": [i, j], "overlap": sorted(overlap)})
            cases += 1
    return VerificationReport(n, field.describe(), "lemma1", cases, tuple(mismatches), None, 0)


@pytest.mark.parametrize("spec", ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7",
                                  "cyclo:3", "cyclo:8", "cyclo:12", "custom:21:4,5", "custom:27720:27719",
                                  "cyclo:n"])
def test_lemma1_matches_the_galois_reference(spec):
    # cyclo:n is the n-th cyclotomic field at each n, where every residue is
    # its own block; the real subfield of conductor 27720 has blocks of at
    # most two members at every n | 27720
    for n in range(2, 61 if spec == "cyclo:n" else 41):
        field = parse_field(spec.replace(":n", f":{n}"))
        rep = lemma1_check(n, field)
        assert rep.passed
        assert rep.to_json(include_elapsed=False) == galois_lemma1_check(n, field).to_json(include_elapsed=False)


def test_lemma1_reports_corrupted_partitions_like_the_galois_reference(monkeypatch):
    field = field_gaussian()
    good = orbit_partition(24, field)
    blocks = [(b.divisor, b.members) for b in good.blocks]
    assert blocks[:2] == [(1, (1, 5, 13, 17)), (1, (7, 11, 19, 23))]
    corrupted = [
        ([(1, (1, 5, 7, 11)), (1, (13, 17, 19, 23))] + blocks[2:], False),  # regrouped: two orbits per block
        ([(1, (1, 5)), (1, (7, 11, 13, 17, 19, 23))] + blocks[2:], False),  # split one block, merge into the next
        (blocks[:1] + blocks, False),  # duplicated block: overlapping supports
        ([(1, (5, 1, 17, 13))] + blocks[1:], True),  # unsorted, but still one orbit
        ([(1, (1, 5, 5, 13, 17))] + blocks[1:], False),  # repeated member
        (blocks[:1] + [(1, ())] + blocks[1:], False),  # empty block
        ([blocks[0], (1, (1, 5, 7, 11, 19, 23))] + blocks[2:], False),  # two blocks share 1 and 5
    ]
    for bad, passes in corrupted:
        part = OrbitPartition.from_blocks(24, field, bad)
        monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k, part=part: part)
        rep = lemma1_check(24, field)
        assert rep.passed == passes
        assert rep.to_json(include_elapsed=False) == galois_lemma1_check(24, field).to_json(include_elapsed=False)
    assert {"blocks": [0, 1], "overlap": [1, 5]} in rep.mismatches


def test_lemma1_fetches_the_galois_subgroup_once(monkeypatch):
    # the search reads H at n from the oracle's tables, which list it once per order; it lists none itself
    field = field_gaussian()
    blocks = [(b.divisor, b.members) for b in orbit_partition(24, field).blocks]
    regrouped = OrbitPartition.from_blocks(24, field, [(1, (1, 5, 7, 11)), (1, (13, 17, 19, 23))] + blocks[2:])
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: regrouped)
    calls, fetch = [], circint.verify.galois_subgroup_mod
    monkeypatch.setattr(circint.verify, "galois_subgroup_mod", lambda k, g: calls.append(g) or fetch(k, g))
    rep = lemma1_check(24, field)
    assert calls == []
    assert {m["block"] for m in rep.mismatches} == {0, 1}  # two rejected blocks
    assert rep.to_json(include_elapsed=False) == galois_lemma1_check(24, field).to_json(include_elapsed=False)


def test_lemma1_reaches_the_exact_order_bound():
    # over cyclo:10000 every residue is its own block: r = 9999 oracle calls,
    # each O(1) on its one member, and about 5 * 10^7 block pairs, which are
    # not intersected one by one
    script = ("from circint import field_cyclotomic, lemma1_check\n"
              "rep = lemma1_check(10000, field_cyclotomic(10000))\n"
              "assert rep.passed and rep.cases_checked == 9999 * 9999 + 9999 * 9998 // 2\n")
    subprocess.run([sys.executable, "-c", script], timeout=5, check=True)


def test_members_decode_masks_like_a_shift_per_bit():
    def shifted(mask, n):
        return tuple(i + 1 for i in range(n - 1) if mask >> i & 1)

    for n in range(2, 13):
        for mask in range(1 << (n - 1)):
            assert circint.verify._members(mask) == shifted(mask, n)
    # every mask is decoded from bin(), whatever its size
    for mask in range((1 << 16) + 64):
        assert circint.verify._members(mask) == shifted(mask, 18)
    rng = random.Random(5000)
    for n, count in ((5000, 20), (98280, 3)):
        for _ in range(count):
            mask = rng.getrandbits(n - 1)
            assert circint.verify._members(mask) == shifted(mask, n)


@pytest.mark.parametrize("n, spec", [(10007, "Q"), (12000, "Qi")])
def test_cross_verify_answers_above_the_exact_order_bound(n, spec):
    rep = cross_verify(n, parse_field(spec), samples=3)
    assert rep.passed and rep.cases_checked == 3 and rep.mode == "sample"


def test_lemma1_answers_above_the_exact_order_bound():
    rep = lemma1_check(10007, field_cyclotomic(10007))
    assert rep.passed and rep.cases_checked == 10006 * 10006 + 10006 * 10005 // 2


def test_lattice_cross_verify_answers_above_the_exact_order_bound():
    rep = lattice_cross_verify(10007, field_rationals(), samples=2)
    assert rep.passed and rep.cases_checked == 2 and rep.mode == "numeric"


def test_lemma1_refuses_to_search_a_rejected_block_above_the_exact_order_bound(monkeypatch):
    # the single block over Q at a prime n, split in two: each half is rejected by the oracle,
    # and the search of it, at most log2|H| + 1 images per proper divisor, is refused instead of run
    n, field = 10007, field_rationals()
    split = OrbitPartition.from_blocks(n, field, [(1, range(1, 5004)), (1, range(5004, n))])
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: split)
    judged, searched, oracle = [], [], circint.verify._decide
    monkeypatch.setattr(circint.verify, "_decide", lambda tables, n, s: judged.append(s) or oracle(tables, n, s))
    monkeypatch.setattr(circint.verify, "_moved", lambda *args: searched.append(args))
    with pytest.raises(LimitExceeded, match="exact-order limit"):
        lemma1_check(n, field)
    assert judged == [tuple(range(1, 5004))] and searched == []


def merged(n, field, ascending=True):
    """The partition of (n, field) with its first two same-divisor blocks
    merged into one block, ascending or the two concatenated: a union of
    two orbits."""
    blocks = [(b.divisor, b.members) for b in orbit_partition(n, field).blocks]
    i = next(i for i in range(len(blocks) - 1) if blocks[i][0] == blocks[i + 1][0])
    p, first = blocks[i]
    union = first + blocks[i + 1][1]
    blocks[i:i + 2] = [(p, tuple(sorted(union)) if ascending else union)]
    return i, OrbitPartition.from_blocks(n, field, blocks)


@pytest.mark.parametrize("n, spec", [(60, "Qi"), (1001, "sqrt:-7"), (9240, "sqrt:5"), (60060, "sqrt:-7")])
def test_lemma1_sees_a_block_that_holds_two_orbits(monkeypatch, n, spec):
    # the oracle accepts a union of two orbits, so only the orbit count of an accepted block shows it
    field = parse_field(spec)
    i, part = merged(n, field)
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    rep = lemma1_check(n, field)
    r = part.block_count
    assert rep.mismatches == ({"block": i, "orbits": 2},) and rep.cases_checked == (n - 1) * r + r * (r - 1) // 2


@pytest.mark.parametrize("n, spec", [(60, "Qi"), (1001, "sqrt:-7")])
def test_lemma1_judges_a_block_by_its_member_set(monkeypatch, n, spec):
    # the same merged block stored unsorted: its order must not send it to the search, which
    # finds nothing in a union of orbits
    field = parse_field(spec)
    i, part = merged(n, field, ascending=False)
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    assert lemma1_check(n, field).mismatches == ({"block": i, "orbits": 2},)


def mask_order_mismatches(n, field, part):
    """Reference: the exhaustive sweep's mismatches, every mask decoded in
    counter order (bit i covering residue i + 1), sorted by subset."""
    out = []
    for mask in range(1 << (n - 1)):
        members = tuple(i + 1 for i in range(n - 1) if mask >> i & 1)
        got = part.cover(members)[1] is None
        expected = oracle_is_integral(CirculantSpec(n, members), field)
        if got != expected:
            out.append({"S": list(members), "expected": expected, "got": got})
    return sorted(out, key=lambda m: m["S"])


@pytest.mark.parametrize("n, spec, count", [(13, "cyclo:13", 2048), (12, "Qi", None)])
def test_exhaustive_mismatches_do_not_depend_on_the_sweep_order(monkeypatch, n, spec, count):
    field = parse_field(spec)
    _, part = merged(n, field)
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    rep = cross_verify(n, field)
    assert rep.cases_checked == 1 << (n - 1) and rep.mismatches
    assert list(rep.mismatches) == mask_order_mismatches(n, field, part)
    assert count is None or len(rep.mismatches) == count


def duplicated(blocks):
    return blocks[:1] + blocks


def sharing(blocks):
    (p, first), (q, second) = blocks[:2]
    return [(p, first), (q, first[:1] + second)] + blocks[2:]


def dropping(blocks):
    (p, first), *rest = blocks
    return [(p, first[1:])] + rest


@pytest.mark.parametrize("edit", [duplicated, sharing, dropping])
@pytest.mark.parametrize("samples", [None, 5])
def test_cross_verify_refuses_untiled_blocks_before_any_set(monkeypatch, edit, samples):
    # a duplicated block passed every set, and a block sharing a member was refused partway through the
    # sweep; the sweep's block side decides S from the sizes of the blocks it touches, so blocks that do
    # not tile [1, n) are refused once, before the first set
    field = field_gaussian()
    blocks = [(p, ms.tolist()) for p, ms in orbit_partition(12, field).slices()]
    part = OrbitPartition.from_blocks(12, field, edit(blocks))
    decided = []
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    monkeypatch.setattr(circint.verify, "_decide", lambda *args: decided.append(args) or True)
    with pytest.raises(ValueError, match=r"^the blocks overlap, repeat a member or leave one of \[1, 12\) out$"):
        cross_verify(12, field, samples=samples)
    assert decided == []


@pytest.mark.parametrize("first, bad", [((1, 5, 13, 24), 24), ((0, 1, 5, 13, 17), 0), ((1, 30, 5, 0), 30)])
def test_lemma1_names_the_first_member_out_of_range(monkeypatch, first, bad):
    field = field_gaussian()
    blocks = [(b.divisor, b.members) for b in orbit_partition(24, field).blocks]
    part = OrbitPartition.from_blocks(24, field, [(1, first)] + blocks[1:])
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    with pytest.raises(OutOfRange, match=rf"^connection element {bad} outside \[1, 24\)$"):
        lemma1_check(24, field)


def per_frequency_lemma1_check(n, field):
    """Reference: lemma1_check as it was when it routed each block through a
    CirculantSpec, searched a rejected block at every frequency s, and
    intersected every block pair once some residue repeated."""
    part = circint.verify.orbit_partition(n, field)
    tables = _divisor_gathers(n, field)
    (_, fixers, leader_of, orbit_size), mismatches, flat = tables, [], []
    for bi, (_, block) in enumerate(part.slices()):
        members = tuple(block)
        flat.extend(members)
        if not members:
            mismatches.append({"block": bi, "empty": True})
        with suppress(InvalidSet):
            if _decide(tables, n, CirculantSpec(n, tuple(sorted(members))).connection_set):
                leaders = set(map(leader_of.__getitem__, members))
                if members and [len(members)] != [orbit_size[r] for r in leaders]:
                    mismatches.append({"block": bi, "orbits": len(leaders)})
                continue
        limits.check_order(n)
        for x in members:
            if not 1 <= x < n:
                raise OutOfRange(f"connection element {x} outside [1, {n})")
        for s in range(1, n):
            a = _moved(n, fixers, [(x * s % n, 1) for x in members])
            if a:
                mismatches.append({"block": bi, "s": s, "moved_by": a})
    if len(set(flat)) < len(flat):
        supports = [set(block) for _, block in part.slices()]
        for (i, first), (j, second) in combinations(enumerate(supports), 2):
            overlap = first & second
            if overlap:
                mismatches.append({"blocks": [i, j], "overlap": sorted(overlap)})
    r = part.block_count
    cases = (n - 1) * r + r * (r - 1) // 2
    return VerificationReport(n, field.describe(), "lemma1", cases, tuple(mismatches), None, 0)


def corrupt(blocks, rng):
    """One random corruption of the (divisor, members) blocks: a member moved
    to another block, repeated in its block or shared with another, a block
    split in two, or its members shuffled."""
    blocks = [(p, list(ms)) for p, ms in blocks]
    kind = rng.choice(["moved", "repeated", "shared", "split", "shuffled"])
    i = rng.randrange(len(blocks))
    p, ms = blocks[i]
    if kind == "moved" and len(blocks) > 1:
        j = rng.choice([j for j in range(len(blocks)) if j != i])
        blocks[j][1].append(ms.pop(rng.randrange(len(ms))))
    elif kind == "repeated":
        ms.insert(rng.randrange(len(ms) + 1), rng.choice(ms))
    elif kind == "shared":
        blocks[rng.randrange(len(blocks))][1].append(rng.choice(ms))
    elif kind == "split" and len(ms) > 1:
        k = rng.randrange(1, len(ms))
        blocks[i:i + 1] = [(p, ms[:k]), (p, ms[k:])]
    else:
        rng.shuffle(ms)
    return blocks


def test_lemma1_matches_the_per_frequency_search_on_corrupted_partitions(monkeypatch):
    rng, kinds = random.Random(25), set()
    for spec in ("Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "cyclo:3", "cyclo:8", "cyclo:12",
                 "custom:21:4,5"):
        field = parse_field(spec)
        for n in range(2, 41):
            built = [(p, ms.tolist()) for p, ms in orbit_partition(n, field).slices()]
            for _ in range(4):
                part = OrbitPartition.from_blocks(n, field, corrupt(built, rng))
                monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k, part=part: part)
                rep = lemma1_check(n, field)
                assert rep.to_json(include_elapsed=False) == \
                    per_frequency_lemma1_check(n, field).to_json(include_elapsed=False)
                kinds.update(key for m in rep.mismatches for key in m)
    assert kinds == {"block", "s", "moved_by", "orbits", "blocks", "overlap", "empty"}


def test_lemma1_searches_each_rejected_block_once_per_gcd_class(monkeypatch):
    # both halves are rejected; P_B(d*u) is the image of P_B(d), so each half is searched at
    # the 31 proper divisors of 2310, not at all 2309 frequencies
    n, field = 2310, field_gaussian()
    (p, first), *rest = [(p, ms.tolist()) for p, ms in orbit_partition(n, field).slices()]
    part = OrbitPartition.from_blocks(n, field, [(p, first[:len(first) // 2]), (p, first[len(first) // 2:])] + rest)
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    searched, moved = [], circint.verify._moved
    monkeypatch.setattr(circint.verify, "_moved", lambda *args: searched.append(args) or moved(*args))
    rep = lemma1_check(n, field)
    assert len(searched) == 2 * 31 and len(rep.mismatches) == 4592
    assert rep.to_json(include_elapsed=False) == per_frequency_lemma1_check(n, field).to_json(include_elapsed=False)


def test_lemma1_skips_the_images_of_the_stabilizer_it_has_found(monkeypatch):
    # a split first block over Q at 4620, |H| = 960: the elements that fix P_B(d) form a group,
    # so each search builds at most log2|H| + 1 images of length n/d, not one per element
    n, field = 4620, field_rationals()
    (p, first), *rest = [(p, ms.tolist()) for p, ms in orbit_partition(n, field).slices()]
    part = OrbitPartition.from_blocks(n, field, [(p, first[:len(first) // 2]), (p, first[len(first) // 2:])] + rest)
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    searched, images, moved = [], [], circint.verify._moved
    monkeypatch.setattr(circint.verify, "_moved", lambda *args: searched.append(args) or moved(*args))
    monkeypatch.setattr(circint.oracle, "any", lambda diff: images.append(len(diff)) or any(diff), raising=False)
    rep = lemma1_check(n, field)
    assert len(searched) == 2 * 47 and len(rep.mismatches) == 4560
    assert len(images) <= len(searched) * (math.log2(960) + 1)
    assert sum(images) <= sum(m * (math.log2(960) + 1) for m, _, _ in searched)  # each of length n/d
    assert {m for m, _, _ in searched} == {n // d for d in range(1, n) if n % d == 0}


def test_lemma1_intersects_only_blocks_that_hold_a_repeated_residue():
    # over cyclo:20000 every residue is its own block; with the first one duplicated, the two
    # copies of {1} are the only blocks intersected, not all 2 * 10^8 pairs
    script = ("import circint.verify\n"
              "from circint import OrbitPartition, field_cyclotomic, lemma1_check, orbit_partition\n"
              "field = field_cyclotomic(20000)\n"
              "blocks = [(p, ms.tolist()) for p, ms in orbit_partition(20000, field).slices()]\n"
              "part = OrbitPartition.from_blocks(20000, field, blocks[:1] + blocks)\n"
              "circint.verify.orbit_partition = lambda n, k: part\n"
              "assert lemma1_check(20000, field).mismatches == ({'blocks': [0, 1], 'overlap': [1]},)\n")
    subprocess.run([sys.executable, "-c", script], timeout=5, check=True)


def test_samples_are_drawn_when_the_sweep_reaches_them(monkeypatch):
    drawn, decided = [], []

    class Counting(random.Random):
        def getrandbits(self, k):
            drawn.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(circint.verify, "random", types.SimpleNamespace(Random=Counting))
    decide = circint.verify._decide
    monkeypatch.setattr(circint.verify, "_decide",
                        lambda tables, n, members: decided.append((len(drawn), members)) or decide(tables, n, members))
    rep = cross_verify(60, field_rationals(), samples=5, seed=3)
    assert rep.passed and rep.cases_checked == 5 and len(drawn) == 5
    assert [k for k, _ in decided] == [1, 2, 3, 4, 5]
    rng = random.Random(3)
    assert [s for _, s in decided] == [circint.verify._members(rng.getrandbits(59)) for _ in range(5)]


def test_report_json_shape():
    rep = cross_verify(6, field_rationals())
    doc = rep.to_json()
    assert list(doc.keys()) == ["n", "field", "mode", "cases", "mismatches", "seed", "elapsed_ms"]
    assert doc["mismatches"] == [] and doc["seed"] is None
    json.dumps(doc)
    slim = rep.to_json(include_elapsed=False)
    assert "elapsed_ms" not in slim
