import json
import random
import subprocess
import sys

import pytest

import circint.verify
from circint import (
    CirculantSpec,
    CyclotomicInteger,
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
    # and the O(n^2 |H|) search of it is refused instead of run
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


@pytest.mark.parametrize("first, bad", [((1, 5, 13, 24), 24), ((0, 1, 5, 13, 17), 0), ((1, 30, 5, 0), 30)])
def test_lemma1_names_the_first_member_out_of_range(monkeypatch, first, bad):
    field = field_gaussian()
    blocks = [(b.divisor, b.members) for b in orbit_partition(24, field).blocks]
    part = OrbitPartition.from_blocks(24, field, [(1, first)] + blocks[1:])
    monkeypatch.setattr(circint.verify, "orbit_partition", lambda n, k: part)
    with pytest.raises(OutOfRange, match=rf"^connection element {bad} outside \[1, 24\)$"):
        lemma1_check(24, field)


def test_report_json_shape():
    rep = cross_verify(6, field_rationals())
    doc = rep.to_json()
    assert list(doc.keys()) == ["n", "field", "mode", "cases", "mismatches", "seed", "elapsed_ms"]
    assert doc["mismatches"] == [] and doc["seed"] is None
    json.dumps(doc)
    slim = rep.to_json(include_elapsed=False)
    assert "elapsed_ms" not in slim
