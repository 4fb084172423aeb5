import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import circint.cli
from circint import (CirculantSpec, IntegralityVerdict, OrbitPartition, enumerate_integral, is_integral, parse_field,
                     verdict_to_json)
from circint.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_json(capsys):
    code, out, _ = run_cli(capsys, "partition", "8", "--field", "Qi")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "n": 8,
        "field": "Qi",
        "blocks": [
            {"p": 1, "members": [1, 5]},
            {"p": 1, "members": [3, 7]},
            {"p": 2, "members": [2]},
            {"p": 2, "members": [6]},
            {"p": 4, "members": [4]},
        ],
    }


def test_partition_table(capsys):
    code, out, _ = run_cli(capsys, "partition", "6", "--field", "Q", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=6\tfield=Q\tblocks=3"
    assert lines[2] == "0\t1\t1,5"
    assert lines[4] == "2\t3\t3"


def test_tables_are_written_at_once():
    # under PYTHONUNBUFFERED=1 every write is one system call: a print per line made 19,948 for these 9,972 blocks
    writes = []

    class Counting(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    for argv in (["partition", "9973", "--field", "cyclo:9973", "--format", "table"],
                 ["check", "8", "--set", "1", "--field", "Qi", "--format", "table"]):
        writes.clear()
        sink = Counting()
        with redirect_stdout(sink):
            main(argv)
        assert 0 < len(writes) <= 3 and sum(writes) == len(sink.getvalue()), argv


def test_partition_singletons(capsys):
    code, out, _ = run_cli(capsys, "partition", "5", "--field", "cyclo:5")
    assert code == 0
    assert [b["members"] for b in json.loads(out)["blocks"]] == [[1], [2], [3], [4]]


def test_check_integral(capsys):
    code, out, _ = run_cli(capsys, "check", "8", "--set", "1,5", "--field", "Qi")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] is True and doc["blocks"] == [0]


def test_check_not_integral(capsys):
    code, out, _ = run_cli(capsys, "check", "8", "--set", "1", "--field", "Qi")
    assert code == 1
    doc = json.loads(out)
    assert doc["integral"] is False
    assert doc["violation"] == {"block": 0, "missing": [5], "present": [1]}


def test_check_table(capsys):
    code, out, _ = run_cli(capsys, "check", "8", "--set", "1", "--field", "Qi",
                           "--format", "table")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "integral: no"
    assert lines[2] == "block 0 missing 5 present 1"
    code, out, _ = run_cli(capsys, "check", "6", "--set", "1,5", "--field", "Q",
                           "--format", "table")
    assert code == 0
    assert out.splitlines()[1:] == ["integral: yes", "blocks: 0"]


def test_check_rejects_zero(capsys):
    code, out, err = run_cli(capsys, "check", "6", "--set", "0,1", "--field", "Q")
    assert code == 2
    assert out == ""
    assert "0" in err and "loop" in err


def test_check_block_selector(capsys):
    code, out, _ = run_cli(capsys, "check", "8", "--set", "blocks:0,4", "--field", "Qi")
    assert code == 0
    assert json.loads(out)["S"] == [1, 4, 5]
    code, _, err = run_cli(capsys, "check", "8", "--set", "blocks:9", "--field", "Qi")
    assert code == 2 and "block index" in err
    code, out, err = run_cli(capsys, "check", "8", "--set", "blocks:x", "--field", "Q")
    assert code == 2 and out == "" and "bad block selector" in err


def test_commands_never_build_the_blocks_view(capsys, monkeypatch):
    # the view costs an object per block on every access; read in a loop it
    # would make these commands quadratic in the block count
    def refuse(part):
        raise AssertionError("OrbitPartition.blocks read")

    monkeypatch.setattr(OrbitPartition, "blocks", property(refuse))
    for argv in (["partition", "12", "--field", "Qi"], ["partition", "12", "--field", "Qi", "--format", "table"],
                 ["check", "12", "--set", "blocks:0,3", "--field", "Qi"],
                 ["check", "12", "--set", "1,5", "--field", "sqrt:-3"],
                 ["enumerate", "12", "--field", "Qi", "--limit", "20"],
                 ["verify", "2..12", "--field", "Qi", "--exhaustive", "--lemma1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and out and "blocks read" not in err, argv


def test_check_empty_set(capsys):
    code, out, _ = run_cli(capsys, "check", "9", "--set", "", "--field", "sqrt:2")
    assert code == 0
    assert json.loads(out)["S"] == []


def test_enumerate_stream(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "6", "--field", "Q")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    sets = [json.loads(line)["S"] for line in lines[:-1]]
    assert sets[0] == [] and sets[-1] == [1, 2, 3, 4, 5]
    assert json.loads(lines[-1]) == {"count": 8, "total": 8}
    assert all(json.loads(line)["integral"] for line in lines[:-1])


def test_enumerate_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "8", "--field", "Qi", "--limit", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1]) == {"count": 5, "total": 32}
    assert json.loads(lines[4])["S"] == [2]


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run_cli(capsys, "enumerate", "6", "--field", "Q", "--limit", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--limit" in err


@pytest.mark.parametrize("n, spec, limit", [(6, "Q", None), (8, "Qi", 0), (30, "sqrt:5", None),
                                            (12, "cyclo:3", 7), (160, "Qi", 300)])
def test_enumerate_matches_per_set_decision(capsys, n, spec, limit):
    field = parse_field(spec)
    expected = [json.dumps(verdict_to_json(s, field, is_integral(s, field)), separators=(",", ":"))
                for s in enumerate_integral(n, field, limit=limit)]
    argv = ["enumerate", str(n), "--field", spec] + ([] if limit is None else ["--limit", str(limit)])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:-1] == expected


ENUM_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "cyclo:3"]


@pytest.mark.parametrize("spec", ENUM_FIELDS)
def test_enumerate_lines_are_the_integral_verdicts(capsys, spec):
    # each line is written from text tables of the reachable residues; it
    # must be byte for byte the JSON of the set's integral verdict
    field = parse_field(spec)
    for n in (7, 60, 144, 240):
        for limit in (None, 0, 1, 64, 65) if n == 7 else (0, 1, 64, 65, 256, 257):
            expected = []
            for mask, s in enumerate(enumerate_integral(n, field, limit=limit)):
                covered = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
                verdict = IntegralityVerdict(True, block_indices=covered)
                expected.append(circint.cli._dumps(verdict_to_json(s, field, verdict)))
            argv = ["enumerate", str(n), "--field", spec] + ([] if limit is None else ["--limit", str(limit)])
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out.splitlines()[:-1] == expected, (n, limit)


def test_enumerate_builds_no_table_of_the_order(capsys):
    # over cyclo:99991 every residue is its own block: the first five sets
    # reach three blocks, so the text table holds three residues, not n
    class Sink:  # keeps the head of each write, so the output takes no memory to speak of
        def __init__(self):
            self.heads = []

        def write(self, text):
            self.heads.append(text[:40])

        def flush(self):
            pass

    argv = ["enumerate", "99991", "--field", "cyclo:99991", "--limit", "5"]
    assert main(argv) == 0  # builds and caches the partition
    capsys.readouterr()
    sink = Sink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.heads[0].startswith('{"n":99991,"S":[],')
    assert peak < 4 * 99991  # a list of n pointers alone takes 8 bytes a residue


def test_enumerate_writes_from_one_walk_and_checks_no_set(capsys, monkeypatch):
    # the lines come from the library's walk of the partition, whose sets are unions of
    # blocks checked when it was built, so the command builds no CirculantSpec per set
    checks, walks = [], []
    post_init, slices = CirculantSpec.__post_init__, OrbitPartition.slices
    monkeypatch.setattr(CirculantSpec, "__post_init__", lambda self: checks.append(self) or post_init(self))
    monkeypatch.setattr(OrbitPartition, "slices", lambda self: walks.append(self) or slices(self))
    code, out, _ = run_cli(capsys, "enumerate", "200", "--field", "Qi", "--limit", "2400")
    assert code == 0 and json.loads(out.splitlines()[-1])["count"] == 2400
    assert checks == [] and len(walks) == 1


def test_enumerate_writes_lines_in_batches(capsys):
    # under PYTHONUNBUFFERED=1 every write is one system call: the lines go out about 64 KiB at a time
    writes = []

    class Counting(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    sink = Counting()
    with redirect_stdout(sink):
        code = main(["enumerate", "200", "--field", "Qi", "--limit", "2400"])
    out = sink.getvalue()
    assert code == 0 and len(out.splitlines()) == 2401 and sum(writes) == len(out)
    assert len(writes) <= -(-len(out) // 65536) + 2


def test_enumerate_prints_totals_past_the_int_digit_limit(capsys):
    # over cyclo:14401 every residue is its own block, so the total 2^14400
    # has 4,335 digits, past the int-to-str limit of Python >= 3.10.7
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = digit_limit()
    code, out, err = run_cli(capsys, "enumerate", "14401", "--field", "cyclo:14401", "--limit", "1")
    assert code == 0 and err == ""
    assert digit_limit() == before
    first, summary = out.splitlines()
    assert json.loads(first)["S"] == []
    doc = json.loads(summary, parse_int=str)
    assert doc["count"] == "1" and len(doc["total"]) == 4335
    assert int(doc["total"][:-4000]) * 10 ** 4000 + int(doc["total"][-4000:]) == 1 << 14400


def test_enumerate_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_ENUM", "4")
    code, out, err = run_cli(capsys, "enumerate", "6", "--field", "Q")
    assert code == 3 and out == ""
    assert "budget" in err
    code, out, _ = run_cli(capsys, "enumerate", "6", "--field", "Q", "--limit", "2")
    assert code == 0 and len(out.splitlines()) == 3


def test_modulus_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "10")
    code, out, err = run_cli(capsys, "partition", "50", "--field", "Q")
    assert code == 3 and out == "" and "limit" in err


def test_modulus_limit_names_its_variable(capsys, monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "10")
    code, out, err = run_cli(capsys, "partition", "50", "--field", "Q")
    assert code == 3 and out == "" and "modulus 50 exceeds limit 10" in err and "CIRC_LIMIT_MODULUS" in err


def test_enumeration_budget_names_the_flag_and_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_ENUM", "4")
    code, out, err = run_cli(capsys, "enumerate", "6", "--field", "Q")
    assert code == 3 and out == "" and "--limit" in err and "CIRC_LIMIT_ENUM" in err


@pytest.mark.parametrize("spec, modulus", [("sqrt:-99998", 399992), ("cyclo:100001", 100001),
                                           ("custom:100003:2", 100003)])
def test_limit_errors_name_the_field_spec(capsys, spec, modulus):
    code, out, err = run_cli(capsys, "partition", "12", "--field", spec)
    assert code == 3 and out == ""
    assert f"modulus {modulus} exceeds limit 100000" in err and "CIRC_LIMIT_MODULUS" in err
    assert err.rstrip().endswith(f"(conductor of {spec})")


def test_verify_checks_the_modulus_before_drawing_samples(capsys, monkeypatch):
    # a thousand masks of n - 1 bits at n = 4 * 10^7 would take about 5 GB: the order is refused first
    drawn = []
    monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: drawn.append(k) or 0)
    code, out, err = run_cli(capsys, "verify", "40000000", "--field", "Q", "--samples", "1000")
    assert code == 3 and out == "" and "modulus 40000000 exceeds limit" in err and drawn == []
    code, out, err = run_cli(capsys, "verify", "40000000", "--field", "Q", "--exhaustive")
    assert code == 3 and out == ""
    code, out, err = run_cli(capsys, "verify", "15", "--field", "Q", "--exhaustive")
    assert code == 3 and out == "" and "exhaustive" in err


@pytest.mark.parametrize("argv, env, message", [
    (["13..15", "--field", "Q", "--exhaustive"], None, "exhaustive sweep needs n <= 14, got 15"),
    (["18..21", "--field", "Q", "--samples", "2"], "20", "modulus 21 exceeds limit 20"),
], ids=["exhaustive", "modulus"])
def test_verify_checks_the_whole_range_before_the_first_report(capsys, monkeypatch, argv, env, message):
    if env:
        monkeypatch.setenv("CIRC_LIMIT_MODULUS", env)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 3 and out == "" and message in err


def test_exhaustive_bound_says_that_no_environment_variable_raises_it(capsys):
    code, out, err = run_cli(capsys, "verify", "15", "--field", "Q", "--exhaustive")
    assert code == 3 and out == ""
    assert "exhaustive sweep needs n <= 14, got 15; no environment variable raises it" in err


def test_exact_order_limit_says_what_it_bounds(capsys, monkeypatch):
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "200000")  # the variable that raises the modulus bound does not help
    code, out, err = run_cli(capsys, "spectrum", "10001", "--set", "1", "--exact")
    assert code == 3 and out == ""
    assert "exact-order limit 10000" in err and "spectrum --exact" in err and "no environment variable" in err


def test_verify_answers_above_the_exact_order_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "10007", "--field", "Q", "--samples", "2", "--lemma1")
    docs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and [(d["n"], d["mode"], d["mismatches"]) for d in docs] == [
        (10007, "sample", []), (10007, "lemma1", [])]


def test_spectrum_numeric(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "--set", "1", "--numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "numeric"
    assert doc["spectrum"] == [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


def test_spectrum_numeric_six_cycle(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "6", "--set", "1,5", "--numeric")
    assert code == 0
    rows = json.loads(out)["spectrum"]
    assert [row[0] for row in rows] == [2.0, 1.0, -1.0, -2.0, -1.0, 1.0]
    assert all(row[1] == 0.0 for row in rows)


def test_spectrum_applies_modulus_bound(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "spectrum", "200001", "--set", "1", "--numeric")
    assert code == 3 and out == "" and "200001" in err
    monkeypatch.setenv("CIRC_LIMIT_MODULUS", "50")
    code, out, err = run_cli(capsys, "spectrum", "60", "--set", "1", "--exact")
    assert code == 3 and out == "" and "limit 50" in err


def test_spectrum_exact(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "6", "--set", "1,2,5", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    rows = doc["spectrum"]
    assert len(rows) == 6 and all(len(row) == 2 for row in rows)
    assert rows[0] == [3, 0]  # frequency 0 carries the set size


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_spectrum_streams_the_whole_document(capsys, monkeypatch, chunk):
    # rows are written SPECTRUM_CHUNK at a time; the bytes are those of one json.dumps of the document
    from circint.cli import _sig
    from circint.cyclotomic import eigenvalue, reduce_coefficients
    from circint.oracle import numeric_spectrum

    monkeypatch.setattr(circint.cli, "SPECTRUM_CHUNK", chunk)
    rng = random.Random(chunk)
    for n in range(2, 61):
        spec = CirculantSpec.of(n, rng.sample(range(1, n), rng.randint(1, n - 1)))
        text = ",".join(map(str, spec.connection_set))
        rows = {"exact": [list(reduce_coefficients(eigenvalue(n, spec.connection_set, r))) for r in range(n)],
                "numeric": [[_sig(z.real), _sig(z.imag)] for z in numeric_spectrum(spec)]}
        for mode, spectrum in rows.items():
            code, out, _ = run_cli(capsys, "spectrum", str(n), "--set", text, f"--{mode}")
            doc = {"n": n, "S": list(spec.connection_set), "mode": mode, "spectrum": spectrum}
            assert code == 0 and out == json.dumps(doc, separators=(",", ":")) + "\n"


def test_verify_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify", "2..8", "--field", "Q", "--exhaustive")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    for n, line in zip(range(2, 9), lines):
        doc = json.loads(line)
        assert doc["n"] == n and doc["mismatches"] == [] and doc["cases"] == 1 << (n - 1)
        assert "elapsed_ms" not in doc


def test_verify_with_lemma1_and_numeric(capsys):
    code, out, _ = run_cli(capsys, "verify", "8", "--field", "Qi", "--exhaustive",
                           "--lemma1", "--numeric")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["mode"] for d in docs] == ["exhaustive", "lemma1", "numeric"]
    assert all(d["mismatches"] == [] for d in docs)


def test_verify_sampled_deterministic(capsys):
    args = ("verify", "30", "--field", "sqrt:2", "--samples", "200", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 1 and doc["cases"] == 200


def test_verify_numeric_rejects_other_fields(capsys):
    code, _, err = run_cli(capsys, "verify", "8", "--field", "sqrt:2",
                           "--exhaustive", "--numeric")
    assert code == 2 and "Q and Qi" in err


def test_verify_exhaustive_bound(capsys):
    code, _, err = run_cli(capsys, "verify", "20", "--field", "Q", "--exhaustive")
    assert code == 3 and "exhaustive" in err


def test_bad_field_spec(capsys):
    code, _, err = run_cli(capsys, "partition", "6", "--field", "nonsense")
    assert code == 2 and "field spec" in err


def test_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "9..2", "--field", "Q", "--exhaustive")
    assert code == 2 and "range" in err


@pytest.mark.parametrize("text", ["5..", "..5", "5...6"])
def test_range_needs_both_ends(capsys, text):
    code, out, err = run_cli(capsys, "verify", text, "--field", "Q", "--exhaustive")
    assert code == 2 and out == "" and "range" in err


def test_partition_rejects_single_vertex(capsys):
    code, _, err = run_cli(capsys, "partition", "1", "--field", "Q")
    assert code == 2 and "n >= 2" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["partition", "6", "--field", "Q", "--bogus"])
    assert exc.value.code == 2


def test_missing_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_orders_bounded_by_n_not_by_conductor_lcm(capsys):
    code, out, _ = run_cli(capsys, "partition", "30001", "--field", "Qi")
    assert code == 0 and len(json.loads(out)["blocks"]) == 3
    code, out, _ = run_cli(capsys, "check", "99991", "--set", "1", "--field", "sqrt:-7")
    assert code == 1 and json.loads(out)["violation"]["block"] == 0
    code, out, err = run_cli(capsys, "partition", "100001", "--field", "Q")
    assert code == 3 and out == "" and "100001" in err


def test_huge_radicand_exits_at_once():
    # the conductor bound is checked before trial division of the radicand
    spec = "sqrt:-100000000000000000000000000000000000001"
    run = subprocess.run([sys.executable, "-m", "circint", "partition", "8", "--field", spec],
                         capture_output=True, text=True, timeout=60, check=False)
    assert run.returncode == 3 and run.stdout == "" and "exceeds limit" in run.stderr


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "8", "--field", "Q", "--exhaustive", "--numeric", "--tol", tol)
    assert code == 2 and out == "" and err.startswith("error:") and "--tol" in err


FUZZ_FIELDS = ["Q", "Qi", "sqrt:5", "sqrt:-7", "sqrt:12", "sqrt:1", "cyclo:3", "cyclo:0", "custom:8:5",
               "custom:8:2", "custom:0:1", "nonsense"]
FUZZ_SETS = ["1", "1,5", "0", "2,3,4", "blocks:0", "blocks:0,1", "blocks:99", "x", ""]
FUZZ_ENV = [None, "", "5", "abc", "0"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["partition", "check", "enumerate", "spectrum", "verify", "verify"]))
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(["6", "5..6", "1", "9..2", "x"])),
                "--field", draw(st.sampled_from(["Q", "Qi", "sqrt:2"]))]
        argv += draw(st.sampled_from([["--exhaustive"], ["--samples", "3"], ["--samples", "0"]]))
        argv += draw(st.sampled_from([[], ["--seed", "5"]]))
        argv += draw(st.sampled_from([[], ["--lemma1"]]))
        argv += draw(st.sampled_from([[], ["--numeric"]]))
        argv += draw(st.sampled_from([[]] + [["--tol", t] for t in ("-1", "0", "nan", "inf", "1e-9")]))
        return argv
    argv = [command, str(draw(st.integers(-1, 10)))]
    if command in ("check", "spectrum"):
        argv += ["--set", draw(st.sampled_from(FUZZ_SETS))]
    if command != "spectrum":
        argv += ["--field", draw(st.sampled_from(FUZZ_FIELDS))]
    if command == "enumerate":
        argv += draw(st.sampled_from([[], ["--limit", "0"], ["--limit", "3"], ["--limit", "-1"]]))
    elif command == "spectrum":
        argv += [draw(st.sampled_from(["--exact", "--numeric"]))]
    else:
        argv += draw(st.sampled_from([[], ["--format", "table"], ["--format", "json"]]))
    return argv


@given(cli_argv(), st.sampled_from(FUZZ_ENV), st.sampled_from(FUZZ_ENV))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzzed_argv_exits_cleanly(argv, modulus_env, enum_env):
    env = {name: value for name, value in (("CIRC_LIMIT_MODULUS", modulus_env), ("CIRC_LIMIT_ENUM", enum_env))
           if value is not None}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_closed_pipe_exits_two_silently():
    # the reader goes away after one line; the rest of the stream hits EPIPE
    proc = subprocess.Popen([sys.executable, "-m", "circint", "enumerate", "200", "--field", "Q", "--limit", "2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["S"] == []
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_two_with_one_error_line():
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "circint", "partition", "8", "--field", "Q"],
                             stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, check=False)
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr


NUMPY_FREE_ARGV = [
    ["partition", "12", "--field", "Qi"],
    ["check", "12", "--set", "1,5,7,11", "--field", "Q"],
    ["enumerate", "12", "--field", "sqrt:-3", "--limit", "5"],
    ["spectrum", "12", "--set", "1,11", "--exact"],
    ["verify", "8", "--field", "Qi", "--exhaustive", "--lemma1"],
]
NUMERIC_ARGV = [
    ["spectrum", "4", "--set", "1", "--numeric"],
    ["verify", "8", "--field", "Qi", "--exhaustive", "--numeric"],
]
STARTUP_SCRIPT = """
import contextlib, io, json, sys
import circint
from circint.cli import main
loaded, codes, outs = ["numpy" in sys.modules], [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    loaded.append("numpy" in sys.modules)
    outs.append(out.getvalue())
print(json.dumps({"loaded": loaded, "codes": codes, "outs": outs}))
"""


def test_numpy_stays_off_the_start_up_path():
    # a fresh interpreter: only the numeric paths may import numpy
    run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(NUMPY_FREE_ARGV + NUMERIC_ARGV)],
                         capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(run.stdout)
    assert doc["loaded"] == [False] * (1 + len(NUMPY_FREE_ARGV)) + [True] * len(NUMERIC_ARGV)
    assert doc["codes"] == [0] * (len(NUMPY_FREE_ARGV) + len(NUMERIC_ARGV))
    spectrum, verify = doc["outs"][-2:]
    assert json.loads(spectrum)["spectrum"] == [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    reports = [json.loads(line) for line in verify.splitlines()]
    assert [r["mode"] for r in reports] == ["exhaustive", "numeric"]
    assert all(r["mismatches"] == [] for r in reports)


FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import circint
on_import = [name for name in sys.modules if name.startswith("circint.")]
from circint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"on_import": on_import, "code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("argv", NUMPY_FREE_ARGV, ids=lambda argv: argv[0])
def test_each_command_loads_only_what_it_calls(argv):
    # a fresh interpreter per command: the package loads a submodule on first
    # use of one of its names, and each handler imports only what it calls
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(argv)],
                         capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(run.stdout)
    assert doc["on_import"] == [] and doc["code"] == 0
    modules = set(doc["modules"])
    assert "dataclasses" not in modules
    assert ("decimal" in modules) == (argv[0] == "enumerate")
    if argv[0] in ("partition", "check"):
        assert not modules & {"circint.verify", "circint.oracle", "circint.cyclotomic"}
