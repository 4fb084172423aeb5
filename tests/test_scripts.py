import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

from circint import count_integral, parse_field, r_count

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_orbit_census_rows_match_the_library():
    names = ["Q", "Qi", "cyclo:1"]
    run = subprocess.run([sys.executable, str(SCRIPTS / "orbit_census.py"), "--lo", "2", "--hi", "12",
                          "--fields", ",".join(names)], capture_output=True, text=True, timeout=60, check=True)
    header, *rows = [line.split("\t") for line in run.stdout.splitlines()]
    assert header == ["n"] + [f"r({name})" for name in names] + [f"2^r({name})" for name in names]
    assert [int(row[0]) for row in rows] == list(range(2, 13))
    fields = [parse_field(name) for name in names]
    for row in rows:
        n = int(row[0])
        assert [int(v) for v in row[1:]] == [r_count(n, k) for k in fields] + [count_integral(n, k) for k in fields]


def test_orbit_census_prints_totals_past_the_int_digit_limit():
    # r(14401, cyclo:14401) = 14400, so 2^r has 4,335 digits
    run = subprocess.run([sys.executable, str(SCRIPTS / "orbit_census.py"), "--lo", "14401", "--hi", "14401",
                          "--fields", "cyclo:14401"], capture_output=True, text=True, timeout=60, check=True)
    n, r, total = run.stdout.splitlines()[1].split("\t")
    assert (n, r, len(total)) == ("14401", "14400", 4335)
    assert int(total[:-4000]) * 10 ** 4000 + int(total[-4000:]) == 1 << 14400


TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


@pytest.mark.parametrize("argv, spans", [
    (["partition", "24", "--field", "Qi"], {"residues.UnitSubgroup", "orbits.orbit_partition", "cli.main"}),
    (["check", "24", "--set", "1,5,7", "--field", "sqrt:-3"],
     {"residues.UnitSubgroup", "integrality.CirculantSpec", "integrality.is_integral", "cli.main"}),
])
def test_traced_cli_prints_what_the_cli_prints(tmp_path, argv, spans):
    # the benchmark's per-layer run wraps the construction checks of the
    # records and the public functions of each layer, from outside
    plain = subprocess.run([sys.executable, "-m", "circint", *argv], capture_output=True, timeout=60, check=False)
    trace = tmp_path / "trace.jsonl.gz"
    traced = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), *argv], capture_output=True, timeout=60,
                            check=False)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert plain.stdout and b"Traceback" not in traced.stderr
    with gzip.open(trace, "rt") as src:
        head = json.loads(src.readline())
        rows = [json.loads(line) for line in src]
    recorded = {head["names"][row[0]] for row in rows}
    assert spans <= recorded, spans - recorded
