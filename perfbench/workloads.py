"""The three workloads; run as a fresh interpreter, one workload each.

    python3 perfbench/workloads.py <census|oracle-exact|cli-session> SEED SECONDS TRACE_DIR|-

Each workload is a closed loop with one operation in flight. Operations
come in rounds, the same slots in every round, with the slot inputs drawn
from SEED; a run attempts whole rounds until SECONDS of operation time have
passed and at least MIN_OPS operations completed. A traced run (TRACE_DIR
given) does the first MIN_OPS operations' worth of rounds instead, under
the tracer, and writes its spans into TRACE_DIR. Every output is checked
against reference.py. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import cmath
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import lcm
from pathlib import Path

import numpy as np

import reference as ref
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 120
CLI_TIMEOUT_S = 60


def child_env() -> dict:
    """The environment for child interpreters: circint from ROOT/src first."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Workload:
    """Inputs come from rounds(rng); run(op) is timed, check(op, out) is not."""

    fields: list[str] = []
    refused: list = []  # operations expected to fail, on known faults

    def __init__(self, circint, parsed: dict, trace_dir: Path | None):
        self.circint = circint
        self.parsed = parsed
        self.trace_dir = trace_dir


# ---------------------------------------------------------------- census

MODULUS_LIMIT = 100_000

CENSUS_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:3", "sqrt:-5",
                 "cyclo:3", "cyclo:5", "cyclo:8"]
# Slots of a round: (kind of n, work target). The work of a partition is
# close to sum(lcm(m, g) for g | n, g > 1) + 12 n for a field of conductor
# m: the lcm scan of fields.galois_subgroup_mod at every divisor g, then the
# orbit build and validation over all n residues. Each slot draws pairs
# whose work is within CENSUS_BAND of its target, so a round has the same
# make-up for every seed; targets rise by 13 % a slot, about 30 ms to 270 ms
# on a 2020s x86 core.
CENSUS_KINDS = ["prime", "prime power", "any", "highly composite", "prime", "prime power", "any",
                "highly composite", "prime", "any", "highly composite", "prime", "any",
                "highly composite", "prime", "any", "highly composite", "prime", "any"]
CENSUS_SLOTS = [(kind, 170_000 * 1.13 ** i) for i, kind in enumerate(CENSUS_KINDS)]
CENSUS_BAND = {"prime power": 0.25}  # prime powers are sparse: a wider band
CENSUS_BAND_DEFAULT = 0.12
# Valid inputs that the lcm scan in fields._galois_subgroup_cached refuses
# (lcm(conductor, n) > 100000); one per round, the same for every seed.
CENSUS_REFUSED = [(30_001, "Qi"), (50_000, "cyclo:12"), (99_991, "sqrt:-7"), (49_999, "sqrt:5")]
HIGHLY_COMPOSITE_DIVISORS = 40


def _census_numbers():
    """n in [10^4, 10^5] by kind."""
    lo, hi = 10_000, MODULUS_LIMIT
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)
    ndiv = np.zeros(hi + 1, dtype=np.int64)
    for d in range(1, hi // 2 + 1):
        ndiv[2 * d::d] += 1
    return {
        "prime": [int(p) for p in primes if p >= lo],
        "prime power": sorted({int(p) ** k for p in primes[:100] for k in range(2, 17) if lo <= int(p) ** k <= hi}),
        "highly composite": [n for n in range(lo, hi + 1) if ndiv[n] + 1 >= HIGHLY_COMPOSITE_DIVISORS],
        "any": list(range(lo, hi + 1)),
    }


def census_work(n: int, conductor: int) -> int:
    return sum(lcm(conductor, g) for g in ref.divisors(n) if g > 1) + 12 * n


def census_rounds(rng: random.Random):
    """Rounds of (n, field spec); every (n, K) pair is new within a run."""
    numbers = _census_numbers()
    conductors = {spec: ref.parse(spec).conductor for spec in CENSUS_FIELDS}
    used = set()

    def stream(kind, target):
        band = CENSUS_BAND.get(kind, CENSUS_BAND_DEFAULT)
        for n in rng.sample(numbers[kind], len(numbers[kind])):
            for spec in rng.sample(CENSUS_FIELDS, len(CENSUS_FIELDS)):
                m = conductors[spec]
                if (n, spec) not in used and lcm(m, n) <= MODULUS_LIMIT \
                        and abs(census_work(n, m) / target - 1) <= band:
                    used.add((n, spec))
                    yield n, spec
                    break

    streams = [stream(kind, target) for kind, target in CENSUS_SLOTS]
    for k in itertools.count():
        ops = [next(s, None) for s in streams]
        if None in ops:
            return
        ops.insert(k % (len(ops) + 1), CENSUS_REFUSED[k % len(CENSUS_REFUSED)])
        yield ops


class Census(Workload):
    """One operation: orbit_partition(n, K) and r_count(n, K) of a new pair."""

    fields = CENSUS_FIELDS + sorted({spec for _, spec in CENSUS_REFUSED} - set(CENSUS_FIELDS))
    refused = CENSUS_REFUSED
    rounds = staticmethod(census_rounds)

    def run(self, op):
        n, spec = op
        field = self.parsed[spec]
        return self.circint.orbit_partition(n, field), self.circint.r_count(n, field)

    def check(self, op, out):
        (n, spec), (part, r) = op, out
        field = ref.parse(spec)
        if r != ref.block_count(n, field):
            return f"r_count {r}, expected {ref.block_count(n, field)}"
        blocks = part.blocks
        return ref.partition_matches(n, field, [b.divisor for b in blocks], [b.members for b in blocks])


# ---------------------------------------------------------- oracle-exact

# One operation per field and round. The oracle on an integral set compares
# every eigenvalue with its image under each element of the Galois subgroup
# H at modulus n, so its cost grows as n^2 |H|; n is drawn from [100, 300]
# where that product lies in ORACLE_COST, to keep operations of one size.
ORACLE_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "sqrt:-5", "cyclo:3", "cyclo:5", "cyclo:8"]
ORACLE_COST = (1_600_000, 2_400_000)


def oracle_rounds(rng: random.Random):
    """Rounds of (n, field spec, integral set, perturbed set)."""
    pools = {}
    for spec in ORACLE_FIELDS:
        field = ref.parse(spec)
        pools[spec] = [n for n in range(100, 301)
                       if ORACLE_COST[0] <= n * n * ref.euler_phi(n) // field.degree_at(n) <= ORACLE_COST[1]]
    while True:
        ops = []
        for spec in ORACLE_FIELDS:
            n = rng.choice(pools[spec])
            classes = [ms for _, ms in ref.blocks(n, ref.parse(spec))]
            chosen = [ms for ms in classes if rng.random() < 0.5] or [rng.choice(classes)]
            members = sorted(x for ms in chosen for x in ms)
            x = rng.choice([x for ms in classes if len(ms) > 1 for x in ms])
            perturbed = sorted(set(members) ^ {x})
            ops.append((n, spec, tuple(members), tuple(perturbed)))
        yield ops


class OracleExact(Workload):
    """One operation: oracle_is_integral and is_integral on an integral set
    (a union of reference blocks) and on a one-element perturbation of it."""

    fields = ORACLE_FIELDS
    rounds = staticmethod(oracle_rounds)

    def run(self, op):
        n, spec, members, perturbed = op
        c, field = self.circint, self.parsed[spec]
        out = []
        for s in (members, perturbed):
            digraph = c.CirculantSpec(n, s)
            out.append((c.oracle_is_integral(digraph, field), c.is_integral(digraph, field).integral))
        return out

    def check(self, op, out):
        if out != [(True, True), (False, False)]:
            return f"verdicts {out}, expected integral then not integral"
        return None


# ----------------------------------------------------------- cli-session

CLI_FIELDS = ["Q", "Qi", "sqrt:2", "sqrt:-3", "sqrt:5", "sqrt:-7", "cyclo:3"]
# Exhaustive verify sweeps of similar cost: (range, field), without and with --lemma1.
VERIFY_PLAIN = [("14", "Q"), ("14", "Qi"), ("14", "sqrt:2"), ("14", "cyclo:3"), ("13..14", "sqrt:5")]
VERIFY_LEMMA1 = [("13", "Q"), ("13", "Qi"), ("12..13", "sqrt:-3"), ("13", "sqrt:5"), ("13", "cyclo:3")]
ROUND_PATTERN = "PCBXPCBXEPCBXVPCBXEW"  # 16 short, 4 long invocations
ENUM_WORK = 480_000  # limit * n of one enumerate stream


def cli_rounds(rng: random.Random):
    """Rounds of (argv, expectation) pairs for python -m circint."""
    enum_pool = [(n, spec) for n in range(100, 241) for spec in CLI_FIELDS
                 if 2 ** ref.block_count(n, ref.parse(spec)) >= ENUM_WORK // n]
    while True:
        ops = []
        for kind in ROUND_PATTERN:
            spec = rng.choice(CLI_FIELDS)
            if kind == "P":
                n = rng.randint(8, 96)
                ops.append((["partition", str(n), "--field", spec], ("partition", n, spec)))
            elif kind == "C":
                n = rng.randint(8, 64)
                classes = [ms for _, ms in ref.blocks(n, ref.parse(spec))]
                members = sorted(x for ms in classes if rng.random() < 0.5 for x in ms) or list(classes[0])
                if rng.random() < 0.5:
                    members = sorted(set(members) ^ {rng.randint(1, n - 1)})
                arg = ",".join(map(str, members))
                ops.append((["check", str(n), "--set", arg, "--field", spec], ("check", n, spec, members)))
            elif kind == "B":
                n = rng.randint(8, 64)
                r = ref.block_count(n, ref.parse(spec))
                idxs = sorted(rng.sample(range(r), min(r, rng.randint(1, 3))))
                arg = "blocks:" + ",".join(map(str, idxs))
                ops.append((["check", str(n), "--set", arg, "--field", spec], ("blocks", n, spec, idxs)))
            elif kind == "X":
                n = rng.randint(8, 40)
                members = sorted(rng.sample(range(1, n), rng.randint(1, min(6, n - 1))))
                arg = ",".join(map(str, members))
                ops.append((["spectrum", str(n), "--set", arg, "--exact"], ("spectrum", n, members)))
            elif kind == "E":
                n, spec = rng.choice(enum_pool)
                limit = ENUM_WORK // n
                ops.append((["enumerate", str(n), "--field", spec, "--limit", str(limit)],
                            ("enumerate", n, spec, limit)))
            else:
                span, spec = rng.choice(VERIFY_PLAIN if kind == "V" else VERIFY_LEMMA1)
                argv = ["verify", span, "--field", spec, "--exhaustive"] + (["--lemma1"] if kind == "W" else [])
                ops.append((argv, ("verify", span, spec, kind == "W")))
        yield ops


def _json_lines(stdout: bytes):
    return [json.loads(line) for line in stdout.decode().splitlines()]


def check_cli(expect, code: int, stdout: bytes):
    """None when the invocation's exit code and output match the reference."""
    kind = expect[0]
    try:
        docs = _json_lines(stdout)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if kind == "partition":
        _, n, spec = expect
        want = {"n": n, "field": spec,
                "blocks": [{"p": p, "members": list(ms)} for p, ms in ref.blocks(n, ref.parse(spec))]}
        return None if (code, docs) == (0, [want]) else f"exit {code}, partition differs from reference"
    if kind in ("check", "blocks"):
        _, n, spec, chosen = expect
        classes = [ms for _, ms in ref.blocks(n, ref.parse(spec))]
        members = sorted(x for i in chosen for x in classes[i]) if kind == "blocks" else chosen
        covered = [i for i, ms in enumerate(classes) if set(ms) <= set(members)]
        partial = [i for i, ms in enumerate(classes) if set(ms) & set(members) and i not in covered]
        want = {"n": n, "S": members, "field": spec, "integral": not partial,
                "blocks": None if partial else covered, "violation": None}
        if partial:
            ms = classes[partial[0]]
            want["violation"] = {"block": partial[0], "missing": [x for x in ms if x not in members],
                                 "present": [x for x in ms if x in members]}
        return None if (code, docs) == (1 if partial else 0, [want]) else f"exit {code}, verdict differs"
    if kind == "spectrum":
        _, n, members = expect
        if code != 0 or len(docs) != 1 or len(docs[0]["spectrum"]) != n:
            return f"exit {code}, malformed spectrum"
        zeta = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        phi = ref.euler_phi(n)
        for r, row in enumerate(docs[0]["spectrum"]):
            want = sum(zeta[r * s % n] for s in members)
            got = sum(c * zeta[j] for j, c in enumerate(row))
            if len(row) != phi or abs(got - want) > 1e-6 * (1 + sum(map(abs, row))):
                return f"spectrum row {r} evaluates to {got}, expected {want}"
        return None
    if kind == "enumerate":
        _, n, spec, limit = expect
        classes = [ms for _, ms in ref.blocks(n, ref.parse(spec))]
        total = 1 << len(classes)
        count = min(limit, total)
        if code != 0 or len(docs) != count + 1 or docs[-1] != {"count": count, "total": total}:
            return f"exit {code}, {len(docs)} lines, summary {docs[-1] if docs else None}"
        for mask, doc in enumerate(docs[:-1]):
            bits = [i for i in range(len(classes)) if mask >> i & 1]
            if (doc["S"], doc["integral"], doc["blocks"]) != (sorted(x for i in bits for x in classes[i]), True, bits):
                return f"set {mask} differs from the reference"
        return None
    _, span, spec, lemma1 = expect
    lo, _, hi = span.partition("..")
    want = []
    for n in range(int(lo), int(hi or lo) + 1):
        want.append({"n": n, "field": spec, "mode": "exhaustive", "cases": 1 << (n - 1),
                     "mismatches": [], "seed": None})
        if lemma1:
            r = ref.block_count(n, ref.parse(spec))
            want.append({"n": n, "field": spec, "mode": "lemma1", "cases": r * (n - 1) + r * (r - 1) // 2,
                         "mismatches": [], "seed": None})
    return None if (code, docs) == (0, want) else f"exit {code}, verify reports differ"


class CliSession(Workload):
    """One operation: one python -m circint invocation in a fresh interpreter."""

    fields = CLI_FIELDS
    rounds = staticmethod(cli_rounds)

    def __init__(self, circint, parsed, trace_dir):
        super().__init__(circint, parsed, trace_dir)
        self.env = child_env()
        self.stdout_bytes = 0
        self.walls: dict[str, list[float]] = {}
        self.children = 0

    def run(self, op):
        argv = op[0]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "circint", *argv]
        else:
            self.children += 1
            out = self.trace_dir / f"cli-{self.children:04d}.jsonl.gz"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(out), *argv]
        start = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S, check=False)
        self.walls.setdefault(argv[0], []).append(time.perf_counter() - start)
        self.stdout_bytes += len(done.stdout)
        return done.returncode, done.stdout, done.stderr

    def check(self, op, out):
        code, stdout, stderr = out
        if b"Traceback" in stderr:
            return "traceback on standard error"
        return check_cli(op[1], code, stdout)


WORKLOADS = {"census": Census, "oracle-exact": OracleExact, "cli-session": CliSession}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, rounds, seconds: float, traced: bool, children: bool):
    """Closed loop over whole rounds; returns latencies, counts, and the
    peak RSS once the first MIN_OPS operations have completed."""
    latencies, attempted, failed, busy, wrong, rss = [], 0, 0, 0.0, [], None
    for ops in rounds:
        if rss is None and len(latencies) >= MIN_OPS:
            rss = peak_rss_mb(children)
        if (attempted >= MIN_OPS) if traced else (busy >= seconds and rss is not None):
            break
        for op in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # noqa: BLE001  (a failed operation is counted, not fatal)
                busy += time.perf_counter() - start
                failed += 1
                if op not in workload.refused:
                    print(f"operation {op!r:.200} failed: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies.append(elapsed)
            problem = workload.check(op, out)
            if problem:
                wrong.append(f"{op!r:.200}: {problem}")
    return latencies, attempted, failed, busy, wrong, rss if rss is not None else peak_rss_mb(children)


def main(argv) -> int:
    name, seed, seconds, trace_dir = argv[0], int(argv[1]), float(argv[2]), argv[3]
    traced = trace_dir != "-"
    sys.path.insert(0, str(ROOT / "src"))
    import circint

    if not Path(circint.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"circint imported from {circint.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if traced and name != "cli-session":
        tracer = tr.Tracer()
        tr.install(tracer)
    cls = WORKLOADS[name]
    parsed = {spec: circint.parse_field(spec) for spec in cls.fields}
    workload = cls(circint, parsed, Path(trace_dir) if traced else None)
    rounds = cls.rounds(random.Random(seed))
    latencies, attempted, failed, busy, wrong, rss = measure(workload, rounds, seconds, traced,
                                                             children=name == "cli-session")
    for line in wrong[:10]:
        print("wrong answer:", line, file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "completed": len(latencies),
        "busy_s": busy,
        "throughput_ops_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "peak_rss_mb": rss,
        "layers": {},
    }
    if traced:
        totals = tracer.totals() if tracer else Counter()
        if tracer:
            tracer.write(Path(trace_dir) / "main.jsonl.gz")
        for path in sorted(Path(trace_dir).glob("cli-*.jsonl.gz")):
            totals.update(tr.read_totals(path))
        if name == "cli-session":
            totals["cli.stdout_bytes"] = workload.stdout_bytes / attempted
            for sub, walls in workload.walls.items():
                totals[f"cli.{sub}.wall_ms"] = statistics.median(walls) * 1000
        result["layers"] = dict(totals)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
