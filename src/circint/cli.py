"""Command-line interface.

Subcommands: partition, check, enumerate, spectrum, verify. Standard
output carries machine-readable JSON (JSON Lines for streams) and is
byte-identical across repeated identical invocations; timings and error
text go to standard error. Exit codes: 0 success or integral, 1 valid
negative result (not integral, or mismatches found), 2 usage or input
error or unwritable standard output, 3 resource limit exceeded.

Environment: CIRC_LIMIT_MODULUS and CIRC_LIMIT_ENUM override the default
modulus bound and enumeration budget.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from itertools import islice

from . import limits
from .errors import CircError, InvalidSet, LimitExceeded, TooManyOrbits
from .fields import parse_field
from .orbits import orbit_partition

# Each handler imports the modules only it calls, so a short command does
# not pay to load, compile and run the rest of the package.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

SPECTRUM_CHUNK = 64  # rows per write
ENUM_BATCH = 1 << 16  # bytes of enumerate lines per write, at least


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _write_lines(lines) -> None:
    """One write of the lines: under PYTHONUNBUFFERED=1 each write call is one system call."""
    sys.stdout.write("\n".join(lines) + "\n")


def _sig(x: float) -> float:
    """Round to 12 significant digits for platform-stable JSON; magnitudes
    below 1e-12 are rounding noise of an exact zero and print as 0."""
    if abs(x) < 1e-12:
        return 0.0
    return float(f"{x:.12g}")


def _parse_members(text: str) -> list[int]:
    try:
        return sorted({int(x) for x in text.split(",") if x.strip() != ""})
    except ValueError:
        raise InvalidSet(f"bad set spec {text!r}: expected a comma list of residues") from None


def _parse_set_spec(text: str, n: int, field) -> list[int]:
    t = text.strip()
    if t.startswith("blocks:"):
        if field is None:
            raise InvalidSet("blocks: selector needs a field; use the check command")
        part = orbit_partition(n, field)
        try:
            idxs = sorted({int(x) for x in t[7:].split(",") if x.strip() != ""})
        except ValueError:
            raise InvalidSet(f"bad block selector {t!r}") from None
        members: list[int] = []
        for i in idxs:
            if not 0 <= i < part.block_count:
                raise InvalidSet(f"block index {i} outside [0, {part.block_count})")
            members.extend(part.block(i))
        return sorted(members)
    return _parse_members(t)


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    if not sep:
        hi_s = lo_s
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise CircError(f"bad range {text!r}: expected <n> or <lo>..<hi>") from None
    if lo < 2 or hi < lo:
        raise CircError(f"bad range {text!r}: need 2 <= lo <= hi")
    return lo, hi


def _cmd_partition(args) -> int:
    field = parse_field(args.field)
    part = orbit_partition(args.n, field)
    if args.format == "table":
        lines = [f"n={part.order}\tfield={field.describe()}\tblocks={part.block_count}", "index\tp\tmembers"]
        lines += (f"{i}\t{p}\t{','.join(map(str, members))}" for i, (p, members) in enumerate(part.slices()))
        _write_lines(lines)
    else:
        print(_dumps(part.to_json()))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .integrality import CirculantSpec, is_integral, verdict_to_json

    field = parse_field(args.field)
    members = _parse_set_spec(args.set, args.n, field)
    spec = CirculantSpec.of(args.n, members)
    verdict = is_integral(spec, field)
    if args.format == "table":
        lines = [f"n={spec.order}\tfield={field.describe()}\tS={','.join(map(str, spec.connection_set))}"]
        if verdict.integral:
            lines += ["integral: yes", f"blocks: {','.join(map(str, verdict.block_indices))}"]
        else:
            v = verdict.violation
            lines += ["integral: no", f"block {v.block_index} missing {','.join(map(str, v.missing))} "
                                      f"present {','.join(map(str, v.present))}"]
        _write_lines(lines)
    else:
        print(_dumps(verdict_to_json(spec, field, verdict)))
    return EXIT_OK if verdict.integral else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise CircError(f"--limit must be non-negative, got {args.limit}")
    from decimal import Decimal

    from .integrality import _integral_sets, count_integral

    n, field = args.n, parse_field(args.field)
    blocks, sets = _integral_sets(n, field, args.limit)
    total = count_integral(n, field)
    # Each line is verdict_to_json of an integral verdict, written from text
    # tables of the residues and block indices the walk reaches: turning ints
    # into text was most of a line's cost.
    text = {}
    for members in blocks:
        text.update(zip(members, map(str, members)))
    index_text = list(map(str, range(len(blocks))))
    head = f'{{"n":{n},"S":['
    middle = f'],"field":{_dumps(field.describe())},"integral":true,"blocks":['
    # lines go out about ENUM_BATCH bytes at a time: an unbuffered stdout makes each write one system call
    write, batch, size, emitted = sys.stdout.write, [], 0, 0
    for covered, members in sets:
        batch.append(head + ",".join(map(text.__getitem__, members)) + middle
                     + ",".join(map(index_text.__getitem__, covered)) + '],"violation":null}\n')
        size += len(batch[-1])
        if size >= ENUM_BATCH:
            write("".join(batch))
            emitted, batch, size = emitted + len(batch), [], 0
    # str(Decimal(2^r)) is exact, and free of the 4300-digit limit on str(int) past r = 14284
    write("".join(batch) + f'{{"count":{emitted + len(batch)},"total":{Decimal(total)}}}\n')
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .integrality import CirculantSpec

    members = _parse_set_spec(args.set, args.n, None)
    spec = CirculantSpec.of(args.n, members)
    n = spec.order
    limits.check_modulus(n)
    if args.exact:
        limits.check_order(n)
        from .cyclotomic import eigenvalue, reduce_coefficients

        rows = (reduce_coefficients(eigenvalue(n, spec.connection_set, r)) for r in range(n))
        mode = "exact"
    else:
        from .oracle import numeric_spectrum

        rows = ((_sig(z.real), _sig(z.imag)) for z in numeric_spectrum(spec))
        mode = "numeric"
    # written as the rows are computed, SPECTRUM_CHUNK at a time: --exact prints n * phi(n) integers,
    # 80 MB of text at n = 10^4, never held whole
    head = _dumps({"n": n, "S": list(spec.connection_set), "mode": mode, "spectrum": []})
    sys.stdout.write(head[:-2])
    sep = ""
    while chunk := list(islice(rows, SPECTRUM_CHUNK)):
        sys.stdout.write(sep + _dumps(chunk)[1:-1])
        sep = ","
    sys.stdout.write(head[-2:] + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import cross_verify, lattice_cross_verify, lemma1_check

    field = parse_field(args.field)
    lo, hi = _parse_range(args.range)
    samples = None if args.exhaustive else args.samples
    if samples is not None and samples < 1:
        raise CircError(f"--samples must be positive, got {samples}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise CircError(f"--tol must be finite and positive, got {args.tol}")
    limits.check_modulus(hi)  # the whole range, before the first report is printed
    if samples is None:
        limits.check_exhaustive(hi)
    all_passed = True
    for n in range(lo, hi + 1):
        reports = [cross_verify(n, field, samples=samples, seed=args.seed)]
        if args.lemma1:
            reports.append(lemma1_check(n, field))
        if args.numeric:
            reports.append(lattice_cross_verify(n, field, args.tol, samples=samples, seed=args.seed))
        for rep in reports:
            print(_dumps(rep.to_json(include_elapsed=False)))
            print(f"# n={rep.n} mode={rep.mode} cases={rep.cases_checked} "
                  f"elapsed_ms={rep.elapsed_ms}", file=sys.stderr)
            all_passed = all_passed and rep.passed
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circint",
        description="Integrality of circulant digraphs over abelian number fields.",
        epilog="Field specs: Q | Qi | sqrt:<d> | cyclo:<m> | custom:<m>:<g1,g2,...> "
               "(the field must be abelian). See docs/cli.md for the full manual.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="orbit partition of 1..n-1 for a field")
    p.add_argument("n", type=int)
    p.add_argument("--field", required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("check", help="decide integrality of D(n, S) over a field")
    p.add_argument("n", type=int)
    p.add_argument("--set", required=True,
                   help="comma list of residues, or blocks:i,j,... selecting partition blocks")
    p.add_argument("--field", required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("enumerate", help="stream all integral connection sets")
    p.add_argument("n", type=int)
    p.add_argument("--field", required=True)
    p.add_argument("--limit", type=int, default=None, help="stop after this many sets")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("spectrum", help="eigenvalues of D(n, S), exact or numeric")
    p.add_argument("n", type=int)
    p.add_argument("--set", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true",
                      help="coefficient vectors reduced modulo the cyclotomic polynomial")
    mode.add_argument("--numeric", action="store_true", help="floating-point (re, im) pairs")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("verify", help="cross-check the block test against the exact oracle")
    p.add_argument("range", help="single order n or a range lo..hi")
    p.add_argument("--field", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lemma1", action="store_true", help="also run the block-sum property check")
    p.add_argument("--numeric", action="store_true",
                   help="also run the lattice sanity sweep (Q and Qi only)")
    p.add_argument("--tol", type=float, default=1e-6, help="tolerance for --numeric")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (LimitExceeded, TooManyOrbits) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CircError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # standard output is unwritable (a closed pipe, a full disk); point it
        # at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if exc.errno != errno.EPIPE:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
