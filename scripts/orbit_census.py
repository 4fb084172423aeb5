#!/usr/bin/env python3
"""Tabulate block counts r(n, K) and the integral-digraph counts 2^r
across a range of orders for the preset fields.

Usage: python scripts/orbit_census.py [--lo 2] [--hi 30] [--fields Q,Qi,sqrt:2]
"""

import argparse
from decimal import Decimal

from circint import count_integral, parse_field, r_count

DEFAULT_FIELDS = "Q,Qi,sqrt:2,sqrt:-3,cyclo:8"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=2)
    ap.add_argument("--hi", type=int, default=30)
    ap.add_argument("--fields", default=DEFAULT_FIELDS, help="comma list of field specs")
    args = ap.parse_args()

    names = [t for t in args.fields.split(",") if t]
    fields = [(name, parse_field(name)) for name in names]
    header = ["n"] + [f"r({name})" for name in names] + [f"2^r({name})" for name in names]
    print("\t".join(header))
    for n in range(args.lo, args.hi + 1):
        rs = [r_count(n, field) for _, field in fields]
        counts = [count_integral(n, field) for _, field in fields]
        # str(Decimal(2^r)) is exact, and free of the 4300-digit limit on str(int) past r = 14284
        print("\t".join(str(Decimal(v)) for v in [n, *rs, *counts]))


if __name__ == "__main__":
    main()
