#!/usr/bin/env python3
"""Assert a bound on one metric of `bench_all --out` files.

usage: bench_assert.py [--any] WORKLOAD 'METRIC<=BOUND' FILE...

Every FILE must hold exactly one row for (WORKLOAD, METRIC) whose value
is at most BOUND. With --any one file meeting the bound is enough: for
host timings, which a shared runner only ever inflates.
"""
import json
import sys


def main(argv):
    any_file = argv[:1] == ["--any"]
    args = argv[1:] if any_file else argv
    if len(args) < 3 or "<=" not in args[1]:
        sys.exit(__doc__)
    workload, files = args[0], args[2:]
    metric, bound = args[1].split("<=", 1)
    bound = float(bound)
    values = []
    for path in files:
        with open(path) as f:
            rows = json.load(f)["rows"]
        found = [r["value"] for r in rows if r["workload"] == workload and r["metric"] == metric]
        if len(found) != 1:
            sys.exit(f"{path}: expected one {workload} {metric} row, got {found}")
        values += found
    need = "any" if any_file else "every"
    print(f"{workload} {metric}: {values} (<= {bound:g} in {need} file)")
    met = [value <= bound for value in values]
    if not (any(met) if any_file else all(met)):
        sys.exit(f"FAIL: {workload} {metric} = {values}, bound {bound:g}")


if __name__ == "__main__":
    main(sys.argv[1:])
