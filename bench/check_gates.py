#!/usr/bin/env python3
"""Judge BENCH_*.json reports against the gate table beside this file.

    python3 bench/check_gates.py FILE...

Each row of gates.json names a bench, a summary key, a comparator (==, >,
>=), a value, optionally min_physical_cores (read from each file's
"fingerprint"), and why the bar sits where it does.  Files are matched to
rows by their "bench" field; files of benches with no rows are read and
ignored.  A numeric row compares the median over its bench's files and
SKIPs with fewer than 3 of them; a boolean row must hold in every file.
A row FAILs when no file is given for its bench, when its key is missing,
null or mistyped in any file, or when its rule fails.  Prints one line per
row and exits 0 iff no row FAILs.
"""
import json
import operator
import os
import statistics
import sys

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gates.json")
OPS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge}
MIN_RUNS = 3  # one or two samples are not a median


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def judge(row, runs):
    """Returns (verdict, what was found) for one row over its bench's runs."""
    if not runs:
        return "FAIL", f"no file for bench {row['bench']!r}  n=0"
    key = row["key"]
    boolean = isinstance(row["value"], bool)
    values = [run.get(key) for run in runs]
    bad = [run for run, v in zip(runs, values)
           if not (isinstance(v, bool) if boolean else is_number(v))]
    if bad:
        first = json.dumps(bad[0][key]) if key in bad[0] else "no such key"
        return "FAIL", (f"missing, null or mistyped in {len(bad)} of "
                        f"{len(runs)} files (first: {first})")
    rule = OPS[row["op"]]
    if boolean:
        held = sum(rule(v, row["value"]) for v in values)
        found = f"holds in {held} of {len(values)}  n={len(values)}"
        ok = held == len(values)
    else:
        median = statistics.median(values)
        found = (f"median {median:.4g}  min-max {min(values):.4g}-"
                 f"{max(values):.4g}  n={len(values)}")
        ok = rule(median, row["value"])
    cores = row.get("min_physical_cores")
    if cores is not None:
        have = [run["fingerprint"].get("physical_cores")
                if isinstance(run.get("fingerprint"), dict) else None
                for run in runs]
        if not all(is_number(h) for h in have):
            return "FAIL", f"{found}  (fingerprint has no physical_cores)"
        if min(have) < cores:
            return "SKIP", (f"{found}  (needs >= {cores} physical cores, "
                            f"fingerprint has {min(have)})")
    if not boolean and len(values) < MIN_RUNS:
        return "SKIP", f"{found}  (needs >= {MIN_RUNS} runs for a median)"
    return ("PASS" if ok else "FAIL"), found


def main(paths, table=TABLE):
    with open(table) as f:
        rows = json.load(f)
    failed = False
    runs = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
            if not isinstance(doc["bench"], str):
                raise TypeError('"bench" is not a string')
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"FAIL  {path}: not a BENCH report ({error!r})")
            failed = True
            continue
        runs.setdefault(doc["bench"], []).append(doc)
    for row in rows:
        verdict, found = judge(row, runs.get(row["bench"], []))
        print(f"{verdict}  {row['bench']}: {row['key']} {row['op']} "
              f"{json.dumps(row['value'])}  {found}")
        failed = failed or verdict == "FAIL"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
