#!/usr/bin/env python3
"""Compare two run records written by run.py (perfbench/_runs/*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records, the relative change and, for the
end-to-end metrics, whether it is worse than the bound in BENCHMARK.json.
Refuses (exit 2) to compare records of different workloads or trace modes,
or records taken on a different Python, kernel backend or numeric path
(gmpy2 or Fraction): those numbers measure different programs.
"""

import json
import os
import sys

MUST_MATCH = ("python", "backend", "numeric_path")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_bounds():
    try:
        with open(BENCHMARK_JSON) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for m in spec["end_to_end"]}


def refusal(base, new):
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return "records differ in %s: %r vs %r" % (key, base[key], new[key])
    for key in MUST_MATCH:
        if base["stamp"].get(key) != new["stamp"].get(key):
            return "records differ in %s: %r vs %r" % (
                key, base["stamp"].get(key), new["stamp"].get(key))
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    base, new = records
    why = refusal(base, new)
    if why:
        print("refusing to compare: " + why, file=sys.stderr)
        return 2
    bounds = load_bounds()
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        change = (n - b) / b if b else float("nan")
        verdict = ""
        spec = bounds.get(name)
        if spec:
            worse = change if spec["better"] == "lower" else -change
            verdict = "  REGRESSION" if worse > spec["bound"] else "  ok"
        print("%-34s %14.6g %14.6g %+8.2f%%%s" % (name, b, n, 100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
