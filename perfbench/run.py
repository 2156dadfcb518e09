#!/usr/bin/env python3
"""End-to-end certification benchmark for affine-basis.

Run from the root of a checkout:

    python3 perfbench/run.py --workload intertwiner-d3 --seed 1 --seconds 30 --trace 0

Every sample runs in a fresh interpreter (child.py) that imports the
package from ./src.  Samples are taken one after another while the next
one is expected to end within --seconds; there is always at least one.
With --trace 0 the last line of standard output reports the end-to-end
metrics; with --trace 1 each untraced sample is followed by a traced one,
and the last line reports the per-layer metrics and the tracing overhead.
Every certification is checked against the digests pinned in
digests.json.  A record with the environment stamp, all samples and all
outcomes is written to perfbench/_runs/.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUNS_DIR = os.path.join(HERE, "_runs")
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_on_disk"):
        return "bytes"
    return "count"


def source_stamp(root):
    """Environment facts the parent can see: cpus, commit, source digest."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "affine_basis")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "commit": commit, "src_sha256": h.hexdigest()}


class Runner:
    def __init__(self, root, workload, seed, deadline):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "AFFINE_BASIS_CACHE"}

    def child(self, mode, trace=0, cache_dir=None, spans_out=None):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", self.src,
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
               "--trace", str(trace)]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crash": "sample exceeded the run's time limit"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])}
        return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "affine_basis", "__init__.py")):
        print("error: no src/affine_basis under %s; run from the root of a checkout" % root,
              file=sys.stderr)
        return 2
    pinned = workloads.load_pinned(args.workload)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-seed%d-" % (args.workload, args.seed), dir=RUNS_DIR)
    runner = Runner(root, args.workload, args.seed, started + RUN_LIMIT_S)
    try:
        record = measure(runner, args, pinned, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["stamp"].update(source_stamp(root))
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RUNS_DIR, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for key, value in sorted(record["stamp"].items()):
        print("env %s: %s" % (key, value))
    for tid, reason in record["failures"]:
        print("FAILED %s: %s" % (tid, reason))
    print("certifications: %d attempted, %d failed, fail_ratio %.6g"
          % (record["attempted"], record["failed"], record["failed"] / record["attempted"]))
    for key, m in record["metrics"].items():
        extra = ""
        if "samples" in m:
            extra = "median of %d; quartiles %.6g .. %.6g" % (m["samples"], m["q1"], m["q3"])
            if key == "setup_s" and record["prep_s"]:
                extra = "cache fill %.6g s, one sample; start-up %s" % (record["prep_s"], extra)
            extra = "  (%s)" % extra
        print("%s: %.6g %s%s" % (key, m["value"], m["unit"], extra))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


def measure(runner, args, pinned, workdir):
    samples, traced, setups, failures = [], [], [], []
    attempted = 0
    stamps = []

    def check(result, reference=None, warm=False):
        nonlocal attempted
        ids = set(pinned) | {o["id"] for o in result.get("outcomes", [])}
        attempted += len(ids)
        if "crash" in result:
            failures.extend((tid, "sample crashed: " + result["crash"]) for tid in sorted(ids))
            return False
        stamps.append(result["stamp"])
        failures.extend(workloads.failures(result["outcomes"], pinned, reference,
                                           result["cache"] if warm else None))
        return True

    for _ in range(SETUP_SAMPLES):
        result = runner.child("setup")
        if "crash" in result:
            raise SystemExit("set-up sample failed: " + result["crash"])
        stamps.append(result["stamp"])
        setups.append(result["setup_s"])

    prep_s = 0.0
    reference = None
    warm = args.workload == "chain-cross-warm"
    if warm:
        # one cold pass of the code under test fills this invocation's cache
        warm_dir = os.path.join(workdir, "cache")
        fill = runner.child("run", cache_dir=warm_dir)
        if check(fill):
            prep_s = fill["wall_s"]
            reference = {o["id"]: o["digest"] for o in fill["outcomes"]}
            if not fill["cache"]["cache.puts"]:
                failures.append(("cache fill", "the cold pass wrote nothing"))

    def cache_dir(i):
        if warm:
            return warm_dir
        if args.workload in workloads.USES_CACHE:
            return os.path.join(workdir, "cache-%d" % i)
        return None

    begin = time.monotonic()
    laps = []
    i = 0
    while True:
        lap = time.monotonic()
        result = runner.child("run", cache_dir=cache_dir(i))
        i += 1
        if check(result, reference, warm):
            samples.append(result)
            setups.append(result["setup_s"])
        if args.trace:
            spans = os.path.join(RUNS_DIR, "spans-%s-seed%d-%d.jsonl.gz"
                                 % (args.workload, args.seed, len(traced)))
            result = runner.child("run", trace=1, cache_dir=cache_dir(i), spans_out=spans)
            i += 1
            if check(result, reference, warm):
                traced.append(result)
        now = time.monotonic()
        laps.append(now - lap)
        typical = statistics.median(laps)
        if now + 1.5 * typical > runner.deadline:
            break  # another sample would not end before the run's time limit
        if now - begin + typical > args.seconds:
            break  # another sample would probably end after --seconds

    metrics = {}

    def put(key, values, unit):
        q1, q3 = quartiles(values)
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        middle = statistics.median_low(values) if exact else statistics.median(values)
        metrics[key] = {"value": middle, "unit": unit,
                        "samples": len(values), "q1": q1, "q3": q3}

    if not samples or (args.trace and not traced):
        raise SystemExit("no sample completed: %s" % failures[-1:])
    if args.trace:
        layers = [t["layers"] for t in traced]
        for key in layers[0]:
            put(key, [lay[key] for lay in layers], layer_unit(key))
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        plain_wall = statistics.median(s["wall_s"] for s in samples)
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
        metrics["trace.spans_dropped"] = {"value": sum(t["spans_dropped"] for t in traced),
                                          "unit": "count"}
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            put(key, [s[key] for s in samples], END_TO_END_UNITS[key])
        put("setup_s", setups, "s")
        # the cache fill is one sample per run: added to the value, while the
        # printed quartiles describe only the repeated start-up part
        metrics["setup_s"]["value"] += prep_s

    if any(s != stamps[0] for s in stamps):
        failures.append(("environment", "samples ran on different backends: %r" % stamps))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": dict(stamps[0]),
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "metrics": metrics,
        "prep_s": prep_s,
        "samples": [{k: s[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "cache",
                                       "outcomes")} for s in samples],
        "traced": [{k: t[k] for k in ("wall_s", "layers", "cache")} for t in traced],
    }


if __name__ == "__main__":
    sys.exit(main())
