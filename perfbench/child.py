"""One certification run of one workload in a fresh interpreter.

run.py starts this script once per sample, so that no module-level memo
(`intertwiner._TRUNC_CACHE`, `pbw._UK`, the kernel memos) carries over
from one sample to the next.  It imports the package from the `--src`
directory of the checkout under test and prints one JSON object:

    mode setup  -> set-up time only (interpreter, import, input generation)
    mode run    -> set-up time, wall and CPU seconds of the certification
                   work, peak RSS, one outcome per task, cache counters and,
                   with --trace 1, the per-layer metrics and span count.
"""

import argparse
import gzip
import json
import os
import resource
import sys
import time


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import affine_basis
    from affine_basis import linalg

    here = os.path.dirname(os.path.abspath(affine_basis.__file__))
    if os.path.commonpath([here, src]) != src:
        raise SystemExit("affine_basis imported from %s, not from %s" % (here, src))

    import tracer as tracer_mod
    import workloads

    tasks = workloads.build(args.workload, args.seed, args.cache_dir)
    stamp = {
        "python": sys.version.split()[0],
        "backend": affine_basis.BACKEND,
        "numeric_path": "fraction" if linalg._Q.__name__ == "Fraction" else linalg._Q.__module__,
    }
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at, "stamp": stamp}))
        return 0

    setup_s = time.monotonic() - args.spawned_at
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, full=bool(args.trace))
    if args.trace:
        tasks = [(tid, tracer.wrap("step " + tid, thunk)) for tid, thunk in tasks]

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outcomes = workloads.run_tasks(tasks)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "stamp": stamp,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "cache": {k: tracer.counts[k] for k in ("cache.hits", "cache.misses", "cache.puts")},
    }
    if args.trace:
        dirs = [args.cache_dir] if args.cache_dir else []
        result["layers"] = tracer_mod.finish(tracer, outcomes, dirs)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            with gzip.open(args.spans_out, "wt") as fh:
                for sid, name, start, end, parent in tracer.spans:
                    fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                         "end": end - t0, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
