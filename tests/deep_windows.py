"""Opt-in deep-window runs of the intertwiner certificate.

    python tests/deep_windows.py [--audit] [D ...]

For each window D (default 3 4 5) it runs verify_intertwiner(D), with no
disk cache, in a fresh interpreter, and prints its wall and CPU seconds,
the interpreter's peak RSS, the freedom at each degree and the digest of
the solved map (oracles.w_digest), which it compares with DIGESTS.  With
--audit the interpreter then compares every action matrix that the
certificate read with oracles.pairing_act_matrix, which takes each column
through the pairing and shares nothing with TruncatedModule._image; the
audit's seconds are printed apart and do not enter the figures above.
Exits 1 if a certificate fails, a digest differs or an audited matrix
differs.

Pytest does not collect this file (its name has no test_ prefix).  It
imports the package from the src/ directory next to it.  On a 2-vCPU VM
with Python 3.11, D = 5 takes about 2.5 s and 50 MB, D = 6 about 15 s and
115 MB, and D = 7 about 140 s and 420 MB.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

# oracles.w_digest of the (0,1,0) -> (0,0,1) intertwiner on each window
DIGESTS = {
    3: "ff6cec74977990bc30006ba3f1aa04b237a93c0d177056f5b0cadb698f2af176",
    4: "49d3c60d85739acb07d33d7abd2860748112d6ecb00d8f00fb1051e7d142cdb6",
    5: "dae8cc221f1a7c982486ce72bc20a4fa77345e480903a529895e884dc649f0a2",
    6: "5d8caf24804ac7f434b04a3a23bb16f6e1bbe4a1dc5963580d1e15a37883e762",
    7: "9c3d6ee601bd3ee894a44698e9ae7359472598b08dd455ed104a637f3bc76207",
}


def run_window(window, audit):
    """One certification on `window` in this interpreter, as a dict; with
    `audit`, each model's action matrices against the pairing oracle."""
    import oracles
    from affine_basis import intertwiner
    from affine_basis.pbw import HighestWeightSpec

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    report = intertwiner.verify_intertwiner(window)
    out = {
        "ok": report.ok,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "freedom": report.witness["freedom"],
    }
    # the models and the map verify_intertwiner left in the store
    source = intertwiner.get_truncated(HighestWeightSpec(0, 1, 0), window)
    target = intertwiner.get_truncated(HighestWeightSpec(0, 0, 1), window)
    wmap, _ = intertwiner._solved_w(source, target, window)
    out["digest"] = oracles.w_digest(wmap)
    if audit:
        cpu0 = time.process_time()
        matrices = differ = 0
        for model in (source, target):
            inverses = {}
            for (le, key), held in sorted(model._act.items()):
                matrices += 1
                differ += oracles.pairing_act_matrix(model, le, key, inverses) != held
        out["audit"] = {"matrices": matrices, "differ": differ, "cpu_s": time.process_time() - cpu0}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("windows", nargs="*", type=int, metavar="D",
                    help="windows to certify, from %s (default 3 4 5)" % sorted(DIGESTS))
    ap.add_argument("--audit", action="store_true",
                    help="compare every action matrix read with the pairing oracle")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_window(args.child, args.audit)))
        return 0
    windows = args.windows or [3, 4, 5]
    unknown = [d for d in windows if d not in DIGESTS]
    if unknown:
        ap.error("no pinned digest for window(s) %s" % unknown)
    failed = False
    for window in windows:
        cmd = [sys.executable, os.path.abspath(__file__), "--child", str(window)]
        proc = subprocess.run(cmd + ["--audit"] * args.audit, stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print("D = %d: the run exited %d" % (window, proc.returncode))
            failed = True
            continue
        r = json.loads(proc.stdout)
        match = r["digest"] == DIGESTS[window]
        print("D = %d: %s, %.2f s wall, %.2f s CPU, %.1f MB peak RSS, freedom %s, W %s"
              % (window, "certified" if r["ok"] else "NOT CERTIFIED", r["wall_s"], r["cpu_s"],
                 r["peak_rss_mb"], json.dumps(r["freedom"], sort_keys=True),
                 r["digest"][:8] + "... matches" if match else r["digest"] + " DIFFERS"))
        failed |= not (r["ok"] and match)
        if args.audit:
            a = r["audit"]
            print("  audit: %d action matrices, %d differ, %.2f s CPU"
                  % (a["matrices"], a["differ"], a["cpu_s"]))
            failed |= bool(a["differ"])
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
