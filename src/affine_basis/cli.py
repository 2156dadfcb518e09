"""Command line interface.

Verbs:
  enumerate   admissible colored partitions for a module kind
  dims        graded dimension table of the module (Gram ranks)
  verify      one verification step: independence, spanning, tpower,
              translation, icprop, intertwiner
  report      the full verification suite for one module kind

Common flags: --kind {a1,c2fs}, --k0/--k1/--k2 labels, --max-degree,
--format {text,json,csv}, --out FILE, --quiet.  Only on the verbs that read
them: --cache-dir (dims, verify, report; defaults to $AFFINE_BASIS_CACHE),
--depth (window for truncated-module steps; verify, report).

Exit codes: 0 all checks passed, 1 a verification claim failed, 2 usage or
input error.
"""

import argparse
import json
import sys

from . import intertwiner as iw
from . import partitions as parts_mod
from . import verify as verify_mod
from .cache import default_cache_dir


def _kind_from(args):
    if args.kind == "a1":
        return parts_mod.A1Standard(args.k0, args.k1)
    if args.kind == "c2fs":
        return parts_mod.C2FS(args.k0, args.k1, args.k2)
    raise ValueError("unknown kind %r" % args.kind)


def _add_common(p, cache=True, window=True):
    p.add_argument("--kind", choices=("a1", "c2fs"), default="a1")
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--k1", type=int, default=0)
    p.add_argument("--k2", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=3)
    if window:
        p.add_argument("--depth", type=int, default=2, help="truncation window")
    if cache:
        p.add_argument("--cache-dir", default=default_cache_dir())
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--quiet", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="affine-basis",
        description="exact verification of combinatorial bases for affine modules",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list admissible colored partitions")
    _add_common(p, cache=False, window=False)

    p = sub.add_parser("dims", help="graded dimensions (Gram ranks) of the module")
    _add_common(p, window=False)

    p = sub.add_parser("verify", help="run one verification step")
    p.add_argument(
        "check",
        choices=(
            "independence",
            "spanning",
            "tpower",
            "translation",
            "icprop",
            "intertwiner",
        ),
    )
    _add_common(p)

    p = sub.add_parser("report", help="full verification suite for one kind")
    _add_common(p)

    return ap


def _emit(args, payload_text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload_text)
            if not payload_text.endswith("\n"):
                fh.write("\n")
    if not args.quiet and not args.out:
        print(payload_text)
    elif not args.quiet and args.out:
        print("wrote %s" % args.out)


def _report_lines(reports, fmt):
    if fmt == "json":
        return json.dumps(
            [json.loads(r.to_json()) for r in reports], indent=2, sort_keys=True
        )
    if fmt == "csv":
        lines = ["step,inputs,ok,seconds"]
        for r in reports:
            lines.append(
                '%s,"%s",%s,%.3f'
                % (
                    r.step,
                    json.dumps(r.inputs, sort_keys=True).replace('"', "'"),
                    "pass" if r.ok else "FAIL",
                    r.seconds,
                )
            )
        return "\n".join(lines)
    lines = []
    for r in reports:
        lines.append(
            "%-24s %-6s %7.2fs  %s"
            % (
                r.step,
                "pass" if r.ok else "FAIL",
                r.seconds,
                json.dumps(r.inputs, sort_keys=True),
            )
        )
    return "\n".join(lines)


def cmd_enumerate(args):
    kind = _kind_from(args)
    pis = parts_mod.enumerate_admissible(kind, args.max_degree)
    if args.format == "json":
        text = parts_mod.to_jsonl(pis)
    elif args.format == "csv":
        lines = ["degree,n,n_prime,partition"]
        for pi in pis:
            lines.append("%d,%d,%d,%s" % (pi.degree, pi.n_of(), pi.n_prime(), pi.tag()))
        text = "\n".join(lines)
    else:
        lines = [
            "admissible partitions, kind=%s labels=%s degree<=%d"
            % (kind.name, kind.as_tuple(), args.max_degree)
        ]
        for pi in pis:
            lines.append(
                "  deg=%d n=%d n'=%d  %s" % (pi.degree, pi.n_of(), pi.n_prime(), pi.tag())
            )
        lines.append("total: %d" % len(pis))
        text = "\n".join(lines)
    _emit(args, text)
    return 0


def cmd_dims(args):
    kind = _kind_from(args)
    module = kind.module(args.cache_dir)
    support = module.block_support(args.max_degree)
    dims = module.dims_by_degree(args.max_degree)
    if args.format == "json":
        text = json.dumps(
            {
                "kind": kind.name,
                "labels": list(kind.as_tuple()),
                "dims_by_degree": dims,
                "blocks": [
                    {"degree": d, "weight": list(w), "dim": blk.rank}
                    for (d, w), blk in support.items()
                ],
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "csv":
        lines = ["degree,weight1,weight2,dim"]
        for (d, w), blk in support.items():
            lines.append("%d,%d,%d,%d" % (d, w[0], w[1], blk.rank))
        text = "\n".join(lines)
    else:
        lines = [
            "graded dimensions, kind=%s labels=%s" % (kind.name, kind.as_tuple())
        ]
        for d, total in enumerate(dims):
            blocks = [
                "(%d,%d):%d" % (w[0], w[1], blk.rank)
                for (dd, w), blk in support.items()
                if dd == d
            ]
            lines.append("  degree %d: %d   [%s]" % (d, total, " ".join(blocks)))
        text = "\n".join(lines)
    _emit(args, text)
    return 0


def _check_reports(check, kind, args):
    """The reports of one check, in step order."""
    if check in ("translation", "icprop") and kind.name != "a1":
        raise ValueError("%s checks apply to kind a1" % check)
    degree, cache_dir = args.max_degree, args.cache_dir
    window = min(degree, args.depth)
    if check == "independence":
        return [verify_mod.verify_independence(kind, degree, cache_dir)]
    if check == "spanning":
        return [verify_mod.verify_spanning(kind, degree, cache_dir)]
    if check == "tpower":
        return [verify_mod.sweep_t_power(kind, degree)]
    if check == "translation":
        return [
            verify_mod.verify_c0_nonvanishing(kind, cache_dir),
            verify_mod.sweep_translation(kind, degree, cache_dir),
        ]
    if check == "icprop":
        return [verify_mod.verify_icprop(kind, degree)]
    if check == "intertwiner":
        reports = [iw.verify_intertwiner(args.depth, cache_dir)]
        if kind.name == "a1" and kind.k1 > 0:
            reports.append(iw.sweep_projection_chain(kind, window, cache_dir))
        return reports
    if check == "cross_model":
        return [iw.verify_cross_model(kind, window, cache_dir)]
    raise ValueError("unknown check %r" % check)


# the checks `report` runs, in order, for each kind
REPORT_CHECKS = {
    "a1": ("independence", "spanning", "tpower", "translation", "icprop", "intertwiner",
           "cross_model"),
    "c2fs": ("independence", "spanning", "tpower"),
}


def cmd_checks(args):
    """`verify` runs its one check, `report` the kind's REPORT_CHECKS."""
    kind = _kind_from(args)
    checks = (args.check,) if args.verb == "verify" else REPORT_CHECKS[kind.name]
    reports = [r for check in checks for r in _check_reports(check, kind, args)]
    _emit(args, _report_lines(reports, args.format))
    return 0 if all(r.ok for r in reports) else 1


VERBS = {"enumerate": cmd_enumerate, "dims": cmd_dims, "verify": cmd_checks, "report": cmd_checks}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return VERBS[args.verb](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        # the models and solved maps of one command are not kept for the next
        iw._TRUNC_CACHE.clear()
        iw._SOLVED_W.clear()


if __name__ == "__main__":
    sys.exit(main())
