"""Command line interface.

Verbs:
  enumerate   admissible colored partitions for a module kind
  dims        graded dimension table of the module (Gram ranks)
  verify      one verification step, a key of READS: independence,
              spanning, tpower, translation, icprop, intertwiner, chain,
              cross_model
  report      the verification suite for one module kind (REPORT_CHECKS)

Each verb and check takes exactly the flags it reads, beside the output
flags --format {text,json,csv}, --out FILE and --quiet; argparse refuses
any other (READS):
  enumerate, independence, tpower   --kind {a1,c2fs} --k0 --k1 --k2
                                    --max-degree
  dims, spanning                    the same and --cache-dir
  translation, icprop               --kind a1 --k0 --k1 --max-degree
  intertwiner                       --depth --cache-dir
  chain, cross_model                --kind a1 --k0 --k1 --max-degree
                                    --depth --cache-dir
  report                            the union over its kind's checks
--k2 is the third label of kind c2fs, and is refused with kind a1;
`report --kind c2fs` refuses --depth, since its checks have no window.  The
chain and cross_model read the models on window min(--max-degree,
--depth); the chain needs k1 > 0, so `report` skips it at k1 = 0.
--cache-dir defaults to $AFFINE_BASIS_CACHE, and --depth to 2.

Text output gives one line per step; a failing step's witness follows its
line as one compact JSON line.  The json and csv formats are unchanged by
the outcome.

Exit codes: 0 all checks passed, 1 a claim failed or the form is not
positive definite, 2 usage or input error.  A negative label, --max-degree
or --depth is a usage error.
"""

import argparse
import json
import sys

from . import intertwiner as iw
from . import partitions as parts_mod
from . import verify as verify_mod
from .cache import default_cache_dir


# the inputs each check reads, beside the output flags; --k2 is read with kind
# c2fs only, and a check that reads no --k2 takes kind a1 only
LABELS = ("--kind", "--k0", "--k1", "--k2", "--max-degree")
A1 = ("--kind", "--k0", "--k1", "--max-degree")
MODELS = ("--depth", "--cache-dir")  # the truncated models and their window
READS = {
    "independence": LABELS,
    "spanning": LABELS + ("--cache-dir",),
    "tpower": LABELS,
    "translation": A1,
    "icprop": A1,
    "intertwiner": MODELS,
    "chain": A1 + MODELS,
    "cross_model": A1 + MODELS,
}

# each check's reports, in step order, from its kind and the parsed flags
RUNS = {
    "independence": lambda kind, a: [verify_mod.verify_independence(kind, a.max_degree)],
    "spanning": lambda kind, a: [verify_mod.verify_spanning(kind, a.max_degree, a.cache_dir)],
    "tpower": lambda kind, a: [verify_mod.sweep_t_power(kind, a.max_degree)],
    "translation": lambda kind, a: [verify_mod.verify_c0_nonvanishing(kind),
                                    verify_mod.sweep_translation(kind, a.max_degree)],
    "icprop": lambda kind, a: [verify_mod.verify_icprop(kind, a.max_degree)],
    "intertwiner": lambda kind, a: [iw.verify_intertwiner(a.depth, a.cache_dir)],
    "chain": lambda kind, a: [iw.sweep_projection_chain(kind, _window(a), a.cache_dir)],
    "cross_model": lambda kind, a: [iw.verify_cross_model(kind, _window(a), a.cache_dir)],
}

# the checks `report` runs, in order, for each kind (kind a1: every check);
# it reads their union
REPORT_CHECKS = {"a1": tuple(READS), "c2fs": ("independence", "spanning", "tpower")}


def _window(args):
    """The window of the models the chain and cross_model read."""
    return min(args.max_degree, args.depth)


def _kind_from(args):
    if args.kind == "a1":
        return parts_mod.A1Standard(args.k0, args.k1)
    return parts_mod.C2FS(args.k0, args.k1, args.k2)


def _add_common(p, reads):
    """The flags in reads, then the output flags.  --kind offers c2fs only
    where --k2 is read; --k2 and --depth default to None (_read_late)."""
    options = {
        "--kind": dict(choices=("a1", "c2fs") if "--k2" in reads else ("a1",), default="a1"),
        "--k0": dict(type=int, default=1),
        "--k1": dict(type=int, default=0),
        "--k2": dict(type=int),
        "--max-degree": dict(type=int, default=3),
        "--depth": dict(type=int, help="truncation window (default 2)"),
        "--cache-dir": dict(default=default_cache_dir()),
    }
    for flag in reads:
        p.add_argument(flag, **options[flag])
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
    _add_common(p, LABELS)

    p = sub.add_parser("dims", help="graded dimensions (Gram ranks) of the module")
    _add_common(p, LABELS + ("--cache-dir",))

    p = sub.add_parser("verify", help="run one verification step")
    checks = p.add_subparsers(dest="check", required=True)
    for check, reads in READS.items():
        _add_common(checks.add_parser(check), reads)

    p = sub.add_parser("report", help="full verification suite for one kind")
    _add_common(p, LABELS + MODELS)

    return ap


def _read_late(args):
    """Refuse --k2 or --depth given where the command reads neither, then
    default them: kind a1 has labels k0, k1 only, and `report --kind c2fs`
    runs no check with a window.  Their parsers leave them None, so that a
    flag given is told apart from one defaulted."""
    reads = LABELS + MODELS  # every flag a parser takes, but report's, is read
    if args.verb == "report":
        reads = [flag for check in REPORT_CHECKS[args.kind] for flag in READS[check]]
    for flag, default in (("k2", 0), ("depth", 2)):
        if getattr(args, flag, default) is None:
            setattr(args, flag, default)
        elif flag in args and ("--" + flag not in reads or flag == "k2" and args.kind == "a1"):
            raise ValueError("--%s is not read with --kind %s" % (flag, args.kind))


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
        if not r.ok:
            lines.append("  " + json.dumps(r.witness, sort_keys=True, separators=(",", ":")))
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
    dims = [0] * (args.max_degree + 1)
    for (d, _), blk in support.items():
        dims[d] += blk.rank
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


def cmd_checks(args):
    """`verify` runs its one check, `report` the kind's REPORT_CHECKS; the
    chain needs k1 > 0, so `report` skips it at k1 = 0."""
    kind = _kind_from(args) if "kind" in args else None
    checks = (args.check,) if args.verb == "verify" else [
        c for c in REPORT_CHECKS[kind.name] if c != "chain" or kind.k1]
    reports = [r for check in checks for r in RUNS[check](kind, args)]
    _emit(args, _report_lines(reports, args.format))
    return 0 if all(r.ok for r in reports) else 1


VERBS = {"enumerate": cmd_enumerate, "dims": cmd_dims, "verify": cmd_checks, "report": cmd_checks}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _read_late(args)
        # a negative window certifies nothing
        for flag in ("max_degree", "depth"):
            if getattr(args, flag, 0) < 0:
                raise ValueError("--%s must be nonnegative, got %d"
                                 % (flag.replace("_", "-"), getattr(args, flag)))
        return VERBS[args.verb](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        # a form that is not positive definite fails the claims resting on it
        return 1 if isinstance(exc, ArithmeticError) else 2
    finally:
        # the models of one command, and the maps solved on them, are not
        # kept for the next
        iw._TRUNC_CACHE.clear()


if __name__ == "__main__":
    sys.exit(main())
