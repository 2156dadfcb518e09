"""The three certification workloads and the correctness gate.

A workload is a list of tasks.  A task is one call into the package's
public API (the `verify_*` / `sweep_*` functions that the acceptance
criteria and `affine-basis report` call) and yields one `StepReport`, i.e.
one certification.  Functions are looked up on their modules at call time,
so the wrappers that tracer.py installs there are seen.

The seed only permutes the order in which a workload visits its tasks; the
set of tasks, and therefore every digest and counter, is the same for
every seed.

The gate: every report must say ok=True, and the digest of its canonical
form (seconds removed, lists of records sorted) must equal the digest
pinned in digests.json.  A task that raises, reports ok=False or whose
digest differs counts as one failed certification.
"""

import hashlib
import itertools
import json
import os
import random
import time

NAMES = ("intertwiner-d3", "basis-d5", "chain-cross-warm")

# workloads whose tasks take a disk-cache directory
USES_CACHE = ("basis-d5", "chain-cross-warm")

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _a1_kinds(parts):
    return [parts.A1Standard(k0, k1) for k0, k1 in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]


def _fs_kinds(parts):
    return [
        parts.C2FS(*labels)
        for labels in itertools.product(range(3), repeat=3)
        if 1 <= sum(labels) <= 2
    ]


def _label(kind):
    return "%s%s" % (kind.name, tuple(kind.as_tuple()))


def _all_tasks(name, cache_dir):
    """[(task_id, thunk)] in the canonical order."""
    from affine_basis import intertwiner as iw
    from affine_basis import partitions as parts
    from affine_basis import verify as ver

    tasks = []
    if name == "intertwiner-d3":
        tasks.append(("intertwiner d3", lambda: iw.verify_intertwiner(3)))
    elif name == "basis-d5":
        for kind in _a1_kinds(parts):
            tasks.append(("independence %s d5" % _label(kind),
                          lambda k=kind: ver.verify_independence(k, 5, cache_dir)))
            tasks.append(("spanning %s d5" % _label(kind),
                          lambda k=kind: ver.verify_spanning(k, 5, cache_dir)))
        for kind in _fs_kinds(parts):
            tasks.append(("independence %s d5" % _label(kind),
                          lambda k=kind: ver.verify_independence(k, 5, cache_dir)))
        for kind in _a1_kinds(parts):
            tasks.append(("t_power %s d5" % _label(kind),
                          lambda k=kind: ver.sweep_t_power(k, 5)))
            tasks.append(("translation %s d5" % _label(kind),
                          lambda k=kind: ver.sweep_translation(k, 5, cache_dir)))
            tasks.append(("c0_nonvanishing %s" % _label(kind),
                          lambda k=kind: ver.verify_c0_nonvanishing(k, cache_dir)))
    elif name == "chain-cross-warm":
        for labels in ((0, 1), (1, 1), (0, 2)):
            kind = parts.A1Standard(*labels)
            tasks.append(("projection_chain %s d2" % _label(kind),
                          lambda k=kind: iw.sweep_projection_chain(k, 2, cache_dir)))
        for kind in _a1_kinds(parts):
            tasks.append(("cross_model %s d3" % _label(kind),
                          lambda k=kind: iw.verify_cross_model(k, 3, cache_dir)))
    else:
        raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))
    return tasks


def build(name, seed, cache_dir=None):
    """The workload's tasks in the order the seed picks."""
    tasks = _all_tasks(name, cache_dir)
    random.Random(seed).shuffle(tasks)
    return tasks


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        items = [_canonical(v) for v in obj]
        # lists of records (blocks, partitions, mismatches) are unordered
        # sets of results; lists of scalars are positional and keep order
        if items and all(isinstance(v, dict) for v in items):
            items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return items
    return obj


def digest(report):
    """Digest of a StepReport without its timing."""
    payload = {
        "step": report.step,
        "inputs": report.inputs,
        "ok": report.ok,
        "witness": report.witness,
    }
    text = json.dumps(_canonical(payload), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_tasks(tasks):
    """Run every task; never raises.  Returns [{id, ok, digest, error, seconds}]."""
    outcomes = []
    for task_id, thunk in tasks:
        t0 = time.perf_counter()
        try:
            report = thunk()
        except Exception as exc:  # a failed certification, not a crash
            outcome = {"id": task_id, "ok": False, "digest": None,
                       "error": "%s: %s" % (type(exc).__name__, exc)}
        else:
            outcome = {"id": task_id, "ok": bool(report.ok), "digest": digest(report),
                       "error": None}
        outcome["seconds"] = time.perf_counter() - t0
        outcomes.append(outcome)
    return outcomes


def load_pinned(name):
    with open(PINNED_PATH) as fh:
        return json.load(fh)[name]


def failures(outcomes, pinned, reference=None, warm_cache=None):
    """Failed certifications among `outcomes`: not ok, raised, digest not
    the pinned one, or (when `reference` is given, a {id: digest} map of a
    cold computation) not the reference digest.  A pinned task that did not
    run also counts.  `warm_cache` holds the cache counters of a run that
    must only read a filled cache; any miss or write fails every task, since
    the run then did not measure what it claims.  Returns [(task_id, reason)]."""
    bad = []
    ran = {out["id"] for out in outcomes}
    if warm_cache and (warm_cache["cache.misses"] or warm_cache["cache.puts"]):
        return [(tid, "warm cache missed or was written: %r" % warm_cache)
                for tid in sorted(ran | set(pinned))]
    for out in outcomes:
        tid = out["id"]
        if out["error"]:
            bad.append((tid, out["error"]))
        elif not out["ok"]:
            bad.append((tid, "ok=False"))
        elif out["digest"] != pinned.get(tid):
            bad.append((tid, "digest %s is not the pinned one" % (out["digest"] or "")[:12]))
        elif reference is not None and out["digest"] != reference.get(tid):
            bad.append((tid, "digest differs from the cold computation"))
    for tid in sorted(set(pinned) - ran):
        bad.append((tid, "pinned task did not run"))
    return bad
