"""Tests of the benchmark itself: the correctness gate bites, the seed only
reorders (digests and counters of two seeds match), tracing reports every
per-layer metric BENCHMARK.json names, and mismatched environments are
refused.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from affine_basis import verify  # noqa: E402
from affine_basis.partitions import A1Standard  # noqa: E402

T_POWER = "t_power a1(1, 0) d5"
C0 = "c0_nonvanishing a1(1, 0)"


def _tasks(names, cache_dir=None):
    tasks = dict(workloads.build("basis-d5", 0, cache_dir))
    return [(tid, tasks[tid]) for tid in names]


def _fail_ratio(outcomes, pinned, **kw):
    bad = workloads.failures(outcomes, pinned, **kw)
    return len(bad) / len(set(pinned) | {o["id"] for o in outcomes})


def test_seed_code_passes_the_gate():
    pinned = workloads.load_pinned("basis-d5")
    outcomes = workloads.run_tasks(_tasks([T_POWER, C0]))
    subset = {tid: pinned[tid] for tid in (T_POWER, C0)}
    assert workloads.failures(outcomes, subset) == []


def test_poisoned_derivation_table_fails_the_gate():
    pinned = workloads.load_pinned("basis-d5")
    subset = {tid: pinned[tid] for tid in (T_POWER, C0)}
    broken = verify.DerivationTable().mutate(0, ())
    tasks = _tasks([C0]) + [(T_POWER, lambda: verify.sweep_t_power(A1Standard(1, 0), 5, broken))]
    outcomes = workloads.run_tasks(tasks)
    bad = workloads.failures(outcomes, subset)
    assert [tid for tid, _ in bad] == [T_POWER]
    assert _fail_ratio(outcomes, subset) > 0


def test_wrong_pinned_digest_fails_the_gate():
    outcomes = workloads.run_tasks(_tasks([C0]))
    pinned = {C0: "0" * 64}
    assert workloads.failures(outcomes, pinned) == [(C0, "digest %s is not the pinned one"
                                                     % outcomes[0]["digest"][:12])]
    assert _fail_ratio(outcomes, pinned) > 0


def test_raising_missing_and_changed_tasks_count_as_failures():
    def boom():
        raise ArithmeticError("nonzero vector in a block reported empty")

    pinned = workloads.load_pinned("basis-d5")
    outcomes = workloads.run_tasks([(C0, boom)])
    bad = dict(workloads.failures(outcomes, pinned))
    assert bad[C0].startswith("ArithmeticError")
    assert len(bad) == len(pinned)  # every other pinned task did not run
    good = workloads.run_tasks(_tasks([C0]))
    reference = {C0: "f" * 64}
    assert workloads.failures(good, {C0: pinned[C0]}, reference=reference) == [
        (C0, "digest differs from the cold computation")]


def test_warm_cache_miss_or_write_fails_every_task():
    outcomes = workloads.run_tasks(_tasks([C0]))
    pinned = {C0: workloads.load_pinned("basis-d5")[C0]}
    clean = {"cache.hits": 3, "cache.misses": 0, "cache.puts": 0}
    assert workloads.failures(outcomes, pinned, warm_cache=clean) == []
    for dirty in ({**clean, "cache.misses": 1}, {**clean, "cache.puts": 1}):
        assert [tid for tid, _ in workloads.failures(outcomes, pinned, warm_cache=dirty)] == [C0]


def test_digest_ignores_seconds_and_record_order():
    rep = verify.sweep_t_power(A1Standard(1, 0), 3)
    records = [dict(r) for r in reversed(rep.witness["partitions"])]
    again = verify.StepReport(rep.step, rep.inputs, rep.ok, {"partitions": records},
                              seconds=rep.seconds + 1.0)
    assert len(rep.witness["partitions"]) > 1
    assert workloads.digest(again) == workloads.digest(rep)
    again.witness["partitions"][0]["scalar"] = "7"
    assert workloads.digest(again) != workloads.digest(rep)


def test_seed_permutes_order_but_not_the_set():
    for name in workloads.NAMES:
        orders = [[tid for tid, _ in workloads.build(name, seed)] for seed in range(6)]
        assert all(sorted(o) == sorted(workloads.load_pinned(name)) for o in orders)
        assert len(orders[0]) == 1 or len({tuple(o) for o in orders}) > 1
        assert orders[0] == [tid for tid, _ in workloads.build(name, 0)]


def test_two_seeds_give_the_same_digests_and_counters(tmp_path):
    runs = []
    for seed in (1, 2):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", os.path.join(ROOT, "src"),
               "--workload", "basis-d5", "--seed", str(seed), "--mode", "run", "--trace", "1",
               "--cache-dir", str(tmp_path / ("cache-%d" % seed)), "--spawned-at", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    orders = [[o["id"] for o in run["outcomes"]] for run in runs]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])
    digests = [{o["id"]: o["digest"] for o in run["outcomes"]} for run in runs]
    assert digests[0] == digests[1] == workloads.load_pinned("basis-d5")
    counters = [{k: v for k, v in run["layers"].items() if not k.endswith("_s")} for run in runs]
    assert counters[0] == counters[1]
    assert counters[0]["pbw.blocks"] > 0 and counters[0]["cache.puts"] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        named = {m["name"] for m in json.load(fh)["per_layer"]}
    t = tracer.Tracer()
    tracer.install(t)
    try:
        tasks = [(tid, t.wrap("step " + tid, thunk))
                 for tid, thunk in _tasks([C0, "spanning a1(1, 0) d5"], str(tmp_path))]
        outcomes = workloads.run_tasks(tasks)
        layers = tracer.finish(t, outcomes, [str(tmp_path)])
    finally:
        t.uninstall()
    trace_keys = {"trace.overhead_s", "trace.overhead_ratio", "trace.spans_dropped"}
    assert set(layers) | trace_keys == named
    assert layers["verify.steps"] == 2 and layers["verify.steps_failed"] == 0
    assert layers["cache.puts"] == layers["cache.misses"] > 0
    assert layers["pbw.blocks"] > 0 and 0 < layers["pbw.keep_ratio"] <= 1
    assert layers["kernel.pair_memo"] > 0 and layers["cache.bytes_on_disk"] > 0
    # every wrapper is gone again
    assert not hasattr(verify.verify_spanning, "__wrapped__")
    assert not hasattr(verify.straighten, "__wrapped__")


def _record(tmp_path, name, **stamp):
    base = {"python": "3.11.7", "backend": "python", "numeric_path": "fraction"}
    base.update(stamp)
    rec = {"workload": "basis-d5", "trace": 0, "stamp": base,
           "metrics": {"wall_s": {"value": 5.0, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return str(path)


def test_compare_refuses_a_different_numeric_path_or_backend(tmp_path, capsys):
    a = _record(tmp_path, "a.json")
    assert compare.main([a, _record(tmp_path, "b.json")]) == 0
    assert compare.main([a, _record(tmp_path, "c.json", numeric_path="gmpy2")]) == 2
    assert compare.main([a, _record(tmp_path, "d.json", backend="c")]) == 2
    assert "refusing" in capsys.readouterr().err


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "basis-d5", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
