"""Command line interface: verbs, formats, output files, exit codes."""

import collections
import contextlib
import io
import json
import os
import re
import tempfile
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st
import pytest

from conftest import perturb_solve_w
from affine_basis import cli
from affine_basis import intertwiner
from affine_basis.verify import StepReport


def run(argv):
    return cli.main(argv)


def test_enumerate_text_and_total(capsys):
    assert run(["enumerate", "--kind", "a1", "--k0", "1", "--k1", "0"]) == 0
    out = capsys.readouterr().out
    assert "total: 15" in out  # degrees 0..3 of the level-1 vacuum kind
    assert "a1 c1" in out


def test_enumerate_csv(capsys):
    assert (
        run(
            [
                "enumerate",
                "--kind",
                "a1",
                "--k0",
                "1",
                "--k1",
                "0",
                "--max-degree",
                "2",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "degree,n,n_prime,partition"
    assert len(lines) == 1 + 8
    assert lines[1].startswith("0,0,0,empty")


def test_enumerate_jsonl(capsys):
    assert run(["enumerate", "--format", "json", "--max-degree", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert [r["degree"] for r in recs] == [0, 1, 1, 1]


def test_dims_csv_matches_partition_numbers(capsys):
    assert (
        run(
            [
                "dims",
                "--kind",
                "a1",
                "--k0",
                "1",
                "--k1",
                "0",
                "--max-degree",
                "3",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "degree,weight1,weight2,dim"
    rows = {}
    for line in lines[1:]:
        d, w1, w2, dim = (int(x) for x in line.split(","))
        rows[(d, (w1, w2))] = dim
    import oracles

    for (d, (w1, w2)), dim in rows.items():
        assert w2 == 0 and w1 % 2 == 0
        assert dim == oracles.a1_level1_block_dim(d, w1 // 2)
    assert sum(dim for (d, _), dim in rows.items() if d == 3) == 7


def test_out_file_and_quiet(tmp_path, capsys):
    out_file = tmp_path / "dims.json"
    argv = ["dims", "--max-degree", "1", "--format", "json", "--out", str(out_file)]
    for extra, printed in ((["--quiet"], ""), ([], "wrote %s\n" % out_file)):
        assert run(argv + extra) == 0
        captured = capsys.readouterr()
        assert captured.out == printed
        data = json.loads(out_file.read_text())
        assert data["dims_by_degree"] == [1, 3]


def test_verify_tpower_exit_zero_and_backend_note(capsys):
    assert run(["verify", "tpower", "--max-degree", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # one kernel: no backend note
    assert "t_power_sweep" in captured.out
    assert "pass" in captured.out


def test_verify_icprop(capsys):
    assert (
        run(
            [
                "verify",
                "icprop",
                "--kind",
                "a1",
                "--k0",
                "2",
                "--k1",
                "0",
                "--max-degree",
                "4",
            ]
        )
        == 0
    )
    assert "icprop" in capsys.readouterr().out


def test_verify_json_format(capsys):
    assert run(["verify", "tpower", "--max-degree", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload[0]["step"] == "t_power_sweep"
    assert payload[0]["ok"] is True


def test_verify_translation_requires_long_root_kind(capsys):
    # translation reads the labels of kind a1 only, so its --kind offers no
    # other choice
    with pytest.raises(SystemExit) as exc:
        run(["verify", "translation", "--kind", "c2fs", "--k0", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "invalid choice: 'c2fs'" in err


def test_failing_check_exits_one(capsys):
    # text output prints a failing step's witness as one compact JSON line
    # under its summary line; a passing step prints its line alone
    witness = {"commutes": False, "commutation_failure": {"block": [2, [-3, 0]], "code": 40}}
    fake = StepReport(step="t_power_sweep", inputs={}, ok=False, witness=witness)
    with patch("affine_basis.verify.sweep_t_power", return_value=fake):
        code = run(["verify", "tpower", "--max-degree", "1"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "FAIL" in lines[0]
    assert lines[1] == '  {"commutation_failure":{"block":[2,[-3,0]],"code":40},"commutes":false}'
    assert json.loads(lines[1]) == witness
    with patch("affine_basis.verify.sweep_t_power", return_value=fake):
        assert run(["verify", "tpower", "--max-degree", "1", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)[0]["witness"] == witness
    with patch("affine_basis.verify.sweep_t_power", return_value=fake):
        assert run(["verify", "tpower", "--max-degree", "1", "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "step,inputs,ok,seconds",
        't_power_sweep,"{}",FAIL,0.000',
    ]
    assert run(["verify", "tpower", "--max-degree", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "unknown-check"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_report_principal_subspace_kind(capsys):
    assert (
        run(
            [
                "report",
                "--kind",
                "c2fs",
                "--k0",
                "1",
                "--max-degree",
                "2",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,inputs,ok,seconds"
    steps = [line.split(",")[0] for line in lines[1:]]
    assert steps == ["independence", "spanning", "t_power_sweep"]
    assert all(",pass," in line for line in lines[1:])


def test_report_long_root_kind_runs_the_full_suite(capsys):
    assert (
        run(
            [
                "report",
                "--kind",
                "a1",
                "--k0",
                "1",
                "--k1",
                "0",
                "--max-degree",
                "1",
                "--depth",
                "1",
                "--format",
                "json",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    steps = [r["step"] for r in payload]
    assert steps == [
        "independence",
        "spanning",
        "t_power_sweep",
        "c0_nonvanishing",
        "translation_sweep",
        "icprop",
        "intertwiner",
        "cross_model",
    ]
    assert all(r["ok"] for r in payload)


def test_a_finished_command_keeps_no_models(capsys):
    # the truncated models and solved maps of one command are freed when it
    # ends, so a process that runs many commands does not accumulate them
    argv = ["verify", "chain", "--kind", "a1", "--k0", "0", "--k1", "1", "--depth", "1"]
    assert run(argv) == 0
    assert "projection_chain_sweep" in capsys.readouterr().out
    assert intertwiner._TRUNC_CACHE == {}


def test_report_certifies_the_w_its_chain_reads_at_depth_zero(monkeypatch, capsys):
    # with --depth 0 the intertwiner step certifies window 0, while the
    # chain's partitions read w on window 1 (max(degree, 1)); the chain's
    # map is certified in the same run, so a w wrong only at degree 1 fails
    # the report, and the intertwiner step still passes on window 0
    argv = ["report", "--kind", "a1", "--k0", "0", "--k1", "1", "--max-degree", "2",
            "--depth", "0", "--format", "json"]
    assert run(argv) == 0
    capsys.readouterr()
    perturb_solve_w(monkeypatch, 1)
    assert run(argv) == 1
    failed = [r for r in json.loads(capsys.readouterr().out) if not r["ok"]]
    assert [r["step"] for r in failed] == ["projection_chain_sweep"]
    assert [e["ok"] for e in failed[0]["witness"]["partitions"]] == [False, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--max-degree", "-1"],
        ["verify", "intertwiner", "--depth", "-1"],
        ["verify", "independence", "--max-degree", "-2"],
        ["verify", "tpower", "--kind", "c2fs", "--k0", "-1", "--k1", "2"],
        ["verify", "icprop", "--k0", "-1"],
        ["enumerate", "--k0", "-1"],
    ],
)
def test_negative_windows_and_labels_are_usage_errors(argv, capsys):
    # a negative window has nothing to certify, and negative labels are no
    # highest weight: neither may pass vacuously
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "must be nonnegative" in captured.err
    assert "pass" not in captured.out


def test_a_third_label_for_kind_a1_is_a_usage_error(capsys):
    # kind a1 has labels k0, k1 only: a nonzero --k2 must not be dropped
    # and the labels [1, 0] certified in its place
    argv = ["verify", "independence", "--kind", "a1", "--k0", "1", "--k2", "5",
            "--max-degree", "2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--k2" in captured.err
    assert "pass" not in captured.out


@pytest.mark.parametrize(
    "verb, writes",
    [(["dims"], True), (["verify", "spanning"], True), (["verify", "tpower"], False)],
    ids=["dims", "verify-spanning", "verify-tpower"],
)
def test_cache_dir_defaults_to_the_environment(verb, writes, tmp_path, monkeypatch):
    # the variable is not a flag: a check that reads no cache runs as
    # before and writes nothing there
    monkeypatch.setenv("AFFINE_BASIS_CACHE", str(tmp_path))
    assert run(verb + ["--max-degree", "1", "--quiet"]) == 0
    assert bool(list(tmp_path.glob("*.json"))) == writes


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--jobs", "2"],
        ["verify", "independence", "--jobs", "2"],
        ["report", "--jobs", "2"],
        ["dims", "--depth", "3"],
        ["enumerate", "--cache-dir", "x"],
    ],
)
def test_flags_a_verb_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the exit-code contract as one property
# ---------------------------------------------------------------------------

CHECKS = ("independence", "spanning", "tpower", "translation", "icprop", "intertwiner",
          "chain", "cross_model")
# the flags each check, and each verb but verify, reads beyond the output
# flags; --k2 is read with kind c2fs only, and a command that reads no --k2
# takes kind a1 only
LABELS = ("--kind", "--k0", "--k1", "--k2", "--max-degree")
A1 = ("--kind", "--k0", "--k1", "--max-degree")
READS = {
    "enumerate": LABELS,
    "dims": LABELS + ("--cache-dir",),
    "independence": LABELS,
    "spanning": LABELS + ("--cache-dir",),
    "tpower": LABELS,
    "translation": A1,
    "icprop": A1,
    "intertwiner": ("--depth", "--cache-dir"),
    "chain": A1 + ("--depth", "--cache-dir"),
    "cross_model": A1 + ("--depth", "--cache-dir"),
}
# the checks report runs for each kind; it reads their union
REPORT = {"a1": CHECKS, "c2fs": ("independence", "spanning", "tpower")}
OUTPUT = ("--format", "--out", "--quiet")
COMMANDS = [("enumerate", None), ("dims", None), ("report", None)] + [
    ("verify", check) for check in CHECKS]
# derandomized draws favour the first values of sampled_from, so the refused
# -1 comes last, and the labels start at 1, which the chain needs for k1
WINDOWS = st.sampled_from((0, 1, 2, -1))  # capped at 2, so each run takes milliseconds
LABEL = st.sampled_from((1, 2, 0, -1))
OPTIONAL = {
    "--kind": st.sampled_from(("a1", "c2fs")),
    "--k0": LABEL,
    "--k1": LABEL,
    "--k2": LABEL,
    "--max-degree": WINDOWS,
    "--depth": WINDOWS,
    "--format": st.sampled_from(("text", "json", "csv")),
    "--cache-dir": st.just("{tmp}/cache"),
    "--out": st.just("{tmp}/out"),
    "--quiet": st.just(None),
}


@st.composite
def cli_calls(draw, verb, check):
    """(verb, check, {flag: value}) for one command: --max-degree always
    where the command takes it, since its default is above the cap, and so
    --k1 for the chain, whose default 0 is refused; any subset of the other
    flags it takes (report: those of every kind) and at times one flag of
    any command, which it may not take."""
    takes = {f for key in (CHECKS if verb == "report" else [check or verb]) for f in READS[key]}
    flags = draw(st.sets(st.sampled_from(sorted(takes.union(OUTPUT)))))
    if draw(st.integers(0, 2)) == 0:
        flags.add(draw(st.sampled_from(sorted(OPTIONAL))))
    opts = {"--max-degree": draw(WINDOWS)} if "--max-degree" in takes else {}
    if check == "chain":
        opts["--k1"] = draw(LABEL)
    for flag in sorted(flags - set(opts)):
        opts[flag] = draw(OPTIONAL[flag])
    return verb, check, opts


def _is_valid(verb, check, opts):
    kind = opts.get("--kind", "a1")
    reads = {f for key in (REPORT[kind] if verb == "report" else [check or verb])
             for f in READS[key]}
    if kind == "c2fs" and "--k2" not in reads:
        return False
    if kind == "a1":
        reads.discard("--k2")
    if set(opts) - reads - set(OUTPUT):
        return False
    labels = [opts.get(f, d) for f, d in (("--k0", 1), ("--k1", 0), ("--k2", 0))]
    if min(labels) < 0 or opts.get("--max-degree", 0) < 0 or opts.get("--depth", 0) < 0:
        return False
    # at k1 = 0 the chain reads no w
    return not (check == "chain" and labels[1] == 0)


def _untimed(run):
    """A run's exit code and texts with every timing masked."""
    code, *texts = run
    timing = r'"seconds": [-+.e\d]+|\d+\.\d\ds\b|,\d+\.\d{3}$'
    return [code] + [re.sub(timing, "<t>", text or "", flags=re.M) for text in texts]


def _run_in(tmp, argv):
    """(exit code, stdout, stderr, the --out file or None) of one in-process
    run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    path = os.path.join(tmp, "out")
    written = None
    if os.path.exists(path):
        with open(path) as fh:
            written = fh.read()
        os.remove(path)
    return code, out.getvalue(), err.getvalue(), written


EXAMPLES = [
    # negative windows that checks which do not read them once let pass
    ("verify", "independence", {"--max-degree": 0, "--depth": -1}),
    ("verify", "intertwiner", {"--max-degree": -1}),
    # flags that checks which do not read them once accepted
    ("verify", "tpower", {"--max-degree": 0, "--depth": 0}),
    ("verify", "icprop", {"--max-degree": 0, "--cache-dir": "{tmp}/cache"}),
    ("report", None, {"--max-degree": 0, "--kind": "c2fs", "--depth": 1}),
    ("verify", "intertwiner", {"--kind": "a1", "--k1": 1}),
    ("verify", "independence", {"--max-degree": 0, "--kind": "a1", "--k2": 0}),
    # a chain run, the chain at k1 = 0 (which reads no w) and an icprop run
    ("verify", "chain", {"--max-degree": 2, "--k0": 0, "--k1": 1}),
    ("verify", "chain", {"--max-degree": 1}),
    ("verify", "icprop", {"--max-degree": 2, "--k0": 2, "--format": "json"}),
]
DRAWS = 11  # per command, so 121 drawn argvs in all


def test_exit_codes_keep_their_contract():
    # the property, drawn command by command (cli_calls), so each command
    # gets its share of the draws, plus the explicit EXAMPLES; the drawn
    # argvs alone must reach a valid and a refused run of every command
    drawn = collections.Counter()
    for verb, check in COMMANDS:
        @settings(max_examples=DRAWS, deadline=None, derandomize=True)
        @given(cli_calls(verb, check))
        def draws(call):
            drawn[call[:2] + (_is_valid(*call),)] += 1
            _keeps_the_contract(call)

        for call in EXAMPLES:
            if call[:2] == (verb, check):
                draws = example(call)(draws)
        draws()
    for call in EXAMPLES:
        drawn[call[:2] + (_is_valid(*call),)] -= 1
    thin = [command for command in COMMANDS if not (drawn[command + (True,)] and drawn[command + (False,)])]
    assert thin == []


def _keeps_the_contract(call):
    verb, check, opts = call
    with tempfile.TemporaryDirectory() as tmp, patch.dict(os.environ):
        os.environ.pop("AFFINE_BASIS_CACHE", None)
        argv = [verb] + ([check] if check else [])
        for flag, value in opts.items():
            argv += [flag] if value is None else [flag, str(value).format(tmp=tmp)]
        first = _run_in(tmp, argv)
        second = _run_in(tmp, argv)
    code, out, err, written = first
    # exit 2 exactly on an invalid argv, with a message and no traceback;
    # at these windows every claim holds, so a valid argv exits 0
    assert code == (0 if _is_valid(verb, check, opts) else 2), (argv, out, err)
    assert "Traceback" not in err
    assert code == 0 or err.startswith(("error: ", "usage: ")) and "pass" not in out
    shown = written if written is not None else "" if "--quiet" in opts else out
    if code == 0 and verb in ("verify", "report") and shown:
        if opts.get("--format") == "json":
            reports = json.loads(shown)
            assert reports and all(r["ok"] for r in reports)
        else:
            assert "pass" in shown and "FAIL" not in shown
    # the same argv gives the same output, timings aside
    assert _untimed(second) == _untimed(first)

