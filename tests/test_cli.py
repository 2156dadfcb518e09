"""Command line interface: verbs, formats, output files, exit codes."""

import json
from unittest.mock import patch

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
    code = run(["verify", "translation", "--kind", "c2fs", "--k0", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
    argv = ["verify", "intertwiner", "--kind", "a1", "--k0", "0", "--k1", "1", "--depth", "1"]
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
    "verb", [["dims"], ["verify", "spanning"]], ids=["dims", "verify-spanning"]
)
def test_cache_dir_defaults_to_the_environment(verb, tmp_path, monkeypatch):
    monkeypatch.setenv("AFFINE_BASIS_CACHE", str(tmp_path))
    assert run(verb + ["--max-degree", "1", "--quiet"]) == 0
    assert list(tmp_path.glob("*.json"))


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
