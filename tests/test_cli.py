import json

import numpy as np
import pytest

from jspectral import gtrig, jspec, series
from jspectral.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_alphap_p2(capsys):
    code, out = run_cli(capsys, "alphap", "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_p"] == 0.0


def test_hardy_norm_command(capsys):
    code, out = run_cli(capsys, "hardy-norm", "--p", "2", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == pytest.approx(2 / np.pi, rel=1e-12)
    assert doc["norm_dual_form"] == pytest.approx(doc["norm"], rel=1e-13)


def test_jspec_command_json(capsys):
    code, out = run_cli(capsys, "jspec", "--p", "3", "--q", "2", "--levels", "3",
                        "--grid-n", "128", "--restarts", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lambdas"]) == 3
    assert all(r < doc["tol"] for r in doc["residuals"])
    assert doc["lambdas"] == sorted(doc["lambdas"], reverse=True)


def test_jspec_reproducibility(capsys):
    args = ("jspec", "--p", "3", "--q", "2", "--levels", "2", "--grid-n", "96",
            "--restarts", "2", "--seed", "7")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_jspec_csv_format(capsys):
    code, out = run_cli(capsys, "--format", "csv", "jspec", "--levels", "2",
                        "--grid-n", "96", "--restarts", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,lambda,residual"
    assert len(lines) == 3


def test_dual_command(capsys):
    code, out = run_cli(capsys, "dual", "--p", "3", "--q", "2", "--levels", "2",
                        "--grid-n", "96", "--restarts", "3")
    assert code == 0
    doc = json.loads(out)
    assert max(doc["lambda_match"]) <= 1e-6
    assert doc["first_dual_vector_dev"] <= 1e-6


def test_series_command(capsys):
    code, out = run_cli(capsys, "series", "--kind", "target", "--p", "3",
                        "--q", "2", "--levels", "3", "--grid-n", "96",
                        "--restarts", "3")
    assert code == 0
    doc = json.loads(out)
    errs = [e for _, e in doc["errors"]]
    assert errs[-1] <= errs[0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_series_command_reconstructs_once(capsys, monkeypatch, fmt):
    calls = []
    inner = series.SeriesRep.reconstruction_errors

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(series.SeriesRep, "reconstruction_errors", counted)
    code, out = run_cli(capsys, "--format", fmt, "series", "--kind", "target",
                        "--levels", "2", "--grid-n", "64", "--restarts", "2")
    assert code == 0 and out
    assert len(calls) == 1


def test_snum_command(capsys):
    code, out = run_cli(capsys, "snum", "--n-max", "3", "--grid-n", "96",
                        "--restarts", "3")
    assert code == 0
    doc = json.loads(out)
    assert all(doc["passed"])
    assert doc["kind"] == "exact"


def test_gtrig_command(capsys):
    code, out = run_cli(capsys, "gtrig", "--p", "3", "--q", "1.5", "--samples", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["sin_pq"][0] == 0.0
    assert doc["sin_pq"][-1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gtrig_command_evaluates_each_function_once(capsys, monkeypatch, fmt):
    calls = []
    inner = gtrig.GenTrig._evaluate

    def counted(self, x, extend, cosine):
        calls.append(cosine)
        return inner(self, x, extend, cosine)

    monkeypatch.setattr(gtrig.GenTrig, "_evaluate", counted)
    code, out = run_cli(capsys, "--format", fmt, "gtrig", "--p", "3", "--q", "1.5")
    assert code == 0 and out
    assert sorted(calls) == [False, True]


def test_json_output_builds_no_csv(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("CSV built for JSON output")

    monkeypatch.setattr(jspec.JSpectrum, "to_csv", refuse)
    code, out = run_cli(capsys, "jspec", "--levels", "1", "--grid-n", "64",
                        "--restarts", "2")
    assert code == 0
    assert len(json.loads(out)["lambdas"]) == 1


def test_pcompact_command(capsys):
    code, out = run_cli(capsys, "pcompact", "--demo", "hardy", "--terms", "16",
                        "--grid-n", "128")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fit_exponent"] + 1.0) <= 0.02
    code, out = run_cli(capsys, "pcompact", "--demo", "sobolev", "--terms", "8",
                        "--grid-n", "128")
    assert json.loads(out)["coeff_bound"] <= 1.0 + 1e-8


def test_konig_command(capsys):
    code, out = run_cli(capsys, "konig", "--case", "jordan", "--k-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["reference"] == pytest.approx(0.5, abs=1e-12)
    assert len(doc["values"]) == 6


def test_bilap_command(capsys):
    code, out = run_cli(capsys, "bilap", "--p", "2", "--grid-n", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["sup_dev_eigenfunction"] <= 1e-3


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["jspec", "--nonsense", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gtrig", "--grid-n", "64"],
    ["gtrig", "--restarts", "2"],
    ["pcompact", "--tol", "1e-6"],
    ["konig", "--p", "3"],
    ["bilap", "--q", "2"],
    ["bilap", "--restarts", "2"],
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_missing_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_nonconvergence_exit_code(capsys):
    code = main(["jspec", "--grid-n", "64", "--levels", "1", "--tol", "1e-300",
                 "--restarts", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "residual" in err


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "res.json"
    code, _ = run_cli(capsys, "--out", str(out_file), "alphap", "--p", "2")
    assert code == 0
    assert json.loads(out_file.read_text())["alpha_p"] == 0.0
    monkeypatch.setenv("JSPECTRAL_OUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "--out", "rel.json", "alphap", "--p", "3")
    assert code == 0
    assert (tmp_path / "rel.json").exists()
