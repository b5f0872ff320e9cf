import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jspectral
from jspectral import LinOp, Space, gtrig, jspec, series
from jspectral.cli import build_parser, main
from jspectral.pcpt import Cover
from jspectral.snum import SNumberReport


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


def test_hardy_norm_command_at_a_huge_interval(capsys):
    # the norm grows like b^(3/2 - 1/p): finite at p = 1.5 and b = 1e300
    code, out = run_cli(capsys, "hardy-norm", "--p", "1.5", "--b", "1e300")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == pytest.approx(6.78e249, rel=1e-3)
    assert doc["norm_dual_form"] == pytest.approx(doc["norm"], rel=1e-12)


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


_SOLVER = {"p": 2.0, "q": 2.0, "b": 1.0, "grid_n": 1024, "tol": 1e-08, "seed": 42, "restarts": 8}


# each row: a subcommand line and every flag it parses to, with its default,
# in the order the subcommand adds them
_PARSED = [
    (["jspec"], {"command": "jspec", **_SOLVER, "levels": 4}),
    (["dual"], {"command": "dual", **_SOLVER, "levels": 4}),
    (["series"], {"command": "series", **_SOLVER, "kind": "target", "levels": 6}),
    (["snum"], {"command": "snum", **_SOLVER, "n_max": 5}),
    (["gtrig"], {"command": "gtrig", "p": 2.0, "q": 2.0, "samples": 50}),
    (["pcompact"], {"command": "pcompact", "p": 2.0, "q": 2.0, "grid_n": 1024, "seed": 42,
                    "demo": "hardy", "terms": 64}),
    (["alphap", "--p", "2"], {"command": "alphap", "p": 2.0}),
    (["konig"], {"command": "konig", "b": 1.0, "grid_n": 1024, "tol": 1e-08, "seed": 42,
                 "case": "jordan", "n": 1, "k_max": 20}),
    (["bilap"], {"command": "bilap", "p": 2.0, "b": 1.0, "grid_n": 1024, "tol": 1e-08,
                 "seed": 42}),
    (["hardy-norm", "--p", "2"], {"command": "hardy-norm", "p": 2.0, "b": 1.0}),
]


@pytest.mark.parametrize("argv, parsed", _PARSED, ids=[argv[0] for argv, _ in _PARSED])
def test_subcommand_flags_and_defaults(argv, parsed):
    got = vars(build_parser().parse_args(argv))
    got.pop("func")
    assert list(got.items()) == list({"out": None, "out_format": "json", **parsed}.items())


def test_missing_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["series", "--kind", "source", "--p", "3", "--grid-n", "64", "--levels", "2",
      "--restarts", "2"], "hilbert_source_series needs domain exponent 2"),
    (["--format", "csv", "alphap", "--p", "3"], "this command has no CSV form"),
    (["gtrig", "--p", "1"], "GenTrig needs p, q in (1, inf)"),
    (["jspec", "--grid-n", "1"], "a Space needs at least 2 nodes"),
    (["pcompact", "--demo", "hardy", "--grid-n", "64", "--terms", "1"],
     "n_terms must be at least 3: the decay fit skips the first term and needs two more"),
    (["pcompact", "--demo", "hardy", "--grid-n", "64", "--terms", "2"],
     "n_terms must be at least 3: the decay fit skips the first term and needs two more"),
    (["konig", "--case", "diag", "--n", "4"],
     "level n = 4 is outside 1..3, the dimension of T"),
    (["hardy-norm", "--p", "2", "--b", "nan"],
     "hardy_norm_formula needs p in (1, inf), b in (0, inf)"),
    (["hardy-norm", "--p", "2", "--b", "inf"],
     "hardy_norm_formula needs p in (1, inf), b in (0, inf)"),
    (["gtrig", "--samples", "-1"], "--samples must be at least 0, got -1"),
    (["jspec", "--grid-n", "64", "--levels", "-2"],
     "the number of levels must be at least 0, got -2"),
    (["snum", "--grid-n", "64", "--n-max", "-1"],
     "the number of levels must be at least 0, got -1"),
    (["konig", "--k-max", "-1"], "k_max must be at least 0, got -1"),
    (["jspec", "--grid-n", "64", "--levels", "1", "--tol", "nan"],
     "tol must be finite and positive, got nan"),
    (["jspec", "--grid-n", "64", "--levels", "1", "--tol", "-1"],
     "tol must be finite and positive, got -1"),
    (["jspec", "--grid-n", "64", "--levels", "1", "--restarts", "0"],
     "restarts must be at least 1, got 0"),
    (["hardy-norm", "--p", "3", "--b", "1e300"],
     "the Hardy norm overflows at p = 3, b = 1e+300"),
    (["jspec", "--grid-n", "0"], "a Space needs at least 2 nodes"),
    (["jspec", "--grid-n", "-4"], "a Space needs at least 2 nodes"),
    (["pcompact", "--grid-n", "0"], "a Space needs at least 2 nodes"),
    (["pcompact", "--grid-n", "-4"], "a Space needs at least 2 nodes"),
    (["pcompact", "--demo", "hardy", "--grid-n", "8", "--terms", "16"],
     "basis is rank-deficient on the grid"),
    *((argv + ["--seed", "-1"], "seed must be at least 0, got -1") for argv in (
        ["jspec", "--grid-n", "64", "--levels", "2"],
        ["dual", "--grid-n", "64", "--levels", "2"],
        ["series", "--grid-n", "64", "--levels", "2"],
        ["snum", "--grid-n", "64", "--n-max", "2"],
        ["konig", "--case", "diag", "--k-max", "2"],
        ["bilap", "--grid-n", "64"],
        ["pcompact", "--demo", "hardy", "--grid-n", "64", "--terms", "8"],
        ["pcompact", "--demo", "sobolev", "--grid-n", "64"],
        ["pcompact", "--demo", "ideal", "--grid-n", "64"],
    )),
])
def test_invalid_input_exits_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid arguments: {message}\n"


def test_snum_with_no_levels_gives_empty_values(capsys):
    # as jspec --levels 0 does; svds itself takes no k = 0
    code, out = run_cli(capsys, "snum", "--grid-n", "64", "--n-max", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["approx"] == doc["lambdas"] == doc["passed"] == []
    assert doc["kind"] == "exact"


def test_csv_cells_parse_back_to_the_floats_given():
    vals = [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -2.5e-17,
            float(np.nextafter(1.0, 2.0))]
    vals = [np.float64(v) for v in vals]

    def cells(text):
        lines = text.split("\r\n")
        assert lines[-1] == "" and all("\n" not in line for line in lines)
        return [line.split(",") for line in lines[:-1]]

    def floats_of(text, skip_header=True, cols=slice(1, None)):
        rows = cells(text)[1:] if skip_header else cells(text)
        return [[float(c) for c in row[cols]] for row in rows]

    js = jspec.JSpectrum(lambdas=vals, residuals=vals[::-1])
    assert floats_of(js.to_csv()) == [list(r) for r in zip(vals, vals[::-1])]
    errors = list(enumerate(vals, 1))
    assert floats_of(series.SeriesRep.error_table_csv(errors)) == [[e] for _, e in errors]
    assert [int(r[0]) for r in cells(series.SeriesRep.error_table_csv(errors))[1:]] == [
        n for n, _ in errors]
    lo, a, up = vals[:3], vals[1:4], vals[2:5]
    rep = SNumberReport(a, lo, up, [], [], [], "sandwich")
    assert floats_of(rep.to_csv()) == [
        [l_, a_, u_, min(a_ - l_, u_ - a_)] for l_, a_, u_ in zip(lo, a, up)]
    cover = Cover([], vals, 2.0, 1.0, 1.0)
    assert floats_of(cover.to_csv()) == [[v] for v in vals]
    g = gtrig.GenTrig(3.0, 1.5)
    xs = np.array(vals[:3] + [1.0, 2.0, 10.0])
    assert floats_of(g.table_csv(xs), cols=slice(None)) == [
        list(r) for r in zip(xs, g.sin(xs, extend=True), g.cos(xs, extend=True))]
    sp = Space.sequence(len(vals), 2.0)
    M = np.outer(vals, [1.0, -0.5, 1.0 / 3.0, 0.1, -1.0, 0.25])
    assert floats_of(LinOp(M, sp, sp).to_csv(), skip_header=False,
                     cols=slice(None)) == M.tolist()


def test_nonconvergence_exit_code(capsys):
    code = main(["jspec", "--grid-n", "64", "--levels", "1", "--tol", "1e-300",
                 "--restarts", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "residual" in err


@pytest.mark.parametrize("argv", [
    ["jspec", "--grid-n", "64", "--levels", "1", "--tol", "1e-300", "--restarts", "1"],
    ["dual", "--grid-n", "64", "--levels", "1", "--tol", "1e-300", "--restarts", "1"],
])
def test_nonconvergence_reports_the_best_residual_once(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("best residual") == 1
    assert len(err.splitlines()) == 1


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "res.json"
    code, _ = run_cli(capsys, "--out", str(out_file), "alphap", "--p", "2")
    assert code == 0
    assert json.loads(out_file.read_text())["alpha_p"] == 0.0
    monkeypatch.setenv("JSPECTRAL_OUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "--out", "rel.json", "alphap", "--p", "3")
    assert code == 0
    assert (tmp_path / "rel.json").exists()


def test_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "missing" / "res.json"
    assert main(["--out", str(path), "hardy-norm", "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: invalid arguments: cannot write --out {path}: "
                            "No such file or directory\n")
    assert not path.parent.exists()


# the solver paths run on numpy alone: scipy.special is imported on first use
# by GenTrig.sin/cos and scipy.sparse.linalg by snum, neither loaded here
_SCIPY_FREE_RUN = """
import contextlib, io, json, sys
from jspectral import cli
small = ["--grid-n", "64", "--levels", "2"]
runs = [["jspec", *small], ["dual", "--p", "3", *small],
        ["series", "--kind", "hilbertian", "--p", "3", "--q", "1.5", *small],
        ["hardy-norm", "--p", "3"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
loaded = [m for m in ("scipy.linalg", "scipy.special", "scipy.sparse.linalg")
          if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_solver_paths_load_no_scipy():
    src = os.path.dirname(os.path.dirname(jspectral.__file__))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert json.loads(out) == {"codes": [0, 0, 0, 0], "loaded": []}


def _run_fresh(script, *args):
    """Standard output of script in a fresh interpreter on this checkout's src."""
    src = os.path.dirname(os.path.dirname(jspectral.__file__))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True).stdout


# The jspectral modules each entry point leaves loaded: the package, the cli,
# then each subcommand in a child forked after `from jspectral import cli`.
# scipy is loaded before the forks, so that the children do not each import it.
_MODULES_LOADED = """
import contextlib, io, json, os, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "jspectral")
import jspectral
out = {"import": loaded()}
from jspectral import cli
out["cli"] = loaded()
import scipy.sparse.linalg, scipy.special
for argv in json.loads(sys.argv[1]):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            os.write(wfd, json.dumps([code, loaded()]).encode())
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        out[" ".join(argv)] = json.loads(fh.read() or "null")
    os.waitpid(pid, 0)
print(json.dumps(out))
"""

_CORE = ["jspectral", "jspectral.jspec", "jspectral.oper", "jspectral.space"]

# each subcommand, at a small size, and the layers it adds to the cli's imports
_SUBCOMMAND_LAYERS = {
    "jspec --grid-n 64 --levels 2": [],
    "dual --p 3 --grid-n 64 --levels 2": [],
    "konig --case diag --k-max 3": [],
    "series --kind target --grid-n 64 --levels 2": ["series"],
    "alphap --p 3": ["series"],
    "snum --grid-n 64 --n-max 2": ["series", "snum"],
    "gtrig --p 3 --q 1.5 --samples 5": ["gtrig"],
    "bilap --p 3 --grid-n 64": ["gtrig"],
    "hardy-norm --p 3": ["gtrig"],
    "pcompact --demo hardy --p 3 --grid-n 64 --terms 4": ["gtrig", "pcpt"],
    "pcompact --demo sobolev --grid-n 64 --terms 4": ["gtrig", "pcpt"],
    "pcompact --demo ideal --grid-n 64": ["gtrig", "pcpt", "series"],
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs each subcommand in a fork")
def test_each_entry_point_loads_only_its_layers():
    runs = [cmd.split() for cmd in _SUBCOMMAND_LAYERS]
    out = json.loads(_run_fresh(_MODULES_LOADED, json.dumps(runs)))
    assert out.pop("import") == _CORE
    with_cli = sorted(_CORE + ["jspectral.cli"])
    assert out.pop("cli") == with_cli
    assert out == {cmd: [0, sorted(with_cli + [f"jspectral.{m}" for m in layers])]
                   for cmd, layers in _SUBCOMMAND_LAYERS.items()}


# every public name of the package before its layers loaded on first use
_PUBLIC = sorted("""
    space oper jspec series snum gtrig pcpt
    ConvergenceError Functional GeometryError Space Vec alber_decompose duality_map
    inverse_duality_map is_j_orthogonal norm normalized_duality_map pairing semi_inner
    LinOp adjoint apply apply_adjoint compose hardy hardy_dual identity kernel_op power
    DeflationExhausted JSpectrum compute_jspectrum dual_jspectrum extremal_pair
    konig_report operator_norm
    DegenerateDeflationError SeriesRep alpha_p alpha_p_report check_decay_condition
    double_series double_series_apply flag_biorthogonal_series half_series
    hilbert_source_series hilbert_target_series hilbertian_series linearized_series
    SNumberReport approx_numbers approx_numbers_report eigenvector_bound_check
    sandwich_check
    GenTrig bilap_eigenvalue bilaplacian_check hardy_norm_formula laplacian_residual
    laplacian_residual_parts pi_pq
    Cover cover_from_basis hardy_qcompact_demo ideal_inclusion_demo sobolev_embedding_demo
""".split())

# the lazy layers and names in a fresh process, before and after first access
_LAZY_ACCESS = """
import json, sys
import jspectral
layers = ("series", "snum", "gtrig", "pcpt")
before = [m for m in layers if "jspectral." + m in sys.modules]
listed = sorted(n for n in dir(jspectral) if not n.startswith("_"))
resolved = [getattr(jspectral, m).__name__ for m in layers]
print(json.dumps({"before": before, "dir": listed, "resolved": resolved}))
"""


def test_lazy_layers_resolve_after_a_bare_import():
    out = json.loads(_run_fresh(_LAZY_ACCESS))
    assert out == {"before": [], "dir": _PUBLIC,
                   "resolved": [f"jspectral.{m}" for m in ("series", "snum", "gtrig", "pcpt")]}


def test_star_import_binds_every_public_name_from_its_module():
    assert sorted(jspectral.__all__) == _PUBLIC
    names = {}
    exec("from jspectral import *", names)
    names.pop("__builtins__")
    assert sorted(names) == _PUBLIC
    for name, obj in names.items():
        if isinstance(obj, type(jspectral)):
            assert obj is sys.modules[f"jspectral.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(_PUBLIC) <= set(dir(jspectral))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        jspectral.no_such_name
