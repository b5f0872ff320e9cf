"""Fast self-check of the benchmark harness, at a tiny grid.

    python3 bench/selfcheck.py

Checks that run.py prints exactly the metrics BENCHMARK.json declares, with
their units, for --trace 0 and --trace 1 on every workload; that every
workload's correctness gates pass on a real solve and reject a perturbed
result; that the closed-form singular values of the Hilbert gate match a
dense SVD; that the traced run counts the operators the CLI builds; and that
a traced boundary the program no longer has is reported missing without
failing the run. Exits 1 on the first problem.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import tracer as tracing
import worker
from workloads import WORKLOADS, half_cell_singular_values

SEED = 3


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload")
    for trace, entries in declared.items():
        units = {m["name"]: m["unit"] for m in entries}
        for name in sorted(WORKLOADS):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                 str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, f"{name} --trace {trace} exits 0")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} --trace {trace}: result keys")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{name} --trace {trace}: correct, {out['attempted']} attempted")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == units, f"{name} --trace {trace}: metric names and units")
            expect(all(math.isfinite(v["value"]) for v in out["metrics"].values()),
                   f"{name} --trace {trace}: finite values")


def perturbations(name, out):
    """Copies of a correct result, each broken so that one gate must fail."""
    if name == "factorized-series":
        bad_errors = copy.deepcopy(out)
        errs = bad_errors["doc"]["errors"]
        bad_errors["doc"]["errors"] = [[n, e] for (n, _), (_, e) in zip(errs, errs[::-1])]
        unbounded = copy.deepcopy(out)
        unbounded["rep"].meta["lambda_bounded"] = False
        short = copy.deepcopy(out)
        short["js"].lambdas.pop()
        return {"increasing errors": bad_errors, "unbounded lambdas": unbounded,
                "missing level": short}
    shifted = copy.deepcopy(out)
    shifted.lambdas[0] *= 1.01
    residual = copy.deepcopy(out)
    residual.residuals[-1] = 1.0
    cases = {"shifted lambda_1": shifted, "residual above tol": residual}
    if name == "quotient-dual":
        mismatch = copy.deepcopy(out)
        mismatch.meta["lambda_match"] = [1e-3]
        cases["lambda_match"] = mismatch
    return cases


def check_gates():
    for name, w in sorted(WORKLOADS.items()):
        w = w.tiny()
        ctx = w.build(w)
        _, out, fails = worker.run_task(w, ctx, SEED)
        expect(out is not None and fails == [], f"{name}: gates pass on a tiny solve {fails}")
        for what, bad in perturbations(name, out).items():
            expect(w.check(w, ctx, bad) != [], f"{name}: gates reject {what}")


def check_closed_form():
    import numpy as np

    for n in (48, 300):
        A = (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)) / n
        dense = np.linalg.svd(A, compute_uv=False)[:6]
        rel = np.max(np.abs(half_cell_singular_values(n, 6) - dense) / dense)
        expect(rel < 1e-12, f"half-cell singular values at n = {n}: rel dev {rel:.1e}")


def check_cli_operators_traced():
    import jspectral
    from jspectral import oper

    # as in a fresh traced worker, where nothing has imported the cli yet
    sys.modules.pop("jspectral.cli", None)
    vars(jspectral).pop("cli", None)
    w = WORKLOADS["factorized-series"].tiny()
    t = tracing.Tracer()
    t.install()
    try:
        _, _, fails = worker.run_task(w, w.build(w), SEED)
    finally:
        t.uninstall()
    expect(fails == [], "factorized-series passes while traced")
    # cli series --kind hilbertian builds three hardy operators and one compose
    calls = t.totals().get("oper.build", {}).get("calls", 0)
    expect(calls >= 4, f"oper.build counts the cli's constructors ({calls} calls)")
    cli = sys.modules["jspectral.cli"]
    expect(cli.hardy is oper.hardy and cli.compose is oper.compose,
           "uninstall leaves the cli's constructors unwrapped")


def check_missing_boundary():
    from jspectral import LinOp

    original = LinOp.apply_coeffs
    renamed = tuple(
        (label, mod, "LinOp.apply_renamed" if label == "oper.apply" else attr, where)
        for label, mod, attr, where in tracing.BOUNDARIES
    ) + (("gone", "jspectral.space", "no_such_function", tracing.EVERYWHERE),)
    w = WORKLOADS["hilbert-deflation"].tiny()
    t = tracing.Tracer(renamed)
    t.install()
    try:
        _, out, fails = worker.run_task(w, w.build(w), SEED)
    finally:
        t.uninstall()
    expect(fails == [], "a missing boundary leaves the traced task correct")
    expect(t.missing_labels() == ["gone", "oper.apply"], "missing boundaries are reported")
    m = worker.per_layer(t, w.n_levels(out), 1.0, 1.0)
    expect("oper.apply.calls" not in m and "jspec.matvecs_per_level" not in m
           and "oper.adjoint.calls" in m, "metrics of a missing boundary are left out")
    expect(LinOp.apply_coeffs is original, "uninstall restores the program")


if __name__ == "__main__":
    worker.import_program()
    check_gates()
    check_closed_form()
    check_cli_operators_traced()
    check_missing_boundary()
    check_schema()
    print("self-check passed")
