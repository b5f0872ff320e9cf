"""Record one point of the performance trajectory in a BENCH_<n>.json file.

    python3 perf/record.py --out BENCH_27.json --parent DIR [--pairs 10]

Runs ``python3 bench/run.py --workload all --seed 7 --seconds 8 --trace 0``
N times (``--pairs``, 10 by default) in each of two checkouts: the parent
checkout DIR, recorded as ``before``, and the checkout to measure
(``--checkout``, by default the one this script lives in), recorded as
``after``. The runs go in pairs that alternate between the two sides, the
parent first in even pairs and the checkout first in odd ones, so that a
drift of the machine over the session falls on both sides alike. Each label
keeps the summary of every run, the last JSON line it prints ("runs"), the
run environment its first run reports for each workload ("env"), and whether
its ``src/`` held changes that are not committed ("uncommitted", null outside
a git checkout): the commit in "env" is the checkout's HEAD, which an
uncommitted tree does not match, so only its src_sha256 identifies it then.
"pairs" holds, for each workload and end-to-end metric, each side's median
and quartiles (inclusive method) over its runs and the number of pairs in
which after read better than before, and in which they tied, in the
direction that BENCHMARK.json gives the metric.

Then, once per label and in a fresh process, it solves each bench workload
once for each of the bench's first 200 task seeds (7000 to 7199 at seed 7)
with that checkout's ``jspectral`` and counts the applies and adjoints of its
operators by wrapping the two kernels of ``LinOp``, and the calls, Newton
systems and objective evaluations of ``space.min_norm_coeffs`` by wrapping it,
``np.linalg.solve`` and ``space._power_sums``; it reports them per certified
level. A change that moves the start draws moves the work per
seed, so 20 seeds are too few: on 20 such a change read +4.9 % on
quotient-dual's applies per level, on 200 -0.6 %. Before that, it times 30
in-process re-imports each of ``jspectral`` and ``jspectral.cli`` as
``bench/worker.py`` times set-up: third-party modules stay loaded, the
``jspectral`` modules are dropped before each import, and their bytecode is
compiled beforehand (into a temporary cache, not the checkout). It keeps the median and the ``jspectral`` modules
each import leaves loaded. Other keys of the output file are kept.
``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_ARGS = ["--workload", "all", "--seed", "7", "--seconds", "8", "--trace", "0"]
SEEDS = range(7000, 7200)  # task i of a bench run at seed 7 solves at 7000 + i
IMPORTS = ("jspectral", "jspectral.cli")
REIMPORTS = 30
LAYERS = ("series", "snum", "gtrig", "pcpt")  # what the cli's subcommands may load
COUNTS = ("applies", "adjoints", "min_norm_calls", "newton_solves", "newton_systems",
          "objective_evals")


def bench_summary(checkout):
    """The last JSON line of the bench run and the env record of each workload."""
    proc = subprocess.run([sys.executable, "bench/run.py", *BENCH_ARGS], cwd=checkout,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env, workload = {}, None
    for line in lines:
        if line.startswith("== "):
            workload = line[3:].split(":")[0]
        elif line.startswith("  env "):
            env[workload] = json.loads(line[len("  env "):])
    return json.loads(lines[-1]), env


def _program_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "jspectral")


def import_times(checkout):
    """Median seconds of REIMPORTS fresh imports of each of IMPORTS, and the
    jspectral modules it leaves loaded."""
    out = {}
    with tempfile.TemporaryDirectory() as cache:
        sys.pycache_prefix = cache
        if not compileall.compile_dir(str(checkout / "src" / "jspectral"), quiet=1):
            raise SystemExit("jspectral does not compile")
        for name in ("jspectral.cli", *(f"jspectral.{m}" for m in LAYERS)):
            importlib.import_module(name)  # loads what they import
        for target in IMPORTS:
            times = []
            for _ in range(REIMPORTS):
                for name in _program_modules():
                    del sys.modules[name]
                t0 = perf_counter()
                importlib.import_module(target)
                times.append(perf_counter() - t0)
            out[target] = {"median_s": statistics.median(times), "samples": REIMPORTS,
                           "loaded": _program_modules()}
        sys.pycache_prefix = None
    return out


def kernel_counts():
    """Per certified level of each workload, over SEEDS: the applies and
    adjoints of its operators, and the work of space.min_norm_coeffs, whose
    calls, Newton systems (its np.linalg.solve calls, "newton_solves",
    batched, and the systems in them, "newton_systems") and objective
    evaluations (its space._power_sums calls, the final norm included) are
    counted while one of its calls runs."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import numpy as np

    from jspectral import jspec, space
    from jspectral.oper import LinOp
    from workloads import WORKLOADS

    calls = dict.fromkeys(COUNTS, 0)
    inside = [0]  # the min_norm_coeffs calls running

    def counted(name, kernel):
        def wrapped(self, coeffs):
            calls[name] += 1
            return kernel(self, coeffs)
        return wrapped

    def min_norm(*args, **kwargs):
        calls["min_norm_calls"] += 1
        inside[0] += 1
        try:
            return min_norm_coeffs(*args, **kwargs)
        finally:
            inside[0] -= 1

    def solve(a, b):
        if inside[0]:
            calls["newton_solves"] += 1
            calls["newton_systems"] += a.shape[0] if a.ndim == 3 else 1
        return np_solve(a, b)

    def sums(*args):
        calls["objective_evals"] += bool(inside[0])
        return power_sums(*args)

    LinOp.apply_coeffs = counted("applies", LinOp.apply_coeffs)
    LinOp.apply_adjoint_coeffs = counted("adjoints", LinOp.apply_adjoint_coeffs)
    min_norm_coeffs, space.min_norm_coeffs = space.min_norm_coeffs, min_norm
    jspec.min_norm_coeffs = min_norm
    np_solve, np.linalg.solve = np.linalg.solve, solve
    power_sums, space._power_sums = space._power_sums, sums
    out = {}
    for name, w in sorted(WORKLOADS.items()):
        ctx = w.build(w)
        calls.update(dict.fromkeys(COUNTS, 0))
        levels = sum(w.n_levels(w.solve(w, ctx, seed)) for seed in SEEDS)
        out[name] = {"seeds": [SEEDS[0], SEEDS[-1]], "levels": levels, **calls,
                     **{f"{key}_per_level": calls[key] / levels for key in COUNTS}}
    return out


def layer_counts(checkout):
    """import_times and kernel_counts of the checkout, from a fresh process,
    so that each checkout's jspectral is imported into a process of its own."""
    proc = subprocess.run([sys.executable, __file__, "--layers", "--checkout", str(checkout)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _spread(values):
    """Median and quartiles of the values of one side."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def pair_stats(before, after, better):
    """For each metric of the runs: both sides' spreads and the pairs in which
    after read better than before, and tied, in the direction better[metric]
    gives it ("lower" when it names none)."""
    out = {}
    for name, m in sorted(after[0]["metrics"].items()):
        b = [run["metrics"][name]["value"] for run in before]
        a = [run["metrics"][name]["value"] for run in after]
        sign = -1.0 if better.get(name.split(".")[-1], "lower") == "higher" else 1.0
        out[name] = {"unit": m["unit"], "before": _spread(b), "after": _spread(a),
                     "after_better": sum(sign * (y - x) < 0 for x, y in zip(b, a)),
                     "ties": sum(x == y for x, y in zip(b, a)), "pairs": len(a)}
    return out


def uncommitted(checkout):
    """Whether src/ of the checkout differs from its HEAD; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="the BENCH_<n>.json file to update")
    ap.add_argument("--parent", help="the parent checkout, recorded as 'before'")
    ap.add_argument("--pairs", type=int, default=10,
                    help="bench runs per side, alternating between them (default: 10)")
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent),
                    help="the checkout to measure, recorded as 'after' (default: this one)")
    ap.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    checkout = Path(args.checkout).resolve()
    if args.layers:  # the child of layer_counts
        sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
        print(json.dumps({"imports": import_times(checkout), "kernels": kernel_counts()}))
        return 0
    if not (args.out and args.parent and args.pairs >= 1):
        ap.error("--out and --parent are required, and --pairs must be at least 1")
    sides = {"before": Path(args.parent).resolve(), "after": checkout}
    runs = {label: [] for label in sides}
    envs = {}
    for i in range(args.pairs):
        for label in ("before", "after")[:: 1 if i % 2 == 0 else -1]:
            summary, env = bench_summary(sides[label])
            runs[label].append(summary)
            envs.setdefault(label, env)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    command = " ".join(["python3", "bench/run.py", *BENCH_ARGS])
    for label, path in sides.items():
        doc[label] = {"command": command, "runs": runs[label], "env": envs[label],
                      "uncommitted": uncommitted(path), **layer_counts(path)}
    better = {m["name"]: m["better"] for m in
              json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]}
    doc["pairs"] = {"n": args.pairs, "metrics": pair_stats(runs["before"], runs["after"], better)}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
