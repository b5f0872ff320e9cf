"""Record one point of the performance trajectory in a BENCH_<n>.json file.

    python3 perf/record.py --out BENCH_22.json --label after
    python3 perf/record.py --out BENCH_22.json --label before --checkout DIR

Runs ``python3 bench/run.py --workload all --seed 7 --seconds 8 --trace 0``
in the checkout (by default the one this script lives in) and keeps the
summary, the last JSON line it prints, and the run environment it reports
for each workload. Then, in this process, it solves each bench workload once
for each of the bench's first task seeds (7000 to 7019 at seed 7) with the
checkout's ``jspectral`` and counts the applies and adjoints of its
operators by wrapping the two kernels of ``LinOp``; it reports them per
certified level. Before that, it times 30 in-process re-imports each of
``jspectral`` and ``jspectral.cli`` as ``bench/worker.py`` times set-up:
third-party modules stay loaded, the ``jspectral`` modules are dropped before
each import, and their bytecode is compiled beforehand (into a temporary
cache, not the checkout). It keeps the median and the ``jspectral`` modules
each import leaves loaded. The record goes into the output file under the
label, next to the records of other labels, which it keeps. ``bench/`` is
only read.
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
SEEDS = range(7000, 7020)  # task i of a bench run at seed 7 solves at 7000 + i
IMPORTS = ("jspectral", "jspectral.cli")
REIMPORTS = 30
LAYERS = ("series", "snum", "gtrig", "pcpt")  # what the cli's subcommands may load


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
    """Applies and adjoints per certified level of each workload, over SEEDS."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    from jspectral.oper import LinOp
    from workloads import WORKLOADS

    calls = {"applies": 0, "adjoints": 0}

    def counted(name, kernel):
        def wrapped(self, coeffs):
            calls[name] += 1
            return kernel(self, coeffs)
        return wrapped

    LinOp.apply_coeffs = counted("applies", LinOp.apply_coeffs)
    LinOp.apply_adjoint_coeffs = counted("adjoints", LinOp.apply_adjoint_coeffs)
    out = {}
    for name, w in sorted(WORKLOADS.items()):
        ctx = w.build(w)
        calls.update(applies=0, adjoints=0)
        levels = sum(w.n_levels(w.solve(w, ctx, seed)) for seed in SEEDS)
        out[name] = {"seeds": [SEEDS[0], SEEDS[-1]], "levels": levels, **calls,
                     "applies_per_level": calls["applies"] / levels,
                     "adjoints_per_level": calls["adjoints"] / levels}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to update")
    ap.add_argument("--label", required=True, help="the name of this record, e.g. before")
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent),
                    help="the checkout to measure (default: this one)")
    args = ap.parse_args()
    checkout = Path(args.checkout).resolve()
    summary, env = bench_summary(checkout)
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    record = {"command": " ".join(["python3", "bench/run.py", *BENCH_ARGS]),
              "summary": summary, "env": env, "imports": import_times(checkout),
              "kernels": kernel_counts()}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = record
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
