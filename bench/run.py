"""Benchmark of the jspectral solvers, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload runs in fresh worker
processes (bench/worker.py) that import ``jspectral`` from ``src`` with the
BLAS thread count pinned. With ``--trace 0`` it reports the end-to-end
metrics: the median solve time, the median set-up time of many fresh
imports, the peak resident memory of the solving process and the share of
tasks that passed their correctness gates. With ``--trace 1`` it reports the
per-layer metrics of one traced task. The last line of standard output is
one JSON object; the lines before it are for people. Set-up runs, spans and
full results are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
PYCACHE = OUT_DIR / "pycache"

from workloads import WORKLOADS

# One BLAS thread: with two threads on two shared cores, single criterion-02
# solves took 20.0 s to 25.9 s for 7 % more work. Compare runs only at equal
# settings.
BLAS_THREADS = 1
TRACED_TIMEOUT = 150
TIMED_GRACE = 100     # seconds a timed worker may run past --seconds


class BenchError(RuntimeError):
    """A worker process did not produce a result."""


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(mode, workload, args, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} ran past {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def end_to_end(workload, args):
    timed = worker("timed", workload, args, args.seconds + TIMED_GRACE)
    setups = timed["setup_s"]
    attempted, failed = timed["attempted"], timed["failed"]
    metrics = {
        "solve_s": (median(timed["solve_s"]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    detail = {"solve_s": timed["solve_s"], "setup_s": setups,
              "failures": timed["failures"], "env": timed["env"]}
    return metrics, attempted, failed, detail


def per_layer(workload, args):
    traced = worker("traced", workload, args, TRACED_TIMEOUT)
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
    detail = {"missing": traced["missing"], "failures": traced["failures"],
              "trace_file": traced["trace_file"], "env": traced["env"]}
    return metrics, traced["attempted"], traced["failed"], detail


def report(workload, metrics, attempted, failed, detail):
    """Human-readable lines for one workload."""
    print(f"== {workload}: {attempted} tasks, {failed} failed "
          f"(failed_frac {failed / attempted:g})")
    samples = {"solve_s": len(detail.get("solve_s", ())),
               "setup_s": len(detail.get("setup_s", ()))}
    for name, (value, unit) in sorted(metrics.items()):
        n = f"  (median of {samples[name]})" if samples.get(name) else ""
        print(f"  {name:42s} {value:.6g} {unit}{n}")
    for name in detail.get("missing", ()):
        print(f"  {name:42s} missing: boundary not found in the program")
    for failure in detail["failures"]:
        print(f"  FAILED task seed {failure['seed']}: {'; '.join(failure['gates'])}")
    print(f"  env {json.dumps(detail['env'], sort_keys=True)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="run at a tiny grid (harness self-check; not a measurement)")
    args = ap.parse_args()
    if not (ROOT / "src" / "jspectral" / "__init__.py").is_file():
        print(f"error: no jspectral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = {}, 0, 0
    OUT_DIR.mkdir(exist_ok=True)
    # The set-up samples import jspectral from this bytecode cache of the
    # benchmark's own, so that they include no compiling, whether or not the
    # environment lets Python write bytecode. Compiled here, so that the
    # compiler's memory does not count in a worker's peak_rss_mb.
    sys.pycache_prefix = str(PYCACHE)
    if not compileall.compile_dir(str(ROOT / "src" / "jspectral"), quiet=1):
        print("error: jspectral does not compile", file=sys.stderr)
        return 2
    for name in names:
        try:
            m, a, f, detail = measure(name, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, m, a, f, detail)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "attempted": a, "failed": f,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
                  **detail}
        out = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
