"""One benchmark process for one workload: timed or traced.

    python3 bench/worker.py {timed,traced} WORKLOAD --seed N --seconds S [--tiny]

run.py starts it with the BLAS thread count pinned and ``src`` on the path.
It prints one JSON object on its last line of standard output.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import micro
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PYCACHE = OUT_DIR / "pycache"  # jspectral's bytecode, compiled by run.py

# per-layer labels reported as .calls and .s (self seconds)
COUNTED = ("oper.apply", "oper.adjoint", "space.lp_norm", "space.jmap",
           "space.min_norm_coeffs", "space.functional_distance",
           "jspec.extremal_pair", "jspec.constraint_projector", "series.dense_factor")
# per-layer labels reported as .s only
SELF_ONLY = ("oper.build", "series.build", "series.reconstruction", "cli.emit")
JSPEC = ("jspec.spectrum", "jspec.extremal_pair", "jspec.constraint_projector")
SETUP_FORKS = 3  # set-up samples before the first task and after each task


def task_seed(seed, i):
    """Solver seed of the i-th task of a run; derived from the benchmark seed only."""
    return 1000 * seed + i


def import_program():
    """Import jspectral from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import jspectral

    if not Path(jspectral.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"jspectral imported from {jspectral.__file__}, not {SRC}")


def run_task(w, ctx, seed, solve=None):
    """One task: solve, then check. Returns (seconds, result, failed gates)."""
    dt, out, fails = solve_task(w, ctx, seed, solve)
    return dt, out, fails or check_task(w, ctx, out)


def solve_task(w, ctx, seed, solve=None):
    """Timed solve. Returns (seconds, result or None, failure if it raised)."""
    solve = solve or w.solve
    t0 = perf_counter()
    try:
        out = solve(w, ctx, seed)
    except Exception as exc:  # a raising task is a failed task, not a crash
        return perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    return perf_counter() - t0, out, []


def check_task(w, ctx, out):
    try:
        return w.check(w, ctx, out)
    except Exception as exc:  # a check that cannot run is a failed gate
        return [f"check raised {type(exc).__name__}: {exc}"]


def setup_times(w):
    """Set-up times of SETUP_FORKS child processes, one after the other. Each
    child, forked from this process with numpy, scipy and jspectral loaded,
    drops jspectral from its modules and times importing it afresh and
    building the workload. The timed run takes these samples between its
    tasks, so that they span the run as the solve times do: the host's speed
    drifts over tens of seconds, and samples taken in one burst all share
    one drift. The children read jspectral's bytecode from the cache that
    run.py compiles, so set-up time includes no compiling."""
    times = []
    for _ in range(SETUP_FORKS):
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            code = 1
            try:
                for name in [m for m in sys.modules if m.split(".")[0] == "jspectral"]:
                    del sys.modules[name]
                sys.pycache_prefix = str(PYCACHE)
                t0 = perf_counter()
                import_program()
                w.build(w)
                os.write(wfd, repr(perf_counter() - t0).encode())
                code = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(wfd)
        with os.fdopen(rfd) as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise SystemExit(f"set-up child exited with status {status}")
        times.append(float(reply))
    return times


def mode_timed(w, args):
    ctx = w.build(w)
    samples, failures = [], []
    setups = setup_times(w)
    start = perf_counter()
    while True:
        seed = task_seed(args.seed, len(samples))
        dt, _, fails = run_task(w, ctx, seed)
        samples.append(dt)
        if fails:
            failures.append({"seed": seed, "gates": fails})
        setups += setup_times(w)
        # start another task only if it is expected to end within the budget
        if perf_counter() - start + dt > args.seconds:
            break
    return {
        "solve_s": samples,
        "setup_s": setups,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


def mode_traced(w, args):
    """Microbenchmarks, then one untraced and one traced task at the same seed."""
    metrics = {name: (v, "us") for name, v in micro.run(args.seed).items()}
    seed = task_seed(args.seed, 0)
    untraced_s, _, fails_u = run_task(w, w.build(w), seed)

    tracer = Tracer()
    tracer.install()
    try:
        ctx = tracer.call("workload.setup", w.build, w)
        traced_s, out, fails_t = solve_task(
            w, ctx, seed, solve=lambda *a: tracer.call("workload.solve", w.solve, *a))
    finally:
        tracer.uninstall()
    fails_t = fails_t or check_task(w, ctx, out)
    levels = w.n_levels(out) if out is not None else 0
    metrics.update(per_layer(tracer, levels, traced_s, untraced_s))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path, {"workload": w.name, "seed": seed, "levels": levels,
                              "missing": tracer.missing})
    failures = [{"seed": seed, "traced": t, "gates": f}
                for t, f in ((False, fails_u), (True, fails_t)) if f]
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing": tracer.missing_labels(),
        "attempted": 2,
        "failed": len(failures),
        "failures": failures,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "env": environment(),
    }


def per_layer(tracer, levels, traced_s, untraced_s):
    """name -> (value, unit) for one traced task. A metric that depends on a
    boundary the program no longer has is left out."""
    tot = tracer.totals()
    missing = set(tracer.missing_labels())
    zero = {"calls": 0, "self_s": 0.0, "failed": 0}
    m = {}
    for label in COUNTED:
        if label not in missing:
            t = tot.get(label, zero)
            m[f"{label}.calls"] = (t["calls"], "count")
            m[f"{label}.s"] = (t["self_s"], "s")
    for label in SELF_ONLY:
        if label not in missing:
            m[f"{label}.s"] = (tot.get(label, zero)["self_s"], "s")
    if "space.min_norm_coeffs" not in missing:
        m["space.min_norm_coeffs.failed"] = (tot.get("space.min_norm_coeffs", zero)["failed"],
                                             "count")
    if not missing.intersection(JSPEC):
        m["jspec.self_s"] = (sum(tot.get(k, zero)["self_s"] for k in JSPEC), "s")
    applies = {"oper.apply", "oper.adjoint"}
    if not missing.intersection(applies):
        m["oper.bytes_computed"] = (tracer.bytes_computed, "B")
    if levels:
        if "jspec.spectrum" not in missing:
            m["jspec.level.s"] = (tracer.seconds("jspec.spectrum") / levels, "s")
        if not missing.intersection(applies):
            matvecs = sum(tot.get(k, zero)["calls"] for k in applies)
            m["jspec.matvecs_per_level"] = (matvecs / levels, "count")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "1")
    return m


# -- run environment -----------------------------------------------------------

def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[Path(path).name] = fn()
                    break
    return out or None


def _commit():
    try:
        # the ceiling keeps git from searching the directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "jspectral").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_setting": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("timed", "traced"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    import_program()
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    result = {"timed": mode_timed, "traced": mode_traced}[args.mode](w, args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
