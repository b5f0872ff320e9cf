"""Kernel-only microbenchmarks, run untraced inside the traced run.

Dense sizes stop at n = 4096. A dense matrix at n = 16384 is 2 GiB, and
``hardy()`` builds three n x n temporaries on the way, which does not fit
beside the rest of a 7 GiB, 2-core machine.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

APPLY_SIZES = (1024, 4096)
ADJOINT_SIZES = (4096,)
MIN_NORM_N = 2048
MIN_NORM_CASES = ((1.5, 1), (1.5, 8), (3.0, 1), (3.0, 8))  # (p, k): both branches


def _per_call_us(fn, min_seconds=0.2, min_reps=5):
    """Median microseconds per call over repeated calls."""
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e6 * median(times)


def run(seed):
    import numpy as np

    import jspectral as jl
    from jspectral.space import min_norm_coeffs

    rng = np.random.default_rng(seed)
    out = {}
    for n in sorted(set(APPLY_SIZES) | set(ADJOINT_SIZES)):
        s = jl.Space.uniform(n, 2.0)
        T = jl.hardy(s, s)
        x = rng.standard_normal(n)
        if n in APPLY_SIZES:
            out[f"oper.apply.us.n{n}"] = _per_call_us(lambda: T.apply_coeffs(x))
        if n in ADJOINT_SIZES:
            out[f"oper.adjoint.us.n{n}"] = _per_call_us(lambda: T.apply_adjoint_coeffs(x))
        del T
    w = np.full(MIN_NORM_N, 1.0 / MIN_NORM_N)
    for p, k in MIN_NORM_CASES:
        target = rng.standard_normal(MIN_NORM_N)
        basis = rng.standard_normal((MIN_NORM_N, k))
        ptag = f"{p:g}".replace(".", "_")
        out[f"space.min_norm_coeffs.us.p{ptag}-k{k}"] = _per_call_us(
            lambda: min_norm_coeffs(target, basis, w, p))
    return out
