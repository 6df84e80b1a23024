"""Time the two term-table evaluators against each other.

eval_table is double-double Horner over a mode's half-angle polynomial at
every requested point. It exists twice (numba njit and vectorized numpy);
this script times both on the same workload so the backend choice in
_backend.py stays an informed one.

Workload: every (j, m) profile for a chosen spin weight up to a band
limit, evaluated once at the matching quadrature grid's n_theta
colatitude nodes. That is what filling one derivative table in tables.py
costs, once per grid. analyze and synthesize evaluate no profiles per
call: their order-0 tables come from the j-recurrence, seeded by one
Horner profile per m.

Run:  python benchmarks/bench_kernels.py [--band 32] [--spin -2] [--repeat 5]
"""

import argparse
import time

import numpy as np

from swsh import kernels
from swsh._backend import HAVE_NUMBA
from swsh.grid import make_grid


def build_workload(spin, band):
    theta = make_grid(band).theta
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    u = c * c
    v = s * s
    uside = u <= v
    w = np.where(uside, u / v, v / u)
    tables = [
        kernels.goldberg_terms(spin, j, m)
        for j in range(abs(spin), band + 1)
        for m in range(-j, j + 1)
    ]
    return tables, np.log(c), np.log(s), w, uside


def run_pass(evaluator, workload):
    tables, log_c, log_s, w, uside = workload
    acc = 0.0
    for table in tables:
        acc += float(evaluator(table, log_c, log_s, w, uside)[0])
    return acc


def time_evaluator(name, evaluator, workload, repeat):
    run_pass(evaluator, workload)  # warmup; also triggers the JIT compile
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run_pass(evaluator, workload)
        best = min(best, time.perf_counter() - t0)
    print(f"{name:>6}: best of {repeat}  {best * 1e3:9.2f} ms")
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--band", type=int, default=32, help="band limit (default 32)")
    ap.add_argument("--spin", type=int, default=-2, help="spin weight (default -2)")
    ap.add_argument("--repeat", type=int, default=5, help="timed repeats (default 5)")
    args = ap.parse_args()

    workload = build_workload(args.spin, args.band)
    n_modes = len(workload[0])
    n_points = workload[1].shape[0]
    print(f"spin {args.spin}, band {args.band}: {n_modes} modes x {n_points} points")

    t_numpy = time_evaluator("numpy", kernels.eval_table_numpy, workload, args.repeat)
    if not HAVE_NUMBA:
        print(" numba: not installed, skipped")
        return
    t_numba = time_evaluator("numba", kernels.eval_table_numba, workload, args.repeat)
    print(f"speedup numba/numpy: {t_numpy / t_numba:.2f}x")

    # both paths must agree; a benchmark of wrong answers times nothing
    tables, log_c, log_s, w, uside = workload
    worst = 0.0
    for table in tables[:: max(1, n_modes // 40)]:
        a = kernels.eval_table_numba(table, log_c, log_s, w, uside)
        b = kernels.eval_table_numpy(table, log_c, log_s, w, uside)
        scale = max(np.abs(b).max(), 1e-300)
        worst = max(worst, float(np.abs(a - b).max() / scale))
    print(f"cross-check max rel diff: {worst:.3e}")


if __name__ == "__main__":
    main()
