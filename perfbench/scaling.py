"""Reference figures: one-off synthesize and analyze against band limit.

    python3 perfbench/scaling.py

For each band limit L in BANDS and spin s in SPINS, times one synthesize
of random coefficients on make_grid(L) in a fresh process state (term
tables not yet built), then a second synthesize and one analyze with the
tables warm.  Prints a Markdown table and the growth exponent between
consecutive band limits (the transform.py docstring claims O(L^3)).
"""

import argparse
import math
import subprocess
import sys
import time

import common

BANDS = (16, 32, 64)
SPINS = (0, -2)


def one_case(band, spin):
    common.use_checkout_src()
    common.pin_threads()
    import numpy as np

    import swsh

    rng = np.random.default_rng(band * 10 + abs(spin))
    coeffs = {(j, m): complex(rng.standard_normal(), rng.standard_normal())
              for j in range(abs(spin), band + 1) for m in range(-j, j + 1)}
    c = swsh.coefficient_set(spin, band, coeffs)
    grid = swsh.make_grid(band)
    t0 = time.perf_counter()
    f = swsh.synthesize(c, grid)
    t1 = time.perf_counter()
    swsh.synthesize(c, grid)
    t2 = time.perf_counter()
    back = swsh.analyze(f)
    t3 = time.perf_counter()
    err = max(abs(back.get(j, m) - v) for (j, m), v in coeffs.items())
    print(f"{t1 - t0} {t2 - t1} {t3 - t2} {err}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", type=int, nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.case:
        one_case(*args.case)
        return 0
    print("| s | L | synthesize, cold (s) | synthesize, warm (s) | analyze, warm (s) | round-trip error |")
    print("|---|---|---|---|---|---|")
    warm = {}
    for spin in SPINS:
        for band in BANDS:
            # each case in its own process, so "cold" means no term table built yet
            out = subprocess.run(
                [sys.executable, __file__, "--case", str(band), str(spin)],
                cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
                check=True,
            ).stdout.split()
            cold, syn, ana, err = (float(x) for x in out)
            warm[spin, band] = (syn, ana)
            print(f"| {spin} | {band} | {cold:.3f} | {syn:.3f} | {ana:.3f} | {err:.1e} |")
    for spin in SPINS:
        for lo, hi in zip(BANDS, BANDS[1:]):
            k = math.log(hi / lo)
            syn = math.log(warm[spin, hi][0] / warm[spin, lo][0]) / k
            ana = math.log(warm[spin, hi][1] / warm[spin, lo][1]) / k
            print(f"s={spin}, L {lo}->{hi}: synthesize ~ L^{syn:.2f}, analyze ~ L^{ana:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
