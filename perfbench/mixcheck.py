"""How well the reference work tracks the host for ops of different mixes.

    python3 perfbench/mixcheck.py [SECONDS]

One process, pinned like a benchmark worker, runs seven kinds of op in
turn for SECONDS (default 150): small transform-reuse and bundle-lemma
ops, a synthesize at L = 32, and four kinds of larger-array numpy work.
Each op is bracketed by the blended reference work
(common.calibration_ms) and by its small-array loop alone.  For each
kind it prints the spread of the medians of consecutive 20-op windows
(distance between first and third quartile over their median): raw wall
time, rescaled by the small-array loop, rescaled by the blend.  These
are the figures of the table in README.md, "How time is measured".
"""

import statistics
import sys
import time

import common

common.use_checkout_src()
common.pin_threads()
common.pin_cpu()

import numpy as np  # noqa: E402

import inproc  # noqa: E402
import swsh  # noqa: E402

WINDOW = 20


def small_loop_ms():
    """The small-array part of common.calibration_ms on its own."""
    w = np.linspace(0.1, 0.9, 13)
    hi, lo = np.ones(13), np.zeros(13)
    t0 = time.process_time()
    for _ in range(common.CALIBRATION_STEPS):
        p = hi * w
        t = 134217729.0 * hi
        ah = t - (t - hi)
        s = p + ah
        bb = s - p
        lo = (p - (s - bb)) + (ah - bb) + lo * w
        hi = s + lo
    return (time.process_time() - t0) * 1e3


def ops():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((256, 256))
    big = rng.standard_normal(1_000_000)
    mid = rng.standard_normal(2000)
    rows = rng.standard_normal((33, 65)) + 0j
    tr = inproc.TransformReuse(np.random.default_rng(1), None)
    tr.BAND, tr.grid = 10, swsh.make_grid(10)
    bl = inproc.BundleLemma(np.random.default_rng(2), None)
    bl.BANDS, bl.grids = ((1, 3),), [swsh.make_grid(8)]
    tr_in, bl_in = tr.inputs(), bl.inputs()
    grid32 = swsh.make_grid(32)
    c32 = swsh.coefficient_set(0, 32, {(j, m): 1.0 for j in range(33) for m in range(-j, j + 1)})
    return {
        "transform-reuse op at band 10": lambda: tr.op(tr_in),
        "bundle-lemma op, h = 1 at band 3": lambda: bl.op(bl_in),
        "`synthesize`, L = 32": lambda: swsh.synthesize(c32, grid32),
        "FFT along the rows of 33 x 65, x3000": lambda: [np.fft.fft(rows, axis=1) for _ in range(3000)],
        "elementwise on 2000 doubles, x8000": lambda: [np.sqrt(mid * mid + 1.0).sum() for _ in range(8000)],
        "elementwise on 10^6 doubles, x30": lambda: [np.sqrt(big * big + 1.0).sum() for _ in range(30)],
        "256 x 256 matrix product, x40": lambda: [mat @ mat for _ in range(40)],
    }


def window_spread(values):
    meds = [statistics.median(values[i:i + WINDOW])
            for i in range(0, len(values) - WINDOW + 1, WINDOW)]
    q = statistics.quantiles(meds, n=4)
    return (q[2] - q[0]) / statistics.median(meds)


def main():
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 150.0
    kinds = ops()
    for run in kinds.values():  # warm-up: term tables, FFT plans
        run()
    samples = {name: [] for name in kinds}
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for name, run in kinds.items():
            blend0, small0 = common.calibration_ms(), small_loop_ms()
            t0 = time.perf_counter()
            run()
            wall = (time.perf_counter() - t0) * 1e3
            blend1, small1 = common.calibration_ms(), small_loop_ms()
            samples[name].append((wall, (small0 + small1) / 2, (blend0 + blend1) / 2))
    count = min(len(rows) for rows in samples.values())
    if count < 4 * WINDOW:
        sys.exit(f"mixcheck: {count} ops of each kind in {seconds} s, too few for four windows")
    print(f"| op ({count} of each) | median ms | raw | small-array loop | blend |")
    print("|---|---|---|---|---|")
    for name, rows in samples.items():
        wall = [r[0] for r in rows]
        by_small = [r[0] / r[1] for r in rows]
        by_blend = [r[0] / r[2] for r in rows]
        print(f"| {name} | {statistics.median(wall):.0f} | {window_spread(wall):.3f} "
              f"| {window_spread(by_small):.3f} | {window_spread(by_blend):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
