"""End-to-end benchmark of swsh.  See perfbench/README.md.

    python3 perfbench/run.py --workload transform-reuse|bundle-lemma|cli-cold
                             --seed N --seconds S --trace 0|1 [--rounds R]

Run from the root of a checkout; swsh is imported from its src/.  The
last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the
per-layer metrics (from a separate traced run) with --trace 1.  The line
before it, starting "# facts", records the software and machine, and the
same data goes to .perfbench/results/.  --rounds R replaces the timed
loop with exactly R ops (R cycles on cli-cold), for quick self-checks.
"""

import argparse
import json
import resource
import shutil
import subprocess
import sys
import threading
import time

import clicold
import common
import tracing

WORKLOADS = ("transform-reuse", "bundle-lemma", "cli-cold")
INPROC_SETUPS = 9
CLI_SETUP_CYCLES = 3
WORKER_TIMEOUT_S = 150


def sph_harm_reference(band, path):
    """scipy.special.sph_harm_y rows (j, m ascending) at Gauss-Legendre nodes, phi = 0."""
    import numpy as np
    from scipy.special import sph_harm_y

    x, _ = np.polynomial.legendre.leggauss(band + 1)
    theta = np.arccos(x)[::-1]
    rows = np.array([
        sph_harm_y(j, m, theta, 0.0).real
        for j in range(band + 1) for m in range(-j, j + 1)
    ])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, theta=theta, rows=rows)


def _worker(args, extra):
    """Run inproc.py to its end; return its JSON result with its set-up sample added."""
    argv = [sys.executable, "perfbench/inproc.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    if args.rounds is not None:
        argv += ["--rounds", str(args.rounds)]
    cal_before = common.calibration_ms()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=common.ROOT, env=common.child_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().split()
        setup_wall = time.perf_counter() - t0
        cal_line = proc.stdout.readline().split()
        rest = proc.stdout.read().strip().splitlines()
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready[:1] != ["ready"] or cal_line[:1] != ["cal"] or code != 0:
        raise RuntimeError(f"inproc.py {args.workload} exited {code} before finishing")
    setup_cpu, cal_after = float(ready[1]), float(cal_line[1])
    res = json.loads(rest[-1]) if rest else {}
    res["setup"] = (
        common.at_reference_speed(setup_wall, (cal_before + cal_after) / 2), setup_cpu, setup_wall
    )
    return res


def run_inproc(args):
    """In-process workloads: INPROC_SETUPS worker starts, the last of which
    runs the timed ops (a single traced start with --trace 1)."""
    ref = common.OUT / "work" / f"{args.workload}-{args.seed}-sph_harm_y.npz"
    extra = []
    if args.workload == "transform-reuse":
        sph_harm_reference(common.TRANSFORM_BAND, ref)
        extra += ["--reference", str(ref.relative_to(common.ROOT))]
    try:
        if args.trace:
            trace = common.OUT / "traces" / f"{args.workload}-{args.seed}.npz"
            runs = [_worker(args, extra + ["--trace-out", str(trace.relative_to(common.ROOT))])]
        else:
            runs = [_worker(args, extra + ["--setup-only"]) for _ in range(INPROC_SETUPS - 1)]
            runs.append(_worker(args, extra))
    finally:
        ref.unlink(missing_ok=True)
    res = runs[-1]
    res["setup_samples"] = [r["setup"] for r in runs]
    return res


def run_cli(args):
    """cli-cold: a set-up sample is one whole untimed cycle of invocations."""
    trace_dir = None
    if args.trace:
        trace_dir = common.OUT / "traces" / f"cli-cold-{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    res = clicold.run(args.seed, args.seconds, args.rounds,
                      1 if args.trace else CLI_SETUP_CYCLES, trace_dir)
    res["setup_samples"] = [
        tuple(sum(col) / 1e3 for col in zip(*[
            (common.at_reference_speed(wall, cal, common.START_REF_MS), cpu, wall)
            for cpu, cal, wall, _ in cycle
        ]))
        for cycle in res.pop("setup_passes")
    ]
    return res


def time_figures(lat, setup_s):
    """setup_s, throughput, p50 and tail from op times in ms and set-up times in s."""
    return {
        "setup_s": common.median(setup_s),
        "throughput_ops_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": common.median(lat),
        "latency_tail_ms": common.percentile(lat, common.TAIL_PCT),
    }


def end_to_end(lat, setup_s):
    units = {"setup_s": "s", "throughput_ops_per_s": "ops/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in time_figures(lat, setup_s).items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return metrics


def kind_figures(kinds, lat):
    """cli-cold: median op time of each invocation kind, and the kinds of the
    ops nearest the median and the tail percentile."""
    by_kind = {}
    for kind, t in zip(kinds, lat):
        by_kind.setdefault(kind, []).append(t)
    ranked = sorted(zip(lat, kinds))
    at = {q: ranked[round((len(ranked) - 1) * q / 100.0)][1] for q in (50, common.TAIL_PCT)}
    return {
        "kind_p50_ms": {k: common.median(v) for k, v in sorted(by_kind.items())},
        "p50_kind": at[50],
        "tail_kind": at[common.TAIL_PCT],
    }


def main():
    ap = argparse.ArgumentParser(description="swsh end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="exactly this many ops (cycles on cli-cold)")
    args = ap.parse_args()
    common.use_checkout_src()
    common.pin_threads()
    common.pin_cpu()

    res = run_cli(args) if args.workload == "cli-cold" else run_inproc(args)
    walls, cal, ref = res["walls_ms"], res["cal_ms"], res["cal_ref_ms"]
    if not walls:
        sys.stderr.write(f"perfbench: no op succeeded: {res.get('errors')}\n")
        return 1
    lat = [common.at_reference_speed(t, c, ref) for t, c in zip(walls, cal)]
    setups = res["setup_samples"]
    if args.trace:
        metrics = tracing.layer_metrics(
            res["timed_totals"], res["setup_totals"], len(walls), common.median(lat),
            ref / common.median(cal),
        )
    else:
        metrics = end_to_end(lat, [s[0] for s in setups])
    for problem in res["problems"]:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    for error in res["errors"]:
        sys.stderr.write(f"perfbench: op failed: {error}\n")
    summary = {
        "correct": not res["problems"],
        "attempted": len(walls) + res["failed"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    facts = common.run_facts()
    facts.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        tail_pct=common.TAIL_PCT, output_digest=res["output_digest"],
        cal_ref_ms=ref, cal_p50_ms=common.median(cal),
        # the end-to-end time figures as measured, before rescaling
        wall=time_figures(walls, [s[2] for s in setups]),
        cpu_p50_ms=common.median(res["cpu_ms"]),
        setup_s=[s[0] for s in setups], setup_cpu_s=[s[1] for s in setups],
        setup_wall_s=[s[2] for s in setups],
    )
    if "kinds" in res:
        facts.update(kind_figures(res["kinds"], lat))
    common.write_json(
        common.OUT / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json",
        {"facts": facts, "summary": summary, "latencies_ms": lat, "walls_ms": walls,
         "cal_ms": cal, "cpu_ms": res["cpu_ms"], "kinds": res.get("kinds")},
    )
    print("# facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
