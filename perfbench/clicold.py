"""The cli-cold workload: a fixed cycle of `swsh` invocations, one process each.

An op is one invocation; its time is the wall time from starting the
child to reaping it.  The child's CPU time (user + system), read from the
parent's RUSAGE_CHILDREN totals, which grow by exactly one child at a
time, is kept beside it.  A calibration child (_start_ms) runs before the
first invocation and after each one.
Every cycle repeats the same argument lists, drawn once from the seed, so
each cycle's stdout and files must equal the first cycle's byte for byte.
The outputs are also checked for what they must hold: every verify report
passes, the eval -> analyze -> synthesize round trip gives back the
sampled mode's samples and exactly one unit coefficient at its (j, m), and
every factor-search solution convolved with V_a reproduces its target.
"""

import hashlib
import json
import random
import resource
import shutil
import sys
import time

import common
import tracing

SPIN = -1
GRID_L = 24
LADDER_J = 3
ORTHO_L = 16
MASSLESS_H, FACTOR_A, SPECTRUM_JMAX = 1, 1, 12
ROUND_TRIP_TOL = 1e-10
UNIT_TOL = 1e-12
CHILD_TIMEOUT_S = 60


def build_cycle(seed, work):
    """(label, swsh argv, files the invocation writes) for one cycle.

    The seed picks the sampled mode's (j, m) and the verify suites' --seed,
    which leave every invocation's cost unchanged; the spin weight, which
    sets the sizes (pointop at |h| = 2 costs twice |h| = 1), stays SPIN.
    """
    rng = random.Random(seed)
    s = SPIN
    j = rng.randint(abs(s), GRID_L)
    m = rng.randint(-j, j)
    f_csv, f_json, g_csv = (str(work / name) for name in ("f.csv", "f.json", "g.csv"))
    mode = {"s": s, "j": j, "m": m}
    seed_arg = ["--seed", str(seed)]
    return mode, [
        ("eval", ["eval", "-s", str(s), "-j", str(j), "-m", str(m),
                  "--grid", str(GRID_L), "--out", f_csv], [f_csv]),
        ("analyze", ["transform", "analyze", "--in", f_csv, "--out", f_json], [f_json]),
        ("synthesize", ["transform", "synthesize", "--in", f_json, "--out", g_csv,
                        "-L", str(GRID_L)], [g_csv]),
        ("verify", ["verify", "ortho", "-s", str(s), "-L", str(ORTHO_L)], []),
        ("verify", ["verify", "casimir", "-s", str(s)] + seed_arg, []),
        ("verify", ["verify", "poles", "-s", str(s)], []),
        ("verify", ["verify", "spectrum-match"], []),
        ("verify", ["verify", "pointop", "-s", str(s)] + seed_arg, []),
        ("verify", ["verify", "ladder", "-s", str(s), "-j", str(LADDER_J)], []),
        ("multiplets", ["multiplets", "--massless", str(MASSLESS_H),
                        "--jmax", str(SPECTRUM_JMAX), "--factor-search", str(FACTOR_A)], []),
    ]


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [tuple(float(x) for x in line.split(",")) for line in fh if line.strip()]
    return header, rows


def _json_docs(text):
    dec, pos, docs = json.JSONDecoder(), 0, []
    text = text.strip()
    while pos < len(text):
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def check_output(label, argv, stdout, mode, work):
    """Problems found in one invocation's output (an empty list if none)."""
    if label == "verify":
        report = json.loads(stdout)
        return [] if report.get("pass") is True else [f"{' '.join(argv[:2])} did not pass"]
    if label == "analyze":
        payload = json.loads((work / "f.json").read_text())
        entries = payload["entries"]
        ok = (
            len(entries) == 1
            and (entries[0]["j"], entries[0]["m"]) == (mode["j"], mode["m"])
            and abs(complex(entries[0]["re"], entries[0]["im"]) - 1.0) <= UNIT_TOL
        )
        return [] if ok else [f"analysis of mode {mode} is not one unit coefficient: {entries[:3]}"]
    if label == "synthesize":
        head_f, rows_f = _read_csv(work / "f.csv")
        head_g, rows_g = _read_csv(work / "g.csv")
        want = (GRID_L + 1) * (2 * GRID_L + 1)
        if head_f != head_g or len(rows_f) != want or len(rows_g) != want:
            return [f"round-trip CSV layout differs: {head_f!r} vs {head_g!r}"]
        err = max(max(abs(a - b) for a, b in zip(rf, rg)) for rf, rg in zip(rows_f, rows_g))
        return [] if err <= ROUND_TRIP_TOL else [f"CSV round trip error {err:.3e}"]
    if label == "multiplets":
        # target: one V_j for each MASSLESS_H <= j <= SPECTRUM_JMAX; its sound
        # window with the default orbital range is 0..SPECTRUM_JMAX
        sols = _json_docs(stdout)
        if not sols:
            return ["factor search found no solution"]
        problems = []
        for sol in sols:
            o = {int(k): v for k, v in sol["multiplicities"].items()}
            for j in range(SPECTRUM_JMAX + 1):
                got = sum(o.get(l, 0) for l in range(abs(j - FACTOR_A), j + FACTOR_A + 1))
                if got != (1 if j >= MASSLESS_H else 0):
                    problems.append(f"factor {o} gives multiplicity {got} at j={j}")
                    break
        return problems
    return []


class Runner:
    """Runs cycles, keeps the first cycle's bytes and every invocation's times."""

    def __init__(self, seed, trace_dir):
        self.work = common.OUT / "work" / f"cli-cold-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.mode, self.cycle = build_cycle(seed, self.work.relative_to(common.ROOT))
        self.trace_dir = trace_dir
        self.baseline = None
        self.problems = []
        self.errors = []
        self.failed = 0
        self.calls = 0
        self.start_ms = None  # calibration child run after the last invocation

    def _invoke(self, label, argv, files, totals):
        cmd = [sys.executable, "perfbench/cli_child.py"]
        trace_file = None
        if self.trace_dir is not None:
            trace_file = self.trace_dir / f"inv-{self.calls:04d}.npz"
            cmd += ["--trace-out", str(trace_file)]
        self.calls += 1
        if self.start_ms is None:
            self.start_ms = _start_ms()
        t0, c0 = time.perf_counter(), _children_cpu()
        code, out, err = common.run_child(cmd + argv, CHILD_TIMEOUT_S)
        wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
        cal0, self.start_ms = self.start_ms, _start_ms()
        cal = (cal0 + self.start_ms) / 2
        if code != 0:
            self.failed += 1
            self.errors.append(f"swsh {' '.join(argv)} exited {code}: {err.decode()[-300:]}")
            return None
        produced = [out] + [(common.ROOT / p).read_bytes() for p in files]
        if trace_file is not None:
            child = json.loads(trace_file.with_suffix(".json").read_text())
            child["cli.process.calls"] = 1.0
            child["cli.process.s"] = wall
            tracing.add_totals(totals, child)
        self.problems += check_output(label, argv, out.decode(), self.mode, common.ROOT / self.work)
        return (cpu * 1e3, cal, wall * 1e3), produced

    def run_cycle(self, totals):
        """(CPU ms, calibration ms, wall ms, kind) of the invocations that exited 0."""
        times, outputs = [], []
        for label, argv, files in self.cycle:
            res = self._invoke(label, argv, files, totals)
            outputs.append(res and res[1])
            if res is not None:
                times.append(res[0] + (_kind(argv),))
        if self.baseline is None:
            self.baseline = outputs
        else:
            for (label, argv, _), got, want in zip(self.cycle, outputs, self.baseline):
                if got is not None and want is not None and got != want:
                    self.problems.append(f"swsh {' '.join(argv)}: output differs from first cycle")
        return times

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def run(seed, seconds, rounds, setup_passes, trace_dir):
    """Set-up passes, then whole timed cycles; returns the run's raw figures."""
    runner = Runner(seed, trace_dir)
    setup_totals, timed_totals = {}, {}
    try:
        setups = [runner.run_cycle(setup_totals) for _ in range(setup_passes)]
        runner.failed = 0  # only timed invocations count as ops
        timed = []
        t_loop = time.perf_counter()
        cycles = 0
        while True:
            done = len(timed) + runner.failed
            if rounds is not None:
                if cycles >= rounds:
                    break
            elif done >= common.MIN_OPS and time.perf_counter() - t_loop >= seconds:
                break
            timed += runner.run_cycle(timed_totals)
            cycles += 1
    finally:
        runner.close()
    return {
        "setup_passes": setups,
        "cpu_ms": [t[0] for t in timed],
        "cal_ms": [t[1] for t in timed],
        "walls_ms": [t[2] for t in timed],
        "kinds": [t[3] for t in timed],
        "failed": runner.failed,
        "errors": runner.errors[:5],
        "problems": runner.problems[:20],
        "mode": runner.mode,
        "output_digest": _digest(runner.baseline),
        "setup_totals": setup_totals,
        "timed_totals": timed_totals,
        "cal_ref_ms": common.START_REF_MS,
    }


def _kind(argv):
    """The invocation kind: `verify ortho`, `transform analyze`, `eval`, ..."""
    return " ".join(argv[:2]) if argv[0] in ("transform", "verify") else argv[0]


def _start_ms():
    """CPU ms of a bare interpreter start (`python3 -S -c pass`) in a child.

    Most of an invocation is interpreter start and imports, work that
    slows down with the host less than the in-process calibration loop
    does; this child does the same kind of work, so it runs between
    invocations and each invocation is rescaled with the two around it.
    """
    c0 = _children_cpu()
    common.run_child([sys.executable, "-S", "-c", "pass"], CHILD_TIMEOUT_S)
    return (_children_cpu() - c0) * 1e3


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _digest(outputs):
    h = hashlib.sha256()
    for produced in outputs or []:
        for blob in produced or [b"<failed>"]:
            h.update(len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()
