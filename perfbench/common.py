"""Paths, child-process environment, statistics, calibration and run facts
shared by the benchmark's scripts.  Only the standard library is imported
at module level; numpy is loaded where a function needs it."""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"

# One process does the work at a time, and numpy's BLAS pool is pinned to
# one thread, so load never exceeds one core of the machine.
BLAS_THREADS = 1

# band limit of the transform-reuse workload; run.py builds its scipy
# reference table before the worker starts
TRANSFORM_BAND = 12

# Every run finishes at least MIN_OPS timed ops, so its tail percentile
# TAIL_PCT (p75) always has at least ten ops beyond it.
MIN_OPS = 40
TAIL_PCT = 75

# The host this benchmark was written on runs other guests' work on the
# same cores: the wall time of one and the same op moved by a factor of two
# from minute to minute, and a fixed piece of reference work moved with it.
# Every reported time is therefore a wall time t rescaled to reference
# speed, t * ref / (CPU time of the reference work around t): the blended
# calibration work below (ref CAL_REF_MS) for in-process ops, a bare
# interpreter start (clicold._start_ms, ref START_REF_MS) for cli-cold.
CALIBRATION_STEPS = 600
CAL_REF_MS = 8.0
START_REF_MS = 13.5
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env=None):
    """Set the BLAS/OpenMP thread variables in env (default: this process)."""
    env = os.environ if env is None else env
    for name in _THREAD_VARS:
        env[name] = str(BLAS_THREADS)
    return env


def pin_cpu():
    """Keep this process and its children on one CPU, so the calibration loop
    and the op it brackets always run on the same core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env():
    env = pin_threads(dict(os.environ))
    env.pop("PYTHONPATH", None)  # children put the checkout's src/ first themselves
    return env


def use_checkout_src():
    """Make `import swsh` load the checkout's src/swsh, or exit 2."""
    if not (SRC / "swsh" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no swsh package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def run_child(argv, timeout):
    """Run one child to completion; return (exit code, stdout bytes, stderr bytes).

    The child is killed and reaped if it outlives the timeout.
    """
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def _git_sha():
    """HEAD of the checkout from .git files directly, never searching upward."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts():
    """What every run records about the machine and the software under test."""
    import importlib.util

    pin_threads()
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


_cal_arrays = None


def calibration_ms():
    """CPU milliseconds of a fixed piece of reference work, a blend of mixes.

    Half of it is a loop of small-array numpy arithmetic, the instruction
    mix of today's hot path (Python overhead around numpy calls on arrays
    of a dozen doubles).  The other half, in four equal parts, is the
    work a faster algorithm would shift time to: elementwise arithmetic on
    2000 and on 125 000 doubles, an FFT along the rows of a 33 x 65
    complex array, and a 128 x 128 matrix product.  A host slowdown that
    hits one mix harder than another thus moves the reference with every
    mix, not with today's alone (README, "How time is measured").
    """
    global _cal_arrays
    import numpy as np

    if _cal_arrays is None:
        rng = np.random.default_rng(0)
        _cal_arrays = (rng.standard_normal(2000), rng.standard_normal(125_000),
                       rng.standard_normal((33, 65)) + 0j, rng.standard_normal((128, 128)))
    mid, big, rows, mat = _cal_arrays
    w = np.linspace(0.1, 0.9, 13)
    hi, lo = np.ones(13), np.zeros(13)
    t0 = time.process_time()
    for _ in range(CALIBRATION_STEPS):
        p = hi * w
        t = 134217729.0 * hi
        ah = t - (t - hi)
        s = p + ah
        bb = s - p
        lo = (p - (s - bb)) + (ah - bb) + lo * w
        hi = s + lo
    for _ in range(150):
        np.sqrt(mid * mid + 1.0).sum()
    np.sqrt(big * big + 1.0).sum()
    for _ in range(40):
        np.fft.fft(rows, axis=1)
    for _ in range(12):
        mat @ mat
    return (time.process_time() - t0) * 1e3


def at_reference_speed(t, cal_ms, ref_ms=CAL_REF_MS):
    """A time t (any unit) rescaled by the calibration time measured around it."""
    return t * ref_ms / cal_ms


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
