"""Worker process for the in-process workloads, transform-reuse and bundle-lemma.

    python3 perfbench/inproc.py --workload NAME --seed N (--seconds S | --rounds R)
                                [--setup-only] [--trace-out FILE] [--reference FILE]

Imports swsh from the checkout, builds the workload's grids and runs one
untimed warm-up op, then prints "ready" and the CPU seconds the process
has used so far; run.py takes the wall time of its set-up from that
line.  It then prints one calibration time (common.calibration_ms).
With --setup-only it exits there; run.py starts several such processes
for setup_s.  Otherwise it runs timed ops until --seconds of wall time
have passed and at least the workload's minimum number of ops is done
(or exactly --rounds ops), checks every op's outputs, and prints one
JSON line with each op's wall time, the calibration time around it and
its CPU time.

Inputs are drawn from numpy's default_rng(seed): the warm-up op takes the
first draw, timed op k the (k+1)-th.  Input generation and the checks
run between ops and are not timed.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import common

common.use_checkout_src()
common.pin_threads()

import numpy as np  # noqa: E402

import swsh  # noqa: E402
import tracing  # noqa: E402


def _random_coeffs(rng, s, band):
    """(j, m) -> standard complex normal amplitude for every mode up to band."""
    modes = [(j, m) for j in range(abs(s), band + 1) for m in range(-j, j + 1)]
    vals = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    return dict(zip(modes, vals.tolist()))


class TransformReuse:
    """Synthesis, analysis and one grid ladder operator on two fixed grids' worth
    of fresh coefficients: spin 0 (raised with Jplus) and spin -2 (lowered
    with Jminus), both at band limit BAND on make_grid(BAND)."""

    BAND = common.TRANSFORM_BAND
    SPINS = ((0, "Jplus", +1), (-2, "Jminus", -1))
    ROUND_TRIP_TOL = 1e-10  # tests/test_transform.py round-trip gate
    LADDER_TOL = 1e-9  # tests/test_operators.py grid-vs-coefficient gate
    SAMPLE_TOL = 1e-12

    def __init__(self, rng, reference):
        self.rng = rng
        self.grid = swsh.make_grid(self.BAND)
        self.reference = reference
        self._ref = None

    def inputs(self):
        return [_random_coeffs(self.rng, s, self.BAND) for s, _, _ in self.SPINS]

    def op(self, inputs):
        out = []
        for (s, kind, _), coeffs in zip(self.SPINS, inputs):
            f = swsh.synthesize(swsh.coefficient_set(s, self.BAND, coeffs), self.grid)
            back = swsh.analyze(f)
            moved = swsh.analyze(swsh.apply_grid(swsh.OperatorSpec(kind, s), f))
            out.append((f, back, moved))
        return out

    def _sph_harm(self):
        # (theta, rows): scipy.special.sph_harm_y at phi = 0 on run.py's own
        # Gauss-Legendre nodes
        if self._ref is None:
            with np.load(self.reference) as ref:
                self._ref = ref["theta"], ref["rows"]
        return self._ref

    def check(self, inputs, out):
        problems = []
        for (s, kind, sign), coeffs, (f, back, moved) in zip(self.SPINS, inputs, out):
            err = max(abs(back.get(j, m) - v) for (j, m), v in coeffs.items())
            extra = set(back.entries) - set(coeffs)
            if not err <= self.ROUND_TRIP_TOL or extra:
                problems.append(f"s={s} round trip error {err:.3e}, stray modes {sorted(extra)}")
            # CONVENTIONS.md: J+- sY_jm = sqrt((j -+ m)(j +- m + 1)) sY_j(m+-1)
            want = {}
            for (j, m), v in coeffs.items():
                lam = (j - sign * m) * (j + sign * m + 1)
                if lam > 0:
                    want[(j, m + sign)] = math.sqrt(lam) * v
            keys = set(want) | set(moved.entries)
            err = max(abs(moved.get(*k) - want.get(k, 0j)) for k in keys)
            if not err <= self.LADDER_TOL:
                problems.append(f"s={s} {kind} differs from the ladder action by {err:.3e}")
            if s == 0:
                theta, rows = self._sph_harm()
                err = float(np.abs(self.grid.theta - theta).max())
                if not err <= 1e-14:
                    problems.append(f"grid colatitudes differ from Gauss-Legendre nodes by {err:.3e}")
                amp = np.array([coeffs[(j, m)] for j in range(self.BAND + 1)
                                for m in range(-j, j + 1)])
                ms = np.array([m for j in range(self.BAND + 1) for m in range(-j, j + 1)])
                ref = (rows * amp[:, None]).T @ np.exp(1j * np.outer(ms, self.grid.phi))
                err = float(np.abs(f.samples - ref).max())
                if not err <= self.SAMPLE_TOL * float(np.abs(ref).max()):
                    problems.append(f"spin-0 samples differ from sph_harm_y by {err:.3e}")
        return problems

    @staticmethod
    def digest(out):
        parts = []
        for f, back, moved in out:
            parts.append(f.samples.tobytes())
            parts += [repr(c.sorted_items()).encode() for c in (back, moved)]
        return b"".join(parts)


class BundleLemma:
    """One fresh random section per helicity, |h| = 1 at band 5 and |h| = 2 at
    band 2, each on the work grid of `swsh verify lemma`, make_grid(band +
    |h| + 4); J_par, J_perp and the rotation generator about x, y and z."""

    BANDS = ((1, 5), (2, 2))
    AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    LEMMA_TOL = 1e-5  # default tolerance of `swsh verify lemma`
    TRANSVERSE_TOL = 1e-10  # tests/test_bundle.py transversality gate

    def __init__(self, rng, reference):
        self.rng = rng
        self.grids = [swsh.make_grid(band + h + 4) for h, band in self.BANDS]

    def inputs(self):
        return [_random_coeffs(self.rng, -h, band) for h, band in self.BANDS]

    def op(self, inputs):
        out = []
        for (h, band), grid, coeffs in zip(self.BANDS, self.grids, inputs):
            f = swsh.synthesize(swsh.coefficient_set(-h, band, coeffs), grid)
            sec = swsh.embed(f)
            sec = swsh.section_scale(1.0 / swsh.section_norm(sec), sec)
            spin = swsh.apply_projected_spin(sec)
            orb = swsh.apply_projected_orbital(sec)
            gens = [swsh.apply_J_rotation(sec, axis) for axis in self.AXES]
            out.append((sec, spin, orb, gens))
        return out

    @staticmethod
    def _k_contractions(grid, components, rank):
        th, ph = grid.theta[:, None], grid.phi[None, :]
        k = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                      np.cos(th) * np.ones_like(ph)], axis=-1)
        if rank == 1:
            return [np.einsum("tpc,tpc->tp", components, k)]
        return [np.einsum("tpcd,tpc->tpd", components, k),
                np.einsum("tpcd,tpd->tpc", components, k)]

    def check(self, inputs, out):
        problems = []
        for (h, _), grid, (sec, spin, orb, gens) in zip(self.BANDS, self.grids, out):
            for a in range(3):
                d = spin[a].components + orb[a].components - gens[a].components
                err = float(np.abs(d).max())
                if not err <= self.LEMMA_TOL:
                    problems.append(f"h={h} axis {a}: |J_par + J_perp - J_rot| = {err:.3e}")
                for name, part in (("J_par", spin[a]), ("J_perp", orb[a])):
                    for contr in self._k_contractions(grid, part.components, abs(h)):
                        err = float(np.abs(contr).max())
                        if not err <= self.TRANSVERSE_TOL:
                            problems.append(f"h={h} axis {a}: {name} not transverse ({err:.3e})")
        return problems

    @staticmethod
    def digest(out):
        parts = []
        for sec, spin, orb, gens in out:
            parts.append(sec.components.tobytes())
            for a in range(3):
                parts += [spin[a].components.tobytes(), orb[a].components.tobytes(),
                          gens[a].components.tobytes()]
        return b"".join(parts)


WORKLOADS = {"transform-reuse": TransformReuse, "bundle-lemma": BundleLemma}
DIGEST_OPS = 2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--reference")
    args = ap.parse_args()

    cls = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        setup_span = tracer.begin("bench.setup")
    workload = cls(rng, args.reference)
    warm_inputs = workload.inputs()
    warm_out = workload.op(warm_inputs)
    if tracer:
        tracer.finish(setup_span)
    print(f"ready {time.process_time()!r}", flush=True)
    print(f"cal {common.calibration_ms()!r}", flush=True)
    if args.setup_only:
        return 0

    problems = workload.check(warm_inputs, warm_out)
    del warm_out
    cpu, cal, walls, failed, errors = [], [], [], 0, []
    digest = hashlib.sha256()
    t_loop = time.perf_counter()
    while True:
        done = len(cpu) + failed
        if args.rounds is not None:
            if done >= args.rounds:
                break
        elif done >= common.MIN_OPS and time.perf_counter() - t_loop >= args.seconds:
            break
        inputs = workload.inputs()
        cal0 = common.calibration_ms()
        idx = tracer.begin("bench.op") if tracer else None
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            out = workload.op(inputs)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        finally:
            w1, t1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.finish(idx)
        cpu.append((t1 - t0) * 1e3)
        walls.append((w1 - w0) * 1e3)
        cal.append((cal0 + common.calibration_ms()) / 2)
        problems += workload.check(inputs, out)
        if len(cpu) <= DIGEST_OPS:
            digest.update(workload.digest(out))

    result = {
        "cpu_ms": cpu,
        "cal_ms": cal,
        "walls_ms": walls,
        "failed": failed,
        "errors": errors[:5],
        "problems": problems[:20],
        "output_digest": digest.hexdigest(),
        "cal_ref_ms": common.CAL_REF_MS,
    }
    if tracer:
        result["timed_totals"] = tracer.totals(lo=t_loop)
        result["setup_totals"] = tracer.totals(hi=t_loop)
        tracer.save(Path(args.trace_out))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
