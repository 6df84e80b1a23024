"""Command line surface: evaluation, transforms, verification, multiplets.

Every run is reproducible: a randomized suite draws from one PRNG seeded
by --seed (default 0), numeric output carries 17 significant digits, and
reports are emitted with fixed key order, so identical invocations give
byte-identical stdout.

Each command and verify suite imports the modules it runs when it runs;
this module loads only errors and serial.  So a cold process pays for
numpy and the numeric modules only where it uses them, and multiplets
and verify spectrum-match, integer bookkeeping, run without numpy.

Exit codes: 0 success/pass, 1 suite failure or exhausted search budget,
2 invalid input (modes, domains, parsing, conflicting flags, a flag the
verify suite does not read),
3 band-limit violations, 4 unknown verification suite.
"""

import argparse
import sys

from .errors import NORTH, SOUTH, BandLimitExceeded, SearchBudgetExceeded, SpinWeightMismatch
from .serial import fmt17, json_dumps


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swsh",
        description="Spin-weighted spherical harmonics: evaluation, transforms,"
        " operator verification, multiplet bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one mode at a point, a pole, or a grid")
    pe.add_argument("-s", type=int, required=True, help="spin weight")
    pe.add_argument("-j", type=int, required=True, help="total angular momentum")
    pe.add_argument("-m", type=int, required=True, help="magnetic index")
    pe.add_argument("--theta", type=float, help="colatitude in (0, pi)")
    pe.add_argument("--phi", type=float, help="azimuth")
    pe.add_argument("--pole", choices=[NORTH, SOUTH], help="directional pole limit")
    pe.add_argument("--grid", type=int, metavar="L", help="sample on the band-L grid")
    pe.add_argument("--out", help="CSV output path for --grid")

    pt = sub.add_parser("transform", help="analysis/synthesis between CSV and JSON")
    pt.add_argument("mode", choices=["analyze", "synthesize"])
    pt.add_argument("--in", dest="infile", required=True, help="input file")
    pt.add_argument("--out", dest="outfile", required=True, help="output file")
    pt.add_argument("-L", type=int, help="band limit (defaults to the input's)")
    pt.add_argument("-s", type=int, help="expected spin weight (checked)")

    pv = sub.add_parser("verify", help="run one verification suite, report JSON")
    pv.add_argument("suite", help="ortho|ladder|casimir|lemma|commutators|poles|spectrum-match|pointop")
    pv.add_argument("-L", type=int, help="band limit")
    pv.add_argument("-s", type=int, help="spin weight")
    pv.add_argument("-j", type=int, help="total angular momentum (poles, ladder)")
    pv.add_argument("--tolerance", type=float, help="pass threshold")
    pv.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    pv.add_argument("--count", type=int, help="number of random draws/sections")
    pv.add_argument("--floor", type=float, help="defect floor (commutators, default 0.1)")

    pm = sub.add_parser("multiplets", help="multiplet spectra and factor search")
    kind = pm.add_mutually_exclusive_group(required=True)
    kind.add_argument("--massless", type=int, metavar="H", help="helicity")
    kind.add_argument("--massive", type=int, metavar="S", help="spin")
    pm.add_argument("--jmax", type=int, default=12)
    pm.add_argument("--factor-search", dest="factor_spin", type=int, metavar="A",
                    help="search orbital factors against spin A")
    pm.add_argument("--lmax", type=int, help="orbital search range")
    pm.add_argument("--max-mult", dest="max_mult", type=int, default=3)
    pm.add_argument("--branch-limit", dest="branch_limit", type=int, default=64)
    return parser


def _print_value(value):
    print(f"{fmt17(value.real)} {fmt17(value.imag)}")


def cmd_eval(args, parser):
    from .grid import make_grid, sample_swsh, write_grid_csv
    from .modes import SWMode, eval_swsh, eval_swsh_pole_limit

    mode = SWMode(args.s, args.j, args.m)
    picked = [
        args.pole is not None,
        args.grid is not None,
        args.theta is not None or args.phi is not None,
    ]
    if sum(picked) != 1:
        parser.error("give exactly one of --theta/--phi, --pole, --grid")
    if args.pole is not None:
        _print_value(eval_swsh_pole_limit(mode, args.pole))
        return 0
    if args.grid is not None:
        if args.out is None:
            parser.error("--grid requires --out")
        f = sample_swsh(make_grid(args.grid), mode)
        write_grid_csv(f, args.out)
        return 0
    if args.theta is None or args.phi is None:
        parser.error("point evaluation needs both --theta and --phi")
    _print_value(eval_swsh(mode, args.theta, args.phi))
    return 0


def cmd_transform(args, parser):
    from .grid import make_grid, read_grid_csv, write_grid_csv
    from .transform import analyze, read_coefficients_json, synthesize, write_coefficients_json

    if args.mode == "analyze":
        f = read_grid_csv(args.infile)
        if args.s is not None and args.s != f.spin_weight:
            raise SpinWeightMismatch(
                f"input has spin weight {f.spin_weight}, expected {args.s}"
            )
        write_coefficients_json(analyze(f, band_limit=args.L), args.outfile)
    else:
        c = read_coefficients_json(args.infile)
        if args.s is not None and args.s != c.spin_weight:
            raise SpinWeightMismatch(
                f"input has spin weight {c.spin_weight}, expected {args.s}"
            )
        grid = make_grid(c.band_limit if args.L is None else args.L)
        write_grid_csv(synthesize(c, grid), args.outfile)
    return 0


def _pick(value, default):
    return default if value is None else value


def _random_coefficients(rng, s, band):
    from .transform import coefficient_set

    entries = {}
    for j in range(abs(s), band + 1):
        for m in range(-j, j + 1):
            entries[(j, m)] = complex(rng.standard_normal(), rng.standard_normal())
    return coefficient_set(s, band, entries)


def _random_sections(rng, s, band, count):
    """Unit-norm random embedded sections plus the work grid they live on; count must be positive."""
    from .bundle import embed, section_norm, section_scale
    from .grid import make_grid
    from .transform import synthesize

    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    h = -s
    work = make_grid(band + abs(h) + 4)
    sections = []
    for _ in range(count):
        f = synthesize(_random_coefficients(rng, s, band), work)
        sec = embed(f)
        sections.append(section_scale(1.0 / section_norm(sec), sec))
    return work, sections


def _suite_ortho(args):
    """Quadrature Gram residual of every mode up to L, streamed one m at a time.

    The modes of one m are sampled by mode_samples as [j, t, p] and split
    into azimuthal bins R[k + L, j, t] by phi_analysis; a Gram entry is
    then sum_t w_t sum_k conj(R_a[k, t]) R_b[k, t] / (2 pi).  Each m's block is
    formed from bin m.  An entry between two modes of different m is
    bounded by Cauchy-Schwarz from each mode's bin-m norm n and off-bin
    norm e: |G_ab| <= n_a e_b + e_a n_b + e_a e_b.
    The residual is the larger of the worst block error and that bound, so
    it bounds every entry of G - I without forming the dense Gram.
    """
    import numpy as np

    from .grid import make_grid
    from .tables import mode_samples, phi_analysis

    s = _pick(args.s, -1)
    L = _pick(args.L, 16)
    tol = _pick(args.tolerance, 1e-11)
    if L < abs(s):
        raise ValueError(f"band limit {L} is below |spin weight| {abs(s)}")
    grid = make_grid(L)
    w = grid.theta_weights / (2.0 * np.pi)
    modes = 0
    block_err = norm_max = leak_max = 0.0
    for m in range(-L, L + 1):
        js = range(max(abs(m), abs(s)), L + 1)
        samples = mode_samples(grid, s, m)[js.start :]
        rings = phi_analysis(grid, samples.transpose(2, 0, 1), L)
        own = rings[m + L]
        block = (np.conj(own) * w) @ own.T
        block_err = max(block_err, float(np.abs(block - np.eye(len(js))).max()))
        norm_max = max(norm_max, float(np.sqrt(np.diag(block).real.max())))
        rings[m + L] = 0.0
        leak = np.sqrt((np.abs(rings) ** 2 @ w).sum(axis=0))
        leak_max = max(leak_max, float(leak.max()))
        modes += len(js)
    cross = 2.0 * norm_max * leak_max + leak_max * leak_max
    resid = max(block_err, cross)
    params = {"s": s, "L": L}
    results = {"modes": modes}
    return params, results, resid, tol


def _suite_ladder(args):
    """Grid-space J_+-, J_z and J^2 on every mode up to jMax, against their known actions.

    The modes of each m are sampled once, by mode_samples, and serve as
    the functions of that m and as the references of m -+ 1.
    """
    import numpy as np

    from .grid import GridFunction, make_grid
    from .operators import OperatorSpec, apply_grid, ladder_coefficient
    from .tables import mode_samples

    s = _pick(args.s, -1)
    j_top = _pick(args.j, 8)
    tol = _pick(args.tolerance, 1e-8)
    if j_top < abs(s):
        raise ValueError(f"jMax {j_top} is below |spin weight| {abs(s)}")
    grid = make_grid(j_top)
    worst = 0.0
    blocks = {}
    for m in range(-j_top, j_top + 1):
        blocks.pop(m - 2, None)
        for k in range(max(m - 1, -j_top), min(m + 1, j_top) + 1):
            if k not in blocks:
                blocks[k] = mode_samples(grid, s, k)
        for j in range(max(abs(m), abs(s)), j_top + 1):
            f = GridFunction(grid, s, blocks[m][j])
            for kind, sign in (("Jplus", +1), ("Jminus", -1)):
                got = apply_grid(OperatorSpec(kind, s), f)
                lam = ladder_coefficient(j, m, sign)
                if lam:
                    ref = lam * blocks[m + sign][j]
                else:
                    ref = np.zeros(grid.shape)
                worst = max(worst, float(np.abs(got.samples - ref).max()))
            got = apply_grid(OperatorSpec("Jz", s), f)
            worst = max(worst, float(np.abs(got.samples - m * f.samples).max()))
            got = apply_grid(OperatorSpec("Jsquared", s), f)
            worst = max(
                worst, float(np.abs(got.samples - j * (j + 1) * f.samples).max())
            )
    params = {"s": s, "jMax": j_top}
    results = {"modes": sum(2 * j + 1 for j in range(abs(s), j_top + 1))}
    return params, results, worst, tol


def _suite_casimir(args):
    import numpy as np

    from .operators import verify_casimir_identity

    rng = np.random.default_rng(args.seed)
    s = _pick(args.s, -1)
    L = _pick(args.L, 10)
    tol = _pick(args.tolerance, 1e-11)
    c = _random_coefficients(rng, s, L)
    resid = verify_casimir_identity(s, c)
    params = {"s": s, "L": L}
    results = {"entries": len(c.entries)}
    return params, results, resid, tol


def _suite_lemma(args):
    import numpy as np

    from .bundle import apply_J_rotation, apply_projected_orbital, apply_projected_spin

    rng = np.random.default_rng(args.seed)
    s = _pick(args.s, -1)
    band = _pick(args.L, 8)
    count = _pick(args.count, 5)
    tol = _pick(args.tolerance, 1e-5)
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    work, sections = _random_sections(rng, s, band, count)
    worst = 0.0
    for sec in sections:
        spin_part = apply_projected_spin(sec)
        orb_part = apply_projected_orbital(sec)
        for a, axis in enumerate(axes):
            gen = apply_J_rotation(sec, axis)
            d = spin_part[a].components + orb_part[a].components - gen.components
            worst = max(worst, float(np.abs(d).max()))
    params = {"s": s, "h": -s, "band": band, "sections": count}
    results = {"work_band": work.band_limit}
    return params, results, worst, tol


def _suite_commutators(args):
    import numpy as np

    from .bundle import commutator_report

    rng = np.random.default_rng(args.seed)
    s = _pick(args.s, -1)
    band = _pick(args.L, 8)
    count = _pick(args.count, 10)
    tol = _pick(args.tolerance, 1e-5)
    _, sections = _random_sections(rng, s, band, count)
    report = commutator_report(-s, sections, floor=_pick(args.floor, 0.1))
    resid = max(report["identity_residuals"].values())
    params = {"s": s, "h": -s, "band": band, "sections": count}
    passed = resid <= tol and report["defects_exceed_floor"]
    return params, report, resid, tol, passed


def _suite_poles(args):
    from .grid import make_grid, pole_limit_extrapolate, sample_swsh
    from .modes import SWMode, eval_swsh_pole_limit

    s = _pick(args.s, -1)
    j = _pick(args.j, 2)
    tol = _pick(args.tolerance, 1e-8)
    grid = make_grid(_pick(args.L, 256))
    worst = 0.0
    worst_diag = 0.0
    for m in range(-j, j + 1):
        f = sample_swsh(grid, SWMode(s, j, m))
        for pole in (NORTH, SOUTH):
            limit, diag = pole_limit_extrapolate(f, pole)
            exact = eval_swsh_pole_limit(SWMode(s, j, m), pole)
            worst = max(worst, abs(limit - exact))
            worst_diag = max(worst_diag, diag)
    params = {"s": s, "j": j, "grid_L": grid.band_limit}
    results = {"extrapolationResidual": worst_diag}
    return params, results, worst, tol


def _suite_spectrum_match(args):
    from .multiplets import (
        massive_spectrum,
        massless_spectrum,
        mode_counts,
        spectrum,
        spectrum_tensor,
    )

    j_top = _pick(args.j, 20)
    tol = _pick(args.tolerance, 0.0)
    mismatches = 0
    for spin in range(0, 4):
        # massive tower must agree with the explicit tensor construction
        tower = spectrum({l: 1 for l in range(j_top + spin + 1)}, j_top + spin)
        built = spectrum_tensor(spectrum({spin: 1}), tower)
        closed = massive_spectrum(spin, j_top)
        for j in range(j_top + 1):
            if built.multiplicity(j) != closed.multiplicity(j):
                mismatches += 1
        # massless multiplicity times (2j+1) must count transform modes
        counts = mode_counts(-spin, j_top)
        mless = massless_spectrum(spin, j_top)
        for j in range(j_top + 1):
            if counts[j] != (2 * j + 1) * mless.multiplicity(j):
                mismatches += 1
    params = {"jMax": j_top, "spins": [0, 1, 2, 3]}
    results = {"mismatches": mismatches}
    return params, results, float(mismatches), tol


def _suite_pointop(args):
    import numpy as np

    from .bundle import (
        EmbeddedSection,
        apply_projected_orbital,
        apply_projected_spin,
        extract,
        transversality_residual,
    )

    rng = np.random.default_rng(args.seed)
    s = _pick(args.s, -1)
    band = _pick(args.L, 8)
    tol = _pick(args.tolerance, 1e-10)
    h = -s
    work, sections = _random_sections(rng, s, band, 2)
    base, probe = sections
    k = np.stack(
        [
            np.sin(work.theta)[:, None] * np.cos(work.phi)[None, :],
            np.sin(work.theta)[:, None] * np.sin(work.phi)[None, :],
            np.cos(work.theta)[:, None] * np.ones(work.n_phi)[None, :],
        ],
        axis=-1,
    )
    worst = 0.0
    # pointwise form: each axis of the projected spin action multiplies by h*k_a
    par = apply_projected_spin(base)
    extra = (None,) * base.rank
    for a in range(3):
        ref = h * k[(..., a, *extra)] * base.components
        worst = max(worst, float(np.abs(par[a].components - ref).max()))
    # locality: a section vanishing at a node gives zero output there.
    # Both sections lie in the same line bundle, so one scalar ratio
    # cancels the whole tensor at the chosen node.
    it, ip = work.n_theta // 2, work.n_phi // 3
    coef = extract(probe).samples[it, ip] / extract(base).samples[it, ip]
    zeroed = EmbeddedSection(work, base.helicity, probe.components - coef * base.components)
    worst = max(worst, float(np.abs(zeroed.components[it, ip]).max()))
    local = apply_projected_spin(zeroed)
    for a in range(3):
        worst = max(worst, float(np.abs(local[a].components[it, ip]).max()))
    # transversality of the projected orbital output
    perp = apply_projected_orbital(base)
    for a in range(3):
        worst = max(worst, transversality_residual(perp[a]))
    params = {"s": s, "h": h, "band": band}
    results = {"node": [it, ip]}
    return params, results, worst, tol


# suite -> (runner, the flags it reads besides --seed)
_SUITES = {
    "ortho": (_suite_ortho, ("-s", "-L", "--tolerance")),
    "ladder": (_suite_ladder, ("-s", "-j", "--tolerance")),
    "casimir": (_suite_casimir, ("-s", "-L", "--tolerance")),
    "lemma": (_suite_lemma, ("-s", "-L", "--count", "--tolerance")),
    "commutators": (_suite_commutators, ("-s", "-L", "--count", "--tolerance", "--floor")),
    "poles": (_suite_poles, ("-s", "-j", "-L", "--tolerance")),
    "spectrum-match": (_suite_spectrum_match, ("-j", "--tolerance")),
    "pointop": (_suite_pointop, ("-s", "-L", "--tolerance")),
}


def cmd_verify(args, parser):
    if args.suite not in _SUITES:
        print(
            f"unknown suite {args.suite!r}; expected one of {', '.join(sorted(_SUITES))}",
            file=sys.stderr,
        )
        return 4
    suite, reads = _SUITES[args.suite]
    unread = [
        flag
        for flag in ("-s", "-L", "-j", "--count", "--tolerance", "--floor")
        if flag not in reads and getattr(args, flag.lstrip("-")) is not None
    ]
    if unread:
        raise ValueError(f"verify {args.suite} does not read {', '.join(unread)}")
    out = suite(args)
    if len(out) == 5:
        params, results, resid, tol, passed = out
    else:
        params, results, resid, tol = out
        passed = resid <= tol
    params = {"suite": args.suite, **params, "tolerance": tol, "seed": args.seed}
    report = {
        "command": "verify",
        "parameters": params,
        "results": results,
        "maxResidual": resid,
        "pass": bool(passed),
    }
    print(json_dumps(report))
    return 0 if passed else 1


def cmd_multiplets(args, parser):
    from .multiplets import factor_search, massive_spectrum, massless_spectrum, spectrum_to_json

    if args.massless is not None:
        base = massless_spectrum(args.massless, args.jmax)
    else:
        base = massive_spectrum(args.massive, args.jmax)
    if args.factor_spin is None:
        print(spectrum_to_json(base))
        return 0
    solutions = factor_search(
        base,
        args.factor_spin,
        l_max=args.lmax,
        max_mult=args.max_mult,
        branch_limit=args.branch_limit,
    )
    if not solutions:
        print("none")
        return 0
    for sol in solutions:
        print(spectrum_to_json(sol))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "transform": cmd_transform,
        "verify": cmd_verify,
        "multiplets": cmd_multiplets,
    }
    try:
        return handlers[args.command](args, parser)
    except BandLimitExceeded as exc:
        print(f"swsh: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"swsh: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # every other error type of errors.py is a ValueError
        print(f"swsh: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
