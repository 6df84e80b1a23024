"""Command line surface: evaluation, transforms, verification, multiplets.

Every run is reproducible: a randomized suite draws from one PRNG, the
standard library's random.Random seeded by --seed (default 0), so no
suite loads numpy.random; numeric output carries 17 significant digits, and
reports are emitted with fixed key order, so identical invocations give
byte-identical stdout.

Each command and verify suite imports the modules it runs when it runs;
this module loads only errors and serial.  So a cold process pays for
numpy and the numeric modules only where it uses them, and multiplets
and verify spectrum-match, integer bookkeeping, run without numpy.

Each verify suite is one row of _SUITES: its runner and the flags it
reads besides --seed, each with its default.  Any other flag set on the
suite exits 2; each unset flag it reads takes the row's default, and a
runner returns (parameters, results, residual), plus one more pass
condition where the residual alone does not decide.

Exit codes: 0 success/pass, 1 suite failure or exhausted search budget,
2 invalid input (modes, domains, parsing, conflicting flags, a flag the
verify suite does not read),
3 band-limit violations, 4 unknown verification suite.
"""

import argparse
import sys

from .errors import NORTH, SOUTH, BandLimitExceeded, SearchBudgetExceeded, SpinWeightMismatch, check_multiplet_j
from .serial import fmt17, json_dumps


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swsh",
        description="Spin-weighted spherical harmonics: evaluation, transforms,"
        " operator verification, multiplet bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one mode at a point, a pole, or a grid")
    pe.set_defaults(handler=cmd_eval)
    pe.add_argument("-s", type=int, required=True, help="spin weight")
    pe.add_argument("-j", type=int, required=True, help="total angular momentum")
    pe.add_argument("-m", type=int, required=True, help="magnetic index")
    pe.add_argument("--theta", type=float, help="colatitude in (0, pi)")
    pe.add_argument("--phi", type=float, help="azimuth")
    pe.add_argument("--pole", choices=[NORTH, SOUTH], help="directional pole limit")
    pe.add_argument("--grid", type=int, metavar="L", help="sample on the band-L grid")
    pe.add_argument("--out", help="CSV output path for --grid")

    pt = sub.add_parser("transform", help="analysis/synthesis between CSV and JSON")
    pt.set_defaults(handler=cmd_transform)
    pt.add_argument("mode", choices=["analyze", "synthesize"])
    pt.add_argument("--in", dest="infile", required=True, help="input file")
    pt.add_argument("--out", dest="outfile", required=True, help="output file")
    pt.add_argument("-L", type=int, help="band limit (defaults to the input's)")
    pt.add_argument("-s", type=int, help="expected spin weight (checked)")

    pv = sub.add_parser("verify", help="run one verification suite, report JSON")
    pv.set_defaults(handler=cmd_verify)
    pv.add_argument("suite", help="|".join(_SUITES))
    pv.add_argument("-L", type=int, help="band limit")
    pv.add_argument("-s", type=int, help="spin weight")
    pv.add_argument("-j", type=int, help="total angular momentum (poles, ladder)")
    pv.add_argument("--tolerance", type=float, help="pass threshold")
    pv.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    pv.add_argument("--count", type=int, help="number of random draws/sections")
    pv.add_argument("--floor", type=float, help="defect floor (commutators, default 0.1)")

    pm = sub.add_parser("multiplets", help="multiplet spectra and factor search")
    pm.set_defaults(handler=cmd_multiplets)
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
    if (args.grid is None) != (args.out is None):
        parser.error("--grid requires --out" if args.out is None else "--out requires --grid")
    if args.pole is not None:
        _print_value(eval_swsh_pole_limit(mode, args.pole))
        return 0
    if args.grid is not None:
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

    analyzing = args.mode == "analyze"
    data = read_grid_csv(args.infile) if analyzing else read_coefficients_json(args.infile)
    if args.s is not None and args.s != data.spin_weight:
        raise SpinWeightMismatch(f"input has spin weight {data.spin_weight}, expected {args.s}")
    if analyzing:
        write_coefficients_json(analyze(data, band_limit=args.L), args.outfile)
    else:
        grid = make_grid(data.band_limit if args.L is None else args.L)
        write_grid_csv(synthesize(data, grid), args.outfile)
    return 0


def _seeded(args):
    """The suite's one PRNG: the standard library's random.Random(--seed), so no suite loads numpy.random."""
    import random

    return random.Random(args.seed)


def _random_coefficients(rng, s, band):
    """Every mode's amplitude re + i im up to band, re then im drawn by rng.gauss(0, 1), j ascending, then m."""
    from .transform import coefficient_set

    entries = {}
    for j in range(abs(s), band + 1):
        for m in range(-j, j + 1):
            entries[(j, m)] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    return coefficient_set(s, band, entries)


def _random_sections(rng, s, band, count):
    """Unit-norm random embedded sections plus the work grid they live on; count must be positive."""
    from .bundle import embed, section_norm, section_scale
    from .grid import make_grid
    from .modes import J_MAX
    from .transform import synthesize

    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    pad = abs(s) + 4  # the work grid's band is -L + |h| + 4, inside the envelope
    if band > J_MAX - pad:
        raise ValueError(f"-L {band} exceeds this suite's limit {J_MAX - pad} for |h| = {abs(s)}")
    work = make_grid(band + pad)
    sections = []
    for _ in range(count):
        f = synthesize(_random_coefficients(rng, s, band), work)
        sec = embed(f)
        sections.append(section_scale(1.0 / section_norm(sec), sec))
    return work, sections


def _suite_ortho(args):
    """Exact max |G - I| of the quadrature Gram of every mode up to L, one m at a time.

    The modes of one m, from j0 = max(|m|, |s|), are sampled by
    mode_samples and analyzed by mode_coefficients as samples [t, p, k]:
    column k of the result, G[m' + L, j', k], is the Gram column of mode
    (j0 + k, m) against every mode (j', m').  The identity sits at
    G[m + L, j0:], so the residual is exact, and no step holds more than
    one m's columns.
    """
    import numpy as np

    from .grid import make_grid
    from .tables import mode_coefficients, mode_samples

    s, L = args.s, args.L
    if L < abs(s):
        raise ValueError(f"band limit {L} is below |spin weight| {abs(s)}")
    grid = make_grid(L)
    modes = 0
    resid = 0.0
    for m in range(-L, L + 1):
        j0 = max(abs(m), abs(s))
        gram = mode_coefficients(grid, s, mode_samples(grid, s, m)[j0:].transpose(1, 2, 0), L)
        gram[m + L, j0:] -= np.eye(L + 1 - j0)
        resid = max(resid, float(np.abs(gram).max()))
        modes += L + 1 - j0
    return {"s": s, "L": L}, {"modes": modes}, resid


def _suite_ladder(args):
    """The exact J_+-, J^2 actions on every mode up to jMax against their differential expressions, then each kind's apply_grid.

    The reference tables, each kind's differential expression on p_{sjm}
    exp(i m phi) (operators._differential_table, which never reads the
    ladder weights), are compared with the ladder shifts and j(j + 1) of
    the mode table; |exp(i m phi)| = 1, so the residuals are in sample
    units.  Each kind's apply_grid, on one function holding every mode at
    amplitude exp(i (j + 2m)), is compared with synthesize of apply_coeff,
    relative to the reference's largest sample (absolute where the
    reference is zero, as helicity's at s = 0), which keeps the analysis
    under test.
    """
    import cmath

    import numpy as np

    from .grid import make_grid
    from .operators import KINDS, OperatorSpec, _differential_table, apply_coeff, apply_grid, ladder_shift
    from .tables import mode_table
    from .transform import coefficient_set, synthesize

    s, j_top = args.s, args.j
    if j_top < abs(s):
        raise ValueError(f"jMax {j_top} is below |spin weight| {abs(s)}")
    grid = make_grid(j_top)
    p, j = mode_table(grid, s), np.arange(j_top + 1)[:, None]
    known = {"Jplus": ladder_shift(p, -1), "Jminus": ladder_shift(p, +1), "Jsquared": j * (j + 1) * p}
    worst = max(float(np.abs(_differential_table(grid, s, kind, j_top) - want).max())
                for kind, want in known.items())
    c = coefficient_set(s, j_top, {(j, m): cmath.exp(1j * (j + 2 * m))
                                   for j in range(abs(s), j_top + 1) for m in range(-j, j + 1)})
    f = synthesize(c, grid)
    for kind in KINDS:
        op = OperatorSpec(kind, s)
        want = synthesize(apply_coeff(op, c), grid).samples
        err = float(np.abs(apply_grid(op, f).samples - want).max())
        worst = max(worst, err / (float(np.abs(want).max()) or 1.0))
    results = {"modes": sum(2 * j + 1 for j in range(abs(s), j_top + 1))}
    return {"s": s, "jMax": j_top}, results, worst


def _suite_casimir(args):
    from .operators import verify_casimir_identity

    c = _random_coefficients(_seeded(args), args.s, args.L)
    resid = verify_casimir_identity(args.s, c)
    return {"s": args.s, "L": args.L}, {"entries": len(c.entries)}, resid


def _suite_lemma(args):
    import numpy as np

    from .bundle import apply_J_rotation, apply_projected_orbital, apply_projected_spin

    s, band, count = args.s, args.L, args.count
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    work, sections = _random_sections(_seeded(args), s, band, count)
    worst = 0.0
    for sec in sections:
        spin_part = apply_projected_spin(sec)
        orb_part = apply_projected_orbital(sec)
        for a, axis in enumerate(axes):
            gen = apply_J_rotation(sec, axis)
            d = spin_part[a].components + orb_part[a].components - gen.components
            worst = max(worst, float(np.abs(d).max()))
    params = {"s": s, "h": -s, "band": band, "sections": count}
    return params, {"work_band": work.band_limit}, worst


def _suite_commutators(args):
    from .bundle import commutator_report

    s, band, count = args.s, args.L, args.count
    _, sections = _random_sections(_seeded(args), s, band, count)
    report = commutator_report(-s, sections, floor=args.floor)
    resid = max(report["identity_residuals"].values())
    params = {"s": s, "h": -s, "band": band, "sections": count}
    return params, report, resid, report["defects_exceed_floor"]


def _suite_poles(args):
    """Both pole limits of every mode (s, j, m) against eval_swsh_pole_limit's closed form, two independent ways.

    The climb's own values at theta = 0 and pi (modes.pole_table, column
    j), and pole_limit_extrapolate of each mode sample_swsh samples on
    make_grid(j), which reads the mode's analysis; both are exact to
    rounding.
    """
    from .grid import make_grid, pole_limit_extrapolate, sample_swsh
    from .modes import SWMode, eval_swsh_pole_limit, pole_table, validate_mode

    s, j = args.s, args.j
    validate_mode(s, j, 0)  # before sampling: a j < 0 would leave no m to check
    grid = make_grid(j)
    tables = {pole: pole_table(s, j, pole) for pole in (NORTH, SOUTH)}
    climbed = sampled = 0.0
    for m in range(-j, j + 1):
        mode = SWMode(s, j, m)
        f = sample_swsh(grid, mode)
        for pole, table in tables.items():
            exact = eval_swsh_pole_limit(mode, pole)
            climbed = max(climbed, abs(table[m + j, j] - exact))
            sampled = max(sampled, abs(pole_limit_extrapolate(f, pole)[0] - exact))
    results = {"modes": 2 * j + 1, "climbResidual": climbed, "sampledResidual": sampled}
    return {"s": s, "j": j}, results, max(climbed, sampled)


def _suite_spectrum_match(args):
    from .multiplets import (
        massive_spectrum,
        massless_spectrum,
        mode_counts,
        spectrum,
        spectrum_tensor,
    )

    j_top = args.j
    check_multiplet_j(j_top, f"j_max={j_top}")  # before the tower is built
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
    return params, {"mismatches": mismatches}, float(mismatches)


def _suite_pointop(args):
    import numpy as np

    from .bundle import (
        EmbeddedSection,
        apply_projected_orbital,
        apply_projected_spin,
        extract,
        transversality_residual,
    )
    from .grid import standard_frame

    s, band = args.s, args.L
    h = -s
    work, sections = _random_sections(_seeded(args), s, band, 2)
    base, probe = sections
    k = standard_frame(work).k_hat
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
    return {"s": s, "h": h, "band": band}, {"node": [it, ip]}, worst


# suite -> (runner, {flag it reads besides --seed: the flag's default})
_SUITES = {
    "ortho": (_suite_ortho, {"-s": -1, "-L": 16, "--tolerance": 1e-11}),
    "ladder": (_suite_ladder, {"-s": -1, "-j": 8, "--tolerance": 1e-8}),
    "casimir": (_suite_casimir, {"-s": -1, "-L": 10, "--tolerance": 1e-11}),
    "lemma": (_suite_lemma, {"-s": -1, "-L": 8, "--count": 5, "--tolerance": 1e-5}),
    "commutators": (
        _suite_commutators,
        {"-s": -1, "-L": 8, "--count": 10, "--tolerance": 1e-5, "--floor": 0.1},
    ),
    "poles": (_suite_poles, {"-s": -1, "-j": 2, "--tolerance": 1e-8}),
    "spectrum-match": (_suite_spectrum_match, {"-j": 20, "--tolerance": 0.0}),
    "pointop": (_suite_pointop, {"-s": -1, "-L": 8, "--tolerance": 1e-10}),
}


def cmd_verify(args, parser):
    if args.suite not in _SUITES:
        print(
            f"unknown suite {args.suite!r}; expected one of {', '.join(sorted(_SUITES))}",
            file=sys.stderr,
        )
        return 4
    suite, defaults = _SUITES[args.suite]
    # every suite flag's value as given, in the order the rows first name the flags
    given = {flag: getattr(args, flag.lstrip("-")) for _, row in _SUITES.values() for flag in row}
    unread = [flag for flag, value in given.items() if value is not None and flag not in defaults]
    if unread:
        raise ValueError(f"verify {args.suite} does not read {', '.join(unread)}")
    for flag, default in defaults.items():
        if given[flag] is None:
            setattr(args, flag.lstrip("-"), default)
    if not 0.0 <= args.tolerance < float("inf"):
        raise ValueError(f"--tolerance must be finite and at least 0, got {args.tolerance}")
    params, results, resid, *conditions = suite(args)
    passed = resid <= args.tolerance and all(conditions)
    params = {"suite": args.suite, **params, "tolerance": args.tolerance, "seed": args.seed}
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


_FLOAT_OPTIONS = ("--theta", "--phi", "--tolerance", "--floor")


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_float_values(argv):
    """argv with each float option's negative value attached by '=': --phi -1e-3 as --phi=-1e-3.

    argparse reads a token that starts with '-' as an option unless it
    looks like -N or -N.N, so it would refuse -1e-3, -5. and -inf as
    values; attached, every float literal is one.  An abbreviated option
    name, a unique prefix argparse accepts, is attached too.
    """
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if (token.startswith("-") and _is_float(token) and len(option) > 2
                and any(name.startswith(option) for name in _FLOAT_OPTIONS)):
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args, parser)
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
