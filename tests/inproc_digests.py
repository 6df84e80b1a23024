"""Print one sha256 per in-process swsh case, to compare two checkouts' outputs byte for byte.

    python tests/inproc_digests.py [--src DIR | --rev REV | --diff REV]

All cases run in one process that imports swsh from DIR (default: the
src directory next to this file; with --rev, git revision REV's src,
exported as cli_digests.py exports it), in a fixed order, on inputs drawn from
one seeded generator, so two checkouts see the same inputs and the same
cache history.  A case's digest covers the bytes of every array it
returns.  Run it against two checkouts and diff the output: equal lines
mean byte-identical results on that case.  With --diff REV, one process
runs every case on REV's src and then on the src next to this file, and
prints, for each case whose bytes differ, the largest difference over
its arrays relative to their largest value, then the count of
byte-identical cases: the rounding bound of a change against its parent
is `--diff HEAD~1` (or `--diff HEAD` before committing).  pytest does not
collect this file, since its name does not start with test_.

The cases: synthesize, analyze and apply_grid of every operator kind, at
the grid's band and a lower one, in either order, for spin weights 0,
+-1 and +-2; and the projected spin and orbital operators and the
rotation generator of embedded sections of helicity +-1 and +-2, for one
section in the fiber and one of random ambient components; then point
evaluation: profile at orders 0, 1 and 2 on seeded interior colatitudes,
and sample_swsh on the band-12 grid before and after its mode tables are built,
for spin weights 0, +-1 and +-2 at a few (j, m) up to j = 64; then, for
helicities +-1 and +-2, embed with no frame, with the standard frame and
with a gauge-rotated one, and extract with no frame and with the rotated
one; then the projected operators and rotation generator of sections of
the bundle-lemma benchmark's sizes: |h| = 1 at band 5 on make_grid(10), |h| = 2 at band 2
on make_grid(8); then apply_grid of every operator kind at the
envelope's band 64 for spin weights 0 and +-2; last, for every spin weight, one
function on the band-12 grid analyzed at every band from 12 down to 0
and back up, and one set synthesized at every band; then, for every spin
weight, both pole limits of one function on the band-12 grid.
"""

import argparse
import hashlib
import importlib
import math
import sys
import tempfile

import numpy as np

from cli_digests import add_source_options, export_src, source_dir

BAND, LOW = 12, 7
SPINS = (0, 1, -1, 2, -2)
HELICITIES = (1, -1, 2, -2)
AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1 / 3, 2 / 3, 2 / 3))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode() + a.tobytes())
    return h.hexdigest()


def _entries(rng, s, band):
    return {(j, m): complex(rng.normal(), rng.normal())
            for j in range(abs(s), band + 1) for m in range(-j, j + 1)}


def _transform_cases(swsh, rng):
    grid = swsh.make_grid(BAND)
    for s in SPINS:
        # the negative spin weights meet the lower band first, before the grid's band
        for band in (BAND, LOW) if s >= 0 else (LOW, BAND):
            f = swsh.synthesize(swsh.coefficient_set(s, band, _entries(rng, s, band)), grid)
            yield f"s={s} synthesize, analyze at L={band}", [f.samples, swsh.analyze(f, band_limit=band).matrix]
            for kind in swsh.operators.KINDS:
                g = swsh.apply_grid(swsh.OperatorSpec(kind, s), f, band_limit=band)
                yield f"s={s} apply_grid {kind} at L={band}", [g.samples]


def _bundle_cases(swsh, rng):
    grid = swsh.make_grid(10)
    for h in HELICITIES:
        shape = grid.shape + (3,) * abs(h)
        fiber = swsh.embed(swsh.synthesize(swsh.coefficient_set(-h, 6, _entries(rng, -h, 6)), grid))
        ambient = swsh.EmbeddedSection(grid, h, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for name, sec in (("fiber", fiber), ("ambient", ambient)):
            spin, orbital = swsh.apply_projected_spin(sec), swsh.apply_projected_orbital(sec)
            yield f"h={h} {name} projected spin", [part.components for part in spin]
            yield f"h={h} {name} projected orbital", [part.components for part in orbital]
            yield f"h={h} {name} rotation", [swsh.apply_J_rotation(sec, axis).components for axis in AXES]


def _point_cases(swsh, rng):
    theta = np.sort(rng.uniform(0.01, np.pi - 0.01, size=257))
    modes = [(s, j, m) for s in SPINS for j, m in ((2, 1), (5, -2), (12, 7), (64, 5), (64, -64))]
    for s, j, m in modes:
        yield f"s={s} j={j} m={m} profile orders 0-2", [swsh.profile(s, j, m, theta, k) for k in (0, 1, 2)]
    grid = swsh.make_grid(BAND)
    swsh.tables._tables.clear()  # the transform cases built this geometry's mode tables
    for when in ("before", "after"):
        for s, j, m in modes:
            if j <= BAND:
                f = swsh.sample_swsh(grid, (s, j, m))
                yield f"s={s} j={j} m={m} sample_swsh {when} the mode table", [f.samples]
        for s in SPINS:
            swsh.tables.mode_table(grid, s)


def _embedding_cases(swsh, rng):
    grid = swsh.make_grid(10)
    standard = swsh.standard_frame(grid)
    xi = rng.uniform(-np.pi, np.pi, size=grid.shape)
    rotated = swsh.gauge_rotate_frame(standard, xi)
    for h in HELICITIES:
        f = swsh.synthesize(swsh.coefficient_set(-h, 6, _entries(rng, -h, 6)), grid)
        g = swsh.apply_gauge(f, xi)
        for name, fn, frame in (("no frame", f, None), ("the standard frame", f, standard),
                                ("a gauge-rotated frame", g, rotated)):
            yield f"h={h} embed with {name}", [swsh.embed(fn, frame).components]
        sec = swsh.embed(f)
        for name, frame in (("no frame", None), ("a gauge-rotated frame", rotated)):
            yield f"h={h} extract with {name}", [swsh.extract(sec, frame).samples]


def _benchmark_size_cases(swsh, rng):
    for h in HELICITIES:
        band = 5 if abs(h) == 1 else 2
        grid = swsh.make_grid(band + abs(h) + 4)
        sec = swsh.embed(swsh.synthesize(swsh.coefficient_set(-h, band, _entries(rng, -h, band)), grid))
        spin, orbital = swsh.apply_projected_spin(sec), swsh.apply_projected_orbital(sec)
        yield f"h={h} band {band} projected spin", [part.components for part in spin]
        yield f"h={h} band {band} projected orbital", [part.components for part in orbital]
        yield f"h={h} band {band} rotation", [swsh.apply_J_rotation(sec, axis).components for axis in AXES]


def _envelope_cases(swsh, rng):
    grid = swsh.make_grid(64)
    for s in (0, 2, -2):
        f = swsh.synthesize(swsh.coefficient_set(s, 64, _entries(rng, s, 64)), grid)
        for kind in swsh.operators.KINDS:
            g = swsh.apply_grid(swsh.OperatorSpec(kind, s), f)
            yield f"s={s} apply_grid {kind} on make_grid(64)", [g.samples]


def _band_sweep_cases(swsh, rng):
    grid = swsh.make_grid(BAND)
    for s in SPINS:
        f = swsh.synthesize(swsh.coefficient_set(s, BAND, _entries(rng, s, BAND)), grid)
        for sweep, bands in (("falling", range(BAND, -1, -1)), ("rising", range(1, BAND + 1))):
            for band in bands:
                yield f"s={s} {sweep} sweep: analyze at L={band}", [swsh.analyze(f, band_limit=band).matrix]
        for band in range(abs(s), BAND + 1):
            g = swsh.synthesize(swsh.coefficient_set(s, band, _entries(rng, s, band)), grid)
            yield f"s={s} synthesize at L={band}", [g.samples]


def _pole_cases(swsh, rng):
    grid = swsh.make_grid(BAND)
    for s in SPINS:
        f = swsh.synthesize(swsh.coefficient_set(s, BAND, _entries(rng, s, BAND)), grid)
        limits = [swsh.pole_limit_extrapolate(f, pole)[0] for pole in (swsh.NORTH, swsh.SOUTH)]
        yield f"s={s} pole limits at L={BAND}", [np.array(limits)]


def _load(src):
    """The swsh package imported from src, after dropping any swsh module imported before."""
    for name in [name for name in sys.modules if name == "swsh" or name.startswith("swsh.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        swsh = importlib.import_module("swsh")
        importlib.import_module("swsh.operators")  # KINDS
        importlib.import_module("swsh.tables")  # mode_table
    finally:
        sys.path.remove(src)
    return swsh


def _cases(src):
    """(name, arrays) of every case, in order, on swsh from src and one generator seeded the same every run."""
    swsh, rng = _load(src), np.random.default_rng(11)
    for cases in (_transform_cases, _bundle_cases, _point_cases, _embedding_cases, _benchmark_size_cases,
                  _envelope_cases, _band_sweep_cases, _pole_cases):
        yield from cases(swsh, rng)


def _relative_difference(old, new):
    """Largest |old - new| over a case's arrays, relative to the largest |new|; inf if the shapes differ."""
    if [a.shape for a in old] != [b.shape for b in new]:
        return math.inf
    diff = max(float(np.abs(a - b).max(initial=0.0)) for a, b in zip(old, new))
    scale = max(float(np.abs(b).max(initial=0.0)) for b in new)
    return diff / scale if scale else diff


def _diff(old_src, new_src):
    """Print, for each case whose bytes differ, its largest difference relative to its largest value."""
    old = dict(_cases(old_src))
    same = 0
    for name, arrays in _cases(new_src):
        if _digest(old[name]) == _digest(arrays):
            same += 1
        else:
            print(f"{_relative_difference(old[name], arrays):.1e}  {name}", flush=True)
    print(f"{same} of {len(old)} cases byte-identical")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_source_options(parser).add_argument(
        "--diff", metavar="REV", help="compare git revision REV's src with the src next to this file, case by case")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.diff is not None:
            _diff(export_src(args.diff, parser, tmp), args.src)
            return 0
        for name, arrays in _cases(source_dir(args, parser, tmp)):
            print(f"{_digest(arrays)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
