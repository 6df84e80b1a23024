"""Print one sha256 per swsh CLI case, to compare two checkouts' outputs byte for byte.

    python tests/cli_digests.py [--src DIR | --rev REV]

Each case runs its swsh commands, in order, in a fresh temporary
directory, with DIR (default: the src directory next to this file) first
on PYTHONPATH.  With --rev, DIR is the src directory of git revision REV
of this checkout, exported by git archive into a temporary directory, so
`--rev HEAD~1` runs a change's parent in one command.  A case's digest
covers every command's stdout, stderr and exit code and then every file
the directory holds at the end, by name and content.  Run it against two
checkouts and diff the output: equal lines mean byte-identical behavior
on that case.  pytest does not collect this file, since its name does
not start with test_.

The cases: every verify suite at its defaults and with -s -2 and 2,
eval at a point, at a pole, at a non-finite phi (refused) and on a grid,
transform flows on sparse coefficient sets (content far below the
declared band, synthesized at higher bands and analyzed back at the
same and at lower bands), and last eval at a negative phi in
exponent form, given as the token after --phi.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SUITES = ("ortho", "ladder", "casimir", "lemma", "commutators", "poles", "spectrum-match", "pointop")


def _sparse_set(s, band, entries):
    """Coefficient JSON of spin weight s declaring band, nonzero only at entries {(j, m): (re, im)}."""
    rows = [{"j": j, "m": m, "re": re, "im": im} for (j, m), (re, im) in sorted(entries.items())]
    return json.dumps({"spin_weight": s, "band_limit": band, "entries": rows})


SPARSE = {
    "s0.json": _sparse_set(0, 12, {(0, 0): (1.0, 0.0), (1, -1): (0.25, -0.5), (2, 2): (0.0, 0.75)}),
    "s-2.json": _sparse_set(-2, 20, {(2, -2): (0.5, 0.5), (3, 1): (-1.0, 0.125), (5, 0): (0.3, 0.0)}),
}


def _cases():
    cases = {}
    for suite in SUITES:
        cases[f"verify {suite}"] = [["verify", suite]]
        for s in ("-2", "2"):
            cases[f"verify {suite} -s {s}"] = [["verify", suite, "-s", s]]
    point = ["eval", "-s", "-1", "-j", "3", "-m", "2"]
    cases["eval --theta 0.7 --phi 1.1"] = [point + ["--theta", "0.7", "--phi", "1.1"]]
    cases["eval --pole north"] = [point + ["--pole", "north"]]
    cases["eval --phi nan"] = [point + ["--theta", "0.7", "--phi", "nan"]]
    cases["eval --grid 8"] = [["eval", "-s", "-1", "-j", "3", "-m", "2", "--grid", "8", "--out", "g.csv"]]
    cases["eval --grid 20, analyze at 20 and 9"] = [
        ["eval", "-s", "2", "-j", "7", "-m", "-3", "--grid", "20", "--out", "g.csv"],
        ["transform", "analyze", "--in", "g.csv", "--out", "full.json"],
        ["transform", "analyze", "--in", "g.csv", "--out", "low.json", "-L", "9"],
    ]
    for name, s in (("s0.json", "0"), ("s-2.json", "-2")):
        for band in ("24", "40"):
            cases[f"sparse {name} synthesize -L {band}, analyze back and at 6"] = [
                ["transform", "synthesize", "--in", name, "--out", "g.csv", "-L", band, "-s", s],
                ["transform", "analyze", "--in", "g.csv", "--out", "back.json"],
                ["transform", "analyze", "--in", "g.csv", "--out", "low.json", "-L", "6"],
                ["transform", "synthesize", "--in", "low.json", "--out", "low.csv"],
            ]
        cases[f"sparse {name} synthesize at its band"] = [
            ["transform", "synthesize", "--in", name, "--out", "g.csv"],
        ]
    cases["eval --phi -1e-3"] = [["eval", "-s", "0", "-j", "1", "-m", "1", "--theta", "0.7", "--phi", "-1e-3"]]
    return cases


def _digest(commands, src):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPARSE.items():
            Path(tmp, name).write_text(text + "\n")
        for argv in commands:
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from swsh.cli import main; sys.exit(main())", *argv],
                cwd=tmp, env=env, capture_output=True,
            )
            for part in (" ".join(argv).encode(), run.stdout, run.stderr, str(run.returncode).encode()):
                h.update(len(part).to_bytes(8, "little") + part)
        for path in sorted(Path(tmp).iterdir()):
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def add_source_options(parser):
    """The --src DIR and --rev REV options, one of which names the swsh source to run."""
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--src", default=str(CHECKOUT / "src"), help="directory holding the swsh package")
    where.add_argument("--rev", help="git revision of this checkout whose src directory to run")


def source_dir(args, parser, tmp):
    """The src directory the options name: --src resolved, or --rev's src exported by git archive into tmp."""
    if args.rev is None:
        return str(Path(args.src).resolve())
    archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", args.rev, "src"], stdout=subprocess.PIPE)
    if archive.returncode != 0:
        parser.error(f"git archive {args.rev} failed")
    subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
    return str(Path(tmp, "src"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_source_options(parser)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        src = source_dir(args, parser, tmp)
        for name, commands in _cases().items():
            print(f"{_digest(commands, src)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
