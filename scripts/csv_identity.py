"""Write the CLI's identity set of CSVs, and compare it with another revision.

The identity set is what a refactor must leave byte-identical:

* ``evla fluence`` on the four presets;
* ``evla temperature`` on the four presets in the forms ``derived``,
  ``printed`` and ``printed_sqrt``;

each at the default grid and at ``--grid 33,41`` (the temperature also
at ``--modes 7``), plus ``evla fluence`` with ``[optical.blood] g =
0.999999`` and ``evla damage --map`` on 810-15w.

Usage, from anywhere in a source checkout:

    python3 scripts/csv_identity.py OUTDIR [--against REV]

The set of this checkout's source tree goes to OUTDIR/this.  With
``--against REV`` the set of REV, taken from a ``git archive`` of it, goes
to OUTDIR/REV; every pair of files is compared byte by byte and the
script exits 1 if any differs, or if a command's exit code differs.  Each
tree runs all its commands in one child process, with evla imported from
that tree's ``src``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("810-15w", "980-15w", "980-10w", "1064-10w")
FORMS = ("derived", "printed", "printed_sqrt")
GRIDS = {"default": [], "g33x41": ["--grid", "33,41"]}
STRONG_SCATTER = "[optical.blood]\ng = 0.999999\n"

# run in the child: cli.main on each case, the exit codes as JSON
CHILD = """if True:
    import contextlib, io, json, sys
    from evla import cli
    codes = {}
    for name, argv in json.load(sys.stdin).items():
        with contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv)
    json.dump(codes, sys.stdout)
"""


def cases(outdir):
    """{file name: CLI argv writing that file into outdir}."""
    out = {}

    def add(name, argv):
        out[name] = argv + ["--out", str(outdir / name)]

    for preset in PRESETS:
        for grid, extra in GRIDS.items():
            add("fluence-%s-%s.csv" % (preset, grid),
                ["fluence", "--preset", preset] + extra)
            modes = ["--modes", "7"] if extra else []
            for form in FORMS:
                add("temperature-%s-%s-%s.csv" % (preset, form, grid),
                    ["temperature", "--preset", preset, "--form", form]
                    + extra + modes)
    add("fluence-g0.999999.csv",
        ["fluence", "--config", str(outdir / "g0.999999.ini")])
    add("damage-map-810-15w.csv", ["damage", "--map", "--preset", "810-15w"])
    return out


def write_set(src, outdir):
    """Run every case on the evla of the source tree src; returns the exit
    codes by file name."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "g0.999999.ini").write_text(STRONG_SCATTER)
    env = {k: v for k, v in os.environ.items() if k != "EVLA_CONFIG"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          input=json.dumps(cases(outdir)), text=True,
                          capture_output=True, check=True)
    return json.loads(done.stdout)


def archive(rev, dest):
    """Unpack `git archive rev` into dest."""
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare with")
    args = parser.parse_args(argv)
    here = write_set(ROOT / "src", args.outdir / "this")
    print("this checkout: %d files" % len(here))
    if not args.against:
        return 0
    tag = args.against.replace("/", "_").replace("~", "-").replace("^", "-")
    with tempfile.TemporaryDirectory() as tmp:
        archive(args.against, Path(tmp) / "tree")
        there = write_set(Path(tmp) / "tree" / "src", args.outdir / tag)
    differ = []
    for name in sorted(here):
        a, b = args.outdir / "this" / name, args.outdir / tag / name
        same = (here[name] == there.get(name) and a.exists() == b.exists()
                and (not a.exists() or a.read_bytes() == b.read_bytes()))
        print("%-10s %s (exit %s / %s)" % ("same" if same else "DIFFERS",
                                            name, here[name],
                                            there.get(name)))
        if not same:
            differ.append(name)
    print("%d of %d files byte-identical to %s"
          % (len(here) - len(differ), len(here), args.against))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
