"""Command-line front end.

Subcommands evaluate the closed-form fields on tensor grids and emit flat
CSV (9 significant digits, LF line endings) so the output can be piped
into plotting tools:

    evla fluence --times 0,5,10 --grid 80,120 --out fluence.csv
    evla temperature --form derived --out temp.csv
    evla damage --table3
    evla damage --map --grid 40,40 --threshold 1
    evla validate --only a1,a2,a9
    evla registry

Parameters come from, in order of precedence: --config PATH, the
EVLA_CONFIG environment variable, --preset NAME, built-in defaults.

Exit codes: 0 success, 1 validation criterion failed, 2 bad
configuration or request, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .damage import crit_time_table, damage_map
from .fluence import DomainError, SolverError, assemble_and_solve
from .params import (ConfigError, PRESETS, Region,
                     params_from_env_or_default, region_index, registry_rows)
from .specfn import SpecFnDomainError, SpecFnOverflowError
from .thermal import ThermalError, build_temperature

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

DEFAULT_TIMES = "0,2.5,5,7.5,10"


FMT = "%.9g"


def _fmt(values):
    """FMT of a number (a str), or of every element of an array (an object
    array of str, same shape)."""
    if np.ndim(values) == 0:
        return FMT % values
    text = [FMT % v for v in np.ravel(values).tolist()]
    return np.array(text, dtype=object).reshape(np.shape(values))


def _parse_times(text):
    try:
        times = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("bad --times value %r" % text)
    if not times:
        raise ConfigError("--times is empty")
    if not all(np.isfinite(times)):
        raise ConfigError("--times must be finite, got %r" % text)
    return times


def _parse_grid(text):
    try:
        nr, nz = (int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("bad --grid value %r (want NR,NZ)" % text)
    if nr < 2 or nz < 2:
        raise ConfigError("--grid wants at least 2,2")
    return nr, nz


def _write_rows(out, *columns):
    """Write one CSV row per point of the 2-D grid the string arrays
    columns broadcast to, one grid row at a time."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    columns = [np.broadcast_to(c, shape) for c in columns]
    for i in range(shape[0]):
        cells = zip(*(c[i].tolist() for c in columns))
        out.write("".join(",".join(row) + "\n" for row in cells))


def _write_field(ps, values_at, grid, times, header, out):
    """Shared CSV writer of the fluence and temperature dumps on the parsed
    (nr, nz) grid and times.  r and z are formatted once, and the field is
    evaluated in one call, over the (z, t) columns of every time slice side
    by side, so that its radial table is built once; each slice is then
    formatted and written in turn."""
    geo, proto = ps.geometry, ps.protocol
    nr, nz = grid
    r = np.linspace(0.0, geo.r_s, nr)
    z = np.linspace(-geo.L, geo.L, nz)
    regions = np.array([tuple(Region)[k].value
                        for k in region_index(r, geo)])
    r_txt, z_txt = _fmt(r), _fmt(z)
    keep = [z >= -proto.v * t - 1e-12 for t in times]
    counts = [np.count_nonzero(k) for k in keep]
    vals = values_at(r[:, None], np.concatenate([z[k] for k in keep]),
                     np.repeat(times, counts))
    out.write(",".join(header) + "\n")
    for t, k, v in zip(times, keep,
                       np.split(vals, np.cumsum(counts)[:-1], axis=1)):
        _write_rows(out, r_txt[:, None], z_txt[k][None, :], _fmt(t),
                    regions[:, None], _fmt(v))


def _cmd_fluence(ps, args, out):
    grid, times = _parse_grid(args.grid), _parse_times(args.times)
    sol = assemble_and_solve(ps)
    _write_field(ps, sol.eval, grid, times,
                 ("r_mm", "z_mm", "t_s", "region", "phi_W_per_mm2"), out)
    return EXIT_OK


def _cmd_temperature(ps, args, out):
    if ps.protocol.u > 0.0:
        print("note: flowing-blood case (u = %g mm/s); the lumen forced "
              "rates grow with u" % ps.protocol.u, file=sys.stderr)
    if args.modes < 1:
        raise ConfigError("--modes must be >= 1, got %d" % args.modes)
    grid, times = _parse_grid(args.grid), _parse_times(args.times)
    sol = assemble_and_solve(ps)
    temp = build_temperature(ps, sol, mode=args.form, n_modes=args.modes)
    _write_field(ps, temp.eval, grid, times,
                 ("r_mm", "z_mm", "t_s", "region", "T_C"), out)
    return EXIT_OK


def _cmd_damage(ps, args, out):
    writer = csv.writer(out, lineterminator="\n")
    if args.table3:
        writer.writerow(("temp_C", "material", "t_crit_s"))
        for temp, per_mat in crit_time_table(ps):
            for mat, t_crit in per_mat.items():
                writer.writerow((_fmt(temp), mat, _fmt(t_crit)))
        return EXIT_OK
    if not (0.0 < args.threshold < np.inf):
        raise ConfigError("--threshold must be finite and > 0, got %r"
                          % args.threshold)
    nr, nz = _parse_grid(args.grid)
    sol = assemble_and_solve(ps)
    temp = build_temperature(ps, sol)
    geo = ps.geometry
    dm = damage_map(temp, np.linspace(0.0, geo.r_s, nr),
                    np.linspace(-geo.L, geo.L, nz),
                    threshold=args.threshold)
    writer.writerow(("r_mm", "z_mm", "omega", "t_crit_s"))
    _write_rows(out, _fmt(dm.r)[:, None], _fmt(dm.z)[None, :],
                _fmt(dm.omega), _fmt(dm.t_cross))
    return EXIT_OK


def _cmd_validate(ps, args, out):
    # imported here: validate pulls in the FD oracle, which no other
    # subcommand needs
    from . import validate
    names = None
    if args.only:
        names = [v.strip() for v in args.only.split(",") if v.strip()]
    try:
        results = validate.run(names, ps=ps)
    except KeyError as exc:
        raise ConfigError(exc.args[0])
    failed = 0
    for res in results:
        print(res.line(), file=out)
        if not res.passed:
            failed += 1
    print("%d of %d criteria passed" % (len(results) - failed,
                                        len(results)), file=out)
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_registry(ps, args, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("material", "wavelength_nm", "key", "value", "unit",
                     "provenance"))
    for mat, wl, key, value, unit, prov in registry_rows():
        writer.writerow((mat, wl, key, _fmt(value) if isinstance(
            value, (int, float)) else value, unit, prov))
    return EXIT_OK


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI parameter file (overrides "
                                         "EVLA_CONFIG)")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in operating point")
    common.add_argument("--out", default="-",
                        help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="evla",
        description="Closed-form light/heat/damage fields for a laser "
                    "fiber pulled back through a blood-filled vein.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flu = sub.add_parser("fluence", parents=[common],
                           help="light fluence CSV on a grid")
    p_tmp = sub.add_parser("temperature", parents=[common],
                           help="temperature CSV on a grid")
    for p in (p_flu, p_tmp):
        p.add_argument("--times", default=DEFAULT_TIMES,
                       help="comma-separated sample times [s]")
        p.add_argument("--grid", default="60,80", help="NR,NZ sample counts")
    p_tmp.add_argument("--form", default="derived",
                       choices=("derived", "printed", "printed_sqrt"),
                       help="forced-term variant")
    p_tmp.add_argument("--modes", type=int, default=20,
                       help="relaxation modes for the uniform start")

    p_dmg = sub.add_parser("damage", parents=[common],
                           help="dose table or dose map CSV")
    group = p_dmg.add_mutually_exclusive_group(required=True)
    group.add_argument("--table3", action="store_true",
                       help="constant-temperature crossing times")
    group.add_argument("--map", action="store_true",
                       help="dose and crossing-time map over (r, z)")
    p_dmg.add_argument("--grid", default="40,40", help="NR,NZ sample counts")
    p_dmg.add_argument("--threshold", type=float, default=1.0,
                       help="dose threshold for the crossing time")

    p_val = sub.add_parser("validate", parents=[common],
                           help="run acceptance criteria")
    p_val.add_argument("--only", help="comma-separated subset, e.g. a1,a5")

    sub.add_parser("registry", parents=[common],
                   help="built-in parameter provenance CSV")
    return parser


_COMMANDS = {
    "fluence": _cmd_fluence,
    "temperature": _cmd_temperature,
    "damage": _cmd_damage,
    "validate": _cmd_validate,
    "registry": _cmd_registry,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ps = params_from_env_or_default(args.config, args.preset)
        if args.out == "-":
            return _COMMANDS[args.command](ps, args, sys.stdout)
        with open(args.out, "w", newline="") as out:
            return _COMMANDS[args.command](ps, args, out)
    except (ConfigError, DomainError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ThermalError, SpecFnDomainError,
            SpecFnOverflowError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
