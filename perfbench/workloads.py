"""The three benchmark workloads: seeded inputs, the timed call into evla,
and the checks on every request's output.

A workload object is built once per run (its constructor is the set-up),
then serves requests by index.  ``draw(i)`` makes request i's inputs from
the seed alone, ``run(inputs)`` is the timed call into evla, and
``check(inputs, out)`` returns a list of problems (empty when the output
is correct) together with the arrays, as (kind, array, scale), that are
compared with the stored outputs of the default seed (see reference.py).

evla is reached through module attributes (``cli.main``,
``damage.damage_map``, ``fdoracle.solve_*``) so that the traced run sees
the wrappers it installs there.
"""

from __future__ import annotations

import math

import numpy as np

from evla import cli, damage, fdoracle, fluence, params, thermal


def rng_for(seed, workload, *keys):
    """Independent stream per (seed, workload, keys): request i's inputs do
    not depend on how many requests were drawn before it."""
    tag = [ord(c) for c in workload]
    return np.random.default_rng([seed, *tag, *keys])


def jittered(lo, hi, n, rng, band=0.8):
    """n points, one uniformly placed in the middle ``band`` share of each of
    n equal cells of [lo, hi], so that no point sits on a cell edge."""
    width = (hi - lo) / n
    return lo + (np.arange(n) + 0.5 + band * rng.uniform(-0.5, 0.5, n)) * width


def arrhenius_amplification(ps):
    """Largest E_a/(R T) over the materials at the coldest physical
    temperature (ambient): a relative change eps in T changes the Arrhenius
    rate, and so the dose, by about this factor times eps."""
    t_k = ps.protocol.T_air + 273.15
    return max(th.E_a for th in ps.thermal.values()) / (params.R_GAS * t_k)


class Workload:
    """Common request bookkeeping; subclasses define the work."""

    name = ""
    n_fixed = 1          # requests whose total time is wall_s
    n_reference = 0      # default-seed requests with stored outputs

    def reference_index(self, i):
        """Index of the stored reference output request i must match."""
        return i if i < self.n_reference else None


# ---------------------------------------------------------------------------
# plan: cold CLI runs on seeded configs
# ---------------------------------------------------------------------------

PLAN_GRID = (60, 80)                 # the CLI's default grid and times,
PLAN_TIMES = (0.0, 2.5, 5.0, 7.5, 10.0)  # passed explicitly to pin them
TISSUE = ("wall", "pad", "skin")


class Plan(Workload):
    """Each request writes one INI config and runs ``evla temperature`` and
    then ``evla fluence`` in-process, each writing a CSV file.

    No two requests share a parameter set, so every request pays the full
    cold build: fluence solve, mode search, projection, grid evaluation.
    """

    name = "plan"
    n_fixed = 2
    n_reference = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.geometry = params.Geometry().resolved()

    def draw(self, i):
        rng = rng_for(self.seed, self.name, i)
        wavelength = int(rng.choice(params.WAVELENGTHS))
        power = rng.uniform(8.0, 16.0)
        v = rng.uniform(0.75, 1.25)
        h_air = params.Protocol().h_air * rng.uniform(0.8, 1.25)
        lines = ["[protocol]",
                 "wavelength = %d" % wavelength,
                 "P_laser = %r" % power,
                 "v = %r" % v,
                 "h_air = %r" % h_air]
        for mat in TISSUE:
            base = params.THERMAL_TABLE[mat]
            lines += ["", "[thermal.%s]" % mat,
                      "k = %r" % (base["k"] * rng.uniform(0.85, 1.15)),
                      "omega = %r" % (base["omega"]
                                      * rng.uniform(0.85, 1.15))]
        config = self.workdir / ("plan-%d.ini" % i)
        config.write_text("\n".join(lines) + "\n")
        return {"config": config, "v": v,
                "temperature": self.workdir / ("plan-%d-T.csv" % i),
                "fluence": self.workdir / ("plan-%d-phi.csv" % i)}

    def run(self, inp):
        common = ["--config", str(inp["config"]),
                  "--grid", "%d,%d" % PLAN_GRID,
                  "--times", ",".join("%g" % t for t in PLAN_TIMES)]
        codes = {}
        for command in ("temperature", "fluence"):
            codes[command] = cli.main(
                [command, *common, "--out", str(inp[command])])
        return codes

    def expected_rows(self, v):
        nr, nz = PLAN_GRID
        z = np.linspace(-self.geometry.L, self.geometry.L, nz)
        return sum(nr * int(np.count_nonzero(z >= -v * t - 1e-12))
                   for t in PLAN_TIMES)

    def check(self, inp, out):
        problems, arrays = [], {}
        want = self.expected_rows(inp["v"])
        for command, code in out.items():
            if code != cli.EXIT_OK:
                problems.append("%s exited with %d" % (command, code))
                continue
            table = np.loadtxt(inp[command], delimiter=",", skiprows=1,
                               usecols=(0, 1, 2, 4), ndmin=2)
            if table.shape[0] != want:
                problems.append("%s: %d rows, expected %d"
                                % (command, table.shape[0], want))
            if not np.all(np.isfinite(table)):
                problems.append("%s: non-finite values" % command)
            arrays[command] = ("csv", table[:, 3], 1.0)
        return problems, arrays


# ---------------------------------------------------------------------------
# dose-map: damage maps over prebuilt solutions
# ---------------------------------------------------------------------------

# two presets with different fluence branch patterns (980 nm turns the skin
# profile oscillatory); fixed, because a seeded choice would make the work
# per request depend on the seed
DOSE_PRESETS = ("810-15w", "980-15w")
DOSE_GRID = (6, 3)        # radii (fixed per run), axial points per request
DOSE_NT = 201             # history samples per point
# the radii stay within 10% of their cell centres: r sets which Bessel regime
# each mode's argument falls in, and so the cost of a request, and a wide
# jitter made the work per run differ by 40% between seeds
DOSE_R_BAND = 0.1


def check_dose_map(dm, threshold, t_end):
    """Invariants of one damage map that hold for any input."""
    if dm.omega.shape != DOSE_GRID or dm.t_cross.shape != DOSE_GRID:
        return ["map shape %s / %s, expected %s"
                % (dm.omega.shape, dm.t_cross.shape, DOSE_GRID)]
    problems = []
    if not np.all(np.isfinite(dm.omega)):
        problems.append("non-finite dose")
    elif np.any(dm.omega < 0.0):
        problems.append("negative dose")
    crossed = np.isfinite(dm.t_cross)
    if np.any(dm.t_cross[~crossed] != np.inf):
        problems.append("crossing time is nan or -inf")
    if np.any((dm.t_cross[crossed] < 0.0) | (dm.t_cross[crossed] > t_end)):
        problems.append("crossing time outside [0, t_end]")
    if np.any(crossed != (dm.omega >= threshold)):
        problems.append("crossing time finite where the dose does not "
                        "reach the threshold, or the reverse")
    return problems


class DoseMap(Workload):
    """Set-up builds the temperature solutions of DOSE_PRESETS and draws
    one jittered set of radii; each request runs ``damage_map`` on every
    solution with those radii, fresh jittered z points and a seeded
    threshold.  Every request reuses the same solutions and radii.
    """

    name = "dose-map"
    n_fixed = 12
    n_reference = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        self.solutions = []
        for name in DOSE_PRESETS:
            ps = params.preset_params(name)
            sol = fluence.assemble_and_solve(ps)
            self.solutions.append(thermal.build_temperature(ps, sol))
        self.geometry = self.solutions[0].ps.geometry
        self.r = jittered(0.0, self.geometry.r_s, DOSE_GRID[0],
                          rng_for(seed, self.name), band=DOSE_R_BAND)

    def draw(self, i):
        rng = rng_for(self.seed, self.name, i)
        return {"z": jittered(-self.geometry.L, self.geometry.L,
                              DOSE_GRID[1], rng),
                "threshold": 10.0 ** rng.uniform(-1.0, 1.0)}

    def run(self, inp):
        return [damage.damage_map(tsol, self.r, inp["z"],
                                  threshold=inp["threshold"], n_t=DOSE_NT)
                for tsol in self.solutions]

    def check(self, inp, maps):
        problems, arrays = [], {}
        for name, tsol, dm in zip(DOSE_PRESETS, self.solutions, maps):
            t_end = tsol.ps.protocol.t_end
            problems += ["%s: %s" % (name, p) for p in
                         check_dose_map(dm, inp["threshold"], t_end)]
            amp = arrhenius_amplification(tsol.ps)
            arrays["omega-" + name] = ("omega", dm.omega, amp)
            arrays["t_cross-" + name] = ("t_cross", dm.t_cross, amp * t_end)
        return problems, arrays


# ---------------------------------------------------------------------------
# oracle: finite-difference reference solves against the closed form
# ---------------------------------------------------------------------------

# the A5/A7 operating point; the wavelength is fixed because it sets the
# fluence branch pattern and with it the work per request
ORACLE_WAVELENGTH = 810
ORACLE_STEADY_N = 150          # base grid; the refined grid is scale=2
ORACLE_TRANSIENT = dict(nr=120, nz=140, dt=0.25,
                        snapshot_times=(2.5, 5.0, 10.0))
A5_MAX_REL_L2 = 0.02
A5_MIN_SHRINK = 3.0
A5_MAX_SECONDS = 60.0


def transient_rel_l2(temp, res):
    """r-weighted relative L2 gap between the closed-form temperature and
    each FD snapshot, ahead of the tip, normalised by the FD rise."""
    proto = temp.ps.protocol
    rr, zz = res.grid.meshes()
    weight = rr * np.gradient(res.grid.r)[:, None]
    rels, closed = [], []
    for t, fd in zip(res.times, res.snapshots):
        keep = res.grid.z >= -proto.v * t + 1e-9
        an = temp.eval(rr[:, keep], zz[:, keep], t)
        wt = weight[:, keep]
        num = math.sqrt(np.sum(wt * (an - fd[:, keep]) ** 2))
        den = math.sqrt(np.sum(wt * (fd[:, keep] - proto.T_b) ** 2))
        rels.append(num / den)
        closed.append(an)
    return np.array(rels), closed


class Oracle(Workload):
    """Set-up builds the closed-form solution at 810 nm with a seeded power;
    every request runs the steady FD fluence solve on a base and a once-refined
    grid and the backward-Euler transient, then compares each with the
    closed form.  All requests of a run are identical.
    """

    name = "oracle"
    n_fixed = 1
    n_reference = 1

    def __init__(self, seed, workdir):
        rng = rng_for(seed, self.name)
        ps = params.default_params(ORACLE_WAVELENGTH,
                                   power=rng.uniform(10.0, 15.0))
        self.sol = fluence.assemble_and_solve(ps)
        self.temp = thermal.build_temperature(ps, self.sol)

    def reference_index(self, i):
        return 0

    def draw(self, i):
        return None

    def run(self, inp):
        ps = self.temp.ps
        base = fdoracle.solve_steady_fluence(ps, self.sol, nr=ORACLE_STEADY_N,
                                             nz=ORACLE_STEADY_N)
        fine = fdoracle.solve_steady_fluence(ps, self.sol, nr=ORACLE_STEADY_N,
                                             nz=ORACLE_STEADY_N, scale=2)
        tr = fdoracle.solve_transient_temperature(ps, self.sol,
                                                  **ORACLE_TRANSIENT)
        rels, closed = transient_rel_l2(self.temp, tr)
        return {"base": base, "fine": fine, "transient": tr,
                "a7_rel_l2": rels, "closed": closed}

    def check(self, inp, out):
        problems = []
        base, fine, tr = out["base"], out["fine"], out["transient"]
        fields = {"steady_fd": base.phi_fd, "steady_ref": base.phi_ref,
                  "fine_fd": fine.phi_fd, "fine_ref": fine.phi_ref,
                  "transient_fd": tr.snapshots,
                  "transient_closed": np.concatenate(
                      [a.ravel() for a in out["closed"]])}
        for key, arr in fields.items():
            if not np.all(np.isfinite(arr)):
                problems.append("%s: non-finite values" % key)
        want = (len(ORACLE_TRANSIENT["snapshot_times"]), *tr.grid.shape)
        if tr.snapshots.shape != want:
            problems.append("transient snapshots %s, expected %s"
                            % (tr.snapshots.shape, want))
        shrink = base.rel_l2 / fine.rel_l2
        if not (base.rel_l2 <= A5_MAX_REL_L2 and shrink >= A5_MIN_SHRINK
                and base.seconds + fine.seconds <= A5_MAX_SECONDS):
            problems.append("A5 gate: rel L2 %.4g, shrink %.3g, %.1f s"
                            % (base.rel_l2, shrink,
                               base.seconds + fine.seconds))
        if not np.all(np.isfinite(out["a7_rel_l2"])):
            problems.append("A7 rel L2 not finite")
        arrays = {key: ("field", arr, 1.0) for key, arr in fields.items()}
        arrays["steady_rel_l2"] = (
            "rel_l2", np.array([base.rel_l2, fine.rel_l2]), 1.0)
        arrays["a7_rel_l2"] = ("value", out["a7_rel_l2"], 1.0)
        return problems, arrays


WORKLOADS = {cls.name: cls for cls in (Plan, DoseMap, Oracle)}
