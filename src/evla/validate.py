"""End-to-end acceptance checks, shared by the CLI and the test suite.

Each criterion measures something cross-cutting (closed form vs tables,
closed form vs reference solver, invariants of the dose bookkeeping) and
returns a CriterionResult with the measured numbers formatted for one
status line.  Criterion A7 is expected to fail: the forced temperature
construction grows without bound in the co-moving frame while the
reference integration stays bounded, and the result records the measured
mismatch instead of hiding it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import damage, fdoracle, specfn, thermal
from .fluence import assemble_and_solve, branch_factors, interface_jumps
from .layered import IK
from .params import OUTER, ParameterSet, Region, default_params

# two-digit published constant-temperature crossing times [s]
PUBLISHED_CRIT_TIMES = {
    50.0: (3.4e5, 5.8e5, 5.8e5, 1.1e3),
    60.0: (2.3e3, 4.7e3, 4.7e3, 9.5e-1),
    70.0: (2.1e1, 5.1e1, 5.1e1, 1.3e-3),
    80.0: (2.4e-1, 7.2e-1, 7.2e-1, 2.5e-6),
    90.0: (3.6e-3, 1.3e-2, 1.3e-2, 6.9e-9),
    100.0: (6.8e-5, 2.8e-4, 2.8e-4, 2.6e-11),
}

# expected radial branch of the mu_eff family per wavelength
EXPECTED_BRANCH_MODIFIED = {
    810: {Region.WALL: True, Region.PAD: False, Region.SKIN: True},
    980: {Region.WALL: True, Region.PAD: False, Region.SKIN: False},
    1064: {Region.WALL: True, Region.PAD: False, Region.SKIN: True},
}


@dataclass
class CriterionResult:
    name: str
    title: str
    passed: bool
    measured: str
    limit: str
    seconds: float
    expected_failure: bool = False

    def line(self):
        tag = "PASS" if self.passed else (
            "FAIL (expected)" if self.expected_failure else "FAIL")
        return "%-4s %-34s %-15s measured %s | limit %s [%.1fs]" % (
            self.name, self.title, tag, self.measured, self.limit,
            self.seconds)


class _Ctx:
    """Lazily built shared state so criteria can be run individually."""

    def __init__(self, ps: ParameterSet = None):
        self._ps = ps
        self._cache = {}

    @property
    def ps(self):
        if self._ps is None:
            self._ps = default_params(810, 15.0)
        return self._ps

    @property
    def sol(self):
        if "sol" not in self._cache:
            self._cache["sol"] = assemble_and_solve(self.ps)
        return self._cache["sol"]

    @property
    def temp(self):
        if "temp" not in self._cache:
            self._cache["temp"] = thermal.build_temperature(self.ps,
                                                            self.sol)
        return self._cache["temp"]


def _timed(fn):
    def wrapper(ctx):
        t0 = time.perf_counter()
        out = fn(ctx)
        out.seconds = time.perf_counter() - t0
        return out
    return wrapper


@_timed
def criterion_a1(ctx):
    """Constant-temperature crossing times against the published table."""
    rows = dict(damage.crit_time_table(ctx.ps))
    worst = 0.0
    mats = ("blood", "wall", "pad", "skin")
    for temp, want in PUBLISHED_CRIT_TIMES.items():
        for mat, w in zip(mats, want):
            worst = max(worst, abs(rows[temp][mat] - w) / w)
    return CriterionResult(
        "A1", "damage times vs published", worst <= 0.05,
        "worst rel dev %.3f over 24 entries" % worst, "<= 0.05", 0.0)


@_timed
def criterion_a2(ctx):
    """Bessel kernel Wronskian identities across four decades."""
    x = np.logspace(math.log10(0.01), math.log10(50.0), 1000)
    w_std = specfn.wronskian_standard(x)
    w_mod = specfn.wronskian_modified(x)
    rel_std = np.max(np.abs(w_std * (math.pi * x) / 2.0 - 1.0))
    rel_mod = np.max(np.abs(w_mod * x - 1.0))
    worst = max(rel_std, rel_mod)
    return CriterionResult(
        "A2", "Wronskian identities", worst <= 1e-10,
        "max rel residual %.2e (std %.1e, mod %.1e)" % (worst, rel_std,
                                                        rel_mod),
        "<= 1e-10 at 1000 pts", 0.0)


@_timed
def criterion_a3(ctx):
    """Radial branch selection of the mu_eff family per wavelength."""
    mismatches = []
    for wl, want in EXPECTED_BRANCH_MODIFIED.items():
        kind = branch_factors(default_params(wl, 15.0))[0]
        for reg, modified in want.items():
            if (kind[OUTER.index(reg)] == IK) != modified:
                mismatches.append("%d/%s" % (wl, reg.value))
    return CriterionResult(
        "A3", "radial branch table", not mismatches,
        "mismatches: %s" % (", ".join(mismatches) if mismatches else
                            "none (9 regions x 3 wavelengths checked)"),
        "exact", 0.0)


@_timed
def criterion_a4(ctx):
    """Value/flux continuity of the composite field along 100 z stations."""
    sol = ctx.sol
    z = np.linspace(0.0, ctx.ps.geometry.L, 100)
    mu_eff, mu_t = sol.axial
    jumps = interface_jumps(sol, weights=np.stack([np.exp(-mu_eff * z),
                                                   np.exp(-mu_t * z)]))
    worst = max(v for pair in jumps.values() for v in pair if v is not None)
    return CriterionResult(
        "A4", "interface continuity", worst <= 1e-9,
        "worst rel jump %.2e" % worst, "<= 1e-9 at 100 z pts", 0.0)


@_timed
def criterion_a5(ctx):
    """Closed-form fluence against the conservative reference solve."""
    base = fdoracle.solve_steady_fluence(ctx.ps, ctx.sol, nr=300, nz=300)
    fine = fdoracle.solve_steady_fluence(ctx.ps, ctx.sol, nr=300, nz=300,
                                         scale=2)
    ratio = base.rel_l2 / fine.rel_l2
    ok = (base.rel_l2 <= 0.02 and ratio >= 3.0
          and base.seconds + fine.seconds <= 60.0)
    return CriterionResult(
        "A5", "reference-solver agreement", ok,
        "rel L2 %.4f%%, refine shrink x%.2f, %.1fs total"
        % (100 * base.rel_l2, ratio, base.seconds + fine.seconds),
        "<= 2%, shrink >= 3x, <= 60s", 0.0)


@_timed
def criterion_a6(ctx):
    """Truncation orders of the discrete operator on the closed forms."""
    ps, sol = ctx.ps, ctx.sol
    geo = ps.geometry
    mu_eff = sol.axial[0]
    orders = {}

    probe = fdoracle.fluence_residual_probe(ps, sol, nr=120, nz=120)
    for reg, order in probe.orders.items():
        orders["phi/" + reg.value] = order

    diff_of = {reg: ps.thermal_of(reg).k for reg in Region}

    def forced_probe(family):
        pick = 0 if family == "eff" else 1
        mu = sol.axial[pick]

        def fld(rr, zz):
            # one radial table per probe grid; rr rows are constant radii
            prof = sol.radial.values(rr[:, 0])[pick]
            return prof[:, None] * np.exp(
                -mu * (zz + ps.protocol.v * ps.protocol.t_end))

        react = {}
        for reg in Region:
            if reg is Region.FIBER_COLUMN:
                lam = mu ** 2
            elif reg is Region.BLOOD_ANNULUS:
                lam = mu_eff ** 2
            else:
                lam = ps.derived_of(reg).mu_eff ** 2
            react[reg] = ps.thermal_of(reg).k * lam
        return fdoracle.residual_probe(ps, fld, diff_of, react,
                                       nr=120, nz=120)

    for family in ("eff", "t"):
        for reg, order in forced_probe(family).orders.items():
            orders["forced_%s/%s" % (family, reg.value)] = order

    c_b = ps.blood_thermal.c_p
    for idx in (0, 4, 12):
        zeta, mode = ctx.temp.zeta[idx], ctx.temp.modes.rows([idx])
        react = {reg: (c_b * ps.thermal_of(reg).omega
                       + ps.thermal_of(reg).rho_cp * zeta)
                 for reg in Region}
        probe = fdoracle.residual_probe(
            ps, lambda rr, zz, mode=mode: mode.values(rr)[0], diff_of, react,
            rmin=geo.r_i, nr=120, nz=24)
        for reg, order in probe.orders.items():
            orders["mode%d/%s" % (idx, reg.value)] = order

    lo = min(orders.values())
    hi = max(orders.values())
    bad = {k: round(v, 2) for k, v in orders.items()
           if not 1.8 <= v <= 2.2}
    return CriterionResult(
        "A6", "truncation orders", not bad,
        "%d probes, orders in [%.2f, %.2f]%s"
        % (len(orders), lo, hi, ("; out of window: %s" % bad) if bad
           else ""),
        "all in [1.8, 2.2]", 0.0)


@_timed
def criterion_a7(ctx):
    """Temperature construction against the reference transient solve.

    Expected to fail: the forced terms grow like exp[zeta t] with zeta > 0
    and additionally carry exp[+mu v t] through the pulled-back axial
    factor, while the bounded-source reference integration saturates.
    """
    ps, sol, temp = ctx.ps, ctx.sol, ctx.temp
    proto = ps.protocol
    res = fdoracle.solve_transient_temperature(
        ps, sol, nr=120, nz=140, dt=0.1, snapshot_times=(2.5, 5.0, 10.0))
    rels = []
    for t, fd in zip(res.times, res.snapshots):
        keep = res.grid.z >= -proto.v * t + 1e-9
        rr, zz = res.grid.meshes()
        an = temp.eval(rr[:, keep], zz[:, keep], t)
        wt = (rr * np.gradient(res.grid.r)[:, None])[:, keep]
        num = np.sqrt(np.sum(wt * (an - fd[:, keep]) ** 2))
        den = np.sqrt(np.sum(wt * (fd[:, keep] - proto.T_b) ** 2))
        rels.append(num / den)
    worst = max(rels)
    return CriterionResult(
        "A7", "transient reference match", worst <= 0.05,
        "rel L2 at t=(2.5,5,10): " + ", ".join("%.3g" % r for r in rels),
        "<= 0.05", 0.0, expected_failure=True)


@_timed
def criterion_a8(ctx):
    """Initial uniformity relative to the peak rise at the end time."""
    ps, temp = ctx.ps, ctx.temp
    geo, proto = ps.geometry, ps.protocol
    r = np.linspace(0.0, geo.r_s, 240)
    z0 = np.linspace(0.0, geo.L, 60)
    start_dev = float(np.max(np.abs(
        temp.eval(r[:, None], z0[None, :], 0.0) - proto.T_b)))
    z1 = np.linspace(-geo.L, geo.L, 120)
    peak_rise = float(np.max(np.abs(
        temp.eval(r[:, None], z1[None, :], proto.t_end) - proto.T_b)))
    ratio = start_dev / (0.01 * peak_rise)
    return CriterionResult(
        "A8", "uniform start vs peak rise", start_dev <= 0.01 * peak_rise,
        "start dev %.3f degC, peak rise %.3g degC (bound is vacuously "
        "wide: the divergent forced terms set the peak)" % (start_dev,
                                                            peak_rise),
        "dev <= 1%% of rise (ratio %.2g)" % ratio, 0.0)


@_timed
def criterion_a9(ctx):
    """Dose bookkeeping invariants."""
    th = ctx.ps.blood_thermal
    times = np.linspace(0.0, 10.0, 401)
    temps = 55.0 + 8.0 * np.sin(0.7 * times)
    whole = damage.damage_integral(times, temps, th.A, th.E_a)
    split = (damage.damage_integral(times[:201], temps[:201], th.A, th.E_a)
             + damage.damage_integral(times[200:], temps[200:], th.A,
                                      th.E_a))
    add_err = abs(split - whole) / whole
    cum = damage.cumulative_damage(times, temps, th.A, th.E_a)
    monotone = bool(np.all(np.diff(cum) >= 0.0))
    sandwich = True
    for n in (4, 16, 64):
        tt = np.linspace(0.0, 6.0, n + 1)
        mono_temps = 45.0 + 5.0 * tt
        lo, hi = damage.riemann_bounds(tt, mono_temps, th.A, th.E_a)
        mid = damage.damage_integral(tt, mono_temps, th.A, th.E_a)
        sandwich = sandwich and lo <= mid <= hi
    t_crit = damage.isothermal_crossing_time(65.0, th.A, th.E_a)
    inv = damage.damage_integral(np.linspace(0.0, t_crit, 65),
                                 np.full(65, 65.0), th.A, th.E_a)
    closed = abs(inv - 1.0)
    ok = add_err <= 1e-12 and monotone and sandwich and closed <= 1e-12
    return CriterionResult(
        "A9", "dose invariants", ok,
        "additivity %.1e, closed-form %.1e, monotone %s, sandwich %s"
        % (add_err, closed, monotone, sandwich),
        "errors <= 1e-12", 0.0)


@_timed
def criterion_a10(ctx):
    """Tip-tracking of the on-axis maximum and linear power scaling."""
    sol = ctx.sol
    proto = ctx.ps.protocol
    tip_ok = True
    for t in (0.0, proto.t_end):
        z = -proto.v * t + np.linspace(0.0, 6.0, 2001)
        vals = sol.eval(0.0, z, t)
        tip_ok = tip_ok and int(np.argmax(vals)) == 0
    ps_a = default_params(980, 15.0)
    ps_b = default_params(980, 10.0)
    sol_a = assemble_and_solve(ps_a)
    sol_b = assemble_and_solve(ps_b)
    r = np.array([0.1, 2.0, 4.0, 9.0, 16.0])
    ratios = sol_a.eval(r, 1.5, 0.0) / sol_b.eval(r, 1.5, 0.0)
    scale_err = float(np.max(np.abs(ratios - 1.5)))
    ok = tip_ok and scale_err <= 1e-12
    return CriterionResult(
        "A10", "tip max and power scaling", ok,
        "on-axis max at tip: %s; 15W/10W ratio dev %.1e"
        % (tip_ok, scale_err), "argmax at z=-vt; dev <= 1e-12", 0.0)


CRITERIA = {
    "a1": criterion_a1, "a2": criterion_a2, "a3": criterion_a3,
    "a4": criterion_a4, "a5": criterion_a5, "a6": criterion_a6,
    "a7": criterion_a7, "a8": criterion_a8, "a9": criterion_a9,
    "a10": criterion_a10,
}


def run(names=None, ps: ParameterSet = None):
    """Run the requested criteria (all by default) sharing one context."""
    ctx = _Ctx(ps)
    if names is None:
        names = list(CRITERIA)
    out = []
    for name in names:
        key = name.lower()
        if key not in CRITERIA:
            raise KeyError("unknown criterion %r (known: %s)"
                           % (name, ", ".join(CRITERIA)))
        out.append(CRITERIA[key](ctx))
    return out
