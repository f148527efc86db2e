"""Steady-state analytic light fluence over the layered cylinder.

The field is a sum of two exponential families in the co-moving coordinate
(z + v t):

  * the mu_eff family, amplitude B0, flat in r through the lumen and
    carried outward by I0/K0 or J0/Y0 profiles (branch decided by the sign
    of (mu_eff_j^2 - mu_eff^2));
  * the mu_t family, forced by the Beer-Lambert source in the fiber
    column, with J0/Y0 radial profiles everywhere outside the column.

The abstract coefficients multiplying the radial profiles are fixed by
value/flux continuity at the material interfaces; the paper-level
construction leaves the two linear systems implicit, so their assembly
here is documented row by row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfn
from .params import (
    ConfigError, ParameterSet, Region, derive_optics, region_index,
)

OUTER_REGIONS = (Region.WALL, Region.PAD, Region.SKIN)


class SolverError(RuntimeError):
    """Linear-system assembly or post-solve residual failure."""


class SingularSystem(SolverError):
    def __init__(self, family, cond):
        super().__init__("interface system (%s family) is singular or "
                         "near-singular, cond ~ %.3e" % (family, cond))
        self.family = family
        self.cond = cond


class NonPositiveRadicand(ConfigError):
    """A radial-factor square root lost positivity for these parameters."""

    def __init__(self, region, family, value):
        super().__init__(
            "non-positive radicand in %s factor of region %s: %g "
            "(parameters outside the validity regime of the closed form)"
            % (family, region.value, value))
        self.region = region
        self.family = family
        self.value = value


class DomainError(ValueError):
    """Evaluation point outside the domain of validity."""


def distinct_radii(r):
    """(ru, inv): the sorted distinct radii of r and the index array of
    r's shape that gathers them back, ru[inv] == r.  Radial profiles are
    evaluated once per entry of ru."""
    ru, inv = np.unique(r, return_inverse=True)
    return ru, inv.reshape(np.shape(r))


@dataclass(frozen=True)
class SourceTerm:
    """Beer-Lambert column source S = S0 exp[-mu_t (z+vt)] for r < r_f."""

    S0: float       # W/mm^3
    mu_t: float     # 1/mm, blood
    v: float        # mm/s
    r_f: float      # mm

    def eval(self, r, z, t):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        amp = np.where(r < self.r_f, self.S0, 0.0)
        return amp * np.exp(-self.mu_t * (z + self.v * t))


def build_source(protocol, blood_optics, r_f=0.3) -> SourceTerm:
    """Column source amplitude S0 from the delivered power.

    S0 folds the bare-fiber irradiance P/(pi r_f^2) with the scattering
    injection factor mu_s (mu_t + g mu_a)/(mu_a + mu_s'); at g = 0 the
    factor reduces to mu_s.
    """
    d = derive_optics(blood_optics)
    s0 = (protocol.P_laser / (math.pi * r_f ** 2)) \
        * d.mu_s * (d.mu_t + blood_optics.g * blood_optics.mu_a) \
        / (blood_optics.mu_a + blood_optics.mu_s_reduced)
    return SourceTerm(S0=s0, mu_t=d.mu_t, v=protocol.v, r_f=r_f)


class BranchKind(enum.Enum):
    MODIFIED = "modified"   # I0 / K0
    STANDARD = "standard"   # J0 / Y0


@dataclass(frozen=True)
class BranchFactors:
    """kappa (mu_eff family) and beta (mu_t family) radial wavenumbers."""

    kappa: dict     # Region -> float [1/mm], outer regions
    w_kind: dict    # Region -> BranchKind, outer regions
    beta: dict      # Region -> float [1/mm], annulus + outer regions


def branch_factors(ps: ParameterSet) -> BranchFactors:
    blood = derive_optics(ps.blood_optics)
    kappa, w_kind, beta = {}, {}, {}

    b2 = blood.mu_t ** 2 - blood.mu_eff ** 2
    if b2 <= 0:
        raise NonPositiveRadicand(Region.BLOOD_ANNULUS, "beta", b2)
    beta[Region.BLOOD_ANNULUS] = math.sqrt(b2)

    for region in OUTER_REGIONS:
        mu_eff_j = ps.derived_of(region).mu_eff
        k2 = mu_eff_j ** 2 - blood.mu_eff ** 2
        if k2 == 0.0:
            raise NonPositiveRadicand(region, "kappa", k2)
        w_kind[region] = (BranchKind.MODIFIED if k2 > 0
                          else BranchKind.STANDARD)
        kappa[region] = math.sqrt(abs(k2))

        b2 = blood.mu_t ** 2 - mu_eff_j ** 2
        if b2 <= 0:
            raise NonPositiveRadicand(region, "beta", b2)
        beta[region] = math.sqrt(b2)

    return BranchFactors(kappa=kappa, w_kind=w_kind, beta=beta)


def _w_pair(kind: BranchKind):
    """(W3, W4) radial basis and derivative factors for one branch kind.

    Returns value functions of the scaled argument x = kappa*r and
    derivative functions already including the chain factor d/dr = kappa *
    d/dx:  d/dr I0(kr) = k I1, d/dr K0(kr) = -k K1, d/dr J0(kr) = -k J1,
    d/dr Y0(kr) = -k Y1 (the caller multiplies by kappa).
    """
    if kind is BranchKind.MODIFIED:
        return (specfn.i0, specfn.k0,
                lambda x: specfn.i1(x), lambda x: -specfn.k1(x))
    return (specfn.j0, specfn.y0,
            lambda x: -specfn.j1(x), lambda x: -specfn.y1(x))


@dataclass(frozen=True)
class FluenceSolution:
    """Assembled coefficients; evaluable at (r, z, t) with z >= -v t."""

    ps: ParameterSet
    src: SourceTerm
    branch: BranchFactors
    P_in: float                  # particular amplitude S0/(D mu_t^2 - mu_a)
    B0: float
    B1: float
    B2: float
    B3: dict                     # Region -> float, mu_eff family
    B4: dict
    B5: dict                     # Region -> float, mu_t family
    B6: dict
    normalization: str
    closure: str
    cond_eff: float
    cond_t: float

    # -- radial profiles per family ------------------------------------

    def profile_eff(self, region: Region, r):
        """r-dependent factor of the mu_eff family in the given region."""
        r = np.asarray(r, dtype=float)
        if region in (Region.FIBER_COLUMN, Region.BLOOD_ANNULUS):
            return np.full_like(r, self.B0)
        kind = self.branch.w_kind[region]
        kap = self.branch.kappa[region]
        w3, w4, _, _ = _w_pair(kind)
        return self.B3[region] * w3(kap * r) + self.B4[region] * w4(kap * r)

    def profile_eff_deriv(self, region: Region, r):
        r = np.asarray(r, dtype=float)
        if region in (Region.FIBER_COLUMN, Region.BLOOD_ANNULUS):
            return np.zeros_like(r)
        kind = self.branch.w_kind[region]
        kap = self.branch.kappa[region]
        _, _, d3, d4 = _w_pair(kind)
        return kap * (self.B3[region] * d3(kap * r)
                      + self.B4[region] * d4(kap * r))

    def profile_t(self, region: Region, r):
        """r-dependent factor of the mu_t family in the given region."""
        r = np.asarray(r, dtype=float)
        if region is Region.FIBER_COLUMN:
            return np.full_like(r, -self.P_in)
        if region is Region.BLOOD_ANNULUS:
            b = self.branch.beta[region]
            return self.B1 * specfn.j0(b * r) + self.B2 * specfn.y0(b * r)
        b = self.branch.beta[region]
        return (self.B5[region] * specfn.j0(b * r)
                + self.B6[region] * specfn.y0(b * r))

    def profile_t_deriv(self, region: Region, r):
        r = np.asarray(r, dtype=float)
        if region is Region.FIBER_COLUMN:
            return np.zeros_like(r)
        if region is Region.BLOOD_ANNULUS:
            b = self.branch.beta[region]
            return -b * (self.B1 * specfn.j1(b * r)
                         + self.B2 * specfn.y1(b * r))
        b = self.branch.beta[region]
        return -b * (self.B5[region] * specfn.j1(b * r)
                     + self.B6[region] * specfn.y1(b * r))

    def profiles(self, r):
        """(mu_eff profile, mu_t profile) at radii r in [0, r_s], each in the
        region that contains it; one vector call per region and family."""
        r = np.asarray(r, dtype=float)
        p_eff = np.empty_like(r)
        p_t = np.empty_like(r)
        reg_of = region_index(r, self.ps.geometry)
        for k, region in enumerate(Region):
            pick = reg_of == k
            if np.any(pick):
                p_eff[pick] = self.profile_eff(region, r[pick])
                p_t[pick] = self.profile_t(region, r[pick])
        return p_eff, p_t

    # -- full field ----------------------------------------------------

    def _check_domain(self, r, z, t):
        geo = self.ps.geometry
        proto = self.ps.protocol
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))
                and np.all(np.isfinite(t))):
            raise DomainError("non-finite r, z or t")
        if np.any(r < 0) or np.any(r > geo.r_s + 1e-12):
            raise DomainError("r outside [0, r_s]")
        if np.any(t < 0) or np.any(t > proto.t_end):
            raise DomainError("t outside [0, %g]" % proto.t_end)
        if np.any(z > geo.L):
            raise DomainError("z beyond the treated segment (z > L)")
        tip = -proto.v * t
        if np.any(z < tip - 1e-12):
            raise DomainError(
                "z behind the fiber tip (z < -v t): the steady form is "
                "only valid ahead of the source column")

    def eval(self, r, z, t):
        """Fluence [W/mm^2] at (r, z, t); arrays broadcast."""
        r, z, t = np.broadcast_arrays(
            np.asarray(r, dtype=float), np.asarray(z, dtype=float),
            np.asarray(t, dtype=float))
        self._check_domain(r, z, t)
        blood = derive_optics(self.ps.blood_optics)
        ru, inv = distinct_radii(r)
        p_eff, p_t = self.profiles(ru)
        zeta = z + self.ps.protocol.v * t      # co-moving coordinate
        out = (p_eff[inv] * np.exp(-blood.mu_eff * zeta)
               + p_t[inv] * np.exp(-blood.mu_t * zeta))
        if out.ndim == 0:
            return float(out)
        return out

    def coefficient_rows(self):
        """(family, region, name, value) rows for the reproducibility dump."""
        rows = [("mu_eff", "lumen", "B0", self.B0),
                ("mu_t", "fiber_column", "P_in", self.P_in),
                ("mu_t", "blood_annulus", "B1", self.B1),
                ("mu_t", "blood_annulus", "B2", self.B2)]
        for region in OUTER_REGIONS:
            rows.append(("mu_eff", region.value, "B3", self.B3[region]))
            rows.append(("mu_eff", region.value, "B4", self.B4[region]))
            rows.append(("mu_t", region.value, "B5", self.B5[region]))
            rows.append(("mu_t", region.value, "B6", self.B6[region]))
        rows.append(("mu_eff", "", "kappa_wall",
                     self.branch.kappa[Region.WALL]))
        rows.append(("mu_eff", "", "kappa_pad",
                     self.branch.kappa[Region.PAD]))
        rows.append(("mu_eff", "", "kappa_skin",
                     self.branch.kappa[Region.SKIN]))
        for region, b in self.branch.beta.items():
            rows.append(("mu_t", region.value, "beta", b))
        return rows


def _scaled_solve(m, rhs, family):
    """Dense solve with column equilibration and a 1-norm condition check."""
    m = np.asarray(m, dtype=float)
    scale = np.max(np.abs(m), axis=0)
    scale[scale == 0.0] = 1.0
    ms = m / scale
    cond = np.linalg.cond(ms, 1)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularSystem(family, cond)
    x = np.linalg.solve(ms, rhs)
    return x / scale, cond


def assemble_and_solve(ps: ParameterSet, normalization="max_at_tip",
                       closure="zero_value") -> FluenceSolution:
    """Build both interface systems and return the full coefficient set.

    normalization fixes the homogeneous-family amplitude B0:
      * "max_at_tip": the on-axis axial derivative vanishes at the tip,
        B0 mu_eff = P_in mu_t, so the on-axis profile peaks exactly at
        z = -v t and decays monotonically ahead of it.
      * "tip_irradiance": on-axis tip fluence equals the bare-fiber
        irradiance, B0 = P/(pi r_f^2) + P_in (puts the maximum a fraction
        of a millimetre ahead of the tip).

    closure applies to the mu_t family at r_s: "zero_value" or
    "zero_flux".  The mu_eff family admits no closure row once B0 is
    pinned (its six interface conditions use up the six outer
    coefficients); the induced r_s mismatch is the K0/J0 tail of that
    family and is reported by the continuity/closure diagnostics.
    """
    geo = ps.geometry
    proto = ps.protocol
    blood = derive_optics(ps.blood_optics)
    branch = branch_factors(ps)

    src = build_source(proto, ps.blood_optics, r_f=geo.r_f)
    s0 = src.S0

    excess = blood.D * blood.mu_t ** 2 - ps.blood_optics.mu_a
    if excess <= 0:
        raise ConfigError("D mu_t^2 - mu_a must be positive for blood")
    p_in = s0 / excess

    if normalization == "max_at_tip":
        b0 = p_in * blood.mu_t / blood.mu_eff
    elif normalization == "tip_irradiance":
        b0 = proto.P_laser / (math.pi * geo.r_f ** 2) + p_in
    else:
        raise ConfigError("unknown normalization %r" % normalization)

    d_of = {region: ps.derived_of(region).D for region in Region}

    # --- mu_eff family: 6 unknowns (B3, B4 per outer region) ----------
    # Continuity rows at r_i (against the flat lumen value B0 and zero
    # lumen flux), then value/flux rows at the wall|pad and pad|skin
    # interfaces.  Unknown order: B3w B4w B3p B4p B3s B4s.
    pair = {region: _w_pair(branch.w_kind[region])
            for region in OUTER_REGIONS}

    def wv(region, idx, r):
        return pair[region][idx](branch.kappa[region] * r)

    def wd(region, idx, r):
        return branch.kappa[region] * pair[region][2 + idx](
            branch.kappa[region] * r)

    m = np.zeros((6, 6))
    rhs = np.zeros(6)
    # value and flux at r_i (blood | wall)
    m[0, 0], m[0, 1] = wv(Region.WALL, 0, geo.r_i), wv(Region.WALL, 1,
                                                       geo.r_i)
    rhs[0] = b0
    m[1, 0] = d_of[Region.WALL] * wd(Region.WALL, 0, geo.r_i)
    m[1, 1] = d_of[Region.WALL] * wd(Region.WALL, 1, geo.r_i)
    rhs[1] = 0.0
    # value and flux at r_w (wall | pad)
    m[2, 0], m[2, 1] = wv(Region.WALL, 0, geo.r_w), wv(Region.WALL, 1,
                                                       geo.r_w)
    m[2, 2], m[2, 3] = -wv(Region.PAD, 0, geo.r_w), -wv(Region.PAD, 1,
                                                        geo.r_w)
    m[3, 0] = d_of[Region.WALL] * wd(Region.WALL, 0, geo.r_w)
    m[3, 1] = d_of[Region.WALL] * wd(Region.WALL, 1, geo.r_w)
    m[3, 2] = -d_of[Region.PAD] * wd(Region.PAD, 0, geo.r_w)
    m[3, 3] = -d_of[Region.PAD] * wd(Region.PAD, 1, geo.r_w)
    # value and flux at r_p (pad | skin)
    m[4, 2], m[4, 3] = wv(Region.PAD, 0, geo.r_p), wv(Region.PAD, 1,
                                                      geo.r_p)
    m[4, 4], m[4, 5] = -wv(Region.SKIN, 0, geo.r_p), -wv(Region.SKIN, 1,
                                                         geo.r_p)
    m[5, 2] = d_of[Region.PAD] * wd(Region.PAD, 0, geo.r_p)
    m[5, 3] = d_of[Region.PAD] * wd(Region.PAD, 1, geo.r_p)
    m[5, 4] = -d_of[Region.SKIN] * wd(Region.SKIN, 0, geo.r_p)
    m[5, 5] = -d_of[Region.SKIN] * wd(Region.SKIN, 1, geo.r_p)

    x_eff, cond_eff = _scaled_solve(m, rhs, "mu_eff")
    b3 = {Region.WALL: x_eff[0], Region.PAD: x_eff[2],
          Region.SKIN: x_eff[4]}
    b4 = {Region.WALL: x_eff[1], Region.PAD: x_eff[3],
          Region.SKIN: x_eff[5]}

    # --- mu_t family: 8 unknowns ---------------------------------------
    # B1 B2 B5w B6w B5p B6p B5s B6s.  Value row at r_f against the flat
    # column value -P_in (no flux row there: the column ansatz is flat in
    # r, so a flux row would over-determine the square system), six
    # continuity rows, and the closure row at r_s.
    bb = branch.beta[Region.BLOOD_ANNULUS]

    def jv(b, r):
        return specfn.j0(b * r), specfn.y0(b * r)

    def jd(b, r):
        return -b * specfn.j1(b * r), -b * specfn.y1(b * r)

    m = np.zeros((8, 8))
    rhs = np.zeros(8)
    m[0, 0], m[0, 1] = jv(bb, geo.r_f)
    rhs[0] = -p_in
    # value and flux at r_i (annulus | wall)
    bw = branch.beta[Region.WALL]
    m[1, 0], m[1, 1] = jv(bb, geo.r_i)
    m[1, 2], m[1, 3] = [-c for c in jv(bw, geo.r_i)]
    db = d_of[Region.BLOOD_ANNULUS]
    m[2, 0], m[2, 1] = [db * c for c in jd(bb, geo.r_i)]
    m[2, 2], m[2, 3] = [-d_of[Region.WALL] * c for c in jd(bw, geo.r_i)]
    # value and flux at r_w (wall | pad)
    bp = branch.beta[Region.PAD]
    m[3, 2], m[3, 3] = jv(bw, geo.r_w)
    m[3, 4], m[3, 5] = [-c for c in jv(bp, geo.r_w)]
    m[4, 2], m[4, 3] = [d_of[Region.WALL] * c for c in jd(bw, geo.r_w)]
    m[4, 4], m[4, 5] = [-d_of[Region.PAD] * c for c in jd(bp, geo.r_w)]
    # value and flux at r_p (pad | skin)
    bs = branch.beta[Region.SKIN]
    m[5, 4], m[5, 5] = jv(bp, geo.r_p)
    m[5, 6], m[5, 7] = [-c for c in jv(bs, geo.r_p)]
    m[6, 4], m[6, 5] = [d_of[Region.PAD] * c for c in jd(bp, geo.r_p)]
    m[6, 6], m[6, 7] = [-d_of[Region.SKIN] * c for c in jd(bs, geo.r_p)]
    # closure at r_s
    if closure == "zero_value":
        m[7, 6], m[7, 7] = jv(bs, geo.r_s)
    elif closure == "zero_flux":
        m[7, 6], m[7, 7] = jd(bs, geo.r_s)
    else:
        raise ConfigError("unknown closure %r" % closure)
    rhs[7] = 0.0

    x_t, cond_t = _scaled_solve(m, rhs, "mu_t")
    b1, b2 = x_t[0], x_t[1]
    b5 = {Region.WALL: x_t[2], Region.PAD: x_t[4], Region.SKIN: x_t[6]}
    b6 = {Region.WALL: x_t[3], Region.PAD: x_t[5], Region.SKIN: x_t[7]}

    sol = FluenceSolution(ps=ps, src=src, branch=branch, P_in=p_in, B0=b0,
                          B1=b1, B2=b2, B3=b3, B4=b4, B5=b5, B6=b6,
                          normalization=normalization, closure=closure,
                          cond_eff=cond_eff, cond_t=cond_t)
    _residual_check(sol)
    return sol


def interface_jumps(sol: FluenceSolution):
    """Relative value/flux jumps of both families at every interface.

    Returns {interface_name: (value_jump_rel, flux_jump_rel)} where flux
    means D dphi/dr.  The r_f entry reports only the value jump of the
    composite field (the construction imposes no flux condition there).
    """
    geo = sol.ps.geometry
    out = {}

    def at(region_in, region_out, r):
        v_in = (sol.profile_eff(region_in, r) + sol.profile_t(region_in, r))
        v_out = (sol.profile_eff(region_out, r)
                 + sol.profile_t(region_out, r))
        d_in = sol.ps.derived_of(region_in).D
        d_out = sol.ps.derived_of(region_out).D
        f_in = d_in * (sol.profile_eff_deriv(region_in, r)
                       + sol.profile_t_deriv(region_in, r))
        f_out = d_out * (sol.profile_eff_deriv(region_out, r)
                         + sol.profile_t_deriv(region_out, r))
        scale_v = max(abs(float(v_in)), abs(float(v_out)), 1e-300)
        scale_f = max(abs(float(f_in)), abs(float(f_out)), 1e-30)
        return (abs(float(v_in) - float(v_out)) / scale_v,
                abs(float(f_in) - float(f_out)) / scale_f)

    vj, _ = at(Region.FIBER_COLUMN, Region.BLOOD_ANNULUS, geo.r_f)
    out["r_f"] = (vj, None)
    out["r_i"] = at(Region.BLOOD_ANNULUS, Region.WALL, geo.r_i)
    out["r_w"] = at(Region.WALL, Region.PAD, geo.r_w)
    out["r_p"] = at(Region.PAD, Region.SKIN, geo.r_p)
    return out


def _residual_check(sol, tol=1e-9):
    jumps = interface_jumps(sol)
    worst = max(v for vj, fj in jumps.values()
                for v in (vj,) + ((fj,) if fj is not None else ()))
    if worst > tol:
        raise SolverError(
            "post-solve interface residual %.3e exceeds %.0e" % (worst, tol))


def transient_growth_rate(blood_optics):
    """zeta = nu (D mu_t^2 - mu_a) [1/s]; positive for every table row."""
    d = derive_optics(blood_optics)
    return d.nu * 1e12 * (d.D * d.mu_t ** 2 - blood_optics.mu_a)


def eval_fluence_transient(protocol, blood_optics, r, z, t, r_f=0.3):
    """Early-time growing solution inside the fiber column.

    Demonstrates that the time-dependent diffusion problem with the
    moving Beer-Lambert source admits exponential growth exp[zeta t] with
    zeta = nu (D mu_t^2 - mu_a) > 0: the transient formulation is only
    meaningful at optical time scales.  t is in seconds (picosecond
    arguments are ~1e-12); values overflow to +inf beyond nanoseconds,
    which is the point being demonstrated.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r >= r_f):
        raise DomainError("transient form is defined inside the fiber "
                          "column only (r < r_f)")
    zeta = transient_growth_rate(blood_optics)
    d = derive_optics(blood_optics)
    src = build_source(protocol, blood_optics, r_f=r_f)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    s_of_z = src.S0 * np.exp(-d.mu_t * z)
    rate = zeta + d.mu_t * protocol.v
    nu_per_s = d.nu * 1e12
    with np.errstate(over="ignore"):
        grow = np.exp(zeta * t)
    val = nu_per_s * s_of_z / rate * grow * (-np.expm1(-rate * t))
    if val.ndim == 0:
        return float(val)
    return val
