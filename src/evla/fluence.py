"""Steady-state analytic light fluence over the layered cylinder.

The field is a sum of two exponential families in the co-moving coordinate
(z + v t):

  * the mu_eff family, amplitude B0, flat in r through the lumen and
    carried outward by I0/K0 or J0/Y0 profiles (branch decided by the sign
    of (mu_eff_j^2 - mu_eff^2));
  * the mu_t family, forced by the Beer-Lambert source in the fiber
    column, with J0/Y0 radial profiles everywhere outside the column.

The coefficients multiplying the radial profiles are fixed by value/flux
continuity at the material interfaces; each family is one layer spec for
the shared interface assembler in layered.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import layered
from .layered import (
    IK, JY, LayerSpec, RadialPiecewise, SolverError, assemble, stack,
)
from .params import (OUTER, OUTER_FIRST, ConfigError, ParameterSet, Region,
                     derive_optics)


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


def _require_finite(r, z, t):
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))
            and np.all(np.isfinite(t))):
        raise DomainError("non-finite r, z or t")


def distinct_values(x):
    """(xu, inv): the sorted distinct values of the coordinate array x and
    the index array of x's shape that gathers them back, xu[inv] == x.  A
    factor of one coordinate is evaluated once per entry of xu."""
    xu, inv = np.unique(x, return_inverse=True)
    return xu, inv.reshape(np.shape(x))


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
    MODIFIED = IK           # I0 / K0
    STANDARD = JY           # J0 / Y0


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

    for region in OUTER:
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


@dataclass(frozen=True)
class FluenceSolution:
    """Assembled coefficients; evaluable at (r, z, t) with z >= -v t.

    radial holds the mu_eff profile (row 0: B0 flat through the lumen,
    I0/K0 or J0/Y0 outside) and the mu_t profile (row 1: -P_in flat in the
    fiber column, J0/Y0 outside it) over all five zones; axial holds the
    blood rates (mu_eff, mu_t) of their axial factors.
    """

    ps: ParameterSet
    src: SourceTerm
    axial: tuple                 # (mu_eff, mu_t) of blood [1/mm]
    P_in: float                  # particular amplitude S0/(D mu_t^2 - mu_a)
    B0: float
    radial: RadialPiecewise
    cond_eff: float
    cond_t: float

    def axial_sum(self, rows, zeta):
        """rows[0] e^{-mu_eff zeta} + rows[1] e^{-mu_t zeta}: the field of the
        radial rows (radial.values at some radii) at the co-moving
        coordinate zeta = z + v t, arrays broadcast.  The exponentials are
        taken on zeta's own shape; nothing is masked behind the tip."""
        mu_eff, mu_t = self.axial
        return (rows[0] * np.exp(-mu_eff * zeta)
                + rows[1] * np.exp(-mu_t * zeta))

    # -- full field ----------------------------------------------------

    def _check_domain(self, r, z, t):
        geo = self.ps.geometry
        proto = self.ps.protocol
        _require_finite(r, z, t)
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
        ru, inv = distinct_values(r)
        out = self.axial_sum(self.radial.values(ru)[:, inv],
                             z + self.ps.protocol.v * t)
        if out.ndim == 0:
            return float(out)
        return out


_CLOSURE = {"zero_value": "value", "zero_flux": "flux"}


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
    if closure not in _CLOSURE:
        raise ConfigError("unknown closure %r" % closure)

    d_of = [ps.derived_of(region).D for region in Region]

    # mu_eff family over wall, pad, skin: value B0 and zero flux at r_i
    # (the lumen profile is flat), no closure row at r_s
    eff = LayerSpec(
        geo, OUTER_FIRST,
        kind=np.array([[branch.w_kind[reg].value] for reg in OUTER]),
        q=np.array([[branch.kappa[reg]] for reg in OUTER]),
        cond=d_of[OUTER_FIRST:], inner=(("value", b0), ("flux", 0.0)))
    p_eff, cond_eff = assemble(eff).solve("mu_eff")

    # mu_t family over the annulus and the outer regions: value -P_in at
    # r_f (no flux row there: the column ansatz is flat in r, so a flux
    # row would over-determine the square system), closure row at r_s
    t_regions = (Region.BLOOD_ANNULUS,) + OUTER
    mu_t = LayerSpec(
        geo, OUTER_FIRST - 1, kind=np.full((len(t_regions), 1), JY),
        q=np.array([[branch.beta[reg]] for reg in t_regions]),
        cond=d_of[OUTER_FIRST - 1:], inner=(("value", -p_in),),
        outer=_CLOSURE[closure])
    p_t, cond_t = assemble(mu_t).solve("mu_t")

    sol = FluenceSolution(
        ps=ps, src=src, axial=(blood.mu_eff, blood.mu_t), P_in=p_in, B0=b0,
        radial=stack([p_eff.flat_inside(b0), p_t.flat_inside(-p_in)]),
        cond_eff=float(cond_eff[0]), cond_t=float(cond_t[0]))
    _residual_check(sol)
    return sol


def interface_jumps(sol: FluenceSolution, weights=None):
    """Relative value/flux jumps of both families at every interface.

    Returns {interface_name: (value_jump_rel, flux_jump_rel)} where flux
    means D dphi/dr, of the fields sum_f weights[f] * family f, one per
    column of weights (layered.interface_jumps; default the plain sum).
    The r_f entry reports only the value jump of the composite field (the
    construction imposes no flux condition there).
    """
    d_of = [sol.ps.derived_of(region).D for region in Region]
    out = layered.interface_jumps(sol.radial, d_of, weights)
    out["r_f"] = (out["r_f"][0], None)
    return out


def _residual_check(sol, tol=1e-9):
    worst = max(v for pair in interface_jumps(sol).values() for v in pair
                if v is not None)
    if not worst <= tol:   # a NaN residual fails too
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
    which is the point being demonstrated.  Non-finite r, z or t, r < 0
    and t < 0 raise DomainError.
    """
    r, z, t = (np.asarray(c, dtype=float) for c in (r, z, t))
    _require_finite(r, z, t)
    if np.any(r < 0) or np.any(t < 0):
        raise DomainError("negative r or t")
    if np.any(r >= r_f):
        raise DomainError("transient form is defined inside the fiber "
                          "column only (r < r_f)")
    zeta = transient_growth_rate(blood_optics)
    d = derive_optics(blood_optics)
    src = build_source(protocol, blood_optics, r_f=r_f)
    s_of_z = src.S0 * np.exp(-d.mu_t * z)
    rate = zeta + d.mu_t * protocol.v
    nu_per_s = d.nu * 1e12
    with np.errstate(over="ignore"):
        grow = np.exp(zeta * t)
    val = nu_per_s * s_of_z / rate * grow * (-np.expm1(-rate * t))
    if val.ndim == 0:
        return float(val)
    return val
