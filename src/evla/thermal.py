"""Closed-form temperature response to the moving light column.

The temperature is assembled from three ingredients:

1. forced terms: each radial profile of the fluence, multiplied by its
   absorption coefficient, drives one separable mode of the bioheat
   equation.  From zero, Duhamel's integral gives the mode of axial rate
   mu and free growth rate a (under the bioheat operator) the factor

       e^{-mu z} (e^{a t} - e^{-mu v t}) / A = e^{-mu xi} (e^{A t} - 1) / A

   with A = a + mu v: the fluence's own factor in the co-moving coordinate
   xi = z + v t times the time factor E = growth_bracket(A, 0, t).

2. a steady radial offset Theta(r) carrying the skin-to-air Robin data
   (ambient below blood temperature pulls the outer layers down even
   with the laser off);

3. a modal transient over the tissue annulus [r_i, r_s] that cancels
   Theta at t = 0 so the assembled field starts from uniform T_b.  Modes
   are zero at r_i, Robin-coupled to the air at r_s, continuous in value
   and conductive flux at the internal interfaces, decay with their own
   eigenrates, and mode n has exactly n zeros, which proves the set
   complete.  Their amplitudes are the orthogonal projection of -Theta,
   in closed form from Green's identity and Lommel's integral
   (project_initial); the truncated sum leaves a residual at r_s.

Every term is a radial profile times an axial and a time factor
(Mikhailov & Ozisik's composite-medium construction, see layered.py).
Each family is passed on as the arrays that define it: forcing_rates gives
the forced rates per family and region, steady_robin_offset the offset
profile, and modal_eigenvalues the decay rates with one RadialPiecewise
holding a row per mode.  TemperatureSolution extends the fluence's
layered.TermTable by the offset and the modes (axial rate 0, time factor
e^{zeta t}, zeta = 0 for the offset) and takes the forced time factors
from the region holding each radius.

The lumen terms satisfy the blood heat equation exactly.  For the outer
regions three variants are provided (`mode`): "derived" (default) keeps
the construction an exact solution of the bioheat equation; "printed" and
"printed_sqrt" reproduce common shorthand forms that drop the absorption
amplitude and the pull-back shift in the denominator, E = (e^{A t} - 1) /
(rho c_p a) ("printed_sqrt" additionally takes A = sqrt(a) + mu v).  They
are kept for comparison and are not PDE solutions.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fluence import FluenceSolution, assemble_and_solve
from .layered import (IK, JY, LayerSpec, RadialPiecewise, TermTable,
                      assemble, basis, distinct_values, stack)
from .params import (OUTER, OUTER_FIRST, ParameterSet, Region,
                     derive_optics, region_index)

# polynomial degree of the seed problem's spectral elements, and the
# half-waves of the highest seeded mode that one element spans: about 6.7
# nodes per wavelength, which puts the seeds within 1e-11 of the roots on
# the built-in tables and the plan workload's ranges
_SEED_DEGREE = 20
_SEED_HALF_WAVES = 6
# the largest seed problem (about 580 modes on the built-in tables): a
# dense eigensolve on more unknowns takes seconds
_SEED_MAX_UNKNOWNS = 2000


class ThermalError(RuntimeError):
    """Assembly failure in the temperature construction."""


class BracketExhausted(ThermalError):
    """The mode search failed to find, or to prove, every mode: the secant
    did not converge, or a refined u is not finite, is not a root, or
    gives a mode whose number of zeros is not its index."""


def growth_bracket(a, b, t):
    """(e^{a t} - e^{b t})/(a - b), continuous through a == b.

    Evaluated as t * e^{(a+b)t/2} * sinhc((a-b)t/2) so nearby rates do
    not cancel catastrophically.  Overflows propagate as inf.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)
    half = 0.5 * (a - b) * t
    with np.errstate(over="ignore"):
        mid = np.exp(0.5 * (a + b) * t)
        core = np.where(np.abs(half) < 1e-6,
                        1.0 + half * half / 6.0,   # sinhc series
                        np.sinh(np.where(np.abs(half) < 1e-6, 0.0, half))
                        / np.where(half == 0.0, 1.0, half))
        out = t * mid * core
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# forcing rates
# ---------------------------------------------------------------------------

def forcing_rates(ps: ParameterSet):
    """Free growth rates of the forced spatial profiles [1/s], one row per
    family (0: under the mu_eff axial factor, 1: under mu_t) and one column
    per region.

    In the lumen the profiles are flat in r and grow at alpha_b mu^2, and
    blood flow u adds u mu; the annulus mu_t profile's radial curvature
    shifts mu_t^2 down to mu_eff^2.  In an outer region both families share
    one rate, (k mu_eff_j^2 - c_b omega_j) / (rho c_p)_j.
    """
    blood = derive_optics(ps.blood_optics)
    th_b = ps.blood_thermal
    alpha_b = th_b.k / th_b.rho_cp          # blood diffusivity [mm^2/s]
    u = ps.protocol.u
    c_b = th_b.c_p
    col_eff = alpha_b * blood.mu_eff ** 2 + u * blood.mu_eff
    rates = [(col_eff, alpha_b * blood.mu_t ** 2 + u * blood.mu_t),
             (col_eff, alpha_b * blood.mu_eff ** 2 + u * blood.mu_t)]
    for reg in OUTER:
        th = ps.thermal_of(reg)
        zeta = (th.k * ps.derived_of(reg).mu_eff ** 2
                - c_b * th.omega) / th.rho_cp
        rates.append((zeta, zeta))
    return np.array(rates).T


_MODES = ("derived", "printed", "printed_sqrt")


# ---------------------------------------------------------------------------
# steady Robin offset
# ---------------------------------------------------------------------------

def _tissue_spec(ps, kind, q, outer_rhs=0.0):
    """The tissue-annulus problem: zero value at r_i, value and k-flux
    continuity at r_w and r_p, Robin row k R' + h R = outer_rhs at r_s."""
    return LayerSpec(ps.geometry, OUTER_FIRST, kind, q,
                     cond=[ps.thermal_of(reg).k for reg in OUTER],
                     inner=(("value", 0.0),), outer="robin",
                     outer_rhs=outer_rhs, h=ps.protocol.h_air)


def steady_robin_offset(ps: ParameterSet) -> RadialPiecewise:
    """Steady rise Theta(r) over [r_i, r_s], I0/K0 in every tissue region;
    zero in the lumen.

    Solves k (Theta'' + Theta'/r) = c_b omega Theta with Theta(r_i) = 0,
    value/flux continuity at the interfaces, and the skin boundary row
    k_s Theta' + h (Theta - gamma) = 0 at r_s, gamma = T_air - T_b.
    """
    proto = ps.protocol
    c_b = ps.blood_thermal.c_p
    q = []
    for reg in OUTER:
        th = ps.thermal_of(reg)
        if th.omega <= 0.0:
            raise ThermalError(
                "steady offset needs perfused outer layers (omega = 0 in %s)"
                % reg.value)
        q.append([math.sqrt(c_b * th.omega / th.k)])
    spec = _tissue_spec(ps, np.full((len(OUTER), 1), IK), np.array(q),
                        outer_rhs=proto.h_air * (proto.T_air - proto.T_b))
    return assemble(spec).solve("Robin offset")[0]


# ---------------------------------------------------------------------------
# modal relaxation over [r_i, r_s]
# ---------------------------------------------------------------------------

def _mode_spec(ps, u):
    """The tissue-annulus problem at the trial rates zeta = -u^2, one batch
    column per entry of the 1-D array u."""
    c_b = ps.blood_thermal.c_p
    kind, q = [], []
    for reg in OUTER:
        th = ps.thermal_of(reg)
        chi = (th.rho_cp * u * u - c_b * th.omega) / th.k
        kind.append(np.where(chi > 0.0, JY, IK))
        q.append(np.sqrt(np.abs(chi)))
    return _tissue_spec(ps, np.array(kind), np.array(q))


def _dets(ps, u):
    return assemble(_mode_spec(ps, u)).det()


@functools.cache
def _gll(p):
    """Legendre-Gauss-Lobatto rule of degree p on [-1, 1]: the nodes x,
    the weights w and the differentiation matrix d, d_ij = l_j'(x_i) for
    the Lagrange basis l_j on the nodes.  Read-only arrays.

    The inner nodes are the roots of P_p', the eigenvalues of the Jacobi
    matrix of the (1, 1) Jacobi polynomials (Golub & Welsch, *Math. Comp.*
    23, 1969); w_j = 2 / (p (p + 1) P_p(x_j)^2).  The diagonal of d is
    minus its off-diagonal row sum, so that d maps constants to zero to
    rounding (Baltensperger & Trummer, *SIAM J. Sci. Comput.* 24, 2003).
    """
    k = np.arange(1.0, p - 1)
    beta = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    x = np.concatenate([[-1.0], np.linalg.eigvalsh(np.diag(beta, -1)),
                        [1.0]])
    p0, p1 = np.ones_like(x), x                      # P_0, P_1 at x
    for n in range(2, p + 1):
        p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
    w = 2.0 / (p * (p + 1) * p1 * p1)
    d = p1[:, None] / p1[None, :] / (x[:, None] - x[None, :] + np.eye(p + 1))
    np.fill_diagonal(d, 0.0)
    d[np.diag_indices(p + 1)] = -d.sum(axis=1)
    for a in (x, w, d):
        a.setflags(write=False)
    return x, w, d


def _seed_roots(ps, n_modes):
    """Seeds of the first n_modes roots u from a discrete Sturm-Liouville
    problem (Pryce, 1993; see _build_modes).

    The relaxation problem -(r k R')' + c_b omega r R = u^2 rho c_p r R on
    [r_i, r_s], with R(r_i) = 0 and r k R' + r h R = 0 at r_s, is
    discretised in its weak form by spectral elements of degree
    _SEED_DEGREE on Legendre-Gauss-Lobatto nodes (Patera, *J. Comput.
    Phys.* 54, 1984), with the Robin term r_s h at r_s.  A mode's phase
    u sqrt(rho c_p / k) dr gathers in each zone in proportion to its
    width times sqrt(rho c_p / k), so each zone gets enough uniform
    elements for its share of the n_modes half-waves at
    _SEED_HALF_WAVES per element.  The GLL-lumped heat capacity is
    diagonal, so the problem symmetrises to one dense eigvalsh.  On the
    built-in tables and the plan workload's ranges the seeds lie within
    1e-11 of the roots.  Raises BracketExhausted where the problem would
    need more than _SEED_MAX_UNKNOWNS unknowns.
    """
    geo = ps.geometry
    edges = geo.edges[OUTER_FIRST:]
    c_b = ps.blood_thermal.c_p
    ths = [ps.thermal_of(reg) for reg in OUTER]
    phase = np.array([(hi - lo) * math.sqrt(th.rho_cp / th.k)
                      for th, lo, hi in zip(ths, edges, edges[1:])])
    cells = [math.ceil(n_modes / _SEED_HALF_WAVES * share)
             for share in phase / phase.sum()]
    p = _SEED_DEGREE
    n = p * sum(cells)                  # every node but the one at r_i
    if n > _SEED_MAX_UNKNOWNS:
        raise BracketExhausted("%d modes asked for; the seed problem would "
                               "need %d unknowns, more than %d"
                               % (n_modes, n, _SEED_MAX_UNKNOWNS))
    x, w, d = _gll(p)
    stiff = np.zeros((n + 1, n + 1))
    mass = np.zeros(n + 1)
    start = 0
    for th, lo, hi, m in zip(ths, edges, edges[1:], cells):
        jac = 0.5 * (hi - lo) / m
        for a in lo + 2.0 * jac * np.arange(m):
            r = a + jac * (x + 1.0)
            nodes = slice(start, start + p + 1)
            # conductance, and the GLL-lumped perfusion sink
            stiff[nodes, nodes] += ((d.T * (w * th.k * r / jac)) @ d
                                    + np.diag(w * c_b * th.omega * r * jac))
            mass[nodes] += w * th.rho_cp * r * jac
            start += p
    stiff[-1, -1] += geo.r_s * ps.protocol.h_air
    # the node at r_i is held at zero
    s = 1.0 / np.sqrt(mass[1:])
    lam = np.linalg.eigvalsh(stiff[1:, 1:] * s[:, None] * s[None, :])
    return np.sqrt(lam[:n_modes])


def _refine(ps, seeds):
    """Roots u of the determinant f, one from each seed, refined together
    by the secant method from each seed and seed (1 + 1e-9), with one
    stacked determinant call per step over the roots not yet done.  A root
    is done once a step moves it by less than 1e-14 (1 + u) (brentq's
    test), f is exactly zero there, or the iterate is not finite; which
    mode it gives, if any, _build_modes proves.  Raises BracketExhausted
    when a root is not done after 100 steps."""
    n = seeds.size
    u = seeds * (1.0 + 1e-9)                 # the latest iterate of each root
    f = _dets(ps, np.concatenate([seeds, u]))
    prev, f_prev, f = seeds, f[:n], f[n:]
    live = np.arange(n)                      # the roots not yet done
    for _ in range(100):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f == 0.0, 0.0,
                            f * (u[live] - prev) / (f - f_prev))
        new = u[live] - step
        prev, f_prev = u[live], f
        u[live] = new
        go = np.isfinite(new) & (np.abs(step) >= 1e-14 * (1.0 + np.abs(new)))
        if not go.any():
            return u
        live, prev, f_prev = live[go], prev[go], f_prev[go]
        f = _dets(ps, u[live])
    raise BracketExhausted("the secant for modes %s did not converge in 100 "
                           "steps" % live.tolist())


def modal_eigenvalues(ps: ParameterSet, n_modes=20):
    """(zeta, modes): the first n_modes radial relaxation modes, slowest
    first, as their decay rates [1/s] (negative) and one RadialPiecewise
    over wall, pad and skin with one row per mode.

    Every root u = sqrt(-zeta) of the scaled interface determinant is
    seeded by a spectral-element discretisation (_seed_roots), refined by
    the secant method, all roots together (_refine), and proven to give
    the mode of its index (_build_modes).  Raises ThermalError when
    n_modes < 1, and BracketExhausted when the seed problem would exceed
    _SEED_MAX_UNKNOWNS (about 580 modes on the built-in tables), the
    secant does not converge, or a root was missed or found twice.
    """
    if n_modes < 1:
        raise ThermalError("n_modes must be >= 1, got %r" % n_modes)
    u = _refine(ps, _seed_roots(ps, n_modes))
    return -u * u, _build_modes(ps, u)


def _zero_counts(prof):
    """The exact number of zeros of each row of the modes prof on
    (r_i, r_s], from the basis values at the two edges of each zone.

    In a J0/Y0 zone a J0 + b Y0 = rho M cos(theta - atan2(b, a)), where
    J0 + i Y0 = M e^{i theta}; theta increases with x = q r and lies
    within pi/4 of x - pi/4 (DLMF 10.18.18: theta ~ x - pi/4 - 1/(8x)),
    which fixes its multiple of 2 pi.  The zone's zeros are the integers
    passed by phi = (theta - atan2(b, a) - pi/2) / pi, and the wall's,
    which starts at the zero R(r_i) = 0, floor((theta_hi - theta_lo) /
    pi).  An I0/K0 zone is monotone where it can vanish, so it has one
    zero exactly when its edge values differ in sign; the wall has none."""
    edges = np.asarray(prof.geo.edges[prof.first:])
    r = np.stack([edges[:-1], edges[1:]], axis=-1)[:, None, :]
    q, a, b = (arr[..., None] for arr in (prof.q, prof.a, prof.b))
    f, g, _ = basis(prof.kind[..., None], q, r)         # (zones, batch, 2)
    theta = np.arctan2(g, f)
    theta += 2.0 * np.pi * np.round((q * r - np.pi / 4 - theta) / (2 * np.pi))
    phi = np.floor((theta - np.arctan2(b, a) - np.pi / 2) / np.pi)
    jy = phi[..., 1] - phi[..., 0]
    jy[0] = np.floor((theta[0, :, 1] - theta[0, :, 0]) / np.pi)
    ik = np.prod(np.sign(a * f + b * g), axis=-1) < 0.0
    ik[0] = False
    return np.sum(np.where(prof.kind == JY, jy, ik), axis=0).astype(int)


def _build_modes(ps, u):
    """The modes at the refined roots u, one row each, normalised by
    R'(r_i) = 1.  Raises BracketExhausted naming the first mode n whose u
    is not finite, is not a root (the smallest singular value of its
    column-scaled system exceeds 1e-12 of the largest), or whose profile
    has other than n zeros: by Sturm oscillation only the n-th mode has n
    (Pryce, *Numerical Solution of Sturm-Liouville Problems*, 1993)."""
    for n in np.flatnonzero(~np.isfinite(u))[:1]:
        raise BracketExhausted("mode %d: u = %r is not finite" % (n, u[n]))
    system = assemble(_mode_spec(ps, u))
    _, s, vt = np.linalg.svd(system.m)
    for uu in u[s[:, -2] < 1e-8 * s[:, 0]]:
        warnings.warn("near-degenerate mode at u = %.6f" % uu)
    for n in np.flatnonzero(s[:, -1] > 1e-12 * s[:, 0])[:1]:
        raise BracketExhausted(
            "mode %d: u = %.9g is not a root (smallest singular value %.1e "
            "of the largest)" % (n, u[n], s[n, -1] / s[n, 0]))
    prof = system.spec.piecewise(vt[:, -1, :] / system.scale[:, 0, :])
    found = _zero_counts(prof)
    for n in np.flatnonzero(found != np.arange(u.size))[:1]:
        raise BracketExhausted(
            "mode %d changes sign %d times on (r_i, r_s], expected %d: a "
            "root was missed or found twice" % (n, found[n], n))
    fac = 1.0 / prof.derivs(np.array([ps.geometry.r_i]))[:, 0]
    return replace(prof, a=prof.a * fac, b=prof.b * fac)


def project_initial(ps: ParameterSet, zeta, modes: RadialPiecewise,
                    offset: RadialPiecewise):
    """Amplitudes c_m with sum c_m R_m ~ -Theta over [r_i, r_s], in closed
    form from edge values and derivatives, for the modes R_m (the rows of
    modes) with decay rates zeta and the offset Theta, gamma = T_air -
    T_b.  Returns (c, residual_max, residual_l2).

    The modes are orthogonal in the weight rho c_p r, so c_m = -<Theta,
    R_m> / N_m.  Green's identity against the offset (the same operator at
    u = 0, zero at r_i, k Theta' + h Theta = h gamma at r_s) leaves only its
    Robin data, <Theta, R_m> = -r_s h gamma R_m(r_s) / zeta_m (Mikhailov &
    Ozisik, 1984).  Where R = a Z0(q r) + b W0(q r), Lommel's integral is
    int r R^2 dr = (r^2 / 2)(R^2 +- (R' / q)^2), + for J0/Y0, - for I0/K0
    (Watson, *Theory of Bessel Functions*, 1944, sec. 5.11); N_m and
    ||Theta||^2 sum it times rho c_p over the zones.  residual_l2 is
    ||Theta + sum c_m R_m|| / ||Theta||, by Parseval; residual_max is the
    largest |Theta + sum c_m R_m| at r_i, r_w, r_p and r_s.  Raises
    ThermalError unless every c_m and N_m is finite and every N_m > 0.
    """
    prof = stack([offset, modes])
    val = prof.at_edges()                           # (zones, 1 + M, 2)
    r = np.asarray(ps.geometry.edges[OUTER_FIRST:])
    sign = np.where(prof.kind == JY, 1.0, -1.0)[..., None]
    rho_cp = np.array([ps.thermal_of(reg).rho_cp for reg in OUTER])
    proto = ps.protocol
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = prof.at_edges(deriv=True) / prof.q[..., None]
        lommel = (0.5 * np.stack([r[:-1], r[1:]], -1)[:, None] ** 2
                  * (val * val + sign * slope * slope))
        norm = rho_cp @ (lommel[..., 1] - lommel[..., 0])  # (1 + M,)
        c = (ps.geometry.r_s * proto.h_air * (proto.T_air - proto.T_b)
             * val[-1, 1:, 1] / (zeta * norm[1:]))
    ok = np.isfinite(c) & np.isfinite(norm[1:]) & (norm[1:] > 0.0)
    if not ok.all():
        raise ThermalError("modal projection failed: a non-finite amplitude "
                           "or norm, or a norm <= 0, at modes %s"
                           % np.nonzero(~ok)[0].tolist())
    resid = val[:, 0] + c @ val[:, 1:]                # (zones, 2)
    res_l2 = math.sqrt(max(1.0 - np.sum(c * c * norm[1:]) / norm[0], 0.0))
    return c, float(np.max(np.abs(resid))), res_l2


# ---------------------------------------------------------------------------
# assembled temperature field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperatureSolution:
    """T(r, z, t) over the cylinder for t in [0, t_end], z >= -v t.

    The field is one table of separable terms, built once per solution:
    T = T_b + sum_k amp_k(region of r) R_k(r) e^{-mu_k (z + v t)} E_k(t).

    * `terms` (layered.TermTable) holds every R_k and mu_k: rows 0 and 1
      the fluence's (the forced terms), row 2 the Robin offset and rows
      3, 4, ... the modes (mu = 0; zero in the lumen);
    * `amp` (rows, regions): mu_a / (rho c_p) for the forced rows (1 in
      the printed forms), 1 for the offset and c_k for mode k, which
      carries the mode's scale (each mode has R_k'(r_i) = 1);
    * `brackets` (family, region, 2): A and A / d of the forced time
      factor E = (e^{A t} - 1) / d = (A / d) growth_bracket(A, 0, t), with
      `mode` resolved here: A = a + mu v, a the forcing rate (`rates`,
      forcing_rates; its square root in printed_sqrt), and d = A in the
      exact Duhamel bracket, rho c_p a in the printed forms;
    * the offset's time factor is 1 and mode k's is e^{zeta_k t}.

    Each radius takes the forced time factors of the region holding it, so
    a bracket that overflows in the lumen leaves the tissue's values alone.
    """

    ps: ParameterSet
    sol: FluenceSolution
    mode: str
    rates: np.ndarray         # forcing_rates, (family, region)
    offset: RadialPiecewise   # steady_robin_offset
    zeta: np.ndarray          # modal_eigenvalues: the modes' decay rates
    modes: RadialPiecewise    # and the modes, one row each
    amplitudes: np.ndarray
    projection_residual_max: float
    projection_residual_l2: float
    terms: TermTable = field(init=False, repr=False)
    amp: np.ndarray = field(init=False, repr=False)
    brackets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ps = self.ps
        flu = self.sol.terms
        shift = flu.mu[:, None] * flu.v
        n_relax = 1 + len(self.zeta)
        amp = np.ones((2 + n_relax, len(Region)))
        amp[3:] = np.asarray(self.amplitudes)[:, None]
        amp[:2, :OUTER_FIRST] = (ps.blood_optics.mu_a
                                 / ps.blood_thermal.rho_cp)
        brackets = np.ones((2, len(Region), 2))
        brackets[..., 0] = self.rates + shift
        for k, reg in enumerate(OUTER, OUTER_FIRST):
            th = ps.thermal_of(reg)
            if self.mode == "derived":
                amp[:2, k] = ps.optics_of(reg).mu_a / th.rho_cp
                continue
            rate = self.rates[0, k]
            if self.mode == "printed_sqrt":
                if rate < 0.0:
                    raise ThermalError(
                        "printed_sqrt mode undefined for negative growth "
                        "rate %g in %s" % (rate, reg.value))
                brackets[:, k, 0] = math.sqrt(rate) + shift[:, 0]
            with np.errstate(divide="ignore"):  # rate 0: E non-finite
                brackets[:, k, 1] = brackets[:, k, 0] / (th.rho_cp * rate)
        tissue = stack([self.offset, self.modes]).flat_inside(0.0)
        terms = TermTable(stack([flu.radial, tissue]),
                          np.concatenate([flu.mu, np.zeros(n_relax)]), flu.v)
        for name, value in (("terms", terms), ("amp", amp),
                            ("brackets", brackets)):
            object.__setattr__(self, name, value)

    def forced_factors(self, t):
        """The time factors E of both forced rows in every region at the
        1-D times t: (family, region, t.size); inf where they overflow."""
        rate, weight = (self.brackets[..., i, None] for i in range(2))
        return weight * growth_bracket(rate, 0.0, t)

    def radial_rows(self, r):
        """The first step of eval: (ru, rows), the sorted distinct radii of
        r and the radial factor of every term there, times the amplitude of
        the region holding the radius: rows is (terms, len(ru)).

        The rows depend on r alone, so a caller that evaluates the same
        radii at many (z, t) computes them once (damage_map does, across
        its blocks).  Non-finite radii and radii outside [0, r_s] raise
        DomainError.
        """
        ru = distinct_values(np.asarray(r, dtype=float))[0]
        # z = t = 0 lies in the domain: only the radii are checked
        self.sol._check_domain(ru, 0.0, 0.0)
        reg_u = region_index(ru, self.ps.geometry)
        return ru, self.terms.radial.values(ru) * self.amp[:, reg_u]

    def eval_rows(self, rows, r, z, t):
        """The second step of eval: the temperature at (r, z, t) from
        rows = radial_rows(r0), r0 holding every radius of r; arrays
        broadcast.  A radius of r without a row raises ValueError."""
        ru, table = rows
        coords = [np.asarray(c, dtype=float) for c in (r, z, t)]
        self.sol._check_domain(*coords)
        ir = np.searchsorted(ru, coords[0])
        if not np.all(ru[np.minimum(ir, ru.size - 1)] == coords[0]):
            raise ValueError("a radius of r is not among the rows' radii")
        tu, it = distinct_values(coords[2])
        reg = region_index(ru, self.ps.geometry)[ir]
        # an overflow here, or an inf times zero, leaves a non-finite value,
        # which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            # forced rows: e^{-mu xi} on the shape of (z, t), E per region
            # on the distinct t; the other rows have mu = 0
            axial = self.terms.axial(coords[1], coords[2], slice(2))
            forced = self.forced_factors(tu)
            relax = np.exp(self.zeta[:, None] * tu)
            out = self.ps.protocol.T_b + sum(
                table[f][ir] * forced[f][reg, it] * axial[f] for f in (0, 1))
            # the offset (time factor 1) and the modes, every term of the
            # shape of r and t broadcast
            acc = table[2][ir] + table[3][ir] * relax[0][it]
            for row, g in zip(table[4:], relax[1:]):
                acc += row[ir] * g[it]
            out += acc
        bad = np.count_nonzero(~np.isfinite(out))
        if bad:
            raise ThermalError(
                "non-finite temperature at %d of %d points: the closed form "
                "has diverged there" % (bad, np.size(out)))
        if np.ndim(out) == 0:
            return float(out)
        return out

    def eval(self, r, z, t):
        """Temperature [degC]; arrays broadcast; domain z >= -v t.

        The radial table is evaluated once per distinct r (radial_rows),
        the forced time factors and the mode exponentials once per
        distinct t, and the forced axial factors e^{-mu (z + v t)} on the
        broadcast shape of z and t (eval_rows).  The terms are then
        accumulated one by one.  Raises ThermalError where the closed form
        has diverged to a non-finite value.
        """
        return self.eval_rows(self.radial_rows(r), r, z, t)


def build_temperature(ps: ParameterSet, sol: FluenceSolution = None,
                      mode="derived", n_modes=20) -> TemperatureSolution:
    """Assemble the full temperature construction for one parameter set."""
    if mode not in _MODES:
        raise ThermalError("unknown mode %r (one of %s)" % (mode, _MODES))
    if sol is None:
        sol = assemble_and_solve(ps)
    offset = steady_robin_offset(ps)
    zeta, modes = modal_eigenvalues(ps, n_modes=n_modes)
    c, res_max, res_l2 = project_initial(ps, zeta, modes, offset)
    return TemperatureSolution(
        ps=ps, sol=sol, mode=mode, rates=forcing_rates(ps), offset=offset,
        zeta=zeta, modes=modes, amplitudes=c,
        projection_residual_max=res_max, projection_residual_l2=res_l2)
