"""Closed-form temperature response to the moving light column.

The temperature is assembled from three ingredients:

1. forced terms: each radial profile of the fluence, multiplied by its
   absorption coefficient, drives one separable mode of the bioheat
   equation.  Starting from zero, Duhamel's integral gives every such
   mode the same bracket shape

       phi_g(a, b, t) = (e^{a t} - e^{b t}) / (a - b)

   with a the free growth rate of the spatial profile under the bioheat
   operator and b = -mu_fam * v the decay rate the moving source imprints;
   see growth_bracket.

2. a steady radial offset Theta(r) carrying the skin-to-air Robin data
   (ambient below blood temperature pulls the outer layers down even
   with the laser off);

3. a modal transient over the tissue annulus [r_i, r_s] that cancels
   Theta at t = 0 so the assembled field starts from uniform T_b.  Modes
   are zero at r_i, Robin-coupled to the air at r_s, continuous in value
   and conductive flux at the internal interfaces, and decay with their
   own eigenrates.  Their amplitudes are the orthogonal projection of
   -Theta, in closed form from Green's identity and Lommel's integral
   (project_initial); the truncated sum leaves a residual at r_s.

Every term is a radial profile times an axial and a time factor
(Mikhailov & Ozisik's composite-medium construction, see layered.py).
Each family is passed on as the arrays that define it: forcing_rates gives
the forced rates per family and region, steady_robin_offset the offset
profile, and modal_eigenvalues the decay rates with one RadialPiecewise
holding a row per mode.  TemperatureSolution stacks them into one term
table and evaluates each factor once per distinct value of its own
coordinate; the forced time factors are taken from the region holding
each radius.

The lumen terms satisfy the blood heat equation exactly.  For the outer
regions three variants are provided (`mode`): "derived" (default) keeps
the construction an exact solution of the bioheat equation; "printed" and
"printed_sqrt" reproduce common shorthand forms that drop the absorption
amplitude and the pull-back shift in the denominator ("printed_sqrt"
additionally takes the square root of the growth rate).  They are kept
for comparison and are not PDE solutions.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fluence import FluenceSolution, assemble_and_solve, distinct_values
from .layered import IK, JY, LayerSpec, RadialPiecewise, assemble, stack
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
# the widest half-width of the window around each seed, relative to the
# seed, within which its root and every secant iterate must lie; it is
# also held below 0.4 of the gap to the nearer neighbouring seed, so that
# no two windows overlap (the first 20 roots of the built-in tables lie at
# least 4.9e-2 apart relative, the 200th only 5e-3)
_WINDOW_LAST = 1e-2


class ThermalError(RuntimeError):
    """Assembly failure in the temperature construction."""


class BracketExhausted(ThermalError):
    """The mode search failed to find, or to prove, every mode: a root or
    a secant iterate left its seed's window, or a mode has the wrong
    number of sign changes."""


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
    """Seeds of the first n_modes + 1 roots u from a discrete
    Sturm-Liouville problem (Pryce, *Numerical Solution of Sturm-Liouville
    Problems*, 1993); the last is only read by _widest_windows, where it
    bounds the window of the last mode.

    The relaxation problem -(r k R')' + c_b omega r R = u^2 rho c_p r R on
    [r_i, r_s], with R(r_i) = 0 and r k R' + r h R = 0 at r_s, is
    discretised in its weak form by spectral elements of degree
    _SEED_DEGREE on Legendre-Gauss-Lobatto nodes (Patera, *J. Comput.
    Phys.* 54, 1984), with the Robin term r_s h at r_s.  A mode's phase
    u sqrt(rho c_p / k) dr gathers in each zone in proportion to its
    width times sqrt(rho c_p / k), so each zone gets enough uniform
    elements for its share of the n_modes + 1 half-waves at
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
    cells = [math.ceil((n_modes + 1) / _SEED_HALF_WAVES * share)
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
    return np.sqrt(lam[:n_modes + 1])


def _widest_windows(seeds):
    """The widest window half-width of each seed, relative to it:
    _WINDOW_LAST, or 0.4 of the gap to the nearer neighbouring seed where
    that is less."""
    gap = np.diff(seeds)
    near = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
    return np.minimum(_WINDOW_LAST, 0.4 * near / seeds)


def _check_windows(seeds, widest, u, modes):
    """BracketExhausted unless every u lies within seed (1 +- widest) of
    its seed; modes names the mode of each entry in the message."""
    out = ~(np.abs(u - seeds) <= widest * seeds)        # nan is outside
    if out.any():
        raise BracketExhausted(
            "the roots of modes %s left their seeds' windows: a root was "
            "missed or found twice" % modes[out].tolist())


def _refine(ps, seeds, widest):
    """Roots u of the determinant f, one within each seed's window
    seed (1 +- widest), refined together by the secant method.

    Every root starts from its seed and seed (1 + 1e-9); each step then
    evaluates f at the new iterate of every root not yet done, in one
    stacked determinant call.  A root is done once a step moves it by less
    than 1e-14 (1 + u) (brentq's stopping test, with xtol and rtol 1e-14)
    or once f is exactly zero there.  An iterate that leaves its seed's
    window raises BracketExhausted (_check_windows).
    """
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
        _check_windows(seeds[live], widest[live], new, live)
        prev, f_prev = u[live], f
        u[live] = new
        go = np.abs(step) >= 1e-14 * (1.0 + np.abs(new))
        if not go.any():
            return u
        live, prev, f_prev = live[go], prev[go], f_prev[go]
        f = _dets(ps, u[live])
    raise ThermalError("eigenvalue refinement did not converge in 100 "
                       "steps")


def modal_eigenvalues(ps: ParameterSet, n_modes=20):
    """(zeta, modes): the first n_modes radial relaxation modes, slowest
    first, as their decay rates [1/s] (negative) and one RadialPiecewise
    over wall, pad and skin with one row per mode.

    Every root u = sqrt(-zeta) of the scaled interface determinant is
    seeded by a spectral-element discretisation of the relaxation problem
    (_seed_roots, one dense eigvalsh on numpy alone) and refined from its
    seed by the secant method, all roots together (_refine); the seeds lie
    within 1e-11 of the roots, so on the built-in tables and the plan
    workload's ranges the search makes two stacked determinant calls.
    Every root must lie within its seed's window (_widest_windows), and
    the windows do not overlap, so no root is found twice.  The modes are
    then built together and checked (_build_modes).

    Raises ThermalError when n_modes < 1: the uniform start cannot be
    projected onto an empty mode set.  Raises BracketExhausted when the
    seed problem would be too large
    (more than _SEED_MAX_UNKNOWNS unknowns, about 580 modes on the
    built-in tables), when an iterate or a root leaves its seed's window,
    or when mode n (0-based) does not change sign exactly n times on
    (r_i, r_s]: by Sturm oscillation a root was then missed, which no
    window can see (a mode the discrete problem misses is missing from the
    seeds too).
    """
    if n_modes < 1:
        raise ThermalError("n_modes must be >= 1, got %r" % n_modes)
    seeds = _seed_roots(ps, n_modes)
    widest = _widest_windows(seeds)[:-1]
    seeds = seeds[:-1]
    u = _refine(ps, seeds, widest)
    _check_windows(seeds, widest, u, np.arange(n_modes))
    return -u * u, _build_modes(ps, u)


def _sign_changes(vals):
    """Sign changes along a 1-D sample, exact zeros skipped."""
    s = np.sign(vals[vals != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _build_modes(ps, u):
    """Normalised modes at the refined roots u, one row each, checked for
    completeness."""
    system = assemble(_mode_spec(ps, u))
    _, s, vt = np.linalg.svd(system.m)
    for uu in u[s[:, -2] < 1e-8 * s[:, 0]]:
        warnings.warn("near-degenerate mode at u = %.6f" % uu)
    prof = system.spec.piecewise(vt[:, -1, :] / system.scale[:, 0, :])
    # normalize: peak magnitude 1 over the annulus, first lobe positive
    geo = ps.geometry
    rr = np.linspace(geo.r_i, geo.r_s, 800)
    vals = prof.values(rr)
    slope = prof.derivs(np.array([geo.r_i]))[:, 0]
    for n, row in enumerate(vals):
        found = _sign_changes(row[1:])
        if found != n:
            raise BracketExhausted(
                "mode %d changes sign %d times on (r_i, r_s], expected %d: "
                "a root was missed or found twice" % (n, found, n))
    fac = np.where(slope > 0, 1.0, -1.0) / np.max(np.abs(vals), axis=1)
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
    T = T_b + sum_k amp_k(region of r) R_k(r) e^{-alpha_k z} G_k(t).

    * `radial` holds every R_k: row 0 the fluence mu_eff profile, row 1
      the mu_t profile (the two forced families), row 2 the Robin offset
      and rows 3, 4, ... the modes (offset and modes zero in the lumen);
    * `amp` (rows, regions): mu_a / (rho c_p) for the forced rows (1 in
      the printed forms), 1 for the offset and c_k for mode k;
    * `axial`: alpha_k, mu_eff and mu_t for the forced rows, 0 for the
      offset and the modes;
    * `brackets` (family, region, 3): a, b and d of the forced time factor
      G = (e^{a t} - e^{b t}) / d, with `mode` resolved here; a is the
      forcing rate (`rates`, forcing_rates), and d is nan where G is the
      exact Duhamel bracket, d = a - b (growth_bracket);
    * `decay`: G = e^{rate t} of the offset (rate 0) and the modes (zeta_k).

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
    radial: RadialPiecewise = field(init=False, repr=False)
    amp: np.ndarray = field(init=False, repr=False)
    axial: np.ndarray = field(init=False, repr=False)
    brackets: np.ndarray = field(init=False, repr=False)
    decay: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ps = self.ps
        mu = np.array(self.sol.axial)
        n_relax = 1 + len(self.zeta)
        amp = np.ones((2 + n_relax, len(Region)))
        amp[3:] = np.asarray(self.amplitudes)[:, None]
        amp[:2, :OUTER_FIRST] = (ps.blood_optics.mu_a
                                 / ps.blood_thermal.rho_cp)
        brackets = np.full((2, len(Region), 3), np.nan)
        brackets[..., 0] = self.rates
        brackets[..., 1] = -mu[:, None] * ps.protocol.v
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
                brackets[:, k, 0] = math.sqrt(rate)
            brackets[:, k, 2] = th.rho_cp * rate
        tissue = stack([self.offset, self.modes]).flat_inside(0.0)
        for name, value in (
                ("radial", stack([self.sol.radial, tissue])), ("amp", amp),
                ("axial", np.concatenate([mu, np.zeros(n_relax)])),
                ("brackets", brackets),
                ("decay", np.concatenate([[0.0], self.zeta]))):
            object.__setattr__(self, name, value)

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
        return ru, self.radial.values(ru) * self.amp[:, reg_u]

    def eval_rows(self, rows, r, z, t):
        """The second step of eval: the temperature at (r, z, t) from
        rows = radial_rows(r0), r0 holding every radius of r; arrays
        broadcast.  A radius of r without a row raises ValueError."""
        ru, table = rows
        coords = [np.asarray(c, dtype=float) for c in (r, z, t)]
        self.sol._check_domain(*np.broadcast_arrays(*coords))
        ir = np.searchsorted(ru, coords[0])
        if not np.all(ru[np.minimum(ir, ru.size - 1)] == coords[0]):
            raise ValueError("a radius of r is not among the rows' radii")
        (zu, iz), (tu, it) = (distinct_values(c) for c in coords[1:])
        reg = region_index(ru, self.ps.geometry)[ir]
        a, b, d = (self.brackets[..., i, None] for i in range(3))
        printed = ~np.isnan(d[..., 0])
        # an overflow here, or an inf times zero, leaves a non-finite value,
        # which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            axial = np.exp(-self.axial[:2, None] * zu)
            # forced time factors, (family, region, t): printed rows where
            # d is set
            forced = growth_bracket(a, b, tu)
            forced[printed] = (np.exp(a[printed] * tu)
                               - np.exp(b[printed] * tu)) / d[printed]
            relax = np.exp(self.decay[:, None] * tu)
            out = self.ps.protocol.T_b + sum(
                table[f][ir] * forced[f][reg, it] * axial[f][iz]
                for f in (0, 1))
            # offset and modes: no axial factor (alpha = 0), every term of
            # the shape of r and t broadcast
            acc = table[2][ir] * relax[0][it]
            for row, g in zip(table[3:], relax[1:]):
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

        Each factor is evaluated once per distinct value of its own
        coordinate, before broadcasting: the radial table on the distinct
        r (radial_rows), then the axial exponentials on the distinct z and
        the time factors on the distinct t (eval_rows).  The terms are then
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
