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
   own eigenrates.

The lumen terms satisfy the blood heat equation exactly.  For the outer
regions three variants are provided (`mode`): "derived" (default) keeps
the construction an exact solution of the bioheat equation; "printed" and
"printed_sqrt" reproduce common shorthand forms that drop the absorption
amplitude and the pull-back shift in the denominator ("printed_sqrt"
additionally takes the square root of the growth rate).  They are kept
for comparison and are not PDE solutions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import specfn
from .fluence import FluenceSolution, assemble_and_solve, distinct_radii
from .params import ParameterSet, Region, derive_optics, region_index

OUTER = (Region.WALL, Region.PAD, Region.SKIN)
OUTER_FIRST = tuple(Region).index(Region.WALL)


class ThermalError(RuntimeError):
    """Assembly failure in the temperature construction."""


class BracketExhausted(ThermalError):
    """The eigenvalue scan ran out of interval before finding all modes."""


class RankDeficient(ThermalError):
    """The modal projection system lost rank."""


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

@dataclass(frozen=True)
class ForcingRates:
    """Free growth rates of the forced spatial profiles [1/s].

    zeta_col_eff / zeta_col_t: lumen profiles (flat in r), driven by the
    mu_eff and mu_t axial factors; blood flow u adds u*mu.
    zeta_ann_t: annulus oscillatory profile under the mu_t axial factor
    (its radial curvature shifts mu_t^2 down to mu_eff^2).
    zeta_outer[region]: both families in an outer region share one rate,
    (k mu_eff_j^2 - c_b omega_j) / (rho c_p)_j.
    """

    zeta_col_eff: float
    zeta_col_t: float
    zeta_ann_t: float
    zeta_outer: dict


def forcing_rates(ps: ParameterSet) -> ForcingRates:
    blood = derive_optics(ps.blood_optics)
    th_b = ps.blood_thermal
    alpha_b = th_b.k / th_b.rho_cp          # blood diffusivity [mm^2/s]
    u = ps.protocol.u
    c_b = th_b.c_p
    zeta_outer = {}
    for reg in OUTER:
        th = ps.thermal_of(reg)
        mu_eff_j = ps.derived_of(reg).mu_eff
        zeta_outer[reg] = (th.k * mu_eff_j ** 2 - c_b * th.omega) \
            / th.rho_cp
    return ForcingRates(
        zeta_col_eff=alpha_b * blood.mu_eff ** 2 + u * blood.mu_eff,
        zeta_col_t=alpha_b * blood.mu_t ** 2 + u * blood.mu_t,
        zeta_ann_t=alpha_b * blood.mu_eff ** 2 + u * blood.mu_t,
        zeta_outer=zeta_outer,
    )


_MODES = ("derived", "printed", "printed_sqrt")


# ---------------------------------------------------------------------------
# steady Robin offset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetProfile:
    """Steady rise Theta(r) over [r_i, r_s]; zero in the lumen.

    Solves k (Theta'' + Theta'/r) = c_b omega Theta with Theta(r_i) = 0,
    value/flux continuity at the interfaces, and the skin boundary row
    k_s Theta' + h (Theta - gamma) = 0 at r_s, gamma = T_air - T_b.
    """

    ps: ParameterSet
    q: dict          # Region -> sqrt(c_b omega / k) [1/mm]
    a1: dict
    a2: dict
    gamma: float

    def _dispatch(self, r, fn_pair):
        geo = self.ps.geometry
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for reg, lo, hi in ((Region.WALL, geo.r_i, geo.r_w),
                            (Region.PAD, geo.r_w, geo.r_p),
                            (Region.SKIN, geo.r_p, geo.r_s)):
            mask = (r >= lo) & ((r < hi) if reg is not Region.SKIN
                                else (r <= hi + 1e-12))
            if np.any(mask):
                out[mask] = fn_pair(reg, r[mask])
        if out.ndim == 0:
            return float(out)
        return out

    def eval(self, r):
        def val(reg, rr):
            q = self.q[reg]
            return (self.a1[reg] * specfn.i0(q * rr)
                    + self.a2[reg] * specfn.k0(q * rr))
        return self._dispatch(r, val)

    def eval_deriv(self, r):
        def der(reg, rr):
            q = self.q[reg]
            return q * (self.a1[reg] * specfn.i1(q * rr)
                        - self.a2[reg] * specfn.k1(q * rr))
        return self._dispatch(r, der)


def steady_robin_offset(ps: ParameterSet) -> OffsetProfile:
    geo = ps.geometry
    proto = ps.protocol
    gamma = proto.T_air - proto.T_b
    c_b = ps.blood_thermal.c_p
    q = {}
    k = {}
    for reg in OUTER:
        th = ps.thermal_of(reg)
        if th.omega <= 0.0:
            raise ThermalError(
                "steady offset needs perfused outer layers (omega = 0 in %s)"
                % reg.value)
        q[reg] = math.sqrt(c_b * th.omega / th.k)
        k[reg] = th.k

    def pair(reg, r):
        x = q[reg] * r
        return (specfn.i0(x), specfn.k0(x),
                q[reg] * specfn.i1(x), -q[reg] * specfn.k1(x))

    m = np.zeros((6, 6))
    rhs = np.zeros(6)
    iw, kw, diw, dkw = pair(Region.WALL, geo.r_i)
    m[0, 0], m[0, 1] = iw, kw                     # Theta(r_i) = 0
    iw, kw, diw, dkw = pair(Region.WALL, geo.r_w)
    ip, kp, dip, dkp = pair(Region.PAD, geo.r_w)
    m[1, 0], m[1, 1], m[1, 2], m[1, 3] = iw, kw, -ip, -kp
    m[2, 0], m[2, 1] = k[Region.WALL] * diw, k[Region.WALL] * dkw
    m[2, 2], m[2, 3] = -k[Region.PAD] * dip, -k[Region.PAD] * dkp
    ip, kp, dip, dkp = pair(Region.PAD, geo.r_p)
    isk, ksk, disk, dksk = pair(Region.SKIN, geo.r_p)
    m[3, 2], m[3, 3], m[3, 4], m[3, 5] = ip, kp, -isk, -ksk
    m[4, 2], m[4, 3] = k[Region.PAD] * dip, k[Region.PAD] * dkp
    m[4, 4], m[4, 5] = -k[Region.SKIN] * disk, -k[Region.SKIN] * dksk
    isk, ksk, disk, dksk = pair(Region.SKIN, geo.r_s)
    m[5, 4] = k[Region.SKIN] * disk + proto.h_air * isk
    m[5, 5] = k[Region.SKIN] * dksk + proto.h_air * ksk
    rhs[5] = proto.h_air * gamma

    scale = np.max(np.abs(m), axis=0)
    scale[scale == 0.0] = 1.0
    x = np.linalg.solve(m / scale, rhs) / scale
    a1 = {Region.WALL: x[0], Region.PAD: x[2], Region.SKIN: x[4]}
    a2 = {Region.WALL: x[1], Region.PAD: x[3], Region.SKIN: x[5]}
    return OffsetProfile(ps=ps, q=q, a1=a1, a2=a2, gamma=gamma)


# ---------------------------------------------------------------------------
# modal relaxation over [r_i, r_s]
# ---------------------------------------------------------------------------

# specfn's mid-range quadrature holds (n, 128) temporaries; radial bases are
# evaluated in slices of at most this many points to bound them
_BASIS_CHUNK = 1536


def _sliced(fn, x):
    """fn(x) in slices of at most _BASIS_CHUNK points."""
    if x.size <= _BASIS_CHUNK:
        return fn(x)
    flat = x.ravel()
    return np.concatenate([fn(flat[i:i + _BASIS_CHUNK])
                           for i in range(0, flat.size, _BASIS_CHUNK)]) \
        .reshape(x.shape)


def _basis(q, osc, r, deriv=False):
    """Two-function radial basis (f, g) of one region, or its r-derivative.

    q and osc are 1-D (one wavenumber and branch per row); rows with osc
    use J0/Y0, the others I0/K0.  r is 1-D.  Each function is evaluated
    by one specfn call per branch present (and per _BASIS_CHUNK points);
    returns two (len(q), len(r)) arrays.
    """
    q = np.asarray(q, dtype=float)[:, None]
    osc = np.asarray(osc, dtype=bool)
    x = q * np.asarray(r, dtype=float)[None, :]
    f = np.empty_like(x)
    g = np.empty_like(x)
    for branch in (True, False):
        rows = osc == branch
        if not np.any(rows):
            continue
        qq, xx = q[rows], x[rows]
        if branch and deriv:
            f[rows] = -qq * _sliced(specfn.j1, xx)
            g[rows] = -qq * _sliced(specfn.y1, xx)
        elif branch:
            f[rows] = _sliced(specfn.j0, xx)
            g[rows] = _sliced(specfn.y0, xx)
        elif deriv:
            f[rows] = qq * _sliced(specfn.i1, xx)
            g[rows] = -qq * _sliced(specfn.k1, xx)
        else:
            f[rows] = _sliced(specfn.i0, xx)
            g[rows] = _sliced(specfn.k0, xx)
    return f, g


def axial_mode(m, L, z):
    """Axial shape cos[m pi (L - z)/(2 L)]; insulated at both z = +-L."""
    z = np.asarray(z, dtype=float)
    out = np.cos(m * math.pi * (L - z) / (2.0 * L))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class RadialMode:
    """One eigenfunction of the tissue-annulus relaxation problem."""

    zeta: float          # decay rate [1/s], negative
    m_axial: int
    q: dict              # Region -> radial wavenumber
    oscillatory: dict    # Region -> bool
    coeff: dict          # Region -> (a, b) basis amplitudes
    ps: ParameterSet

    def eval(self, r):
        return _scalar_or_array(mode_profiles((self,), r)[0])

    def eval_deriv(self, r):
        return _scalar_or_array(mode_profiles((self,), r, deriv=True)[0])


def _scalar_or_array(out):
    if out.ndim == 0:
        return float(out)
    return out


def mode_profiles(modes, r, deriv=False):
    """R_k(r) (or R_k'(r)) of every mode, shape (len(modes), *r.shape).

    Zero outside [r_i, r_s].  All modes are evaluated together: one
    specfn call per basis function, region and branch.
    """
    geo = modes[0].ps.geometry
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    out = np.zeros((len(modes), flat.size))
    for reg, lo, hi in ((Region.WALL, geo.r_i, geo.r_w),
                        (Region.PAD, geo.r_w, geo.r_p),
                        (Region.SKIN, geo.r_p, geo.r_s)):
        cols = (flat >= lo) & ((flat < hi) if reg is not Region.SKIN
                               else (flat <= hi + 1e-12))
        if not np.any(cols):
            continue
        f, g = _basis([m.q[reg] for m in modes],
                      [m.oscillatory[reg] for m in modes], flat[cols], deriv)
        a, b = np.array([m.coeff[reg] for m in modes]).T
        out[:, cols] = a[:, None] * f + b[:, None] * g
    return out.reshape((len(modes),) + r.shape)


def _mode_wavenumbers(ps, u, m_axial):
    """Per-region (q, oscillatory) arrays for trial rates zeta = -u^2."""
    c_b = ps.blood_thermal.c_p
    eta2 = (m_axial * math.pi / (2.0 * ps.geometry.L)) ** 2
    out = {}
    for reg in OUTER:
        th = ps.thermal_of(reg)
        chi = (th.rho_cp * u * u - c_b * th.omega) / th.k - eta2
        out[reg] = (np.sqrt(np.abs(chi)), chi > 0.0)
    return out


def _mode_matrices(ps, u, m_axial):
    """Column-scaled 5x5 interface/boundary systems for the trial rates
    zeta = -u^2, one per entry of the 1-D array u.

    Unknowns: wall amplitude (its two-function combination already
    vanishes at r_i), then (a, b) for pad and skin.  Rows: value and
    k-flux continuity at r_w and r_p, Robin closure at r_s.  Returns
    (m / scale, scale, wavenumbers, wall combination).
    """
    geo = ps.geometry
    h = ps.protocol.h_air
    wn = _mode_wavenumbers(ps, u, m_axial)
    val, der = {}, {}
    for reg, radii in ((Region.WALL, (geo.r_i, geo.r_w)),
                       (Region.PAD, (geo.r_w, geo.r_p)),
                       (Region.SKIN, (geo.r_p, geo.r_s))):
        val[reg] = _basis(*wn[reg], radii)
        der[reg] = _basis(*wn[reg], radii, deriv=True)
    (fw, gw), (dfw, dgw) = val[Region.WALL], der[Region.WALL]
    (fp, gp), (dfp, dgp) = val[Region.PAD], der[Region.PAD]
    (fs, gs), (dfs, dgs) = val[Region.SKIN], der[Region.SKIN]
    # wall combination vanishing at r_i
    cw = (gw[:, 0], -fw[:, 0])
    wv = cw[0] * fw[:, 1] + cw[1] * gw[:, 1]
    wd = cw[0] * dfw[:, 1] + cw[1] * dgw[:, 1]
    k_w = ps.thermal_of(Region.WALL).k
    k_p = ps.thermal_of(Region.PAD).k
    k_s = ps.thermal_of(Region.SKIN).k

    m = np.zeros((u.size, 5, 5))
    m[:, 0, :3] = np.stack([wv, -fp[:, 0], -gp[:, 0]], axis=-1)
    m[:, 1, :3] = np.stack([k_w * wd, -k_p * dfp[:, 0], -k_p * dgp[:, 0]],
                           axis=-1)
    m[:, 2, 1:] = np.stack([fp[:, 1], gp[:, 1], -fs[:, 0], -gs[:, 0]],
                           axis=-1)
    m[:, 3, 1:] = np.stack([k_p * dfp[:, 1], k_p * dgp[:, 1],
                            -k_s * dfs[:, 0], -k_s * dgs[:, 0]], axis=-1)
    m[:, 4, 3] = k_s * dfs[:, 1] + h * fs[:, 1]
    m[:, 4, 4] = k_s * dgs[:, 1] + h * gs[:, 1]
    scale = np.max(np.abs(m), axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    return m / scale, scale, wn, cw


def _dets(ps, u, m_axial):
    return np.linalg.det(_mode_matrices(ps, u, m_axial)[0])


def _refine_roots(f, a, b, fa, fb):
    """Roots of f in the brackets [a, b] (f(a) f(b) < 0), refined together
    by the Illinois variant of regula falsi.

    f maps a 1-D array of points to their values; each step evaluates it
    once on every unfinished bracket.  A bracket is done once it is
    narrower than 1e-14 (1 + |b|) (brentq's stopping test, with xtol and
    rtol 1e-14) or f(b) is exactly zero; a degenerate bracket a == b with
    fb == 0 is returned as it is.  At that width u sits within about
    1e-14 of the root, so zeta does not depend on the path the iteration
    took.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    for _ in range(100):
        live = np.nonzero((np.abs(b - a) >= 1e-14 * (1.0 + np.abs(b)))
                          & (fb != 0.0))[0]
        if live.size == 0:
            return b
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        c = bl - fbl * (bl - al) / (fbl - fal)
        fc = f(c)
        # root between b and c: b becomes the far end; otherwise keep a
        # and halve its value so the far end moves too (Illinois)
        swap = fc * fbl < 0.0
        a[live] = np.where(swap, bl, al)
        fa[live] = np.where(swap, fbl, 0.5 * fal)
        b[live], fb[live] = c, fc
    raise ThermalError("eigenvalue refinement did not converge in 100 "
                       "steps")


def modal_eigenvalues(ps: ParameterSet, n_modes=20, m_axial=0,
                      u_max=3.0, du=0.002) -> list:
    """First n_modes radial relaxation modes, slowest first.

    The scaled determinant of the interface system is scanned on a grid
    of step du in u = sqrt(-zeta), one stacked determinant per scan
    segment.  Segments split where a region's radial character flips
    between oscillatory and evanescent (the basis switch makes the
    determinant discontinuous there) and the scan stops after the
    segment that completes n_modes sign changes.  The first n_modes
    brackets are refined together (_refine_roots) and the modes built
    together (_build_modes).

    Raises BracketExhausted when fewer than n_modes sign changes lie
    below u_max, or when mode n (0-based) does not change sign exactly n
    times on (r_i, r_s]: by Sturm oscillation the scan then skipped a
    root, and du is too coarse.
    """
    if n_modes <= 0:
        return []
    c_b = ps.blood_thermal.c_p
    eta2 = (m_axial * math.pi / (2.0 * ps.geometry.L)) ** 2
    switches = []
    for reg in OUTER:
        th = ps.thermal_of(reg)
        # chi = 0 when rho_cp u^2 = c_b omega + k eta2
        switches.append(math.sqrt((c_b * th.omega + th.k * eta2)
                                  / th.rho_cp))
    pts = sorted(s for s in switches if 0.0 < s < u_max)
    segments = []
    lo = 0.005
    margin = 1e-6
    for s in pts + [u_max]:
        hi = min(s - margin, u_max)
        if hi > lo:
            segments.append((lo, hi))
        lo = s + margin
    brackets = []        # (a, b, f(a), f(b)); a == b for an exact zero
    for (a, b) in segments:
        n = max(8, int(round((b - a) / du)))
        us = np.linspace(a, b, n + 1)
        ds = _dets(ps, us, m_axial)
        for i in np.nonzero((ds[:-1] == 0.0) | (ds[:-1] * ds[1:] < 0.0))[0]:
            if ds[i] == 0.0:
                brackets.append((us[i], us[i], 0.0, 0.0))
            else:
                brackets.append((us[i], us[i + 1], ds[i], ds[i + 1]))
        if len(brackets) >= n_modes:
            break
    if len(brackets) < n_modes:
        raise BracketExhausted(
            "found %d of %d modes by u = %.3f; widen the scan"
            % (len(brackets), n_modes, u_max))
    a, b, fa, fb = np.array(brackets[:n_modes]).T
    roots = _refine_roots(lambda uu: _dets(ps, uu, m_axial), a, b, fa, fb)
    return _build_modes(ps, roots, m_axial)


def _sign_changes(vals):
    """Sign changes along a 1-D sample, exact zeros skipped."""
    s = np.sign(vals[vals != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _build_modes(ps, u, m_axial):
    """Normalised modes at the refined roots u, checked for completeness."""
    ms, scale, wn, cw = _mode_matrices(ps, u, m_axial)
    _, s, vt = np.linalg.svd(ms)
    null = vt[:, -1, :] / scale[:, 0, :]
    modes = []
    for i, uu in enumerate(u):
        if s[i, -2] < 1e-8 * s[i, 0]:
            warnings.warn("near-degenerate mode at u = %.6f" % uu)
        amp_w = null[i, 0]
        modes.append(RadialMode(
            zeta=float(-uu * uu), m_axial=m_axial,
            q={reg: float(wn[reg][0][i]) for reg in OUTER},
            oscillatory={reg: bool(wn[reg][1][i]) for reg in OUTER},
            coeff={Region.WALL: (amp_w * cw[0][i], amp_w * cw[1][i]),
                   Region.PAD: (null[i, 1], null[i, 2]),
                   Region.SKIN: (null[i, 3], null[i, 4])},
            ps=ps))
    # normalize: peak magnitude 1 over the annulus, first lobe positive
    geo = ps.geometry
    rr = np.linspace(geo.r_i, geo.r_s, 800)
    vals = mode_profiles(modes, rr)
    slope = mode_profiles(modes, np.array([geo.r_i]), deriv=True)[:, 0]
    for n, row in enumerate(vals):
        found = _sign_changes(row[1:])
        if found != n:
            raise BracketExhausted(
                "mode %d changes sign %d times on (r_i, r_s], expected %d: "
                "the scan skipped a root; refine du" % (n, found, n))
    fac = np.where(slope > 0, 1.0, -1.0) / np.max(np.abs(vals), axis=1)
    return [replace(m, coeff={reg: (a * f, b * f)
                              for reg, (a, b) in m.coeff.items()})
            for m, f in zip(modes, fac)]


def project_initial(ps: ParameterSet, modes, offset: OffsetProfile,
                    n_per_region=512):
    """Amplitudes c_m with sum c_m R_m ~ -Theta over [r_i, r_s].

    Weighted least squares in the relaxation problem's natural inner
    product (weight rho c_p r); composite-Simpson quadrature with
    n_per_region intervals per material.  Returns (c, residual_max,
    residual_l2).
    """
    geo = ps.geometry
    spans = ((Region.WALL, geo.r_i, geo.r_w),
             (Region.PAD, geo.r_w, geo.r_p),
             (Region.SKIN, geo.r_p, geo.r_s))
    rs, ws = [], []
    for reg, lo, hi in spans:
        n = n_per_region
        r = np.linspace(lo, hi, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (hi - lo) / n / 3.0
        w *= ps.thermal_of(reg).rho_cp * r
        rs.append(r)
        ws.append(w)
    r = np.concatenate(rs)
    w = np.concatenate(ws)
    basis = np.array([m.eval(r) for m in modes])      # (M, N)
    target = -offset.eval(r)
    gram = (basis * w) @ basis.T
    rhs = (basis * w) @ target
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e10:
        raise RankDeficient("projection Gram matrix cond ~ %.3e" % cond)
    c = np.linalg.solve(gram, rhs)
    resid = basis.T @ c - target
    res_max = float(np.max(np.abs(resid)))
    res_l2 = float(np.sqrt(np.sum(w * resid ** 2)
                           / max(np.sum(w * target ** 2), 1e-300)))
    return c, res_max, res_l2


# ---------------------------------------------------------------------------
# assembled temperature field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperatureSolution:
    """T(r, z, t) over the cylinder for t in [0, t_end], z >= -v t."""

    ps: ParameterSet
    sol: FluenceSolution
    mode: str
    rates: ForcingRates
    offset: OffsetProfile
    modal: tuple              # RadialMode list
    amplitudes: np.ndarray
    projection_residual_max: float
    projection_residual_l2: float

    def _forced_brackets(self, reg, t):
        """Radial amplitude factor and time brackets of both forced
        families in one region: (amp, br_eff(t), br_t(t)), the term being
        amp * profile * br * (axial exponential)."""
        ps = self.ps
        proto = ps.protocol
        blood = derive_optics(ps.blood_optics)
        rates = self.rates
        v = proto.v
        if reg in (Region.FIBER_COLUMN, Region.BLOOD_ANNULUS):
            th = ps.blood_thermal
            br_eff = growth_bracket(rates.zeta_col_eff, -blood.mu_eff * v, t)
            if reg is Region.FIBER_COLUMN:
                br_t = growth_bracket(rates.zeta_col_t, -blood.mu_t * v, t)
            else:
                br_t = growth_bracket(rates.zeta_ann_t, -blood.mu_t * v, t)
            return ps.blood_optics.mu_a / th.rho_cp, br_eff, br_t
        th = ps.thermal_of(reg)
        zeta = rates.zeta_outer[reg]
        if self.mode == "derived":
            return (ps.optics_of(reg).mu_a / th.rho_cp,
                    growth_bracket(zeta, -blood.mu_eff * v, t),
                    growth_bracket(zeta, -blood.mu_t * v, t))
        rate = zeta
        if self.mode == "printed_sqrt":
            if zeta < 0.0:
                raise ThermalError(
                    "printed_sqrt mode undefined for negative growth rate "
                    "%g in %s" % (zeta, reg.value))
            rate = math.sqrt(zeta)
        denom = th.rho_cp * zeta
        with np.errstate(over="ignore"):
            br_eff = (np.exp(rate * t)
                      - np.exp(-blood.mu_eff * v * t)) / denom
            br_t = (np.exp(rate * t)
                    - np.exp(-blood.mu_t * v * t)) / denom
        return 1.0, br_eff, br_t

    def eval(self, r, z, t):
        """Temperature [degC]; arrays broadcast; domain z >= -v t.

        Every radial profile (forced families, Robin offset, modes) is
        evaluated once per distinct radius; axial exponentials and time
        brackets per point.
        """
        r, z, t = np.broadcast_arrays(
            np.asarray(r, dtype=float), np.asarray(z, dtype=float),
            np.asarray(t, dtype=float))
        self.sol._check_domain(r, z, t)
        ps = self.ps
        blood = derive_optics(ps.blood_optics)
        ru, inv = distinct_radii(r)
        reg_u = region_index(ru, ps.geometry)
        reg = reg_u[inv]
        p_eff, p_t = self.sol.profiles(ru)
        br_eff = np.empty_like(r)
        br_t = np.empty_like(r)
        for k, region in enumerate(Region):
            pts = reg == k
            if np.any(pts):
                amp, br_eff[pts], br_t[pts] = self._forced_brackets(
                    region, t[pts])
                p_eff[reg_u == k] *= amp
                p_t[reg_u == k] *= amp
        out = np.full_like(r, float(ps.protocol.T_b))
        out += (p_eff[inv] * br_eff * np.exp(-blood.mu_eff * z)
                + p_t[inv] * br_t * np.exp(-blood.mu_t * z))
        # offset and modal transient over the tissue, r >= r_i
        n_lumen = int(np.count_nonzero(reg_u < OUTER_FIRST))
        tissue = reg >= OUTER_FIRST
        if np.any(tissue):
            rt = ru[n_lumen:]
            at = inv[tissue] - n_lumen
            tt = t[tissue]
            add = self.offset.eval(rt)[at]
            table = self.amplitudes[:, None] * mode_profiles(self.modal, rt)
            for row, m in zip(table, self.modal):
                add = add + row[at] * np.exp(m.zeta * tt)
            out[tissue] += add
        if out.ndim == 0:
            return float(out)
        return out

    def mode_table(self):
        """(index, zeta, q_wall, q_pad, q_skin, amplitude) rows."""
        rows = []
        for i, (c, m) in enumerate(zip(self.amplitudes, self.modal)):
            rows.append((i, m.zeta, m.q[Region.WALL], m.q[Region.PAD],
                         m.q[Region.SKIN], c))
        return rows


def build_temperature(ps: ParameterSet, sol: FluenceSolution = None,
                      mode="derived", n_modes=20) -> TemperatureSolution:
    """Assemble the full temperature construction for one parameter set."""
    if mode not in _MODES:
        raise ThermalError("unknown mode %r (one of %s)" % (mode, _MODES))
    if sol is None:
        sol = assemble_and_solve(ps)
    rates = forcing_rates(ps)
    offset = steady_robin_offset(ps)
    modal = modal_eigenvalues(ps, n_modes=n_modes)
    c, res_max, res_l2 = project_initial(ps, modal, offset)
    return TemperatureSolution(
        ps=ps, sol=sol, mode=mode, rates=rates, offset=offset,
        modal=tuple(modal), amplitudes=c,
        projection_residual_max=res_max, projection_residual_l2=res_l2)
