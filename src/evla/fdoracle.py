"""Finite-difference/finite-volume reference solvers.

Everything here exists to cross-check the closed-form fields, so the
discretization is deliberately plain: vertex-centred conservative finite
volumes on a tensor grid whose radial lines include every material
interface, two-point fluxes, backward Euler in time.  Interface control
volumes average mu_a, the axial conductivity and the source indicator over
their two material halves; radial face coefficients are single-material
because faces never straddle an interface.

Steady fluence comparisons default to the annular domain r in [r_f, r_s]
with the analytic trace imposed at r_f.  The closed form prescribes zero
radial flux on the lumen side of r_f but not on the annulus side, so over
the full cylinder it solves a problem with a flux sheet on r = r_f.  A
conservative scheme has no such sheet; against it the full-domain field
carries an irreducible ~2% L2 gap (the `domain="full"` option measures
exactly that number).

The steady solves and the still-blood (u = 0) transient use separation of
variables rather than a general sparse factorization.  The FV
coefficients depend on r alone, so the 5-point operator is a Kronecker
sum dz R (x) I + D (x) T/dz of a radial tridiagonal R (flux plus
reaction), the CV axial weights D and the 1-D axial second difference T;
every closure pins whole grid lines, so the free block keeps that form.  T's eigenvectors Q are the closed-form cosine
(DCT-II, Neumann ends) or sine (DST-I, pinned ends) transforms.  The
steady system, solved once, needs no radial eigenbasis: after b -> b Q
each axial mode k is one symmetric positive definite tridiagonal system
(dz R + lam_k D/dz) x_k = (b Q)_k, and the Thomas algorithm solves them
all together before x -> x Q'.  The backward-Euler transient with still
blood (u = 0) is the same Kronecker sum, since the mass/dt and the Robin
rim only add to R's diagonal and no line is pinned.  It is diagonalised
once, R V = D V diag(mu) by one dense symmetric eigensolve (the
tensor-product method of Lynch, Rice & Thomas, Numer. Math. 6 (1964)),
and the steps stay in that eigenbasis: each costs one radial product
with a fixed nr x nr matrix, and only snapshots return to the grid.
Flowing blood (u > 0) adds a third Kronecker term, the lumen-only upwind
axial difference, which does not commute with T, so no single axial basis
diagonalises the operator; that case keeps one sparse LU factorization,
reused at every time step.  scipy (scipy.sparse) is imported only there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .params import ParameterSet, Region, region_index

_MIN_NODES_PER_REGION = 8
_PROBE_HALO = 3     # coarse cells left out next to interfaces and edges


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid; radial control volumes are [lo_j, hi_j]."""

    r: np.ndarray
    z: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    area: np.ndarray     # (hi^2 - lo^2)/2, cross-section per unit z
    rface: np.ndarray    # interior face radii
    dz: float

    @property
    def shape(self):
        return (self.r.size, self.z.size)

    def meshes(self):
        zz, rr = np.meshgrid(self.z, self.r)
        return rr, zz


def _region_edges(geo, rmin):
    return np.array([rmin] + [e for e in geo.edges if e > rmin])


def region_counts(geo, nr, rmin=0.0):
    """Radial cell counts per region: proportional to width, with a floor
    so the thin wall is never under-resolved.  Kept separate from
    make_grid so a refined grid can use exactly doubled counts (the floor
    would otherwise freeze the spacing of thin regions across one
    refinement and corrupt order estimates)."""
    widths = np.diff(_region_edges(geo, rmin))
    return np.maximum(_MIN_NODES_PER_REGION,
                      np.round(nr * widths / widths.sum()).astype(int))


def make_grid(geo, nr, nz, rmin=0.0, scale=1) -> Grid2D:
    """Tensor grid over [rmin, r_s] x [-L, L]: region_counts(geo, nr, rmin)
    radial cells per region, nz axial cells; scale=2 produces the grid
    exactly once refined.  nr >= 1, nz >= 2 and scale >= 1 must be
    integers."""
    for name, value, least in (("nr", nr, 1), ("nz", nz, 2),
                               ("scale", scale, 1)):
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError("%s must be an integer >= %d, got %r"
                             % (name, least, value))
    edges = _region_edges(geo, rmin)
    counts = region_counts(geo, nr, rmin) * scale
    nz = nz * scale
    # each region's nodes but its outer edge, which starts the next region
    r = np.append(np.concatenate(
        [np.linspace(lo, hi, n + 1)[:-1]
         for lo, hi, n in zip(edges[:-1], edges[1:], counts)]), edges[-1])
    z = np.linspace(-geo.L, geo.L, nz + 1)
    rface = 0.5 * (r[1:] + r[:-1])
    lo = np.empty_like(r)
    hi = np.empty_like(r)
    lo[0] = 0.0 if rmin == 0.0 else r[0]
    lo[1:] = rface
    hi[:-1] = rface
    hi[-1] = r[-1]
    area = 0.5 * (hi ** 2 - lo ** 2)
    return Grid2D(r=r, z=z, lo=lo, hi=hi, area=area, rface=rface,
                  dz=float(z[1] - z[0]))


def _per_node_coeffs(grid: Grid2D, geo, diff_of, react_of, src_radius=None):
    """CV-averaged coefficients.

    diff_of/react_of map Region -> constant; src_radius is the source
    column radius, whose r < src_radius indicator gives the source weights
    (None to skip).  Returns radial-face diffusivity, CV axial
    diffusivity, CV reaction and CV source weights.
    """
    r, lo, hi = grid.r, grid.lo, grid.hi
    parts = ((r * r - lo * lo, 0.5 * (lo + r)),
             (hi * hi - r * r, 0.5 * (r + hi)))     # (area, midpoint)
    total = parts[0][0] + parts[1][0]

    def average(coef_at):
        return sum(np.where(area > 0, coef_at(mid) * area, 0.0)
                   for area, mid in parts) / total

    def by_region(table):
        values = np.array([table[reg] for reg in Region])
        return lambda rv: values[region_index(rv, geo)]

    d_face = by_region(diff_of)(0.5 * (r[1:] + r[:-1]))
    d_cv = average(by_region(diff_of))
    m_cv = average(by_region(react_of))
    s_cv = np.zeros_like(r) if src_radius is None else average(
        lambda rv: np.where(rv < src_radius, 1.0, 0.0))
    return d_face, d_cv, m_cv, s_cv


def _line_factors(grid: Grid2D, d_face, d_cv, m_cv):
    """The 5-point flux-divergence-plus-reaction operator, CV-integrated,
    as a Kronecker sum A = dz R (x) I + D (x) T/dz.

    R is the symmetric tridiagonal radial flux-plus-reaction matrix per unit
    length, D = d_cv * area the CV axial conductance weights and T the 1-D
    axial second difference.  Missing neighbours at the domain edges
    contribute no flux, so every edge is a homogeneous Neumann edge until a
    closure pins its line.  Returned as (R diagonal, R off-diagonal, D,
    T diagonal, T off-diagonal).
    """
    w = d_face * grid.rface / np.diff(grid.r)
    r_diag = m_cv * grid.area
    r_diag[:-1] += w
    r_diag[1:] += w
    nz = grid.z.size
    t_diag = np.full(nz, 2.0)
    t_diag[0] = t_diag[-1] = 1.0
    return r_diag, -w, d_cv * grid.area, t_diag, -np.ones(nz - 1)


def _tridiag_rows(diag, off, x):
    """(M @ x) for the symmetric tridiagonal M, acting on the rows of x."""
    y = diag[:, None] * x
    y[1:] += off[:, None] * x[:-1]
    y[:-1] += off[:, None] * x[1:]
    return y


def _kron_matvec(factors, dz, x):
    """A x on the whole grid, A given by its _line_factors."""
    r_diag, r_off, d_w, t_diag, t_off = factors
    return (dz * _tridiag_rows(r_diag, r_off, x)
            + d_w[:, None] * _tridiag_rows(t_diag, t_off, x.T).T / dz)


def _axial_basis(t_diag):
    """Eigenpairs (lam, Q), T Q = Q diag(lam) and Q' Q = I, of a block of
    _line_factors' axial second difference T: the whole line, whose
    Neumann ends (t_diag[0] == 1) make Q the orthonormal DCT-II, or the
    line without its two end nodes (pinned ends), whose Q is the DST-I.
    Both are closed forms, lam = 4 sin^2(theta / 2) with theta = pi k / n
    for k = 0 .. n - 1 (DCT-II), pi k / (n + 1) for k = 1 .. n (DST-I).

    Q's entries cos(pi k (2j + 1) / (2n)) and sin(pi (j + 1) k / (n + 1))
    are read from one period of the function, tabulated on its 4n (DCT-II)
    or 2 (n + 1) (DST-I) points, at the exact integer argument k (2j + 1)
    mod 4n or (j + 1) k mod 2 (n + 1).  No argument is rounded, so Q
    stays orthonormal to rounding as n grows (4.4e-15 at up to 601
    nodes, where cos of the rounded products reached 1.1e-13)."""
    n = t_diag.size
    j = np.arange(n)
    if t_diag[0] == 1.0:
        theta = np.pi * j / n
        period = 4 * n
        table = np.cos(np.pi / (2 * n) * np.arange(period))
        q = table[np.outer(2 * j + 1, j) % period] * np.sqrt(2.0 / n)
        q[:, 0] = np.sqrt(1.0 / n)
    else:
        theta = np.pi * (j + 1) / (n + 1)
        period = 2 * (n + 1)
        table = np.sin(np.pi / (n + 1) * np.arange(period))
        q = table[np.outer(j + 1, j + 1) % period] * np.sqrt(2.0 / (n + 1))
    return 4.0 * np.sin(0.5 * theta) ** 2, q


def _separable_solve(factors, dz, rows, cols, b):
    """A^-1 b on the block rows x cols (two slices with explicit bounds)
    of A, given by its _line_factors.

    With T Q = Q diag(lam) (_axial_basis) the block decouples into one
    tridiagonal system per axial mode k, (dz R + lam_k D/dz) x_k = (b Q)_k,
    and A^-1 b = [x_k] Q'.  The Thomas algorithm solves every mode's system
    together, one row of the block at a time.  R's reaction diagonal is
    positive and D > 0, so each system is symmetric positive definite and
    needs no pivoting.
    """
    r_diag, r_off, d_w, t_diag, _ = factors
    lam, q = _axial_basis(t_diag[cols])
    diag = dz * r_diag[rows, None] + d_w[rows, None] * lam[None, :] / dz
    off = dz * r_off[rows.start:rows.stop - 1]
    x = b @ q
    ratio = np.empty_like(x[:-1])
    pivot = diag[0]
    x[0] /= pivot
    for j in range(1, x.shape[0]):
        ratio[j - 1] = off[j - 1] / pivot
        pivot = diag[j] - off[j - 1] * ratio[j - 1]
        x[j] = (x[j] - off[j - 1] * x[j - 1]) / pivot
    for j in range(x.shape[0] - 2, -1, -1):
        x[j] -= ratio[j] * x[j + 1]
    return x @ q.T


def _separable_factor(factors, dz):
    """Diagonalise A, given by its _line_factors, on the whole grid.

    The Kronecker sum diagonalises as R V = D V diag(mu) with V' D V = I
    and T Q = Q diag(lam), so A (V Y Q') = D V (den Y) Q' with den = dz mu
    + lam/dz, elementwise (Lynch, Rice & Thomas, Numer. Math. 6 (1964)).  Q
    and lam are closed forms (_axial_basis); V and mu come from one dense
    symmetric eigensolve of D^-1/2 R D^-1/2.  Returns (V, Q, den).
    """
    r_diag, r_off, d_w, t_diag, _ = factors
    lam, q = _axial_basis(t_diag)
    scale = 1.0 / np.sqrt(d_w)
    # eigh reads the lower triangle only
    mu, w = np.linalg.eigh(np.diag(r_diag * scale * scale)
                           + np.diag(r_off * scale[:-1] * scale[1:], -1))
    return scale[:, None] * w, q, dz * mu[:, None] + lam[None, :] / dz


def _advected_lu(factors, dz, adv):
    """Sparse LU of A + diag(adv) (x) U on the whole grid, A given by its
    _line_factors and U the upwind first difference toward +z.  U does not
    commute with T, so this operator has no separable solve."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    r_diag, r_off, d_w, t_diag, t_off = factors
    nz = t_diag.size
    upwind = sp.diags([np.r_[0.0, np.ones(nz - 1)], -np.ones(nz - 1)],
                      [0, -1])
    lhs = (dz * sp.kron(sp.diags([r_off, r_diag, r_off], [-1, 0, 1]),
                        sp.identity(nz))
           + sp.kron(sp.diags(d_w), sp.diags([t_off, t_diag, t_off],
                                             [-1, 0, 1])) / dz
           + sp.kron(sp.diags(adv), upwind))
    return splu(lhs.tocsc())


# ---------------------------------------------------------------------------
# steady fluence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyComparison:
    grid: Grid2D
    phi_fd: np.ndarray
    phi_ref: np.ndarray
    rel_l2: float
    max_abs_err: float
    r_at_max: float
    z_at_max: float
    seconds: float


def _require_same_params(ps, sol):
    """Refuse a solution built for other parameters than ps: the FD
    coefficients would come from one set and the source and the
    closed-form reference from the other."""
    if sol is not None and sol.ps != ps:
        raise ValueError("sol was solved for another parameter set than ps")


def solve_steady_fluence(ps: ParameterSet, sol, nr=300, nz=300,
                         domain="annulus", rs_closure="trace",
                         z_closure="trace", scale=1) -> SteadyComparison:
    """Conservative FV solve of the steady light-diffusion equation, and
    its comparison against the closed form on the same grid.

    domain:     "annulus" (trace at r_f) or "full" (axis included).
    rs_closure: "trace", "zero_value" or "zero_flux" at r_s.
    z_closure:  "trace" or "zero_flux" at z = +-L.
    scale:      2 re-solves on the exactly-once-refined grid.
    The frame is frozen at t = t_end, when the source column spans the
    whole axial extent.
    """
    t0 = time.perf_counter()
    _require_same_params(ps, sol)
    geo = ps.geometry
    proto = ps.protocol
    rmin = geo.r_f if domain == "annulus" else 0.0
    if domain not in ("annulus", "full"):
        raise ValueError("unknown domain %r" % domain)
    grid = make_grid(geo, nr, nz, rmin=rmin, scale=scale)
    nrn, nzn = grid.shape

    diff_of = {reg: ps.derived_of(reg).D for reg in Region}
    react_of = {reg: ps.optics_of(reg).mu_a for reg in Region}
    d_face, d_cv, m_cv, s_cv = _per_node_coeffs(
        grid, geo, diff_of, react_of,
        src_radius=geo.r_f)

    src = sol.src
    zeta = grid.z + proto.v * proto.t_end
    q = (s_cv[:, None] * src.S0 * np.exp(-src.mu_t * zeta)[None, :]
         * grid.area[:, None] * grid.dz)
    q[:, zeta < 0.0] = 0.0

    ref = np.where(zeta < 0.0, 0.0,
                   sol.terms.field(grid.r[:, None], grid.z, proto.t_end))

    # every closure pins whole grid lines, so the free nodes form the
    # block rows x cols of the tensor grid
    vals = ref.copy()
    if z_closure == "trace":
        cols = slice(1, nzn - 1)
    elif z_closure == "zero_flux":
        cols = slice(0, nzn)
    else:
        raise ValueError("unknown z_closure %r" % z_closure)
    if rs_closure in ("trace", "zero_value"):
        stop = nrn - 1
        if rs_closure == "zero_value":
            vals[-1, :] = 0.0
    elif rs_closure == "zero_flux":
        stop = nrn
    else:
        raise ValueError("unknown rs_closure %r" % rs_closure)
    rows = slice(1 if domain == "annulus" else 0, stop)

    # the pinned values move to the right-hand side of the free block
    factors = _line_factors(grid, d_face, d_cv, m_cv)
    phi = vals.copy()
    phi[rows, cols] = 0.0
    b = (q - _kron_matvec(factors, grid.dz, phi))[rows, cols]
    phi[rows, cols] = _separable_solve(factors, grid.dz, rows, cols, b)
    free = np.zeros((nrn, nzn), dtype=bool)
    free[rows, cols] = True

    rr, _ = grid.meshes()
    wt = rr * np.gradient(grid.r)[:, None] * grid.dz
    err = phi - ref
    rel_l2 = float(np.sqrt(np.sum(wt[free] * err[free] ** 2)
                           / np.sum(wt[free] * ref[free] ** 2)))
    masked_err = np.where(free, np.abs(err), 0.0)
    jm, im = np.unravel_index(masked_err.argmax(), masked_err.shape)
    return SteadyComparison(
        grid=grid, phi_fd=phi, phi_ref=ref, rel_l2=rel_l2,
        max_abs_err=float(err[jm, im]), r_at_max=float(grid.r[jm]),
        z_at_max=float(grid.z[im]), seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# truncation-order probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualProbe:
    """Per-region discrete residual norms of an exact field, two grids."""

    norms_coarse: dict
    norms_fine: dict
    orders: dict


def residual_probe(ps: ParameterSet, field, diff_of, react_of, source=None,
                   rmin=0.0, nr=120, nz=120) -> ResidualProbe:
    """Apply the discrete operator to an exact field on an h and an h/2
    grid and estimate per-region truncation orders.

    field(r_mesh, z_mesh) -> values; source(r_mesh, z_mesh) -> volumetric
    source or None.  Nodes within _PROBE_HALO coarse cells (the same
    physical band on both grids) of an interface or boundary are
    excluded: the scheme is locally lower-order where coefficients kink,
    and the probe targets the smooth interior.
    """
    geo = ps.geometry

    def norms(scale):
        grid = make_grid(geo, nr, nz, rmin=rmin, scale=scale)
        d_face, d_cv, m_cv, _ = _per_node_coeffs(
            grid, geo, diff_of, react_of)
        rr, zz = grid.meshes()
        res = _kron_matvec(_line_factors(grid, d_face, d_cv, m_cv), grid.dz,
                           field(rr, zz))
        if source is not None:
            res -= source(rr, zz) * grid.area[:, None] * grid.dz
        vol = grid.area[:, None] * grid.dz * np.ones_like(res)
        res = res / vol                       # back to PDE units
        h = _PROBE_HALO * scale
        interior = np.ones(grid.shape, dtype=bool)
        interior[:h, :] = interior[-h:, :] = False
        interior[:, :h] = interior[:, -h:] = False
        for r_edge in geo.edges[1:-1]:
            if r_edge <= rmin:
                continue
            j = int(np.argmin(np.abs(grid.r - r_edge)))
            interior[max(0, j - h):j + h + 1, :] = False
        reg_of = region_index(grid.r, geo)
        out = {}
        for k, reg in enumerate(Region):
            pick = interior & (reg_of == k)[:, None]
            if pick.sum() == 0:
                continue
            out[reg] = float(np.sqrt(np.mean(res[pick] ** 2)))
        return out

    coarse = norms(1)
    fine = norms(2)
    orders = {reg: float(np.log2(coarse[reg] / fine[reg]))
              for reg in coarse if reg in fine and fine[reg] > 0.0}
    return ResidualProbe(norms_coarse=coarse, norms_fine=fine, orders=orders)


def fluence_residual_probe(ps: ParameterSet, sol, nr=120,
                           nz=120) -> ResidualProbe:
    """Truncation orders of the steady light-diffusion operator applied to
    the closed-form field at t = t_end (exact solutions show the scheme's
    own O(h^2))."""
    _require_same_params(ps, sol)
    frame_t = ps.protocol.t_end

    def field(rr, zz):
        # rr rows are constant radii by construction of the probe grids;
        # the exact field is continued behind the tip (no zeta < 0 mask)
        return sol.terms.field(rr[:, :1], zz, frame_t)

    def source(rr, zz):
        return sol.src.eval(rr, zz, frame_t)

    diff_of = {reg: ps.derived_of(reg).D for reg in Region}
    react_of = {reg: ps.optics_of(reg).mu_a for reg in Region}
    return residual_probe(ps, field, diff_of, react_of, source=source,
                          rmin=0.0, nr=nr, nz=nz)


# ---------------------------------------------------------------------------
# transient temperature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransientResult:
    grid: Grid2D
    times: np.ndarray
    snapshots: np.ndarray    # (len(times), nr, nz)
    seconds: float


def solve_transient_temperature(ps: ParameterSet, sol, nr=200, nz=220,
                                dt=0.05, snapshot_times=(0.0, 2.5, 5.0, 7.5,
                                                         10.0),
                                heating="analytic_fluence") -> TransientResult:
    """Backward-Euler bioheat solve on the full cylinder.

    rho c_p dT/dt = div(k grad T) - c_b omega (T - T_b)
                    - rho_b c_b u dT/dz + mu_a phi    (phi = 0 behind tip)

    Robin cooling at r_s, insulated z ends, uniform start at T_b.
    heating="none" switches the laser off (used by validation tests); the
    convective term applies in the blood lumen only and is first-order
    upwinded.  Every snapshot time must be a whole number of steps.

    Each step solves (M/dt + A + Robin) T = M T_old/dt + sources.  With
    u = 0 the mass and the Robin rim are radial diagonals, so the matrix
    is the steady solve's Kronecker sum with R' = R + diag(rho c_p area/dt)
    + r_s h e_last: it is diagonalised once, T = V Y Q', and the steps
    stay in the eigenbasis, Y <- (G Y + V' rhs Q) / den with G = V'
    diag(rho c_p area dz/dt) V.  The fixed sources are transformed once,
    and the heating, rank two in (r, z), one factor at a time: its radial
    rows once, its axial rows per step.  Only snapshot steps return to
    the grid.  With u > 0 the lumen advection adds
    a third Kronecker term, diag(lumen) (x) upwind difference, which does
    not commute with T; that matrix gets one sparse LU factorization,
    reused at every step.
    """
    t0 = time.perf_counter()
    if heating not in ("analytic_fluence", "none"):
        raise ValueError("unknown heating %r" % heating)
    if heating == "analytic_fluence" and sol is None:
        raise ValueError("heating='analytic_fluence' needs a fluence "
                         "solution")
    _require_same_params(ps, sol)
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be finite and > 0, got %r" % dt)
    snapshot_times = np.asarray(sorted(snapshot_times), dtype=float)
    if (snapshot_times.size == 0 or not np.all(np.isfinite(snapshot_times))
            or snapshot_times[0] < 0.0):
        raise ValueError("snapshot_times must be finite, >= 0 and not "
                         "empty, got %r" % (snapshot_times,))
    marks = np.rint(snapshot_times / dt)
    if np.any(np.abs(snapshot_times / dt - marks) > 1e-9):
        raise ValueError("snapshot_times %r are not whole multiples of "
                         "dt = %r" % (snapshot_times, dt))
    geo = ps.geometry
    proto = ps.protocol
    grid = make_grid(geo, nr, nz)
    nrn, nzn = grid.shape

    diff_of = {reg: ps.thermal_of(reg).k for reg in Region}
    c_b = ps.blood_thermal.c_p
    react_of = {reg: c_b * ps.thermal_of(reg).omega for reg in Region}
    d_face, d_cv, m_cv, _ = _per_node_coeffs(grid, geo, diff_of, react_of)
    # CV-averaged volumetric heat capacity (reuse the reaction averager)
    rho_cp_of = {reg: ps.thermal_of(reg).rho_cp for reg in Region}
    _, _, rho_cp_cv, _ = _per_node_coeffs(grid, geo, diff_of, rho_cp_of)
    mass = (rho_cp_cv * grid.area * grid.dz)[:, None]

    # R' = R + diag(rho c_p area/dt) + r_s h e_last, in place; the last
    # term is the Robin flux h (T - T_air) over the rim of each CV at r_s
    factors = _line_factors(grid, d_face, d_cv, m_cv)
    r_diag = factors[0]
    r_diag += rho_cp_cv * grid.area / dt
    r_diag[-1] += geo.r_s * proto.h_air
    # perfusion sink is relative to blood temperature
    rhs_fixed = np.repeat((m_cv * grid.area * grid.dz * proto.T_b)[:, None],
                          nzn, axis=1)
    rhs_fixed[-1] += geo.r_s * grid.dz * proto.h_air * proto.T_air

    # the heating mu_a phi per CV is rank two in (r, z): the radial rows
    # heat_r[f] times the axial factors e^{-mu_f (z + v t)} ahead of the tip
    heat_r = None
    if heating == "analytic_fluence":
        mu_a_node = np.array([ps.optics_of(reg).mu_a for reg in Region])[
            region_index(grid.r, geo)]
        heat_r = (mu_a_node * grid.area * grid.dz
                  * sol.terms.radial.values(grid.r))

        def heat_z(t):
            return np.where(grid.z + proto.v * t < 0.0, 0.0,
                            sol.terms.axial(grid.z, t))

    temp = np.full((nrn, nzn), proto.T_b)
    if proto.u > 0.0:
        # upwind advection, lumen nodes only, flow toward +z
        lu = _advected_lu(factors, grid.dz, np.where(
            grid.r < geo.r_i, ps.blood_thermal.rho_cp * proto.u * grid.area,
            0.0))

        def advance(temp, t):
            rhs = mass / dt * temp + rhs_fixed
            if heat_r is not None:
                rhs += heat_r.T @ heat_z(t)
            return lu.solve(rhs.ravel()).reshape(nrn, nzn)

        def on_grid(temp):
            return temp
        state = temp
    else:
        # T = V Y Q' and V^-1 = V' D (D = factors[2]): each step is
        # Y <- (G Y + V' rhs Q)/den with G = V' diag(mass/dt) V, and the
        # heating transformed factor by factor
        v, q, den = _separable_factor(factors, grid.dz)
        gain = v.T @ (mass / dt * v)
        fixed = v.T @ rhs_fixed @ q
        if heat_r is not None:
            heat_v = v.T @ heat_r.T

        def advance(y, t):
            rhs = gain @ y + fixed
            if heat_r is not None:
                rhs += heat_v @ (heat_z(t) @ q)
            return rhs / den

        def on_grid(y):
            return v @ y @ q.T
        state = v.T @ (factors[2][:, None] * temp) @ q

    # snapshots per step index; the fields are never written in place
    per_step = np.bincount(marks.astype(int))
    shots = [temp] * per_step[0]
    for n in range(1, per_step.size):
        state = advance(state, n * dt)
        if per_step[n]:
            shots += [on_grid(state)] * per_step[n]
    return TransientResult(grid=grid, times=snapshot_times,
                           snapshots=np.array(shots),
                           seconds=time.perf_counter() - t0)
