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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .params import ParameterSet, Region, derive_optics, region_of

_MIN_NODES_PER_REGION = 8


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
    edges = [0.0, geo.r_f, geo.r_i, geo.r_w, geo.r_p, geo.r_s]
    edges = [e for e in edges if e > rmin]
    return np.array([rmin] + edges)


def region_counts(geo, nr, rmin=0.0):
    """Radial cell counts per region: proportional to width, with a floor
    so the thin wall is never under-resolved.  Kept separate from
    make_grid so a refined grid can use exactly doubled counts (the floor
    would otherwise freeze the spacing of thin regions across one
    refinement and corrupt order estimates)."""
    widths = np.diff(_region_edges(geo, rmin))
    return np.maximum(_MIN_NODES_PER_REGION,
                      np.round(nr * widths / widths.sum()).astype(int))


def make_grid(geo, nr, nz, rmin=0.0, zmin=None, zmax=None, scale=1,
              counts=None) -> Grid2D:
    """Tensor grid; scale=2 produces the grid exactly once refined."""
    edges = _region_edges(geo, rmin)
    if counts is None:
        counts = region_counts(geo, nr, rmin)
    counts = np.asarray(counts) * scale
    nz = nz * scale
    r = np.unique(np.concatenate(
        [np.linspace(edges[i], edges[i + 1], counts[i] + 1)
         for i in range(len(counts))]))
    zmin = -geo.L if zmin is None else zmin
    zmax = geo.L if zmax is None else zmax
    z = np.linspace(zmin, zmax, nz + 1)
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


def _per_node_coeffs(grid: Grid2D, geo, diff_of, react_of, inside_src_of):
    """CV-averaged coefficients.

    diff_of/react_of map Region -> constant; inside_src_of is the r < r_f
    indicator weight (None to skip).  Returns radial-face diffusivity,
    CV axial diffusivity, CV reaction and CV source weights.
    """
    r, lo, hi = grid.r, grid.lo, grid.hi

    def at(rv):
        return region_of(min(rv, geo.r_s - 1e-12), geo)

    d_face = np.array([diff_of[at(0.5 * (r[j] + r[j + 1]))]
                       for j in range(r.size - 1)])
    d_cv = np.empty_like(r)
    m_cv = np.empty_like(r)
    s_cv = np.zeros_like(r)
    for j, rv in enumerate(r):
        a_in = rv * rv - lo[j] * lo[j]
        a_out = hi[j] * hi[j] - rv * rv
        total = a_in + a_out
        reg_in = at(0.5 * (lo[j] + rv)) if a_in > 0 else None
        reg_out = at(0.5 * (rv + hi[j])) if a_out > 0 else None
        d_cv[j] = ((diff_of[reg_in] * a_in if reg_in else 0.0)
                   + (diff_of[reg_out] * a_out if reg_out else 0.0)) / total
        m_cv[j] = ((react_of[reg_in] * a_in if reg_in else 0.0)
                   + (react_of[reg_out] * a_out if reg_out else 0.0)) / total
        if inside_src_of is not None:
            w_in = inside_src_of(0.5 * (lo[j] + rv)) if a_in > 0 else 0.0
            w_out = inside_src_of(0.5 * (rv + hi[j])) if a_out > 0 else 0.0
            s_cv[j] = (w_in * a_in + w_out * a_out) / total
    return d_face, d_cv, m_cv, s_cv


def _stencil(grid: Grid2D, d_face, d_cv, m_cv):
    """Sparse 5-point operator: flux divergence + reaction, CV-integrated.

    Rows are produced for every node; boundary handling replaces rows
    afterwards.  Missing neighbours (domain edges) simply contribute no
    flux, which is a homogeneous Neumann edge by construction.
    """
    nr, nz = grid.shape
    dz = grid.dz
    jj, ii = np.meshgrid(np.arange(nr), np.arange(nz), indexing="ij")
    k = (jj * nz + ii).ravel()

    rows, cols, vals = [k], [k], [m_cv[jj.ravel()] * grid.area[jj.ravel()]
                                  * dz]

    def add(mask, neigh, w):
        kk = k[mask.ravel()]
        rows.append(kk)
        cols.append(neigh.ravel()[mask.ravel()])
        vals.append(-w.ravel()[mask.ravel()])
        rows.append(kk)
        cols.append(kk)
        vals.append(w.ravel()[mask.ravel()])

    # radial neighbours
    w_in = np.zeros((nr, nz))
    w_in[1:, :] = (d_face[:, None] * grid.rface[:, None] * dz
                   / np.diff(grid.r)[:, None])
    add(jj > 0, (jj - 1) * nz + ii, w_in)
    w_out = np.zeros((nr, nz))
    w_out[:-1, :] = (d_face[:, None] * grid.rface[:, None] * dz
                     / np.diff(grid.r)[:, None])
    add(jj < nr - 1, (jj + 1) * nz + ii, w_out)
    # axial neighbours
    w_z = d_cv[jj] * grid.area[jj] / dz
    add(ii > 0, jj * nz + (ii - 1), w_z)
    add(ii < nz - 1, jj * nz + (ii + 1), w_z)

    return sp.csr_matrix(
        sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nr * nz, nr * nz)))


def _dirichlet_rows(matrix, rhs, mask_flat, values_flat):
    """Replace the masked rows by identity rows with prescribed values."""
    n = matrix.shape[0]
    keep = sp.diags(np.where(mask_flat, 0.0, 1.0))
    pin = sp.diags(np.where(mask_flat, 1.0, 0.0))
    out = keep @ matrix + pin
    rhs = np.where(mask_flat, values_flat, rhs)
    return out.tocsr(), rhs


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


def _analytic_on_grid(sol, grid: Grid2D, t, profiles):
    """Closed-form fluence on the tensor grid at time t, zero behind the
    tip.  profiles = sol.profiles(grid.r), computed once per grid; only
    the axial exponentials depend on t."""
    blood = derive_optics(sol.ps.blood_optics)
    prof_e, prof_t = profiles
    zeta = grid.z + sol.ps.protocol.v * t
    field = (prof_e[:, None] * np.exp(-blood.mu_eff * zeta)[None, :]
             + prof_t[:, None] * np.exp(-blood.mu_t * zeta)[None, :])
    return np.where(zeta[None, :] < 0.0, 0.0, field)


def solve_steady_fluence(ps: ParameterSet, sol, nr=300, nz=300,
                         domain="annulus", rs_closure="trace",
                         z_closure="trace", frame_t=None,
                         scale=1) -> SteadyComparison:
    """Conservative FV solve of the steady light-diffusion equation, and
    its comparison against the closed form on the same grid.

    domain:     "annulus" (trace at r_f) or "full" (axis included).
    rs_closure: "trace", "zero_value" or "zero_flux" at r_s.
    z_closure:  "trace" or "zero_flux" at z = +-L.
    scale:      2 re-solves on the exactly-once-refined grid.
    The frame is frozen at t = frame_t (default t_end, when the source
    column spans the whole axial extent).
    """
    t0 = time.time()
    geo = ps.geometry
    proto = ps.protocol
    if frame_t is None:
        frame_t = proto.t_end
    rmin = geo.r_f if domain == "annulus" else 0.0
    if domain not in ("annulus", "full"):
        raise ValueError("unknown domain %r" % domain)
    grid = make_grid(geo, nr, nz, rmin=rmin, scale=scale)
    nrn, nzn = grid.shape

    diff_of = {reg: ps.derived_of(reg).D for reg in Region}
    react_of = {reg: ps.optics_of(reg).mu_a for reg in Region}
    d_face, d_cv, m_cv, s_cv = _per_node_coeffs(
        grid, geo, diff_of, react_of,
        inside_src_of=lambda rv: 1.0 if rv < geo.r_f else 0.0)

    matrix = _stencil(grid, d_face, d_cv, m_cv)

    blood = derive_optics(ps.blood_optics)
    src = sol.src
    zeta = grid.z + proto.v * frame_t
    q = (s_cv[:, None] * src.S0 * np.exp(-blood.mu_t * zeta)[None, :]
         * grid.area[:, None] * grid.dz)
    q[:, zeta < 0.0] = 0.0
    rhs = q.ravel()

    ref = _analytic_on_grid(sol, grid, frame_t, sol.profiles(grid.r))

    mask = np.zeros((nrn, nzn), dtype=bool)
    vals = ref.copy()
    if z_closure == "trace":
        mask[:, 0] = mask[:, -1] = True
    elif z_closure != "zero_flux":
        raise ValueError("unknown z_closure %r" % z_closure)
    if rs_closure in ("trace", "zero_value"):
        mask[-1, :] = True
        if rs_closure == "zero_value":
            vals[-1, :] = 0.0
    elif rs_closure != "zero_flux":
        raise ValueError("unknown rs_closure %r" % rs_closure)
    if domain == "annulus":
        mask[0, :] = True

    matrix, rhs = _dirichlet_rows(matrix, rhs, mask.ravel(), vals.ravel())
    phi = spl.spsolve(matrix, rhs).reshape(nrn, nzn)

    rr, _ = grid.meshes()
    wt = rr * np.gradient(grid.r)[:, None] * grid.dz
    free = ~mask
    err = phi - ref
    rel_l2 = float(np.sqrt(np.sum(wt[free] * err[free] ** 2)
                           / np.sum(wt[free] * ref[free] ** 2)))
    masked_err = np.where(free, np.abs(err), 0.0)
    jm, im = np.unravel_index(masked_err.argmax(), masked_err.shape)
    return SteadyComparison(
        grid=grid, phi_fd=phi, phi_ref=ref, rel_l2=rel_l2,
        max_abs_err=float(err[jm, im]), r_at_max=float(grid.r[jm]),
        z_at_max=float(grid.z[im]), seconds=time.time() - t0)


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
                   rmin=0.0, nr=120, nz=120, halo=3) -> ResidualProbe:
    """Apply the discrete operator to an exact field on an h and an h/2
    grid and estimate per-region truncation orders.

    field(r_mesh, z_mesh) -> values; source(r_mesh, z_mesh) -> volumetric
    source or None.  Nodes within `halo` cells of an interface or boundary
    are excluded: the scheme is locally lower-order where coefficients
    kink, and the probe targets the smooth interior.
    """
    geo = ps.geometry

    def norms(scale):
        grid = make_grid(geo, nr, nz, rmin=rmin, scale=scale)
        d_face, d_cv, m_cv, _ = _per_node_coeffs(
            grid, geo, diff_of, react_of, inside_src_of=None)
        op = _stencil(grid, d_face, d_cv, m_cv)
        rr, zz = grid.meshes()
        f = field(rr, zz)
        res = (op @ f.ravel()).reshape(grid.shape)
        if source is not None:
            res -= source(rr, zz) * grid.area[:, None] * grid.dz
        vol = grid.area[:, None] * grid.dz * np.ones_like(res)
        res = res / vol                       # back to PDE units
        h = halo * scale   # exclude a fixed physical band, not node count
        interior = np.ones(grid.shape, dtype=bool)
        interior[:h, :] = interior[-h:, :] = False
        interior[:, :h] = interior[:, -h:] = False
        for r_edge in (geo.r_f, geo.r_i, geo.r_w, geo.r_p):
            if r_edge <= rmin:
                continue
            j = int(np.argmin(np.abs(grid.r - r_edge)))
            interior[max(0, j - h):j + h + 1, :] = False
        out = {}
        for reg in Region:
            m = np.array([region_of(min(rv, geo.r_s - 1e-12), geo) is reg
                          for rv in grid.r])
            pick = interior & m[:, None]
            if pick.sum() == 0:
                continue
            out[reg] = float(np.sqrt(np.mean(res[pick] ** 2)))
        return out

    coarse = norms(1)
    fine = norms(2)
    orders = {reg: float(np.log2(coarse[reg] / fine[reg]))
              for reg in coarse if reg in fine and fine[reg] > 0.0}
    return ResidualProbe(norms_coarse=coarse, norms_fine=fine, orders=orders)


def fluence_residual_probe(ps: ParameterSet, sol, nr=120, nz=120,
                           frame_t=None) -> ResidualProbe:
    """Truncation orders of the steady light-diffusion operator applied to
    the closed-form field (exact solutions show the scheme's own O(h^2))."""
    if frame_t is None:
        frame_t = ps.protocol.t_end
    geo = ps.geometry
    blood = derive_optics(ps.blood_optics)
    src = sol.src

    def field(rr, zz):
        # rr rows are constant radii by construction of the probe grids
        out = np.empty_like(rr)
        for j in range(rr.shape[0]):
            rv = rr[j, 0]
            reg = region_of(min(rv, geo.r_s - 1e-12), geo)
            zeta = zz[j, :] + ps.protocol.v * frame_t
            out[j, :] = (sol.profile_eff(reg, rv) * np.exp(-blood.mu_eff
                                                           * zeta)
                         + sol.profile_t(reg, rv) * np.exp(-blood.mu_t
                                                           * zeta))
        return out

    def source(rr, zz):
        zeta = zz + ps.protocol.v * frame_t
        return np.where(rr < geo.r_f, src.S0 * np.exp(-blood.mu_t * zeta),
                        0.0)

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

    Robin cooling at r_s, insulated z ends, uniform start at T_b.  The
    fixed matrix is factorized once; each step is a pair of triangular
    solves.  heating="none" switches the laser off (used by validation
    tests); the convective term applies in the blood lumen only and is
    first-order upwinded.
    """
    t0 = time.time()
    geo = ps.geometry
    proto = ps.protocol
    grid = make_grid(geo, nr, nz)
    nrn, nzn = grid.shape

    diff_of = {reg: ps.thermal_of(reg).k for reg in Region}
    c_b = ps.blood_thermal.c_p
    react_of = {reg: c_b * ps.thermal_of(reg).omega for reg in Region}
    d_face, d_cv, m_cv, _ = _per_node_coeffs(grid, geo, diff_of, react_of,
                                             inside_src_of=None)
    op = _stencil(grid, d_face, d_cv, m_cv)

    # Robin at r_s: outward flux h (T - T_air) over the rim of each CV
    rim = geo.r_s * grid.dz * proto.h_air
    idx_rs = (nrn - 1) * nzn + np.arange(nzn)
    robin = sp.coo_matrix((np.full(nzn, rim), (idx_rs, idx_rs)),
                          shape=op.shape)
    op = (op + robin).tocsr()
    rhs_fixed = np.zeros(nrn * nzn)
    rhs_fixed[idx_rs] += rim * proto.T_air

    # perfusion sink is relative to blood temperature
    rhs_fixed += (m_cv * grid.area * grid.dz * proto.T_b)[:, None] \
        .repeat(nzn, axis=1).ravel()

    if proto.u > 0.0:
        # upwind advection, lumen nodes only, flow toward +z
        adv = ps.blood_thermal.rho_cp * proto.u
        rows, cols, vals = [], [], []
        for j in np.nonzero(grid.r < geo.r_i)[0]:
            w = adv * grid.area[j]
            for i in range(1, nzn):
                k = j * nzn + i
                rows += [k, k]
                cols += [k, k - 1]
                vals += [w, -w]
        op = (op + sp.coo_matrix((vals, (rows, cols)),
                                 shape=op.shape)).tocsr()

    # CV-averaged volumetric heat capacity (reuse the reaction averager)
    rho_cp_of = {reg: ps.thermal_of(reg).rho_cp for reg in Region}
    _, _, rho_cp_cv, _ = _per_node_coeffs(grid, geo, diff_of, rho_cp_of,
                                          inside_src_of=None)
    mass = ((rho_cp_cv * grid.area * grid.dz)[:, None]
            .repeat(nzn, axis=1).ravel())
    lhs = (sp.diags(mass / dt) + op).tocsc()
    lu = spl.splu(lhs)

    mu_a_node = np.array(
        [ps.optics_of(region_of(min(rv, geo.r_s - 1e-12), geo)).mu_a
         for rv in grid.r])
    cell = grid.area[:, None] * grid.dz
    if heating == "analytic_fluence":
        profiles = sol.profiles(grid.r)

    snapshot_times = np.asarray(sorted(snapshot_times), dtype=float)
    steps = int(round(snapshot_times[-1] / dt))
    temp = np.full((nrn, nzn), proto.T_b)
    shots = [temp.copy() if snapshot_times[0] == 0.0 else None]
    if shots[0] is None:
        shots = []
    want = list(snapshot_times[1:] if snapshot_times[0] == 0.0
                else snapshot_times)

    for n in range(1, steps + 1):
        t = n * dt
        rhs = mass / dt * temp.ravel() + rhs_fixed
        if heating == "analytic_fluence":
            phi = _analytic_on_grid(sol, grid, t, profiles)
            rhs = rhs + (mu_a_node[:, None] * phi * cell).ravel()
        temp = lu.solve(rhs).reshape(nrn, nzn)
        while want and t >= want[0] - 0.5 * dt:
            shots.append(temp.copy())
            want.pop(0)
    return TransientResult(grid=grid, times=snapshot_times,
                           snapshots=np.array(shots),
                           seconds=time.time() - t0)
