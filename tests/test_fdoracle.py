"""Reference-solver checks.

The radial-parabola case is machine-exact for this discretization: with
uniform conductivity the two-point flux of T = c - q r^2/(4 k) telescopes
against the control-volume source q A dz, so any deviation there is an
assembly bug rather than truncation error.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from evla import fdoracle as fd
from evla.fluence import assemble_and_solve
from evla.params import Region, default_params, derive_optics


# --- grids -------------------------------------------------------------------

def test_grid_hits_every_interface(ps810):
    geo = ps810.geometry
    grid = fd.make_grid(geo, 60, 40)
    for edge in (0.0, geo.r_f, geo.r_i, geo.r_w, geo.r_p, geo.r_s):
        assert np.min(np.abs(grid.r - edge)) == 0.0
    assert grid.lo[0] == 0.0
    assert grid.hi[-1] == geo.r_s
    # CV areas tile the disc
    assert np.sum(grid.area) == pytest.approx(0.5 * geo.r_s ** 2, rel=1e-14)
    assert grid.dz == pytest.approx(2.0 * geo.L / 40)


def test_refined_grid_nests_exactly(ps810):
    geo = ps810.geometry
    coarse = fd.make_grid(geo, 60, 40)
    fine = fd.make_grid(geo, 60, 40, scale=2)
    assert fine.r.size - 1 == 2 * (coarse.r.size - 1)
    assert fine.z.size - 1 == 2 * (coarse.z.size - 1)
    # every coarse node survives refinement (else order estimates drift)
    for rv in coarse.r:
        assert np.min(np.abs(fine.r - rv)) < 1e-12


def test_region_counts_floor(ps810):
    counts = fd.region_counts(ps810.geometry, 60)
    assert np.all(counts >= 8)          # thin regions kept resolved
    assert counts.sum() >= 60 * 0.8     # and the total stays in range


def test_annulus_grid_starts_at_fiber(ps810):
    geo = ps810.geometry
    grid = fd.make_grid(geo, 60, 20, rmin=geo.r_f)
    assert grid.r[0] == geo.r_f
    assert grid.lo[0] == geo.r_f


# --- machine-exact steady balance ---------------------------------------------

def test_radial_parabola_is_machine_exact(ps810):
    # uniform k, uniform volumetric source, Robin rim: the exact steady
    # solution T = T_air + q r_s/(2 h) + q (r_s^2 - r^2)/(4 k)
    geo = ps810.geometry
    grid = fd.make_grid(geo, 40, 6)
    nr, nz = grid.shape
    k, q, h, t_air = 5.0e-4, 1.0e-4, 1.0e-5, 20.0

    diff_of = {reg: k for reg in Region}
    react_of = {reg: 0.0 for reg in Region}
    d_face, d_cv, m_cv, _ = fd._per_node_coeffs(grid, geo, diff_of,
                                                react_of, None)
    op = fd._stencil(grid, d_face, d_cv, m_cv)
    rim = geo.r_s * grid.dz * h
    idx = (nr - 1) * nz + np.arange(nz)
    op = (op + sp.coo_matrix((np.full(nz, rim), (idx, idx)),
                             shape=op.shape)).tocsr()
    rhs = (q * grid.area[:, None] * grid.dz
           * np.ones((nr, nz))).ravel()
    rhs[idx] += rim * t_air

    temp = spl.spsolve(op, rhs).reshape(nr, nz)
    want = (t_air + q * geo.r_s / (2.0 * h)
            + q * (geo.r_s ** 2 - grid.r ** 2) / (4.0 * k))
    assert np.max(np.abs(temp - want[:, None])) < 1e-8


# --- steady fluence comparisons -------------------------------------------------

def test_annulus_trace_agrees_and_shrinks(ps810, sol810):
    base = fd.solve_steady_fluence(ps810, sol810, nr=120, nz=120)
    fine = fd.solve_steady_fluence(ps810, sol810, nr=120, nz=120, scale=2)
    assert base.rel_l2 < 5e-3            # measured ~1.9e-3
    assert base.rel_l2 / fine.rel_l2 > 2.5   # measured ~4.1
    assert base.phi_fd.shape == base.grid.shape
    geo = ps810.geometry
    assert geo.r_f <= base.r_at_max <= geo.r_s
    assert base.seconds > 0.0


def test_full_domain_carries_model_gap(ps810, sol810):
    # the closed form keeps a radial flux jump across r = r_f that a
    # conservative scheme cannot reproduce; the mismatch saturates near 2%
    # instead of vanishing with the mesh
    out = fd.solve_steady_fluence(ps810, sol810, nr=96, nz=96, domain="full")
    assert 5e-3 < out.rel_l2 < 5e-2      # measured ~2.1e-2


def test_rs_closure_variants(ps810, sol810):
    zv = fd.solve_steady_fluence(ps810, sol810, nr=96, nz=96,
                                 rs_closure="zero_value")
    zf = fd.solve_steady_fluence(ps810, sol810, nr=96, nz=96,
                                 rs_closure="zero_flux")
    tr = fd.solve_steady_fluence(ps810, sol810, nr=96, nz=96)
    assert zv.rel_l2 < 1e-2              # measured ~3.0e-3
    assert tr.rel_l2 < zf.rel_l2 < 1e-1  # measured ~3.5e-2


def test_z_zero_flux_breaks_at_tip_plane(ps810, sol810):
    # in the frozen frame at t_end the tip sits exactly on z = -L, where
    # the field peaks with a strong axial slope; insulating that plane is
    # qualitatively wrong and the comparison collapses
    out = fd.solve_steady_fluence(ps810, sol810, nr=96, nz=96,
                                  z_closure="zero_flux")
    assert out.rel_l2 > 0.5              # measured ~1.0


def _sparse_steady_reference(ps, sol, out, domain, rs_closure, z_closure):
    """The steady system assembled from _stencil with identity rows on the
    pinned nodes, solved by sparse LU: the reference for the separable
    solve."""
    grid = out.grid
    geo = ps.geometry
    nr, nz = grid.shape
    diff_of = {reg: ps.derived_of(reg).D for reg in Region}
    react_of = {reg: ps.optics_of(reg).mu_a for reg in Region}
    d_face, d_cv, m_cv, s_cv = fd._per_node_coeffs(
        grid, geo, diff_of, react_of,
        inside_src_of=lambda rv: 1.0 if rv < geo.r_f else 0.0)
    op = fd._stencil(grid, d_face, d_cv, m_cv)
    blood = derive_optics(ps.blood_optics)
    zeta = grid.z + ps.protocol.v * ps.protocol.t_end
    q = (s_cv[:, None] * sol.src.S0 * np.exp(-blood.mu_t * zeta)[None, :]
         * grid.area[:, None] * grid.dz)
    q[:, zeta < 0.0] = 0.0

    pinned = np.zeros(grid.shape, dtype=bool)
    vals = out.phi_ref.copy()
    if z_closure == "trace":
        pinned[:, [0, -1]] = True
    if rs_closure != "zero_flux":
        pinned[-1, :] = True
        if rs_closure == "zero_value":
            vals[-1, :] = 0.0
    if domain == "annulus":
        pinned[0, :] = True
    pin = pinned.ravel()
    lhs = sp.diags(np.where(pin, 0.0, 1.0)) @ op + sp.diags(pin * 1.0)
    rhs = np.where(pin, vals.ravel(), q.ravel())
    return spl.spsolve(lhs.tocsc(), rhs).reshape(nr, nz)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("z_closure", ["trace", "zero_flux"])
@pytest.mark.parametrize("rs_closure", ["trace", "zero_value", "zero_flux"])
@pytest.mark.parametrize("domain", ["annulus", "full"])
def test_separable_solve_matches_sparse_direct(ps810, sol810, domain,
                                               rs_closure, z_closure, scale):
    out = fd.solve_steady_fluence(ps810, sol810, nr=30, nz=24, domain=domain,
                                  rs_closure=rs_closure, z_closure=z_closure,
                                  scale=scale)
    want = _sparse_steady_reference(ps810, sol810, out, domain, rs_closure,
                                    z_closure)
    gap = np.linalg.norm(out.phi_fd - want) / np.linalg.norm(want)
    assert gap <= 1e-12, gap


def test_unknown_options_raise(ps810, sol810):
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24, domain="half")
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24,
                                rs_closure="mirror")
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24,
                                z_closure="mirror")


# --- truncation-order probe ------------------------------------------------------

def test_fluence_probe_shows_second_order(ps810, sol810):
    probe = fd.fluence_residual_probe(ps810, sol810, nr=96, nz=96)
    assert set(probe.orders) == set(Region)
    for reg, order in probe.orders.items():
        assert 1.7 < order < 2.3, (reg, order)
    for reg in Region:
        assert probe.norms_fine[reg] < probe.norms_coarse[reg]


# --- transient solver -------------------------------------------------------------

def test_transient_preserves_equilibrium():
    # uniform T_b is a steady state once the rim coupling is negligible;
    # perfusion and lumen advection must both leave it untouched
    ps = default_params(810, 15.0, u=70.0, h_air=1e-30)
    out = fd.solve_transient_temperature(ps, None, nr=40, nz=30, dt=0.5,
                                         snapshot_times=(0.0, 1.0, 2.0),
                                         heating="none")
    assert out.snapshots.shape[0] == 3
    assert np.max(np.abs(out.snapshots - ps.protocol.T_b)) < 1e-9


def test_transient_rim_cooling(ps810):
    out = fd.solve_transient_temperature(ps810, None, nr=40, nz=30, dt=0.25,
                                         snapshot_times=(0.0, 1.0),
                                         heating="none")
    t_b = ps810.protocol.T_b
    assert np.max(np.abs(out.snapshots[0] - t_b)) == 0.0
    late = out.snapshots[1]
    assert late.max() <= t_b + 1e-9
    assert late.min() < t_b - 0.05       # skin rim drawn toward the air
    assert late[0, :].min() > t_b - 1e-6  # axis does not feel it yet


def test_transient_first_order_in_dt(ps810, sol810):
    fields = {}
    for dt in (0.4, 0.2, 0.1):
        out = fd.solve_transient_temperature(
            ps810, sol810, nr=48, nz=48, dt=dt, snapshot_times=(2.0,),
            heating="analytic_fluence")
        fields[dt] = out.snapshots[-1]
    d1 = np.linalg.norm(fields[0.4] - fields[0.2])
    d2 = np.linalg.norm(fields[0.2] - fields[0.1])
    assert 1.5 < d1 / d2 < 2.4           # measured ~1.86
    # heating on: the lumen runs away while pad lobes go negative
    assert fields[0.1].max() > 1e3
    assert fields[0.1].min() < 0.0


def test_snapshot_bookkeeping(ps810):
    out = fd.solve_transient_temperature(
        ps810, None, nr=30, nz=20, dt=0.1,
        snapshot_times=(1.0, 0.0, 0.5), heating="none")
    assert out.snapshots.shape == (3,) + out.grid.shape
    np.testing.assert_allclose(out.times, [0.0, 0.5, 1.0])
    assert np.all(out.snapshots[0] == ps810.protocol.T_b)


def test_transient_advection_heated_pinned():
    # flowing blood with the laser on: upwind lumen advection and heating
    # together, against values recorded from the loop-assembled operator
    ps = default_params(810, 15.0, u=70.0)
    out = fd.solve_transient_temperature(ps, assemble_and_solve(ps), nr=24,
                                         nz=20, dt=0.25,
                                         snapshot_times=(0.5, 1.0))
    assert int(np.sum(out.grid.r < ps.geometry.r_i)) == 16
    want = np.array([
        [38.00055098799867, 314.037868644746, 403.26997313308976,
         397.5826852706531, 383.0915617597269],
        [38.00055009842702, 313.9165071903765, 402.617059058416,
         396.40807644009755, 381.62482909475665],
        [38.000546256890274, 313.3252007213796, 400.1630448407846,
         392.4820622262844, 376.98778470218446],
        [38.000534820488305, 311.17346233635857, 394.2928117440487,
         384.6873601623222, 368.57384225488096],
        [38.000505086493526, 303.9063914698839, 382.2831743450305,
         371.5975748449177, 355.73372814373283],
        [37.9997433869982, 36.54584204240642, 150.56682141677004,
         176.137285115844, 188.9476064593685],
        [38.00077670597617, 390.11262088063233, 476.8693569549998,
         469.1313943715008, 454.9340865865282],
        [38.002427443560215, 719.2661237557295, 786.7486065928207,
         753.141228875595, 717.4954845185987]])
    np.testing.assert_allclose(out.snapshots[-1][:16:2, 7::3], want,
                               rtol=1e-12)
    np.testing.assert_allclose(out.snapshots.reshape(2, -1).sum(axis=1),
                               [236784.33885693926, 390237.8180583217],
                               rtol=1e-12)
