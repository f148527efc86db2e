"""Reference-solver checks.

The radial-parabola case is machine-exact for this discretization: with
uniform conductivity the two-point flux of T = c - q r^2/(4 k) telescopes
against the control-volume source q A dz, so any deviation there is an
assembly bug rather than truncation error.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl

import evla
from evla import fdoracle as fd
from evla.fluence import assemble_and_solve
from evla.params import Region, default_params, derive_optics, preset_params
from oracles import stencil


def test_import_leaves_scipy_sparse_unloaded(tmp_path):
    # the CLI's closed-form commands and the u = 0 oracle solves run on
    # numpy alone; only the u > 0 transient imports scipy.sparse.  Nor do
    # they load numpy.ma (np.unique without return_inverse would)
    src = str(Path(evla.__file__).resolve().parents[1])
    code = """if True:
        import sys
        from evla import cli, fdoracle as fd
        from evla.fluence import assemble_and_solve
        from evla.params import default_params
        for command in ("temperature", "fluence"):
            assert cli.main([command, "--preset", "810-15w", "--grid",
                             "6,5", "--times", "0,5", "--out",
                             r"%s-" + command]) == 0
        ps = default_params(810, 15.0)
        sol = assemble_and_solve(ps)
        fd.solve_steady_fluence(ps, sol, nr=24, nz=24)
        fd.solve_steady_fluence(ps, sol, nr=24, nz=24, z_closure="zero_flux")
        fd.fluence_residual_probe(ps, sol, nr=24, nz=24)
        fd.solve_transient_temperature(ps, sol, nr=24, nz=20, dt=0.5,
                                       snapshot_times=(1.0,))
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy" or m == "numpy.ma"))
    """ % (tmp_path / "out")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


# --- the separable operator ----------------------------------------------------

@pytest.mark.parametrize("nodes", [25, 141, 151, 301, 601])
@pytest.mark.parametrize("ends", ["neumann", "pinned"])
def test_axial_basis_matches_lapack(ends, nodes):
    # the line of _line_factors' axial second difference, or its block
    # without the two end nodes; eigenvalues against LAPACK's, relative to
    # the spectrum's scale (LAPACK's small eigenvalues carry absolute
    # errors of order eps |T|, and the smallest Neumann one is 0)
    from scipy.linalg import eigh_tridiagonal

    t_diag = np.full(nodes, 2.0)
    t_diag[[0, -1]] = 1.0
    if ends == "pinned":
        t_diag = t_diag[1:-1]
    off = -np.ones(t_diag.size - 1)
    lam, q = fd._axial_basis(t_diag)
    want, q_ref = eigh_tridiagonal(t_diag, off)
    assert np.max(np.abs(lam - want)) <= 1e-13 * want[-1]
    t = np.diag(t_diag) + np.diag(off, 1) + np.diag(off, -1)
    qtq = q.T @ t @ q
    assert np.max(np.abs(qtq - np.diag(lam))) <= 1e-13 * want[-1]
    np.testing.assert_allclose(q.T @ q, np.eye(t_diag.size), rtol=0.0,
                               atol=1e-13)
    # the same eigenvectors, up to sign (the eigenvalues are simple)
    np.testing.assert_allclose(np.abs(q.T @ q_ref), np.eye(t_diag.size),
                               rtol=0.0, atol=1e-9)


def test_kronecker_operator_is_the_stencil(ps810):
    # the residual probe applies _kron_matvec; the sparse stencil is its
    # independent reference
    geo = ps810.geometry
    rng = np.random.default_rng(7)
    for grid in (fd.make_grid(geo, 60, 40),
                 fd.make_grid(geo, 60, 40, rmin=geo.r_f, scale=2)):
        diff_of = {reg: ps810.derived_of(reg).D for reg in Region}
        react_of = {reg: ps810.optics_of(reg).mu_a for reg in Region}
        d_face, d_cv, m_cv, _ = fd._per_node_coeffs(grid, geo, diff_of,
                                                    react_of)
        f = rng.standard_normal(grid.shape)
        got = fd._kron_matvec(fd._line_factors(grid, d_face, d_cv, m_cv),
                              grid.dz, f)
        want = (stencil(grid, d_face, d_cv, m_cv) @ f.ravel()).reshape(
            grid.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    op = stencil(grid, d_face, d_cv, m_cv)
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
    """The steady system assembled from stencil with identity rows on the
    pinned nodes, solved by sparse LU: the reference for the separable
    solve."""
    grid = out.grid
    geo = ps.geometry
    nr, nz = grid.shape
    diff_of = {reg: ps.derived_of(reg).D for reg in Region}
    react_of = {reg: ps.optics_of(reg).mu_a for reg in Region}
    d_face, d_cv, m_cv, s_cv = fd._per_node_coeffs(
        grid, geo, diff_of, react_of,
        src_radius=geo.r_f)
    op = stencil(grid, d_face, d_cv, m_cv)
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


@pytest.mark.parametrize("domain", ["annulus", "full"])
def test_one_column_free_block_matches_sparse_direct(ps810, sol810, domain):
    # nz = 2 with both z ends pinned leaves one free grid column: the
    # narrowest block the per-mode tridiagonal sweep solves
    out = fd.solve_steady_fluence(ps810, sol810, nr=30, nz=2, domain=domain)
    assert out.grid.shape[1] == 3
    want = _sparse_steady_reference(ps810, sol810, out, domain, "trace",
                                    "trace")
    gap = np.linalg.norm(out.phi_fd - want) / np.linalg.norm(want)
    assert gap <= 1e-12, gap


def test_reference_field_is_the_closed_form(ps810, sol810, temp810):
    # the oracle's reference is sol.eval ahead of the tip and 0 behind it,
    # in the steady frame (t_end); the term table's field on the grid, which
    # the oracle and the transient's heating read, is sol.eval at t = 2.5
    # too, where most of the grid lies behind the tip
    out = fd.solve_steady_fluence(ps810, sol810, nr=30, nz=24)
    grid = out.grid
    rr, zz = grid.meshes()
    v = ps810.protocol.v
    on_grid = sol810.terms.field(grid.r[:, None], grid.z, 2.5)
    for t, ref in ((ps810.protocol.t_end, out.phi_ref),
                   (2.5, np.where(zz + v * 2.5 < 0.0, 0.0, on_grid))):
        ahead = zz + v * t >= 0.0
        np.testing.assert_array_equal(ref[ahead],
                                      sol810.eval(rr[ahead], zz[ahead], t))
        assert np.all(ref[~ahead] == 0.0)
    assert np.any(~ahead)
    # the temperature's table extends the fluence's: the same two forced
    # rows and rates, then the offset and the modes at rate 0
    assert tuple(temp810.terms.mu[:2]) == tuple(sol810.terms.mu)
    assert np.all(temp810.terms.mu[2:] == 0.0)
    forced = temp810.terms.radial.rows(slice(2))
    for key in ("kind", "q", "a", "b"):
        np.testing.assert_array_equal(getattr(forced, key),
                                      getattr(sol810.terms.radial, key))


def test_unknown_options_raise(ps810, sol810):
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24, domain="half")
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24,
                                rs_closure="mirror")
    with pytest.raises(ValueError):
        fd.solve_steady_fluence(ps810, sol810, nr=24, nz=24,
                                z_closure="mirror")


@pytest.mark.parametrize("change, match", [
    (dict(nz=0), "nz must"),
    (dict(nz=1), "nz must"),
    (dict(nz=24.0), "nz must"),
    (dict(nr=0), "nr must"),
    (dict(nr=-5), "nr must"),
    (dict(scale=0), "scale must"),
    (dict(scale=1.5), "scale must"),
], ids=["nz-zero", "nz-one", "nz-float", "nr-zero", "nr-neg", "scale-zero",
        "scale-float"])
def test_steady_rejects_bad_grids(ps810, sol810, change, match):
    args = dict(nr=24, nz=24)
    args.update(change)
    with pytest.raises(ValueError, match=match):
        fd.solve_steady_fluence(ps810, sol810, **args)


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


def _sparse_transient_reference(ps, sol, grid, dt, times, heating,
                                rim_scale=1.0):
    """The u = 0 backward-Euler steps assembled from stencil, the Robin
    rim (times rim_scale) and mass/dt, solved by sparse LU: the reference
    for the separable transient."""
    geo, proto = ps.geometry, ps.protocol
    nr, nz = grid.shape
    diff_of = {reg: ps.thermal_of(reg).k for reg in Region}
    react_of = {reg: ps.blood_thermal.c_p * ps.thermal_of(reg).omega
                for reg in Region}
    rho_cp_of = {reg: ps.thermal_of(reg).rho_cp for reg in Region}
    d_face, d_cv, m_cv, _ = fd._per_node_coeffs(grid, geo, diff_of, react_of)
    _, _, rho_cp_cv, _ = fd._per_node_coeffs(grid, geo, diff_of, rho_cp_of)
    op = stencil(grid, d_face, d_cv, m_cv)
    rim = rim_scale * geo.r_s * grid.dz * proto.h_air
    idx = (nr - 1) * nz + np.arange(nz)
    mass = np.repeat(rho_cp_cv * grid.area * grid.dz, nz)
    lu = spl.splu((op + sp.coo_matrix((np.full(nz, rim), (idx, idx)),
                                      shape=op.shape)
                   + sp.diags(mass / dt)).tocsc())
    rhs_fixed = np.repeat(m_cv * grid.area * grid.dz * proto.T_b, nz)
    rhs_fixed[idx] += rim * proto.T_air
    mu_a = np.array([ps.optics_of(reg).mu_a for reg in Region])[
        fd.region_index(grid.r, geo)]
    temp = np.full(nr * nz, proto.T_b)
    shots = []
    for n in range(1, int(round(max(times) / dt)) + 1):
        rhs = mass / dt * temp + rhs_fixed
        if heating == "analytic_fluence":
            phi = np.where(grid.z + proto.v * n * dt < 0.0, 0.0,
                           sol.terms.field(grid.r[:, None], grid.z, n * dt))
            rhs += (mu_a[:, None] * phi * grid.area[:, None]
                    * grid.dz).ravel()
        temp = lu.solve(rhs)
        if any(abs(n * dt - t) < 1e-9 for t in times):
            shots.append(temp.reshape(nr, nz))
    return np.array(shots)


@pytest.mark.parametrize("dt", [0.25, 0.5])
@pytest.mark.parametrize("h_air", [1e-4, 1e-3])
@pytest.mark.parametrize("heating", ["analytic_fluence", "none"])
def test_separable_transient_matches_sparse_lu(heating, h_air, dt):
    # h_air at and above 10x the default, so that the rim moves the field
    # enough for the perturbed check below to resolve
    ps = default_params(810, 15.0, h_air=h_air)
    sol = assemble_and_solve(ps)
    times = (1.0, 4.0, 8.0)
    out = fd.solve_transient_temperature(ps, sol, nr=30, nz=24, dt=dt,
                                         snapshot_times=times,
                                         heating=heating)

    def gaps(rim_scale):
        want = _sparse_transient_reference(ps, sol, out.grid, dt, times,
                                           heating, rim_scale)
        return [np.linalg.norm(a - b) / np.linalg.norm(b)
                for a, b in zip(out.snapshots, want)]

    assert max(gaps(1.0)) <= 1e-12, gaps(1.0)
    # the comparison resolves a 1e-9 relative change of the Robin rim
    assert max(gaps(1.0 + 1e-9)) > 1e-12, gaps(1.0 + 1e-9)


def test_separable_transient_snapshots_split_cleanly(ps810, sol810):
    # the u = 0 steps stay in the eigenbasis and return to the grid only at
    # snapshot steps: extra snapshots must not change the state carried on
    out = fd.solve_transient_temperature(ps810, sol810, nr=30, nz=24,
                                         dt=0.5,
                                         snapshot_times=(1.0, 4.0, 8.0))
    alone = fd.solve_transient_temperature(ps810, sol810, nr=30, nz=24,
                                           dt=0.5, snapshot_times=(4.0,))
    gap = np.max(np.abs(out.snapshots[1] - alone.snapshots[0]))
    assert gap <= 1e-13 * np.max(np.abs(alone.snapshots[0])), gap
    twice = fd.solve_transient_temperature(ps810, sol810, nr=30, nz=24,
                                           dt=0.5,
                                           snapshot_times=(4.0, 2.0, 4.0))
    np.testing.assert_allclose(twice.times, [2.0, 4.0, 4.0])
    np.testing.assert_array_equal(twice.snapshots[1], twice.snapshots[2])
    np.testing.assert_array_equal(twice.snapshots[2], alone.snapshots[0])


@pytest.mark.parametrize("change, match", [
    (dict(heating="analytic"), "unknown heating"),
    (dict(heating="analytic_fluence", sol=None), "needs a fluence"),
    (dict(dt=-0.5), "dt must"),
    (dict(dt=0.0), "dt must"),
    (dict(dt=np.nan), "dt must"),
    (dict(dt=np.inf), "dt must"),
    (dict(snapshot_times=()), "snapshot_times must"),
    (dict(snapshot_times=(np.nan,)), "snapshot_times must"),
    (dict(snapshot_times=(-1.0, 1.0)), "snapshot_times must"),
    (dict(dt=0.4, snapshot_times=(1.0,)), "whole multiples"),
    (dict(nz=0), "nz must"),
    (dict(nz=1), "nz must"),
    (dict(nr=-5), "nr must"),
    (dict(nr=24.5), "nr must"),
], ids=["heating", "no-sol", "dt-neg", "dt-zero", "dt-nan", "dt-inf",
        "times-empty", "times-nan", "times-neg", "times-off-step", "nz-zero",
        "nz-one", "nr-neg", "nr-float"])
def test_transient_rejects_bad_inputs(ps810, sol810, change, match):
    args = dict(sol=sol810, nr=24, nz=20, dt=0.5, snapshot_times=(1.0,),
                heating="none")
    args.update(change)
    with pytest.raises(ValueError, match=match):
        fd.solve_transient_temperature(ps810, **args)


@pytest.mark.parametrize("solve", [
    lambda ps, sol: fd.solve_steady_fluence(ps, sol, nr=24, nz=24),
    lambda ps, sol: fd.fluence_residual_probe(ps, sol, nr=24, nz=24),
    lambda ps, sol: fd.solve_transient_temperature(
        ps, sol, nr=24, nz=20, dt=0.5, snapshot_times=(1.0,)),
], ids=["steady", "probe", "transient"])
def test_solution_of_another_parameter_set_is_refused(sol810, solve):
    # 980 nm coefficients against an 810 nm source and reference; also a
    # set that differs from sol's only in h_air, which the fluence ignores
    for ps in (preset_params("980-15w"),
               default_params(810, 15.0, h_air=2e-5)):
        with pytest.raises(ValueError, match="another parameter set"):
            solve(ps, sol810)
