"""Temperature construction tests.

Forcing-rate constants were frozen from an independent hand evaluation
(810 nm, g defaults):

    zeta_col_eff = k_b mu_eff^2 / (rho c)_b           = 0.08069811320754715
    zeta_col_t   = k_b mu_t^2 / (rho c)_b             = 0.3800387840670859
    zeta_wall    = (k_w 1.56      - c_b w_w)/(rho c)_w = 0.20649202047576035
    zeta_pad     = (k_p 0.062067  - c_b w_p)/(rho c)_p = 0.004014497872340427
    zeta_skin    = (k_s 0.66      - c_b w_s)/(rho c)_s = 0.0351935591910344
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from evla import params, thermal
from evla.fluence import DomainError
from evla.layered import IK, stack
from evla.params import OUTER, Region
from evla.thermal import (BracketExhausted, build_temperature,
                          forcing_rates, growth_bracket, modal_eigenvalues,
                          project_initial, steady_robin_offset)
from oracles import scan_roots

# the 20 decay rates of the default tissue stack [1/s], recorded from the
# scalar determinant scan with brentq refinement; the tissue thermal data do
# not depend on the wavelength, so 810-15w and 980-15w share them
ZETA_DEFAULT_STACK = (
    -0.002004975708885595, -0.010770883930112395, -0.02942621450260554,
    -0.05523647607979443, -0.08811781386189418, -0.13294052532574238,
    -0.1869410842112843, -0.24395479929495362, -0.3090219820344255,
    -0.38731265528616315, -0.471475326354261, -0.5557101904581383,
    -0.650369392524117, -0.761160159914614, -0.8780401486205266,
    -0.994737774662388, -1.1275007974012108, -1.2787998464991441,
    -1.43088863458716, -1.5828949149444722)


@pytest.fixture(scope="module")
def modes810(ps810):
    return modal_eigenvalues(ps810, n_modes=20)


@pytest.fixture(scope="module")
def offset810(ps810):
    return steady_robin_offset(ps810)


# --- growth bracket ---------------------------------------------------------

def test_growth_bracket_matches_direct_form():
    a, b, t = 0.31, -1.2, 4.0
    want = (math.exp(a * t) - math.exp(b * t)) / (a - b)
    assert growth_bracket(a, b, t) == pytest.approx(want, rel=1e-14)


def test_growth_bracket_degenerate_limit():
    a, t = -0.4, 2.5
    assert growth_bracket(a, a, t) == pytest.approx(t * math.exp(a * t),
                                                    rel=1e-14)
    # and it is continuous approaching the diagonal
    near = growth_bracket(a, a + 1e-9, t)
    assert near == pytest.approx(t * math.exp(a * t), rel=1e-7)


def test_growth_bracket_zero_time():
    assert growth_bracket(0.5, -0.3, 0.0) == 0.0


def test_growth_bracket_vectorizes():
    t = np.linspace(0.0, 10.0, 11)
    out = growth_bracket(0.2, -1.67, t)
    assert out.shape == t.shape
    assert np.all(np.diff(out) > 0)      # growing envelope


# --- forcing rates ----------------------------------------------------------

def test_forcing_rates_frozen(ps810):
    col_eff, col_t = 0.08069811320754715, 0.3800387840670859
    tissue = [0.20649202047576035, 0.004014497872340427, 0.0351935591910344]
    # rows: the mu_eff and mu_t families; columns: fiber column, blood
    # annulus, wall, pad, skin.  The annulus oscillatory profile grows at
    # the mu_eff rate even though it rides the mu_t axial factor (radial
    # curvature makes the difference)
    np.testing.assert_allclose(
        forcing_rates(ps810),
        [[col_eff, col_eff] + tissue, [col_t, col_eff] + tissue],
        rtol=1e-12, atol=0.0)


def test_forcing_rates_blood_flow_raises_rates():
    still = forcing_rates(params.default_params(810, 15.0))
    moving = forcing_rates(params.default_params(810, 15.0, u=70.0))
    assert moving[0, 0] == pytest.approx(53.94887053440632, rel=1e-12)
    assert moving[1, 0] == pytest.approx(117.28003878406707, rel=1e-12)
    lumen = slice(0, thermal.OUTER_FIRST)
    assert np.all(moving[:, lumen] > still[:, lumen])
    # tissue rates carry no flow dependence
    np.testing.assert_array_equal(moving[:, thermal.OUTER_FIRST:],
                                  still[:, thermal.OUTER_FIRST:])


# --- steady Robin offset -----------------------------------------------------

def test_offset_boundary_rows(ps810, offset810):
    geo = ps810.geometry
    proto = ps810.protocol
    assert abs(offset810.values(geo.r_i)[0]) < 1e-10
    robin = (ps810.thermal_of(Region.SKIN).k
             * offset810.derivs(geo.r_s)[0]
             + proto.h_air * (offset810.values(geo.r_s)[0]
                              - (proto.T_air - proto.T_b)))
    assert abs(robin) < 1e-15


def test_offset_interface_continuity(ps810, offset810):
    geo = ps810.geometry
    for rb, inner, outer in ((geo.r_w, Region.WALL, Region.PAD),
                             (geo.r_p, Region.PAD, Region.SKIN)):
        dv = (offset810.values(rb - 1e-12)[0]
              - offset810.values(rb + 1e-12)[0])
        fi = (ps810.thermal_of(inner).k
              * offset810.derivs(rb - 1e-12)[0])
        fo = (ps810.thermal_of(outer).k
              * offset810.derivs(rb + 1e-12)[0])
        assert abs(dv) < 1e-8
        assert abs(fi - fo) < 1e-10


def test_offset_shape(ps810, offset810):
    geo = ps810.geometry
    # ambient below blood temperature depresses the outer layers,
    # monotonically toward the skin
    r = np.linspace(geo.r_i, geo.r_s, 300)
    vals = offset810.values(r)[0]
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(np.diff(vals) < 1e-12)
    proto = ps810.protocol
    assert proto.T_air - proto.T_b < vals.min() < 0.0
    assert offset810.values(geo.r_s)[0] == pytest.approx(
        -6.2024, abs=2e-3)
    # lumen untouched
    assert offset810.values(1.0)[0] == 0.0


# --- relaxation modes ---------------------------------------------------------

def test_modes_ordered_and_negative(modes810):
    zetas, modes = modes810
    assert zetas.shape == (20,) and modes.a.shape[1] == 20
    assert np.all(zetas < 0)
    assert np.all(np.diff(zetas) < 0)


@pytest.mark.parametrize("preset", ["810-15w", "980-15w"])
def test_mode_rates_frozen(preset, modes810):
    if preset == "810-15w":
        zetas = modes810[0]
    else:
        zetas = modal_eigenvalues(params.preset_params(preset),
                                  n_modes=20)[0]
    np.testing.assert_allclose(zetas, ZETA_DEFAULT_STACK, rtol=1e-12,
                               atol=0.0)


def test_mode_set_is_complete(all_presets):
    # Sturm oscillation: mode n has exactly n zeros inside (r_i, r_s];
    # counted here on a grid far finer than the one the search uses
    for name, ps in all_presets.items():
        geo = ps.geometry
        r = np.linspace(geo.r_i, geo.r_s, 2001)[1:]
        vals = modal_eigenvalues(ps, n_modes=20)[1].values(r)
        for n, row in enumerate(vals):
            s = np.sign(row[row != 0.0])
            assert np.count_nonzero(s[1:] != s[:-1]) == n, (name, n)


def test_skipped_root_is_detected(ps810):
    # the roots without the slowest one: every mode has one zero too many
    u = np.sqrt(-np.array(ZETA_DEFAULT_STACK[1:]))
    with pytest.raises(BracketExhausted, match="changes sign"):
        thermal._build_modes(ps810, u)


@pytest.fixture(scope="module")
def roots21(ps810):
    """The first 21 roots u of the default tissue stack."""
    return np.sqrt(-modal_eigenvalues(ps810, n_modes=21)[0])


@pytest.mark.parametrize("last, below", [(20, 21), (18, 19)])
def test_root_list_past_or_short_of_the_modes_is_refused(
        ps810, monkeypatch, roots21, last, below):
    # a refinement that leaves its seeds' windows: the last root replaced
    # by the next mode's root (the list runs past mode 19, with 21 roots at
    # or below its largest) or by mode 18's (it stops short, with 19).  The
    # window check refuses both before any mode is built
    u = np.append(roots21[:19], roots21[last])
    assert np.count_nonzero(roots21 <= u.max()) == below
    monkeypatch.setattr(thermal, "_refine", lambda *args: u.copy())
    built = []
    monkeypatch.setattr(thermal, "_build_modes",
                        lambda *args: built.append(args))
    with pytest.raises(BracketExhausted,
                       match=r"modes \[19\] left their seeds' windows"):
        modal_eigenvalues(ps810, n_modes=20)
    assert not built


def test_seeds_carry_one_witness_past_the_modes(ps810, roots21):
    seeds = thermal._seed_roots(ps810, 20)
    assert seeds.size == 21
    np.testing.assert_allclose(seeds, roots21, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("mode, shift, recovered", [
    (7, 0.01, True), (7, -0.01, True), (0, 0.5, False), (7, -0.5, False),
    (7, 0.5, False), (19, -0.5, False), (7, 1.0, False)])
def test_misplaced_seed_is_recovered_or_refused(ps810, monkeypatch, mode,
                                                shift, recovered):
    # one seed moved by a fraction of the gap to its neighbour on that
    # side: by 1% the secant still finds the root within the seed's window;
    # by half a gap its window holds no root, and by a whole gap it lands on
    # the neighbour's seed, and the two windows, which may not overlap,
    # are too narrow to hold a root
    u_ref = np.sqrt(-np.array(ZETA_DEFAULT_STACK))
    near = mode + (1 if shift > 0 else -1)
    seed_roots = thermal._seed_roots

    def moved(ps, n_modes):
        u = seed_roots(ps, n_modes)
        u[mode] += abs(shift) * (u_ref[near] - u_ref[mode])
        return u

    monkeypatch.setattr(thermal, "_seed_roots", moved)
    if not recovered:
        with pytest.raises(BracketExhausted):
            modal_eigenvalues(ps810, n_modes=20)
        return
    np.testing.assert_allclose(modal_eigenvalues(ps810, n_modes=20)[0],
                               ZETA_DEFAULT_STACK, rtol=1e-12, atol=0.0)


def test_more_modes_than_the_seed_grid_holds(ps810):
    with pytest.raises(BracketExhausted, match="unknowns"):
        modal_eigenvalues(ps810, n_modes=10 ** 4)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("which", range(3))
def test_seed_next_to_a_basis_switch_is_refused(ps810, which, side):
    # a seed 1e-8 below or above a basis switch, where a region's radial
    # character flips and no root lies: the determinant changes sign at
    # the switch, but the secant leaves the seed's window
    c_b = ps810.blood_thermal.c_p
    switch = sorted(math.sqrt(c_b * th.omega / th.rho_cp)
                    for th in map(ps810.thermal_of, thermal.OUTER))[which]
    with pytest.raises(BracketExhausted, match="left their seeds' windows"):
        thermal._refine(ps810, np.array([switch + side * 1e-8]),
                        np.array([thermal._WINDOW_LAST]))


def _plan_like(rng, wavelength):
    """A parameter set drawn from the plan workload's ranges: power 8-16 W,
    v 0.75-1.25, h_air x0.8-1.25, tissue k and omega +-15%."""
    ps = params.default_params(
        wavelength, rng.uniform(8.0, 16.0), v=rng.uniform(0.75, 1.25),
        h_air=params.Protocol().h_air * rng.uniform(0.8, 1.25))
    tissue = {reg: replace(ps.thermal_of(reg),
                           k=ps.thermal_of(reg).k * rng.uniform(0.85, 1.15),
                           omega=(ps.thermal_of(reg).omega
                                  * rng.uniform(0.85, 1.15)))
              for reg in thermal.OUTER}
    return replace(ps, thermal={**ps.thermal, **tissue})


@pytest.mark.parametrize("draw", range(6))
def test_search_matches_reference_scan(monkeypatch, draw):
    rng = np.random.default_rng(1100 + draw)
    ps = _plan_like(rng, params.WAVELENGTHS[draw % len(params.WAVELENGTHS)])
    dets = thermal._dets
    switches = [math.sqrt(ps.blood_thermal.c_p * th.omega / th.rho_cp)
                for th in map(ps.thermal_of, thermal.OUTER)]
    roots = np.array(scan_roots(lambda u: dets(ps, u), switches, 20))
    # the spectral-element seeds alone, before any determinant call
    np.testing.assert_allclose(thermal._seed_roots(ps, 20)[:-1], roots,
                               rtol=1e-8, atol=0.0)
    calls = []
    monkeypatch.setattr(thermal, "_dets",
                        lambda ps_, u: calls.append(u.size) or dets(ps_, u))
    got = modal_eigenvalues(ps, n_modes=20)[0]
    np.testing.assert_allclose(got, -roots ** 2, rtol=1e-12, atol=0.0)
    assert len(calls) <= 3 and sum(calls) <= 4 * 20, calls


@pytest.mark.parametrize("n_modes", [100, 200, 400])
def test_hundreds_of_modes_pass_the_sturm_check(ps810, n_modes):
    # past about 100 modes neighbouring roots lie closer than the 1%
    # widest window, so the windows shrink to keep apart
    seeds = thermal._seed_roots(ps810, n_modes)
    widest = thermal._widest_windows(seeds)
    assert np.all(seeds[:-1] * (1.0 + widest[:-1])
                  < seeds[1:] * (1.0 - widest[1:]))
    zetas, modes = modal_eigenvalues(ps810, n_modes=n_modes)
    assert zetas.shape == (n_modes,) and modes.a.shape[1] == n_modes
    assert np.all(np.diff(zetas) < 0.0)
    np.testing.assert_allclose(zetas[:20], ZETA_DEFAULT_STACK, rtol=1e-12,
                               atol=0.0)
    # mode n changes sign n times on (r_i, r_s], counted on a grid five
    # times finer than the search's
    geo = ps810.geometry
    r = np.linspace(geo.r_i, geo.r_s, 4001)[1:]
    for n, row in enumerate(modes.values(r)):
        s = np.sign(row[row != 0.0])
        assert np.count_nonzero(s[1:] != s[:-1]) == n


@pytest.mark.parametrize("p", [2, 3, 8, 20, 24])
def test_gll_rule_matches_numpy_polynomial(p):
    from numpy.polynomial import legendre

    x, w, d = thermal._gll(p)
    basis = legendre.Legendre.basis(p)
    want = np.concatenate([[-1.0], np.sort(basis.deriv().roots()), [1.0]])
    np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, 2.0 / (p * (p + 1) * basis(x) ** 2),
                               rtol=1e-13)
    # exact quadrature to degree 2p - 1 and exact derivatives to degree p
    for deg in range(2 * p):
        assert np.sum(w * x ** deg) == pytest.approx(
            (1.0 + (-1.0) ** deg) / (deg + 1.0), abs=1e-14)
    for deg in range(p + 1):
        np.testing.assert_allclose(d @ x ** deg,
                                   deg * x ** max(deg - 1, 0), rtol=0.0,
                                   atol=1e-12 * max(deg, 1) * p * p)
    assert not (x.flags.writeable or w.flags.writeable or d.flags.writeable)


def test_modes_do_not_depend_on_wavelength_or_power(modes810):
    # the relaxation problem reads only the tissue thermal table, the
    # geometry and h_air
    for wavelength in params.WAVELENGTHS:
        for power in (8.0, 16.0):
            ps = params.default_params(wavelength, power)
            np.testing.assert_array_equal(modal_eigenvalues(ps)[0],
                                          modes810[0])


def test_mode_interface_conditions(ps810, modes810):
    geo = ps810.geometry
    for prof in (modes810[1].rows([i]) for i in (0, 7, 19)):
        assert abs(prof.values(geo.r_i)[0]) < 1e-12
        for rb, inner, outer in ((geo.r_w, Region.WALL, Region.PAD),
                                 (geo.r_p, Region.PAD, Region.SKIN)):
            dv = prof.values(rb - 1e-12)[0] - prof.values(rb + 1e-12)[0]
            fi = ps810.thermal_of(inner).k * prof.derivs(rb - 1e-12)[0]
            fo = ps810.thermal_of(outer).k * prof.derivs(rb + 1e-12)[0]
            assert abs(dv) < 1e-9
            assert abs(fi - fo) < 1e-12
        robin = (ps810.thermal_of(Region.SKIN).k * prof.derivs(geo.r_s)[0]
                 + ps810.protocol.h_air * prof.values(geo.r_s)[0])
        assert abs(robin) < 1e-14


def test_mode_satisfies_radial_equation(ps810, modes810):
    # finite-difference the profile and compare curvature against the
    # defining balance k (R'' + R'/r) = (rho c_p zeta + c_b omega) R
    c_b = ps810.blood_thermal.c_p
    h = 1e-4
    zetas, modes = modes810
    for i in (0, 5):
        prof = modes.rows([i])
        for r, reg in ((4.1, Region.WALL), (9.0, Region.PAD),
                       (16.0, Region.SKIN)):
            th = ps810.thermal_of(reg)
            val = prof.values(r)[0]
            d2 = (prof.values(r + h)[0] - 2.0 * val
                  + prof.values(r - h)[0]) / h ** 2
            d1 = prof.derivs(r)[0]
            lhs = th.k * (d2 + d1 / r)
            rhs = (th.rho_cp * zetas[i] + c_b * th.omega) * val
            assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-9)


def test_mode_normalization(ps810, modes810):
    geo = ps810.geometry
    r = np.linspace(geo.r_i, geo.r_s, 2000)
    modes = modes810[1].rows(slice(0, 3))
    np.testing.assert_allclose(np.max(np.abs(modes.values(r)), axis=1), 1.0,
                               rtol=0.0, atol=1e-3)
    assert np.all(modes.derivs(geo.r_i) > 0)


def simpson_rule(ps, n):
    """(r, w): composite-Simpson radii and weights over the wall, pad and
    skin, n intervals each, in the relaxation problem's weight rho c_p r."""
    geo = ps.geometry
    rs, ws = [], []
    for reg, lo, hi in ((Region.WALL, geo.r_i, geo.r_w),
                        (Region.PAD, geo.r_w, geo.r_p),
                        (Region.SKIN, geo.r_p, geo.r_s)):
        r = np.linspace(lo, hi, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (hi - lo) / n / 3.0 * ps.thermal_of(reg).rho_cp * r
        rs.append(r)
        ws.append(w)
    return np.concatenate(rs), np.concatenate(ws)


def test_mode_orthogonality(ps810, modes810):
    pairs = [(0, 1), (0, 5), (3, 11), (10, 19)]
    r, w = simpson_rule(ps810, 1024)
    vals = modes810[1].values(r)

    def inner(i, j):
        return float(np.sum(w * vals[i] * vals[j]))

    for i, j in pairs:
        rel = inner(i, j) / math.sqrt(inner(i, i) * inner(j, j))
        assert abs(rel) < 1e-8, (i, j)


# --- projection ---------------------------------------------------------------

def test_projection_cancels_offset(ps810, modes810, offset810):
    c, res_max, res_l2 = project_initial(ps810, *modes810, offset810)
    assert res_max < 0.2          # degC, against a ~6 degC offset
    assert res_l2 < 0.01
    # amplitude sequence decays overall
    assert abs(c[0]) > abs(c[-1])


@pytest.mark.parametrize("broken", ["zero profile", "zero rate"])
def test_projection_refuses_a_degenerate_mode(ps810, modes810, offset810,
                                              broken):
    zeta, modes = modes810[0].copy(), modes810[1]
    if broken == "zero profile":
        a, b = modes.a.copy(), modes.b.copy()
        a[:, 3] = b[:, 3] = 0.0
        modes = replace(modes, a=a, b=b)
    else:
        zeta[3] = 0.0
    with pytest.raises(thermal.ThermalError, match=r"at modes \[3\]"):
        project_initial(ps810, zeta, modes, offset810)


# 810-15w, then three changes to it that put mode 0 in an I0/K0 zone
# (Lommel's integral with the minus sign), which no preset reaches: in the
# wall, the pad and the skin
@pytest.mark.parametrize("reg, factor", [
    (None, 1.0), (Region.WALL, 3.0), (Region.PAD, 3.0), (Region.SKIN, 10.0)])
def test_projection_matches_quadrature(ps810, reg, factor):
    ps = ps810
    if reg:
        th = ps.thermal_of(reg)
        ps = replace(ps, thermal={**ps.thermal,
                                  reg: replace(th, omega=factor * th.omega)})
    offset = steady_robin_offset(ps)
    zeta, modes = modal_eigenvalues(ps, n_modes=20)
    if reg:
        assert modes.kind[OUTER.index(reg), 0] == IK
    c, _, res_l2 = project_initial(ps, zeta, modes, offset)
    # independently, by orthogonality alone: c_m = -<Theta, R_m> / <R_m, R_m>
    # in a fine quadrature, with no Gram matrix
    r, w = simpson_rule(ps, 4096)
    vals = stack([offset, modes]).values(r)
    theta, basis = vals[0], vals[1:]
    c_quad = -(basis * w) @ theta / np.sum(basis * basis * w, axis=1)
    assert np.max(np.abs(c - c_quad)) < 1e-10 * np.max(np.abs(c_quad))
    # Parseval against the weighted residual of the same amplitudes
    resid = theta + c @ basis
    l2_quad = math.sqrt(np.sum(w * resid ** 2) / np.sum(w * theta ** 2))
    assert res_l2 == pytest.approx(l2_quad, rel=1e-8)


def test_edge_residual_is_the_peak(all_presets):
    for name, ps in all_presets.items():
        offset = steady_robin_offset(ps)
        zeta, modes = modal_eigenvalues(ps, n_modes=20)
        c, res_max, _ = project_initial(ps, zeta, modes, offset)
        r = np.linspace(ps.geometry.r_i, ps.geometry.r_s, 20000)
        vals = stack([offset, modes]).values(r)
        sampled = np.max(np.abs(vals[0] + c @ vals[1:]))
        assert sampled <= res_max * (1.0 + 1e-9), name


# --- assembled field -----------------------------------------------------------

def test_initial_condition_uniform(ps810, temp810):
    geo = ps810.geometry
    r = np.linspace(0.0, geo.r_s, 120)
    z = np.linspace(0.0, 9.5, 9)[:, None]
    T0 = temp810.eval(r, z, 0.0)
    assert np.max(np.abs(T0 - 38.0)) < 0.15
    # inside the vein the start is exact (no offset/modal content there)
    T0_lumen = temp810.eval(np.linspace(0.0, 3.7, 40), 1.0, 0.0)
    np.testing.assert_allclose(T0_lumen, 38.0, atol=1e-9)


def test_wall_heats_then_diverges(temp810):
    # the forced construction grows without bound in the co-moving frame;
    # record the monotone blow-up so any sign/rate regression is caught
    seq = [float(temp810.eval(3.8, -t, t)) for t in (1.0, 2.5, 5.0, 7.5)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[0] > 38.0
    assert seq[-1] > 1e6


def test_robin_relaxation_without_heating(ps810, temp810):
    # the homogeneous part (offset + modal transient) starts near zero and
    # relaxes monotonically toward the steady ambient-coupled profile
    r = 17.0

    def relax(t):
        acc = temp810.offset.values(r)[0]
        for c, zeta, val in zip(temp810.amplitudes, temp810.zeta,
                                temp810.modes.values(r)):
            acc += c * val * math.exp(zeta * t)
        return acc

    theta = temp810.offset.values(r)[0]
    vals = [relax(t) for t in (0.0, 50.0, 200.0, 6000.0)]
    assert abs(vals[0]) < 0.15
    assert vals[0] > vals[1] > vals[2] > vals[3]
    assert vals[-1] == pytest.approx(theta, abs=1e-3)
    assert theta < -4.0


def test_eval_domain_checks(temp810):
    with pytest.raises(DomainError):
        temp810.eval(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        temp810.eval(1.0, 0.0, 11.0)
    with pytest.raises(DomainError):
        temp810.eval(18.0, 0.0, 1.0)


@pytest.mark.parametrize("point", [(np.nan, 0.0, 1.0), (1.0, np.nan, 1.0),
                                   (1.0, 0.0, np.nan), (np.inf, 0.0, 1.0)])
def test_eval_rejects_non_finite(temp810, point):
    with pytest.raises(DomainError):
        temp810.eval(*point)


@pytest.mark.parametrize("mode, shapes", [
    ("derived", "grid"), ("printed", "grid"), ("printed_sqrt", "grid"),
    ("derived", "damage_map")],
    ids=["derived", "printed", "printed_sqrt", "damage_map"])
def test_eval_on_repeated_radii_matches_pointwise(ps810, temp810, mode,
                                                  shapes):
    geo = ps810.geometry
    temp = replace(temp810, mode=mode)
    # every zone, its edges and repeats, in no particular order
    r = np.array([geo.r_p, 0.1, geo.r_f, 2.0, geo.r_i, 0.1, 4.0, geo.r_w,
                  8.0, geo.r_s, 15.0, geo.r_i, 2.0])
    if shapes == "grid":
        z = np.array([0.0, 1.5, 6.0])
        t = np.array([0.0, 2.5, 10.0])
        r, z, t = np.meshgrid(r, z, t, indexing="ij")
    else:
        # damage_map's histories: r (nr, 1, 1), z (1, nc, 1) and, per z
        # column, the times from the tip's arrival to t_end, (nc, nt)
        z = np.array([-6.0, -2.5, 0.0, 1.5, -2.5])
        t0 = np.maximum(0.0, -z / ps810.protocol.v)
        t = np.linspace(t0, ps810.protocol.t_end, 5, axis=-1)
        r, z = r[:, None, None], z[None, :, None]
    grid = temp.eval(r, z, t)
    pointwise = np.vectorize(temp.eval)(r, z, t)
    assert grid.shape == pointwise.shape == np.broadcast(r, z, t).shape
    np.testing.assert_allclose(grid, pointwise, rtol=1e-12, atol=0.0)


def test_eval_rows_refuses_radii_without_rows(temp810):
    rows = temp810.radial_rows(np.array([0.5, 4.0]))
    assert temp810.eval_rows(rows, 4.0, 0.0, 1.0) == temp810.eval(4.0, 0.0,
                                                                  1.0)
    with pytest.raises(ValueError, match="not among the rows' radii"):
        temp810.eval_rows(rows, np.array([0.5, 4.5]), 0.0, 1.0)
    with pytest.raises(DomainError):
        temp810.radial_rows(np.array([0.5, np.nan]))


def test_radial_rows_take_the_sorted_distinct_radii(temp810):
    r = np.array([[4.0, 0.5, 4.0], [0.0, -0.0, 12.5]])
    ru, table = temp810.radial_rows(r)
    np.testing.assert_array_equal(ru, np.unique(r))
    np.testing.assert_array_equal(table, temp810.radial_rows(ru)[1])
    ru, table = temp810.radial_rows(np.zeros((0, 3)))
    assert ru.shape == (0,) and table.shape == (temp810.amp.shape[0], 0)
    assert temp810.eval(np.zeros((2, 0)), 0.0, 1.0).shape == (2, 0)


def test_eval_raises_on_non_finite_output():
    # flowing blood: the lumen forced brackets overflow to inf by t = 10,
    # while the tissue's own brackets stay finite
    temp = build_temperature(params.default_params(810, 15.0, u=70.0))
    with pytest.raises(thermal.ThermalError, match="non-finite"):
        temp.eval(0.5, 0.0, 10.0)
    with pytest.raises(thermal.ThermalError, match="1 of 2 points"):
        temp.eval([0.5, 16.0], 0.0, 10.0)
    assert math.isfinite(temp.eval(16.0, 0.0, 10.0))


def test_printed_variants_differ(ps810, sol810, modes810, offset810):
    rates = forcing_rates(ps810)
    zeta, modes = modes810
    c, rmax, rl2 = project_initial(ps810, zeta, modes, offset810)

    def make(mode):
        return thermal.TemperatureSolution(
            ps=ps810, sol=sol810, mode=mode, rates=rates, offset=offset810,
            zeta=zeta, modes=modes, amplitudes=c,
            projection_residual_max=rmax, projection_residual_l2=rl2)

    derived = make("derived")
    printed = make("printed")
    sqrt_form = make("printed_sqrt")
    args = (5.0, -2.0, 2.5)        # a pad sample point
    vd = derived.eval(*args)
    vp = printed.eval(*args)
    vs = sqrt_form.eval(*args)
    assert vd != pytest.approx(vp, rel=1e-3)
    assert vp != pytest.approx(vs, rel=1e-3)
    # lumen terms have a single exact form shared by all variants
    assert derived.eval(0.1, 0.5, 2.5) == pytest.approx(
        printed.eval(0.1, 0.5, 2.5), rel=1e-14)


def test_build_temperature_rejects_bad_mode(ps810, sol810):
    with pytest.raises(thermal.ThermalError):
        build_temperature(ps810, sol810, mode="exact")


@pytest.mark.parametrize("n_modes", [0, -3])
def test_build_temperature_rejects_empty_mode_set(ps810, sol810, n_modes):
    # an empty mode set cannot carry the uniform start: the projection
    # would return no amplitudes and leave the whole offset at t = 0
    with pytest.raises(thermal.ThermalError, match="n_modes"):
        thermal.modal_eigenvalues(ps810, n_modes=n_modes)
    with pytest.raises(thermal.ThermalError, match="n_modes"):
        build_temperature(ps810, sol810, n_modes=n_modes)
