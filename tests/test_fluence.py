"""Closed-form fluence assembly tests.

Scale constants below (source strength, particular amplitude, homogeneous
pin) were frozen from an independent hand evaluation of the defining
formulae for the 810 nm / 15 W / g=0.5 case:

    S0   = P/(pi r_f^2) * mu_s (mu_t + g mu_a) / (mu_a + mu_s')
         = 146.25887766760522 W/mm^3
    P_in = S0 / (D mu_t^2 - mu_a)  = 187.7589270372134  W/mm^2
    B0   = P_in mu_t / mu_eff      = 407.4580143359873  W/mm^2
"""

import numpy as np
import pytest

from evla import fluence, params
from evla.fluence import (DomainError, NonPositiveRadicand,
                          assemble_and_solve, branch_factors, build_source,
                          eval_fluence_transient, interface_jumps,
                          transient_growth_rate)
from evla.layered import IK, JY
from evla.params import Region


def test_source_scale_810(ps810, sol810):
    assert sol810.src.S0 == pytest.approx(146.25887766760522, rel=1e-12)
    assert sol810.P_in == pytest.approx(187.7589270372134, rel=1e-12)
    assert sol810.B0 == pytest.approx(407.4580143359873, rel=1e-12)


def test_source_eval_profile(ps810, sol810):
    src = sol810.src
    mu_t = 1.67
    # inside the column, exponential in z + vt; zero outside
    assert src.eval(0.1, 0.0, 0.0) == pytest.approx(src.S0, rel=1e-14)
    assert src.eval(0.1, 2.0, 3.0) == pytest.approx(
        src.S0 * np.exp(-mu_t * 5.0), rel=1e-13)
    assert src.eval(0.31, 0.0, 0.0) == 0.0


# --- radial wavenumbers and branch selection -------------------------------
# kappa_j values below are published to 5 decimals; beta values follow from
# beta^2 = mu_t^2 - mu_eff_j^2 with the g defaults (blood 0.5, tissue 0.9).

KAPPA = {
    810: {"wall": 0.98377, "pad": 0.72810, "skin": 0.26038},
    980: {"wall": 0.34598, "pad": 0.64622, "skin": 0.48713},
    1064: {"wall": 0.70228, "pad": 0.38545, "skin": 0.09487},
}

MODIFIED = {
    810: {"wall": True, "pad": False, "skin": True},
    980: {"wall": True, "pad": False, "skin": False},
    1064: {"wall": True, "pad": False, "skin": True},
}


@pytest.mark.parametrize("wl", [810, 980, 1064])
def test_kappa_table(wl):
    ps = params.default_params(wl, 15.0)
    kappa = branch_factors(ps)[1]
    want = [KAPPA[wl][name] for name in ("wall", "pad", "skin")]
    np.testing.assert_allclose(kappa, want, rtol=0.0, atol=5e-6)


@pytest.mark.parametrize("wl", [810, 980, 1064])
def test_branch_kinds(wl):
    ps = params.default_params(wl, 15.0)
    kind = branch_factors(ps)[0]
    want = [IK if MODIFIED[wl][name] else JY
            for name in ("wall", "pad", "skin")]
    assert kind.tolist() == want, wl


def test_beta_table_810(ps810):
    # blood annulus, wall, pad, skin
    beta = branch_factors(ps810)[2]
    np.testing.assert_allclose(beta, [1.48213, 1.10856, 1.65131, 1.45908],
                               rtol=0.0, atol=5e-6)


def test_beta_radicand_failure_mode():
    # isotropic blood at 810 keeps mu_t = 0.94 below the wall's mu_eff
    # (1.249), so the oscillatory wavenumber in the wall turns imaginary
    ps = params.default_params(810, 15.0, g_overrides={"blood": 0.0})
    with pytest.raises(NonPositiveRadicand):
        branch_factors(ps)


# --- interface continuity ---------------------------------------------------

def test_interface_jumps_machine_level(sol810):
    jumps = interface_jumps(sol810)
    for name, (dval, dflux) in jumps.items():
        assert abs(dval) < 1e-12, name
        if dflux is not None:
            assert abs(dflux) < 1e-12, name


def test_residual_check_fails_on_nan(sol810, monkeypatch):
    # nan > tol is False, so a NaN residual must fail by `not <=`
    monkeypatch.setattr(fluence, "interface_jumps",
                        lambda sol: {"r_i": (float("nan"), 0.0)})
    with pytest.raises(fluence.SolverError):
        fluence._residual_check(sol810)


def test_value_continuity_on_z_line(ps810, sol810):
    geo = ps810.geometry
    z = np.linspace(-2.0, 9.0, 23)
    for rb in (geo.r_f, geo.r_i, geo.r_w, geo.r_p):
        lo = sol810.eval(rb - 1e-9, z, 2.5)
        hi = sol810.eval(rb + 1e-9, z, 2.5)
        # the straddle itself moves the field by ~|dphi/dr| * 2e-9
        np.testing.assert_allclose(lo, hi, rtol=1e-6, atol=1e-5)


# --- structure of the field --------------------------------------------------

def test_linearity_in_power():
    a = assemble_and_solve(params.default_params(980, 10.0))
    b = assemble_and_solve(params.default_params(980, 15.0))
    r = np.linspace(0.05, 17.4, 40)
    z = np.linspace(-4.0, 9.5, 40)
    fa = a.eval(r, z[:, None], 5.0)
    fb = b.eval(r, z[:, None], 5.0)
    np.testing.assert_allclose(fb, 1.5 * fa, rtol=1e-12,
                               atol=1e-12 * np.abs(fa).max())


def test_comoving_translation(sol810):
    # the field depends on z and t only through z + v t
    r = np.linspace(0.0, 17.0, 15)
    f1 = sol810.eval(r, 1.0, 3.0)
    f2 = sol810.eval(r, -1.0, 5.0)
    np.testing.assert_allclose(f1, f2, rtol=1e-12)


def test_on_axis_peak_sits_at_tip(sol810):
    for t in (0.0, 10.0):
        zeta = np.linspace(0.0, 12.0, 600)   # distance ahead of the tip
        z = zeta - t                          # tip at z = -v t
        z = z[z <= 10.0]
        prof = sol810.eval(0.0, z, t)
        assert prof.argmax() == 0
        assert np.all(np.diff(prof) < 0.0)


def test_tip_irradiance_normalization_moves_peak(ps810):
    sol = assemble_and_solve(ps810, normalization="tip_irradiance")
    assert sol.B0 == pytest.approx(240.81057473451185, rel=1e-12)
    zeta = np.linspace(0.0, 3.0, 3001)
    prof = sol.eval(0.0, zeta, 0.0)
    # analytic stationary point of B0 e^{-mu_eff x} - P_in e^{-mu_t x}
    assert zeta[prof.argmax()] == pytest.approx(0.5840685594131366, abs=2e-3)


def test_zero_flux_closure_variant(ps810):
    sol = assemble_and_solve(ps810, closure="zero_flux")
    geo = ps810.geometry
    d = sol.terms.radial.at(Region.SKIN, geo.r_s, deriv=True)[1]
    assert abs(d) < 1e-9 * abs(sol.P_in)
    # default closure pins the oscillatory family's value instead
    sol0 = assemble_and_solve(ps810)
    value = sol0.terms.radial.at(Region.SKIN, geo.r_s)[1]
    assert abs(value) < 1e-9 * abs(sol0.P_in)


def test_conditioning_reported(sol810):
    assert 1.0 < sol810.cond_eff < 1e6
    assert 1.0 < sol810.cond_t < 1e8


# --- documented model behaviour ---------------------------------------------

def test_field_goes_negative_in_pad(ps810, sol810):
    """The two-exponential ansatz oscillates radially in the outer layers.

    A grid sweep shows the composite field dips negative inside the pad for
    the 810 nm default case (minimum near r = 8.7 mm).  This records the
    measured behaviour so a change in sign convention or assembly shows up.
    """
    r = np.linspace(4.6, 14.4, 200)
    vals = sol810.eval(r, 0.0, 0.0)
    assert vals.min() < -100.0
    k = params.region_index(r[vals.argmin()], ps810.geometry)
    assert tuple(Region)[k] is Region.PAD


def test_lumen_to_annulus_flux_kink(ps810, sol810):
    # radial flux is zero on the lumen side of r_f by construction, but
    # not on the annulus side; the mismatch is the price of a flat column
    geo = ps810.geometry
    D_b = ps810.derived_of(Region.BLOOD_ANNULUS).D
    # the eff family (row 0) is flat in r inside r_i
    d_ann = sol810.terms.radial.at(Region.BLOOD_ANNULUS, geo.r_f, deriv=True)
    assert d_ann[0] == 0.0
    d_ann = d_ann[1]
    assert abs(D_b * d_ann) > 100.0


# --- domain checks -----------------------------------------------------------

def test_eval_domain_errors(sol810):
    with pytest.raises(DomainError):
        sol810.eval(0.5, -1.0, 0.0)     # behind the tip at t = 0
    with pytest.raises(DomainError):
        sol810.eval(0.5, 0.0, -0.1)     # before switch-on
    with pytest.raises(DomainError):
        sol810.eval(0.5, 0.0, 11.0)     # past t_end
    with pytest.raises(DomainError):
        sol810.eval(-0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        sol810.eval(0.5, 10.5, 0.0)     # beyond the far cap


@pytest.mark.parametrize("point", [(np.nan, 0.0, 0.0), (0.5, np.nan, 0.0),
                                   (0.5, 0.0, np.nan), (np.inf, 0.0, 0.0),
                                   (0.5, -np.inf, 0.0)])
def test_eval_rejects_non_finite(sol810, point):
    with pytest.raises(DomainError):
        sol810.eval(*point)
    r, z, t = (np.array([0.5, v, 4.0]) for v in point)
    with pytest.raises(DomainError):
        sol810.eval(r, z, t)


def test_eval_on_repeated_radii_matches_pointwise(ps810, sol810):
    geo = ps810.geometry
    # zone edges, interior radii and repeats, in no particular order
    r = np.array([geo.r_p, 0.1, geo.r_f, 2.0, geo.r_i, 0.1, 4.0, geo.r_w,
                  8.0, geo.r_s, 15.0, geo.r_i, 2.0])
    z = np.array([0.0, 1.5, 6.0])
    t = np.array([0.0, 2.5, 10.0])
    rr, zz, tt = np.meshgrid(r, z, t, indexing="ij")
    grid = sol810.eval(rr, zz, tt)
    pointwise = np.vectorize(sol810.eval)(rr, zz, tt)
    np.testing.assert_allclose(grid, pointwise, rtol=1e-12, atol=0.0)


def test_eval_broadcasts(sol810):
    r = np.linspace(0.0, 17.0, 7)
    z = np.linspace(-1.0, 9.0, 5)[:, None]
    out = sol810.eval(r, z, 2.0)
    assert out.shape == (5, 7)
    assert np.isfinite(out).all()


# --- early transient ----------------------------------------------------------

def test_transient_growth_rate_isotropic():
    opt = params.RegionOptics(0.21, 0.73, g=0.0)
    zeta = transient_growth_rate(opt)
    assert zeta == pytest.approx(0.022142857142857138e12, rel=1e-12)  # 1/s


def test_transient_starts_from_zero(ps810):
    opt = ps810.optics_of(Region.BLOOD_ANNULUS)
    v0 = eval_fluence_transient(ps810.protocol, opt, 0.1, 1.0, 0.0)
    assert v0 == 0.0


def test_transient_short_time_linear(ps810):
    # for t << 1/zeta the response is ~ nu S t
    opt = ps810.optics_of(Region.BLOOD_ANNULUS)
    d = params.derive_optics(opt)
    src = build_source(ps810.protocol, opt, ps810.geometry.r_f)
    t = 1e-15  # s
    got = eval_fluence_transient(ps810.protocol, opt, 0.1, 1.0, t)
    want = d.nu * 1e12 * src.eval(0.1, 1.0, 0.0) * t
    assert got == pytest.approx(want, rel=1e-2)


def test_transient_outside_column_rejected(ps810):
    opt = ps810.optics_of(Region.BLOOD_ANNULUS)
    with pytest.raises(DomainError):
        eval_fluence_transient(ps810.protocol, opt, 0.35, 1.0, 1e-12)


@pytest.mark.parametrize("r, z, t", [
    (-1.0, 1.0, 1e-12),
    (np.nan, 1.0, 1e-12),
    (np.array([0.1, -0.1]), 1.0, 1e-12),
    (0.1, 1.0, -1e-12),
    (0.1, np.nan, 1e-12),
    (0.1, np.inf, 1e-12),
    (0.1, 1.0, np.nan),
    (0.1, 1.0, np.inf),
])
def test_transient_rejects_points_outside_its_domain(ps810, r, z, t):
    opt = ps810.optics_of(Region.BLOOD_ANNULUS)
    with pytest.raises(DomainError):
        eval_fluence_transient(ps810.protocol, opt, r, z, t)


def test_transient_overflows_to_inf(ps810):
    # the linearised balance has no saturation; late times blow up and the
    # implementation is documented to return inf rather than raise
    opt = ps810.optics_of(Region.BLOOD_ANNULUS)
    v = eval_fluence_transient(ps810.protocol, opt, 0.1, 1.0, 1.0)
    assert np.isinf(v)
