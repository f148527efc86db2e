"""Parameter registry, unit conversion and config parsing tests."""

from dataclasses import replace

import numpy as np
import pytest

from evla import params
from evla.params import ConfigError, Geometry, Protocol, Region


def test_wavelengths_and_presets():
    assert params.WAVELENGTHS == (810, 980, 1064)
    assert set(params.PRESETS) == {"810-15w", "980-15w", "980-10w", "1064-10w"}
    ps = params.preset_params("980-10w")
    assert ps.protocol.wavelength == 980
    assert ps.protocol.P_laser == 10.0


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        params.preset_params("632-5w")


# --- derived optical quantities ------------------------------------------
# Hand chain for blood at 810 nm:  mu_s = mu_s'/(1-g),  mu_t = mu_a + mu_s,
# D = 1/(3 (mu_a + mu_s')),  mu_eff = sqrt(3 mu_a (mu_a + mu_s')).

def test_derive_optics_blood_810_isotropic():
    opt = params.RegionOptics(mu_a=0.21, mu_s_reduced=0.73, g=0.0)
    d = params.derive_optics(opt)
    assert d.mu_s == pytest.approx(0.73, rel=1e-15)
    assert d.mu_t == pytest.approx(0.94, rel=1e-15)
    assert d.D == pytest.approx(0.3546099290780142, rel=1e-14)
    assert d.mu_eff == pytest.approx(0.7695453203028396, rel=1e-14)
    # fraction entering the particular solution denominator
    assert d.D * d.mu_t**2 - opt.mu_a == pytest.approx(0.1033333333333333, rel=1e-12)


def test_derive_optics_anisotropy_shifts_mu_t_only():
    a = params.derive_optics(params.RegionOptics(0.21, 0.73, g=0.0))
    b = params.derive_optics(params.RegionOptics(0.21, 0.73, g=0.5))
    assert b.mu_s == pytest.approx(1.46, rel=1e-15)
    assert b.mu_t == pytest.approx(1.67, rel=1e-15)
    # D and mu_eff depend on the reduced coefficient only
    assert b.D == a.D
    assert b.mu_eff == a.mu_eff


def test_identity_D_mu_eff_sq_equals_mu_a():
    for wl in params.WAVELENGTHS:
        ps = params.default_params(wl, 15.0)
        for reg in Region:
            d = ps.derived_of(reg)
            mu_a = ps.optics_of(reg).mu_a
            assert d.D * d.mu_eff**2 == pytest.approx(mu_a, rel=1e-13)


def test_phase_speed_in_tissue():
    opt = params.RegionOptics(0.21, 0.73, g=0.5, n=1.4)
    d = params.derive_optics(opt)
    assert d.nu == pytest.approx(0.3 / 1.4, rel=1e-15)  # mm/ps


# --- thermal table conversions -------------------------------------------

def test_thermal_mm_units_wall():
    ps = params.default_params(810, 15.0)
    th = ps.thermal_of(Region.WALL)
    assert th.k == pytest.approx(0.53e-3, rel=1e-15)          # W/mm/K
    assert th.rho_cp == pytest.approx(0.0039852, rel=1e-12)   # J/mm^3/K
    assert th.omega == pytest.approx(1.08e-9, rel=1e-15)      # kg/mm^3/s


def test_blood_heat_capacity_product():
    ps = params.default_params(810, 15.0)
    bl = ps.blood_thermal
    assert bl.rho_cp == pytest.approx(0.003816, rel=1e-12)
    assert bl.omega == 0.0  # lumen is not perfused


def test_skin_perfusion():
    ps = params.default_params(810, 15.0)
    th = ps.thermal_of(Region.SKIN)
    assert 3600 * th.omega == pytest.approx(1.9962e-6, rel=1e-12)


def test_arrhenius_constants_survive_conversion():
    # A and E_a are volume-free, so they must pass through untouched
    ps = params.default_params(810, 15.0)
    assert ps.thermal_of(Region.BLOOD_ANNULUS).A == pytest.approx(7.6e66)
    assert ps.thermal_of(Region.WALL).E_a == pytest.approx(4.3e5)
    assert ps.thermal_of(Region.SKIN).A == pytest.approx(3.1e98)


# --- geometry -------------------------------------------------------------

def test_geometry_defaults_resolve():
    g = Geometry().resolved()
    assert g.r_f == 0.3
    assert g.r_i == 3.75
    assert g.eps == pytest.approx(0.75)
    assert g.r_w == pytest.approx(4.5)
    assert g.r_p == pytest.approx(14.5)
    assert g.r_s == pytest.approx(17.5)
    assert g.L == 10.0


def test_geometry_override_keeps_chain():
    g = Geometry(r_i=5.0).resolved()
    assert g.eps == pytest.approx(1.0)
    assert g.r_p == pytest.approx(16.0)
    assert g.r_s == pytest.approx(19.0)


def test_geometry_rejects_bad_ordering():
    with pytest.raises(ConfigError):
        Geometry(r_f=4.0).resolved().validate()


def test_region_index_boundaries():
    g = Geometry().resolved()
    # zone edges go to the outer zone, r_s to the skin
    r = np.array([0.0, 0.3, 3.75, 4.5, 14.5, 17.5])
    assert [tuple(Region)[k] for k in params.region_index(r, g)] == [
        Region.FIBER_COLUMN, Region.BLOOD_ANNULUS, Region.WALL, Region.PAD,
        Region.SKIN, Region.SKIN]
    # the computed edges agree with the literal ones
    edges = np.array([0.0, g.r_f, g.r_i, g.r_w, g.r_p, g.r_s])
    assert np.array_equal(params.region_index(edges, g),
                          params.region_index(r, g))


# --- protocol -------------------------------------------------------------

def test_protocol_validation():
    with pytest.raises(ConfigError):
        Protocol(P_laser=-1.0).validate()
    with pytest.raises(ConfigError):
        Protocol(wavelength=633).validate()


@pytest.mark.parametrize("bad", [dict(v=0.0), dict(v=-1.0),
                                 dict(v=float("nan")), dict(v=float("inf")),
                                 dict(u=-1.0), dict(u=float("nan")),
                                 dict(u=float("inf")),
                                 dict(t_end=float("inf")),
                                 dict(T_b=float("inf")),
                                 dict(T_air=-float("inf")),
                                 dict(P_laser=float("inf")),
                                 dict(h_air=float("inf"))])
def test_protocol_rejects_bad_speeds(bad):
    # v = 0 would divide the dose bookkeeping by zero; non-finite values
    # pass every sign test and poison the fields silently
    with pytest.raises(ConfigError):
        Protocol(**bad).validate()


@pytest.mark.parametrize("build", [
    lambda: params.default_params(810, float("inf")),
    lambda: Geometry(L=float("inf")).resolved(),
    lambda: params.derive_optics(
        params.RegionOptics(mu_a=float("inf"), mu_s_reduced=0.73, g=0.5)),
    lambda: replace(params.default_params().thermal_of(Region.WALL),
                    omega=float("nan")).validate(),
], ids=["power", "geometry", "optics", "thermal"])
def test_validators_reject_non_finite(build):
    # infinite power used to build a solution whose eval returned NaN
    with pytest.raises(ConfigError):
        build()


def test_default_g_values():
    ps = params.default_params(810, 15.0)
    assert ps.optics_of(Region.BLOOD_ANNULUS).g == 0.5
    assert ps.optics_of(Region.WALL).g == 0.9
    assert ps.optics_of(Region.SKIN).g == 0.9


# --- config file ----------------------------------------------------------

CONFIG_TEXT = """\
[protocol]
wavelength = 980
P_laser = 10.0
v = 1.0
t_end = 8.0
u = 70.0

[geometry]
r_f = 0.4
r_i = 4.0
L = 12.0

[optical.blood]
mu_a = 0.21
mu_s_reduced = 0.6
g = 0.5

[thermal.wall]
k = 0.53          ; W/m/K, published units
rho = 1080
c_p = 3690
omega = 1.08
A = 5.6e63
E_a = 4.3e5
"""


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "case.ini"
    p.write_text(CONFIG_TEXT)
    ps = params.load_config(str(p))
    assert ps.protocol.wavelength == 980
    assert type(ps.protocol.wavelength) is int
    assert ps.protocol.u == 70.0
    assert ps.geometry.r_f == 0.4
    assert ps.geometry.L == 12.0
    assert ps.geometry.eps == pytest.approx(0.8)
    assert ps.optics_of(Region.BLOOD_ANNULUS).mu_s_reduced == 0.6
    # published -> mm units on read
    assert ps.thermal_of(Region.WALL).k == pytest.approx(0.53e-3)


def test_load_config_unknown_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[protocol]\nwavelenght = 980\n")
    with pytest.raises(ConfigError):
        params.load_config(str(p))


def test_load_config_unknown_section(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[optics.blood]\nmu_a = 0.2\n")
    with pytest.raises(ConfigError):
        params.load_config(str(p))


@pytest.mark.parametrize("section,key,value", [
    ("protocol", "wavelength", "abc"),
    ("protocol", "wavelength", "980.7"),
    ("protocol", "t_end", "inf"),
    ("thermal.wall", "k", "nan"),
    ("thermal.wall", "omega", "nan"),
    ("geometry", "L", "inf"),
    ("protocol", "v", "1%"),
])
def test_load_config_rejects_bad_values(tmp_path, section, key, value):
    # each used to escape as an uncaught error, be truncated or be accepted
    p = tmp_path / "bad.ini"
    p.write_text("[%s]\n%s = %s\n" % (section, key, value))
    with pytest.raises(ConfigError, match=r"\[%s\]" % section):
        params.load_config(str(p))


def test_load_config_keeps_omitted_keys_exact(tmp_path):
    # a section that sets one key leaves the others at their table value,
    # with no round trip through the published units
    p = tmp_path / "partial.ini"
    p.write_text("[thermal.pad]\nA = 5.6e63\n[thermal.wall]\nE_a = 4.3e5\n")
    ps = params.load_config(str(p))
    ref = params.default_params(810, 15.0)
    for region in (Region.WALL, Region.PAD):
        assert ps.thermal_of(region) == ref.thermal_of(region)


def test_env_config_pickup(tmp_path, monkeypatch):
    p = tmp_path / "env.ini"
    p.write_text("[protocol]\nwavelength = 1064\nP_laser = 10\n")
    monkeypatch.setenv("EVLA_CONFIG", str(p))
    ps = params.params_from_env_or_default(None, None)
    assert ps.protocol.wavelength == 1064


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    a = tmp_path / "a.ini"
    a.write_text("[protocol]\nwavelength = 810\n")
    b = tmp_path / "b.ini"
    b.write_text("[protocol]\nwavelength = 980\n")
    monkeypatch.setenv("EVLA_CONFIG", str(b))
    ps = params.params_from_env_or_default(str(a), None)
    assert ps.protocol.wavelength == 810


# --- registry dump ---------------------------------------------------------

def test_registry_rows_shape_and_provenance():
    rows = params.registry_rows()
    assert all(len(r) == 6 for r in rows)
    prov = {r[5] for r in rows}
    assert "literature" in prov
    assert "default (non-literature)" in prov
    # every (material, wavelength) optical pair present
    mu_a_rows = [r for r in rows if r[2] == "mu_a"]
    assert len(mu_a_rows) == 4 * 3
    # anisotropy defaults are flagged as assumed, not literature
    g_rows = [r for r in rows if r[2] == "g"]
    assert all(r[5] == "default (non-literature)" for r in g_rows)
