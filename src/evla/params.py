"""Material tables, geometry, treatment protocol and config ingestion.

Every quantity is normalized to mm/s/°C units at load time: thermal
conductivity W/(mm.degC), density kg/mm^3, perfusion kg/(mm^3.s), optical
coefficients 1/mm.  The literature tables are kept in their published
units in the *_TABLE dicts and converted exactly once.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

R_GAS = 8.314          # J/(mol K)
C_LIGHT = 0.3          # mm/ps, vacuum speed of light
N_DEFAULT = 1.4        # refractive index, blood and tissue alike
KELVIN_OFFSET = 273.15

WAVELENGTHS = (810, 980, 1064)

PRESETS = {
    "810-15w": (810, 15.0),
    "980-15w": (980, 15.0),
    "980-10w": (980, 10.0),
    "1064-10w": (1064, 10.0),
}


class Region(enum.Enum):
    """The five annular zones, innermost first.

    FIBER_COLUMN and BLOOD_ANNULUS are both blood; they are distinguished
    because the light source lives only in the column and the analytic
    field changes functional form at r_f.
    """

    FIBER_COLUMN = "fiber_column"
    BLOOD_ANNULUS = "blood_annulus"
    WALL = "wall"
    PAD = "pad"
    SKIN = "skin"


# material key used by the tables (the two lumen regions share blood)
MATERIAL_OF = {
    Region.FIBER_COLUMN: "blood",
    Region.BLOOD_ANNULUS: "blood",
    Region.WALL: "wall",
    Region.PAD: "pad",
    Region.SKIN: "skin",
}

MATERIALS = ("blood", "wall", "pad", "skin")

# the tissue zones outside the lumen; OUTER_FIRST indexes tuple(Region)
OUTER = (Region.WALL, Region.PAD, Region.SKIN)
OUTER_FIRST = tuple(Region).index(Region.WALL)

# ---------------------------------------------------------------------------
# literature values, in their published units
# ---------------------------------------------------------------------------

# k [W/(m degC)], rho [kg/m^3], c_p [J/(kg degC)], omega [kg/(m^3 s)],
# A [1/s], E_a [J/mol]; config [thermal.*] sections use the same units
THERMAL_TABLE = {
    "blood": dict(k=0.52, rho=1060.0, c_p=3600.0, omega=0.0,
                  A=7.6e66, E_a=4.48e5),
    "wall": dict(k=0.53, rho=1080.0, c_p=3690.0, omega=1.08,
                 A=5.6e63, E_a=4.30e5),
    "pad": dict(k=0.21, rho=1000.0, c_p=2350.0, omega=1.0,
                A=5.6e63, E_a=4.30e5),
    "skin": dict(k=0.21, rho=1109.0, c_p=3500.0, omega=0.5545,
                 A=3.1e98, E_a=6.28e5),
}

# mu_a, mu_s' [1/mm] per wavelength
OPTICAL_TABLE = {
    810: {"blood": (0.21, 0.73), "wall": (0.2, 2.4),
          "pad": (0.017, 1.2), "skin": (0.2, 0.9)},
    980: {"blood": (0.21, 0.6), "wall": (0.1, 2.0),
          "pad": (0.03, 1.0), "skin": (0.1, 0.81)},
    1064: {"blood": (0.12, 0.58), "wall": (0.12, 1.95),
           "pad": (0.034, 0.98), "skin": (0.1, 0.77)},
}

# Anisotropy factors are not tabulated in the source literature we follow;
# these defaults are ours and are flagged as such in the registry dump.
# Blood g is kept moderate: at g close to 1 the derived mu_t grows like
# mu_s'/(1-g) and the temperature formulas contain exp[k mu_t^2 t/(rho c)]
# factors that overflow double precision within the 10 s protocol.
G_DEFAULT = {"blood": 0.5, "wall": 0.9, "pad": 0.9, "skin": 0.9}


class ConfigError(ValueError):
    """Bad configuration: parse failure or violated invariant."""


def _require_finite(obj, where=""):
    # every sign and ordering test passes or fails silently on inf/NaN
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None and not math.isfinite(value):
            raise ConfigError("%s must be finite %s" % (f.name, where))


@dataclass(frozen=True)
class RegionOptics:
    """Optical coefficients of one material at one wavelength."""

    mu_a: float            # absorption [1/mm]
    mu_s_reduced: float    # reduced scattering [1/mm]
    g: float               # anisotropy
    n: float = N_DEFAULT   # refractive index

    def validate(self, where=""):
        _require_finite(self, where)
        if not (self.mu_a > 0):
            raise ConfigError("mu_a must be > 0 %s" % where)
        if not (self.mu_s_reduced > 0):
            raise ConfigError("mu_s_reduced must be > 0 %s" % where)
        if not (0.0 <= self.g < 1.0):
            raise ConfigError("g must lie in [0, 1) %s" % where)
        if not (self.n >= 1.0):
            raise ConfigError("n must be >= 1 %s" % where)


class DerivedOptics(NamedTuple):
    """Secondary coefficients; see derive_optics."""

    mu_s: float     # scattering [1/mm]
    mu_t: float     # attenuation mu_a + mu_s [1/mm]
    D: float        # diffusion coefficient [mm]
    mu_eff: float   # effective attenuation [1/mm]
    nu: float       # light speed in the medium [mm/ps]


def derive_optics(o: RegionOptics) -> DerivedOptics:
    """Derive {mu_s, mu_t, D, mu_eff, nu} from the primary coefficients."""
    o.validate()
    mu_s = o.mu_s_reduced / (1.0 - o.g)
    mu_t = o.mu_a + mu_s
    D = 1.0 / (3.0 * (o.mu_a + o.mu_s_reduced))
    mu_eff = math.sqrt(3.0 * o.mu_a * (o.mu_a + o.mu_s_reduced))
    nu = C_LIGHT / o.n
    return DerivedOptics(mu_s=mu_s, mu_t=mu_t, D=D, mu_eff=mu_eff, nu=nu)


@dataclass(frozen=True)
class RegionThermal:
    """Thermal/damage parameters of one material, mm-normalized."""

    k: float        # conductivity [W/(mm degC)]
    rho: float      # density [kg/mm^3]
    c_p: float      # specific heat [J/(kg degC)]
    omega: float    # perfusion [kg/(mm^3 s)]
    A: float        # Arrhenius frequency factor [1/s]
    E_a: float      # activation energy [J/mol]

    def validate(self, where=""):
        _require_finite(self, where)
        for name in ("k", "rho", "c_p", "A", "E_a"):
            if not (getattr(self, name) > 0):
                raise ConfigError("%s must be > 0 %s" % (name, where))
        if self.omega < 0:
            raise ConfigError("omega must be >= 0 %s" % where)

    @property
    def rho_cp(self):
        # volumetric heat capacity [J/(mm^3 degC)]
        return self.rho * self.c_p


# published units -> mm-normalized units; the other thermal keys are
# volume-free and pass through unchanged
_THERMAL_SCALE = {"k": 1e-3, "rho": 1e-9, "omega": 1e-9}


def _thermal_from_table(material: str) -> RegionThermal:
    return RegionThermal(**{key: value * _THERMAL_SCALE.get(key, 1.0)
                            for key, value in THERMAL_TABLE[material].items()})


def _optics_from_table(material: str, wavelength: int) -> RegionOptics:
    mu_a, mu_sp = OPTICAL_TABLE[wavelength][material]
    return RegionOptics(mu_a=mu_a, mu_s_reduced=mu_sp,
                        g=G_DEFAULT[material], n=N_DEFAULT)


@dataclass(frozen=True)
class Geometry:
    """Radii and axial half-extent, mm.

    Derived defaults follow the anatomy: wall thickness eps = r_i/5,
    pad thickness 10 mm, skin thickness 3 mm.
    """

    r_f: float = 0.3
    r_i: float = 3.75
    eps: float | None = None
    r_p: float | None = None
    r_s: float | None = None
    L: float = 10.0

    def resolved(self) -> "Geometry":
        eps = self.eps if self.eps is not None else self.r_i / 5.0
        r_p = self.r_p if self.r_p is not None else self.r_i + eps + 10.0
        r_s = self.r_s if self.r_s is not None else r_p + 3.0
        g = replace(self, eps=eps, r_p=r_p, r_s=r_s)
        g.validate()
        return g

    def validate(self):
        if self.eps is None or self.r_p is None or self.r_s is None:
            raise ConfigError("geometry not resolved")
        _require_finite(self)
        ok = 0.0 < self.r_f < self.r_i < self.r_i + self.eps < self.r_p \
            < self.r_s
        if not ok:
            raise ConfigError(
                "need 0 < r_f < r_i < r_i+eps < r_p < r_s, got "
                "r_f=%g r_i=%g eps=%g r_p=%g r_s=%g"
                % (self.r_f, self.r_i, self.eps, self.r_p, self.r_s))
        if not (self.L > 0):
            raise ConfigError("L must be > 0")

    @property
    def r_w(self):
        # outer wall radius
        return self.r_i + self.eps

    @property
    def edges(self):
        """The zone edges (0, r_f, r_i, r_w, r_p, r_s): zone k of
        tuple(Region) spans [edges[k], edges[k + 1]]."""
        return (0.0, self.r_f, self.r_i, self.r_w, self.r_p, self.r_s)


@dataclass(frozen=True)
class Protocol:
    """Laser settings, pull-back kinematics and ambient conditions."""

    P_laser: float = 15.0    # W
    wavelength: int = 810    # nm
    v: float = 1.0           # pull-back speed [mm/s]
    t_end: float = 10.0      # irradiation time [s]
    u: float = 0.0           # axial blood speed [mm/s]; 0 = obstructed flow
    T_b: float = 38.0        # blood temperature [degC]
    T_air: float = 20.0      # room temperature [degC]
    h_air: float = 1e-5      # skin heat-transfer coefficient [W/(mm^2 degC)]

    def validate(self):
        _require_finite(self)
        if not (self.P_laser > 0):
            raise ConfigError("P_laser must be > 0")
        if self.wavelength not in WAVELENGTHS:
            raise ConfigError(
                "wavelength %r nm not in the coefficient registry %s"
                % (self.wavelength, WAVELENGTHS))
        if not (self.v > 0):
            raise ConfigError("v must be > 0")
        if not (self.t_end > 0):
            raise ConfigError("t_end must be > 0")
        if not (self.u >= 0):
            raise ConfigError("u must be >= 0")
        if not (self.T_air < self.T_b):
            raise ConfigError("T_air must be below T_b")
        if not (self.h_air > 0):
            raise ConfigError("h_air must be > 0")


@dataclass(frozen=True)
class ParameterSet:
    """Everything a solver needs, immutable after load."""

    geometry: Geometry
    protocol: Protocol
    optics: dict = field(default_factory=dict)     # Region -> RegionOptics
    thermal: dict = field(default_factory=dict)    # Region -> RegionThermal

    def optics_of(self, region: Region) -> RegionOptics:
        return self.optics[region]

    def thermal_of(self, region: Region) -> RegionThermal:
        return self.thermal[region]

    def derived_of(self, region: Region) -> DerivedOptics:
        return derive_optics(self.optics[region])

    @property
    def blood_optics(self) -> RegionOptics:
        return self.optics[Region.FIBER_COLUMN]

    @property
    def blood_thermal(self) -> RegionThermal:
        return self.thermal[Region.FIBER_COLUMN]


def default_params(wavelength=810, power=15.0, g_overrides=None,
                   **protocol_overrides):
    """Built-in tables + default geometry at the requested operating point.

    g_overrides maps material name -> anisotropy, replacing G_DEFAULT
    entries (useful for studying the isotropic limit).
    """
    proto = Protocol(P_laser=power, wavelength=wavelength,
                     **protocol_overrides)
    proto.validate()
    geo = Geometry().resolved()
    gmap = dict(G_DEFAULT)
    if g_overrides:
        for mat, g in g_overrides.items():
            if mat not in MATERIALS:
                raise ConfigError("unknown material %r in g_overrides" % mat)
            gmap[mat] = g
    optics = {}
    thermal = {}
    for region in Region:
        mat = MATERIAL_OF[region]
        base = _optics_from_table(mat, wavelength)
        optics[region] = replace(base, g=gmap[mat])
        thermal[region] = _thermal_from_table(mat)
    return ParameterSet(geometry=geo, protocol=proto,
                        optics=optics, thermal=thermal)


def preset_params(name, **protocol_overrides):
    if name not in PRESETS:
        raise ConfigError("unknown preset %r; available: %s"
                          % (name, ", ".join(sorted(PRESETS))))
    wl, p = PRESETS[name]
    return default_params(wavelength=wl, power=p, **protocol_overrides)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_SECTIONS = {"geometry", "protocol"} | {
    "%s.%s" % (kind, mat) for kind in ("optical", "thermal")
    for mat in MATERIALS}


def _section(cp, name, base, scale=None):
    """base with the entries of section [name] put in: each key names a
    field of base (in any case), each value is a finite number, an integer
    where the base value is one, and is multiplied by scale[field] where
    scale has the field.  Keys the section omits keep base's value."""
    if not cp.has_section(name):
        return base
    names = {f.name.lower(): f.name for f in dataclasses.fields(base)}
    updates = {}
    for key, raw in cp[name].items():
        if key not in names:
            raise ConfigError("unknown key %r in [%s]" % (key, name))
        key = names[key]
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError("%s = %r in [%s]: not a finite number"
                              % (key, raw, name))
        if isinstance(getattr(base, key), int):
            if not value.is_integer():
                raise ConfigError("%s = %r in [%s]: not an integer"
                                  % (key, raw, name))
            value = int(value)
        if scale and key in scale:
            value *= scale[key]
        updates[key] = value
    return replace(base, **updates)


def load_config(path) -> ParameterSet:
    """Read a `[section] / key = value` file; see the README for a sample.

    Sections: geometry, protocol, optical.<material>, thermal.<material>
    with material in {blood, wall, pad, skin}; the keys of a section are
    the field names of its dataclass, in any case, and [thermal.*] values
    are in the published units of THERMAL_TABLE.  Missing entries fall
    back to the built-in tables for the configured wavelength.  `#` and
    `;` start comments.
    """
    # no %-interpolation: a stray % would fail only when the value is read
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except configparser.Error as exc:
        # configparser reports the offending line in the message
        raise ConfigError("parse error in %s: %s" % (path, exc)) from exc
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError("unknown section [%s]" % name)

    proto = _section(cp, "protocol", Protocol())
    proto.validate()
    geo = _section(cp, "geometry", Geometry()).resolved()
    optics = {}
    thermal = {}
    for region in Region:
        mat = MATERIAL_OF[region]
        name = "optical." + mat
        optics[region] = _section(
            cp, name, _optics_from_table(mat, proto.wavelength))
        optics[region].validate("in [%s]" % name)
        name = "thermal." + mat
        thermal[region] = _section(cp, name, _thermal_from_table(mat),
                                   _THERMAL_SCALE)
        thermal[region].validate("in [%s]" % name)
    return ParameterSet(geometry=geo, protocol=proto,
                        optics=optics, thermal=thermal)


def params_from_env_or_default(config_path=None, preset=None, **overrides):
    """Resolution order: explicit path, EVLA_CONFIG, preset, defaults."""
    if config_path is None:
        config_path = os.environ.get("EVLA_CONFIG") or None
    if config_path is not None:
        return load_config(config_path)
    if preset is not None:
        return preset_params(preset, **overrides)
    return default_params(**overrides)


def region_index(r, geo: Geometry):
    """Index into tuple(Region) of the region holding each radius: the
    zone edges go to the outer zone; no range check."""
    return np.searchsorted(geo.edges[1:-1], r, side="right")


def registry_rows():
    """Built-in tables as (region, wavelength, key, value, unit, provenance).

    Values are emitted in the published units so they can be checked
    against the literature by eye.
    """
    rows = []
    units_t = {"k": "W/(m degC)", "rho": "kg/m^3", "c_p": "J/(kg degC)",
               "omega": "kg/(m^3 s)", "A": "1/s", "E_a": "J/mol"}
    for mat in MATERIALS:
        for key, unit in units_t.items():
            rows.append((mat, "", key, THERMAL_TABLE[mat][key], unit,
                         "literature"))
    for wl in WAVELENGTHS:
        for mat in MATERIALS:
            mu_a, mu_sp = OPTICAL_TABLE[wl][mat]
            rows.append((mat, wl, "mu_a", mu_a, "1/mm", "literature"))
            rows.append((mat, wl, "mu_s_reduced", mu_sp, "1/mm",
                         "literature"))
    for mat in MATERIALS:
        rows.append((mat, "", "g", G_DEFAULT[mat], "-",
                     "default (non-literature)"))
        rows.append((mat, "", "n", N_DEFAULT, "-",
                     "default (non-literature)"))
    rows.append(("", "", "h_air", 1e-5, "W/(mm^2 degC)",
                 "default (non-literature)"))
    rows.append(("", "", "R_gas", R_GAS, "J/(mol K)", "constant"))
    rows.append(("", "", "c_light", C_LIGHT, "mm/ps", "constant"))
    return rows
