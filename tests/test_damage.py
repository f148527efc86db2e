"""Thermal-dose tests.

Constant-temperature crossing times below were frozen from a separate
hand evaluation of (1/A) exp[E_a/(R T_K)]:

    blood @ 50 degC  344711.88864084805 s
    wall  @ 70 degC  51.193031903216692 s
    skin  @ 100 degC 2.6369971522921073e-11 s
"""

import math
import warnings

import numpy as np
import pytest

from evla import damage, params, thermal
from evla.fluence import DomainError
from evla.params import MATERIALS, Region, region_index

# two-digit published crossing times [s] for unit dose at constant T
PUBLISHED = {
    50.0: (3.4e5, 5.8e5, 5.8e5, 1.1e3),
    60.0: (2.3e3, 4.7e3, 4.7e3, 9.5e-1),
    70.0: (2.1e1, 5.1e1, 5.1e1, 1.3e-3),
    80.0: (2.4e-1, 7.2e-1, 7.2e-1, 2.5e-6),
    90.0: (3.6e-3, 1.3e-2, 1.3e-2, 6.9e-9),
    100.0: (6.8e-5, 2.8e-4, 2.8e-4, 2.6e-11),
}

_MAT_REGION = (Region.FIBER_COLUMN, Region.WALL, Region.PAD, Region.SKIN)


@pytest.fixture(scope="module")
def table(ps810):
    return dict(damage.crit_time_table(ps810))


@pytest.mark.parametrize("temp", sorted(PUBLISHED))
def test_crossing_times_match_published(table, temp):
    for mat, want in zip(MATERIALS, PUBLISHED[temp]):
        got = table[temp][mat]
        assert abs(got - want) / want < 0.05, (temp, mat, got)


def test_crossing_times_frozen(table):
    assert table[50.0]["blood"] == pytest.approx(344711.88864084805,
                                                 rel=1e-12)
    assert table[70.0]["wall"] == pytest.approx(51.193031903216692,
                                                rel=1e-12)
    assert table[100.0]["skin"] == pytest.approx(2.6369971522921073e-11,
                                                 rel=1e-12)
    assert table[70.0]["wall"] == table[70.0]["pad"]


def test_isothermal_closed_form_inverts(ps810):
    th = ps810.blood_thermal
    t_crit = damage.isothermal_crossing_time(65.0, th.A, th.E_a)
    times = np.linspace(0.0, t_crit, 129)
    got = damage.damage_integral(times, np.full(129, 65.0), th.A, th.E_a)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_isothermal_overflow_and_floor(ps810):
    th = ps810.blood_thermal
    assert damage.isothermal_crossing_time(-250.0, th.A, th.E_a) == math.inf
    assert damage.isothermal_crossing_time(-300.0, th.A, th.E_a) == math.inf
    a = damage.isothermal_crossing_time(50.0, th.A, th.E_a)
    b = damage.isothermal_crossing_time(90.0, th.A, th.E_a)
    assert a > b                      # hotter fails sooner
    half = damage.isothermal_crossing_time(50.0, th.A, th.E_a, threshold=0.5)
    assert half == pytest.approx(0.5 * a, rel=1e-12)


def test_isothermal_crossing_time_broadcasts(ps810):
    # elementwise equal to the scalar calls, overflow and floor included;
    # temperatures down a column, the four materials along a row
    temps = np.array([50.0, 60.0, -250.0, -300.0, np.inf, -np.inf])
    th = [ps810.thermal_of(reg) for reg in _MAT_REGION]
    A, E_a = np.array([c.A for c in th]), np.array([c.E_a for c in th])
    got = damage.isothermal_crossing_time(temps[:, None], A, E_a,
                                          threshold=0.5)
    assert got.shape == (temps.size, len(th))
    want = [[damage.isothermal_crossing_time(t, a, e, threshold=0.5)
             for a, e in zip(A, E_a)] for t in temps]
    np.testing.assert_array_equal(got, want)
    assert np.isinf(got[2:4]).all() and np.isinf(got[5]).all()
    with pytest.raises(DomainError):
        damage.isothermal_crossing_time(np.array([50.0, np.nan]), A[0],
                                        E_a[0])


def test_body_temperature_is_harmless(ps810):
    times = np.linspace(0.0, 10.0, 101)
    for reg in _MAT_REGION:
        th = ps810.thermal_of(reg)
        omega = damage.damage_integral(times, np.full(101, 37.0),
                                       th.A, th.E_a)
        assert omega < 1e-6, reg


def test_rate_clamps_below_absolute_zero():
    assert damage.arrhenius_rate(-273.15, 1e60, 4e5) == 0.0
    assert damage.arrhenius_rate(-1e12, 1e60, 4e5) == 0.0
    rates = damage.arrhenius_rate(np.array([-400.0, 60.0]), 1e60, 4e5)
    assert rates[0] == 0.0 and rates[1] > 0.0


def test_nan_temperature_raises_and_infinities_keep_their_limits(ps810):
    th = ps810.blood_thermal
    times = np.linspace(0.0, 1.0, 5)
    temps = np.array([60.0, 61.0, np.nan, 63.0, 64.0])
    for call in (lambda: damage.arrhenius_rate(np.nan, th.A, th.E_a),
                 lambda: damage.arrhenius_rate(temps, th.A, th.E_a),
                 lambda: damage.damage_integral(times, temps, th.A, th.E_a),
                 lambda: damage.cumulative_damage(times, temps, th.A,
                                                  th.E_a),
                 lambda: damage.isothermal_crossing_time(np.nan, th.A,
                                                         th.E_a)):
        with pytest.raises(DomainError):
            call()
    # -inf is below absolute zero (no dose); +inf saturates at the rate A
    assert damage.arrhenius_rate(-np.inf, th.A, th.E_a) == 0.0
    assert damage.arrhenius_rate(np.inf, th.A, th.E_a) == th.A
    assert damage.isothermal_crossing_time(-np.inf, th.A, th.E_a) == math.inf


def test_dose_is_additive_and_monotone(ps810):
    th = ps810.blood_thermal
    times = np.linspace(0.0, 10.0, 401)
    temps = 55.0 + 8.0 * np.sin(0.7 * times)
    whole = damage.damage_integral(times, temps, th.A, th.E_a)
    first = damage.damage_integral(times[:201], temps[:201], th.A, th.E_a)
    second = damage.damage_integral(times[200:], temps[200:], th.A, th.E_a)
    assert first + second == pytest.approx(whole, rel=1e-12)
    cum = damage.cumulative_damage(times, temps, th.A, th.E_a)
    assert cum[0] == 0.0
    assert np.all(np.diff(cum) >= 0.0)
    assert cum[-1] == pytest.approx(whole, rel=1e-4)


def test_riemann_sandwich_tightens(ps810):
    th = ps810.blood_thermal
    widths = []
    for n in (4, 16, 64):
        times = np.linspace(0.0, 6.0, n + 1)
        temps = 45.0 + 5.0 * times          # monotone rate
        lo, hi = damage.riemann_bounds(times, temps, th.A, th.E_a)
        simpson = damage.damage_integral(times, temps, th.A, th.E_a)
        assert lo <= simpson <= hi
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2]


def test_simpson_fourth_order(ps810):
    th = ps810.blood_thermal

    def integral(n):
        times = np.linspace(0.0, 10.0, n + 1)
        temps = 55.0 + 8.0 * np.sin(0.7 * times)
        return damage.damage_integral(times, temps, th.A, th.E_a)

    ref = integral(8192)
    e1 = abs(integral(128) - ref)
    e2 = abs(integral(256) - ref)
    assert 12.0 < e1 / e2 < 20.0       # measured ~15.8


def test_damage_integral_input_checks(ps810):
    th = ps810.blood_thermal
    with pytest.raises(ValueError):
        damage.damage_integral([0.0, 1.0], [50.0, 50.0], th.A, th.E_a)
    with pytest.raises(ValueError):
        damage.damage_integral([0.0, 1.0, 3.0], [50.0] * 3, th.A, th.E_a)
    with pytest.raises(ValueError):
        damage.damage_integral(np.linspace(0, 1, 5), [50.0] * 4,
                               th.A, th.E_a)


def test_damage_map_geometry(temp810):
    dm = damage.damage_map(temp810, np.array([0.5, 3.8, 16.0]),
                           np.array([-3.0, 1.0]), n_t=201)
    assert dm.omega.shape == (3, 2)
    # wall point near the start of the sweep: the runaway heating pushes
    # the dose across threshold well inside the protocol
    assert np.isfinite(dm.t_cross[1, 1])
    assert dm.omega[1, 1] >= 1.0
    # behind the start plane nothing happens until the tip arrives
    assert dm.t_cross[1, 0] >= 3.0
    # crossing flag and dose agree everywhere
    assert np.all(np.isfinite(dm.t_cross) == (dm.omega >= dm.threshold))


def test_damage_map_rejects_negative_radius(temp810):
    # z = -L is reached only at t_end, so no temperature is evaluated and
    # the radius check is the only guard
    with pytest.raises(ValueError, match="negative radius"):
        damage.damage_map(temp810, np.array([0.5, -0.5]), np.array([-10.0]),
                          n_t=3)


@pytest.mark.parametrize("r,z", [
    (25.0, -10.0),           # beyond r_s = 17.5
    (np.nan, -10.0),
    (np.inf, -10.0),
    (0.5, np.nan),
    (0.5, -np.inf),
])
def test_damage_map_rejects_bad_points(temp810, r, z):
    # z = -10 (and -inf) is never reached before t_end, so no temperature
    # is evaluated: the input check alone must catch these
    with pytest.raises(DomainError):
        damage.damage_map(temp810, np.array([0.5, r]), np.array([z]), n_t=3)


def _loop_damage_map(tsol, r_pts, z_pts, threshold=1.0, n_t=401):
    """The per-z, per-radius damage_map that the vectorised one replaced,
    kept as its reference: one eval per z, one history per radius."""
    ps = tsol.ps
    proto = ps.protocol
    omega = np.zeros((r_pts.size, z_pts.size))
    t_cross = np.full((r_pts.size, z_pts.size), np.inf)
    coeffs = [ps.thermal_of(tuple(Region)[k])
              for k in region_index(r_pts, ps.geometry)]
    for iz, zv in enumerate(z_pts):
        t0 = max(0.0, -zv / proto.v)
        if t0 >= proto.t_end:
            hist_t = np.array([proto.t_end])
            temps = np.full((r_pts.size, 1), proto.T_b)
        else:
            hist_t = np.linspace(t0, proto.t_end, n_t)
            temps = tsol.eval(r_pts[:, None], zv, hist_t[None, :])
        for ir in range(r_pts.size):
            th = coeffs[ir]
            base = damage.arrhenius_rate(proto.T_b, th.A, th.E_a) * t0
            cum = base + damage.cumulative_damage(hist_t, temps[ir], th.A,
                                                  th.E_a)
            omega[ir, iz] = cum[-1]
            hit = np.nonzero(cum >= threshold)[0]
            if hit.size:
                k = hit[0]
                if k == 0:
                    t_cross[ir, iz] = hist_t[0]
                else:
                    frac = ((threshold - cum[k - 1])
                            / (cum[k] - cum[k - 1]))
                    t_cross[ir, iz] = (hist_t[k - 1]
                                       + frac * (hist_t[k] - hist_t[k - 1]))
    return omega, t_cross


@pytest.fixture(scope="module", params=["810-15w", "980-15w"])
def preset_temp(request):
    return thermal.build_temperature(params.preset_params(request.param))


@pytest.mark.parametrize("threshold,n_t", [
    (1.0, 201),
    (1e-30, 201),      # crossed at the first sample wherever t0 > 0
    (0.0, 201),        # crossed at the first sample everywhere
    (1e300, 201),      # never reached
    (1.0, 3),
])
def test_damage_map_matches_loop(preset_temp, threshold, n_t, monkeypatch):
    geo = preset_temp.ps.geometry
    r = np.array([0.0, geo.r_f, 1.0, geo.r_i, geo.r_w, 6.0, geo.r_p, 12.0,
                  geo.r_s])
    # z = -L is reached only at t_end (a column booked at T_b); z = 0
    # starts its history at t = 0
    z = np.linspace(-geo.L, geo.L, 9)
    assert preset_temp.ps.protocol.v * preset_temp.ps.protocol.t_end \
        == geo.L
    want_omega, want_t = _loop_damage_map(preset_temp, r, z, threshold, n_t)
    calls = []
    inner = thermal.TemperatureSolution.eval_rows

    def counted(self, *args):
        calls.append(args)
        return inner(self, *args)

    # damage_map evaluates its blocks by eval_rows, on one radial table
    monkeypatch.setattr(thermal.TemperatureSolution, "eval_rows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dm = damage.damage_map(preset_temp, r, z, threshold=threshold,
                               n_t=n_t)
    assert len(calls) == 1
    for got, want in ((dm.omega, want_omega), (dm.t_cross, want_t)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    if threshold == 0.0:
        assert np.all(dm.t_cross[:, :-1] == np.maximum(0.0, -z[:-1]))
    if threshold == 1e300:
        assert np.all(dm.t_cross == np.inf)


def test_damage_map_blocks_match_one_eval(temp810, monkeypatch):
    geo = temp810.ps.geometry
    r = np.linspace(0.0, geo.r_s, 7)
    z = np.linspace(-geo.L, geo.L, 10)         # nine live columns
    whole = damage.damage_map(temp810, r, z, n_t=51)
    calls = {"radial_rows": [], "eval_rows": []}

    def counting(name):
        inner = getattr(thermal.TemperatureSolution, name)

        def counted(self, *args):
            calls[name].append(args)
            return inner(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(thermal.TemperatureSolution, name,
                            counting(name))
    monkeypatch.setattr(damage, "_EVAL_POINTS", 2 * 7 * 51)
    blocks = damage.damage_map(temp810, r, z, n_t=51)
    # one radial table for the map, one evaluation per block of
    # 2 + 2 + 2 + 2 + 1 columns
    assert len(calls["radial_rows"]) == 1
    assert len(calls["eval_rows"]) == 5
    np.testing.assert_array_equal(blocks.omega, whole.omega)
    np.testing.assert_array_equal(blocks.t_cross, whole.t_cross)
