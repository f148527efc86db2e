"""Arrhenius thermal-dose accounting.

The dose is Omega(t) = A int_0^t exp[-E_a / (R T_K(tau))] dtau with T_K
the absolute temperature of the sample path.  Everything here works on
already-sampled histories; the temperature construction is free to
diverge, so the rate is clamped to zero at or below absolute zero rather
than letting the exponent change sign.  A NaN temperature has no dose and
raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluence import DomainError
from .params import (KELVIN_OFFSET, MATERIAL_OF, R_GAS, ParameterSet, Region,
                     region_index)

# history samples per temperature evaluation in damage_map: bounds the
# (r, z, t) temporaries of eval_rows (tens of bytes per sample) on large
# maps
_EVAL_POINTS = 1 << 17


def arrhenius_rate(temp_c, A, E_a):
    """Damage rate A exp(-E_a/(R T)) [1/s] at temp_c [degC]; temp_c, A
    and E_a broadcast.

    Zero at or below absolute zero (the divergent temperature model can
    produce such samples; a vanishing rate is the only sane reading), A at
    +inf; a NaN temperature raises DomainError.
    """
    t_k, A, E_a = np.broadcast_arrays(
        np.asarray(temp_c, dtype=float) + KELVIN_OFFSET,
        np.asarray(A, dtype=float), np.asarray(E_a, dtype=float))
    if np.any(np.isnan(t_k)):
        raise DomainError("NaN temperature")
    ok = t_k > 0.0
    out = np.where(ok, A * np.exp(-E_a / (R_GAS * np.where(ok, t_k, 1.0))),
                   0.0)
    if out.ndim == 0:
        return float(out)
    return out


def damage_integral(times, temps, A, E_a):
    """Composite-Simpson Omega over a uniformly sampled history.

    times must be uniform with an odd point count (even interval count);
    Simpson is exact for cubics, so splitting a history at any even
    sample index and summing the pieces reproduces the whole to rounding.
    """
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if times.ndim != 1 or times.size < 3 or times.size % 2 == 0:
        raise ValueError("need an odd number (>= 3) of samples")
    if temps.shape != times.shape:
        raise ValueError("times and temps must match")
    steps = np.diff(times)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-12, atol=0.0):
        raise ValueError("need uniform, increasing sample times")
    rate = arrhenius_rate(temps, A, E_a)
    w = np.ones_like(rate)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * rate))


def cumulative_damage(times, temps, A, E_a):
    """Trapezoid running dose at each sample time along the last axis
    (starts at zero); the arguments broadcast."""
    times = np.asarray(times, dtype=float)
    rate = arrhenius_rate(np.asarray(temps, dtype=float), A, E_a)
    out = np.zeros_like(rate)
    out[..., 1:] = np.cumsum(0.5 * (rate[..., 1:] + rate[..., :-1])
                             * np.diff(times, axis=-1), axis=-1)
    return out


def riemann_bounds(times, temps, A, E_a):
    """(lower, upper) endpoint-Riemann sums.

    They bracket the true integral whenever the rate is monotone between
    consecutive samples, which makes them a cheap independent check on
    the quadrature.
    """
    times = np.asarray(times, dtype=float)
    rate = arrhenius_rate(np.asarray(temps, dtype=float), A, E_a)
    dt = np.diff(times)
    lower = float(np.sum(np.minimum(rate[:-1], rate[1:]) * dt))
    upper = float(np.sum(np.maximum(rate[:-1], rate[1:]) * dt))
    return lower, upper


def isothermal_crossing_time(temp_c, A, E_a, threshold=1.0):
    """Time for the dose to reach threshold at constant temperature:
    (threshold/A) exp[E_a/(R T_K)]; the arguments broadcast.

    Returns inf when the closed form overflows (cold enough that the
    answer exceeds the float range) and for temperatures at or below
    absolute zero; a NaN temperature raises DomainError.  Evaluated at the
    floor temperature of a heating trajectory this upper-bounds the true
    crossing time.
    """
    t_k, A, E_a, threshold = np.broadcast_arrays(
        np.asarray(temp_c, dtype=float) + KELVIN_OFFSET,
        *(np.asarray(x, dtype=float) for x in (A, E_a, threshold)))
    if np.any(np.isnan(t_k)):
        raise DomainError("NaN temperature")
    ok = t_k > 0.0
    log_t = np.full(t_k.shape, np.inf)
    log_t[ok] = (E_a[ok] / (R_GAS * t_k[ok]) + np.log(threshold[ok])
                 - np.log(A[ok]))
    # 709: the exp() ceiling for doubles
    out = np.where(log_t > 709.0, np.inf, np.exp(np.minimum(log_t, 709.0)))
    if out.ndim == 0:
        return float(out)
    return out


def crit_time_table(ps: ParameterSet, temps=(50.0, 60.0, 70.0, 80.0, 90.0,
                                             100.0), threshold=1.0):
    """Constant-temperature crossing times, one row per temperature.

    Returns [(temp, {material: t_crit})] over blood/wall/pad/skin.
    """
    regions = (Region.FIBER_COLUMN, Region.WALL, Region.PAD, Region.SKIN)
    A, E_a = np.array([[ps.thermal_of(reg).A, ps.thermal_of(reg).E_a]
                       for reg in regions]).T
    table = isothermal_crossing_time(np.asarray(temps, dtype=float)[:, None],
                                     A, E_a, threshold)
    return [(temp, {MATERIAL_OF[reg]: float(t)
                    for reg, t in zip(regions, row)})
            for temp, row in zip(temps, table)]


@dataclass(frozen=True)
class DamageMap:
    """Dose field on an (r, z) grid at the end of the protocol."""

    r: np.ndarray
    z: np.ndarray
    omega: np.ndarray       # (nr, nz) dose at t_end
    t_cross: np.ndarray     # (nr, nz) first crossing time [s], inf if none
    threshold: float


def _first_crossing(hist_t, cum, threshold):
    """Time at which each running dose cum (..., n_t) first reaches
    threshold, linear between the samples hist_t (broadcast against cum);
    inf where it never does."""
    hit = cum >= threshold
    k = np.argmax(hit, axis=-1)[..., None]
    prev = np.maximum(k - 1, 0)
    hist_t = np.broadcast_to(hist_t, cum.shape)
    t_lo, t_hi = (np.take_along_axis(hist_t, i, -1)[..., 0] for i in (prev, k))
    c_lo, c_hi = (np.take_along_axis(cum, i, -1)[..., 0] for i in (prev, k))
    # c_hi > c_lo wherever k > 0 and the threshold is reached
    step = k[..., 0] > 0
    frac = (threshold - c_lo) / np.where(step, c_hi - c_lo, 1.0)
    t = np.where(step, t_lo + frac * (t_hi - t_lo), t_hi)
    return np.where(np.any(hit, axis=-1), t, np.inf)


def damage_map(tsol, r_pts, z_pts, threshold=1.0, n_t=401) -> DamageMap:
    """Accumulate the dose along each (r, z) sample's history.

    Points the moving tip has not yet passed sit at blood temperature
    (their rate there is negligible but still booked); once z >= -v t the
    temperature construction takes over, sampled at n_t times from the
    arrival t0(z) to t_end.  The z columns the tip reaches before t_end
    are evaluated together: the radial table once per map
    (tsol.radial_rows), then one tsol.eval_rows over (r, z, t) per block of
    at most _EVAL_POINTS samples; a column reached only at t_end keeps the
    dose booked at blood temperature.  The crossing time
    interpolates the running trapezoid dose linearly between samples, so
    its resolution is set by n_t.  Non-finite r or z and radii outside
    [0, r_s] raise DomainError, whether or not any temperature is
    evaluated.
    """
    ps = tsol.ps
    proto = ps.protocol
    geo = ps.geometry
    r_pts = np.asarray(r_pts, dtype=float)
    z_pts = np.asarray(z_pts, dtype=float)
    if not (np.all(np.isfinite(r_pts)) and np.all(np.isfinite(z_pts))):
        raise DomainError("non-finite r or z")
    if np.any(r_pts < 0.0):
        raise DomainError("negative radius in r_pts")
    if np.any(r_pts > geo.r_s + 1e-12):
        raise DomainError("radius beyond r_s = %g in r_pts" % geo.r_s)
    th = [ps.thermal_of(tuple(Region)[k]) for k in region_index(r_pts, geo)]
    A = np.array([c.A for c in th])[:, None]
    E_a = np.array([c.E_a for c in th])[:, None]
    t0 = np.maximum(0.0, -z_pts / proto.v)
    # dose booked at blood temperature before the tip arrives, (nr, nz)
    omega = arrhenius_rate(proto.T_b, A, E_a) * t0
    t_cross = np.where(omega >= threshold, proto.t_end, np.inf)
    live = np.nonzero(t0 < proto.t_end)[0]
    per_eval = max(1, _EVAL_POINTS // max(1, r_pts.size * n_t))
    rows = tsol.radial_rows(r_pts)
    for start in range(0, live.size, per_eval):
        cols = live[start:start + per_eval]
        hist_t = np.linspace(t0[cols], proto.t_end, n_t, axis=-1)
        temps = tsol.eval_rows(rows, r_pts[:, None, None],
                               z_pts[cols][None, :, None], hist_t)
        cum = omega[:, cols, None] + cumulative_damage(
            hist_t, temps, A[..., None], E_a[..., None])
        omega[:, cols] = cum[..., -1]
        t_cross[:, cols] = _first_crossing(hist_t, cum, threshold)
    return DamageMap(r=r_pts, z=z_pts, omega=omega, t_cross=t_cross,
                     threshold=threshold)
