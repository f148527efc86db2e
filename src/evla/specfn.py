"""Bessel functions J0, J1, Y0, Y1, I0, I1, K0, K1 of a real argument x >= 0.

Self-contained evaluation kernel for the radial factors of the fluence and
temperature fields.  Three regimes per function:

  * power series about the origin (the classic expansions with harmonic
    numbers and the Euler-Mascheroni constant), from per-term weights
    tabulated once, summed only for the series a function needs and only
    to the length the call's largest argument needs;
  * in the mid range, where neither the series nor the asymptotic
    expansion can reach 1e-12 in double precision (series: catastrophic
    cancellation, e.g. the K0 series loses a factor exp(2x) of precision;
    asymptotics: the divergent-series error floor is O(exp(-2x))),
    Chebyshev series of smooth, non-oscillating factors summed by
    Clenshaw's recurrence: the modulus-phase P, Q of J and Y
    (Abramowitz & Stegun 9.2.5-9.2.6) and K e^x sqrt(2x/pi).  The tables
    are fitted at first use from Gauss-Legendre quadrature of integral
    representations (the _quad_* functions), which stay the definition
    of the mid range;
  * Hankel-type asymptotic expansions for large x.

All entry points accept floats or numpy arrays and are vectorised.  A
point's value depends on the other points of its call only through the
series and asymptotic term counts, each set once per call (the series by
the call's largest argument, the asymptotic sums by its smallest), which
move it by rounding only.  Accuracy target: relative
error ~1e-13 away from zeros of the oscillatory functions, absolute
error ~1e-15 times the envelope near their zeros.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

# regime crossover points; chosen so adjacent regimes overlap with matching
# values to ~1e-13 (exercised by the crossover continuity tests)
_JY_SERIES_MAX = 7.5
_JY_QUAD_MAX = 40.0
_I_SERIES_MAX = 17.0
_K_SERIES_MAX = 4.0
_K_QUAD_MAX = 20.0

_SERIES_TOL = 1e-17
_SERIES_CAP = 90

# mid-range Chebyshev tables: fit nodes and terms kept
_CHEB_NODES = 128
_CHEB_TERMS = 36


class SpecFnDomainError(ValueError):
    """Argument outside the function's real domain (x < 0, or x = 0 for Y/K)."""


class SpecFnOverflowError(OverflowError):
    """I0/I1 beyond the representable double range (x > ~709)."""


@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _map_gauss(a, b, n):
    """Nodes/weights of n-point Gauss-Legendre on [a, b]; b may be an array."""
    x, w = _gauss_nodes(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    # shape (len(b), n) when b is an array
    nodes = mid[..., None] + half[..., None] * x[None, :]
    weights = half[..., None] * w[None, :]
    return nodes, weights


# ---------------------------------------------------------------------------
# power series about the origin
# ---------------------------------------------------------------------------

# term family of each origin series: 0 for t^n/(n!)^2, 1 for t^n/(n!(n+1)!)
_SERIES_FAMILY = {"j0": 0, "i0": 0, "hj": 0, "hi": 0,
                  "j1": 1, "i1": 1, "gj": 1, "gi": 1}


@lru_cache(maxsize=None)
def _series_coeffs(names):
    """(divisors, weights) of the named origin series, which share one
    family.  Each series is sum_n w_n T_n with T_0 = 1 and
    T_n = T_{n-1} t / divisors[n], t = x^2/4:

    j0  = sum (-t)^n / (n!)^2                        -> J0(x)
    j1  = sum (-t)^n / (n!(n+1)!)                    -> J1(x) = (x/2) j1
    i0  = sum t^n / (n!)^2                           -> I0(x)
    i1  = sum t^n / (n!(n+1)!)                       -> I1(x) = (x/2) i1
    hj  = sum_{n>=1} (-1)^{n+1} H_n t^n / (n!)^2     (log-companion of J0)
    hi  = sum_{n>=1} H_n t^n / (n!)^2                (log-companion of I0)
    gj  = sum (-1)^n (H_n + H_{n+1}) t^n/(n!(n+1)!)  (companion of J1)
    gi  = sum (H_n + H_{n+1}) t^n/(n!(n+1)!)         (companion of I1)

    with H_n the n-th harmonic number, summed in order.  The weights are
    one row per name.
    """
    n = np.arange(_SERIES_CAP + 1)
    harmonic = np.zeros(n.size)
    harmonic[1:] = np.cumsum(1.0 / n[1:])
    hh = 2.0 * harmonic + 1.0 / (n + 1)                # H_n + H_{n+1}
    sign = np.where(n % 2, -1.0, 1.0)
    ones = np.ones(n.size)
    weights = {"j0": sign, "i0": ones, "hj": -sign * harmonic,
               "hi": harmonic, "j1": sign, "i1": ones, "gj": sign * hh,
               "gi": hh}
    divisors = n * (n + _SERIES_FAMILY[names[0]])
    return divisors.astype(float), np.array([weights[name] for name in names])


def _series_terms(t):
    """Number of series terms at t: stop at the first n with
    t^n/(n!)^2 <= 1e-17 sum_{k<=n} t^k/(k!)^2 (at most _SERIES_CAP)."""
    term = total = 1.0
    for n in range(1, _SERIES_CAP + 1):
        term = term * t / (n * n)
        total += term
        if term <= _SERIES_TOL * total:
            break
    return n + 1


def _series(names, x):
    """The named origin series at t = x^2/4, one row each, summed term by
    term to the length the call's largest x needs.

    Term by term rather than by Horner's rule: equally accurate, but
    test_transient_advection_heated_pinned amplifies the series' rounding
    about 100-fold and pins values recorded with this summation order."""
    t = 0.25 * x * x
    divisors, weights = _series_coeffs(names)
    term = np.ones_like(t)
    out = np.empty((len(names), t.size))
    out[:] = weights[:, :1]
    for n in range(1, _series_terms(float(np.max(t)))):
        term = term * t / divisors[n]
        out += weights[:, n:n + 1] * term
    return out


def _series_j0(x):
    return _series(("j0",), x)[0]


def _series_j1(x):
    return 0.5 * x * _series(("j1",), x)[0]


def _series_y0(x):
    s_j0, h_j = _series(("j0", "hj"), x)
    return (2.0 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * s_j0 + h_j)


def _series_y1(x):
    s_j1, g_j = _series(("j1", "gj"), x)
    j1v = 0.5 * x * s_j1
    return (2.0 / np.pi) * (
        -1.0 / x
        + np.log(0.5 * x) * j1v
        - 0.25 * x * (g_j - 2.0 * EULER_GAMMA * s_j1)
    )


def _series_i0(x):
    return _series(("i0",), x)[0]


def _series_i1(x):
    return 0.5 * x * _series(("i1",), x)[0]


def _series_k0(x):
    s_i0, h_i = _series(("i0", "hi"), x)
    return -(np.log(0.5 * x) + EULER_GAMMA) * s_i0 + h_i


def _series_k1(x):
    s_i1, g_i = _series(("i1", "gi"), x)
    i1v = 0.5 * x * s_i1
    return (
        1.0 / x
        + np.log(0.5 * x) * i1v
        - 0.25 * x * (g_i - 2.0 * EULER_GAMMA * s_i1)
    )


# ---------------------------------------------------------------------------
# mid-range quadrature on integral representations
# ---------------------------------------------------------------------------

def _quad_j0(x):
    # J0(x) = (1/pi) int_0^pi cos(x sin th) dth
    th, w = _map_gauss(0.0, np.full_like(x, np.pi), 128)
    return np.sum(np.cos(x[..., None] * np.sin(th)) * w, axis=-1) / np.pi


def _quad_j1(x):
    # J1(x) = (1/pi) int_0^pi cos(th - x sin th) dth
    th, w = _map_gauss(0.0, np.full_like(x, np.pi), 128)
    return np.sum(np.cos(th - x[..., None] * np.sin(th)) * w, axis=-1) / np.pi


def _tail(x, order):
    # int_0^inf sinh(t)^order e^{-x sinh t} dt pieces for Y0/Y1
    upper = np.arcsinh(48.0 / x)
    t, w = _map_gauss(0.0, upper, 96)
    s = np.sinh(t)
    f = np.exp(-x[..., None] * s)
    if order == 1:
        f = f * s
    return np.sum(f * w, axis=-1)


def _quad_y0(x):
    # Y0(x) = (1/pi) int_0^pi sin(x sin th) dth - (2/pi) int_0^inf e^{-x sinh t} dt
    th, w = _map_gauss(0.0, np.full_like(x, np.pi), 128)
    osc = np.sum(np.sin(x[..., None] * np.sin(th)) * w, axis=-1)
    return (osc - 2.0 * _tail(x, 0)) / np.pi


def _quad_y1(x):
    # Y1(x) = (1/pi) int_0^pi sin(x sin th - th) dth
    #         - (2/pi) int_0^inf sinh(t) e^{-x sinh t} dt
    th, w = _map_gauss(0.0, np.full_like(x, np.pi), 128)
    osc = np.sum(np.sin(x[..., None] * np.sin(th) - th) * w, axis=-1)
    return (osc - 2.0 * _tail(x, 1)) / np.pi


def _quad_k(x, order):
    # K0(x) = int_0^inf e^{-x cosh t} dt ; K1 has an extra cosh t factor
    upper = np.arccosh(1.0 + 52.0 / x)
    t, w = _map_gauss(0.0, upper, 96)
    c = np.cosh(t)
    f = np.exp(-x[..., None] * c)
    if order == 1:
        f = f * c
    return np.sum(f * w, axis=-1)


# ---------------------------------------------------------------------------
# mid-range Chebyshev tables, fitted from the quadrature
# ---------------------------------------------------------------------------

def _hankel_pq_quad(x):
    """Rows P0, Q0, P1, Q1 of the modulus-phase form at x, from the
    quadrature values of J and Y (the inverse of _modulus_phase)."""
    amp = np.sqrt(2.0 / (np.pi * x))
    rows = []
    for nu, fn_j, fn_y in ((0.0, _quad_j0, _quad_y0),
                           (1.0, _quad_j1, _quad_y1)):
        chi = x - (2.0 * nu + 1.0) * np.pi / 4.0
        jv, yv = fn_j(x) / amp, fn_y(x) / amp
        rows += [jv * np.cos(chi) + yv * np.sin(chi),
                 yv * np.cos(chi) - jv * np.sin(chi)]
    return np.array(rows)


def _scaled_k_quad(x):
    """Rows S0, S1 with S_nu = K_nu(x) sqrt(2x/pi) e^x, from the
    quadrature."""
    scale = np.sqrt(2.0 * x / np.pi) * np.exp(x)
    return np.array([_quad_k(x, 0), _quad_k(x, 1)]) * scale


@lru_cache(maxsize=None)
def _cheb_coeffs(fit_source, lo, hi):
    """First _CHEB_TERMS Chebyshev coefficients on [lo, hi] of each row of
    fit_source, by the discrete cosine sum over _CHEB_NODES Chebyshev
    nodes; the constant term is halved."""
    theta = np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta)
    cosines = np.cos(np.outer(theta, np.arange(_CHEB_TERMS)))
    coef = (2.0 / _CHEB_NODES) * fit_source(x) @ cosines
    coef[:, 0] *= 0.5
    return coef


def _clenshaw(coef, lo, hi, x):
    """sum_j coef[:, j] T_j(s) at s = (2x - lo - hi)/(hi - lo), one row per
    coefficient row (Clenshaw's recurrence)."""
    s = (2.0 * x - (hi + lo)) / (hi - lo)
    s2 = 2.0 * s
    b1 = np.zeros((coef.shape[0], x.size))
    b2 = np.zeros_like(b1)
    for j in range(coef.shape[1] - 1, 0, -1):
        b1, b2 = s2 * b1 - b2 + coef[:, j:j + 1], b1
    return s * b1 - b2 + coef[:, :1]


def _cheb_jy(x, nu, want_y):
    lo, hi = _JY_SERIES_MAX, _JY_QUAD_MAX
    row = 2 * int(nu)
    p, q = _clenshaw(_cheb_coeffs(_hankel_pq_quad, lo, hi)[row:row + 2],
                     lo, hi, x)
    return _modulus_phase(x, nu, p, q, want_y)


def _cheb_k(x, nu):
    lo, hi = _K_SERIES_MAX, _K_QUAD_MAX
    row = int(nu)
    s = _clenshaw(_cheb_coeffs(_scaled_k_quad, lo, hi)[row:row + 1],
                  lo, hi, x)[0]
    return s * np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)


# ---------------------------------------------------------------------------
# large-argument asymptotic expansions
# ---------------------------------------------------------------------------

def _asym_terms(x, fournu2):
    """Number of terms a_k / x^k (k >= 1) the asymptotic sums of order
    nu, 4 nu^2 = fournu2, take at the points x.

    The stop rule is per term: stop after term k once |a_k / x^k| <= 1e-18
    at every point; at most 23 terms.  |a_k / x^k| falls with x, rounding
    included (every step is a monotone rounded operation), so the smallest
    x is the last to converge, and the rule runs on that scalar alone, with
    the same operations as the sums.
    """
    # the terms never start to grow: for nu <= 1, k <= 23 and x >= 17 (the
    # smallest asymptotic argument) the ratio of consecutive terms,
    # |4 nu^2 - (2k - 1)^2| / (8 k x), is at most 2021 / (184 * 17) ~ 0.65
    lo = float(np.min(x))
    a_k = 1.0
    for k in range(1, 24):
        a_k = a_k * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k) / lo
        if abs(a_k) <= 1e-18:
            return k
    return 23


def _hankel_pq(x, nu):
    """P and Q sums of the Hankel asymptotic expansion for order nu."""
    fournu2 = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    ak = np.ones_like(x)  # a_k / x^k, running
    for k in range(1, _asym_terms(x, fournu2) + 1):
        ak = ak * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k) / x
        if k % 2 == 1:
            q += ak * (-1.0) ** ((k - 1) // 2)
        else:
            p += ak * (-1.0) ** (k // 2)
    return p, q


def _modulus_phase(x, nu, p, q, want_y):
    """J_nu = A (P cos chi - Q sin chi) or Y_nu = A (P sin chi + Q cos chi),
    A = sqrt(2/(pi x)), chi = x - (2 nu + 1) pi/4 (A&S 9.2.5-9.2.6)."""
    chi = x - (2.0 * nu + 1.0) * np.pi / 4.0
    amp = np.sqrt(2.0 / (np.pi * x))
    if want_y:
        return amp * (p * np.sin(chi) + q * np.cos(chi))
    return amp * (p * np.cos(chi) - q * np.sin(chi))


def _asym_jy(x, nu, want_y):
    p, q = _hankel_pq(x, nu)
    return _modulus_phase(x, nu, p, q, want_y)


def _asym_sum(x, nu, alternating):
    fournu2 = 4.0 * nu * nu
    s = np.ones_like(x)
    ak = np.ones_like(x)
    for k in range(1, _asym_terms(x, fournu2) + 1):
        ak = ak * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k) / x
        s += (-1.0) ** k * ak if alternating else ak
    return s


def _asym_i(x, nu):
    with np.errstate(over="raise"):
        try:
            amp = np.exp(x) / np.sqrt(2.0 * np.pi * x)
        except FloatingPointError as exc:
            raise SpecFnOverflowError(
                "I%d overflow: argument %s exceeds the representable range"
                % (int(nu), np.max(x))
            ) from exc
    return amp * _asym_sum(x, nu, alternating=True)


def _asym_k(x, nu):
    amp = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    return amp * _asym_sum(x, nu, alternating=False)


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def _prepare(x, positive_only):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if np.any(~np.isfinite(flat)):
        raise SpecFnDomainError("non-finite argument")
    if np.any(flat < 0.0):
        raise SpecFnDomainError("negative argument: x = %s" % flat[flat < 0.0][0])
    if positive_only and np.any(flat == 0.0):
        raise SpecFnDomainError("argument must be strictly positive")
    return arr, flat, scalar


def _dispatch(x, cuts, fns, positive_only=False):
    arr, flat, scalar = _prepare(x, positive_only)
    out = np.empty_like(flat)
    lo = 0.0
    bounds = list(cuts) + [np.inf]
    for fn, hi in zip(fns, bounds):
        mask = (flat >= lo) & (flat < hi) if hi is not np.inf else flat >= lo
        if np.any(mask):
            out[mask] = fn(flat[mask])
        lo = hi
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def j0(x):
    """Bessel function of the first kind, order zero."""
    return _dispatch(x, (_JY_SERIES_MAX, _JY_QUAD_MAX),
                     (_series_j0, lambda v: _cheb_jy(v, 0.0, False),
                      lambda v: _asym_jy(v, 0.0, False)))


def j1(x):
    """Bessel function of the first kind, order one."""
    return _dispatch(x, (_JY_SERIES_MAX, _JY_QUAD_MAX),
                     (_series_j1, lambda v: _cheb_jy(v, 1.0, False),
                      lambda v: _asym_jy(v, 1.0, False)))


def y0(x):
    """Bessel function of the second kind, order zero.  Requires x > 0."""
    return _dispatch(x, (_JY_SERIES_MAX, _JY_QUAD_MAX),
                     (_series_y0, lambda v: _cheb_jy(v, 0.0, True),
                      lambda v: _asym_jy(v, 0.0, True)),
                     positive_only=True)


def y1(x):
    """Bessel function of the second kind, order one.  Requires x > 0."""
    return _dispatch(x, (_JY_SERIES_MAX, _JY_QUAD_MAX),
                     (_series_y1, lambda v: _cheb_jy(v, 1.0, True),
                      lambda v: _asym_jy(v, 1.0, True)),
                     positive_only=True)


def i0(x):
    """Modified Bessel function of the first kind, order zero."""
    return _dispatch(x, (_I_SERIES_MAX,),
                     (_series_i0, lambda v: _asym_i(v, 0.0)))


def i1(x):
    """Modified Bessel function of the first kind, order one."""
    return _dispatch(x, (_I_SERIES_MAX,),
                     (_series_i1, lambda v: _asym_i(v, 1.0)))


def k0(x):
    """Modified Bessel function of the second kind, order zero.  x > 0."""
    return _dispatch(x, (_K_SERIES_MAX, _K_QUAD_MAX),
                     (_series_k0, lambda v: _cheb_k(v, 0),
                      lambda v: _asym_k(v, 0.0)),
                     positive_only=True)


def k1(x):
    """Modified Bessel function of the second kind, order one.  x > 0."""
    return _dispatch(x, (_K_SERIES_MAX, _K_QUAD_MAX),
                     (_series_k1, lambda v: _cheb_k(v, 1),
                      lambda v: _asym_k(v, 1.0)),
                     positive_only=True)


def wronskian_standard(x):
    """J1(x) Y0(x) - Y1(x) J0(x); identically 2/(pi x)."""
    return j1(x) * y0(x) - y1(x) * j0(x)


def wronskian_modified(x):
    """K1(x) I0(x) + I1(x) K0(x); identically 1/x."""
    return k1(x) * i0(x) + i1(x) * k0(x)
