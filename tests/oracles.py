"""Independent scalar reference implementations used only by the tests.

Deliberately written in a different style from the package kernel: plain
Python floats, fixed high term counts, no vectorisation, no regime
switching.  Valid for small-to-moderate arguments only (|x| <~ 12 for the
oscillatory functions before cancellation bites); the tests use them in
that range and fall back to quad-based cross-checks elsewhere.

scan_roots is the reference mode search: a fixed-step scan of a
determinant and one brentq solve per sign change.  stencil is the
reference finite-volume operator: the sparse matrix that fdoracle applies
and solves as a Kronecker sum.  split_forced_terms is the temperature's
forced terms with the axial and the time factor apart, e^{-mu z} G(t).
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

from evla.params import OUTER_FIRST, Region, derive_optics
from evla.thermal import forcing_rates, growth_bracket

GAMMA = 0.57721566490153286060651209008240243104215933593992


def ref_j0(x, terms=60):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= -t / (n * n)
        s += term
    return s


def ref_j1(x, terms=60):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= -t / (n * (n + 1))
        s += term
    return 0.5 * x * s


def ref_i0(x, terms=120):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= t / (n * n)
        s += term
    return s


def ref_i1(x, terms=120):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= t / (n * (n + 1))
        s += term
    return 0.5 * x * s


def ref_y0(x, terms=60):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    h = 0.0
    for n in range(1, terms):
        term *= -t / (n * n)
        h += 1.0 / n
        s -= term * h
    return 2.0 / math.pi * ((math.log(x / 2.0) + GAMMA) * ref_j0(x, terms) + s)


def ref_k0(x, terms=120):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    h = 0.0
    for n in range(1, terms):
        term *= t / (n * n)
        h += 1.0 / n
        s += term * h
    return -(math.log(x / 2.0) + GAMMA) * ref_i0(x, terms) + s


def ref_y1(x, terms=60):
    t = x * x / 4.0
    s = 0.0
    term = 1.0  # t^k/(k!(k+1)!)
    hsum = 1.0  # H_k + H_{k+1} at k=0
    acc = term * hsum
    for k in range(1, terms):
        term *= -t / (k * (k + 1))
        hsum = sum(1.0 / j for j in range(1, k + 1)) * 2.0 + 1.0 / (k + 1)
        acc += term * hsum
    j1v = ref_j1(x, terms)
    return 2.0 / math.pi * (
        -1.0 / x + math.log(x / 2.0) * j1v
        - 0.25 * x * (acc - 2.0 * GAMMA * _ref_j1_series(x, terms))
    )


def _ref_j1_series(x, terms):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= -t / (n * (n + 1))
        s += term
    return s


def ref_k1(x, terms=120):
    t = x * x / 4.0
    term = 1.0
    hsum = 1.0
    acc = term * hsum
    for k in range(1, terms):
        term *= t / (k * (k + 1))
        hsum = sum(1.0 / j for j in range(1, k + 1)) * 2.0 + 1.0 / (k + 1)
        acc += term * hsum
    i1v = ref_i1(x, terms)
    return (1.0 / x + math.log(x / 2.0) * i1v
            - 0.25 * x * (acc - 2.0 * GAMMA * _ref_i1_series(x, terms)))


def _ref_i1_series(x, terms):
    t = x * x / 4.0
    s = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= t / (n * (n + 1))
        s += term
    return s


def simpson(f, a, b, n):
    """Composite Simpson with n (even) intervals; plain-Python reference."""
    if n % 2:
        n += 1
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return s * h / 3.0


def scan_roots(dets, switches, n_roots):
    """The first n_roots roots in u of dets, slowest first.

    dets maps a 1-D array of u to determinant values.  The scan runs from
    u = 0.005 to 3 in steps of about 0.002, in segments that stop 1e-6
    short of each switch (where the determinant jumps); every sign change
    is then solved by scipy's brentq on scalar calls, xtol and rtol 1e-14.
    """
    cuts = sorted(s for s in switches if 0.0 < s < 3.0) + [3.0]
    brackets = []
    lo = 0.005
    for s in cuts:
        hi = s - 1e-6
        if hi > lo:
            us = np.linspace(lo, hi, max(8, int(round((hi - lo) / 0.002)))
                             + 1)
            ds = dets(us)
            brackets += [(us[i], us[i + 1]) for i in range(len(us) - 1)
                         if ds[i] * ds[i + 1] < 0.0]
        lo = s + 1e-6
        if len(brackets) >= n_roots:
            break
    if len(brackets) < n_roots:
        raise ValueError("found %d of %d roots by u = 3" % (len(brackets),
                                                            n_roots))
    return [brentq(lambda u: float(dets(np.array([u]))[0]), a, b,
                   xtol=1e-14, rtol=1e-14)
            for a, b in brackets[:n_roots]]


def ref_hankel_pq(x, nu):
    """P and Q sums of the Hankel asymptotic expansion for order nu, with
    the per-term stop rule tested on the whole array: the kernel's loop
    before its term count was set once per call."""
    fournu2 = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    ak = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(1, 24):
        ak = ak * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k) / x
        mag = np.abs(ak)
        if np.all(mag >= prev):
            break
        if k % 2 == 1:
            q += ak * (-1.0) ** ((k - 1) // 2)
        else:
            p += ak * (-1.0) ** (k // 2)
        prev = mag
        if np.all(mag <= 1e-18):
            break
    return p, q


def ref_asym_sum(x, nu, alternating):
    """The I (alternating) or K asymptotic sum of order nu, with the same
    per-term stop rule as ref_hankel_pq."""
    fournu2 = 4.0 * nu * nu
    s = np.ones_like(x)
    ak = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(1, 24):
        ak = ak * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k) / x
        mag = np.abs(ak)
        if np.all(mag >= prev):
            break
        s += (-1.0) ** k * ak if alternating else ak
        prev = mag
        if np.all(mag <= 1e-18):
            break
    return s


def stencil(grid, d_face, d_cv, m_cv):
    """Sparse 5-point operator of an fdoracle Grid2D: flux divergence +
    reaction, CV-integrated, assembled entry by entry in COO form.

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


def split_forced_terms(ps, mode, z, t):
    """The forced factors of both families (mu_eff, mu_t) in every region,
    (family, region, *shape) over the broadcast shape of z and t, as
    e^{-mu z} times the bracket G(t) = (e^{a t} - e^{b t}) / d with
    b = -mu v: d = a - b, G = growth_bracket(a, b, t), in the lumen and in
    the derived form; d = rho c_p a in the outer regions of the printed
    forms, where printed_sqrt takes sqrt(a) for the first rate.  Overflows
    are left as inf (or nan, inf times 0)."""
    blood = derive_optics(ps.blood_optics)
    rates = forcing_rates(ps)
    z, t = np.broadcast_arrays(np.asarray(z, dtype=float),
                               np.asarray(t, dtype=float))
    out = np.empty((2, len(Region)) + z.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for f, mu in enumerate((blood.mu_eff, blood.mu_t)):
            b = -mu * ps.protocol.v
            for k, reg in enumerate(Region):
                a = rates[f, k]
                if mode == "derived" or k < OUTER_FIRST:
                    bracket = growth_bracket(a, b, t)
                else:
                    rate = rates[0, k]
                    if mode == "printed_sqrt":
                        a = math.sqrt(rate)
                    bracket = ((np.exp(a * t) - np.exp(b * t))
                               / (ps.thermal_of(reg).rho_cp * rate))
                out[f, k] = np.exp(-mu * z) * bracket
    return out
