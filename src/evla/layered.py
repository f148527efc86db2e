"""Radial profiles and interface matching over the layered cylinder.

Every closed-form field of the package is, zone by zone, a two-function
radial combination a f(q r) + b g(q r) with (f, g) flat (1, 0), J0/Y0 or
I0/K0.  The coefficients follow from value and conductance-flux
continuity at the zone edges, a few inner rows and an outer closure at
r_s: the composite-medium construction of Mikhailov & Ozisik, *Unified
Analysis and Solutions of Heat and Mass Diffusion* (1984).

* RadialPiecewise evaluates a batch of such profiles; basis() gathers
  the arguments of every zone, edge and row, so that an evaluation makes
  one specfn call per function and basis kind present.
* LayerSpec states one matching problem, batched over trial wavenumbers;
  assemble() builds its column-scaled system, which can be solved (with a
  condition check) or reduced to determinants.
* interface_jumps() measures how well a profile satisfies the matching.
* TermTable multiplies such rows by axial factors e^{-mu (z + v t)}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import specfn
from .params import Geometry, Region, region_index

FLAT, JY, IK = 0, 1, 2          # basis kinds: (1, 0), J0/Y0, I0/K0

# names of Geometry.edges[1:-1]: interface k joins zones k, k + 1 of Region
EDGES = ("r_f", "r_i", "r_w", "r_p")

# per kind: the specfn names of the value functions and of the derivative
# functions of x = q r, and the signs s_f, s_g of d/dr f = s_f q f1(q r):
# J0' = -J1, Y0' = -Y1, I0' = I1, K0' = -K1.  Names, looked up on each
# call, so that a wrapper installed on a specfn attribute sees every call.
_FUNCS = {
    JY: (("j0", "y0"), ("j1", "y1"), (-1.0, -1.0)),
    IK: (("i0", "k0"), ("i1", "k1"), (1.0, -1.0)),
}

# (row, radius) pairs per basis evaluation in RadialPiecewise._eval; a
# larger table is evaluated in slices, which bounds its gathered
# temporaries and the kernel's
_SLICE = 1 << 12


class SolverError(RuntimeError):
    """Linear-system assembly or post-solve residual failure."""


class SingularSystem(SolverError):
    def __init__(self, family, cond):
        super().__init__("interface system (%s family) is singular or "
                         "near-singular, cond ~ %.3e" % (family, cond))
        self.family = family
        self.cond = cond


def basis(kind, q, r, deriv=False):
    """(f, g, c) with (c f, c g) the basis of kind at wavenumber q and
    radius r, or its r-derivative.

    kind, q and r broadcast against each other, and f and g take their
    shape; c is the scalar 1 for values, s_f q of that shape for
    derivatives (g then carries the sign s_f s_g).  A combination's
    derivative is c (a f + b g), the factor applied once.  Each function
    is evaluated by one specfn call per kind present, on the arguments q r
    of that kind gathered over the whole broadcast shape: every zone,
    edge and row at once.
    """
    kind, q, r = np.broadcast_arrays(kind, np.asarray(q, dtype=float),
                                     np.asarray(r, dtype=float))
    x = q * r
    f = np.zeros(x.shape)
    g = np.zeros(x.shape)
    c = np.ones(x.shape) if deriv else 1.0
    if not deriv:
        f[kind == FLAT] = 1.0
    for k, (values, derivs, (s_f, s_g)) in _FUNCS.items():
        pick = kind == k
        if not np.any(pick):
            continue
        xs = x[pick]
        fn_f, fn_g = (getattr(specfn, name)
                      for name in (derivs if deriv else values))
        f[pick] = fn_f(xs)
        g[pick] = fn_g(xs)
        if deriv:
            g[pick] *= s_f * s_g
            c[pick] = s_f * q[pick]
    return f, g, c


def _edge_basis(geo, first, kind, q, deriv):
    """basis of every zone j >= first (axis 0) and batch column (axis 1)
    of kind and q, (zones, batch), at the zone's inner and outer edge
    (axis 2)."""
    edges = np.asarray(geo.edges[first:])
    r = np.stack([edges[:-1], edges[1:]], axis=-1)[:, None, :]
    return basis(kind[..., None], q[..., None], r, deriv)


@dataclass(frozen=True)
class RadialPiecewise:
    """A batch of radial profiles over the consecutive zones first,
    first + 1, ..., SKIN of tuple(Region).

    In zone j (counted from first) row i is a[j, i] f + b[j, i] g with the
    basis kind[j, i] at wavenumber q[j, i]; every array is (zones, batch).
    Profiles are zero inward of zone first; the zone edges belong to the
    outer zone, as in params.region_index.
    """

    geo: Geometry
    first: int
    kind: np.ndarray
    q: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def _eval(self, zone, r, deriv):
        """Row i of zone zone[p] (counted from first, broadcast against r)
        at the radius r[p], for every row i: (batch, *r.shape); zero where
        zone < 0, inward of first.

        The (row, radius) pairs of every zone are gathered into one basis
        evaluation, in slices of at most _SLICE pairs, which bounds the
        temporaries of large tables."""
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        zone = np.broadcast_to(zone, r.shape).ravel()
        batch = self.a.shape[1]
        # row 0: a flat zero zone, read by every radius inward of first
        padded = [np.concatenate([np.zeros((1, batch), arr.dtype), arr])
                  for arr in (self.kind, self.q, self.a, self.b)]
        out = np.empty((batch, flat.size))
        step = max(1, _SLICE // batch)
        for start in range(0, flat.size, step):
            cut = slice(start, start + step)
            j = np.maximum(zone[cut], -1) + 1
            kind, q, a, b = (arr[j].T for arr in padded)
            f, g, c = basis(kind, q, flat[cut], deriv)
            # c (a f + b g), in place
            f *= a
            g *= b
            f += g
            f *= c
            out[:, cut] = f
        return out.reshape(out.shape[:1] + r.shape)

    def at(self, region: Region, r, deriv=False):
        """The combination of one region (or its r-derivative) at radii r,
        wherever they lie: (batch, *r.shape)."""
        return self._eval(tuple(Region).index(region) - self.first, r, deriv)

    def values(self, r):
        """Every row at the radii r, each in its own zone:
        (batch, *r.shape)."""
        return self._eval(region_index(r, self.geo) - self.first, r, False)

    def derivs(self, r):
        """r-derivatives of every row at the radii r: (batch, *r.shape)."""
        return self._eval(region_index(r, self.geo) - self.first, r, True)

    def at_edges(self, deriv=False):
        """Every row of every zone at the zone's inner and outer edge (or
        the r-derivatives there): (zones, batch, 2)."""
        f, g, c = _edge_basis(self.geo, self.first, self.kind, self.q, deriv)
        return c * (self.a[..., None] * f + self.b[..., None] * g)

    def rows(self, pick):
        """The profiles of the batch rows pick (a slice or index array)."""
        return replace(self, kind=self.kind[:, pick], q=self.q[:, pick],
                       a=self.a[:, pick], b=self.b[:, pick])

    def flat_inside(self, value):
        """These profiles continued to the axis by the constant value, one
        flat zone per zone inside first."""
        shape = (self.first, self.a.shape[1])

        def pad(fill, arr):
            return np.concatenate([np.full(shape, fill), arr])

        return RadialPiecewise(self.geo, 0, pad(FLAT, self.kind),
                               pad(0.0, self.q), pad(value, self.a),
                               pad(0.0, self.b))


def stack(profiles):
    """One RadialPiecewise holding the rows of all profiles, which share
    their geometry and zones."""
    return replace(profiles[0], **{
        key: np.concatenate([getattr(p, key) for p in profiles], axis=1)
        for key in ("kind", "q", "a", "b")})


def distinct_values(x):
    """(xu, inv): the sorted distinct values of the coordinate array x and
    the index array of x's shape that gathers them back, xu[inv] == x.  A
    factor of one coordinate is evaluated once per entry of xu."""
    xu, inv = np.unique(x, return_inverse=True)
    return xu, inv.reshape(np.shape(x))


@dataclass(frozen=True)
class TermTable:
    """Separable terms R_k(r) e^{-mu_k xi} E_k(t), xi = z + v t: the rows
    of radial and one axial rate mu_k per row; the solution holding the
    table owns the time factors E_k.  Ahead of the tip (xi >= 0) every
    axial factor lies in [0, 1], so only E_k can overflow."""

    radial: RadialPiecewise
    mu: np.ndarray      # (terms,) [1/mm]
    v: float            # [mm/s]

    def axial(self, z, t, pick=slice(None)):
        """e^{-mu_k (z + v t)} of the terms pick (a slice or index array):
        (terms, *shape), shape the broadcast shape of z and t."""
        xi = np.asarray(z, dtype=float) + self.v * np.asarray(t, dtype=float)
        return np.exp(np.multiply.outer(-self.mu[pick], xi))

    def field(self, r, z, t):
        """sum_k R_k(r) e^{-mu_k (z + v t)}, every E_k = 1, arrays
        broadcast; the radial rows are evaluated once per distinct r."""
        ru, inv = distinct_values(r)
        rows = self.radial.values(ru)[:, inv]
        return reduce(np.add, map(np.multiply, rows, self.axial(z, t)))


@dataclass(frozen=True)
class LayerSpec:
    """A matching problem over the zones first, ..., SKIN.

    The unknowns are (a, b) of each zone and batch row, in zone order.
    The rows are, in order:
      * inner: rows at the innermost edge, each ("value" | "flux", rhs);
        flux means conductance times d/dr;
      * value and conductance-flux continuity at every interior edge;
      * the closure at r_s: "none", or "value", "flux" or "robin"
        (cond f' + h f) equal to outer_rhs.
    kind and q are (zones, batch), one trial per batch column; cond holds
    one conductance (D or k) per zone.
    """

    geo: Geometry
    first: int
    kind: np.ndarray
    q: np.ndarray
    cond: tuple
    inner: tuple
    outer: str = "none"
    outer_rhs: float = 0.0
    h: float = 0.0

    def piecewise(self, x):
        """The profiles whose coefficients are the (batch, unknowns)
        solutions x."""
        x = np.asarray(x, dtype=float)
        return RadialPiecewise(self.geo, self.first, self.kind, self.q,
                               x[:, 0::2].T, x[:, 1::2].T)


@dataclass(frozen=True)
class InterfaceSystem:
    """Assembled matching systems, one per batch column of the spec, with
    every column scaled to unit max magnitude."""

    spec: LayerSpec
    m: np.ndarray        # (batch, n, n), column-scaled
    scale: np.ndarray    # (batch, 1, n)
    rhs: np.ndarray      # (n,)

    def det(self):
        """Determinants of the column-scaled matrices, (batch,)."""
        return np.linalg.det(self.m)

    def solve(self, family):
        """(profiles, cond): the solved coefficients as a RadialPiecewise
        and the 1-norm condition numbers of the scaled matrices.  Raises
        SingularSystem when any exceeds 1e13."""
        cond = np.linalg.cond(self.m, 1)
        worst = float(np.max(cond))
        if not np.isfinite(worst) or worst > 1e13:
            raise SingularSystem(family, worst)
        rhs = np.broadcast_to(self.rhs[:, None], self.m.shape[:-1] + (1,))
        x = np.linalg.solve(self.m, rhs)[..., 0] / self.scale[:, 0]
        return self.spec.piecewise(x), cond


def assemble(spec: LayerSpec) -> InterfaceSystem:
    """Build the column-scaled matching system of every batch column."""
    zones, batch = spec.kind.shape
    n = 2 * zones
    # val[j] / flux[j]: (batch, 2 edges, 2 functions) of zone j
    val, flux = (np.stack([c * f, c * g], -1) for f, g, c in (
        _edge_basis(spec.geo, spec.first, spec.kind, spec.q, deriv)
        for deriv in (False, True)))
    flux = np.asarray(spec.cond, dtype=float)[:, None, None, None] * flux
    rows, rhs = [], []

    def row(zone, entries, value=0.0):
        full = np.zeros((batch, n))
        for k, ent in zip((zone, zone + 1), entries):
            full[:, 2 * k:2 * k + 2] = ent
        rows.append(full)
        rhs.append(value)

    for what, value in spec.inner:
        row(0, ((val if what == "value" else flux)[0][:, 0],), value)
    for j in range(zones - 1):
        for side in (val, flux):
            row(j, (side[j][:, 1], -side[j + 1][:, 0]))
    closure = {"none": None,
               "value": val[-1][:, 1],
               "flux": flux[-1][:, 1],
               "robin": flux[-1][:, 1] + spec.h * val[-1][:, 1]}
    if closure[spec.outer] is not None:
        row(zones - 1, (closure[spec.outer],), spec.outer_rhs)
    m = np.stack(rows, axis=1)
    scale = np.max(np.abs(m), axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    return InterfaceSystem(spec=spec, m=m / scale, scale=scale,
                           rhs=np.array(rhs, dtype=float))


def interface_jumps(prof: RadialPiecewise, cond, weights=None):
    """Relative value and conductance-flux jumps at each interface of prof.

    The field checked is sum_i weights[i] * row i, one field per column of
    weights (default: the plain sum of the rows); cond holds one
    conductance per zone of prof.  Returns {edge name: (value jump, flux
    jump)}, each the largest over the fields.
    """
    if weights is None:
        weights = np.ones((prof.a.shape[1], 1))
    cond = np.asarray(cond, dtype=float)[:, None, None]
    jumps = []
    for deriv, scale, floor in ((False, 1.0, 1e-300), (True, cond, 1e-30)):
        # the weighted fields of every zone at both its edges:
        # (zones, 2 edges, fields)
        field = np.sum(weights[:, None, :] * prof.at_edges(deriv)[..., None],
                       axis=1) * scale
        v_in, v_out = field[:-1, 1], field[1:, 0]
        rel = np.abs(v_in - v_out) / np.maximum(
            np.maximum(np.abs(v_in), np.abs(v_out)), floor)
        jumps.append(np.max(rel, axis=-1))
    return {name: (float(jv), float(jf))
            for name, jv, jf in zip(EDGES[prof.first:], *jumps)}
