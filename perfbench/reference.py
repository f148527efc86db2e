"""Stored outputs of the default seed, and the tolerances they are checked
with.

Each checked array has a kind:

* ``field``: a closed-form or FD field.  Relative tolerance 1e-10 taken
  over the array's L2 norm (fluence crosses zero in the pad, so an
  elementwise relative test is meaningless there).  A strided subsample of
  at most SUBSAMPLE values is stored, plus the full array's norm.
* ``csv``: a CSV value column, stored like ``field``.  The CSVs carry 9
  significant digits, so two runs whose values differ by 1e-10 can still
  round one unit apart in the last digit, which is up to 1e-8 relative.
* ``omega``: Arrhenius dose, elementwise; ``scale`` is the amplification
  E_a/(R T), by which a relative change in temperature is magnified.
* ``t_cross``: crossing times; the inf pattern must match exactly and the
  finite entries agree within 1e-10 times ``scale`` (amplification times
  t_end).
* ``rel_l2``: a relative L2 gap; it moves by at most the relative change
  of its fields, so the tolerance is 1e-10 absolute.
* ``value``: scalars compared by value, 1e-10 relative.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PATH = Path(__file__).resolve().parent / "reference.npz"
DEFAULT_SEED = 0
TOL = 1e-10
CSV_TOL = 2e-8
SUBSAMPLE = 1024

_NORMED = {"field": TOL, "csv": CSV_TOL}


def _sub(arr):
    flat = np.ravel(arr)
    return flat[::max(1, -(-flat.size // SUBSAMPLE))]


def parts(kind):
    return ("sub", "norm") if kind in _NORMED else ("full",)


def digest(kind, arr):
    """What is stored for one checked array, as {part: array}."""
    if kind in _NORMED:
        return {"sub": _sub(arr), "norm": np.array(np.linalg.norm(arr))}
    return {"full": np.asarray(arr, dtype=float)}


def compare(kind, arr, stored, scale):
    """Problem description if arr does not match its stored digest."""
    if kind in _NORMED:
        tol = _NORMED[kind]
        sub, ref = _sub(arr), stored["sub"]
        if sub.shape != ref.shape:
            return "shape %s, reference %s" % (sub.shape, ref.shape)
        gap = np.linalg.norm(sub - ref) / np.linalg.norm(ref)
        norm_gap = abs(np.linalg.norm(arr) - stored["norm"]) / stored["norm"]
        if not (gap <= tol and norm_gap <= tol):
            return "relative gap %.3g (norm %.3g) > %.1g" % (gap, norm_gap,
                                                             tol)
        return None
    arr = np.asarray(arr, dtype=float)
    ref = stored["full"]
    if arr.shape != ref.shape:
        return "shape %s, reference %s" % (arr.shape, ref.shape)
    if kind == "omega":
        bad = np.abs(arr - ref) > TOL * scale * np.abs(ref)
    elif kind == "t_cross":
        if np.any(np.isinf(arr) != np.isinf(ref)):
            return "crossing pattern differs from the reference"
        fin = np.isfinite(ref)
        bad = np.abs(arr[fin] - ref[fin]) > TOL * scale
    elif kind == "rel_l2":
        bad = np.abs(arr - ref) > TOL
    elif kind == "value":
        bad = np.abs(arr - ref) > TOL * np.abs(ref)
    else:
        raise ValueError("unknown kind %r" % kind)
    if np.any(bad):
        return "%d of %d values outside tolerance" % (np.count_nonzero(bad),
                                                      bad.size)
    return None


def key(workload, index, name, part):
    return "%s.%d.%s.%s" % (workload, index, name, part)


class Store:
    """Reference digests of one workload, read from PATH."""

    def __init__(self, workload):
        self.workload = workload
        with np.load(PATH) as data:
            prefix = workload + "."
            self.data = {k: data[k] for k in data.files
                         if k.startswith(prefix)}

    def problems(self, index, arrays):
        out = []
        for name, (kind, arr, scale) in arrays.items():
            stored = {part: self.data.get(key(self.workload, index, name,
                                              part))
                      for part in parts(kind)}
            if any(v is None for v in stored.values()):
                out.append("%s: no stored reference" % name)
                continue
            why = compare(kind, arr, stored, scale)
            if why:
                out.append("%s vs reference: %s" % (name, why))
        return out
