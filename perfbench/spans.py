"""Span tracing of evla's layers from outside the package.

The traced run replaces public functions of the evla modules with wrappers
that record a span (name, start, end, parent, request id, work) in memory.
A name is wrapped wherever it is looked up: the defining module's
attribute, every other evla module that bound it at import (``cli`` binds
``build_temperature``, ``assemble_and_solve`` and ``damage_map``), and the
class attribute for methods.  No evla source changes.  ``work`` counts
points for the Bessel kernel and the field evaluations, and grid unknowns
for the FD oracle.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

BESSEL = ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1")


def _arg0_points(args, kwargs, out):
    return int(np.size(args[0]))


def _field_points(args, kwargs, out):
    # (self, r, z, t) broadcast against each other
    return int(np.broadcast(*args[1:4]).size)


def _unknowns(args, kwargs, out):
    return int(out.grid.r.size * out.grid.z.size)


# (module, attribute or Class.method, span name, work counter)
TRACED = (
    *(("specfn", fn, "specfn." + fn, _arg0_points) for fn in BESSEL),
    ("fluence", "assemble_and_solve", "fluence.assemble_and_solve", None),
    ("fluence", "FluenceSolution.eval", "fluence.eval", _field_points),
    ("thermal", "build_temperature", "thermal.build_temperature", None),
    ("thermal", "steady_robin_offset", "thermal.steady_robin_offset", None),
    ("thermal", "modal_eigenvalues", "thermal.modal_eigenvalues", None),
    ("thermal", "project_initial", "thermal.project_initial", None),
    ("thermal", "TemperatureSolution.eval", "thermal.eval", _field_points),
    ("damage", "damage_map", "damage.damage_map", None),
    ("fdoracle", "solve_steady_fluence", "fdoracle.solve_steady_fluence",
     _unknowns),
    ("fdoracle", "solve_transient_temperature",
     "fdoracle.solve_transient_temperature", _unknowns),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder.  Spans are lists
    [name, start, end, parent index, request id, work]; a parent is always
    recorded before its children."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self._patches = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.request, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[5] = work(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every TRACED name where evla looks it up."""
        loaded = [m for n, m in sys.modules.items()
                  if n == "evla" or n.startswith("evla.")]
        for modname, attr, name, work in TRACED:
            mod = importlib.import_module("evla." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self.wrap(name, owner.__dict__[meth],
                                                   work))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, work)
            for m in loaded:
                for binding, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, binding, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_csv(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,request,work\n")
            for name, start, end, parent, req, work in self.spans:
                fh.write("%s,%.9f,%.9f,%d,%d,%d\n" % (
                    name, start - t0, end - t0, parent, req, work))


class NullTracer:
    """Stand-in used by the timed run: bench spans cost nothing."""

    request = -1

    @contextlib.contextmanager
    def span(self, name):
        yield


def layer_metrics(spans, wall_s):
    """Per-layer totals over all recorded spans of a pass that took wall_s.

    ``X.s`` is the total time inside spans named X, ``X.self_s`` that time
    minus the time covered by child spans.  ``trace.unaccounted_s`` is the
    part of wall_s that no layer or bench span covers: the self time of the
    root ``request`` spans (benchmark glue around the evla calls) plus the
    time to install and remove the wrappers.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(n)
    in_modal = np.zeros(n, dtype=bool)
    in_damage = np.zeros(n, dtype=bool)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent < 0:
            continue
        child[parent] += dur[i]
        pname = spans[parent][0]
        in_modal[i] = in_modal[parent] or pname == "thermal.modal_eigenvalues"
        in_damage[i] = in_damage[parent] or pname == "damage.damage_map"
    self_t = dur - child
    names = np.array([s[0] for s in spans], dtype=object)
    work = np.array([s[5] for s in spans], dtype=float)
    is_spec = np.array([nm.startswith("specfn.") for nm in names], dtype=bool)

    def total(name):
        return float(dur[names == name].sum())

    def self_s(name):
        return float(self_t[names == name].sum())

    def work_of(name, where=None):
        pick = names == name
        if where is not None:
            pick &= where
        return float(work[pick].sum())

    calls = int(is_spec.sum())
    points = float(work[is_spec].sum())
    return {
        "thermal.modal_eigenvalues.s": total("thermal.modal_eigenvalues"),
        "thermal.modal_eigenvalues.specfn_calls":
            int((is_spec & in_modal).sum()),
        "thermal.build_temperature.s": total("thermal.build_temperature"),
        "thermal.steady_robin_offset.s": total("thermal.steady_robin_offset"),
        "thermal.project_initial.s": total("thermal.project_initial"),
        "specfn.calls": calls,
        "specfn.points": points,
        "specfn.points_per_call": points / calls if calls else 0.0,
        "specfn.self_s": float(self_t[is_spec].sum()),
        "thermal.eval.s": total("thermal.eval"),
        "thermal.eval.points": work_of("thermal.eval"),
        "damage.damage_map.self_s": self_s("damage.damage_map"),
        "damage.history_points": work_of("thermal.eval", in_damage),
        "fluence.assemble_and_solve.s": total("fluence.assemble_and_solve"),
        "fluence.eval.s": total("fluence.eval"),
        "fluence.eval.points": work_of("fluence.eval"),
        "fdoracle.solve_steady_fluence.self_s":
            self_s("fdoracle.solve_steady_fluence"),
        "fdoracle.solve_transient_temperature.self_s":
            self_s("fdoracle.solve_transient_temperature"),
        "fdoracle.unknowns": work_of("fdoracle.solve_steady_fluence")
        + work_of("fdoracle.solve_transient_temperature"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.unaccounted_s": wall_s - float(self_t[names != "request"]
                                              .sum()),
    }
