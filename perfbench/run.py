"""Benchmark of the evla package, end to end and layer by layer.

Usage, from the root of a source checkout (evla is imported from ./src):

    python3 perfbench/run.py --workload plan --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py):

* ``plan``: each request runs ``evla temperature`` then ``evla fluence``
  in-process on a fresh seeded INI config.  Every request pays a cold
  build; mode search dominates and the Bessel kernel runs on scalars.
  Requests share no work.
* ``dose-map``: set-up builds the temperature solutions of two presets;
  each request runs ``damage_map`` on both, on seeded grids and
  thresholds.  Field evaluation dominates and the kernel runs on vectors.
  Requests share every solution and radius; mode search shows only in
  set-up.
* ``oracle``: set-up builds the 810 nm solution at a seeded power; each
  request runs the steady FD fluence solve on a base and a refined grid
  and the transient FD solve, and compares both with the closed form.
  Per-step scalar profile evaluation, the closed-form comparison and
  sparse LU dominate; mode search shows only in set-up.

One process serves one workload, on one BLAS thread.  ``--trace 0`` is the
timed run: it serves a fixed sequence of ``n_fixed`` requests, whose total
time is ``wall_s``, then keeps serving seeded requests while the next one
is expected to end within ``--seconds``.  (A ``plan`` or ``oracle``
request takes 10-15 s on a 2-vCPU VM, so at 20 s those runs serve their
fixed sequence and rarely more; ``dose-map`` serves 12-17 requests.)  It
reports

* ``setup_s``: from the start of this script until the first request can
  be served (importing evla and the workload's set-up);
* ``request_p50_s``: median latency of one request's evla calls, over
  every request served (the count is printed);
* ``wall_s``: time for the fixed sequence, including input generation and
  output checks;
* ``peak_rss_mb``: peak resident memory of the process (``ru_maxrss``).

The failure fraction is printed with them; the result line carries the
attempted and failed counts.  A request fails if it raises or if its
output fails a check.  For the default seed the outputs are also compared
with ``reference.npz`` (see reference.py and make_reference.py).

``--trace 1`` serves each request of the fixed sequence twice, untraced
and then with the evla layers wrapped (spans.py), and reports per-layer
totals over the traced requests, the tracing overhead (traced minus
untraced ``wall_s``) and the Bessel kernel probe (probe.py).  Spans are
written to ``perfbench/out/spans-<workload>-seed<n>.csv``; every run writes
its result and provenance to ``perfbench/out/result-*.json``.  Metric names
and units are read from BENCHMARK.json at the root of the checkout.

The last line of standard output is the JSON result.
"""

import time

T_START = time.perf_counter()

import os

# one BLAS thread, fixed before numpy loads, so runs do not depend on the
# caller's environment
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("EVLA_CONFIG", None)   # the CLI would read it

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def metric_units():
    """(end-to-end, per-layer) {metric: unit}, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def load_evla():
    """Import evla from this checkout's source tree, never from elsewhere."""
    init = SRC / "evla" / "__init__.py"
    if not init.is_file():
        sys.exit("perfbench: no evla source tree at %s" % init.parent)
    sys.path.insert(0, str(SRC))
    import evla
    if Path(evla.__file__).resolve() != init.resolve():
        sys.exit("perfbench: evla imported from %s, not %s"
                 % (evla.__file__, init))


def git_sha():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "evla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "git_sha": git_sha(), "evla_source_sha256": digest.hexdigest()}


def serve(wl, i, tracer, store):
    """One request: draw inputs, call evla (timed), check the output.
    Returns (latency of the evla calls, True if the output is correct)."""
    tracer.request = i
    with tracer.span("request"):
        latency = 0.0
        try:
            with tracer.span("bench.draw"):
                inp = wl.draw(i)
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            finally:
                latency = time.perf_counter() - t0
            with tracer.span("bench.check"):
                problems, arrays = wl.check(inp, out)
                ref = wl.reference_index(i)
                if store is not None and ref is not None:
                    problems += store.problems(ref, arrays)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
    for problem in problems:
        print("perfbench: %s request %d: %s" % (wl.name, i, problem),
              file=sys.stderr)
    return latency, not problems


def timed_run(wl, seconds, store):
    """The fixed sequence, then more requests while they fit in seconds."""
    from spans import NullTracer

    latencies, failed, wall = [], 0, None
    t0 = time.perf_counter()
    while True:
        latency, ok = serve(wl, len(latencies), NullTracer(), store)
        latencies.append(latency)
        failed += not ok
        elapsed = time.perf_counter() - t0
        if len(latencies) == wl.n_fixed:
            wall = elapsed
        if (len(latencies) >= wl.n_fixed
                and elapsed + statistics.median(latencies) > seconds):
            return latencies, failed, wall


def traced_run(wl, store):
    """Each request of the fixed sequence served untraced and then traced,
    in adjacent pairs so that slow drift of the host's speed falls on both
    sides of the overhead alike."""
    from evla import specfn
    from probe import kernel_metrics
    from spans import NullTracer, Tracer, layer_metrics

    tracer = Tracer()
    failed, wall_plain, wall_traced = 0, 0.0, 0.0
    for i in range(wl.n_fixed):
        t0 = time.perf_counter()
        failed += not serve(wl, i, NullTracer(), store)[1]
        t1 = time.perf_counter()
        tracer.install()
        try:
            failed += not serve(wl, i, tracer, store)[1]
        finally:
            tracer.uninstall()
        wall_plain += t1 - t0
        wall_traced += time.perf_counter() - t1
    metrics = layer_metrics(tracer.spans, wall_traced)
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    metrics.update(kernel_metrics(specfn))
    return metrics, failed, 2 * wl.n_fixed, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan", "dose-map", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_units, layer_units = metric_units()
    load_evla()
    import reference
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        store = (reference.Store(wl.name)
                 if args.seed == reference.DEFAULT_SEED else None)
        if args.trace:
            metrics, failed, attempted, tracer = traced_run(wl, store)
            tracer.write_csv(OUT / ("spans-%s-seed%d.csv"
                                    % (wl.name, args.seed)))
            units = layer_units
            notes = {"setup_s": setup_s}
        else:
            latencies, failed, wall = timed_run(wl, args.seconds, store)
            attempted = len(latencies)
            metrics = {
                "setup_s": setup_s,
                "request_p50_s": statistics.median(latencies),
                "wall_s": wall,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = e2e_units
            notes = {"requests": attempted, "fixed_requests": wl.n_fixed,
                     "latencies_s": latencies}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit("perfbench: measured %s, BENCHMARK.json lists %s"
                 % (sorted(set(metrics) - set(units)),
                    sorted(set(units) - set(metrics))))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"provenance": provenance(args), "notes": notes, **result}
    name = "result-%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for metric, entry in result["metrics"].items():
        print("%-46s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print("%-46s %14.6g %s   (%d of %d requests)" % (
        "failed_frac", failed / attempted, "1", failed, attempted))
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
