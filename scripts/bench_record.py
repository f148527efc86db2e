"""Record one point of evla's performance trajectory as a BENCH_*.json file.

The record merges, for one seed:

* the three traced benchmark results ``perfbench/out/result-<workload>-
  seed<N>-trace1.json`` (plan, dose-map, oracle), as written by
  ``python3 perfbench/run.py --workload W --seed N --trace 1``;
* the seconds of the acceptance criteria A5, A6 and A7, from one
  in-process ``evla.validate.run``;
* the wall time and summary line of one tier-1 test-suite run;
* the host, the Python/numpy/scipy versions and the git SHA.

Usage, from the root of a source checkout, after the three traced runs:

    python3 scripts/bench_record.py --out BENCH_<n>.json [--seed 0]

A traced result whose evla source digest differs from the checkout's
source is refused: it measured other code.  BENCHMARK.json is not read or
changed.
"""

import os

# one BLAS thread, as in perfbench/run.py, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("plan", "dose-map", "oracle")
CRITERIA = ("a5", "a6", "a7")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def source_digest():
    """sha256 of src/evla/*.py, computed as perfbench/run.py does."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "evla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def traced_results(seed):
    digest = source_digest()
    out = {}
    for name in WORKLOADS:
        path = ROOT / "perfbench" / "out" / (
            "result-%s-seed%d-trace1.json" % (name, seed))
        record = json.loads(path.read_text())
        if record["provenance"]["evla_source_sha256"] != digest:
            sys.exit("bench_record: %s was measured on other evla source"
                     % path.name)
        out[name] = record
    return out


def criterion_seconds():
    sys.path.insert(0, str(SRC))
    from evla import validate

    return {res.name: {"seconds": res.seconds, "passed": bool(res.passed),
                       "measured": res.measured}
            for res in validate.run(list(CRITERIA))}


def tier1():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    run = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
                         text=True)
    seconds = time.perf_counter() - t0
    lines = run.stdout.strip().splitlines()
    return {"wall_s": seconds, "exit_code": run.returncode,
            "summary": lines[-1] if lines else ""}


def host():
    import numpy
    import scipy

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=ROOT, capture_output=True, text=True)
    return {"node": platform.node(), "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git.stdout.strip() or "unavailable",
            "src_modified": bool(dirty.stdout.strip()),
            "evla_source_sha256": source_digest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_*.json path")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the traced results to merge")
    args = parser.parse_args(argv)
    record = {"host": host(), "seed": args.seed,
              "traced": traced_results(args.seed),
              "criteria": criterion_seconds(), "tier1": tier1()}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("bench_record: wrote %s (tier-1 %.1f s, %s)"
          % (args.out, record["tier1"]["wall_s"],
             record["tier1"]["summary"]))


if __name__ == "__main__":
    main()
