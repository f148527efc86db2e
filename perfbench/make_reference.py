"""Regenerate reference.npz: the checked outputs of the default seed.

    python3 perfbench/make_reference.py

Run from a checkout whose outputs are known to be right; the stored digests
are what later runs of the default seed must reproduce (see reference.py).
Every workload is regenerated, so all digests come from one commit.  Takes
about two minutes.
"""

import sys
import tempfile

import numpy as np

import run


def main():
    run.load_evla()
    import reference
    from workloads import WORKLOADS

    data = {}
    run.OUT.mkdir(exist_ok=True)
    for name, cls in sorted(WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            wl = cls(reference.DEFAULT_SEED, run.Path(workdir))
            for i in range(wl.n_reference):
                inp = wl.draw(i)
                problems, arrays = wl.check(inp, wl.run(inp))
                if problems:
                    sys.exit("%s request %d fails its checks: %s"
                             % (name, i, problems))
                for key, (kind, arr, _) in arrays.items():
                    for part, value in reference.digest(kind, arr).items():
                        data[reference.key(name, i, key, part)] = value
        print("%s: %d requests stored" % (name, wl.n_reference))
    data["meta.git_sha"] = np.array(run.git_sha())
    np.savez_compressed(reference.PATH, **data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
