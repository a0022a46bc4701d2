"""Record the reference digests the output gate compares against.

    python3 bench/reference.py

Runs one call on every dataset of every workload at the default seed and
writes their artifact digests to bench/reference.json. Rerun it only in a
change that means to alter output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

# Pinned as run.py pins them, before NumPy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from workload import ROOT, Runner  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

import gate  # noqa: E402


def main() -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as work:
            runner = Runner(name, DEFAULT_SEED, Path(work))
            runner.reference = None
            digests = []
            for index in range(wl.datasets):
                ds = runner.make_dataset(index)
                runner.call(ds)
                digests.append(ds.digests)
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
        out["workloads"][name] = digests
        print(f"{name}: {len(digests)} datasets")
    with open(gate.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
