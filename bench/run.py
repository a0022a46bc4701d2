"""allocmap benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload pipeline-5x5 --seed 7 --seconds 42 --trace 0

Run from the root of a checkout. The library is taken from ``src/`` of that
checkout. Prints one line per metric, then, as the last line, the result as
JSON: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``). A record with the environment, every sample and, when
traced, every span is written to ``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 5
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import {}; "
    "print(time.perf_counter() - t)"
)
# The reference import that brackets each timed import of allocmap.cli: most
# of allocmap's import time is SciPy's, so the reference slows with it when
# the shared host does, while allocmap's own import graph moves only the
# numerator. REFERENCE_IMPORT_S is the scale of the result: about this
# import's time on a quiet host. Any fixed value gives the same ratios.
REFERENCE_IMPORT = "scipy.optimize"
REFERENCE_IMPORT_S = 0.6


def pinned_env() -> dict:
    """One BLAS thread per process: OpenBLAS is threaded, and its threads on
    top of two pool workers would oversubscribe a two-core machine."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(OUT),
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
    )
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Time ``import allocmap.cli`` in fresh interpreters, after one warm-up
    import that writes the bytecode cache a user's second run would find.
    Each timing is bracketed by timings of the reference import. Returns the
    allocmap timings and the mean reference timing around each."""

    def import_s(module: str) -> float:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER.format(module)], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(out.stdout)

    import_s("allocmap.cli")
    refs = [import_s(REFERENCE_IMPORT)]
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(import_s("allocmap.cli"))
        refs.append(import_s(REFERENCE_IMPORT))
    return times, [(before + after) / 2.0 for before, after in zip(refs, refs[1:])]


def revision() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        git = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "allocmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git": git, "src_sha256": digest.hexdigest()}


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, has {n})"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(values)[n - 11]!r} s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the workload child instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "allocmap" / "__init__.py").is_file():
        print(f"bench: no allocmap sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    env = pinned_env()
    setup, setup_refs = ([], []) if args.trace else measure_setup(env)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT / f"work-{label}-{os.getpid()}"
    cmd = [
        sys.executable, str(Path(__file__).with_name("workload.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    load_after = os.getloadavg()
    if child.returncode != 0 or not child.stdout.strip():
        print(f"bench: workload exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = REFERENCE_IMPORT_S * statistics.median(
            t / ref for t, ref in zip(setup, setup_refs)
        )
        measured["setup_s.raw"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"] and not missing
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in measured
    }

    walls = [s["wall_s"] for s in result["samples"] if not s["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"child wall {wall:.1f} s")
    print(f"env {json.dumps(result['env'])}")
    print(f"load average before {load_before}  after {load_after}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name in ("run_s.raw", "cpu_s.raw", "setup_s.raw"):
        if name in measured:
            print(f"{name} = {measured[name]!r} s  (median as timed, not at the reference speed)")
    if not args.trace:
        print(f"run_s.tail = {tail(walls)}  (samples: {len(walls)})")
    print(f"failed_frac = {failed / max(attempted, 1)!r}  ({failed}/{attempted})")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for name in missing:
        print(f"problem: metric {name} was not measured")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(), "env": result["env"],
        "load_before": load_before, "load_after": load_after,
        "setup_samples_s": setup, "setup_reference_s": setup_refs, "measured": measured,
        "samples": result["samples"], "problems": result["problems"], "spans": result["spans"],
    }
    with open(OUT / f"BENCH_{label}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
