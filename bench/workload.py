"""Run one benchmark workload in this process and print its result as JSON.

run.py starts this file in a child process with BLAS threads pinned to one;
the last line of its standard output is the result. Run it directly only
for debugging:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/workload.py \
        --workload pipeline-10x20 --seed 7 --seconds 10 --trace 0 --work .bench_out/w
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from allocmap import cli, dataio, pipeline  # noqa: E402
from allocmap.distance import demand_distance, pairwise_distances, valuation_distance  # noqa: E402
from allocmap.features import ALLOCATION_FEATURES, MATRIX_FEATURES, feature_table  # noqa: E402
from allocmap.generators import PRESET_SHAPES, gen_preset  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Tracer, layer_spans, replaced, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, dataset_seed  # noqa: E402

# Counts a traced run must repeat exactly (stress by its bit pattern).
COUNT_KEYS = (
    "distance.pairs",
    "embedding.iterations",
    "embedding.stress",
    "features.owner_vectors",
    "features.capped_cells",
    "dataio.bytes_written",
    "render.bytes",
)
SELF_TIME_TOL = 1e-9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children (the
    pool workers, which the pool joins before pairwise_distances returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _file_bytes(*positions):
    def count(args, kwargs, result):
        return {"bytes": sum(os.path.getsize(args[i]) for i in positions if i < len(args))}

    return count


def _pairs(args, kwargs, dm):
    k = len(dm.labels)
    return {"pairs": k * (k - 1) // 2}


def _instances(args, kwargs, coords):
    return {"instances": len(args[0])}


def _feature_counts(args, kwargs, table):
    capped = {label for label, _, _ in table.reasons}
    vectors = sum(r.matrix.n**r.matrix.m for r in args[0] if r.label not in capped)
    return {"owner_vectors": vectors, "capped_cells": len(table.reasons)}


@dataclass
class Dataset:
    index: int
    seed: int
    path: Path
    records: list
    demand: np.ndarray | None = None  # valuation workload: for valuation >= demand
    digests: dict | None = None  # artifacts of the first call on this dataset
    problems: list | None = None  # gate findings on those artifacts


class Runner:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.n, self.m = PRESET_SHAPES[self.wl.preset]
        self.pipeline = self.wl.kind == "pipeline"
        self.workers = 1 if self.pipeline else min(2, nproc())
        self.tracer = Tracer()
        self.calls = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = gate.reference_digests(name) if seed == DEFAULT_SEED else None

    # ---------------------------------------------------------------- set-up

    def make_dataset(self, index: int) -> Dataset:
        ds_seed = dataset_seed(self.seed, index)
        self.tracer.run_id = "setup"
        gen = self.tracer.wrap(
            "generators.gen_preset", gen_preset, lambda a, k, r: {"records": len(r)}
        )
        records = gen(self.wl.preset, ds_seed)
        path = self.work / f"dataset-{index}.json"
        dataio.write_dataset(path, records, seed=ds_seed)
        ds = Dataset(index, ds_seed, path, records)
        if not self.pipeline:
            ds.demand = pairwise_distances(records, "demand").values
        return ds

    # ------------------------------------------------------------ timed call

    def _replacements(self, sink: list, traced: bool) -> list:
        """Names swapped for one call: a pass-through that keeps the SMACOF
        result for the gate, or, when traced, span wrappers at every call
        from the pipeline or CLI into another module."""

        def embedded(args, kwargs, emb):
            sink.append(emb)
            return {"iterations": emb.iterations, "stress": emb.stress}

        if not traced:
            if not self.pipeline:
                return []
            embed = pipeline.mds_embed

            def keep(*args, **kwargs):
                emb = embed(*args, **kwargs)
                sink.append(emb)
                return emb

            return [(pipeline, "mds_embed", keep)]
        targets = [
            (dataio, "read_dataset", None),
            (dataio, "write_distance_csv", _file_bytes(0)),
        ]
        if self.pipeline:
            targets += [
                (dataio, "ingest", None),
                (dataio, "write_dataset", _file_bytes(0)),
                (dataio, "write_embedding_csv", _file_bytes(0)),
                (dataio, "write_explicit_csv", _file_bytes(0)),
                (dataio, "write_features_csv", _file_bytes(0, 2)),
                (pipeline, "pairwise_distances", _pairs),
                (pipeline, "mds_embed", embedded),
                (pipeline, "explicit_coords", _instances),
                (pipeline, "feature_table", _feature_counts),
                (pipeline, "render_svg", _file_bytes(0)),
            ]
        else:
            targets.append((cli, "pairwise_distances", _pairs))
        out = []
        for owner, attr, count in targets:
            fn = getattr(owner, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            out.append((owner, attr, self.tracer.wrap(f"{layer}.{attr}", fn, count)))
        return out

    def _invoke(self, ds: Dataset, out: Path) -> None:
        if self.pipeline:
            pipeline.run_pipeline(
                pipeline.PipelineConfig(
                    out_dir=str(out), dataset_path=str(ds.path), seed=ds.seed,
                    metric="demand", threads=1,
                )
            )
            return
        out.mkdir()
        argv = ["--threads", str(self.workers), "distance", str(ds.path),
                "--metric", "valuation", "-o", str(out / "distances_valuation.csv")]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"allocmap distance exited with code {code}")

    def call(self, ds: Dataset, traced: bool = False) -> dict | None:
        """One timed call on ``ds``, gated. Returns the sample, or None if the
        call raised or its artifacts failed the gate."""
        self.calls += 1
        run_id = f"call-{self.calls}"
        out = self.work / run_id
        sink: list = []
        self.tracer.run_id = run_id
        root = "pipeline.run_pipeline" if self.pipeline else "cli.main"
        try:
            with replaced(self._replacements(sink, traced)):
                cpu0 = cpu_seconds()
                t0 = time.perf_counter()
                if traced:
                    with self.tracer.span(root):
                        self._invoke(ds, out)
                else:
                    self._invoke(ds, out)
                wall = time.perf_counter() - t0
                cpu = cpu_seconds() - cpu0
            problems = self.gate(ds, out, sink)
        except Exception as exc:  # a failed call is counted, not fatal
            problems = [f"{run_id}: {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"dataset {ds.index}, {run_id}: {p}" for p in problems)
            return None
        return {"dataset": ds.index, "run_id": run_id, "traced": traced, "wall_s": wall, "cpu_s": cpu}

    # ------------------------------------------------------------------ gate

    def gate(self, ds: Dataset, out: Path, sink: list) -> list[str]:
        digests = gate.digest_dir(out)
        if ds.digests is not None:
            return ds.problems + gate.compare_digests(digests, ds.digests, "artifacts vs first run")
        ds.digests = digests
        ds.problems = self.invariants(ds, out, sink)
        if self.reference is not None:
            want = self.reference[ds.index] if ds.index < len(self.reference) else {}
            ds.problems += gate.compare_digests(digests, want, "artifacts vs reference digests")
        return ds.problems

    def invariants(self, ds: Dataset, out: Path, sink: list) -> list[str]:
        try:
            name = "distances_demand.csv" if self.pipeline else "distances_valuation.csv"
            _, values = gate.read_distance_csv(out / name)
            problems = gate.check_distances(values, self.n, self.m)
            if not self.pipeline:
                return problems + gate.check_dominates(values, ds.demand)
            if len(sink) != 1:
                return problems + [f"expected one SMACOF result, captured {len(sink)}"]
            problems += gate.check_stress_trace(sink[0].stress_trace)
            return problems + gate.check_explicit(out / "explicit.csv", ds.records)
        except (OSError, ValueError) as exc:
            return [f"unreadable artifact: {exc}"]

    # ------------------------------------------------------------ the runs

    def run_untraced(self, seconds: float) -> dict:
        """Every dataset once, then dataset 0 again, so each run checks that a
        repeat reproduces the artifacts; then round the datasets again while
        another call fits in ``seconds``."""
        datasets = [self.make_dataset(i) for i in range(self.wl.datasets)]
        bracket = hostspeed.Bracket(self.workers)
        samples = []
        t0 = time.perf_counter()
        calls = 0
        while True:
            c0 = time.perf_counter()
            sample = self.call(datasets[calls % len(datasets)])
            unit_wall, unit_cpu = bracket.after(time.perf_counter() - c0)
            if sample is not None:
                samples.append(dict(sample, unit_wall_s=unit_wall, unit_cpu_s=unit_cpu))
            calls += 1
            elapsed = time.perf_counter() - t0
            if calls > len(datasets) and elapsed * (calls + 1) / calls > seconds:
                break
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if samples:
            # Medians over all calls, robust both to a slow dataset and to a
            # burst of host noise; each call is taken at the reference speed
            # first, which the median alone cannot do for a slow minute.
            walls = [s["wall_s"] for s in samples]
            cpus = [s["cpu_s"] for s in samples]
            metrics["run_s"] = hostspeed.at_reference_speed(walls, [s["unit_wall_s"] for s in samples])
            metrics["cpu_s"] = hostspeed.at_reference_speed(cpus, [s["unit_cpu_s"] for s in samples])
            metrics["run_s.raw"] = statistics.median(walls)
            metrics["cpu_s.raw"] = statistics.median(cpus)
        return {"metrics": metrics, "samples": samples}

    def run_traced(self, seconds: float) -> dict:
        """Alternate untraced and traced calls on dataset 0, then the
        per-layer passes the pipeline call does not expose."""
        ds = self.make_dataset(0)
        setup = [s for _, s in self.tracer.run("setup")]
        untraced, traced = [], []
        t0 = time.perf_counter()
        pairs = 0
        while True:
            # Alternate which call of a pair runs first, so the warm-up of the
            # first call and any drift fall on both sides equally.
            order = ((untraced, False), (traced, True))
            for bucket, flag in order if pairs % 2 == 0 else order[::-1]:
                sample = self.call(ds, traced=flag)
                if sample is not None:
                    bucket.append(sample)
            pairs += 1
            elapsed = time.perf_counter() - t0
            if pairs >= 2 and elapsed * (pairs + 1) / pairs > seconds:
                break
        if not untraced or not traced:
            return {"metrics": {}, "samples": untraced + traced, "spans": self.tracer.spans}
        runs = [self.layer_metrics(s["run_id"]) for s in traced]
        counts = [{k: r[k] for k in COUNT_KEYS} for r in runs]
        for sample, r, c in zip(traced, runs, counts):
            problems = []
            if c != counts[0]:
                problems.append(f"traced counts differ between repeats: {counts[0]} vs {c}")
            if abs(r.pop("_self_sum") - r["_total"]) > SELF_TIME_TOL:
                problems.append("span self times do not add up to the traced total")
            if problems:
                self.failed += 1
                self.problems.extend(f"{sample['run_id']}: {p}" for p in problems)
        metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        metrics.update({k: counts[0][k] for k in COUNT_KEYS})
        total = metrics.pop("_total")
        metrics["trace.overhead_s"] = total - statistics.median(s["wall_s"] for s in untraced)
        metrics["generators.gen_preset_s"] = sum(s.duration for s in setup)
        metrics["generators.records"] = sum(s.counts["records"] for s in setup)
        metrics.update(self.pair_pass(ds.records, metrics["distance.matrix_s"]))
        metrics.update(self.feature_pass(ds.records))
        return {"metrics": metrics, "samples": untraced + traced, "spans": self.tracer.spans}

    def layer_metrics(self, run_id: str) -> dict:
        spans = self.tracer.run(run_id)
        root_idx, root = spans[0]
        selfs = self_times(spans)

        def seconds(layer, *prefixes):
            return sum((s.duration for s in layer_spans(spans, layer) if s.name.startswith(prefixes)), 0.0)

        def count(layer, key):
            return sum(s.counts.get(key, 0) for s in layer_spans(spans, layer))

        m = {
            "dataio.read_s": seconds("dataio", "dataio.read", "dataio.ingest"),
            "dataio.write_s": seconds("dataio", "dataio.write"),
            "dataio.bytes_written": count("dataio", "bytes"),
            "distance.matrix_s": seconds("distance", ""),
            "distance.pairs": count("distance", "pairs"),
            "embedding.smacof_s": seconds("embedding", ""),
            "embedding.iterations": count("embedding", "iterations"),
            "embedding.stress": count("embedding", "stress"),
            "spectral.explicit_s": seconds("spectral", ""),
            "features.table_s": seconds("features", ""),
            "features.owner_vectors": count("features", "owner_vectors"),
            "features.capped_cells": count("features", "capped_cells"),
            "render.svg_s": seconds("render", ""),
            "render.bytes": count("render", "bytes"),
            "pipeline.glue_s": selfs[root_idx],
            "_total": root.duration,
            "_self_sum": sum(selfs.values()),
        }
        instances = count("spectral", "instances")
        m["distance.pair_us"] = 1e6 * m["distance.matrix_s"] / m["distance.pairs"]
        m["embedding.iter_us"] = (
            1e6 * m["embedding.smacof_s"] / m["embedding.iterations"] if m["embedding.iterations"] else 0.0
        )
        m["spectral.instance_us"] = 1e6 * m["spectral.explicit_s"] / instances if instances else 0.0
        m["features.vector_ns"] = (
            1e9 * m["features.table_s"] / m["features.owner_vectors"] if m["features.owner_vectors"] else 0.0
        )
        return m

    def pair_pass(self, records, matrix_s: float) -> dict:
        """Serial pass timing each distance call of the workload's metric."""
        fn = demand_distance if self.pipeline else valuation_distance
        mats = [r.matrix for r in records]
        times = []
        self.tracer.run_id = "pair-pass"
        with self.tracer.span("distance.pair_pass") as sp:
            for i in range(len(mats) - 1):
                for j in range(i + 1, len(mats)):
                    t0 = time.perf_counter()
                    fn(mats[i], mats[j])
                    times.append(time.perf_counter() - t0)
        sp.counts["pairs"] = len(times)
        return {
            "distance.pair_us.p50": 1e6 * statistics.median(times),
            "distance.pair_us.max": 1e6 * max(times),
            "distance.parallel_eff": sum(times) / (self.workers * matrix_s),
        }

    def feature_pass(self, records) -> dict:
        """One feature_table call per allocation feature, and one for the
        matrix features; zero on a workload that computes no features."""
        names = [(f"features.{n}_s", [n]) for n in ALLOCATION_FEATURES]
        names.append(("features.matrix_s", list(MATRIX_FEATURES)))
        if not self.pipeline:
            return {metric: 0.0 for metric, _ in names}
        self.tracer.run_id = "feature-pass"
        out = {}
        for metric, columns in names:
            with self.tracer.span(metric[:-2]) as sp:
                feature_table(records, columns)
            out[metric] = sp.duration
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", type=Path, required=True, help="scratch directory, removed at exit")
    args = p.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.work)
    try:
        if args.trace:
            result = runner.run_traced(args.seconds)
        else:
            result = runner.run_untraced(args.seconds)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    result.update(
        attempted=runner.calls,
        failed=runner.failed,
        problems=runner.problems,
        env=environment(),
        spans=[asdict(s) for s in result.get("spans", [])],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
