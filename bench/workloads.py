"""The benchmark's workloads: which preset, which call, how many datasets.

Kept free of allocmap imports, so run.py can validate its arguments without
paying the library's import cost before it measures that cost.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    preset: str
    # "pipeline": run_pipeline on the dataset file with the demand metric.
    # "valuation": the step `allocmap --threads 2 distance --metric valuation` runs.
    kind: str
    # Datasets drawn per run. Call times differ by up to 2.5x between
    # datasets of one preset (SMACOF iteration counts vary most), so a run
    # spans several and reports the median call; the more distinct datasets,
    # the less that median depends on the seed. A run makes one call on each,
    # plus a repeat of the first, even past --seconds; the counts are sized
    # so that those calls take about 45 s on a 2-core machine.
    datasets: int


WORKLOADS = {
    "pipeline-5x5": Workload("5x5", "pipeline", 7),
    # Not in BENCHMARK.json: three workloads leave about 30 s per run, too
    # short for a steady run_s on a noisy 2-core host. Run it by hand.
    "pipeline-10x20": Workload("10x20", "pipeline", 7),
    "valuation-3x6": Workload("3x6", "valuation", 9),
}


def dataset_seed(seed: int, index: int) -> int:
    """Generator seed of dataset ``index`` of a run; dataset 0 uses the run seed."""
    return seed + 1000 * index
