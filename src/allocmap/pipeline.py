"""End-to-end batch run: dataset -> distances -> maps -> features -> SVGs.

Every artifact is a pure function of the config (seeds included), so a rerun
with the same config reproduces every output byte. A failing stage removes
whatever this run already wrote and surfaces the stage name; an interrupt
removes it too and passes through unwrapped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import dataio
from .core import ValidationError
from .distance import EXACT_SEARCH_CAP, check_threads, pairwise_distances
from .embedding import SMACOF_MAX_ITERS, SMACOF_TOL, check_smacof, mds_embed
from .features import ALLOC_CAP, EFPO_QUAD_CAP, _columns, feature_table
from .generators import gen_preset
from .render import render_svg
from .spectral import explicit_coords


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")


@dataclass
class PipelineConfig:
    out_dir: str
    preset: str | None = None
    dataset_path: str | None = None
    seed: int = 0
    metric: str = "demand"
    threads: int = 1
    max_iters: int = SMACOF_MAX_ITERS
    tol: float = SMACOF_TOL
    restarts: int = 1
    features: list[str] | None = None
    color_feature: str = "max_demand"
    valuation_cap: int = EXACT_SEARCH_CAP
    alloc_cap: int = ALLOC_CAP
    quad_cap: int = EFPO_QUAD_CAP


def run_pipeline(config: PipelineConfig) -> dict[str, list[str]]:
    if (config.preset is None) == (config.dataset_path is None):
        raise ValueError("exactly one of preset or dataset_path must be set")
    columns = _columns(config.features)
    if config.color_feature not in columns:
        raise ValidationError(
            f"color feature {config.color_feature!r} is not among the features "
            f"{','.join(columns)}"
        )
    check_threads(config.threads)
    check_smacof(config.max_iters, config.tol, config.restarts)
    os.makedirs(config.out_dir, exist_ok=True)
    outputs: dict[str, list[str]] = {}

    def out(name: str, stage: str) -> str:
        path = os.path.join(config.out_dir, name)
        outputs.setdefault(stage, []).append(path)
        return path

    stage = "dataset"
    try:
        if config.preset is not None:
            records = gen_preset(config.preset, config.seed)
        else:
            records = dataio.ingest(config.dataset_path)
        # an empty dataset is left to pairwise_distances, which names it
        if len(records) == 1:
            raise ValidationError("need at least 2 instances to map, got 1")
        dataio.write_dataset(out("dataset.json", stage), records, seed=config.seed)

        stage = "distances"
        dm = pairwise_distances(
            records, config.metric, threads=config.threads, cap=config.valuation_cap
        )
        dataio.write_distance_csv(out(f"distances_{config.metric}.csv", stage), dm)

        stage = "embedding"
        emb = mds_embed(
            dm.values,
            config.seed,
            max_iters=config.max_iters,
            tol=config.tol,
            restarts=config.restarts,
        )
        dataio.write_embedding_csv(out("embedding.csv", stage), dm.labels, emb)

        stage = "explicit"
        coords = explicit_coords(records)
        dataio.write_explicit_csv(out("explicit.csv", stage), dm.labels, coords)

        stage = "features"
        table = feature_table(
            records, config.features, cap=config.alloc_cap, quad_cap=config.quad_cap
        )
        dataio.write_features_csv(
            out("features.csv", stage), table, out("features_reasons.csv", stage)
        )

        stage = "render"
        feat = config.color_feature
        for kind, points, title in (
            ("embedding", emb.points, f"{config.metric} distance map"),
            ("explicit", coords, "singular-value map"),
        ):
            for by_source in (True, False):
                name = f"map_{kind}_{'source' if by_source else feat}.svg"
                render_svg(
                    out(name, stage),
                    dm.labels,
                    points,
                    explicit=kind == "explicit",
                    records=records,
                    by_source=by_source,
                    features=table,
                    color=None if by_source else feat,
                    title=title,
                )
    except BaseException as exc:
        for paths in outputs.values():
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if not isinstance(exc, Exception):
            raise
        raise PipelineError(stage, exc) from exc
    return outputs
