"""Command line interface.

Exit codes: 0 success, 2 validation error, 3 computation cap exceeded,
4 file-IO or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import dataio
from .core import CapError, ParseError, ValidationError
from .distance import METRICS, check_threads, pairwise_distances
from .embedding import check_smacof, mds_embed
from .features import ALL_FEATURES, _columns, feature_table
from .generators import (
    CHARACTERISTIC_KINDS,
    IID_DISTS,
    MODEL_PARAMS,
    MODELS,
    PRESET_SHAPES,
    GeneratorSpec,
    gen_dataset,
    gen_preset,
)
from .pipeline import PipelineConfig, PipelineError, run_pipeline
from .render import render_svg
from .spectral import explicit_coords

# Each pipeline option is named after its PipelineConfig field and takes its default.
_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}


def _outpath(args, name: str) -> str:
    path = args.output if getattr(args, "output", None) else os.path.join(args.out_dir, name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _cmd_generate(args) -> None:
    if args.preset:
        if args.model or args.n is not None or args.m is not None:
            raise ValidationError("generate takes --preset or --model with --n and --m, not both")
        takes = {}
    else:
        if not args.model or args.n is None or args.m is None:
            raise ValidationError("generate needs --preset or --model with --n and --m")
        takes = {"count": 1, **MODEL_PARAMS[args.model]}
    # --count and the model knobs default to None, so a given flag that the
    # preset or the model does not take is refused instead of dropped.
    knobs = {"count"}.union(*MODEL_PARAMS.values())
    extra = sorted(name for name in knobs - takes.keys() if getattr(args, name) is not None)
    if extra:
        chosen = f"--preset {args.preset}" if args.preset else f"--model {args.model}"
        flags = ", ".join(f"--{name}" for name in extra)
        raise ValidationError(f"generate {chosen} does not take {flags}")
    params = {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in takes.items()
    }
    if args.preset:
        records = gen_preset(args.preset, args.seed)
    else:
        count = params.pop("count")
        records = gen_dataset([GeneratorSpec(args.model, count, params)], args.n, args.m, args.seed)
    dataio.write_dataset(_outpath(args, "dataset.json"), records, seed=args.seed)


def _cmd_ingest(args) -> None:
    sub = tuple(args.subsample) if args.subsample else None
    records = dataio.ingest(args.path, normalize=args.normalize, subsample=sub, seed=args.seed)
    dataio.write_dataset(_outpath(args, "dataset.json"), records, seed=args.seed)


def _cmd_distance(args) -> None:
    records, _ = dataio.read_dataset(args.dataset)
    dm = pairwise_distances(records, args.metric, threads=args.threads, cap=args.valuation_cap)
    dataio.write_distance_csv(_outpath(args, f"distances_{args.metric}.csv"), dm)


def _cmd_embed(args) -> None:
    check_smacof(args.max_iters, args.tol, args.restarts)
    labels, values, _ = dataio.read_distance_csv(args.distances)
    emb = mds_embed(
        values, args.seed, max_iters=args.max_iters, tol=args.tol, restarts=args.restarts
    )
    dataio.write_embedding_csv(_outpath(args, "embedding.csv"), labels, emb)


def _cmd_explicit(args) -> None:
    records, _ = dataio.read_dataset(args.dataset)
    coords = explicit_coords(records)
    dataio.write_explicit_csv(
        _outpath(args, "explicit.csv"), [r.label for r in records], coords
    )


def _cmd_features(args) -> None:
    columns = _columns(args.features)
    records, _ = dataio.read_dataset(args.dataset)
    table = feature_table(records, columns, cap=args.alloc_cap, quad_cap=args.quad_cap)
    dataio.write_features_csv(_outpath(args, "features.csv"), table, args.reasons)


def _cmd_render(args) -> None:
    labels, pts, _, header = dataio.read_points_csv(args.points)
    render_svg(
        _outpath(args, "map.svg"),
        labels,
        pts,
        explicit=header[1:] == ["sigma1", "sigma2"],
        records=dataio.read_dataset(args.dataset)[0] if args.dataset else None,
        by_source=args.by_source,
        features=dataio.read_features_csv(args.features_csv) if args.features_csv else None,
        color=args.color,
        title=args.title,
    )


def _cmd_pipeline(args) -> None:
    config = PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)})
    outputs = run_pipeline(config)
    for stage in outputs:
        for path in outputs[stage]:
            print(path)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="allocmap",
        description="Generate, compare, map, and annotate fair-division instances.",
    )
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="root RNG seed")
    p.add_argument("--threads", type=int, default=_DEFAULTS["threads"], help="worker processes for pair grids")
    p.add_argument("--out-dir", default=".", help="directory for default output paths")
    sub = p.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, declared once each.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=PRESET_SHAPES)
    distances = argparse.ArgumentParser(add_help=False)
    distances.add_argument("--metric", choices=METRICS, default=_DEFAULTS["metric"])
    distances.add_argument(
        "--cap", dest="valuation_cap", metavar="CAP", type=int, default=_DEFAULTS["valuation_cap"],
        help="max n for exact valuation search",
    )
    smacof = argparse.ArgumentParser(add_help=False)
    smacof.add_argument("--max-iters", type=int, default=_DEFAULTS["max_iters"])
    smacof.add_argument("--tol", type=float, default=_DEFAULTS["tol"])
    smacof.add_argument("--restarts", type=int, default=_DEFAULTS["restarts"], help="best-of-R seeded restarts")
    features = argparse.ArgumentParser(add_help=False)
    # an empty list is kept empty, for features._columns to refuse
    features.add_argument(
        "--features", type=lambda s: s.split(",") if s else [], help=f"comma list from: {','.join(ALL_FEATURES)}"
    )
    features.add_argument("--alloc-cap", type=int, default=_DEFAULTS["alloc_cap"], help="max n^m for exhaustive features")
    features.add_argument("--quad-cap", type=int, default=_DEFAULTS["quad_cap"], help="max n^m for the EF+PO check")

    g = sub.add_parser("generate", parents=[preset, output], help="write a dataset from a preset or one generator")
    g.add_argument("--model", choices=(*MODELS, "characteristic"))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--count", type=int)
    g.add_argument("--dist", choices=IID_DISTS)
    g.add_argument("--d", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--phi", type=float)
    g.add_argument("--kind", choices=CHARACTERISTIC_KINDS)
    g.set_defaults(func=_cmd_generate)

    i = sub.add_parser("ingest", parents=[output], help="read an instance file or dataset, write a dataset")
    i.add_argument("path")
    i.add_argument("--normalize", action="store_true", help="divide rows by their sums")
    i.add_argument(
        "--subsample",
        nargs=3,
        type=int,
        metavar=("N", "M", "K"),
        help="draw K instances of N agents x M goods from a wide table",
    )
    i.set_defaults(func=_cmd_ingest)

    d = sub.add_parser("distance", parents=[distances, output], help="all-pairs distance matrix for a dataset")
    d.add_argument("dataset")
    d.set_defaults(func=_cmd_distance)

    e = sub.add_parser("embed", parents=[smacof, output], help="SMACOF 2-D embedding of a distance CSV")
    e.add_argument("distances")
    e.set_defaults(func=_cmd_embed)

    x = sub.add_parser("explicit", parents=[output], help="singular-value coordinates for a dataset")
    x.add_argument("dataset")
    x.set_defaults(func=_cmd_explicit)

    f = sub.add_parser("features", parents=[features, output], help="fairness features for a dataset")
    f.add_argument("dataset")
    f.add_argument("--reasons", help="sidecar CSV for absent cells")
    f.set_defaults(func=_cmd_features)

    r = sub.add_parser("render", parents=[output], help="SVG scatter of an embedding or explicit map")
    r.add_argument("points", help="embedding.csv or explicit.csv")
    r.add_argument("--dataset", help="dataset JSON for sources and boundary curves")
    r.add_argument("--features-csv", help="features CSV for coloring and markers")
    r.add_argument("--color", help="feature column used for the color ramp")
    r.add_argument("--by-source", action="store_true", help="discrete colors per generator")
    r.add_argument("--title")
    r.set_defaults(func=_cmd_render)

    pl = sub.add_parser(
        "pipeline",
        parents=[preset, distances, smacof, features],
        help="dataset -> distances -> maps -> features -> SVGs",
    )
    pl.add_argument(
        "--dataset", dest="dataset_path", metavar="DATASET", help="existing dataset or instance file instead of a preset"
    )
    pl.add_argument(
        "--color", dest="color_feature", metavar="COLOR", default=_DEFAULTS["color_feature"],
        help="feature for the colored renders",
    )
    pl.set_defaults(func=_cmd_pipeline)
    return p


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, PipelineError):
        return _exit_code(exc.cause)
    if isinstance(exc, CapError):
        return 3
    if isinstance(exc, (ParseError, OSError)):
        return 4
    if isinstance(exc, (ValidationError, ValueError)):
        return 2
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refused before any command reads a file, whether it uses workers or not
        check_threads(args.threads)
        args.func(args)
    except (PipelineError, CapError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
