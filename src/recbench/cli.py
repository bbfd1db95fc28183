"""Command-line entry point: run, compare, gen-fixture.

Runs are driven by a JSON manifest; individual flags override manifest keys.

Exit codes: 0 success, 2 manifest error, 3 dataset error, 4 training error,
5 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from . import synthetic
from .baselines import DefaultPredictor, RandomPredictor
from .dataset import DatasetError, build_segment_model, load_dataset, split, user_ratings_index
from .knn import KnnPredictor, build_similarity_matrix
from .mf import MFPredictor, TrainingError, train_mf
from .protocol import EvaluationError, ProtocolConfig, evaluate
from .reporting import IncompatibleReports, load_report, render_compare, render_summary, write_report

EXIT_OK = 0
EXIT_MANIFEST = 2
EXIT_DATASET = 3
EXIT_TRAINING = 4
EXIT_EVALUATION = 5

OUTPUT_DIR_ENV = "RECBENCH_OUTPUT_DIR"

MODEL_NAMES = ("knn", "mf", "default", "random")


# Model keys read as numbers by build_model.
MODEL_NUMBER_KEYS = (
    "K",
    "gamma",
    "F",
    "seed",
    "budget_seconds",
    "validation_fraction",
    "learning_rate",
    "regularization",
)


class ManifestError(Exception):
    pass


def _require(manifest: dict, key: str):
    if key not in manifest:
        raise ManifestError(f"manifest missing required key {key!r}")
    return manifest[key]


def _section(manifest: dict, key: str, required: bool = False) -> dict:
    value = _require(manifest, key) if required else manifest.setdefault(key, {})
    if not isinstance(value, dict):
        raise ManifestError(f"{key} must be a JSON object")
    return value


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def load_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    dataset = _section(manifest, "dataset", required=True)
    if not isinstance(_require(dataset, "path"), str):
        raise ManifestError("dataset.path must be a string")
    dataset.setdefault("format", "csv")
    if not Path(dataset["path"]).exists():
        raise ManifestError(f"dataset path does not exist: {dataset['path']}")
    model = _section(manifest, "model", required=True)
    name = _require(model, "name")
    if name not in MODEL_NAMES:
        raise ManifestError(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
    for key in sorted(model.keys() - {"name"}):
        if key not in MODEL_NUMBER_KEYS:
            raise ManifestError(f"unknown model key {key!r}")
        if not _is_number(model[key]):
            raise ManifestError(f"model.{key} must be a number")
    split_cfg = _section(manifest, "split")
    split_cfg.setdefault("ratio", 0.9)
    split_cfg.setdefault("seed", 42)
    if not (_is_number(split_cfg["ratio"]) and 0.0 < split_cfg["ratio"] < 1.0):
        raise ManifestError("split.ratio must be a number in (0,1)")
    if not _is_int(split_cfg["seed"], 0):
        raise ManifestError("split.seed must be an integer >= 0")
    scale = manifest.setdefault("rating_scale", [1.0, 5.0])
    if not (
        isinstance(scale, list)
        and len(scale) == 2
        and all(_is_number(v) for v in scale)
        and scale[0] < scale[1]
    ):
        raise ManifestError("rating_scale must be two numbers [r_min, r_max] with r_min < r_max")
    protocol = _section(manifest, "protocol")
    protocol.setdefault("top_n", 10)
    protocol.setdefault("explore_k", 100)
    protocol.setdefault("exclude_seen", True)
    for key in ("top_n", "explore_k"):
        if not _is_int(protocol[key], 1):
            raise ManifestError(f"protocol.{key} must be an integer >= 1")
    if not isinstance(protocol["exclude_seen"], bool):
        raise ManifestError("protocol.exclude_seen must be true or false")
    return manifest


def build_model(name: str, manifest: dict, data, segments, r_min: float, r_max: float):
    model_cfg = manifest["model"]
    if name == "default":
        return DefaultPredictor(segments, r_min, r_max)
    if name == "random":
        return RandomPredictor(int(model_cfg.get("seed", manifest["split"]["seed"])), r_min, r_max)
    if name == "knn":
        k = int(model_cfg.get("K", 100))
        gamma = int(model_cfg.get("gamma", 50))
        matrix = build_similarity_matrix(data.train, k, gamma)
        return KnnPredictor(
            matrix, segments, user_ratings_index(data.train), r_min, r_max, gamma=gamma
        )
    if name == "mf":
        model = train_mf(
            data.train,
            n_factors=int(model_cfg.get("F", 16)),
            seed=int(model_cfg.get("seed", manifest["split"]["seed"])),
            budget_seconds=float(model_cfg.get("budget_seconds", 90 * 60)),
            validation_fraction=float(model_cfg.get("validation_fraction", 0.015)),
            learning_rate=float(model_cfg.get("learning_rate", 0.030)),
            regularization=float(model_cfg.get("regularization", 0.008)),
        )
        return MFPredictor(model, segments, r_min, r_max)
    raise ManifestError(f"unknown model {name!r}")


def cmd_run(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
        if args.seed is not None:
            manifest["split"]["seed"] = args.seed
            manifest["model"]["seed"] = args.seed
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST

    outdir = args.output or manifest.get("output_dir") or os.environ.get(
        OUTPUT_DIR_ENV, "recbench-out"
    )
    r_min, r_max = manifest["rating_scale"]

    stage_timings: dict[str, float] = {}
    try:
        t0 = time.monotonic()
        loaded = load_dataset(
            manifest["dataset"]["path"], manifest["dataset"]["format"], r_min, r_max
        )
        stage_timings["load"] = time.monotonic() - t0
        if loaded.dropped_duplicates:
            print(f"dropped {loaded.dropped_duplicates} duplicate logs", file=sys.stderr)
        t0 = time.monotonic()
        data = split(loaded.logs, manifest["split"]["ratio"], manifest["split"]["seed"])
        stage_timings["split"] = time.monotonic() - t0
        t0 = time.monotonic()
        segments = build_segment_model(data.train)
        stage_timings["segments"] = time.monotonic() - t0
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET

    try:
        t0 = time.monotonic()
        model = build_model(manifest["model"]["name"], manifest, data, segments, r_min, r_max)
        stage_timings["fit"] = time.monotonic() - t0
    except (TrainingError, ValueError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING

    config = ProtocolConfig(
        top_n=manifest["protocol"]["top_n"],
        explore_k=manifest["protocol"]["explore_k"],
        exclude_seen=manifest["protocol"]["exclude_seen"],
        r_min=r_min,
        r_max=r_max,
    )
    try:
        report = evaluate(model, data, segments, config)
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION

    run_info = {
        "stage_timings": stage_timings,
        "peak_rss_mb": _peak_rss_mb(),
        "dropped_duplicates": loaded.dropped_duplicates,
    }
    write_report(report, outdir, run_info)
    print(render_summary(report), end="")
    print(f"reports written to {outdir}")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes there, KiB here


def cmd_compare(args) -> int:
    try:
        payloads = [load_report(p) for p in args.reports]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load report: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    try:
        print(render_compare(payloads), end="")
    except IncompatibleReports as exc:
        print(f"incompatible reports: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    seed = args.seed if args.seed is not None else 7
    if args.kind == "uniform":
        logs = synthetic.gen_uniform(args.users, args.items, args.density, seed)
    elif args.kind == "rank1":
        logs = synthetic.gen_planted_rank1(args.users, args.items, args.density, seed)
    elif args.kind == "clustered":
        logs = synthetic.gen_clustered(
            args.users, args.items, args.groups, args.density, seed
        )
    else:
        print(f"unknown fixture kind {args.kind!r}", file=sys.stderr)
        return EXIT_MANIFEST
    synthetic.write_csv(logs, args.output)
    print(f"wrote {len(logs)} logs to {args.output}")
    return EXIT_OK


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recbench",
        description="Offline evaluation workbench for recommender systems.",
    )
    parser.add_argument("--seed", type=_seed, default=None, help="override all seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full evaluation protocol")
    run.add_argument("manifest", help="path to a JSON run manifest")
    run.add_argument("-o", "--output", default=None, help="output directory")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="side-by-side report comparison")
    compare.add_argument("reports", nargs="+", help="report.json files")
    compare.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen-fixture", help="generate a synthetic dataset CSV")
    gen.add_argument("kind", choices=["uniform", "rank1", "clustered"])
    gen.add_argument("output")
    gen.add_argument("--users", type=int, default=200)
    gen.add_argument("--items", type=int, default=100)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--groups", type=int, default=4)
    gen.set_defaults(func=cmd_gen_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
