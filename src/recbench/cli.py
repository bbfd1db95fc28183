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
from .dataset import DatasetError, build_segment_model, load_dataset, split
from .knn import KnnPredictor, build_similarity_matrix
from .mf import MFPredictor, TrainingError, train_mf
from .protocol import EvaluationError, ProtocolConfig, evaluate, is_int, is_number
from .reporting import (
    IncompatibleReports,
    load_report,
    render_compare,
    render_summary,
    write_report,
)

EXIT_OK = 0
EXIT_MANIFEST = 2
EXIT_DATASET = 3
EXIT_TRAINING = 4
EXIT_EVALUATION = 5

OUTPUT_DIR_ENV = "RECBENCH_OUTPUT_DIR"

MODEL_NAMES = ("knn", "mf", "default", "random")


# Model keys read as integers by build_model; the fit checks the ranges of
# all but seed, which must be >= 0 as split.seed is.
MODEL_INT_KEYS = ("K", "gamma", "F", "seed")
# Model keys read as numbers by build_model, each the name of a train_mf parameter.
MODEL_NUMBER_KEYS = ("budget_seconds", "validation_fraction", "learning_rate", "regularization")


class ManifestError(Exception):
    pass


def _require(manifest: dict, key: str):
    if key not in manifest:
        raise ManifestError(f"manifest missing required key {key!r}")
    return manifest[key]


def _section(manifest: dict, key: str, known: tuple[str, ...], required: bool = False) -> dict:
    value = _require(manifest, key) if required else manifest.setdefault(key, {})
    if not isinstance(value, dict):
        raise ManifestError(f"{key} must be a JSON object")
    return _known(value, known, key)


def _known(section: dict, known: tuple[str, ...], name: str) -> dict:
    """``section``, which must hold no key outside ``known``."""
    unknown = sorted(section.keys() - set(known))
    if unknown:
        raise ManifestError(f"unknown {name} key {unknown[0]!r}")
    return section


def load_manifest(path: str | Path) -> tuple[dict, ProtocolConfig]:
    """The checked manifest, and the protocol settings it holds."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    sections = ("dataset", "model", "split", "rating_scale", "protocol", "output_dir")
    _known(manifest, sections, "manifest")
    if not isinstance(manifest.get("output_dir", ""), str):
        raise ManifestError("output_dir must be a string")
    dataset = _section(manifest, "dataset", ("path", "format"), required=True)
    if not isinstance(_require(dataset, "path"), str):
        raise ManifestError("dataset.path must be a string")
    if dataset.setdefault("format", "csv") not in ("csv", "netflix"):
        raise ManifestError(f"dataset.format must be csv or netflix, not {dataset['format']!r}")
    if not Path(dataset["path"]).exists():
        raise ManifestError(f"dataset path does not exist: {dataset['path']}")
    model_keys = ("name", *MODEL_INT_KEYS, *MODEL_NUMBER_KEYS)
    model = _section(manifest, "model", model_keys, required=True)
    name = _require(model, "name")
    if name not in MODEL_NAMES:
        raise ManifestError(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
    for key in sorted(model.keys() - {"name"}):
        if key == "seed":
            if not is_int(model[key], 0):
                raise ManifestError("model.seed must be an integer >= 0")
        elif key in MODEL_INT_KEYS:
            if not is_int(model[key], -math.inf):
                raise ManifestError(f"model.{key} must be an integer")
        elif not is_number(model[key]):
            raise ManifestError(f"model.{key} must be a number")
    split_cfg = _section(manifest, "split", ("ratio", "seed"))
    split_cfg.setdefault("ratio", 0.9)
    split_cfg.setdefault("seed", 42)
    if not (is_number(split_cfg["ratio"]) and 0.0 < split_cfg["ratio"] < 1.0):
        raise ManifestError("split.ratio must be a number in (0,1)")
    if not is_int(split_cfg["seed"], 0):
        raise ManifestError("split.seed must be an integer >= 0")
    scale = manifest.get("rating_scale", [1.0, 5.0])
    if not (isinstance(scale, list) and len(scale) == 2):
        raise ManifestError("rating_scale must be two numbers [r_min, r_max]")
    protocol = _section(manifest, "protocol", ("top_n", "explore_k", "exclude_seen"))
    try:
        config = ProtocolConfig(**protocol, r_min=scale[0], r_max=scale[1])
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return manifest, config


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
        return KnnPredictor(matrix, segments, data.train, r_min, r_max, gamma=gamma)
    if name == "mf":
        # the manifest's keys only, so train_mf's defaults are the only ones
        settings = {key: float(model_cfg[key]) for key in MODEL_NUMBER_KEYS if key in model_cfg}
        if "F" in model_cfg:
            settings["n_factors"] = int(model_cfg["F"])
        seed = int(model_cfg.get("seed", manifest["split"]["seed"]))
        model = train_mf(data.train, seed=seed, **settings)
        return MFPredictor(model, segments, r_min, r_max)
    raise ManifestError(f"unknown model {name!r}")


def cmd_run(args) -> int:
    try:
        manifest, config = load_manifest(args.manifest)
        if args.seed is not None:
            manifest["split"]["seed"] = args.seed
            manifest["model"]["seed"] = args.seed
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST

    outdir = args.output or manifest.get("output_dir") or os.environ.get(
        OUTPUT_DIR_ENV, "recbench-out"
    )
    try:  # before the run, not after it: a run can take hours
        created = _make_output_dir(Path(outdir))
    except OSError as exc:
        print(f"manifest error: cannot create output directory {outdir}: {exc}", file=sys.stderr)
        return EXIT_MANIFEST
    code = None
    try:
        code = _run(manifest, config, outdir)
    finally:  # also when the run raises
        if code != EXIT_OK:
            for path in created:  # a failed run writes nothing, so these are empty
                path.rmdir()
    return code


def _make_output_dir(outdir: Path) -> list[Path]:
    """Create ``outdir`` and its missing parents; return those created, deepest first."""
    missing = [path for path in (outdir, *outdir.parents) if not path.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    return missing


def _run(manifest: dict, config: ProtocolConfig, outdir: str) -> int:
    """Load, split, fit, evaluate and write the reports of a checked manifest."""
    r_min, r_max = config.r_min, config.r_max

    stage_timings: dict[str, float] = {}
    try:
        t0 = time.monotonic()
        loaded = load_dataset(
            manifest["dataset"]["path"], manifest["dataset"]["format"], r_min, r_max
        )
        stage_timings["load"] = time.monotonic() - t0
        dropped = loaded.dropped_duplicates
        if dropped:
            print(f"dropped {dropped} duplicate logs", file=sys.stderr)
        t0 = time.monotonic()
        data = split(loaded.logs, manifest["split"]["ratio"], manifest["split"]["seed"])
        del loaded  # the parts are copies: the whole goes before the fit
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
    # a size the manifest allows can still be too large to allocate or index
    except (TrainingError, ValueError, MemoryError, OverflowError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING

    try:
        report = evaluate(model, data, segments, config)
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION

    run_info = {
        "stage_timings": stage_timings,
        "peak_rss_mb": _peak_rss_mb(),
        "dropped_duplicates": dropped,
        # test logs whose user, or item, has no train rating
        "cold_test_logs": {
            "user": int((segments.user_counts[data.test.users] == 0).sum()),
            "item": int((segments.item_counts[data.test.items] == 0).sum()),
        },
    }
    if isinstance(model, MFPredictor):
        run_info["training_log"] = model.model.training_log
    write_report(report, outdir, run_info)
    print(render_summary(report), end="")
    print(f"reports written to {outdir}")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB: VmHWM from
    /proc/self/status, the peak of this process's own memory map, which
    ``execve`` starts afresh. Only where that is absent, ``ru_maxrss``,
    which on Linux also keeps the peak of the image before the exec, that
    of the process that spawned this one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2**10  # KiB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes there, KiB here


def cmd_compare(args) -> int:
    try:
        payloads = [load_report(p) for p in args.reports]
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
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
    else:
        logs = synthetic.gen_clustered(
            args.users, args.items, args.groups, args.density, seed
        )
    try:
        synthetic.write_csv(logs, args.output)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_MANIFEST
    print(f"wrote {len(logs)} logs to {args.output}")
    return EXIT_OK


def _checked(cast, ok, rule: str):
    """An argparse type: ``cast`` the text, then require ``ok(value)``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_seed = _checked(int, lambda v: v >= 0, ">= 0")
_count = _checked(int, lambda v: v >= 1, ">= 1")
_density = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


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
    gen.add_argument("--users", type=_count, default=200)
    gen.add_argument("--items", type=_count, default=100)
    gen.add_argument("--density", type=_density, default=0.2)
    gen.add_argument("--groups", type=_count, default=4)
    gen.set_defaults(func=cmd_gen_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
