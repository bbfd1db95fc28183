"""Orchestration of the full offline evaluation.

Steps: one pass scoring every user over the catalog, whose rows feed the
error on test logs (Decide), pairwise rank compatibility per user (Compare)
and top-N generation with relevance and impact judgments (Discover); then
re-evaluation of a model's extracted similarity matrix through a KNN
predictor (Explore). When that predictor would be the model itself, Explore
is the core report, which ``run_core`` keeps for it.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .baselines import Predictor
from .dataset import SEGMENTS, SegmentModel, SplitDataset, user_ratings_index
from .knn import KnnPredictor, block_top_n
from .metrics import (
    MetricTable,
    ScoredLog,
    aggregate_comp,
    aggregate_discover,
    aggregate_rmse,
    comp_user,
)


# Bytes of scores run_core holds for one block of users.
SCORE_BLOCK_BYTES = 2**19


class EvaluationError(Exception):
    """Raised when a model fails on a (user, item) pair during evaluation."""


def is_number(value) -> bool:
    """A finite JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


@dataclass(frozen=True)
class ProtocolConfig:
    """The protocol's settings, checked by the rules of the manifest.

    Frozen, so the checks hold for the object's whole life; a variant is
    made with ``dataclasses.replace``, which checks it again.
    """

    top_n: int = 10
    explore_k: int = 100
    exclude_seen: bool = True
    r_min: float = 1.0
    r_max: float = 5.0

    def __post_init__(self):
        for name in ("top_n", "explore_k"):
            if not is_int(getattr(self, name), 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not isinstance(self.exclude_seen, bool):
            raise ValueError("exclude_seen must be True or False")
        if not (is_number(self.r_min) and is_number(self.r_max) and self.r_min < self.r_max):
            raise ValueError("r_min and r_max must be finite numbers with r_min < r_max")


@dataclass
class CoreReport:
    """Decide / Compare / Discover tables for one predictor.

    ``reused_core`` marks an Explore report that is the model's core report,
    taken as it was instead of re-scored. ``matrix_counts`` holds an Explore
    report's ``SimilarityMatrix.counts``. ``segment_sizes`` holds the
    segment thresholds, the heavy user and popular item counts and the test
    logs per segment cell, for metadata.json.
    """

    tables: list[MetricTable]
    ami_excluded: int
    timings: dict[str, float] = field(default_factory=dict)
    reused_core: bool = False
    matrix_counts: dict[str, int] | None = None
    segment_sizes: dict | None = None

    def table(self, metric: str) -> MetricTable:
        for t in self.tables:
            if t.metric == metric:
                return t
        raise KeyError(metric)


@dataclass
class EvaluationReport:
    model_name: str
    model_config: dict
    config: ProtocolConfig
    core: CoreReport
    explore: CoreReport | None


@dataclass(frozen=True)
class _CoreRun:
    """A KNN's core report and the inputs it was computed from."""

    report: CoreReport
    data: SplitDataset
    segments: SegmentModel
    config: ProtocolConfig


# The last core report of each live KnnPredictor. Weak keys: an entry goes
# with its model, and with it the data the entry holds.
_core_runs: weakref.WeakKeyDictionary[KnnPredictor, _CoreRun] = weakref.WeakKeyDictionary()


def run_core(
    model: Predictor,
    data: SplitDataset,
    segments: SegmentModel,
    config: ProtocolConfig,
) -> CoreReport:
    """Evaluate Decide, Compare and Discover for one trained predictor.

    Each user is scored once over the catalog, into a block of users of at
    most SCORE_BLOCK_BYTES. Decide and Compare read the users' test items
    out of the block, and Discover then ranks it in place, so the block and
    the ranking's partitioned copy are the only block-sized arrays; each
    block's seen items are gathered for it alone. Compare then counts the
    users with a test log a block's worth at a time, from records of their
    test logs alone, so neither the seen items nor the records are held
    for all users. Discover judges only the top-N slots that hold a test
    item, the evaluable ones, which are kept as the test logs they hold. A
    NaN test prediction, or a table cell that is not a finite number,
    raises EvaluationError.
    """
    t_start = time.monotonic()
    users, catalog = data.users, data.items  # the catalog sorted, so ties go by id
    if (segments.users, segments.items) != (users, catalog):
        raise ValueError("the segment model was built on other id tables than the data")
    heavy, popular = segments.heavy, segments.popular
    # each user's train and test item codes (= catalog positions), ascending;
    # the train's are gathered a block at a time
    seen_order, seen_ptr = data.train.by_user  # int32, which np.take reads fastest
    order, test_ptr = data.test.by_user
    test_users, test_items = np.take(data.test.users, order), np.take(data.test.items, order)
    test_ratings = np.take(data.test.ratings, order)
    # each test log's index into SEGMENTS: (Huser, Luser) x (Pitem, Uitem)
    test_cells = (~popular[test_items]).astype(np.int8)  # a byte, held per test log
    test_cells *= 2
    test_cells += ~heavy[test_users]
    predicted = np.empty(len(test_items))
    slots = []  # the test log of each evaluable slot, by user and in rank order
    m = len(catalog)
    n_rows = max(1, SCORE_BLOCK_BYTES // (8 * max(m, 1)))  # users per block
    block = np.empty((n_rows, m))
    score_s = 0.0
    for u0 in range(0, len(users), n_rows):
        u1 = min(u0 + n_rows, len(users))
        scores = block[: u1 - u0]
        t0 = time.monotonic()
        for row, user_id in enumerate(users[u0:u1]):
            try:
                scores[row] = model.predict_many(user_id, catalog)
            except Exception as exc:
                raise EvaluationError(
                    f"model {model.name!r} failed on user {user_id!r}: {exc}"
                ) from exc
        score_s += time.monotonic() - t0
        tests = slice(*test_ptr[[u0, u1]].tolist())
        test_rows = test_users[tests] - u0
        predicted[tests] = scores[test_rows, test_items[tests]]
        a, b = seen_ptr[[u0, u1]].tolist()
        seen = seen_order[a : b if config.exclude_seen else a]
        seen = (np.take(data.train.users, seen) - u0, np.take(data.train.items, seen))
        rows, cols = block_top_n(scores, config.top_n, seen)
        # the block's test logs by ascending key row * m + position; of equal
        # keys the last in log order is found, as a dict of the logs keeps it
        keys = test_rows * m + test_items[tests]
        ranked = rows * m + cols
        # a slot below every key gets -1, which reads the largest key: no match
        at = np.searchsorted(keys, ranked, side="right") - 1
        if len(keys):
            slots.append(tests.start + at[keys[at] == ranked])
    block = scores = None  # the block goes before Compare builds its records
    slots = np.concatenate(slots) if slots else np.empty(0, np.intp)
    nan = np.flatnonzero(np.isnan(predicted))
    if len(nan):
        raise EvaluationError(
            f"model {model.name!r} predicted NaN for user {users[test_users[nan[0]]]!r}"
        )
    timings = {"score": score_s, "rank": time.monotonic() - t_start - score_s}

    t0 = time.monotonic()
    rmse_table = aggregate_rmse(test_ratings, predicted, test_cells)
    timings["decide"] = time.monotonic() - t0

    t0 = time.monotonic()
    tested = np.flatnonzero(np.diff(test_ptr))  # the users with a test log
    comp = np.empty((len(tested), 2), np.int64)  # their comp_user counts
    # the records of a block's worth of tested users at a time
    for lo in range(0, len(tested), n_rows):
        chunk = tested[lo : lo + n_rows]
        starts, ends = test_ptr[chunk].tolist(), test_ptr[chunk + 1].tolist()
        tests = slice(starts[0], ends[-1])
        fields = (
            map(users.__getitem__, test_users[tests].tolist()),
            map(catalog.__getitem__, test_items[tests].tolist()),
            test_ratings[tests].tolist(),
            predicted[tests].tolist(),
            map(SEGMENTS.__getitem__, test_cells[tests].tolist()),
        )
        # ScoredLog._make without a Python call per log
        scored = list(map(partial(tuple.__new__, ScoredLog), zip(*fields)))
        comp[lo : lo + len(chunk)] = [
            comp_user(scored[a - tests.start : b - tests.start]) for a, b in zip(starts, ends)
        ]
        del fields, scored  # not held beside the next block's
    comp_macro, comp_micro = aggregate_comp(comp[:, 0], comp[:, 1], heavy[tested])
    timings["compare"] = time.monotonic() - t0

    t0 = time.monotonic()
    slot_users = test_users[slots]
    precision_table, ami_table, ami_excluded = aggregate_discover(
        slot_users,
        test_cells[slots],
        test_ratings[slots],
        np.where(segments.user_counts > 0, segments.user_means, segments.global_mean)[slot_users],
        segments.item_counts[test_items[slots]],
        data.catalog_size,
    )
    timings["discover"] = time.monotonic() - t0

    tables = [rmse_table, comp_macro, comp_micro, precision_table, ami_table]
    for table in tables:
        for segment, (value, _) in table.cells.items():
            if value is not None and not math.isfinite(value):
                raise EvaluationError(
                    f"model {model.name!r}: {table.function} {table.metric} cell {segment}"
                    f" is {value}, not a finite number"
                )
    report = CoreReport(
        tables=tables,
        ami_excluded=ami_excluded,
        timings=timings,
        segment_sizes={
            "user_threshold": float(segments.user_threshold),
            "item_threshold": float(segments.item_threshold),
            "heavy_users": int(np.count_nonzero(heavy)),
            "popular_items": int(np.count_nonzero(popular)),
            "test_logs": dict(zip(SEGMENTS, np.bincount(test_cells, minlength=4).tolist())),
        },
    )
    if type(model) is KnnPredictor:  # a subclass may score otherwise than its emulation
        _core_runs[model] = _CoreRun(report, data, segments, config)
    return report


def _reusable_core(model, matrix, data, segments, config) -> CoreReport | None:
    """The model's core report if the KNN that Explore would build on
    ``matrix`` is the model itself, scoring the same data; else None. The
    model reads ``data.train`` if it was given that very object."""
    run = _core_runs.get(model) if type(model) is KnnPredictor else None
    if (
        run is not None
        and matrix is model.matrix
        and model.stats is segments
        and (model.r_min, model.r_max) == (config.r_min, config.r_max)
        and run.data is data
        and run.segments is segments
        and run.config == config
        and model.train is data.train
    ):
        return run.report
    return None


def run_explore(
    model: Predictor,
    data: SplitDataset,
    segments: SegmentModel,
    config: ProtocolConfig,
) -> CoreReport | None:
    """Re-run the core evaluation through a KNN built on the model's similarities.

    Returns None for models without a similarity capability. A KNN with
    K <= explore_k extracts its own matrix, so the emulated KNN would be the
    model: if ``run_core`` evaluated it on these same inputs, its report is
    returned, not scored again.
    """
    t0 = time.monotonic()
    matrix = model.item_similarity_matrix(config.explore_k)
    extract_s = time.monotonic() - t0
    if matrix is None:
        return None
    core = _reusable_core(model, matrix, data, segments, config)
    if core is not None:
        return CoreReport(
            tables=core.tables,
            ami_excluded=core.ami_excluded,
            timings={"extract": extract_s},
            reused_core=True,
            matrix_counts=matrix.counts(),
        )
    counts = matrix.counts()
    # user_ratings_index returns data.train itself; perfbench traces it here
    train = user_ratings_index(data.train)
    emulated = KnnPredictor(matrix, segments, train, r_min=config.r_min, r_max=config.r_max)
    # the re-run scores from the column form alone; only predict, config and
    # item_similarity_matrix read the row-major matrix, and none is called
    emulated.matrix = matrix = None
    report = run_core(emulated, data, segments, config)
    report.timings["extract"] = extract_s
    report.matrix_counts = counts
    return report


def evaluate(
    model: Predictor,
    data: SplitDataset,
    segments: SegmentModel,
    config: ProtocolConfig,
) -> EvaluationReport:
    """Full protocol: core evaluation plus the Explore re-evaluation."""
    core = run_core(model, data, segments, config)
    explore = run_explore(model, data, segments, config)
    return EvaluationReport(
        model_name=model.name,
        model_config=model.config(),
        config=config,
        core=core,
        explore=explore,
    )
