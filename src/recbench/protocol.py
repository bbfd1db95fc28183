"""Orchestration of the full offline evaluation.

Steps: one pass scoring every user over the catalog, whose rows feed the
error on test logs (Decide), pairwise rank compatibility per user (Compare)
and top-N generation with relevance and impact judgments (Discover); then
re-evaluation of a model's extracted similarity matrix through a KNN
predictor (Explore). When that predictor would be the model itself, Explore
is the core report, which ``run_core`` keeps for it.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import Predictor
from .dataset import Ratings, SegmentModel, SplitDataset, user_ratings_index
from .knn import KnnPredictor
from .metrics import (
    MetricTable,
    RecommendationOutcome,
    ScoredLog,
    aggregate_comp,
    aggregate_discover,
    aggregate_rmse,
    comp_user,
)


class EvaluationError(Exception):
    """Raised when a model fails on a (user, item) pair during evaluation."""


@dataclass
class ProtocolConfig:
    top_n: int = 10
    explore_k: int = 100
    exclude_seen: bool = True
    r_min: float = 1.0
    r_max: float = 5.0

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.explore_k < 1:
            raise ValueError("explore_k must be >= 1")


@dataclass
class CoreReport:
    """Decide / Compare / Discover tables for one predictor.

    ``reused_core`` marks an Explore report that is the model's core report,
    taken as it was instead of re-scored.
    """

    tables: list[MetricTable]
    ami_excluded: int
    timings: dict[str, float] = field(default_factory=dict)
    reused_core: bool = False

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


def top_n(scores: np.ndarray, n: int, seen=()) -> np.ndarray:
    """Positions of the ``n`` highest scores, ties by ascending position.

    Positions in ``seen`` are never picked, so fewer than ``n`` come back
    when the rest run out. Only the candidates at or above the n-th highest
    score are sorted.
    """
    neg = -np.asarray(scores, dtype=float)
    neg[np.asarray(seen, dtype=np.intp)] = np.inf
    if n < len(neg):
        kth = np.partition(neg, n - 1)[n - 1]
        # not `neg <= kth`: NaN scores stay candidates, and sort last as in a full sort
        candidates = np.flatnonzero(~(neg > kth))
    else:
        candidates = np.arange(len(neg))
    # candidates ascend, so the stable sort breaks ties by position
    order = candidates[np.argsort(neg[candidates], kind="stable")[:n]]
    return order[neg[order] != np.inf]


def _by_user(logs: Ratings, n_users: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The logs' item codes and ratings grouped by user code, each group in
    log order, and the bounds of the groups: user u's are [bounds[u], bounds[u + 1])."""
    order = np.argsort(logs.users, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(logs.users, minlength=n_users))))
    return logs.items[order], logs.ratings[order], bounds.tolist()


def run_core(
    model: Predictor,
    data: SplitDataset,
    segments: SegmentModel,
    config: ProtocolConfig,
) -> CoreReport:
    """Evaluate Decide, Compare and Discover for one trained predictor.

    Each user is scored once over the catalog. Decide and Compare read the
    user's test items out of that row, and Discover ranks the same row.
    """
    t0 = time.monotonic()
    catalog = data.items  # sorted ascending, so stable sort breaks ties by id
    item_counts = [segments.item_count(item_id) for item_id in catalog]
    popular = [segments.is_popular(item_id) for item_id in catalog]
    # each user's train and test item codes (= catalog positions), in log order
    seen_items, _, seen_bounds = _by_user(data.train, len(data.users))
    test_items, test_ratings, test_bounds = _by_user(data.test, len(data.users))
    test_items, test_ratings = test_items.tolist(), test_ratings.tolist()

    scored_by_user: dict[str, list[ScoredLog]] = {}
    outcomes_by_user: dict[str, list[RecommendationOutcome]] = {}
    for u, user_id in enumerate(data.users):
        try:
            scores = model.predict_many(user_id, catalog)
        except Exception as exc:
            raise EvaluationError(
                f"model {model.name!r} failed on user {user_id!r}: {exc}"
            ) from exc
        positions = test_items[test_bounds[u] : test_bounds[u + 1]]
        truths = test_ratings[test_bounds[u] : test_bounds[u + 1]]
        # the user's segment for an unpopular and for a popular item
        h = "H" if segments.is_heavy(user_id) else "L"
        segment = (f"{h}userUitem", f"{h}userPitem")
        if positions:
            scored_by_user[user_id] = [
                ScoredLog(
                    user_id=user_id,
                    item_id=catalog[pos],
                    true_rating=truth,
                    predicted_rating=predicted,
                    segment=segment[popular[pos]],
                )
                for pos, truth, predicted in zip(positions, truths, scores[positions].tolist())
            ]
        seen = seen_items[seen_bounds[u] : seen_bounds[u + 1]] if config.exclude_seen else ()
        top = top_n(scores, config.top_n, seen)
        user_mean = segments.user_mean(user_id)
        test_ratings_at = dict(zip(positions, truths))
        outcomes = []
        for rank, pos in enumerate(top.tolist(), start=1):
            true_rating = test_ratings_at.get(pos)
            outcomes.append(
                RecommendationOutcome(
                    user_id=user_id,
                    item_id=catalog[pos],
                    rank=rank,
                    evaluable=true_rating is not None,
                    true_rating=true_rating,
                    user_mean=user_mean,
                    item_count=item_counts[pos],
                    catalog_size=data.catalog_size,
                    segment=segment[popular[pos]],
                )
            )
        outcomes_by_user[user_id] = outcomes
    timings = {"score": time.monotonic() - t0}

    t0 = time.monotonic()
    rmse_table = aggregate_rmse([s for lst in scored_by_user.values() for s in lst])
    timings["decide"] = time.monotonic() - t0

    t0 = time.monotonic()
    per_user_comp = {u: comp_user(lst) for u, lst in scored_by_user.items()}
    user_segment = {
        u: "Huser" if segments.is_heavy(u) else "Luser" for u in per_user_comp
    }
    comp_macro, comp_micro = aggregate_comp(per_user_comp, user_segment)
    timings["compare"] = time.monotonic() - t0

    t0 = time.monotonic()
    precision_table, ami_table, ami_excluded = aggregate_discover(outcomes_by_user)
    timings["discover"] = time.monotonic() - t0

    report = CoreReport(
        tables=[rmse_table, comp_macro, comp_micro, precision_table, ami_table],
        ami_excluded=ami_excluded,
        timings=timings,
    )
    if type(model) is KnnPredictor:  # a subclass may score otherwise than its emulation
        _core_runs[model] = _CoreRun(report, data, segments, replace(config))
    return report


def _reusable_core(model, matrix, user_ratings, data, segments, config) -> CoreReport | None:
    """The model's core report if the KNN that Explore would build on
    ``matrix`` is the model itself, scoring the same data; else None."""
    run = _core_runs.get(model) if type(model) is KnnPredictor else None
    if (
        run is not None
        and matrix is model.matrix
        and model.stats is segments
        and (model.r_min, model.r_max) == (config.r_min, config.r_max)
        and run.data is data
        and run.segments is segments
        and run.config == config
        and model.user_ratings == user_ratings
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
    user_ratings = user_ratings_index(data.train)
    core = _reusable_core(model, matrix, user_ratings, data, segments, config)
    if core is not None:
        return CoreReport(
            tables=core.tables,
            ami_excluded=core.ami_excluded,
            timings={"extract": extract_s},
            reused_core=True,
        )
    emulated = KnnPredictor(
        matrix,
        segments,
        user_ratings,
        r_min=config.r_min,
        r_max=config.r_max,
    )
    report = run_core(emulated, data, segments, config)
    report.timings["extract"] = extract_s
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
