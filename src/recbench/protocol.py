"""Orchestration of the full offline evaluation.

Steps: one pass scoring every user over the catalog, whose rows feed the
error on test logs (Decide), pairwise rank compatibility per user (Compare)
and top-N generation with relevance and impact judgments (Discover); then
re-evaluation of a model's extracted similarity matrix through a KNN
predictor (Explore).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import Predictor
from .dataset import RatingLog, SegmentModel, SplitDataset, user_ratings_index
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
    """Decide / Compare / Discover tables for one predictor."""

    tables: list[MetricTable]
    ami_excluded: int
    timings: dict[str, float] = field(default_factory=dict)

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


def top_n(scores: np.ndarray, n: int, seen=()) -> np.ndarray:
    """Positions of the ``n`` highest scores, ties by ascending position.

    Positions in ``seen`` are never picked, so fewer than ``n`` come back
    when the rest run out. Only the candidates at or above the n-th highest
    score are sorted.
    """
    neg = -np.asarray(scores, dtype=float)
    neg[list(seen)] = np.inf
    if n < len(neg):
        kth = np.partition(neg, n - 1)[n - 1]
        # not `neg <= kth`: NaN scores stay candidates, and sort last as in a full sort
        candidates = np.flatnonzero(~(neg > kth))
    else:
        candidates = np.arange(len(neg))
    # candidates ascend, so the stable sort breaks ties by position
    order = candidates[np.argsort(neg[candidates], kind="stable")[:n]]
    return order[neg[order] != np.inf]


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
    position = {item_id: n for n, item_id in enumerate(catalog)}
    popular = [segments.is_popular(item_id) for item_id in catalog]
    train_index = user_ratings_index(data.train)
    test_by_user: dict[str, list[RatingLog]] = {}
    for log in data.test:
        test_by_user.setdefault(log.user_id, []).append(log)

    scored_by_user: dict[str, list[ScoredLog]] = {}
    outcomes_by_user: dict[str, list[RecommendationOutcome]] = {}
    for user_id in data.users:
        try:
            scores = model.predict_many(user_id, catalog)
        except Exception as exc:
            raise EvaluationError(
                f"model {model.name!r} failed on user {user_id!r}: {exc}"
            ) from exc
        test_logs = test_by_user.get(user_id, [])
        # the user's segment for an unpopular and for a popular item
        u = "H" if segments.is_heavy(user_id) else "L"
        segment = (f"{u}userUitem", f"{u}userPitem")
        if test_logs:
            positions = [position[log.item_id] for log in test_logs]
            scored_by_user[user_id] = [
                ScoredLog(
                    user_id=user_id,
                    item_id=log.item_id,
                    true_rating=log.rating,
                    predicted_rating=float(scores[pos]),
                    segment=segment[popular[pos]],
                )
                for log, pos in zip(test_logs, positions)
            ]
        seen = train_index.get(user_id, ()) if config.exclude_seen else ()
        top = top_n(scores, config.top_n, [position[i] for i in seen])
        user_mean = segments.user_mean(user_id)
        test_ratings = {log.item_id: log.rating for log in test_logs}
        outcomes = []
        for rank, pos in enumerate(top, start=1):
            item_id = catalog[pos]
            true_rating = test_ratings.get(item_id)
            outcomes.append(
                RecommendationOutcome(
                    user_id=user_id,
                    item_id=item_id,
                    rank=rank,
                    evaluable=true_rating is not None,
                    true_rating=true_rating,
                    user_mean=user_mean,
                    item_count=segments.item_count(item_id),
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

    return CoreReport(
        tables=[rmse_table, comp_macro, comp_micro, precision_table, ami_table],
        ami_excluded=ami_excluded,
        timings=timings,
    )


def run_explore(
    model: Predictor,
    data: SplitDataset,
    segments: SegmentModel,
    config: ProtocolConfig,
) -> CoreReport | None:
    """Re-run the core evaluation through a KNN built on the model's similarities.

    Returns None for models without a similarity capability.
    """
    t0 = time.monotonic()
    matrix = model.item_similarity_matrix(config.explore_k)
    extract_s = time.monotonic() - t0
    if matrix is None:
        return None
    emulated = KnnPredictor(
        matrix,
        segments,
        user_ratings_index(data.train),
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
