"""The four performance measures: RMSE, COMP, Precision and AMI.

Per-user computations plus segment-wise aggregation into metric tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dataset import SEGMENTS

GLOBAL = "Global"
USER_SEGMENTS = ("Huser", "Luser")


@dataclass(frozen=True)
class ScoredLog:
    user_id: str
    item_id: str
    true_rating: float
    predicted_rating: float
    segment: str


@dataclass(frozen=True)
class RecommendationOutcome:
    """One top-N slot for one user, with everything needed to judge it."""

    user_id: str
    item_id: str
    rank: int
    evaluable: bool
    true_rating: float | None
    user_mean: float
    item_count: int
    catalog_size: int
    segment: str


@dataclass
class MetricTable:
    """One metric across segments: segment -> (value or None, support)."""

    function: str
    metric: str
    cells: dict[str, tuple[float | None, int]] = field(default_factory=dict)

    def value(self, segment: str) -> float | None:
        return self.cells.get(segment, (None, 0))[0]

    def support(self, segment: str) -> int:
        return self.cells.get(segment, (None, 0))[1]


def rmse(scored: list[ScoredLog]) -> float | None:
    """Root mean squared error; None (absent) for an empty collection."""
    if not scored:
        return None
    total = math.fsum((s.true_rating - s.predicted_rating) ** 2 for s in scored)
    return math.sqrt(total / len(scored))


def comp_user(scored: list[ScoredLog]) -> tuple[int, int]:
    """(compatible, counted) over unordered test-item pairs with unequal true ratings.

    A pair is compatible iff the predicted difference has the same sign as the
    true difference; equal predictions on an unequal true pair are incompatible.

    Counted in O(n log n) (Knight 1966). In (true ascending, prediction
    descending) order a pair tied in truth is never strictly ascending in
    prediction, so the compatible pairs are exactly the strictly ascending
    prediction pairs of that order, counted with a Fenwick tree over
    prediction ranks. Each item is counted against the earlier items of
    smaller truth.
    """
    order = sorted((s.true_rating, -s.predicted_rating) for s in scored)
    # rank 1 is the lowest prediction, i.e. the largest negated one
    rank = {q: r for r, q in enumerate(sorted({q for _, q in order}, reverse=True), 1)}
    tree = [0] * (len(rank) + 1)  # Fenwick tree of the ranks seen so far
    compatible = counted = 0
    group_start, group_truth = 0, None
    for pos, (truth, q) in enumerate(order):
        if truth != group_truth:
            group_start, group_truth = pos, truth
        counted += group_start
        r = rank[q]
        below = r - 1
        while below:
            compatible += tree[below]
            below &= below - 1
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return compatible, counted


def _sign(x: float) -> int:
    return int(x > 0) - int(x < 0)


def precision_user(outcomes: list[RecommendationOutcome]) -> float | None:
    """Fraction of evaluable outcomes whose rating is at least the user's mean."""
    evaluable = [o for o in outcomes if o.evaluable]
    if not evaluable:
        return None
    relevant = sum(1 for o in evaluable if o.true_rating >= o.user_mean)
    return relevant / len(evaluable)


def ami_user(outcomes: list[RecommendationOutcome]) -> float | None:
    """Average Measure of Impact over the user's evaluable outcomes.

    Each evaluable outcome contributes catalog_size / count(i), signed by
    whether the rating beats the user's mean (a rating exactly at the mean
    contributes 0). Outcomes whose item never occurs in train (count 0) are
    excluded; the caller reports them separately.
    """
    evaluable = [o for o in outcomes if o.evaluable and o.item_count > 0]
    if not evaluable:
        return None
    total = math.fsum(
        (1.0 / o.item_count) * _sign(o.true_rating - o.user_mean) * o.catalog_size
        for o in evaluable
    )
    return total / len(evaluable)


def aggregate_rmse(scored: list[ScoredLog], function: str = "Decide") -> MetricTable:
    table = MetricTable(function, "RMSE")
    table.cells[GLOBAL] = (rmse(scored), len(scored))
    for segment in SEGMENTS:
        cell = [s for s in scored if s.segment == segment]
        table.cells[segment] = (rmse(cell), len(cell))
    return table


def aggregate_comp(
    per_user: dict[str, tuple[int, int]],
    user_segment: dict[str, str],
    function: str = "Compare",
) -> tuple[MetricTable, MetricTable]:
    """Macro (mean of per-user ratios) and micro (pooled pairs) COMP tables.

    Segmented by user segment only; the items of a pair may span item segments.
    Macro supports count users, micro supports count pairs.
    """
    macro = MetricTable(function, "COMP_macro")
    micro = MetricTable(function, "COMP_micro")
    for segment in (GLOBAL,) + USER_SEGMENTS:
        ratios = []
        pooled_compatible = 0
        pooled_counted = 0
        for user_id, (compatible, counted) in per_user.items():
            if segment != GLOBAL and user_segment[user_id] != segment:
                continue
            pooled_compatible += compatible
            pooled_counted += counted
            if counted > 0:
                ratios.append(compatible / counted)
        macro.cells[segment] = (
            (math.fsum(ratios) / len(ratios), len(ratios)) if ratios else (None, 0)
        )
        micro.cells[segment] = (
            (pooled_compatible / pooled_counted, pooled_counted)
            if pooled_counted
            else (None, 0)
        )
    return macro, micro


def aggregate_discover(
    outcomes_by_user: dict[str, list[RecommendationOutcome]],
) -> tuple[MetricTable, MetricTable, int]:
    """Precision and AMI tables, macro-averaged over users per segment cell.

    A cell restricts each user's evaluable outcomes to that (user x item)
    segment; users without evaluable outcomes in a cell are excluded from its
    average. Supports count evaluable outcomes, so cells sum to Global.
    Returns (precision table, AMI table, number of AMI-excluded outcomes).

    One pass over the outcomes routes each evaluable one to Global and to
    its own cell, in the user's order.
    """
    cells = (GLOBAL,) + SEGMENTS
    precisions: dict[str, list[float]] = {segment: [] for segment in cells}
    amis: dict[str, list[float]] = {segment: [] for segment in cells}
    precision_support = dict.fromkeys(cells, 0)
    ami_support = dict.fromkeys(cells, 0)
    excluded = 0
    for user_outcomes in outcomes_by_user.values():
        evaluable = [o for o in user_outcomes if o.evaluable]
        by_segment: dict[str, list[RecommendationOutcome]] = {}
        for o in evaluable:
            by_segment.setdefault(o.segment, []).append(o)
        for segment, outcomes in ((GLOBAL, evaluable), *by_segment.items()):
            if not outcomes:
                continue
            precisions[segment].append(precision_user(outcomes))
            precision_support[segment] += len(outcomes)
            a = ami_user(outcomes)
            if a is not None:
                amis[segment].append(a)
                ami_support[segment] += sum(1 for o in outcomes if o.item_count > 0)
        excluded += sum(1 for o in evaluable if o.item_count == 0)

    precision_table = MetricTable("Discover", "Precision")
    ami_table = MetricTable("Discover", "AMI")
    for segment in cells:
        p, a = precisions[segment], amis[segment]
        precision_table.cells[segment] = (
            (math.fsum(p) / len(p), precision_support[segment]) if p else (None, 0)
        )
        ami_table.cells[segment] = (math.fsum(a) / len(a), ami_support[segment]) if a else (None, 0)
    return precision_table, ami_table, excluded


def tables_to_rows(tables: list[MetricTable]) -> list[tuple[str, str, str, float | None, int]]:
    """Flatten tables into (function, metric, segment, value, support) rows."""
    rows = []
    for table in tables:
        for segment in (GLOBAL,) + SEGMENTS + USER_SEGMENTS:
            if segment in table.cells:
                value, support = table.cells[segment]
                rows.append((table.function, table.metric, segment, value, support))
    return rows
