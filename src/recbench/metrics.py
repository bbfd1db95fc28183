"""The four performance measures: RMSE, COMP, Precision and AMI.

Per-user computations plus segment-wise aggregation into metric tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .dataset import SEGMENTS, blocks

GLOBAL = "Global"
USER_SEGMENTS = ("Huser", "Luser")


class ScoredLog(NamedTuple):
    """One test log and its prediction, as ``comp_user`` reads it."""

    user_id: str
    item_id: str
    true_rating: float
    predicted_rating: float
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
    size = len(tree)
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
        while r < size:
            tree[r] += 1
            r += r & -r
    return compatible, counted


def _cells(cells: np.ndarray):
    """(cell name, members) of Global and of each segment, for entries
    whose ``cells`` hold their index into SEGMENTS."""
    yield GLOBAL, slice(None)
    for code, segment in enumerate(SEGMENTS):
        yield segment, cells == code


def _rmse_cell(squares: np.ndarray) -> tuple[float | None, int]:
    """(RMSE, support) of a cell's squared errors, summed exactly by one
    ``math.fsum`` that reads them a block of Python floats at a time."""
    n = len(squares)
    if not n:
        return None, 0
    # a squared error: a Python float and its list slot (32 bytes), counted as 256
    chunks = (squares[a:b].tolist() for a, b in blocks(n, 256))
    return math.sqrt(math.fsum(chain.from_iterable(chunks)) / n), n


def aggregate_rmse(truths: np.ndarray, predictions: np.ndarray, cells: np.ndarray) -> MetricTable:
    """RMSE over the test logs, globally and per segment; ``cells`` holds
    each log's index into SEGMENTS. An empty cell is absent (None, 0)."""
    # C pow, as Python's ``** 2``: d * d differs from it in the last bit for some d
    squares = np.float_power(truths - predictions, 2.0)
    table = MetricTable("Decide", "RMSE")
    for segment, members in _cells(cells):
        table.cells[segment] = _rmse_cell(squares[members])
    return table


def aggregate_comp(
    compatible: np.ndarray, counted: np.ndarray, heavy: np.ndarray
) -> tuple[MetricTable, MetricTable]:
    """Macro (mean of per-user ratios) and micro (pooled pairs) COMP tables
    from each user's ``comp_user`` counts and whether the user is heavy.

    Segmented by user segment only; the items of a pair may span item segments.
    Macro supports count users, micro supports count pairs.
    """
    macro = MetricTable("Compare", "COMP_macro")
    micro = MetricTable("Compare", "COMP_micro")
    for segment, members in ((GLOBAL, slice(None)), ("Huser", heavy), ("Luser", ~heavy)):
        c, n = compatible[members], counted[members]
        ratios = (c[n > 0] / n[n > 0]).tolist()  # int / int, correctly rounded as in Python
        macro.cells[segment] = (math.fsum(ratios) / len(ratios), len(ratios)) if ratios else (None, 0)
        pooled_compatible, pooled_counted = int(c.sum()), int(n.sum())
        micro.cells[segment] = (
            (pooled_compatible / pooled_counted, pooled_counted) if pooled_counted else (None, 0)
        )
    return macro, micro


def aggregate_discover(
    users: np.ndarray,
    cells: np.ndarray,
    truths: np.ndarray,
    user_means: np.ndarray,
    item_counts: np.ndarray,
    catalog_size: int,
) -> tuple[MetricTable, MetricTable, int]:
    """Precision and AMI tables, macro-averaged over users per segment cell.

    One entry per evaluable top-N slot, grouped by user code: its user, its
    index into SEGMENTS, the test rating it holds, the user's train mean and
    the item's train count. A user's precision in a cell is the share of
    its slots there rated at least its mean. Its AMI averages
    catalog_size / count(i) over those slots, signed by whether the rating
    beats the mean (0 at the mean); slots whose item never occurs in train
    (count 0) are left out of AMI and counted apart. Users without a slot
    in a cell are left out of its average. Supports count slots, so cells
    sum to Global. Returns (precision table, AMI table, number of
    AMI-excluded slots).
    """
    relevant = (truths >= user_means).astype(np.intp)
    counted = item_counts > 0
    impact = np.zeros(len(truths))  # 0.0 for an uncounted slot, which leaves a user's sum alone
    # left to right, as (1.0 / count) * sign * catalog_size
    impact[counted] = 1.0 / item_counts[counted] * np.sign(truths - user_means)[counted] * catalog_size
    precision_table = MetricTable("Discover", "Precision")
    ami_table = MetricTable("Discover", "AMI")
    for segment, members in _cells(cells):
        cell_users = users[members]
        if not len(cell_users):
            precision_table.cells[segment] = ami_table.cells[segment] = (None, 0)
            continue
        starts = np.flatnonzero(np.diff(cell_users, prepend=-1))  # each user's first slot
        bounds = starts.tolist() + [len(cell_users)]
        precisions = (np.add.reduceat(relevant[members], starts) / np.diff(bounds)).tolist()
        precision_table.cells[segment] = (math.fsum(precisions) / len(precisions), len(cell_users))
        impacts = impact[members].tolist()
        sums = np.array([math.fsum(impacts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
        n = np.add.reduceat(counted[members].astype(np.intp), starts)
        amis = (sums[n > 0] / n[n > 0]).tolist()
        ami_table.cells[segment] = (math.fsum(amis) / len(amis), int(n.sum())) if amis else (None, 0)
    return precision_table, ami_table, int(np.count_nonzero(~counted))


def tables_to_rows(tables: list[MetricTable]) -> list[tuple[str, str, str, float | None, int]]:
    """Flatten tables into (function, metric, segment, value, support) rows."""
    rows = []
    for table in tables:
        for segment in (GLOBAL,) + SEGMENTS + USER_SEGMENTS:
            if segment in table.cells:
                value, support = table.cells[segment]
                rows.append((table.function, table.metric, segment, value, support))
    return rows
