"""Item-item KNN: Weighted Pearson similarity, top-K matrix, rating prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import DefaultPredictor, Predictor
from .dataset import Ratings, SegmentModel, code_of

_VAR_EPS = 1e-12
# Similarities this close to zero are numerical noise, not real signal;
# the positivity filter must agree between the naive and vectorized routes.
SIM_EPS = 1e-9
# Co-rating pairs that build_similarity_matrix expands for one block of item
# rows, bounded by the rating counts of the block's raters summed over its
# items; an item over that bound gets a block of its own.
BUILD_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Top-K neighbor lists of the sorted train items, as CSR arrays.

    Row r lists item_ids[r]'s neighbors, ``indices`` and ``weights`` from
    ``indptr[r]`` to ``indptr[r + 1]``, by descending weight, then ascending
    column (= item id). No item lists itself; only weights above SIM_EPS.
    """

    k: int
    item_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.item_ids, self.item_ids[1:])):
            raise ValueError("similarity matrix item_ids must be sorted and distinct")

    @classmethod
    def top_k(cls, k, item_ids, rows, cols, weights) -> "SimilarityMatrix":
        """Each row's first ``k`` of the given entries by (-weight, column)."""
        order = np.lexsort((cols, -weights, rows))
        counts = np.bincount(rows, minlength=len(item_ids))
        rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        kept = order[rank < k]
        indptr = np.concatenate(([0], np.cumsum(np.minimum(counts, k))))
        return cls(k, tuple(item_ids), indptr, cols[kept], weights[kept])

    def neighbor_list(self, item_id: str) -> list[tuple[str, float]]:
        ids = self.item_ids
        r = code_of(ids, item_id)
        if r < 0:
            return []
        a, b = self.indptr[r], self.indptr[r + 1]
        return list(zip([ids[c] for c in self.indices[a:b].tolist()], self.weights[a:b].tolist()))

    def counts(self) -> dict[str, int]:
        """K, the items, their neighbors in all, and the items with fewer than K."""
        return {
            "k": self.k,
            "items": len(self.item_ids),
            "neighbors": int(self.indptr[-1]),
            "items_short_of_k": int(np.count_nonzero(np.diff(self.indptr) < self.k)),
        }

    @property
    def neighbors(self) -> dict[str, list[tuple[str, float]]]:
        return {item_id: self.neighbor_list(item_id) for item_id in self.item_ids}

    def truncated(self, k: int) -> "SimilarityMatrix":
        if k >= self.k:
            return self
        rows = np.repeat(np.arange(len(self.item_ids)), np.diff(self.indptr))
        return SimilarityMatrix.top_k(k, self.item_ids, rows, self.indices, self.weights)


def weighted_pearson(
    ratings_i: dict[str, float], ratings_j: dict[str, float], gamma: int = 50
) -> float:
    """Pearson correlation over common raters, shrunk by min(n, gamma)/gamma.

    Returns 0 for fewer than 2 common raters or a zero-variance side.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    common = ratings_i.keys() & ratings_j.keys()
    n = len(common)
    if n < 2:
        return 0.0
    x = np.array([ratings_i[u] for u in sorted(common)])
    y = np.array([ratings_j[u] for u in sorted(common)])
    vx = x - x.mean()
    vy = y - y.mean()
    var_x = float(vx @ vx)
    var_y = float(vy @ vy)
    if var_x <= _VAR_EPS or var_y <= _VAR_EPS:
        return 0.0
    corr = float(vx @ vy) / np.sqrt(var_x * var_y)
    corr = float(np.clip(corr, -1.0, 1.0))
    return corr * min(n, gamma) / gamma


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[r], ..., starts[r] + lengths[r] - 1 of each run r,
    one run after the other."""
    offsets = lengths.cumsum() - lengths
    return (starts - offsets).repeat(lengths) + np.arange(lengths.sum())


def _row_blocks(weights: np.ndarray, budget: int):
    """Consecutive row ranges [start, stop) whose weights sum to at most
    ``budget``; a row heavier than that gets a range of its own."""
    cum = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = cum[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cum, base + budget, side="right")))
        yield start, stop
        start = stop


def build_similarity_matrix(train: Ratings, k: int, gamma: int = 50) -> SimilarityMatrix:
    """Top-K Weighted Pearson neighbors for every item of the train set.

    Co-rating statistics are summed over expanded pairs: each (item i,
    rater u) entry is paired with u's items j > i, so only co-rated pairs
    i < j are ever materialized. Items are taken one block of rows at a
    time, at most BUILD_BLOCK_ENTRIES expanded pairs each, so the whole
    items x items product is never held either. Each pair's sums add its
    terms in ascending rater order, the order of a row-wise sparse product
    (Gustavson 1978), so the similarities are those of that product, bit
    for bit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    train = Ratings.of(train)
    # the train users and items, renumbered in the sorted order of the tables
    _, users = np.unique(train.users, return_inverse=True)
    codes, items = np.unique(train.items, return_inverse=True)
    item_ids = [train.item_ids[c] for c in codes.tolist()]
    n = len(item_ids)
    ratings = train.ratings
    # user-major copy, by (user, item): each rater's items ascend
    key = users * n + items  # (user, item) pairs are distinct
    by_user = np.argsort(key)
    user_key, user_items, user_ratings = key[by_user], items[by_user], ratings[by_user]
    degree = np.bincount(users)
    user_end = np.cumsum(degree)
    # item-major entries, by (item, user): each item's raters ascend
    by_item = np.lexsort((users, items))
    entry_items, entry_users, entry_ratings = items[by_item], users[by_item], ratings[by_item]
    item_ptr = np.concatenate(([0], np.cumsum(np.bincount(items, minlength=n))))
    # an entry's pairs: its rater's items after its item, [after, user_end)
    after = np.searchsorted(user_key, key[by_item], side="right")
    # bound on an item's expanded pairs: the rating counts of its raters
    reach = np.bincount(items, weights=degree[users], minlength=n)

    # (i, j, similarity) of the kept pairs, one triple of arrays per block
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for start, stop in _row_blocks(reach, BUILD_BLOCK_ENTRIES):
        a, b = item_ptr[start], item_ptr[stop]
        lengths = user_end[entry_users[a:b]] - after[a:b]
        pos = _runs(after[a:b], lengths)
        i, x = np.repeat(entry_items[a:b], lengths), np.repeat(entry_ratings[a:b], lengths)
        j, y = user_items[pos], user_ratings[pos]
        # the pairs come in (i, rater, j) order: each pair's terms by ascending rater
        pair, inverse = np.unique(i * n + j, return_inverse=True)
        counts = np.bincount(inverse)
        kept = counts >= 2

        def sums(terms):
            return np.bincount(inverse, weights=terms)[kept]

        sum_x, sum_y, sum_xy = sums(x), sums(y), sums(x * y)
        sum_x2, sum_y2 = sums(x * x), sums(y * y)
        pair, count = pair[kept], counts[kept].astype(float)

        cov = sum_xy - sum_x * sum_y / count
        var_x = sum_x2 - sum_x**2 / count
        var_y = sum_y2 - sum_y**2 / count
        valid = (var_x > _VAR_EPS) & (var_y > _VAR_EPS)
        sim = np.zeros(len(count))
        sim[valid] = cov[valid] / np.sqrt(var_x[valid] * var_y[valid])
        sim = np.clip(sim, -1.0, 1.0) * np.minimum(count, gamma) / gamma
        positive = sim > SIM_EPS
        found.append((pair[positive] // n, pair[positive] % n, sim[positive]))

    first, second, sims = (np.concatenate(part) for part in zip(*found))
    rows, cols = np.concatenate((first, second)), np.concatenate((second, first))
    return SimilarityMatrix.top_k(k, item_ids, rows, cols, np.tile(sims, 2))


def deviation_rows(users, rows, ratings, n_users: int, row_means: np.ndarray):
    """(ptr, cols, devs): the ratings as a users x train items CSR of
    deviations from the item means, ascending columns per user. A rating
    of an item outside train (row -1) is left out."""
    known = rows >= 0
    users, rows, ratings = users[known], rows[known], ratings[known]
    order = np.argsort(users.astype(np.int64) * len(row_means) + rows)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=n_users))))
    cols = rows[order]
    return ptr, cols, ratings[order] - row_means[cols]


class KnnPredictor(Predictor):
    """Deviation-form prediction over the user's rated neighbors of the item.

    Falls back to the default predictor when no rated neighbor exists. The
    matrix must list the segment model's items, in its order.

    A catalog row only reads the matrix columns of the items the user
    rated: for each rated item j, ascending, the items i that list j, with
    w_ij. Its work is the in-degree of those items, not the matrix size.
    Each item's sums add the same nonzero terms in the same (ascending j)
    order as a product with the column-sorted weight matrix, so the scores
    are those of that product, bit for bit.
    """

    name = "knn"

    def __init__(
        self,
        matrix: SimilarityMatrix,
        stats: SegmentModel,
        user_ratings: dict[str, dict[str, float]],
        r_min: float = 1.0,
        r_max: float = 5.0,
        gamma: int | None = None,
    ):
        if matrix.item_ids != stats.item_ids:
            raise ValueError("similarity matrix items differ from the segment model's train items")
        self.matrix = matrix
        self.stats = stats
        self.user_ratings = user_ratings
        self.r_min = r_min
        self.r_max = r_max
        self.gamma = gamma
        self.fallback = DefaultPredictor(stats, r_min, r_max)

        # column-major weights: column j lists the items i with j as a
        # neighbor, ascending; a stable sort keeps the rows' order
        n = len(matrix.item_ids)
        by_col = np.argsort(matrix.indices, kind="stable")
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        self.col_len = np.bincount(matrix.indices, minlength=n)
        self.col_ptr = np.concatenate(([0], np.cumsum(self.col_len)))
        self.col_rows, self.col_weights = rows[by_col], matrix.weights[by_col]

        # the users x train items CSR of deviations; its rows are the codes of
        # the segment model's users and of any other user given, sorted
        self.user_ids = tuple(sorted(user_ratings.keys() | set(stats.users)))
        rated = user_ratings.values()
        counts = np.fromiter(map(len, rated), np.intp, len(rated))
        owners = np.fromiter((code_of(self.user_ids, u) for u in user_ratings), np.intp, len(rated))
        size = counts.sum()
        rows = np.fromiter((code_of(stats.item_ids, i) for r in rated for i in r), np.int32, size)
        ratings = np.fromiter((x for r in rated for x in r.values()), float, size)
        self.user_ptr, self.user_cols, self.user_dev = deviation_rows(
            owners.repeat(counts), rows, ratings, len(self.user_ids), stats.row_means
        )

    def predict(self, user_id: str, item_id: str) -> float:
        rated = self.user_ratings.get(user_id)
        r = code_of(self.matrix.item_ids, item_id)
        if rated and r >= 0:
            matrix, means = self.matrix, self.stats.row_means
            a, b = matrix.indptr[r], matrix.indptr[r + 1]
            num = den = 0.0
            for j, weight in zip(matrix.indices[a:b].tolist(), matrix.weights[a:b].tolist()):
                r_uj = rated.get(matrix.item_ids[j])
                if r_uj is None or weight <= 0.0:
                    continue
                num += weight * (r_uj - means[j])
                den += weight
            if den > 0.0:
                return float(min(max(means[r] + num / den, self.r_min), self.r_max))
        return self.fallback.predict(user_id, item_id)

    def neighbor_sums(self, cols: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum_j w_ij * v_j, sum_j w_ij) over the given columns j, for every item i.

        ``cols`` must ascend; items that list none of them get (0, 0).
        """
        lengths = self.col_len[cols]
        entries = _runs(self.col_ptr[cols], lengths)
        targets = self.col_rows[entries]
        weights = self.col_weights[entries]
        n = len(self.col_len)
        # bincount adds each target's terms in input order: ascending column
        num = np.bincount(targets, weights=weights * values.repeat(lengths), minlength=n)
        den = np.bincount(targets, weights=weights, minlength=n)
        return num, den

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        # the default predictor's row, with the KNN score put over it
        # wherever a rated neighbor lists the item, then clipped
        row = self.fallback.train_row(user_id)
        user = code_of(self.user_ids, user_id)
        if user >= 0:
            a, b = self.user_ptr[user], self.user_ptr[user + 1]
            if a < b:
                num, den = self.neighbor_sums(self.user_cols[a:b], self.user_dev[a:b])
                has_neighbors = den > 0.0
                # a 1 where no rated neighbor lists the item: never put in the row
                scores = num / np.where(has_neighbors, den, 1.0)
                scores += self.stats.row_means
                np.putmask(row[:-1], has_neighbors, scores)
        np.maximum(row, self.r_min, out=row)
        np.minimum(row, self.r_max, out=row)
        return row[self.stats.item_rows(item_ids)]

    def item_similarity_matrix(self, k: int) -> SimilarityMatrix:
        return self.matrix.truncated(k)

    def config(self) -> dict:
        cfg = {"K": self.matrix.k}
        if self.gamma is not None:
            cfg["gamma"] = self.gamma
        return cfg
