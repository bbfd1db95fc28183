"""Item-item KNN: Weighted Pearson similarity, top-K matrix, rating prediction."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .baselines import DefaultPredictor, Predictor
from .dataset import RatingLog, SegmentModel

_VAR_EPS = 1e-12
# Similarities this close to zero are numerical noise, not real signal;
# the positivity filter must agree between the naive and vectorized routes.
SIM_EPS = 1e-9
# Entries of a co-rating product that build_similarity_matrix computes at once.
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
        r = bisect_left(ids, item_id)
        if r == len(ids) or ids[r] != item_id:
            return []
        a, b = self.indptr[r], self.indptr[r + 1]
        return list(zip([ids[c] for c in self.indices[a:b].tolist()], self.weights[a:b].tolist()))

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


def build_similarity_matrix(
    train: list[RatingLog], k: int, gamma: int = 50
) -> SimilarityMatrix:
    """Top-K Weighted Pearson neighbors for every item of the train set.

    Co-rating statistics come from sparse products over the user-item matrix,
    so only co-rated item pairs are ever materialized, and the products are
    computed for one block of item rows at a time, at most
    BUILD_BLOCK_ENTRIES entries each, so the whole items x items product
    is never held either.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    users = sorted({log.user_id for log in train})
    items = sorted({log.item_id for log in train})
    u_index = {u: n for n, u in enumerate(users)}
    i_index = {i: n for n, i in enumerate(items)}

    rows = np.array([u_index[log.user_id] for log in train])
    cols = np.array([i_index[log.item_id] for log in train])
    vals = np.array([log.rating for log in train])
    shape = (len(users), len(items))
    r = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    b = sp.csr_matrix((np.ones(len(train)), (rows, cols)), shape=shape)

    r2 = r.multiply(r).tocsr()
    # item-major copies: a block of their rows times a user-major matrix is
    # that block's rows of a co-rating product
    rt, bt, r2t = r.T.tocsr(), b.T.tocsr(), r2.T.tocsr()
    # bound on the entries of an item's product row: every rating of each
    # of its raters, capped at the catalog
    reach = np.minimum(bt @ np.asarray(b.sum(axis=1)).ravel(), len(items))

    def entries(m, rows_idx, cols_idx):
        # the conversion sorts each column's indices, so lookups search them
        return np.asarray(m.tocsc()[rows_idx, cols_idx]).ravel()

    # (i, j, similarity) of the kept pairs, one triple of arrays per block
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for start, stop in _row_blocks(reach, BUILD_BLOCK_ENTRIES):
        # only the pairs i < j: columns from start + 1 on, so local ii <= jj
        bj, rj, r2j = b[:, start + 1 :], r[:, start + 1 :], r2[:, start + 1 :]
        co = sp.triu(bt[start:stop] @ bj).tocoo()  # common-rater counts
        mask = co.data >= 2
        ii, jj, n = co.row[mask], co.col[mask], co.data[mask]
        if len(ii) == 0:
            continue
        sum_xy = entries(rt[start:stop] @ rj, ii, jj)
        sum_x = entries(rt[start:stop] @ bj, ii, jj)  # i's ratings over common raters
        sum_y = entries(bt[start:stop] @ rj, ii, jj)
        sum_x2 = entries(r2t[start:stop] @ bj, ii, jj)
        sum_y2 = entries(bt[start:stop] @ r2j, ii, jj)

        cov = sum_xy - sum_x * sum_y / n
        var_x = sum_x2 - sum_x**2 / n
        var_y = sum_y2 - sum_y**2 / n
        valid = (var_x > _VAR_EPS) & (var_y > _VAR_EPS)
        sim = np.zeros(len(n))
        sim[valid] = cov[valid] / np.sqrt(var_x[valid] * var_y[valid])
        sim = np.clip(sim, -1.0, 1.0) * np.minimum(n, gamma) / gamma
        positive = sim > SIM_EPS
        found.append((ii[positive] + start, jj[positive] + start + 1, sim[positive]))

    first, second, sims = (np.concatenate(part) for part in zip(*found))
    return SimilarityMatrix.top_k(
        k, items, np.concatenate((first, second)), np.concatenate((second, first)), np.tile(sims, 2)
    )


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

        # column-major weights: column j lists the items i with j as a neighbor
        n = len(matrix.item_ids)
        w = sp.csr_matrix((matrix.weights, matrix.indices, matrix.indptr), (n, n)).tocsc()
        self.col_ptr, self.col_rows, self.col_weights = w.indptr, w.indices, w.data

        # users x train items CSR of the deviations rating - item mean,
        # ascending columns per user; items outside train are left out
        counts = np.fromiter(map(len, user_ratings.values()), np.intp, len(user_ratings))
        cols = np.fromiter(
            (stats.item_index.get(i, -1) for r in user_ratings.values() for i in r),
            np.int32,
            counts.sum(),
        )
        ratings = np.fromiter(
            (x for r in user_ratings.values() for x in r.values()), float, counts.sum()
        )
        owner = np.repeat(np.arange(len(counts)), counts)
        known = cols >= 0
        cols, ratings, owner = cols[known], ratings[known], owner[known]
        order = np.argsort(owner * n + cols)  # (user, item) pairs are distinct
        self.user_row = {user_id: row for row, user_id in enumerate(user_ratings)}
        self.user_ptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(counts)))))
        self.user_cols = cols[order]
        self.user_dev = ratings[order] - stats.item_mean_array[self.user_cols]

    def predict(self, user_id: str, item_id: str) -> float:
        rated = self.user_ratings.get(user_id)
        if rated:
            num = 0.0
            den = 0.0
            base = self.stats.item_means.get(item_id, self.stats.global_mean)
            for neighbor_id, weight in self.matrix.neighbor_list(item_id):
                r_uj = rated.get(neighbor_id)
                if r_uj is None or weight <= 0.0:
                    continue
                num += weight * (r_uj - self.stats.item_means[neighbor_id])
                den += weight
            if den > 0.0:
                return float(min(max(base + num / den, self.r_min), self.r_max))
        return self.fallback.predict(user_id, item_id)

    def neighbor_sums(self, cols: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum_j w_ij * v_j, sum_j w_ij) over the given columns j, for every item i.

        ``cols`` must ascend; items that list none of them get (0, 0).
        """
        starts = self.col_ptr[cols]
        lengths = self.col_ptr[cols + 1] - starts
        # positions of the columns' entries, one segment after the other
        offsets = np.cumsum(lengths) - lengths
        entries = np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
        targets = self.col_rows[entries]
        weights = self.col_weights[entries]
        n = len(self.col_ptr) - 1
        # bincount adds each target's terms in input order: ascending column
        num = np.bincount(targets, weights=weights * np.repeat(values, lengths), minlength=n)
        den = np.bincount(targets, weights=weights, minlength=n)
        return num, den

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        scores = self.fallback.predict_many(user_id, item_ids)
        row = self.user_row.get(user_id)
        if row is None:
            return scores
        a, b = self.user_ptr[row], self.user_ptr[row + 1]
        if a == b:
            return scores
        num, den = self.neighbor_sums(self.user_cols[a:b], self.user_dev[a:b])
        means = self.stats.item_mean_array
        rows = self.stats.item_rows(item_ids)
        known = rows >= 0
        # rows of items outside train (-1) read the last row; never used
        row_den = np.where(known, den[rows], 0.0)
        has_neighbors = row_den > 0.0
        knn_scores = means[rows] + np.divide(
            num[rows], row_den, out=np.zeros(len(rows)), where=has_neighbors
        )
        return np.where(has_neighbors, np.clip(knn_scores, self.r_min, self.r_max), scores)

    def item_similarity_matrix(self, k: int) -> SimilarityMatrix:
        return self.matrix.truncated(k)

    def config(self) -> dict:
        cfg = {"K": self.matrix.k}
        if self.gamma is not None:
            cfg["gamma"] = self.gamma
        return cfg
