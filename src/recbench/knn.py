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
        # rows sum their neighbors in column order; another order moves last bits
        shape = (len(matrix.item_ids),) * 2
        self.w = sp.csr_matrix((matrix.weights, matrix.indices, matrix.indptr), shape).sorted_indices()

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

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        scores = self.fallback.predict_many(user_id, item_ids)
        rated = self.user_ratings.get(user_id)
        if not rated:
            return scores
        means = self.stats.item_mean_array
        deviation = np.zeros(len(means))
        mask = np.zeros(len(means))
        for item_id, rating in rated.items():
            col = self.stats.item_index.get(item_id)
            if col is not None:
                deviation[col] = rating - means[col]
                mask[col] = 1.0
        num = self.w @ deviation
        den = self.w @ mask
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
