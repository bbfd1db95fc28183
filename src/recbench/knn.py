"""Item-item KNN: Weighted Pearson similarity, top-K matrix, rating prediction."""

from __future__ import annotations

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


@dataclass
class SimilarityMatrix:
    """Per-item top-K neighbor lists, sorted by descending weight then item id.

    No item lists itself; only strictly positive similarities are kept.
    """

    k: int
    neighbors: dict[str, list[tuple[str, float]]]

    def neighbor_list(self, item_id: str) -> list[tuple[str, float]]:
        return self.neighbors.get(item_id, [])

    def truncated(self, k: int) -> "SimilarityMatrix":
        if k >= self.k:
            return self
        return SimilarityMatrix(k, {i: lst[:k] for i, lst in self.neighbors.items()})


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

    pairs_i, pairs_j, pairs_sim = [], [], []
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
        pairs_i += (ii[positive] + start).tolist()
        pairs_j += (jj[positive] + start + 1).tolist()
        pairs_sim += sim[positive].tolist()

    neighbors: dict[str, list[tuple[str, float]]] = {i: [] for i in items}
    for a, bb, s in zip(pairs_i, pairs_j, pairs_sim):
        neighbors[items[a]].append((items[bb], s))
        neighbors[items[bb]].append((items[a], s))
    for item_id in items:
        lst = neighbors[item_id]
        lst.sort(key=lambda t: (-t[1], t[0]))
        del lst[k:]
    return SimilarityMatrix(k, neighbors)


class KnnPredictor(Predictor):
    """Deviation-form prediction over the user's rated neighbors of the item.

    Falls back to the default predictor when no rated neighbor exists.
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
        self.matrix = matrix
        self.stats = stats
        self.user_ratings = user_ratings
        self.r_min = r_min
        self.r_max = r_max
        self.gamma = gamma
        self.fallback = DefaultPredictor(stats, r_min, r_max)
        self._internal_arrays: dict | None = None
        self._catalog_cache: tuple[object, np.ndarray] | None = None

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

    def _internal(self) -> dict:
        # Weight matrix over every item the model knows about, built once;
        # callers' item lists are mapped onto these rows.
        if self._internal_arrays is None:
            item_ids = sorted(set(self.matrix.neighbors) | set(self.stats.item_means))
            index = {i: n for n, i in enumerate(item_ids)}
            rows, cols, weights = [], [], []
            for item_id, lst in self.matrix.neighbors.items():
                row = index[item_id]
                for neighbor_id, weight in lst:
                    col = index.get(neighbor_id)
                    if col is not None:
                        rows.append(row)
                        cols.append(col)
                        weights.append(weight)
            w = sp.csr_matrix(
                (np.array(weights), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
                shape=(len(item_ids), len(item_ids)),
            )
            means = np.array(
                [self.stats.item_means.get(i, self.stats.global_mean) for i in item_ids]
            )
            self._internal_arrays = {"index": index, "w": w, "means": means}
        return self._internal_arrays

    def _rows_for(self, item_ids) -> np.ndarray:
        if self._catalog_cache is not None and self._catalog_cache[0] is item_ids:
            return self._catalog_cache[1]
        index = self._internal()["index"]
        rows = np.array([index.get(i, -1) for i in item_ids], dtype=np.intp)
        self._catalog_cache = (item_ids, rows)
        return rows

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        scores = self.fallback.predict_many(user_id, item_ids)
        rated = self.user_ratings.get(user_id)
        if not rated:
            return scores
        arrays = self._internal()
        index = arrays["index"]
        means = arrays["means"]
        deviation = np.zeros(len(means))
        mask = np.zeros(len(means))
        for item_id, rating in rated.items():
            col = index.get(item_id)
            if col is not None:
                deviation[col] = rating - means[col]
                mask[col] = 1.0
        num = arrays["w"] @ deviation
        den = arrays["w"] @ mask
        rows = self._rows_for(item_ids)
        known = rows >= 0
        row_den = np.where(known, den[rows], 0.0)
        has_neighbors = row_den > 0.0
        row_num = np.where(known, num[rows], 0.0)
        row_means = np.where(known, means[rows], 0.0)
        knn_scores = row_means + np.divide(
            row_num, row_den, out=np.zeros_like(row_num), where=has_neighbors
        )
        return np.where(
            has_neighbors, np.clip(knn_scores, self.r_min, self.r_max), scores
        )

    def item_similarity_matrix(self, k: int) -> SimilarityMatrix:
        return self.matrix.truncated(k)

    def config(self) -> dict:
        cfg = {"K": self.matrix.k}
        if self.gamma is not None:
            cfg["gamma"] = self.gamma
        return cfg
