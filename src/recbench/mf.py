"""Biased matrix factorization trained by regularized SGD with early stopping.

User vectors have coordinate 0 pinned to 1 and item vectors coordinate 1, so
item coordinate 0 and user coordinate 1 act as bias slots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import DefaultPredictor, Predictor
from .dataset import Ratings, SegmentModel, code_of
from .knn import SIM_EPS, SimilarityMatrix, block_top_n

USER_PINNED = 0
ITEM_PINNED = 1

# Bytes of correlations mf_item_similarity holds at once.
EXTRACT_BLOCK_BYTES = 2**20
# Updates whose codes sgd_levels holds as Python ints at once.
LEVEL_CHUNK = 2**12


class TrainingError(Exception):
    """Raised for unusable training inputs."""


@dataclass
class FactorModel:
    n_factors: int
    learning_rate: float
    regularization: float
    seed: int
    user_ids: list[str]  # sorted and distinct: a user's row is found by bisection
    item_ids: list[str]  # sorted, as train_mf leaves them
    user_factors: np.ndarray  # (n_users, F), column USER_PINNED == 1
    item_factors: np.ndarray  # (n_items, F), column ITEM_PINNED == 1
    training_log: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.user_ids, self.user_ids[1:])):
            raise ValueError("factor model user_ids must be sorted and distinct")


def _rmse(p: np.ndarray, q: np.ndarray, uu: np.ndarray, ii: np.ndarray, rr: np.ndarray) -> float:
    pred = np.einsum("ij,ij->i", p[uu], q[ii])
    return float(np.sqrt(np.mean((rr - pred) ** 2)))


def sgd_levels(users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Level of each update in a sequence of (user, item) updates, from 1.

    An update's level is one more than the highest level of any earlier
    update on the same user or on the same item. So no user and no item
    occurs twice on one level, and every update comes after, on a higher
    level, each earlier update it shares a row with.
    """
    user_level = [0] * (int(users.max(initial=-1)) + 1)
    item_level = [0] * (int(items.max(initial=-1)) + 1)
    levels = np.empty(len(users), dtype=np.int32)  # a level is at most the update count
    for start in range(0, len(users), LEVEL_CHUNK):
        chunk = []
        append = chunk.append
        stop = start + LEVEL_CHUNK
        for u, i in zip(users[start:stop].tolist(), items[start:stop].tolist()):
            a = user_level[u]
            b = item_level[i]
            level = a + 1 if a > b else b + 1
            user_level[u] = item_level[i] = level
            append(level)
        levels[start:stop] = chunk
    return levels


def _stacked(p: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """The table whose first rows are p and whose other rows are q, if they
    are such halves of one C-contiguous table, else None."""
    table = p.base
    if table is None or q.base is not table or not table.flags.c_contiguous:
        return None
    halves = table[: len(p)], table[len(p) :]
    same = all(a.__array_interface__ == b.__array_interface__ for a, b in zip((p, q), halves))
    return table if same else None


def _permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.permutation(n)``, from the same draws, as int32 where n fits."""
    order = np.arange(n, dtype=np.int32 if n < 2**31 else np.intp)
    rng.shuffle(order)
    return order


def sgd_epoch(
    p: np.ndarray,
    q: np.ndarray,
    uu: np.ndarray,
    ii: np.ndarray,
    rr: np.ndarray,
    order: np.ndarray,
    lr: float,
    reg: float,
) -> int:
    """One in-place SGD pass in the given order, skipping the pinned slots.

    The result is that of stepping one rating at a time in ``order``, bit
    for bit. Updates that share no user and no item commute (DSGD, Gemulla
    et al. 2011), so the ratings are applied one level of ``sgd_levels`` at
    a time. p and q are stepped as one stacked table, users' rows first:
    in place where they are its two halves, as train_mf passes them, else
    on a concatenated copy that is copied back. The schedule holds each
    update's two rows of the table, so a level is one gather of a (2, L, F)
    block, one step on both halves at once and one scatter. Every element
    goes through the same float operations as in a one-rating step:
    ``np.vecdot`` runs the kernel of a single ``pu @ qi`` (``einsum`` would
    move last bits), and ``cur[::-1]`` pairs each p row with its q row and
    each q row with its p row. Returns the number of levels.

    The schedule keeps the dtypes of ``order`` and of the codes (int32 as
    train_mf passes them), and only the levels and one argsort are held
    beside ``order`` while it is sorted; a caller that passes ``order``
    without keeping it lets it go before the schedule is gathered.
    """
    table = _stacked(p, q)
    copied = table is None
    if copied:
        table = np.concatenate((p, q))
    order = np.asarray(order)
    levels = sgd_levels(uu[order], ii[order])
    # level 0 is empty, so the running counts start at 0: level k spans bounds[k-1]:bounds[k]
    bounds = np.cumsum(np.bincount(levels, minlength=1))
    # the updates level by level, each level in the given order: the 16-bit
    # LSD radix passes of stable_order, each applied to order (and to the
    # levels, if a pass follows) at once, so no composed argsort is held
    shift = 0
    while True:
        by = np.argsort((levels >> shift).astype(np.uint16), kind="stable")
        order = order[by]
        shift += 16
        if len(bounds) <= 1 << shift:
            break
        levels = levels[by]
    del levels, by
    # row 0 the updates' users, row 1 their items, as rows of the stacked table
    rows = np.empty((2, len(order)), np.int32)
    rows[0] = uu[order]
    rows[1] = ii[order]
    rows[1] += len(p)
    ratings = rr[order]
    del order
    pinned = np.zeros((2, 1, table.shape[1]), bool)
    pinned[0, 0, USER_PINNED] = pinned[1, 0, ITEM_PINNED] = True
    bounds = bounds.tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        at = rows[:, start:stop]
        cur = table[at]
        err = ratings[start:stop] - np.vecdot(cur[0], cur[1])
        new = cur + lr * (err[:, None] * cur[::-1] - reg * cur)
        np.copyto(new, cur, where=pinned)
        table[at] = new
    if copied:
        p[...] = table[: len(p)]
        q[...] = table[len(p) :]
    return len(bounds) - 1


def train_mf(
    train: Ratings,
    n_factors: int = 16,
    seed: int = 0,
    budget_seconds: float = 90 * 60,
    validation_fraction: float = 0.015,
    learning_rate: float = 0.030,
    regularization: float = 0.008,
    max_epochs: int | None = None,
) -> FactorModel:
    """Train a biased factor model on the train Ratings by seeded SGD with
    early stopping. Its users and items are those with a train log, in the
    order of the Ratings' id tables.

    Stops when the validation RMSE has increased three consecutive epochs or
    the wall-clock budget elapses, and returns the snapshot with the best
    validation RMSE seen. Raises TrainingError if an epoch leaves the
    validation RMSE infinite or NaN, which a too large learning rate does.

    p and q, and the best snapshot, are each the two halves of one stacked
    table with a row for every id of the Ratings' tables, so the epochs
    read the Ratings' own codes and ratings through an int32 permutation:
    between epochs only that permutation (4 bytes per train log) and the
    two tables are held. The rows of ids without a train log are never
    stepped, and the model gets only the others.
    """
    if not len(train):
        raise TrainingError("empty train set")
    if n_factors < 3:
        raise TrainingError("n_factors must be >= 3 (two bias slots + one factor)")
    if not 0.0 < validation_fraction < 0.5:
        raise TrainingError("validation_fraction must be in (0, 0.5)")
    # "not x > 0" also rejects NaN
    if not budget_seconds > 0:
        raise TrainingError("budget must be positive")
    if not learning_rate > 0:
        raise TrainingError("learning_rate must be > 0")
    if not regularization >= 0:
        raise TrainingError("regularization must be >= 0")
    if max_epochs is not None and max_epochs < 1:
        raise TrainingError("max_epochs must be >= 1")

    # the train users and items, in the sorted order of the tables
    n_users = len(train.user_ids)
    user_codes = np.flatnonzero(np.bincount(train.users, minlength=n_users))
    item_codes = np.flatnonzero(np.bincount(train.items, minlength=len(train.item_ids)))
    user_ids = [train.user_ids[c] for c in user_codes.tolist()]
    item_ids = [train.item_ids[c] for c in item_codes.tolist()]

    rng = np.random.default_rng(seed)
    perm = _permutation(rng, len(train))
    n_val = max(1, int(round(validation_fraction * len(train))))
    if len(train) - n_val < 1:
        raise TrainingError("validation split leaves no training logs")
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    uu_val, ii_val, rr_val = train.users[val_idx], train.items[val_idx], train.ratings[val_idx]

    table = np.zeros((n_users + len(train.item_ids), n_factors))
    p, q = table[:n_users], table[n_users:]
    p[user_codes] = rng.uniform(-0.01, 0.01, (len(user_ids), n_factors))
    q[item_codes] = rng.uniform(-0.01, 0.01, (len(item_ids), n_factors))
    p[:, USER_PINNED] = 1.0
    q[:, ITEM_PINNED] = 1.0

    started = time.monotonic()
    training_log: list[dict] = []
    best_rmse, best = np.inf, np.empty_like(table)
    consecutive_increases = 0
    prev_val = np.inf
    epoch = 0
    while True:
        # a diverging run overflows; it is reported below as a TrainingError
        with np.errstate(over="ignore", invalid="ignore"):
            # looked up as a module global, so a wrapper set on the module
            # sees every epoch; the order is not kept here, so the epoch can
            # let it go once it is sorted
            levels = sgd_epoch(
                p,
                q,
                train.users,
                train.items,
                train.ratings,
                fit_idx[_permutation(rng, len(fit_idx))],
                learning_rate,
                regularization,
            )
            val_rmse = _rmse(p, q, uu_val, ii_val, rr_val)
        if not np.isfinite(val_rmse):
            raise TrainingError(
                f"SGD diverged at epoch {epoch}: validation RMSE is {val_rmse}; "
                "lower learning_rate"
            )
        elapsed = time.monotonic() - started
        training_log.append(
            {"epoch": epoch, "val_rmse": val_rmse, "elapsed": elapsed, "levels": levels}
        )
        if val_rmse < best_rmse:  # always at epoch 0, since val_rmse is finite
            best_rmse = val_rmse
            np.copyto(best, table)
        consecutive_increases = consecutive_increases + 1 if val_rmse > prev_val else 0
        prev_val = val_rmse
        epoch += 1
        if consecutive_increases >= 3 or elapsed >= budget_seconds:
            break
        if max_epochs is not None and epoch >= max_epochs:
            break
    del table, p, q

    return FactorModel(
        n_factors=n_factors,
        learning_rate=learning_rate,
        regularization=regularization,
        seed=seed,
        user_ids=user_ids,
        item_ids=item_ids,
        user_factors=best[:n_users][user_codes],
        item_factors=best[n_users:][item_codes],
        training_log=training_log,
    )


def mf_item_similarity(model: FactorModel, k: int) -> SimilarityMatrix:
    """Pearson correlation between item factor vectors, top-K positive neighbors.

    Correlations are computed for one block of rows at a time, at most
    EXTRACT_BLOCK_BYTES of them, and ``block_top_n`` cuts each row to its
    top K, the diagonal never picked, before the next block; of those the
    correlations above SIM_EPS are kept. So neither items x items nor every
    row's candidates are ever held. The model's item ids must be sorted, as
    train_mf leaves them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = model.item_factors
    centered = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    safe = norms > 1e-12
    unit = np.zeros_like(centered)
    unit[safe] = centered[safe] / norms[safe, None]
    del centered, norms, safe  # only the unit rows are read below

    n = len(model.item_ids)
    block_rows = max(1, EXTRACT_BLOCK_BYTES // (8 * max(n, 1)))
    buffer = np.empty((block_rows, n))
    # no item lists itself, so a row keeps at most min(k, n - 1)
    indptr = np.zeros(n + 1, dtype=np.intp)
    indices = np.empty(n * min(k, max(n - 1, 0)), dtype=np.int32)
    weights = np.empty(len(indices))
    nnz = 0
    for start in range(0, n, block_rows):
        block = unit[start : start + block_rows]
        corr = np.matmul(block, unit.T, out=buffer[: len(block)])
        np.clip(corr, -1.0, 1.0, out=corr)
        local = np.arange(len(block))
        rows, cols = block_top_n(corr, k, (local, start + local))
        # the block now holds the negated correlations
        sims = np.negative(corr[rows, cols])
        positive = sims > SIM_EPS
        rows, cols, sims = rows[positive], cols[positive], sims[positive]
        counts = np.bincount(rows, minlength=len(block))
        indptr[start + 1 : start + len(block) + 1] = nnz + np.cumsum(counts)
        indices[nnz : nnz + len(cols)] = cols
        weights[nnz : nnz + len(cols)] = sims
        nnz += len(cols)
    # shrunk in place (a realloc), so the output is never held twice; no view of it is left
    indices.resize(nnz, refcheck=False)
    weights.resize(nnz, refcheck=False)
    return SimilarityMatrix(k, tuple(model.item_ids), indptr, indices, weights)


class MFPredictor(Predictor):
    """Clamped dot products over the segment model's item order; unknown
    users or items fall back to the default predictor."""

    name = "mf"

    def __init__(
        self,
        model: FactorModel,
        stats: SegmentModel,
        r_min: float = 1.0,
        r_max: float = 5.0,
    ):
        if tuple(model.item_ids) != stats.item_ids:
            raise ValueError("factor model items differ from the segment model's train items")
        self.model = model
        self.stats = stats
        self.r_min = r_min
        self.r_max = r_max
        self.fallback = DefaultPredictor(stats, r_min, r_max)
        # the catalog's item factors, zero outside train, and its positions
        # outside train: BLAS results depend on the layout, so gathering from
        # a product with all factors moves last bits
        self.catalog = self._aligned(stats.code_row)

    def _aligned(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The item factors of the given rows, zero at a -1, and the positions of the -1s."""
        outside = rows < 0
        factors = np.zeros((len(rows), self.model.n_factors))
        factors[~outside] = self.model.item_factors[rows[~outside]]
        return factors, np.flatnonzero(outside)

    def predict(self, user_id: str, item_id: str) -> float:
        u = code_of(self.model.user_ids, user_id)
        i = code_of(self.model.item_ids, item_id)
        if u < 0 or i < 0:
            return self.fallback.predict(user_id, item_id)
        raw = self.model.user_factors[u] @ self.model.item_factors[i]
        return float(min(max(raw, self.r_min), self.r_max))

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        u = code_of(self.model.user_ids, user_id)
        if u < 0:
            return self.fallback.predict_many(user_id, item_ids)
        if item_ids is self.stats.items:
            factors, outside = self.catalog
        else:
            factors, outside = self._aligned(self.stats.item_rows(item_ids))
        scores = factors @ self.model.user_factors[u]
        # the default predictor's score of an item outside train, before clipping
        scores[outside] = self.stats.user_mean(user_id)
        np.maximum(scores, self.r_min, out=scores)
        np.minimum(scores, self.r_max, out=scores)
        return scores

    def item_similarity_matrix(self, k: int) -> SimilarityMatrix:
        return mf_item_similarity(self.model, k)

    def config(self) -> dict:
        return {
            "F": self.model.n_factors,
            "learning_rate": self.model.learning_rate,
            "regularization": self.model.regularization,
            "seed": self.model.seed,
        }
