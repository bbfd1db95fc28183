"""Item-item KNN: Weighted Pearson similarity, top-K matrix, rating prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import DefaultPredictor, Predictor
from . import dataset
from .dataset import Ratings, SegmentModel, blocks, code_of, dense_codes, stable_order

_VAR_EPS = 1e-12
# Similarities this close to zero are numerical noise, not real signal;
# the positivity filter must agree between the naive and vectorized routes.
SIM_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Top-K neighbor lists of the catalog's items, as CSR arrays.

    Row r lists item_ids[r]'s neighbors, ``indices`` and ``weights`` from
    ``indptr[r]`` to ``indptr[r + 1]``, by descending weight, then ascending
    column (= item id); an item without a train rating has none. No item
    lists itself; only weights above SIM_EPS.
    """

    k: int
    item_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.item_ids, self.item_ids[1:])):
            raise ValueError("similarity matrix item_ids must be sorted and distinct")

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
        kept = np.minimum(np.diff(self.indptr), k)  # a row's first k are its top k
        at = _runs(self.indptr[:-1], kept)
        indptr = np.concatenate(([0], np.cumsum(kept)))
        return SimilarityMatrix(k, self.item_ids, indptr, self.indices[at], self.weights[at])


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
    positions = (starts - offsets).repeat(lengths)
    positions += np.arange(len(positions))
    return positions


def block_top_n(
    scores: np.ndarray, n: int, seen: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) of the ``n`` highest scores of each row of a block,
    rows ascending, each row's best first and its ties by ascending position.

    The (row, position) pairs in ``seen`` and -inf scores are never picked,
    so a row yields fewer than ``n`` when the rest run out; NaN scores rank
    after every other. Only each row's candidates at or above its n-th
    highest score are sorted. The block is ranked in place: it is left
    holding its negation, with +inf at the ``seen`` cells.
    """
    neg = np.negative(scores, out=scores)
    neg[seen] = np.inf
    # each row's n-th lowest, copied out so that the partitioned block goes at once
    kth = np.partition(neg, n - 1, axis=1)[:, n - 1, None].copy() if n < neg.shape[1] else np.inf
    # not `neg <= kth`: NaN scores stay candidates, and sort last as in a full sort
    at = np.flatnonzero(~(neg > kth))
    counts = np.bincount(at // neg.shape[1], minlength=len(neg))
    # each row's candidates packed by ascending position into one row, padded
    # with NaN, which a stable sort puts after every key, a NaN score's too
    packed = np.full((len(neg), counts.max(initial=0)), np.nan)
    packed[np.arange(packed.shape[1]) < counts[:, None]] = neg.ravel()[at]
    order = np.argsort(packed, axis=1, kind="stable")[:, :n]
    del packed
    # each row's first n, as indices into the candidates row after row: a row
    # has at least n candidates, or all m, so no pad is among them
    at = at[(order + (np.cumsum(counts) - counts)[:, None]).ravel()]
    # a +inf key (seen, or a -inf score) may take a slot but is never picked
    return np.divmod(at[neg.ravel()[at] != np.inf], neg.shape[1])


def _entry_order(rows, cols, weights, n: int) -> np.ndarray:
    """The order of entries by (row, -weight, column), as ``np.lexsort((cols,
    -weights, rows))`` gives it, for distinct (row, column) pairs, columns
    below n and weights that are not NaN.

    It is one argsort of an int64 key, (row, rank of -weight, column), which
    is unique, so any sort gives this order: 103 against 426 ns an entry
    for ``np.lexsort`` on 3M random entries. Where the key could overflow,
    it is ``np.lexsort``."""
    if not len(rows):
        return np.zeros(0, np.intp)
    # each weight's rank from the highest, equal weights equal
    by_weight = np.argsort(weights)[::-1]
    ranked = weights[by_weight]
    steps = ranked[1:] != ranked[:-1]
    del ranked
    key = np.empty(len(rows), np.int64)
    key[by_weight[0]] = 0
    key[by_weight[1:]] = np.cumsum(steps)
    del by_weight, steps
    levels = int(key.max()) + 1
    if (int(rows.max()) + 1) * levels * n >= 2**63:
        return np.lexsort((cols, -weights, rows))
    key += rows.astype(np.int64) * levels
    key *= n
    key += cols
    return np.argsort(key)


def build_similarity_matrix(train: Ratings, k: int, gamma: int = 50) -> SimilarityMatrix:
    """Top-K Weighted Pearson neighbors for every item of the train
    Ratings' item table, whose ``by_user`` order the build reads; an item
    without a train log gets an empty row.

    Co-rating statistics are summed over expanded pairs: each (item i,
    rater u) entry is paired with u's items j > i, so only co-rated pairs
    i < j are ever materialized, a block of them (``dataset.blocks``) at
    once. Items are taken in blocks of consecutive rows by their pairs; a
    heavier row is a block of its own and is expanded in chunks.
    A block's sums are held by cell: over the co-rated (row, column) cells
    of its pairs, found by counting, not sorting, first the columns the
    pairs touch and then the cells among the rows x those columns; a cell
    with one rater is not summed. A heavy row's sums are held over the
    columns from it on. So neither the items x items product nor a popular
    item's expanded pairs are held at once, and a block's work is that of
    its pairs, cells and the n columns. Each cell's sums add its terms in
    ascending rater order from 0.0, the order of a row-wise sparse product
    (Gustavson 1978), so the similarities are those of that product, bit
    for bit.

    Each block's pairs above SIM_EPS go, for both ends, into a running top
    K per row (_TopK), so the similar pairs are never held all at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    top = _TopK(k, len(train.item_ids))
    for first, second, sims, stop in _similar_pairs(train, gamma):
        top.add(first, second, sims, stop)
    return SimilarityMatrix(k, train.item_ids, *top.merged())


class _TopK:
    """Each row's top k entries by (-weight, column) of the similar pairs
    added so far, for both ends: those kept at the last merge, and those
    pending.

    The pending entries are merged in once there are more than a block of
    them (BLOCK_BYTES at 64 bytes each) and more than the kept ones of the rows
    still open, so merging costs O(entries added) in all; an entry that its
    row's k-th kept one beats is dropped as it comes. The top k of a union
    is the top k of the parts' top ks, since (-weight, column) orders a
    row's entries totally, so the result is that of one sort of all the
    entries, while only O(rows x k + BLOCK_BYTES) are held.
    The rows that get no more pairs are set aside at a merge, and not
    sorted again.
    """

    def __init__(self, k: int, n: int):
        self.k = k
        self.counts = np.zeros(n, np.intp)
        self.closed, self.done = 0, []  # rows below closed: their (columns, weights)
        self.cols, self.weights = np.empty(0, np.int32), np.empty(0)  # the open rows'
        # each open row's k-th kept weight, once it has k
        self.floor = np.full(n, -np.inf)
        self.pending, self.size = [], 0

    def add(self, first, second, weights, closed: int):
        """Adds the pairs (first, second) with their weights, to both rows;
        the rows below ``closed`` get no pairs after these."""
        rows, cols, weights = np.concatenate((first, second)), np.concatenate((second, first)), np.tile(weights, 2)
        # a row's pairs come by ascending column, (i, row) by block, then
        # (row, j), so an entry with its row's k-th weight loses their tie
        above = weights > np.take(self.floor, rows)
        self.pending.append((rows[above], cols[above], weights[above]))
        self.size += len(self.pending[-1][0])
        # a pending entry: its row, column and weight, and its merge's sort keys, 64 bytes
        if self.size > max(dataset.BLOCK_BYTES // 64, len(self.cols)):
            self.merge(closed)

    def merge(self, closed: int):
        """Merges the pending entries in; the rows below ``closed`` are set aside."""
        n = len(self.counts)
        rows = np.repeat(np.arange(self.closed, n, dtype=np.int32), self.counts[self.closed :])
        parts = [list(part) for part in zip((rows, self.cols, self.weights), *self.pending)]
        # only parts holds the entries, so that each part goes as its field is joined
        rows = self.cols = self.weights = None
        self.pending, self.size = [], 0
        rows, cols, weights = (np.concatenate(parts.pop(0)) for _ in range(3))
        # each row's first k entries by (-weight, column)
        order = _entry_order(rows, cols, weights, n)
        found = np.bincount(rows, minlength=n)
        del rows
        counts = np.minimum(found, self.k)
        order = order[_runs(np.cumsum(found) - found, counts)]
        cols, weights = cols[order], weights[order]
        del order
        self.counts[self.closed :] = counts[self.closed :]
        done = int(counts[self.closed : closed].sum())
        self.done.append((cols[:done].copy(), weights[:done].copy()))  # not views of the open rows
        self.closed = closed
        self.cols, self.weights = cols[done:], weights[done:]
        full = np.flatnonzero(counts[closed:] == self.k) + closed
        last = np.cumsum(counts[closed:])[full - closed] - 1
        self.floor[full] = self.weights[last]

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, weights) of every row's top k."""
        self.merge(len(self.counts))
        indptr = np.concatenate(([0], np.cumsum(self.counts)))
        return (indptr, *(np.concatenate(part) for part in zip(*self.done)))


def _similar_pairs(train: Ratings, gamma: int):
    """Yields for each block of item rows (i, j, similarity, stop): the
    pairs i < j of item codes with i in the block whose similarity is above
    SIM_EPS, and the row after the block. The full-length arrays go when
    the blocks end."""
    # user-major copy, by (user, item)
    order, user_ptr = train.by_user
    user_items = np.take(train.items, order)
    n = len(train.item_ids)
    # item-major entries, by (item, user) as the sort is stable: each one's
    # position in the copy plus one, where its pairs (its rater's items
    # after its item) start, and their number, as int32 where order is
    after = stable_order(user_items, n).astype(order.dtype)
    item_ptr = np.concatenate(([0], np.cumsum(np.bincount(user_items, minlength=n))))
    lengths = np.take(user_ptr[1:].astype(order.dtype), np.take(train.users, np.take(order, after)))
    after += 1
    lengths -= after
    user_ratings = np.take(train.ratings, order)
    # each row's pairs: the sum of its entries' lengths (reduceat reads an empty row as one)
    pairs = np.zeros(n, np.intp)
    rated = np.flatnonzero(np.diff(item_ptr))
    pairs[rated] = np.add.reduceat(lengths, item_ptr[rated], dtype=np.intp)

    # a pair: its position, column and cell codes, ratings and products, 64 bytes
    for start, stop in blocks(pairs, 64):
        # the block's entries: their rows, ratings and pairs' runs in the copy
        a, b = item_ptr[start], item_ptr[stop]
        block_after, block_lengths = after[a:b], lengths[a:b]
        block_x = np.take(user_ratings, block_after - 1)
        chunks = list(blocks(block_lengths, 64))  # 64 bytes a pair
        if len(chunks) == 1:
            pos = _runs(block_after, block_lengths)
            # the columns the pairs touch, then the cells (row, column) they
            # touch, a cell c being row c // width and column touched[c % width]
            touched, cols = dense_codes(np.take(user_items, pos), n)
            width = len(touched)
            rows = np.repeat(np.arange(stop - start) * width, np.diff(item_ptr[start : stop + 1]))
            cells, cell = dense_codes(np.repeat(rows, block_lengths) + cols, (stop - start) * width)
            del rows, cols
            count = np.bincount(cell)
            # the pairs of cells with two raters or more, the only ones kept
            paired = np.flatnonzero(np.take(count, cell) >= 2)
            x = np.repeat(block_x, block_lengths)[paired]
            y = np.take(user_ratings, pos[paired])
            cell = cell[paired]
            # bincount adds each cell's terms in input order, (i, rater, j),
            # from 0.0: by ascending rater
            sum_x, sum_y, sum_xy, sum_x2, sum_y2 = (
                np.bincount(cell, weights=terms, minlength=len(cells))
                for terms in (x, y, x * y, x * x, y * y)
            )
        else:  # one row, its cells over the columns from it on, in chunks
            touched = np.arange(start, n)
            width = len(touched)
            count = np.zeros(width, np.intp)
            sum_x, sum_y, sum_xy, sum_x2, sum_y2 = np.zeros((5, width))
            for c, d in chunks:
                pos = _runs(block_after[c:d], block_lengths[c:d])
                cell = np.take(user_items, pos) - np.intp(start)  # intp: add.at is faster
                x, y = np.repeat(block_x[c:d], block_lengths[c:d]), np.take(user_ratings, pos)
                # add.at adds in input order onto the sums so far: each
                # cell's terms by ascending rater
                count += np.bincount(cell, minlength=width)
                np.add.at(sum_x, cell, x)
                np.add.at(sum_y, cell, y)
                np.add.at(sum_xy, cell, x * y)
                np.add.at(sum_x2, cell, x * x)
                np.add.at(sum_y2, cell, y * y)
            cells = np.arange(width)
        kept = np.flatnonzero(count >= 2)
        count = count[kept].astype(float)
        cov = sum_xy[kept] - sum_x[kept] * sum_y[kept] / count
        # only a positive covariance can give a similarity above SIM_EPS
        at = np.flatnonzero(cov > 0)
        kept, count, cov = kept[at], count[at], cov[at]
        sum_x, sum_y = sum_x[kept], sum_y[kept]
        var_x = sum_x2[kept] - sum_x**2 / count
        var_y = sum_y2[kept] - sum_y**2 / count
        valid = (var_x > _VAR_EPS) & (var_y > _VAR_EPS)
        sim = np.zeros(len(count))
        sim[valid] = cov[valid] / np.sqrt(var_x[valid] * var_y[valid])
        sim = np.clip(sim, -1.0, 1.0) * np.minimum(count, gamma) / gamma
        positive = sim > SIM_EPS
        first, second = np.divmod(cells[kept[positive]], width)
        yield (first + start).astype(np.int32), touched[second].astype(np.int32), sim[positive], stop


def _transpose(matrix: SimilarityMatrix):
    """(col_len, col_ptr, col_rows, col_weights): column j lists the items
    i with j as a neighbor, ascending, with w_ij; col_rows is int32, as the
    matrix's indices are, so an entry takes 12 bytes.

    Filled one block of rows at a time: a stable order of the block's
    columns keeps its rows' order, and each entry goes to its column's next
    free position, so the columns are those of one stable sort of all the
    entries, while no entry-length order or sort buffer is held beside the
    two arrays."""
    n = len(matrix.item_ids)
    col_len = np.bincount(matrix.indices, minlength=n)
    col_ptr = np.concatenate(([0], np.cumsum(col_len)))
    col_rows, col_weights = np.empty(col_ptr[-1], np.int32), np.empty(col_ptr[-1])
    free = col_ptr[:-1].copy()
    for start, stop in blocks(np.diff(matrix.indptr), 64):  # an entry, and its gathers
        a, b = matrix.indptr[start], matrix.indptr[stop]  # a block of empty rows writes nothing
        cols = matrix.indices[a:b]
        by_col = stable_order(cols, n)
        counts = np.bincount(cols, minlength=n)
        # the k-th entry in the block's column order goes to its column's
        # next free position plus its rank among the block's entries of that
        # column, k less the block's entries of the columns before it
        at = (free - (np.cumsum(counts) - counts))[cols[by_col]]
        at += np.arange(b - a)
        free += counts
        rows = np.arange(start, stop, dtype=np.int32).repeat(np.diff(matrix.indptr[start : stop + 1]))
        col_rows[at] = rows[by_col]
        col_weights[at] = matrix.weights[a:b][by_col]
    return col_len, col_ptr, col_rows, col_weights


class KnnPredictor(Predictor):
    """Deviation-form prediction over the user's rated neighbors of the item.

    Falls back to the default predictor when no rated neighbor exists. The
    matrix must be over the segment model's catalog, listing no item
    without a train rating, and ``train`` coded in its id tables.

    The ratings are read as the users x catalog CSR of their deviations
    from the item means, rows by user code, built from ``train``'s codes; a
    rating of an item without a train rating is left out.
    ``train`` itself is kept, as ``self.train``, so that a caller can tell by
    identity which ratings the predictor reads.

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
        train: Ratings,
        r_min: float = 1.0,
        r_max: float = 5.0,
        gamma: int | None = None,
    ):
        if matrix.item_ids != stats.items:
            raise ValueError("similarity matrix items differ from the segment model's items")
        if (train.user_ids, train.item_ids) != (stats.users, stats.items):
            raise ValueError("train ratings use other id tables than the segment model")
        self.matrix = matrix
        self.stats = stats
        self.train = train
        self.r_min = r_min
        self.r_max = r_max
        self.gamma = gamma
        self.fallback = DefaultPredictor(stats, r_min, r_max)

        # the column form first, so that the users' CSR below fills what
        # the transpose's blocks leave
        self.col_len, self.col_ptr, self.col_rows, self.col_weights = _transpose(matrix)
        cold = stats.item_counts == 0
        if self.col_len[cold].any() or np.diff(matrix.indptr)[cold].any():
            raise ValueError("similarity matrix lists an item without a train rating")

        # the users x catalog CSR of deviations, each row's columns ascending
        order, self.user_ptr = train.by_user  # int32: gathered by np.take, which is faster
        cols = np.take(train.items, order)
        known = (~cold)[cols]
        if not known.all():  # ratings of items without a train rating are left out
            # a row's new bounds count the known logs before the old
            self.user_ptr = np.concatenate(([0], np.cumsum(known)))[self.user_ptr]
            order, cols = order[known], cols[known]
        del known
        if ((cols[1:] == cols[:-1]) & (np.diff(np.take(train.users, order)) == 0)).any():
            raise ValueError("train ratings repeat a (user, item) pair of a train item")
        self.user_cols, self.user_dev = cols, np.take(train.ratings, order)
        self.user_dev -= stats.item_means[cols]  # not np.take, which copies cols as intp

    def predict(self, user_id: str, item_id: str) -> float:
        user = code_of(self.stats.users, user_id)
        r = code_of(self.stats.items, item_id)
        # the user's CSR row: rated columns ascending, and their deviations
        c, d = (self.user_ptr[user], self.user_ptr[user + 1]) if user >= 0 else (0, 0)
        if r >= 0 and c < d:
            matrix, means = self.matrix, self.stats.item_means
            cols, devs = self.user_cols[c:d], self.user_dev[c:d]
            # the neighbors of the item that the user rated, in the row's order
            a, b = matrix.indptr[r], matrix.indptr[r + 1]
            neighbors = matrix.indices[a:b]
            at = np.searchsorted(cols, neighbors)
            rated = np.take(cols, at, mode="clip") == neighbors
            num = den = 0.0
            for weight, dev in zip(matrix.weights[a:b][rated].tolist(), devs[at[rated]].tolist()):
                if weight <= 0.0:
                    continue
                num += weight * dev
                den += weight
            if den > 0.0:
                return float(min(max(means[r] + num / den, self.r_min), self.r_max))
        return self.fallback.predict(user_id, item_id)

    def neighbor_sums(self, cols: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum_j w_ij * v_j, sum_j w_ij) over the given columns j, for every item i.

        ``cols`` must ascend; items that list none of them get (0, 0). The
        columns are read in chunks by their entries (``dataset.blocks``; a
        heavier column is a chunk of its own, with fewer entries than the
        sums have items): the first chunk's sums are bincounts, and each
        later chunk's terms are added onto them in input order, so every
        item's terms are added in ascending column order from 0.0, whatever the chunks.
        """
        lengths = self.col_len[cols]
        n = len(self.col_len)
        if not len(cols):
            return np.zeros(n), np.zeros(n)
        for a, b in blocks(lengths, 64):  # an entry: its position, row, weight and term
            entries = _runs(self.col_ptr[cols[a:b]], lengths[a:b])
            # intp once, for both sums: bincount and add.at would each cast int32
            targets = self.col_rows[entries].astype(np.intp)
            weights = self.col_weights[entries]
            del entries
            terms = values[a:b].repeat(lengths[a:b])
            terms *= weights
            if not a:
                # bincount adds each target's terms in input order: ascending column
                num = np.bincount(targets, weights=terms, minlength=n)
                den = np.bincount(targets, weights=weights, minlength=n)
            else:
                np.add.at(num, targets, terms)
                np.add.at(den, targets, weights)
        return num, den

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        # the default predictor's row, with the KNN score put over it
        # wherever a rated neighbor lists the item, then clipped
        row = self.fallback.catalog_row(user_id)
        user = code_of(self.stats.users, user_id)
        if user >= 0:
            a, b = self.user_ptr[user], self.user_ptr[user + 1]
            num, den = self.neighbor_sums(self.user_cols[a:b], self.user_dev[a:b])
            has_neighbors = den > 0.0
            # a 1 where no rated neighbor lists the item: never put in the row
            scores = num / np.where(has_neighbors, den, 1.0)
            scores += self.stats.item_means
            np.putmask(row[:-1], has_neighbors, scores)
        np.maximum(row, self.r_min, out=row)
        np.minimum(row, self.r_max, out=row)
        return self.fallback.read(row, item_ids)

    def item_similarity_matrix(self, k: int) -> SimilarityMatrix:
        return self.matrix.truncated(k)

    def config(self) -> dict:
        cfg = {"K": self.matrix.k}
        if self.gamma is not None:
            cfg["gamma"] = self.gamma
        return cfg
