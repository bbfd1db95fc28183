"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive: direct enumeration of pairs, full
sorts, one model.predict call per (user, item). Nothing is shared with the
library's own computation paths. ``top_n`` is the per-row ranking that the
library's block ranking replaced, kept as its reference.
``nonzero_block_top_n``, ``default_scores``, ``gathered_mf_scores`` and
``dict_knn_predict`` are earlier bodies of library paths, kept as the
bit-for-bit references of the bodies that replaced them. So are the
record-based metrics (``RecommendationOutcome``, ``rmse``,
``precision_user``, ``ami_user``, ``aggregate_rmse`` and
``aggregate_discover``), which judged one object per test log or top-N
slot where the library now reduces arrays;
``per_cell_aggregate_discover`` judges each user with those per-user
measures one cell at a time. ``item_group_of`` gives the groups of
``synthetic.gen_clustered``'s items, which only tests read.
``as_ratings`` builds the Ratings of a list of RatingLog, which the
library's functions no longer take, through the loader's interning.
``uniform_logs``, ``planted_rank1_logs`` and ``clustered_logs`` are the
``synthetic`` generators as they were when they built a list of
``RatingLog``: ``as_ratings`` of each must equal the generator's Ratings.
``user_ratings_index`` is the user -> {item: rating} dict that
``KnnPredictor`` once took; the dict-reading references read it.
``naive_by_user`` is the (user, item) order of ``Ratings.by_user`` by a
sort of Python tuples. ``top_k_matrix`` cuts all of a matrix's entries to
each row's top K in one sort, as the KNN build did before its running top
K; the sparse-product and MF references build their matrices with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from recbench import mf
from recbench.dataset import SEGMENTS, RatingLog, Ratings, SegmentModel, _columns, code_of
from recbench.knn import _VAR_EPS, SIM_EPS, SimilarityMatrix
from recbench.metrics import GLOBAL, MetricTable
from recbench.synthetic import _item_id, _user_id


def as_ratings(logs) -> Ratings:
    """A sequence of RatingLog as a Ratings, each id coded as the loader codes it."""
    return _columns((log.user_id, log.item_id, log.rating) for log in logs)


def naive_rmse(pairs):
    """pairs: list of (true, predicted)."""
    if not pairs:
        return None
    return math.sqrt(sum((t - p) ** 2 for t, p in pairs) / len(pairs))


def naive_comp_pairs(pairs):
    """pairs: list of (true, predicted) for one user -> (compatible, counted)."""
    compatible = 0
    counted = 0
    for a in range(len(pairs)):
        for b in range(len(pairs)):
            if a >= b:
                continue
            ta, pa = pairs[a]
            tb, pb = pairs[b]
            if ta == tb:
                continue
            counted += 1
            true_sign = 1 if ta > tb else -1
            if pa > pb:
                pred_sign = 1
            elif pa < pb:
                pred_sign = -1
            else:
                pred_sign = 0
            if true_sign == pred_sign:
                compatible += 1
    return compatible, counted


def naive_precision(evaluable):
    """evaluable: list of (true_rating, user_mean)."""
    if not evaluable:
        return None
    relevant = [1 for r, mean in evaluable if r >= mean]
    return len(relevant) / len(evaluable)


def naive_ami(evaluable, catalog_size):
    """evaluable: list of (true_rating, user_mean, item_count); count 0 excluded."""
    usable = [(r, mean, c) for r, mean, c in evaluable if c > 0]
    if not usable:
        return None
    total = 0.0
    for r, mean, c in usable:
        if r > mean:
            s = 1
        elif r < mean:
            s = -1
        else:
            s = 0
        total += (1.0 / c) * s * catalog_size
    return total / len(usable)


def naive_macro(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


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


def rmse(scored):
    """Root mean squared error of ``metrics.ScoredLog`` records; None for none."""
    if not scored:
        return None
    total = math.fsum((s.true_rating - s.predicted_rating) ** 2 for s in scored)
    return math.sqrt(total / len(scored))


def _sign(x: float) -> int:
    return int(x > 0) - int(x < 0)


def precision_user(outcomes):
    """Fraction of evaluable outcomes whose rating is at least the user's mean."""
    evaluable = [o for o in outcomes if o.evaluable]
    if not evaluable:
        return None
    relevant = sum(1 for o in evaluable if o.true_rating >= o.user_mean)
    return relevant / len(evaluable)


def ami_user(outcomes):
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


def aggregate_rmse(scored):
    """The Decide table of a list of ``metrics.ScoredLog`` records."""
    table = MetricTable("Decide", "RMSE")
    table.cells[GLOBAL] = (rmse(scored), len(scored))
    for segment in SEGMENTS:
        cell = [s for s in scored if s.segment == segment]
        table.cells[segment] = (rmse(cell), len(cell))
    return table


def aggregate_discover(outcomes_by_user):
    """Precision and AMI tables, macro-averaged over users per segment cell,
    and the number of AMI-excluded outcomes, from {user: [outcome]}.

    One pass over the outcomes routes each evaluable one to Global and to
    its own cell, in the user's order.
    """
    cells = (GLOBAL,) + SEGMENTS
    precisions = {segment: [] for segment in cells}
    amis = {segment: [] for segment in cells}
    precision_support = dict.fromkeys(cells, 0)
    ami_support = dict.fromkeys(cells, 0)
    excluded = 0
    for user_outcomes in outcomes_by_user.values():
        evaluable = [o for o in user_outcomes if o.evaluable]
        by_segment = {}
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


def per_cell_aggregate_discover(outcomes_by_user):
    """``aggregate_discover`` one cell at a time: for each of Global
    and the four segments, every user's outcomes are filtered to the cell
    and judged by ``precision_user`` and ``ami_user``."""
    precision_table = MetricTable("Discover", "Precision")
    ami_table = MetricTable("Discover", "AMI")
    excluded = 0
    for segment in (GLOBAL,) + SEGMENTS:
        precisions = []
        amis = []
        precision_support = 0
        ami_support = 0
        for user_outcomes in outcomes_by_user.values():
            cell = [o for o in user_outcomes if segment == GLOBAL or o.segment == segment]
            p = precision_user(cell)
            if p is not None:
                precisions.append(p)
                precision_support += sum(1 for o in cell if o.evaluable)
            a = ami_user(cell)
            if a is not None:
                amis.append(a)
                ami_support += sum(1 for o in cell if o.evaluable and o.item_count > 0)
            if segment == GLOBAL:
                excluded += sum(1 for o in cell if o.evaluable and o.item_count == 0)
        precision_table.cells[segment] = (
            (math.fsum(precisions) / len(precisions), precision_support)
            if precisions
            else (None, 0)
        )
        ami_table.cells[segment] = (
            (math.fsum(amis) / len(amis), ami_support) if amis else (None, 0)
        )
    return precision_table, ami_table, excluded


def naive_top_n(scores_by_item, n, seen=()):
    """Full sort by (-score, item_id) over unseen items."""
    ranked = sorted(
        ((item, score) for item, score in scores_by_item.items() if item not in seen),
        key=lambda t: (-t[1], t[0]),
    )
    return [item for item, _ in ranked[:n]]


def top_n(scores, n, seen=()):
    """Positions of the ``n`` highest scores of one row, ties by ascending
    position: the per-row reference for ``knn.block_top_n``.

    Positions in ``seen`` are never picked, nor -inf scores, so fewer than
    ``n`` come back when the rest run out. Only the candidates at or above
    the n-th highest score are sorted.
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


def nonzero_block_top_n(scores, n, seen):
    """``knn.block_top_n`` as it was before it packed each row's candidates:
    a 2-D ``np.nonzero`` of the candidate mask, a gather of the keys by
    (row, column) and one ``lexsort`` by (row, key). The packed per-row
    sort must return the same pairs."""
    neg = np.negative(scores)
    neg[seen] = np.inf
    kth = np.partition(neg, n - 1, axis=1)[:, n - 1, None] if n < neg.shape[1] else np.inf
    rows, cols = np.nonzero(~(neg > kth))
    keys = neg[rows, cols]
    order = np.lexsort((keys, rows))
    rows, cols, keys = rows[order], cols[order], keys[order]
    first = np.arange(len(rows)) - np.searchsorted(rows, rows) < n
    keep = first & (keys != np.inf)
    return rows[keep], cols[keep]


def naive_sgd_epoch(p, q, uu, ii, rr, order, lr, reg):
    """One in-place SGD pass, one rating at a time in ``order``, skipping
    the pinned slots (user coordinate 0, item coordinate 1)."""
    for n in order:
        u = uu[n]
        i = ii[n]
        pu = p[u]
        qi = q[i]
        err = rr[n] - pu @ qi
        pu_old = pu.copy()
        pu[1:] += lr * (err * qi[1:] - reg * pu[1:])
        qi[0] += lr * (err * pu_old[0] - reg * qi[0])
        qi[2:] += lr * (err * pu_old[2:] - reg * qi[2:])


def naive_sgd_levels(users, items):
    """Each update's level, from 1: one more than the highest level of an
    earlier update on the same user or the same item, by a scan of every
    earlier update."""
    levels = []
    for b in range(len(users)):
        earlier = [
            levels[a] for a in range(b) if users[a] == users[b] or items[a] == items[b]
        ]
        levels.append(1 + max(earlier, default=0))
    return levels


def naive_mf_item_similarity(model, k):
    """Dense items x items Pearson of the item factors -> {item: [(neighbor, sim)]}.

    Each row keeps its top-``k`` by (-sim, column) among the correlations
    above SIM_EPS, with the diagonal zeroed.
    """
    m = model.item_factors
    centered = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    safe = norms > 1e-12
    unit = np.zeros_like(centered)
    unit[safe] = centered[safe] / norms[safe, None]
    corr = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(corr, 0.0)
    item_ids = model.item_ids
    neighbors = {}
    for row, item_id in enumerate(item_ids):
        sims = corr[row]
        order = np.argsort(-sims, kind="stable")[:k]
        neighbors[item_id] = [
            (item_ids[col], float(sims[col])) for col in order if sims[col] > SIM_EPS
        ]
    return neighbors


def top_k_matrix(k, item_ids, rows, cols, weights):
    """The SimilarityMatrix of each row's first ``k`` of the given entries
    by (-weight, column), ordered at once by ``np.lexsort``: how the KNN
    build cut its similar pairs before it kept a running top K."""
    order = np.lexsort((cols, -weights, rows))
    ranked_rows = rows[order]
    kept = order[np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows) < k]
    counts = np.minimum(np.bincount(rows, minlength=len(item_ids)), k)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SimilarityMatrix(k, tuple(item_ids), indptr, cols[kept], weights[kept])


def blocked_mf_item_similarity(model, k):
    """``mf.mf_item_similarity`` as it was before it cut each block's rows
    to K: the same correlation blocks (of ``mf.EXTRACT_BLOCK_BYTES``, read
    at call time), every block's candidates gathered, then ordered and cut
    at once by ``top_k_matrix``. The extraction must equal it bit for bit."""
    m = model.item_factors
    centered = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    safe = norms > 1e-12
    unit = np.zeros_like(centered)
    unit[safe] = centered[safe] / norms[safe, None]

    n = len(model.item_ids)
    kth = max(n - k, 0)
    block_rows = max(1, mf.EXTRACT_BLOCK_BYTES // (8 * max(n, 1)))
    buffer = np.empty((block_rows, n))
    # (row, column, correlation) of the candidates, one triple of arrays per block
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for start in range(0, n, block_rows):
        block = unit[start : start + block_rows]
        corr = np.matmul(block, unit.T, out=buffer[: len(block)])
        np.clip(corr, -1.0, 1.0, out=corr)
        local = np.arange(len(block))
        corr[local, start + local] = 0.0
        floors = np.array([np.partition(sims, kth)[kth] for sims in corr])
        # a row's candidates: its positive correlations at or above its k-th largest
        r, c = np.nonzero((corr >= floors[:, None]) & (corr > SIM_EPS))
        found.append((r + start, c, corr[r, c]))
    rows, cols, sims = (np.concatenate(part) for part in zip(*found))
    return top_k_matrix(k, model.item_ids, rows, cols, sims)


def naive_runs(starts, lengths):
    """The positions of each run r, starts[r] to starts[r] + lengths[r] - 1,
    one run after the other, as a list: the reference for ``knn._runs``."""
    return [start + k for start, length in zip(starts, lengths) for k in range(length)]


def similarity_matrix(k, lists, item_ids):
    """A SimilarityMatrix over the sorted ``item_ids`` from hand-made lists
    ``{item: [(neighbor, weight), ...]}``, each list kept in the order given."""
    item_ids = tuple(sorted(item_ids))
    column = {item_id: n for n, item_id in enumerate(item_ids)}
    rows = [lists.get(item_id, []) for item_id in item_ids]
    return SimilarityMatrix(
        k,
        item_ids,
        np.cumsum([0] + [len(row) for row in rows]),
        np.array([column[j] for row in rows for j, _ in row], dtype=np.intp),
        np.array([w for row in rows for _, w in row], dtype=float),
    )


def sparse_similarity_matrix(train, k, gamma):
    """Top-K Weighted Pearson neighbors from whole-catalog sparse products.

    scipy's row-wise product adds each co-rating sum over the common raters
    in ascending rater order, so ``build_similarity_matrix`` must match
    this bit for bit.
    """
    _, rows = np.unique(train.users, return_inverse=True)
    codes, cols = np.unique(train.items, return_inverse=True)
    items = [train.item_ids[c] for c in codes.tolist()]
    shape = (rows.max() + 1, len(items))
    r = sp.csr_matrix((train.ratings, (rows, cols)), shape=shape)
    b = sp.csr_matrix((np.ones(len(train)), (rows, cols)), shape=shape)
    r2 = r.multiply(r).tocsr()
    rt, bt, r2t = r.T.tocsr(), b.T.tocsr(), r2.T.tocsr()

    co = sp.triu(bt @ b, k=1).tocoo()  # common-rater counts of the pairs i < j
    mask = co.data >= 2
    i, j, n = co.row[mask], co.col[mask], co.data[mask]

    def entries(product):
        product = product.tocsc()
        return np.array([product[a, b] for a, b in zip(i.tolist(), j.tolist())], dtype=float)

    sum_xy, sum_x, sum_y = entries(rt @ r), entries(rt @ b), entries(bt @ r)
    sum_x2, sum_y2 = entries(r2t @ b), entries(bt @ r2)
    cov = sum_xy - sum_x * sum_y / n
    var_x = sum_x2 - sum_x**2 / n
    var_y = sum_y2 - sum_y**2 / n
    valid = (var_x > _VAR_EPS) & (var_y > _VAR_EPS)
    sim = np.zeros(len(n))
    sim[valid] = cov[valid] / np.sqrt(var_x[valid] * var_y[valid])
    sim = np.clip(sim, -1.0, 1.0) * np.minimum(n, gamma) / gamma
    keep = sim > SIM_EPS
    i, j, sim = i[keep], j[keep], sim[keep]
    return top_k_matrix(
        k, items, np.concatenate((i, j)), np.concatenate((j, i)), np.tile(sim, 2)
    )


def user_ratings_index(logs):
    """The logs as user -> {item: rating}; of a repeated pair, the last rating."""
    index = {}
    for log in logs:
        index.setdefault(log.user_id, {})[log.item_id] = log.rating
    return index


def weight_matrix(matrix):
    """The matrix as a scipy CSR built from coordinates: each row lists its
    columns in ascending order, so a product sums them in that order."""
    n = len(matrix.item_ids)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    return sp.csr_matrix((matrix.weights, (rows, matrix.indices)), shape=(n, n))


def matvec_knn_scores(matrix, stats, user_ratings, user_id, item_ids, r_min=1.0, r_max=5.0):
    """KNN scores of ``item_ids`` from two products with the whole weight
    matrix: W @ deviations and W @ rated-indicator, dense over the train
    items. Items without a rated neighbor, items outside train and users
    without ratings get the default predictor's score."""
    w = weight_matrix(matrix)
    item_means = segment_dicts(stats).item_means
    column = {item_id: c for c, item_id in enumerate(matrix.item_ids)}
    deviation = np.zeros(len(column))
    rated = np.zeros(len(column))
    for item_id, rating in user_ratings.get(user_id, {}).items():
        c = column.get(item_id)
        if c is not None:
            deviation[c] = rating - item_means[item_id]
            rated[c] = 1.0
    num, den = w @ deviation, w @ rated
    default = default_scores(stats, user_id, item_ids, r_min, r_max)
    scores = []
    for item_id, fallback in zip(item_ids, default.tolist()):
        c = column.get(item_id)
        if c is not None and den[c] > 0.0:
            scores.append(min(max(item_means[item_id] + num[c] / den[c], r_min), r_max))
        else:
            scores.append(fallback)
    return np.array(scores, dtype=float)


def dict_knn_predict(matrix, stats, user_ratings, user_id, item_id, r_min=1.0, r_max=5.0):
    """``KnnPredictor.predict`` as it was when the predictor kept the
    ``user_ratings`` dict: the item's neighbors in the row's order, each
    the user rated adding w * (r_uj - mean_j), read from the dict. Without
    a positive sum of weights, the default predictor's score. The scalar
    ``predict`` must equal it bit for bit."""
    rated = user_ratings.get(user_id)
    column = {item: c for c, item in enumerate(matrix.item_ids)}
    r = column.get(item_id)
    if rated and r is not None:
        means = stats.row_means
        a, b = matrix.indptr[r], matrix.indptr[r + 1]
        num = den = 0.0
        for j, weight in zip(matrix.indices[a:b].tolist(), matrix.weights[a:b].tolist()):
            r_uj = rated.get(matrix.item_ids[j])
            if r_uj is None or weight <= 0.0:
                continue
            num += weight * (r_uj - means[j])
            den += weight
        if den > 0.0:
            return float(min(max(means[r] + num / den, r_min), r_max))
    return float(default_scores(stats, user_id, [item_id], r_min, r_max)[0])


def default_scores(stats, user_id, item_ids, r_min=1.0, r_max=5.0):
    """``DefaultPredictor.predict_many`` as it was before it built one row
    over the train items: the item means gathered over ``item_ids``, the
    fallbacks put in by ``np.where``, then ``np.clip``. The row must equal
    it bit for bit."""
    rows = stats.item_rows(item_ids)
    known = rows >= 0
    means = stats.row_means[rows]
    um = segment_dicts(stats).user_means.get(user_id)
    if um is None:
        scores = np.where(known, means, stats.global_mean)
    else:
        scores = np.where(known, (means + um) / 2.0, um)
    return np.clip(scores, r_min, r_max)


def gathered_mf_scores(model, stats, user_id, item_ids, r_min=1.0, r_max=5.0):
    """``MFPredictor.predict_many`` as it was before it clipped in place: the
    same gemv over the item factors gathered in ``item_ids``' order, then
    the default predictor's scores over the whole row, and ``np.where``
    between the two."""
    fallback = default_scores(stats, user_id, item_ids, r_min, r_max)
    u = code_of(model.user_ids, user_id)
    if u < 0:
        return fallback
    rows = stats.item_rows(item_ids)
    known = rows >= 0
    factors = np.zeros((len(rows), model.n_factors))
    factors[known] = model.item_factors[rows[known]]
    raw = factors @ model.user_factors[u]
    return np.where(known, np.clip(raw, r_min, r_max), fallback)


def naive_segment(user_count, user_threshold, item_count, item_threshold):
    u = "H" if user_count > user_threshold else "L"
    i = "P" if item_count > item_threshold else "U"
    return f"{u}user{i}item"


def naive_core_report(model, data, segments, top_n, exclude_seen=True):
    """Recompute the full core evaluation with per-pair predict calls.

    Returns {metric: {segment: (value, support)}} matching the library's
    table layout.
    """
    segments = segment_dicts(segments)
    train_by_user = {}
    for log in data.train:
        train_by_user.setdefault(log.user_id, set()).add(log.item_id)
    test_by_user = {}
    for log in data.test:
        test_by_user.setdefault(log.user_id, {})[log.item_id] = log.rating

    # Decide
    scored = []
    for log in data.test:
        pred = model.predict(log.user_id, log.item_id)
        seg = naive_segment(
            segments.user_counts.get(log.user_id, 0),
            segments.user_threshold,
            segments.item_counts.get(log.item_id, 0),
            segments.item_threshold,
        )
        scored.append((log.user_id, seg, log.rating, pred))
    segs = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem")
    rmse_cells = {"Global": (naive_rmse([(t, p) for _, _, t, p in scored]), len(scored))}
    for seg in segs:
        cell = [(t, p) for _, s, t, p in scored if s == seg]
        rmse_cells[seg] = (naive_rmse(cell), len(cell))

    # Compare
    per_user = {}
    for user_id in sorted({u for u, _, _, _ in scored}):
        pairs = [(t, p) for u, _, t, p in scored if u == user_id]
        per_user[user_id] = naive_comp_pairs(pairs)
    comp_macro_cells = {}
    comp_micro_cells = {}
    for seg in ("Global", "Huser", "Luser"):
        users = [
            u
            for u in per_user
            if seg == "Global"
            or ("H" if segments.user_counts.get(u, 0) > segments.user_threshold else "L")
            == seg[0]
        ]
        ratios = [per_user[u][0] / per_user[u][1] for u in users if per_user[u][1] > 0]
        pooled_c = sum(per_user[u][0] for u in users)
        pooled_n = sum(per_user[u][1] for u in users)
        comp_macro_cells[seg] = (naive_macro(ratios), len(ratios))
        comp_micro_cells[seg] = (
            (pooled_c / pooled_n, pooled_n) if pooled_n else (None, 0)
        )

    # Discover
    catalog = sorted({log.item_id for log in [*data.train, *data.test]})
    outcomes_by_user = {}
    for user_id in sorted({log.user_id for log in [*data.train, *data.test]}):
        seen = train_by_user.get(user_id, set()) if exclude_seen else set()
        scores = {i: model.predict(user_id, i) for i in catalog}
        top = naive_top_n(scores, top_n, seen)
        user_mean = segments.user_means.get(user_id, segments.global_mean)
        outcomes = []
        for item in top:
            true = test_by_user.get(user_id, {}).get(item)
            seg = naive_segment(
                segments.user_counts.get(user_id, 0),
                segments.user_threshold,
                segments.item_counts.get(item, 0),
                segments.item_threshold,
            )
            outcomes.append((item, true, user_mean, segments.item_counts.get(item, 0), seg))
        outcomes_by_user[user_id] = outcomes

    precision_cells = {}
    ami_cells = {}
    for seg in ("Global",) + segs:
        precisions = []
        amis = []
        p_support = 0
        a_support = 0
        for outcomes in outcomes_by_user.values():
            cell = [o for o in outcomes if seg == "Global" or o[4] == seg]
            evaluable = [(t, m) for _, t, m, _, _ in cell if t is not None]
            p = naive_precision(evaluable)
            if p is not None:
                precisions.append(p)
                p_support += len(evaluable)
            eval_counts = [(t, m, c) for _, t, m, c, _ in cell if t is not None]
            a = naive_ami(eval_counts, len(catalog))
            if a is not None:
                amis.append(a)
                a_support += len([1 for t, m, c in eval_counts if c > 0])
        precision_cells[seg] = (naive_macro(precisions), p_support) if precisions else (None, 0)
        ami_cells[seg] = (naive_macro(amis), a_support) if amis else (None, 0)

    return {
        "RMSE": rmse_cells,
        "COMP_macro": comp_macro_cells,
        "COMP_micro": comp_micro_cells,
        "Precision": precision_cells,
        "AMI": ami_cells,
    }


def naive_dedupe(logs):
    """Keep the last occurrence of each (user, item) pair, at the position
    of its first -> (logs, dropped duplicates)."""
    by_key = {}
    for log in logs:
        by_key[(log.user_id, log.item_id)] = log
    return list(by_key.values()), len(logs) - len(by_key)


def naive_by_user(logs: Ratings):
    """``Ratings.by_user`` by brute force -> (the log positions sorted by
    (user code, item code, position), each user code's number of logs)."""
    users, items = logs.users.tolist(), logs.items.tolist()
    order = sorted(range(len(users)), key=lambda k: (users[k], items[k], k))
    return order, [users.count(u) for u in range(len(logs.user_ids))]


def naive_split(logs, ratio, seed):
    """Each log to train with probability ``ratio``, one draw per log in
    order -> (train, test, sorted user ids, sorted item ids)."""
    rng = np.random.default_rng(seed)
    draws = rng.random(len(logs))
    train = [log for log, d in zip(logs, draws) if d < ratio]
    test = [log for log, d in zip(logs, draws) if d >= ratio]
    users = tuple(sorted({log.user_id for log in logs}))
    items = tuple(sorted({log.item_id for log in logs}))
    return train, test, users, items


@dataclass
class NaiveSegments:
    """A segment model in dict form, keyed by id: the counts and means of
    the ids with a train rating."""

    user_threshold: float
    item_threshold: float
    user_counts: dict[str, int]
    item_counts: dict[str, int]
    user_means: dict[str, float]
    item_means: dict[str, float]
    global_mean: float


def segment_dicts(model: SegmentModel) -> NaiveSegments:
    """A SegmentModel's arrays in dict form, one id at a time; integer and
    float arrays give Python ints and floats."""

    def by_id(table, counts, means):
        present = [c for c in range(len(table)) if counts[c] > 0]
        return (
            {table[c]: counts[c].item() for c in present},
            {table[c]: means[c].item() for c in present},
        )

    user_counts, user_means = by_id(model.users, model.user_counts, model.user_means)
    item_counts, item_means = by_id(model.items, model.item_counts, model.item_means)
    return NaiveSegments(
        model.user_threshold,
        model.item_threshold,
        user_counts,
        item_counts,
        user_means,
        item_means,
        model.global_mean,
    )


def naive_segment_model(train):
    """Counts, means and thresholds with one running sum per id, in log order."""
    user_counts = {}
    item_counts = {}
    user_sums = {}
    item_sums = {}
    total = 0.0
    for log in train:
        user_counts[log.user_id] = user_counts.get(log.user_id, 0) + 1
        item_counts[log.item_id] = item_counts.get(log.item_id, 0) + 1
        user_sums[log.user_id] = user_sums.get(log.user_id, 0.0) + log.rating
        item_sums[log.item_id] = item_sums.get(log.item_id, 0.0) + log.rating
        total += log.rating
    user_means = {u: user_sums[u] / user_counts[u] for u in user_counts}
    item_means = {i: item_sums[i] / item_counts[i] for i in item_counts}
    return NaiveSegments(
        user_threshold=len(train) / len(user_counts),
        item_threshold=len(train) / len(item_counts),
        user_counts=user_counts,
        item_counts=item_counts,
        user_means=user_means,
        item_means=item_means,
        global_mean=total / len(train),
    )


def item_group_of(n_items, n_groups):
    """Item id -> group index, as ``synthetic.gen_clustered`` assigns them:
    group g holds items [g * n_items / n_groups, (g+1) * n_items / n_groups)."""
    return {_item_id(i): i * n_groups // n_items for i in range(n_items)}


def uniform_logs(n_users, n_items, density, seed):
    """``synthetic.gen_uniform`` as a list of RatingLog."""
    rng = np.random.default_rng(seed)
    picks = rng.random((n_users, n_items)) < density
    levels = rng.integers(1, 6, size=(n_users, n_items))
    return [
        RatingLog(_user_id(u), _item_id(i), float(levels[u, i]))
        for u, i in zip(*np.nonzero(picks))
    ]


def planted_rank1_logs(n_users, n_items, density, seed):
    """``synthetic.gen_planted_rank1`` as a list of RatingLog."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.2, n_users)
    b = rng.uniform(1.0, 2.2, n_items)
    picks = rng.random((n_users, n_items)) < density
    ratings = np.clip(np.round(np.outer(a, b)), 1.0, 5.0)
    return [
        RatingLog(_user_id(u), _item_id(i), float(ratings[u, i]))
        for u, i in zip(*np.nonzero(picks))
    ]


def clustered_logs(n_users, n_items, n_groups, density, seed):
    """``synthetic.gen_clustered`` as a list of RatingLog."""
    rng = np.random.default_rng(seed)
    prefs = rng.integers(1, 6, size=(n_users, n_groups)).astype(float)
    group_of = (np.arange(n_items) * n_groups) // n_items
    picks = rng.random((n_users, n_items)) < density
    return [
        RatingLog(_user_id(u), _item_id(i), float(prefs[u, group_of[i]]))
        for u, i in zip(*np.nonzero(picks))
    ]


def one_sort_transpose(matrix):
    """(col_ptr, col_rows, col_weights) of a SimilarityMatrix's column-major
    form, by one stable sort of all its entries by column: each column lists
    its rows ascending."""
    n = len(matrix.item_ids)
    by_col = np.argsort(matrix.indices, kind="stable")
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(matrix.indices, minlength=n))))
    return col_ptr, rows[by_col], matrix.weights[by_col]
