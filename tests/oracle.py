"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive: direct enumeration of pairs, full
sorts, one model.predict call per (user, item). Nothing is shared with the
library's own computation paths.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from recbench.baselines import DefaultPredictor
from recbench.knn import SIM_EPS, SimilarityMatrix


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


def naive_top_n(scores_by_item, n, seen=()):
    """Full sort by (-score, item_id) over unseen items."""
    ranked = sorted(
        ((item, score) for item, score in scores_by_item.items() if item not in seen),
        key=lambda t: (-t[1], t[0]),
    )
    return [item for item, _ in ranked[:n]]


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
    column = {item_id: c for c, item_id in enumerate(matrix.item_ids)}
    deviation = np.zeros(len(column))
    rated = np.zeros(len(column))
    for item_id, rating in user_ratings.get(user_id, {}).items():
        c = column.get(item_id)
        if c is not None:
            deviation[c] = rating - stats.item_means[item_id]
            rated[c] = 1.0
    num, den = w @ deviation, w @ rated
    default = DefaultPredictor(stats, r_min, r_max)
    scores = []
    for item_id in item_ids:
        c = column.get(item_id)
        if c is not None and den[c] > 0.0:
            scores.append(min(max(stats.item_means[item_id] + num[c] / den[c], r_min), r_max))
        else:
            scores.append(default.predict(user_id, item_id))
    return np.array(scores, dtype=float)


def naive_segment(user_count, user_threshold, item_count, item_threshold):
    u = "H" if user_count > user_threshold else "L"
    i = "P" if item_count > item_threshold else "U"
    return f"{u}user{i}item"


def naive_core_report(model, data, segments, top_n, exclude_seen=True):
    """Recompute the full core evaluation with per-pair predict calls.

    Returns {metric: {segment: (value, support)}} matching the library's
    table layout.
    """
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
    catalog = sorted({log.item_id for log in data.train + data.test})
    outcomes_by_user = {}
    for user_id in sorted({log.user_id for log in data.train + data.test}):
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
