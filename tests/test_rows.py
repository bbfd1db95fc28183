"""The per-user catalog rows of the KNN, MF and default predictors against
their references in ``oracle.py``, element for element (``np.array_equal``).

The generated fixtures hold items outside train, users outside train or
outside the model, single-rating users, clip bounds that both bind (so
scores tie at r_max), integer-typed means and weights, a similarity matrix
with no entries, and item sequences given as tuples, lists or empty.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from recbench.baselines import DefaultPredictor
from recbench.dataset import RatingLog, Ratings, build_segment_model
from recbench.knn import KnnPredictor
from recbench.mf import FactorModel, MFPredictor

# (r_min, r_max): the full scale, and bounds that integer means and ratings cross
BOUNDS = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.5)]


@st.composite
def row_cases(draw):
    """(rng, logs, a segment model of all but their last two, users to
    score, item sequences, r_min, r_max)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    items = [f"i{i:02d}" for i in range(draw(st.integers(1, 12)))]
    logs = [
        RatingLog(f"u{u}", item, float(rng.integers(1, 6)))
        for u in range(draw(st.integers(0, 6)))
        for item in items
        if rng.random() < 0.5
    ]
    # a single-rating user, sorted after the others: inside every model
    logs.append(RatingLog("w-single", items[-1], float(rng.integers(1, 6))))
    # "stranger", sorted first, rated a train item and one outside train:
    # both are in the id tables, and outside the segment model's train logs
    n = len(logs)
    logs += [RatingLog("stranger", items[-1], 5.0), RatingLog("stranger", "i-outside", 1.0)]
    logs = oracle.as_ratings(logs)
    columns = (logs.users[:n], logs.items[:n], logs.ratings[:n])
    stats = build_segment_model(Ratings(logs.user_ids, logs.item_ids, *columns))
    if draw(st.booleans()):  # integer means: arrays of int64 (0 without a train rating)
        stats = dataclasses.replace(
            stats,
            user_means=np.round(np.nan_to_num(stats.user_means)).astype(np.int64),
            item_means=np.round(np.nan_to_num(stats.item_means)).astype(np.int64),
            global_mean=round(stats.global_mean),
        )
    train = stats.item_ids
    catalog = tuple(sorted(set(train) | {"i-outside", "a-outside"}))
    picks = rng.integers(0, len(catalog), 6).tolist()
    sequences = (
        catalog,
        train,
        [catalog[c] for c in picks] + ["x-outside"],
        tuple(catalog[c] for c in picks),
        [],
        (),
    )
    users = [*stats.users, "cold"]  # each of stats.users but "stranger" has a train rating
    r_min, r_max = draw(st.sampled_from(BOUNDS))
    return rng, logs, stats, users, sequences, r_min, r_max


class TestDefaultRow:
    @settings(max_examples=60, deadline=None)
    @given(row_cases())
    def test_matches_reference(self, case):
        _, _, stats, users, sequences, r_min, r_max = case
        model = DefaultPredictor(stats, r_min, r_max)
        for user in users:
            for item_ids in sequences:
                want = oracle.default_scores(stats, user, item_ids, r_min, r_max)
                assert np.array_equal(model.predict_many(user, item_ids), want)


class TestKnnRow:
    @settings(max_examples=60, deadline=None)
    @given(row_cases(), st.integers(1, 6), st.booleans(), st.booleans())
    def test_matches_matvec_reference(self, case, k, int_weights, empty):
        rng, logs, stats, users, sequences, r_min, r_max = case
        train = stats.item_ids
        # few weight levels, so neighbors tie; integer ones give int64 weights
        levels = [1, 2, 3] if int_weights else 10.0 ** rng.uniform(-3, 0, 3)
        lists = {}
        for i in train if not empty else ():
            weighted = [(j, rng.choice(levels).item()) for j in train if j != i and rng.random() < 0.6]
            lists[i] = sorted(weighted, key=lambda t: (-t[1], t[0]))[:k]
        matrix = oracle.similarity_matrix(k, lists, train)
        if int_weights:
            matrix = dataclasses.replace(matrix, weights=matrix.weights.astype(np.int64))
        # the model reads every log but those of users[1], the first train
        # user; "stranger" is outside train, and rated an item outside train too
        read = logs.users != 1  # users[1]'s code
        columns = (logs.users[read], logs.items[read], logs.ratings[read])
        logs = Ratings(logs.user_ids, logs.item_ids, *columns)
        ratings = oracle.user_ratings_index(logs)
        assert users[1] not in ratings and "stranger" in ratings
        model = KnnPredictor(matrix, stats, logs, r_min, r_max)
        for user in users + ["stranger"]:
            for item_ids in sequences:
                want = oracle.matvec_knn_scores(matrix, stats, ratings, user, item_ids, r_min, r_max)
                assert np.array_equal(model.predict_many(user, item_ids), want)


class TestMfRow:
    @settings(max_examples=60, deadline=None)
    @given(row_cases(), st.integers(3, 6))
    def test_matches_gathered_reference(self, case, f):
        rng, _, stats, users, sequences, r_min, r_max = case
        # the first train user is outside the model, "stranger" outside
        # train; sorted, as FactorModel requires
        model_users = sorted(users[2:-1] + ["stranger"])
        # mixed scales, so raw scores cross both bounds
        model = FactorModel(
            n_factors=f,
            learning_rate=0.03,
            regularization=0.008,
            seed=0,
            user_ids=model_users,
            item_ids=list(stats.item_ids),
            user_factors=rng.normal(0.0, 2.0, (len(model_users), f)),
            item_factors=rng.normal(0.0, 2.0, (len(stats.item_ids), f)),
        )
        predictor = MFPredictor(model, stats, r_min, r_max)
        for user in users + ["stranger"]:
            for item_ids in sequences:
                want = oracle.gathered_mf_scores(model, stats, user, item_ids, r_min, r_max)
                assert np.array_equal(predictor.predict_many(user, item_ids), want)
