from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from recbench.baselines import DefaultPredictor
from recbench.dataset import RatingLog, Ratings, build_segment_model, dense_codes, split
from recbench import knn
from recbench.knn import KnnPredictor, build_similarity_matrix, weighted_pearson
from recbench.mf import mf_item_similarity, train_mf
from recbench.synthetic import gen_clustered, gen_uniform


class TestWeightedPearson:
    def test_identical_vectors_full_support(self):
        ratings = {f"u{k}": float(1 + k % 5) for k in range(50)}
        assert weighted_pearson(ratings, dict(ratings), gamma=50) == pytest.approx(1.0)

    def test_shrunk_by_support(self):
        # Perfect correlation over 25 common users, gamma 50 -> 0.5.
        ratings = {f"u{k}": float(1 + k % 5) for k in range(25)}
        assert weighted_pearson(ratings, dict(ratings), gamma=50) == pytest.approx(0.5)

    def test_no_common_raters(self):
        assert weighted_pearson({"a": 3.0}, {"b": 3.0}, gamma=50) == 0.0

    def test_single_common_rater(self):
        assert weighted_pearson({"a": 3.0, "b": 2.0}, {"a": 4.0, "c": 1.0}) == 0.0

    def test_zero_variance_side(self):
        flat = {f"u{k}": 3.0 for k in range(10)}
        varied = {f"u{k}": float(1 + k % 5) for k in range(10)}
        assert weighted_pearson(flat, varied) == 0.0

    def test_anticorrelated(self):
        x = {f"u{k}": float(k) for k in range(10)}
        y = {f"u{k}": float(10 - k) for k in range(10)}
        assert weighted_pearson(x, y, gamma=10) == pytest.approx(-1.0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(2, 12)
            users = [f"u{k}" for k in range(n)]
            x = {u: float(rng.integers(1, 6)) for u in users}
            y = {u: float(rng.integers(1, 6)) for u in users}
            assert weighted_pearson(x, y) == pytest.approx(weighted_pearson(y, x), abs=1e-12)


def item_ratings(logs):
    index = {}
    for log in logs:
        index.setdefault(log.item_id, {})[log.user_id] = log.rating
    return index


class TestBuildSimilarityMatrix:
    def test_clone_items(self):
        # Two items with identical raters and ratings across 5 users.
        logs = []
        for k in range(5):
            r = float(1 + k)
            logs.append(RatingLog(f"u{k}", "a", r))
            logs.append(RatingLog(f"u{k}", "b", r))
        matrix = build_similarity_matrix(oracle.as_ratings(logs), k=3, gamma=50)
        assert matrix.neighbor_list("a") == [("b", pytest.approx(5 / 50))]
        assert matrix.neighbor_list("b") == [("a", pytest.approx(5 / 50))]

    def test_single_rater_item_empty_list(self):
        logs = [RatingLog("u0", "solo", 4.0), RatingLog("u1", "a", 3.0), RatingLog("u2", "a", 5.0)]
        matrix = build_similarity_matrix(oracle.as_ratings(logs), k=5)
        assert matrix.neighbor_list("solo") == []

    @pytest.mark.parametrize("gamma", [0, -5])
    def test_gamma_below_one_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            build_similarity_matrix(gen_uniform(20, 10, 0.5, seed=1), k=5, gamma=gamma)

    def test_no_self_neighbors_and_sorted(self):
        logs = gen_uniform(40, 15, 0.6, seed=2)
        matrix = build_similarity_matrix(logs, k=10, gamma=10)
        for item, lst in matrix.neighbors.items():
            assert item not in {n for n, _ in lst}
            weights = [w for _, w in lst]
            assert weights == sorted(weights, reverse=True)
            assert all(w > 0 for w in weights)
            assert len(lst) <= 10

    def test_matches_naive_weighted_pearson(self):
        logs = gen_uniform(30, 12, 0.5, seed=5)
        by_item = item_ratings(logs)
        matrix = build_similarity_matrix(logs, k=11, gamma=7)
        items = sorted(by_item)
        for i in items:
            expected = []
            for j in items:
                if j == i:
                    continue
                s = weighted_pearson(by_item[i], by_item[j], gamma=7)
                if s > 1e-9:
                    expected.append((j, s))
            expected.sort(key=lambda t: (-t[1], t[0]))
            got = matrix.neighbor_list(i)
            assert [n for n, _ in got] == [n for n, _ in expected[:11]]
            assert np.allclose([w for _, w in got], [w for _, w in expected[:11]], atol=1e-10)

    def test_k_prefix_property(self):
        logs = gen_uniform(50, 30, 0.4, seed=8)
        small = build_similarity_matrix(logs, k=5, gamma=20)
        large = build_similarity_matrix(logs, k=20, gamma=20)
        for item in small.neighbors:
            assert large.neighbor_list(item)[:5] == small.neighbor_list(item)

    def test_two_cluster_lists_stay_in_group(self):
        logs = gen_clustered(100, 20, 2, density=0.8, seed=3)
        group = oracle.item_group_of(20, 2)
        matrix = build_similarity_matrix(logs, k=9, gamma=20)
        for item, lst in matrix.neighbors.items():
            assert lst, item
            assert all(group[n] == group[item] for n, _ in lst)



def naive_similarity_lists(logs, k, gamma):
    by_item = item_ratings(logs)
    lists = {}
    for i in sorted(by_item):
        sims = [(j, weighted_pearson(by_item[i], by_item[j], gamma)) for j in sorted(by_item) if j != i]
        lists[i] = sorted((t for t in sims if t[1] > 1e-9), key=lambda t: (-t[1], t[0]))[:k]
    return lists


class TestBlockedBuild:
    """Row blocks of the co-rating products against one block and the pairwise oracle."""

    @pytest.mark.parametrize("budget", [1, 30, 40, 500, 2**40])
    def test_blocks_match_one_block(self, monkeypatch, budget):
        # at budget 1 every row is a block of its own, expanded one rating's
        # pairs at a time, and the top K is merged as soon as its pending
        # entries outnumber its kept ones
        logs = gen_clustered(80, 40, 4, density=0.3, seed=11)
        monkeypatch.setattr(knn, "BUILD_BLOCK_ENTRIES", 2**40)
        whole = build_similarity_matrix(logs, k=7, gamma=10)
        monkeypatch.setattr(knn, "BUILD_BLOCK_ENTRIES", budget)
        assert build_similarity_matrix(logs, k=7, gamma=10).neighbors == whole.neighbors

    def test_signed_ratings_match_naive(self, monkeypatch):
        # ratings around zero make some co-rating sums exactly zero, which
        # sparse products leave out
        rng = np.random.default_rng(12)
        logs = oracle.as_ratings(
            RatingLog(f"u{u}", f"i{i:02d}", float(rng.integers(-2, 3)))
            for u in range(30)
            for i in range(25)
            if rng.random() < 0.5
        )
        monkeypatch.setattr(knn, "BUILD_BLOCK_ENTRIES", 30)
        got = build_similarity_matrix(logs, k=6, gamma=8).neighbors
        want = naive_similarity_lists(logs, k=6, gamma=8)
        assert got.keys() == want.keys()
        for item, expected in want.items():
            assert [j for j, _ in got[item]] == [j for j, _ in expected], item
            assert np.allclose([w for _, w in got[item]], [w for _, w in expected], atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 30, 2**40])
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from(["integer", "tenths", "float", "signed"]),
        st.integers(1, 8),
        st.integers(1, 12),
    )
    def test_matches_sparse_products_bit_for_bit(self, budget, seed, scale, k, gamma):
        rng = np.random.default_rng(seed)
        draw = {
            "integer": lambda: float(rng.integers(1, 6)),  # tied weights at the K cut
            "tenths": lambda: rng.integers(10, 51) / 10,  # sums whose order shows
            "float": lambda: float(rng.uniform(1, 5)),
            "signed": lambda: float(rng.integers(-2, 3)),  # sums of exactly zero
        }[scale]
        n_users, n_items = rng.integers(2, 25), rng.integers(2, 16)
        logs = [
            RatingLog(f"u{u:02d}", f"i{i:02d}", draw())
            for u in range(n_users)
            for i in range(n_items)
            if rng.random() < 0.5
        ]
        # a user with a single rating and an item with a single rater
        logs += [RatingLog("single", "i00", draw()), RatingLog("u00", "solo", draw())]
        logs = oracle.as_ratings(logs[n] for n in rng.permutation(len(logs)))
        with mock.patch.object(knn, "BUILD_BLOCK_ENTRIES", budget):
            got = build_similarity_matrix(logs, k, gamma)
        want = oracle.sparse_similarity_matrix(logs, k, gamma)
        assert got.k == want.k and got.item_ids == want.item_ids
        for field in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("budget", [1, 30])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 12))
    def test_tied_weights_and_a_heavy_row_match_sparse_products(self, budget, seed, k, gamma):
        rng = np.random.default_rng(seed)
        n_users, n_items = int(rng.integers(8, 20)), int(rng.integers(2, 7))
        rated = rng.random((n_users, n_items)) < 0.5
        rated[np.arange(n_users), np.arange(n_users) % n_items] = True
        rated[np.arange(n_users), (np.arange(n_users) + 1) % n_items] = True
        logs = []
        for u, i in zip(*np.nonzero(rated)):
            # each item twice, under two ids and with the same ratings, so
            # that the weights of the copies tie wherever they are cut at K
            rating = float(rng.integers(1, 4))
            logs += [RatingLog(f"u{u:02d}", f"i{i}{copy}", rating) for copy in "ab"]
        # rated by everyone and first in id order: its row's pairs, each
        # user's other ratings, number at least 4 per user, past the budget
        logs += [RatingLog(f"u{u:02d}", "a", float(rng.integers(1, 6))) for u in range(n_users)]
        logs = oracle.as_ratings(logs[n] for n in rng.permutation(len(logs)))
        merges = []
        merge = knn._TopK.merge

        def counted(top, closed):
            merges.append(closed)
            return merge(top, closed)

        with mock.patch.object(knn, "BUILD_BLOCK_ENTRIES", budget), mock.patch.object(knn._TopK, "merge", counted):
            got = build_similarity_matrix(logs, k, gamma)
        want = oracle.sparse_similarity_matrix(logs, k, gamma)
        assert got.k == want.k and got.item_ids == want.item_ids
        for field in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        if budget == 1:
            assert len(merges) > 1, merges

    @pytest.mark.parametrize("cols", [[], [3, 3, 3], [4, 0, 2, 1, 3, 0, 4]], ids=["none", "one", "all"])
    def test_compact_column_rank(self, cols):
        # a block's touched columns of 5, and each pair's among them
        cols = np.array(cols, np.int32)
        touched, rank = dense_codes(cols, 5)
        want, inverse = np.unique(cols, return_inverse=True)
        assert touched.tolist() == want.tolist()
        assert rank.dtype == np.int32 and rank.tolist() == inverse.tolist()

    @pytest.mark.parametrize("n", [40, 2**60], ids=["key", "overflow"])
    def test_entry_order_is_lexsort(self, n):
        rng = np.random.default_rng(5)
        cells = rng.choice(40 * 40, 500, replace=False)
        rows, cols = (cells // 40).astype(np.int32), (cells % 40).astype(np.int32)
        weights = rng.integers(1, 6, len(cells)) / 5  # many ties
        order = knn._entry_order(rows, cols, weights, n)
        assert np.array_equal(order, np.lexsort((cols, -weights, rows)))
        assert len(knn._entry_order(rows[:0], cols[:0], weights[:0], n)) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),
                st.one_of(st.just(0), st.integers(1, 3), st.integers(1_000, 5_000)),
            ),
            max_size=12,
        ),
        st.sampled_from([np.int32, np.intp]),
    )
    def test_runs_match_a_list_built_oracle(self, runs, dtype):
        # empty input, zero-length runs, one run and long runs; int32 as the
        # build's entry positions and lengths are, intp as the CSR pointers
        starts = np.array([start for start, _ in runs], dtype)
        lengths = np.array([length for _, length in runs], dtype)
        got = knn._runs(starts, lengths)
        assert got.dtype == np.intp
        assert got.tolist() == oracle.naive_runs(starts.tolist(), lengths.tolist())

    def test_row_blocks_cover_rows_within_budget(self):
        weights = np.array([3, 1, 9, 2, 2, 0, 4])
        blocks = list(knn._row_blocks(weights, 4))
        assert [b for _, b in blocks][-1] == len(weights)
        assert all(a < b for a, b in blocks)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        assert all(weights[a:b].sum() <= 4 or b == a + 1 for a, b in blocks)

def assert_csr_rows(matrix):
    """Each row sorted by (-w, col), without its own item, at most k entries
    and only weights above SIM_EPS."""
    indptr, indices, weights = matrix.indptr, matrix.indices, matrix.weights
    assert indptr[0] == 0 and indptr[-1] == len(indices) == len(weights)
    assert len(indptr) == len(matrix.item_ids) + 1
    for row in range(len(matrix.item_ids)):
        cols = indices[indptr[row] : indptr[row + 1]].tolist()
        ws = weights[indptr[row] : indptr[row + 1]].tolist()
        assert row not in cols
        assert len(cols) <= matrix.k
        assert all(w > knn.SIM_EPS for w in ws)
        keys = [(-w, c) for w, c in zip(ws, cols)]
        assert all(a < b for a, b in zip(keys, keys[1:])), row


class TestSimilarityMatrixSerialization:
    def test_truncated(self):
        matrix = oracle.similarity_matrix(5, {"a": [("b", 0.9), ("c", 0.5), ("d", 0.1)]}, "abcd")
        assert matrix.truncated(2).neighbor_list("a") == [("b", 0.9), ("c", 0.5)]


class TestSimilarityMatrixFormat:
    def test_neighbor_list_of_unknown_item(self):
        matrix = oracle.similarity_matrix(1, {"b": [("c", 0.5)]}, "abc")
        assert matrix.neighbor_list("a") == []
        assert matrix.neighbor_list("zz") == []
        assert matrix.neighbor_list("") == []
        assert matrix.neighbors == {"a": [], "b": [("c", 0.5)], "c": []}

    def test_unsorted_item_ids_rejected(self):
        empty = np.empty(0, np.intp)
        with pytest.raises(ValueError):
            knn.SimilarityMatrix(1, ("b", "a"), np.zeros(3, np.intp), empty, np.empty(0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 20))
    def test_build_rows_are_sorted_top_k(self, seed, k, gamma):
        # integer ratings on few raters give tied weights
        logs = gen_uniform(20, 14, 0.5, seed=seed)
        assert_csr_rows(build_similarity_matrix(logs, k, gamma))

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_extracted_rows_are_sorted_top_k(self, k):
        logs = gen_clustered(60, 30, 3, density=0.5, seed=4)
        model = train_mf(logs, n_factors=4, seed=2, validation_fraction=0.1, max_epochs=2)
        assert_csr_rows(mf_item_similarity(model, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 11, 12])
    def test_truncated_slices_every_list(self, k):
        matrix = build_similarity_matrix(gen_uniform(40, 20, 0.5, seed=3), k=11, gamma=5)
        cut = matrix.truncated(k)
        assert cut.k == min(k, 11) and cut.item_ids == matrix.item_ids
        assert_csr_rows(cut)
        for item_id in matrix.item_ids:
            assert cut.neighbor_list(item_id) == matrix.neighbor_list(item_id)[:k]


class TestKnnPredict:
    def make_predictor(self, logs, matrix):
        stats = build_segment_model(logs)
        return KnnPredictor(matrix, stats, logs)

    def test_single_neighbor_deviation(self):
        # Item means both 3, user rated neighbor 5 with weight 1 -> 3 + 2 = 5.
        logs = oracle.as_ratings([
            RatingLog("u", "j", 5.0),
            RatingLog("v", "j", 1.0),
            RatingLog("v", "i", 3.0),
            RatingLog("w", "i", 3.0),
        ])
        matrix = oracle.similarity_matrix(1, {"i": [("j", 1.0)], "j": [("i", 1.0)]}, "ij")
        model = self.make_predictor(logs, matrix)
        assert model.predict("u", "i") == 5.0

    def test_fallback_when_no_rated_neighbor(self):
        logs = oracle.as_ratings(
            [RatingLog("u", "a", 4.0), RatingLog("v", "b", 2.0), RatingLog("v", "c", 4.0)]
        )
        matrix = oracle.similarity_matrix(1, {"b": [("c", 0.5)]}, "abc")
        model = self.make_predictor(logs, matrix)
        stats = build_segment_model(logs)
        assert model.predict("u", "b") == DefaultPredictor(stats).predict("u", "b")

    def test_zero_deviation_gives_item_mean(self):
        logs = oracle.as_ratings([
            RatingLog("u", "j", 3.0),
            RatingLog("v", "j", 3.0),
            RatingLog("v", "i", 4.0),
            RatingLog("w", "i", 4.0),
        ])
        matrix = oracle.similarity_matrix(1, {"i": [("j", 0.8)]}, "ij")
        model = self.make_predictor(logs, matrix)
        assert model.predict("u", "i") == 4.0

    def test_in_range(self):
        logs = gen_uniform(30, 15, 0.5, seed=4)
        matrix = build_similarity_matrix(logs, k=10, gamma=5)
        model = self.make_predictor(logs, matrix)
        for u in range(30):
            for i in range(15):
                assert 1.0 <= model.predict(f"u{u:05d}", f"i{i:05d}") <= 5.0

    def test_predict_many_matches_predict(self):
        logs = gen_uniform(40, 20, 0.4, seed=12)
        matrix = build_similarity_matrix(logs, k=8, gamma=10)
        model = self.make_predictor(logs, matrix)
        catalog = tuple(sorted({l.item_id for l in logs}))
        for user in ["u00000", "u00003", "ghost"]:
            many = model.predict_many(user, catalog)
            single = [model.predict(user, i) for i in catalog]
            assert np.allclose(many, single, atol=1e-12)

    def test_weights_sum_in_column_order(self):
        # the batch sums must round like products with a weight matrix built
        # from coordinates, whose rows list their columns in ascending order
        logs = gen_uniform(40, 20, 0.6, seed=12)
        matrix = build_similarity_matrix(logs, k=12, gamma=10)
        model = self.make_predictor(logs, matrix)
        w = oracle.weight_matrix(matrix)
        n = len(matrix.item_ids)
        rng = np.random.default_rng(1)
        spread = 10.0 ** np.arange(-3, 3, 0.03)
        for _ in range(200):
            cols = np.flatnonzero(rng.random(n) < rng.random())
            x = np.zeros(n)
            x[cols] = rng.normal(size=len(cols)) * rng.choice(spread, len(cols))
            rated = np.zeros(n)
            rated[cols] = 1.0
            num, den = model.neighbor_sums(cols, x[cols])
            assert np.array_equal(num, w @ x)
            assert np.array_equal(den, w @ rated)

    def test_predict_many_on_sublist_sees_outside_neighbors(self):
        # Requested items may have neighbors outside the requested list;
        # predictions must still use them.
        logs = gen_uniform(40, 20, 0.4, seed=12)
        matrix = build_similarity_matrix(logs, k=8, gamma=10)
        model = self.make_predictor(logs, matrix)
        sub = ("i00002", "i00005", "i00011")
        for user in ["u00000", "u00007"]:
            many = model.predict_many(user, sub)
            single = [model.predict(user, i) for i in sub]
            assert np.allclose(many, single, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 14), st.integers(0, 8), st.integers(1, 6))
    def test_predict_many_matches_oracles(self, seed, n_items, n_users, k):
        rng = np.random.default_rng(seed)
        items = [f"i{i:02d}" for i in range(n_items)]
        # integer ratings: deviations repeat and can be exactly zero
        logs = [
            RatingLog(f"u{u}", item, float(rng.integers(1, 6)))
            for u in range(n_users)
            for item in items
            if rng.random() < 0.5
        ]
        logs.append(RatingLog("single", items[0], 4.0))
        # nobody lists the last item as a neighbor
        logs.append(RatingLog("unreached", items[-1], 2.0))
        # the users' ratings arrive in no particular item order
        logs = oracle.as_ratings(logs[n] for n in rng.permutation(len(logs)))
        stats = build_segment_model(logs)
        train = stats.item_ids
        # few weight levels, so neighbors tie, of mixed magnitudes, so the
        # order of a sum shows in its last bits
        levels = 10.0 ** rng.uniform(-3, 0, 3)
        lists = {}
        for i in train:
            others = [j for j in train[:-1] if j != i and rng.random() < 0.6]
            weighted = [(j, float(rng.choice(levels))) for j in others]
            lists[i] = sorted(weighted, key=lambda t: (-t[1], t[0]))[:k]
        matrix = oracle.similarity_matrix(k, lists, train)
        ratings = oracle.user_ratings_index(logs)
        model = KnnPredictor(matrix, stats, logs)
        catalog = tuple(sorted(set(train) | {"i-unknown"}))
        sub = [catalog[c] for c in rng.integers(0, len(catalog), 5)] + ["x-unknown"]
        for user in sorted(ratings) + ["cold"]:
            for item_ids in (catalog, sub, []):
                many = model.predict_many(user, item_ids)
                by_matvec = oracle.matvec_knn_scores(matrix, stats, ratings, user, item_ids)
                assert np.array_equal(many, by_matvec)
                single = [model.predict(user, i) for i in item_ids]
                assert np.allclose(many, single, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 9), st.integers(1, 8))
    def test_scalar_predict_matches_the_dict_reference(self, seed, n_items, n_users, k):
        """The scalar path reads the deviation CSR; the reference reads the
        dict of the same ratings. Cold users and items, single-rating users,
        ratings of items outside train and users without a train rating."""
        rng = np.random.default_rng(seed)
        items = [f"i{i:02d}" for i in range(n_items)]
        logs = [
            RatingLog(f"u{u}", item, rng.integers(10, 51) / 10)
            for u in range(n_users)
            for item in items
            if rng.random() < 0.5
        ]
        logs += [RatingLog("single", items[0], 4.0), RatingLog("test-only", "i-test", 3.0)]
        logs = [logs[n] for n in rng.permutation(len(logs))]
        # "outsider" is in the id tables but never in train
        logs += [RatingLog("outsider", item, float(rng.integers(1, 6))) for item in items[:3]]
        logs = oracle.as_ratings(logs)
        data = split(logs, 0.8, seed)
        train = part(data.train, data.train.users != logs.user_ids.index("outsider"))
        assume(len(train))
        stats = build_segment_model(train)
        # tied and non-positive weights of mixed magnitudes, each row in no
        # particular order, so the order of a sum shows in its last bits
        levels = [0.0, -0.2, *(10.0 ** rng.uniform(-3, 1, 3))]
        lists = {}
        for i in stats.item_ids:
            others = [j for j in stats.item_ids if j != i and rng.random() < 0.6]
            picked = rng.permutation(len(others))[:k]
            lists[i] = [(others[t], float(rng.choice(levels))) for t in picked]
        matrix = oracle.similarity_matrix(k, lists, stats.item_ids)
        # every log, so some rated items are outside train, and some users
        # (the outsider and maybe others) have no train rating
        ratings = oracle.user_ratings_index(logs)
        model = KnnPredictor(matrix, stats, logs)
        for user in sorted(ratings) + ["cold"]:
            for item in (*stats.items, "i-unknown"):
                got = model.predict(user, item)
                want = oracle.dict_knn_predict(matrix, stats, ratings, user, item)
                assert got == want, (user, item)
            by_matvec = oracle.matvec_knn_scores(matrix, stats, ratings, user, stats.items)
            assert np.array_equal(model.predict_many(user, stats.items), by_matvec)

    def test_holds_the_train_ratings_and_no_dict(self):
        data = split(gen_uniform(30, 15, 0.5, seed=4), 0.8, 1)
        matrix = build_similarity_matrix(data.train, k=5, gamma=5)
        model = KnnPredictor(matrix, build_segment_model(data.train), data.train)
        assert model.train is data.train
        assert not [name for name, value in vars(model).items() if isinstance(value, dict)]
        assert 1.0 <= model.predict("u00000", "i00001") <= 5.0

    def test_other_id_tables_rejected(self):
        data = split(gen_uniform(30, 15, 0.5, seed=4), 0.8, 1)
        stats = build_segment_model(data.train)
        matrix = build_similarity_matrix(data.train, k=5, gamma=5)
        for other in (
            replace(data.train, user_ids=(*data.users, "zz-extra")),
            replace(data.train, item_ids=(*data.items, "zz-extra")),
        ):
            with pytest.raises(ValueError, match="^train ratings use other id tables than"):
                KnnPredictor(matrix, stats, other)

    def test_repeated_train_pair_rejected(self):
        logs = [
            RatingLog("u", "i", 4.0), RatingLog("u", "j", 2.0), RatingLog("v", "i", 3.0),
            RatingLog("v", "k", 5.0),
        ]
        logs = oracle.as_ratings(logs)
        # k is in the tables, but not a train item of the segment model
        stats = build_segment_model(part(logs, logs.items != 2))
        matrix = oracle.similarity_matrix(1, {"i": [("j", 1.0)], "j": [("i", 1.0)]}, "ij")
        twice = part(logs, [0, 1, 2, 3, 1])
        with pytest.raises(
            ValueError, match=r"^train ratings repeat a \(user, item\) pair of a train item$"
        ):
            KnnPredictor(matrix, stats, twice)
        # a repeated pair of an item outside train is left out like any of its ratings
        model = KnnPredictor(matrix, stats, part(logs, [0, 1, 2, 3, 3]))
        once = KnnPredictor(matrix, stats, logs)
        for user in ("u", "v"):
            assert np.array_equal(model.predict_many(user, "ijk"), once.predict_many(user, "ijk"))

    def test_similarity_capability_truncates(self):
        logs = gen_uniform(30, 15, 0.5, seed=4)
        matrix = build_similarity_matrix(logs, k=10, gamma=5)
        model = self.make_predictor(logs, matrix)
        sub = model.item_similarity_matrix(3)
        assert sub.k == 3
        for item, lst in sub.neighbors.items():
            assert lst == matrix.neighbor_list(item)[:3]

    def test_other_item_order_rejected(self):
        logs = gen_uniform(30, 15, 0.5, seed=4)
        matrix = build_similarity_matrix(logs, k=5, gamma=5)
        fewer = oracle.as_ratings(log for log in logs if log.item_id != "i00003")
        with pytest.raises(ValueError, match="similarity matrix items differ"):
            KnnPredictor(matrix, build_segment_model(fewer), fewer)




def transpose_case(seed, n_items, k):
    """A matrix over ``n_items`` train items with empty rows, in runs, and
    empty columns (neighbors come from a prefix of the items), distinct
    weights, and its segment model and train logs."""
    rng = np.random.default_rng(seed)
    items = [f"i{i:02d}" for i in range(n_items)]
    logs = oracle.as_ratings(
        RatingLog(f"u{n % 3}", item, float(1 + n % 5)) for n, item in enumerate(items)
    )
    reached = items[: rng.integers(1, n_items + 1)]
    lists = {}
    for i in items:
        if rng.random() < 0.4:
            continue
        others = [j for j in reached if j != i]
        picked = rng.permutation(len(others))[: rng.integers(0, k + 1)]
        lists[i] = [(others[t], float(rng.uniform(-1, 1))) for t in picked]
    return oracle.similarity_matrix(k, lists, items), build_segment_model(logs), logs


class TestColumnTranspose:
    """KnnPredictor fills its column form one block of matrix rows at a
    time; at any budget it is the one-sort transpose, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**31), st.integers(1, 40), st.integers(1, 8), st.sampled_from([1, 30, 2**40])
    )
    def test_equals_the_one_sort_transpose(self, seed, n_items, k, budget):
        matrix, stats, logs = transpose_case(seed, n_items, k)
        with mock.patch.object(knn, "BUILD_BLOCK_ENTRIES", budget):
            model = KnnPredictor(matrix, stats, logs)
        col_ptr, col_rows, col_weights = oracle.one_sort_transpose(matrix)
        assert np.array_equal(model.col_ptr, col_ptr)
        assert np.array_equal(model.col_len, np.diff(col_ptr))
        assert model.col_rows.dtype == np.int32 and np.array_equal(model.col_rows, col_rows)
        assert np.array_equal(model.col_weights.view(np.int64), col_weights.view(np.int64))

    @pytest.mark.parametrize("budget", [1, 30, 2**40])
    def test_empty_rows_and_blocks(self, budget):
        """Leading empty rows make a block of no entry at budget 1; a matrix
        of no entry is one such block at any budget."""
        _, stats, logs = transpose_case(0, 6, 2)
        lists = {"i02": [("i00", 0.5), ("i01", 0.25)], "i05": [("i00", 0.75)]}
        for matrix in (
            oracle.similarity_matrix(2, lists, stats.item_ids),
            oracle.similarity_matrix(2, {}, stats.item_ids),
        ):
            with mock.patch.object(knn, "BUILD_BLOCK_ENTRIES", budget):
                model = KnnPredictor(matrix, stats, logs)
            col_ptr, col_rows, col_weights = oracle.one_sort_transpose(matrix)
            assert np.array_equal(model.col_ptr, col_ptr)
            assert np.array_equal(model.col_rows, col_rows)
            assert np.array_equal(model.col_weights, col_weights)

def part(logs: Ratings, picked) -> Ratings:
    """The logs that ``picked`` (a mask or positions) selects, in the same id tables."""
    return Ratings(
        logs.user_ids, logs.item_ids, logs.users[picked], logs.items[picked], logs.ratings[picked]
    )


class TestChunkedNeighborSums:
    """A user whose rated columns hold more entries than BUILD_BLOCK_ENTRIES
    is summed in chunks of columns, the first by bincount and the rest by
    add.at onto it; the sums are the one-chunk sums and the product with
    the column-sorted weight matrix, bit for bit."""

    @pytest.mark.parametrize("budget", [1, 30, 2**40])
    def test_heavy_user_at_any_budget(self, budget):
        rng = np.random.default_rng(7)
        spread = 10.0 ** rng.uniform(-3, 3, 40)  # ratings far apart, so order shows in the sums
        heavy = [RatingLog("u99999", f"i{i:05d}", float(spread[i])) for i in range(40)]
        logs = oracle.as_ratings([*gen_uniform(60, 40, 0.3, seed=5), *heavy])
        matrix = build_similarity_matrix(logs, k=12, gamma=10)
        stats = build_segment_model(logs)
        with mock.patch.object(knn, "BUILD_BLOCK_ENTRIES", budget):
            model = KnnPredictor(matrix, stats, logs)
            user = stats.users.index("u99999")
            a, b = model.user_ptr[user], model.user_ptr[user + 1]
            cols, devs = model.user_cols[a:b], model.user_dev[a:b]
            num, den = model.neighbor_sums(cols, devs)
            row = model.predict_many("u99999", stats.items)
        assert model.col_len[cols].sum() > 30  # more than one chunk at budgets 1 and 30
        n = len(matrix.item_ids)
        x, rated = np.zeros(n), np.zeros(n)
        x[cols], rated[cols] = devs, 1.0
        w = oracle.weight_matrix(matrix)
        assert np.array_equal(num, w @ x) and np.array_equal(den, w @ rated)
        whole = KnnPredictor(matrix, stats, logs).predict_many("u99999", stats.items)
        assert np.array_equal(row, whole)
