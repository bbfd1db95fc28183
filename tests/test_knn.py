import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from recbench.baselines import DefaultPredictor
from recbench.dataset import RatingLog, build_segment_model, split, user_ratings_index
from recbench import knn
from recbench.knn import KnnPredictor, build_similarity_matrix, weighted_pearson
from recbench.mf import mf_item_similarity, train_mf
from recbench.synthetic import gen_clustered, gen_uniform, item_group_of


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
        matrix = build_similarity_matrix(logs, k=3, gamma=50)
        assert matrix.neighbor_list("a") == [("b", pytest.approx(5 / 50))]
        assert matrix.neighbor_list("b") == [("a", pytest.approx(5 / 50))]

    def test_single_rater_item_empty_list(self):
        logs = [RatingLog("u0", "solo", 4.0), RatingLog("u1", "a", 3.0), RatingLog("u2", "a", 5.0)]
        matrix = build_similarity_matrix(logs, k=5)
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
        group = item_group_of(20, 2)
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

    @pytest.mark.parametrize("budget", [1, 40, 500])
    def test_blocks_match_one_block(self, monkeypatch, budget):
        logs = gen_clustered(80, 40, 4, density=0.3, seed=11)
        whole = build_similarity_matrix(logs, k=7, gamma=10)
        monkeypatch.setattr(knn, "BUILD_BLOCK_ENTRIES", budget)
        assert build_similarity_matrix(logs, k=7, gamma=10).neighbors == whole.neighbors

    def test_signed_ratings_match_naive(self, monkeypatch):
        # ratings around zero make some co-rating sums exactly zero, which
        # sparse products leave out
        rng = np.random.default_rng(12)
        logs = [
            RatingLog(f"u{u}", f"i{i:02d}", float(rng.integers(-2, 3)))
            for u in range(30)
            for i in range(25)
            if rng.random() < 0.5
        ]
        monkeypatch.setattr(knn, "BUILD_BLOCK_ENTRIES", 30)
        got = build_similarity_matrix(logs, k=6, gamma=8).neighbors
        want = naive_similarity_lists(logs, k=6, gamma=8)
        assert got.keys() == want.keys()
        for item, expected in want.items():
            assert [j for j, _ in got[item]] == [j for j, _ in expected], item
            assert np.allclose([w for _, w in got[item]], [w for _, w in expected], atol=1e-12)

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
        return KnnPredictor(matrix, stats, user_ratings_index(logs))

    def test_single_neighbor_deviation(self):
        # Item means both 3, user rated neighbor 5 with weight 1 -> 3 + 2 = 5.
        logs = [
            RatingLog("u", "j", 5.0),
            RatingLog("v", "j", 1.0),
            RatingLog("v", "i", 3.0),
            RatingLog("w", "i", 3.0),
        ]
        matrix = oracle.similarity_matrix(1, {"i": [("j", 1.0)], "j": [("i", 1.0)]}, "ij")
        model = self.make_predictor(logs, matrix)
        assert model.predict("u", "i") == 5.0

    def test_fallback_when_no_rated_neighbor(self):
        logs = [RatingLog("u", "a", 4.0), RatingLog("v", "b", 2.0), RatingLog("v", "c", 4.0)]
        matrix = oracle.similarity_matrix(1, {"b": [("c", 0.5)]}, "abc")
        model = self.make_predictor(logs, matrix)
        stats = build_segment_model(logs)
        assert model.predict("u", "b") == DefaultPredictor(stats).predict("u", "b")

    def test_zero_deviation_gives_item_mean(self):
        logs = [
            RatingLog("u", "j", 3.0),
            RatingLog("v", "j", 3.0),
            RatingLog("v", "i", 4.0),
            RatingLog("w", "i", 4.0),
        ]
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
        logs = [logs[n] for n in rng.permutation(len(logs))]
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
        ratings = user_ratings_index(logs)
        model = KnnPredictor(matrix, stats, ratings)
        catalog = tuple(sorted(set(train) | {"i-unknown"}))
        sub = [catalog[c] for c in rng.integers(0, len(catalog), 5)] + ["x-unknown"]
        for user in sorted(ratings) + ["cold"]:
            for item_ids in (catalog, sub, []):
                many = model.predict_many(user, item_ids)
                by_matvec = oracle.matvec_knn_scores(matrix, stats, ratings, user, item_ids)
                assert np.array_equal(many, by_matvec)
                single = [model.predict(user, i) for i in item_ids]
                assert np.allclose(many, single, rtol=0, atol=1e-12)

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
        fewer = [log for log in logs if log.item_id != "i00003"]
        with pytest.raises(ValueError):
            KnnPredictor(matrix, build_segment_model(fewer), user_ratings_index(logs))
