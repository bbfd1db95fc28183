import numpy as np
import pytest

import oracle
from recbench.baselines import DefaultPredictor, RandomPredictor
from recbench.dataset import RatingLog, build_segment_model
from recbench.metrics import GLOBAL, ScoredLog, aggregate_rmse


def make_stats(logs):
    return build_segment_model(oracle.as_ratings(logs))


class TestDefaultPredictor:
    def test_both_means_average(self):
        stats = make_stats([RatingLog("u", "a", 3.0), RatingLog("v", "b", 4.0)])
        model = DefaultPredictor(stats)
        # user u mean 3.0, item b mean 4.0 -> 3.5
        assert model.predict("u", "b") == 3.5

    def test_unknown_user_uses_item_mean(self):
        stats = make_stats([RatingLog("v", "b", 4.2), RatingLog("v", "c", 1.0)])
        model = DefaultPredictor(stats)
        assert model.predict("ghost", "b") == 4.2

    def test_unknown_item_uses_user_mean(self):
        stats = make_stats([RatingLog("v", "b", 4.0), RatingLog("v", "c", 2.0)])
        model = DefaultPredictor(stats)
        assert model.predict("v", "ghost") == 3.0

    def test_both_unknown_uses_global_mean(self):
        stats = make_stats([RatingLog("v", "b", 4.0), RatingLog("w", "c", 2.0)])
        model = DefaultPredictor(stats)
        assert model.predict("ghost", "spirit") == 3.0

    def test_constant_dataset_rmse_zero(self):
        logs = [RatingLog(f"u{k}", f"i{j}", 4.0) for k in range(5) for j in range(4)]
        stats = make_stats(logs)
        model = DefaultPredictor(stats)
        truths = np.array([l.rating for l in logs])
        predictions = np.array([model.predict(l.user_id, l.item_id) for l in logs])
        table = aggregate_rmse(truths, predictions, np.full(len(logs), 3))
        assert table.cells[GLOBAL] == (0.0, len(logs))

    def test_predict_many_matches_predict(self):
        logs = [RatingLog(f"u{k}", f"i{j}", float(1 + (k + j) % 5)) for k in range(6) for j in range(5) if (k * j) % 3]
        stats = make_stats(logs)
        model = DefaultPredictor(stats)
        items = tuple(sorted({l.item_id for l in logs}) + ["unknown"])
        for user in ["u1", "u2", "ghost"]:
            many = model.predict_many(user, items)
            single = [model.predict(user, i) for i in items]
            assert np.allclose(many, single)

    def test_clamped(self):
        stats = make_stats([RatingLog("v", "b", 5.0)])
        model = DefaultPredictor(stats, r_min=1.0, r_max=4.0)
        assert model.predict("v", "b") == 4.0


class TestRandomPredictor:
    def test_deterministic(self):
        model = RandomPredictor(seed=11)
        assert model.predict("u", "i") == model.predict("u", "i")

    def test_seed_changes_values(self):
        a = RandomPredictor(seed=1)
        b = RandomPredictor(seed=2)
        values_a = [a.predict("u", f"i{k}") for k in range(50)]
        values_b = [b.predict("u", f"i{k}") for k in range(50)]
        assert values_a != values_b

    def test_integer_levels_in_range(self):
        model = RandomPredictor(seed=3)
        values = {model.predict(f"u{k}", f"i{k}") for k in range(200)}
        assert values <= {1.0, 2.0, 3.0, 4.0, 5.0}

    @pytest.mark.parametrize(
        "r_min, r_max, levels",
        [
            (1.0, 5.0, [1, 2, 3, 4, 5]),
            (1, 10, list(range(1, 11))),
            (1.2, 5.0, [2, 3, 4, 5]),
            (1.0, 4.6, [1, 2, 3, 4]),
            (0.5, 1.5, [1]),
            (-2.5, 0.0, [-2, -1, 0]),
        ],
    )
    def test_levels_are_the_integers_of_the_scale(self, r_min, r_max, levels):
        model = RandomPredictor(3, r_min, r_max)
        assert model.levels.tolist() == levels
        items = [f"i{k}" for k in range(300)]
        values = np.concatenate([model.predict_many(f"u{u}", items) for u in range(4)])
        assert set(values.tolist()) == set(levels)
        assert r_min <= values.min() and values.max() <= r_max
        assert all(r_min <= model.predict("u", i) <= r_max for i in items)

    @pytest.mark.parametrize("r_min, r_max", [(0.3, 0.4), (1.2, 1.9), (-0.5, -0.1)])
    def test_scale_without_an_integer_rejected(self, r_min, r_max):
        with pytest.raises(ValueError, match="no integer rating level"):
            RandomPredictor(0, r_min, r_max)

    def test_predict_many_matches_predict(self):
        model = RandomPredictor(seed=5)
        items = [f"i{k}" for k in range(100)]
        many = model.predict_many("u", items)
        single = [model.predict("u", i) for i in items]
        assert np.array_equal(many, np.array(single))

    def test_uniform_frequencies(self):
        # Level frequencies over 10^6 pairs must each be 0.2 +- 0.002.
        model = RandomPredictor(seed=7)
        items = [f"i{k}" for k in range(1000)]
        counts = np.zeros(5)
        for u in range(1000):
            values = model.predict_many(f"u{u}", items)
            for level in range(5):
                counts[level] += np.count_nonzero(values == level + 1)
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 0.2) < 0.002)

    def test_no_similarity_capability(self):
        assert RandomPredictor(seed=0).item_similarity_matrix(10) is None

    def test_comp_analytic_value_with_integer_levels(self):
        # For independent uniform integer predictions on 5 levels, two
        # predictions tie with probability 1/5, and tied predictions on an
        # unequal true pair are incompatible. So the probability a counted
        # pair is compatible is (1 - 1/5) / 2 = 0.4 exactly, regardless of
        # the true ratings. Checked against that enumeration, not 0.5.
        from recbench.metrics import comp_user

        model = RandomPredictor(seed=11)
        rng = np.random.default_rng(12)
        compatible = counted = 0
        items = [f"i{k}" for k in range(40)]
        for u in range(400):
            user = f"u{u}"
            true = rng.integers(1, 6, size=len(items))
            pred = model.predict_many(user, items)
            scored = [
                ScoredLog(user, i, float(t), float(p), "LuserUitem")
                for i, t, p in zip(items, true, pred)
            ]
            c, n = comp_user(scored)
            compatible += c
            counted += n
        assert abs(compatible / counted - 0.4) < 0.01
