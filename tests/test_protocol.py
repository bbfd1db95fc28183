import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from recbench.baselines import DefaultPredictor, Predictor, RandomPredictor
from recbench.dataset import build_segment_model, split, user_ratings_index
from recbench.knn import KnnPredictor, build_similarity_matrix
from recbench.metrics import GLOBAL
from recbench.mf import MFPredictor, train_mf
from recbench.protocol import (
    EvaluationError,
    ProtocolConfig,
    evaluate,
    run_core,
    run_explore,
    top_n,
)
from recbench.synthetic import gen_clustered, gen_uniform


class PerfectOracle(Predictor):
    """Echoes true test ratings; train means elsewhere."""

    name = "perfect"

    def __init__(self, data, segments):
        self.test = {(l.user_id, l.item_id): l.rating for l in data.test}
        self.segments = segments

    def predict(self, user_id, item_id):
        value = self.test.get((user_id, item_id))
        if value is None:
            value = self.segments.item_means.get(item_id, self.segments.global_mean)
        return value


class FixedScores(Predictor):
    name = "fixed"

    def __init__(self, scores):
        self.scores = scores

    def predict(self, user_id, item_id):
        return self.scores.get(item_id, 0.0)


class Exploding(Predictor):
    name = "exploding"

    def predict(self, user_id, item_id):
        raise RuntimeError("boom")


def make_data(seed=0, n_users=30, n_items=20, density=0.5, ratio=0.75):
    logs = gen_uniform(n_users, n_items, density, seed=seed)
    data = split(logs, ratio, seed=seed + 1)
    segments = build_segment_model(data.train)
    return data, segments


def top_items(model, user_id, items, n, seen=()):
    """The user's top-``n`` of ``items`` (sorted ascending) by ``top_n``."""
    position = {item_id: k for k, item_id in enumerate(items)}
    scores = model.predict_many(user_id, items)
    return [items[k] for k in top_n(scores, n, [position[i] for i in seen])]


@st.composite
def top_n_cases(draw):
    """Scores with ties, a random seen mask, n up to past the catalog size."""
    scores = draw(
        st.lists(st.sampled_from([1.0, 2.5, 4.0]) | st.floats(-10.0, 10.0), min_size=1, max_size=60)
    )
    seen = draw(st.sets(st.integers(0, len(scores) - 1)))
    return scores, draw(st.integers(1, len(scores) + 3)), seen


class TestGenerateTopN:
    def test_tie_rule(self):
        model = FixedScores({"a": 4.2, "b": 3.9, "c": 4.2})
        assert top_items(model, "u", ("a", "b", "c"), 2) == ["a", "c"]

    def test_candidate_exhaustion(self):
        model = FixedScores({"a": 4.0, "b": 3.0})
        assert top_items(model, "u", ("a", "b"), 5, seen={"a"}) == ["b"]

    def test_matches_naive_full_sort(self):
        rng = np.random.default_rng(3)
        items = tuple(f"i{k:04d}" for k in range(1000))
        scores = {i: float(rng.choice([1.0, 2.5, 2.5, 4.0, 4.0, 5.0])) for i in items}
        model = FixedScores(scores)
        seen = {i for i in items if rng.random() < 0.1}
        assert top_items(model, "u", items, 10, seen) == oracle.naive_top_n(scores, 10, seen)

    @settings(max_examples=300, deadline=None)
    @given(top_n_cases())
    @example(([3.0, 3.0, 1.0], 5, {0, 1, 2}))  # every position seen
    @example(([2.0, 2.0, 2.0], 3, set()))  # n equal to the catalog, all tied
    def test_matches_naive_on_generated_scores(self, case):
        scores, n, seen = case
        got = top_n(np.array(scores), n, sorted(seen)).tolist()
        assert got == oracle.naive_top_n(dict(enumerate(scores)), n, seen)


class TestRunCore:
    def test_perfect_oracle_bounds(self):
        data, segments = make_data(seed=1)
        model = PerfectOracle(data, segments)
        report = run_core(model, data, segments, ProtocolConfig(top_n=5, explore_k=5))
        assert report.table("RMSE").value(GLOBAL) == 0.0
        assert report.table("COMP_macro").value(GLOBAL) == 1.0
        assert report.table("COMP_micro").value(GLOBAL) == 1.0

    @pytest.mark.parametrize("exclude_seen", [True, False])
    def test_default_predictor_matches_naive_reference(self, exclude_seen):
        data, segments = make_data(seed=2, n_users=50, n_items=15, density=0.4)
        model = DefaultPredictor(segments)
        config = ProtocolConfig(top_n=5, explore_k=5, exclude_seen=exclude_seen)
        report = run_core(model, data, segments, config)
        reference = oracle.naive_core_report(model, data, segments, 5, exclude_seen)
        for metric, cells in reference.items():
            table = report.table(metric)
            for segment, (value, support) in cells.items():
                got_value, got_support = table.cells[segment]
                assert got_support == support, (metric, segment)
                if value is None:
                    assert got_value is None, (metric, segment)
                else:
                    assert abs(got_value - value) < 1e-12, (metric, segment)

    def test_random_predictor_matches_naive_reference(self):
        data, segments = make_data(seed=3, n_users=25, n_items=12)
        model = RandomPredictor(seed=5)
        report = run_core(model, data, segments, ProtocolConfig(top_n=4, explore_k=5))
        reference = oracle.naive_core_report(model, data, segments, 4)
        for metric, cells in reference.items():
            table = report.table(metric)
            for segment, (value, support) in cells.items():
                got_value, got_support = table.cells[segment]
                assert got_support == support
                if value is not None:
                    assert abs(got_value - value) < 1e-12

    def test_exclude_seen_keeps_train_items_out(self):
        data, segments = make_data(seed=4)
        model = DefaultPredictor(segments)
        config = ProtocolConfig(top_n=5, explore_k=5, exclude_seen=True)
        train_index = user_ratings_index(data.train)
        for user in data.users:
            seen = set(train_index.get(user, ()))
            top = top_items(model, user, data.items, 5, seen)
            assert not (set(top) & seen)

    def test_model_failure_identifies_user(self):
        data, segments = make_data(seed=5)
        with pytest.raises(EvaluationError, match="exploding"):
            run_core(Exploding(), data, segments, ProtocolConfig(top_n=3, explore_k=3))

    def test_each_user_scored_once_over_catalog(self, monkeypatch):
        data, segments = make_data(seed=13)
        calls = []
        predict_many = KnnPredictor.predict_many

        def counting(self, user_id, item_ids):
            calls.append((user_id, item_ids))
            return predict_many(self, user_id, item_ids)

        # Patched on the class, so Explore's emulated KNN is counted too.
        monkeypatch.setattr(KnnPredictor, "predict_many", counting)
        matrix = build_similarity_matrix(data.train, k=5, gamma=10)
        model = KnnPredictor(matrix, segments, user_ratings_index(data.train))
        config = ProtocolConfig(top_n=4, explore_k=5)
        for run in (run_core, run_explore):
            calls.clear()
            run(model, data, segments, config)
            assert [user for user, _ in calls] == list(data.users)
            assert all(items is data.items for _, items in calls)


def make_predictor(name, data, segments):
    if name == "default":
        return DefaultPredictor(segments)
    if name == "random":
        return RandomPredictor(seed=1)
    if name == "knn":
        matrix = build_similarity_matrix(data.train, k=5, gamma=10)
        return KnnPredictor(matrix, segments, user_ratings_index(data.train))
    factors = train_mf(data.train, n_factors=4, seed=1, validation_fraction=0.1, max_epochs=2)
    return MFPredictor(factors, segments)


@pytest.mark.parametrize("name", ["default", "random", "knn", "mf"])
def test_predict_many_empty_item_list(name):
    data, segments = make_data(seed=14)
    model = make_predictor(name, data, segments)
    scores = model.predict_many(data.users[0], [])
    assert isinstance(scores, np.ndarray)
    assert scores.shape == (0,)


@pytest.mark.parametrize("name", ["default", "knn", "mf"])
def test_predict_many_on_list_changed_in_place(name):
    # a list is mutable: scoring it again must not reuse the rows of its old contents
    data, segments = make_data(seed=14)
    model = make_predictor(name, data, segments)
    user = data.users[0]
    items = list(data.items[:2])
    for change in (lambda: items.append(data.items[5]), lambda: items.__setitem__(0, data.items[7])):
        model.predict_many(user, items)
        change()
        expected = [model.predict(user, item_id) for item_id in items]
        assert np.allclose(model.predict_many(user, items), expected, rtol=0, atol=1e-12)


class TestExplore:
    def test_native_knn_explore_equals_core(self):
        logs = gen_clustered(60, 16, 2, density=0.7, seed=6)
        data = split(logs, 0.8, seed=7)
        segments = build_segment_model(data.train)
        matrix = build_similarity_matrix(data.train, k=8, gamma=20)
        model = KnnPredictor(matrix, segments, user_ratings_index(data.train))
        config = ProtocolConfig(top_n=5, explore_k=8)
        core = run_core(model, data, segments, config)
        explore = run_explore(model, data, segments, config)
        for core_table, explore_table in zip(core.tables, explore.tables):
            assert core_table.cells == explore_table.cells

    def test_no_capability_marks_absent(self):
        data, segments = make_data(seed=8)
        report = evaluate(DefaultPredictor(segments), data, segments, ProtocolConfig(top_n=3, explore_k=3))
        assert report.explore is None

    def test_random_predictor_absent(self):
        data, segments = make_data(seed=9)
        assert run_explore(RandomPredictor(0), data, segments, ProtocolConfig()) is None


class TestDeterminismAndLeakage:
    def test_identical_runs_identical_reports(self):
        from recbench.reporting import report_payload

        data, segments = make_data(seed=10)
        config = ProtocolConfig(top_n=4, explore_k=6)
        matrix = build_similarity_matrix(data.train, k=6, gamma=10)
        reports = []
        for _ in range(2):
            model = KnnPredictor(matrix, segments, user_ratings_index(data.train))
            reports.append(report_payload(evaluate(model, data, segments, config)))
        assert reports[0] == reports[1]

    def test_test_set_perturbation_leaves_model_unchanged(self):
        data, segments = make_data(seed=11)
        perturbed_test = [l for n, l in enumerate(data.test) if n % 2 == 0]
        # Same train set, different test set: similarity matrix and factors
        # must be bit-identical.
        m1 = build_similarity_matrix(data.train, k=5, gamma=10)
        m2 = build_similarity_matrix(data.train, k=5, gamma=10)
        assert m1.neighbors == m2.neighbors

        f1 = train_mf(data.train, n_factors=4, seed=1, budget_seconds=1e9,
                      validation_fraction=0.1, max_epochs=3)
        f2 = train_mf(data.train, n_factors=4, seed=1, budget_seconds=1e9,
                      validation_fraction=0.1, max_epochs=3)
        assert np.array_equal(f1.user_factors, f2.user_factors)
        assert np.array_equal(f1.item_factors, f2.item_factors)
        assert perturbed_test != data.test  # the perturbation is real

    def test_evaluable_outcomes_backed_by_test_logs(self):
        data, segments = make_data(seed=12)
        model = DefaultPredictor(segments)
        config = ProtocolConfig(top_n=5, explore_k=5)
        test_pairs = {(l.user_id, l.item_id) for l in data.test}
        # Re-derive outcomes the way run_core does and check evaluability.
        train_index = user_ratings_index(data.train)
        test_index = user_ratings_index(data.test)
        for user in data.users:
            seen = set(train_index.get(user, ()))
            top = top_items(model, user, data.items, 5, seen)
            for item in top:
                if item in test_index.get(user, {}):
                    assert (user, item) in test_pairs
