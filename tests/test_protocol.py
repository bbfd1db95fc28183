import gc
import json
import weakref
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from recbench import cli, dataset, protocol
from recbench.baselines import DefaultPredictor, Predictor, RandomPredictor
from recbench.dataset import (
    SEGMENTS,
    RatingLog,
    Ratings,
    SplitDataset,
    build_segment_model,
    split,
)
from recbench.knn import KnnPredictor, block_top_n, build_similarity_matrix
from recbench.metrics import GLOBAL
from recbench.mf import MFPredictor, train_mf
from recbench.protocol import (
    EvaluationError,
    ProtocolConfig,
    evaluate,
    run_core,
    run_explore,
)
from recbench.reporting import write_report
from recbench.synthetic import gen_clustered, gen_uniform


class PerfectOracle(Predictor):
    """Echoes true test ratings; train means elsewhere."""

    name = "perfect"

    def __init__(self, data, segments):
        self.test = {(l.user_id, l.item_id): l.rating for l in data.test}
        self.item_means = oracle.segment_dicts(segments).item_means
        self.global_mean = segments.global_mean

    def predict(self, user_id, item_id):
        value = self.test.get((user_id, item_id))
        if value is None:
            value = self.item_means.get(item_id, self.global_mean)
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
    """The user's top-``n`` of ``items`` (sorted ascending) by a one-row block."""
    position = {item_id: k for k, item_id in enumerate(items)}
    scores = model.predict_many(user_id, items)[None, :]
    cols = np.array([position[i] for i in seen], dtype=np.intp)
    _, top = block_top_n(scores, n, (np.zeros_like(cols), cols))
    return [items[k] for k in top]


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
        got = oracle.top_n(np.array(scores), n, sorted(seen)).tolist()
        assert got == oracle.naive_top_n(dict(enumerate(scores)), n, seen)


@st.composite
def block_cases(draw):
    """A block of 1-8 rows with ties and infinities (NaN too, if asked),
    each row's seen set empty, all positions or random, and n up to past
    the catalog size."""
    values = st.sampled_from([1.0, 2.5, 4.0, np.inf, -np.inf]) | st.floats(-10.0, 10.0)
    if draw(st.booleans()):
        values |= st.just(np.nan)
    n_items = draw(st.integers(1, 30))
    row = st.lists(values, min_size=n_items, max_size=n_items)
    scores = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    every = set(range(n_items))
    seen = [
        draw(st.just(set()) | st.just(every) | st.sets(st.integers(0, n_items - 1)))
        for _ in scores
    ]
    return scores, draw(st.integers(1, n_items + 3)), seen


def seen_cells(seen):
    """(rows, columns) of the cells in each row's seen set."""
    rows = np.array([r for r, cols in enumerate(seen) for _ in cols], dtype=np.intp)
    cols = np.array([c for cols in seen for c in sorted(cols)], dtype=np.intp)
    return rows, cols


# Row 0's four candidates hold two NaN scores, one of them ranked; row 1
# has three candidates, so its packed row ends in a NaN pad.
UNEQUAL_COUNTS = (np.array([[np.nan, 2.0, np.nan, 5.0], [1.0, 4.0, 4.0, 0.0]]), 3, [{3}, set()])


class TestBlockTopN:
    """Each row of the block ranking is the per-row reference's, and, with
    -inf scores counted as seen and no NaN, the naive full sort's."""

    @settings(max_examples=200, deadline=None)
    @given(block_cases())
    @example((np.array([[3.0, 3.0, 1.0], [3.0, 3.0, 1.0]]), 5, [{0, 1, 2}, set()]))
    @example((np.array([[np.nan, -np.inf], [np.nan, 2.0]]), 1, [set(), {1}]))
    @example(UNEQUAL_COUNTS)
    def test_rows_match_per_row_reference(self, case):
        scores, n, seen = case
        rows, cols = block_top_n(scores.copy(), n, seen_cells(seen))
        assert np.all(np.diff(rows) >= 0)
        for r, row in enumerate(scores):
            got = cols[rows == r].tolist()
            assert got == oracle.top_n(row, n, sorted(seen[r])).tolist()
            if not np.isnan(row).any():
                never = seen[r] | {c for c, v in enumerate(row) if v == -np.inf}
                assert got == oracle.naive_top_n(dict(enumerate(row.tolist())), n, never)


    @settings(max_examples=200, deadline=None)
    @given(block_cases())
    @example((np.array([[np.nan, np.inf, -np.inf, 2.0]] * 2), 4, [set(), {3}]))  # n = m
    @example((np.array([[1.0, np.nan], [np.nan, np.nan]]), 3, [{0}, set()]))  # n > m
    @example(UNEQUAL_COUNTS)
    def test_equals_the_two_dimensional_scan(self, case):
        scores, n, seen = case
        got = block_top_n(scores.copy(), n, seen_cells(seen))
        want = oracle.nonzero_block_top_n(scores, n, seen_cells(seen))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(block_cases())
    def test_leaves_the_block_negated_and_seen_at_inf(self, case):
        """What MF's extraction reads back from the ranked block."""
        scores, n, seen = case
        block = scores.copy()
        block_top_n(block, n, seen_cells(seen))
        want = np.negative(scores)
        want[seen_cells(seen)] = np.inf
        assert np.array_equal(block, want, equal_nan=True)


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_n": 2.5},
            {"top_n": True},
            {"top_n": "3"},
            {"top_n": 0},
            {"explore_k": 2.5},
            {"explore_k": False},
            {"explore_k": 0},
            {"exclude_seen": 1},
            {"exclude_seen": "yes"},
            {"r_min": float("nan")},
            {"r_max": float("inf")},
            {"r_min": "1"},
            {"r_min": True},
            {"r_min": 5.0, "r_max": 1.0},
            {"r_min": 3.0, "r_max": 3.0},
        ],
    )
    def test_rejects_what_a_manifest_may_not_hold(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    def test_accepts_integers_for_the_rating_scale(self):
        assert ProtocolConfig(top_n=1, explore_k=1, exclude_seen=False, r_min=0, r_max=10).r_max == 10

    def test_frozen(self):
        config = ProtocolConfig()
        with pytest.raises(FrozenInstanceError):
            config.top_n = 2.5
        with pytest.raises(ValueError):
            replace(config, top_n=2.5)  # a variant is checked again
        assert config.top_n == 10


class TestRunCore:
    def test_perfect_oracle_bounds(self):
        data, segments = make_data(seed=1)
        model = PerfectOracle(data, segments)
        report = run_core(model, data, segments, ProtocolConfig(top_n=5, explore_k=5))
        assert report.table("RMSE").value(GLOBAL) == 0.0
        assert report.table("COMP_macro").value(GLOBAL) == 1.0
        assert report.table("COMP_micro").value(GLOBAL) == 1.0

    @pytest.mark.parametrize("name", ["knn", "mf"])
    def test_train_and_test_logs_are_each_ordered_once(self, monkeypatch, name):
        """The model build, the core run and Explore (MF's re-run too) share
        each Ratings' cached by-user order."""
        data, segments = make_data(seed=4)
        ordered = []
        order = dataset._by_user_item

        def counted(users, items, n_items):
            ordered.append(users)
            return order(users, items, n_items)

        monkeypatch.setattr(dataset, "_by_user_item", counted)
        manifest = {"model": {"name": name, "K": 5, "F": 4}, "split": {"seed": 1}}
        model = cli.build_model(name, manifest, data, segments, 1.0, 5.0)
        evaluate(model, data, segments, ProtocolConfig(top_n=5, explore_k=5))
        assert sorted(map(id, ordered)) == sorted(map(id, (data.train.users, data.test.users)))

    @pytest.mark.parametrize("exclude_seen", [True, False])
    def test_default_predictor_matches_naive_reference(self, exclude_seen):
        data, segments = make_data(seed=2, n_users=50, n_items=15, density=0.4)
        model = DefaultPredictor(segments)
        config = ProtocolConfig(top_n=5, explore_k=5, exclude_seen=exclude_seen)
        report = run_core(model, data, segments, config)
        reference = oracle.naive_core_report(model, data, segments, 5, exclude_seen)
        assert_cells_match(report, reference, tolerance=1e-12)

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
        train_index = oracle.user_ratings_index(data.train)
        for user in data.users:
            seen = set(train_index.get(user, ()))
            top = top_items(model, user, data.items, 5, seen)
            assert not (set(top) & seen)

    def test_model_failure_identifies_user(self):
        data, segments = make_data(seed=5)
        with pytest.raises(EvaluationError, match="exploding"):
            run_core(Exploding(), data, segments, ProtocolConfig(top_n=3, explore_k=3))

    def test_failure_of_a_wrong_length_row_identifies_user(self):
        data, segments = make_data(seed=5)

        class ShortRow(Predictor):
            name = "short"

            def predict_many(self, user_id, item_ids):
                return np.zeros(len(item_ids) - 1)

        with pytest.raises(EvaluationError, match=repr(data.users[0])):
            run_core(ShortRow(), data, segments, ProtocolConfig(top_n=3, explore_k=3))

    def test_nan_test_prediction_names_the_first_user(self):
        data, segments = make_data(seed=5)
        tested = sorted(set(data.test.users.tolist()))
        first, later = data.users[tested[0]], data.users[tested[-1]]

        class NanFor(DefaultPredictor):
            name = "nan"

            def predict_many(self, user_id, item_ids):
                scores = super().predict_many(user_id, item_ids)
                return np.full_like(scores, np.nan) if user_id in (first, later) else scores

        with pytest.raises(EvaluationError, match=f"'nan' predicted NaN for user {first!r}$"):
            run_core(NanFor(segments), data, segments, ProtocolConfig(top_n=3, explore_k=3))

    def test_cell_that_is_not_finite_names_metric_and_cell(self):
        data, segments = make_data(seed=5)

        class Lowest(Predictor):
            name = "lowest"

            def predict_many(self, user_id, item_ids):
                return np.full(len(item_ids), -1e308)

        config = ProtocolConfig(top_n=3, explore_k=3, r_min=-1e308, r_max=1e308)
        with np.errstate(over="ignore"), pytest.raises(
            EvaluationError, match="'lowest': Decide RMSE cell Global is inf, not a finite number"
        ):
            run_core(Lowest(), data, segments, config)

    def test_segment_sizes_of_a_hand_fixture(self, tmp_path):
        """Thresholds 6/3 users and 6/3 items; u0 (3 train ratings) is the
        one heavy user; no item has more than 2; the test logs are
        (u3 cold, i0), (u0, i3 cold) and (u1, i2)."""
        data, segments = every_case()
        config = ProtocolConfig(top_n=2, explore_k=2)
        report = evaluate(DefaultPredictor(segments), data, segments, config)
        sizes = {
            "user_threshold": 2.0,
            "item_threshold": 2.0,
            "heavy_users": 1,
            "popular_items": 0,
            "test_logs": {"HuserPitem": 0, "LuserPitem": 0, "HuserUitem": 1, "LuserUitem": 2},
        }
        assert report.core.segment_sizes == sizes
        write_report(report, tmp_path)
        assert json.loads((tmp_path / "metadata.json").read_text())["segments"] == sizes
        written = (tmp_path / "report.json").read_text()
        assert "threshold" not in written and "heavy_users" not in written

    def test_each_user_scored_once_over_catalog(self, monkeypatch):
        data, segments = make_data(seed=13)
        calls = []
        predict_many = KnnPredictor.predict_many

        def counting(self, user_id, item_ids):
            calls.append((user_id, item_ids))
            return predict_many(self, user_id, item_ids)

        # Patched on the class, so Explore's emulated KNN is counted too.
        # K > explore_k, so Explore scores a truncated matrix, not the core's.
        monkeypatch.setattr(KnnPredictor, "predict_many", counting)
        matrix = build_similarity_matrix(data.train, k=6, gamma=10)
        model = KnnPredictor(matrix, segments, data.train)
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
        return KnnPredictor(matrix, segments, data.train)
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


def boundary_cases():
    """``every_case`` (4 users) and a 31-user split: 3-user blocks leave an
    uneven last block in both."""
    return [every_case(), make_data(seed=17, n_users=31, n_items=12, density=0.3)]


def assert_cells_match(report, reference, tolerance=1e-9):
    """The report's tables hold the reference's {metric: {segment: (value, support)}}."""
    for metric, cells in reference.items():
        table = report.table(metric)
        assert table.cells.keys() == cells.keys(), metric
        for segment, (value, support) in cells.items():
            got_value, got_support = table.cells[segment]
            assert got_support == support, (metric, segment)
            if value is None:
                assert got_value is None, (metric, segment)
            else:
                assert abs(got_value - value) < tolerance, (metric, segment)


class TestRunCoreBlocks:
    """Blocks of users, set by dataset.BLOCK_BYTES, change no cell: one user
    per block, three with an uneven last block, or all in one block."""

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("exclude_seen", [True, False])
    @pytest.mark.parametrize("name", ["default", "random", "knn", "mf"])
    def test_block_sizes_leave_the_tables_alone(self, monkeypatch, name, exclude_seen, case):
        data, segments = boundary_cases()[case]
        if name == "mf":
            factors = train_mf(
                data.train, n_factors=4, seed=1, validation_fraction=0.3, max_epochs=2
            )
            model = MFPredictor(factors, segments)
        else:
            model = make_predictor(name, data, segments)
        config = ProtocolConfig(top_n=3, explore_k=5, exclude_seen=exclude_seen)
        default = run_core(model, data, segments, config)
        reference = oracle.naive_core_report(model, data, segments, 3, exclude_seen)
        assert_cells_match(default, reference)
        row_bytes = 16 * len(data.items)
        for users in (1, 3, len(data.users)):
            monkeypatch.setattr(dataset, "BLOCK_BYTES", users * row_bytes)
            report = run_core(model, data, segments, config)
            assert [t.cells for t in report.tables] == [t.cells for t in default.tables]
            assert report.ami_excluded == default.ami_excluded

    @pytest.mark.parametrize("exclude_seen", [True, False])
    @pytest.mark.parametrize("users", [1, 3, None])
    def test_outcomes_are_the_evaluable_slots(self, monkeypatch, users, exclude_seen):
        """Discover gets one slot per top-N slot that holds a test item, and
        no other: grouped by user, in rank order, with its truth, cell, user
        mean and item count. Distinct item counts name each slot's item."""
        data, segments = boundary_cases()[1]
        segments = replace(segments, item_counts=np.arange(1, len(data.items) + 1))
        model = RandomPredictor(seed=2)  # integer levels: many ties
        if users is not None:
            monkeypatch.setattr(dataset, "BLOCK_BYTES", users * 16 * len(data.items))
        judged = []
        aggregate = protocol.aggregate_discover
        monkeypatch.setattr(
            protocol, "aggregate_discover", lambda *args: judged.append(args) or aggregate(*args)
        )
        run_core(model, data, segments, ProtocolConfig(top_n=4, explore_k=5, exclude_seen=exclude_seen))
        train_index = oracle.user_ratings_index(data.train)
        test_index = oracle.user_ratings_index(data.test)
        expected = {}
        for user in data.users:
            scores = {i: model.predict(user, i) for i in data.items}
            seen = set(train_index.get(user, ())) if exclude_seen else set()
            for item in oracle.naive_top_n(scores, 4, seen):
                if item in test_index.get(user, {}):
                    segment = oracle.naive_segment(
                        segments.user_counts[data.users.index(user)],
                        segments.user_threshold,
                        segments.item_counts[data.items.index(item)],
                        segments.item_threshold,
                    )
                    expected.setdefault(user, []).append(
                        (item, test_index[user][item], segment, segments.user_mean(user))
                    )
        [(slot_users, cells, truths, means, counts, catalog_size)] = judged
        assert (np.diff(slot_users) >= 0).all()
        got = {}
        for u, cell, truth, mean, count in zip(
            slot_users.tolist(), cells.tolist(), truths.tolist(), means.tolist(), counts.tolist()
        ):
            got.setdefault(data.users[u], []).append((data.items[count - 1], truth, SEGMENTS[cell], mean))
        assert expected and got == expected
        assert catalog_size == len(data.items)

    def test_fixtures_hold_every_case(self):
        for data, _ in boundary_cases():
            assert len(data.users) % 3
            assert set(data.test.users.tolist()) < set(range(len(data.users)))  # users without test logs
        # cold users and items, single-rating users, empty Pitem segments
        data, segments = every_case()
        assert set(data.test.users.tolist()) - set(data.train.users.tolist())
        assert set(data.test.items.tolist()) - set(data.train.items.tolist())
        assert 1 in segments.user_counts.tolist()
        assert not segments.popular.any()


class TestSegmentTables:
    def test_other_id_tables_rejected(self):
        data, segments = every_case()
        # the tables of the train logs alone lack the cold user and item
        other = build_segment_model(oracle.as_ratings(data.train))
        assert other.users != data.users and other.items != data.items
        with pytest.raises(ValueError, match="other id tables"):
            run_core(DefaultPredictor(other), data, other, ProtocolConfig(top_n=2, explore_k=2))

    def test_equal_tables_accepted(self):
        data, segments = make_data(seed=3)
        config = ProtocolConfig(top_n=3, explore_k=3)
        model = DefaultPredictor(segments)
        copied = replace(segments, users=tuple(list(segments.users)))
        assert copied.users is not data.users
        want = run_core(model, data, segments, config)
        got = run_core(model, data, copied, config)
        assert [t.cells for t in got.tables] == [t.cells for t in want.tables]


class TestExplore:
    def test_native_knn_explore_equals_core(self):
        logs = gen_clustered(60, 16, 2, density=0.7, seed=6)
        data = split(logs, 0.8, seed=7)
        segments = build_segment_model(data.train)
        matrix = build_similarity_matrix(data.train, k=8, gamma=20)
        model = KnnPredictor(matrix, segments, data.train)
        config = ProtocolConfig(top_n=5, explore_k=8)
        core = run_core(model, data, segments, config)
        explore = run_explore(model, data, segments, config)
        for core_table, explore_table in zip(core.tables, explore.tables):
            assert core_table.cells == explore_table.cells

    @pytest.mark.parametrize("k", [3, 8, 40])
    def test_report_counts_the_explore_matrix(self, k):
        # the second split leaves 3 of its 30 items without a train rating
        for data, segments in (make_data(seed=13), make_data(seed=13, n_items=30, density=0.1)):
            self.assert_counts(data, segments, k)
        assert (segments.item_counts == 0).sum() == 3

    @staticmethod
    def assert_counts(data, segments, k):
        factors = train_mf(data.train, n_factors=4, seed=1, validation_fraction=0.1, max_epochs=2)
        for model in (
            MFPredictor(factors, segments),
            KnnPredictor(build_similarity_matrix(data.train, k=k, gamma=10), segments, data.train),
        ):
            explore = run_explore(model, data, segments, ProtocolConfig(top_n=3, explore_k=k))
            matrix = model.item_similarity_matrix(k)
            # the catalog's rows: an item without a train rating is short of k
            assert matrix.item_ids == segments.items
            lengths = [len(matrix.neighbor_list(i)) for i in matrix.item_ids]
            assert all(lengths[c] == 0 for c in np.flatnonzero(segments.item_counts == 0))
            assert explore.matrix_counts == {
                "k": k,
                "items": len(segments.items),
                "neighbors": sum(lengths),
                "items_short_of_k": sum(n < k for n in lengths),
            }

    def test_no_capability_marks_absent(self):
        data, segments = make_data(seed=8)
        report = evaluate(DefaultPredictor(segments), data, segments, ProtocolConfig(top_n=3, explore_k=3))
        assert report.explore is None

    def test_random_predictor_absent(self):
        data, segments = make_data(seed=9)
        assert run_explore(RandomPredictor(0), data, segments, ProtocolConfig()) is None


def split_of(train, test):
    """A SplitDataset whose train and test are exactly these (user, item, rating) logs."""
    logs = oracle.as_ratings(RatingLog(*log) for log in train + test)
    in_train = np.arange(len(logs)) < len(train)

    def part(mask):
        return Ratings(
            logs.user_ids, logs.item_ids, logs.users[mask], logs.items[mask], logs.ratings[mask]
        )

    return SplitDataset(part(in_train), part(~in_train), logs.user_ids, logs.item_ids)


@st.composite
def split_cases(draw):
    """Up to 8 users x 8 items, each (user, item) rated 1-5 once, in train
    or in test: tied ratings and scores, cold users and items (test only),
    single-rating users and empty segments all occur."""
    users = st.sampled_from([f"u{n}" for n in range(draw(st.integers(1, 8)))])
    items = st.sampled_from([f"i{n}" for n in range(draw(st.integers(1, 8)))])
    cells = draw(
        st.dictionaries(
            st.tuples(users, items), st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=40
        )
    )
    train = [(u, i, float(r)) for (u, i), (r, in_train) in cells.items() if in_train]
    test = [(u, i, float(r)) for (u, i), (r, in_train) in cells.items() if not in_train]
    assume(train)
    data = split_of(train, test)
    return data, build_segment_model(data.train)


def every_case():
    """Each case at once: a single-rating user (u2), a cold user (u3) and a
    cold item (i3) in test, tied ratings, and no popular item, so both
    Pitem segments are empty."""
    train = [
        ("u0", "i0", 5.0), ("u0", "i1", 4.0), ("u0", "i2", 3.0),
        ("u1", "i0", 4.0), ("u1", "i1", 3.0), ("u2", "i2", 1.0),
    ]
    test = [("u3", "i0", 3.0), ("u0", "i3", 2.0), ("u1", "i2", 5.0)]
    data = split_of(train, test)
    return data, build_segment_model(data.train)


CONFIGS = st.builds(
    ProtocolConfig, top_n=st.integers(1, 4), explore_k=st.integers(1, 4), exclude_seen=st.booleans()
)


def knn_model(data, segments, k, train=None):
    """A KNN on the similarities of ``data.train`` that reads ``train``, by default ``data.train``."""
    matrix = build_similarity_matrix(data.train, k=k, gamma=2)
    return KnnPredictor(matrix, segments, data.train if train is None else train)


def with_logs(logs: Ratings, users, items, ratings) -> Ratings:
    """``logs`` and, after them, the logs of these codes in its id tables and ratings."""
    return replace(
        logs,
        users=np.append(logs.users, users).astype(np.int32),
        items=np.append(logs.items, items).astype(np.int32),
        ratings=np.append(logs.ratings, ratings),
    )


def picked(logs: Ratings, positions) -> Ratings:
    """The logs at ``positions``, in that order, in the same id tables."""
    columns = (logs.users[positions], logs.items[positions], logs.ratings[positions])
    return Ratings(logs.user_ids, logs.item_ids, *columns)


@contextmanager
def knn_scored_users():
    """The user of every KnnPredictor.predict_many call made inside."""
    users = []
    predict_many = KnnPredictor.predict_many

    def counting(self, user_id, item_ids):
        users.append(user_id)
        return predict_many(self, user_id, item_ids)

    KnnPredictor.predict_many = counting
    try:
        yield users
    finally:
        KnnPredictor.predict_many = predict_many


def assert_matches_oracle(report, matrix, data, segments, config):
    """The report's cells are the oracle's for a KNN on ``matrix`` and the train ratings."""
    emulated = KnnPredictor(matrix, segments, data.train, config.r_min, config.r_max)
    reference = oracle.naive_core_report(
        emulated, data, segments, config.top_n, config.exclude_seen
    )
    assert_cells_match(report, reference)


def assert_rescored(model, data, segments, config):
    """run_explore scores every user through a KNN on the extracted matrix,
    and its cells are the oracle's for that KNN."""
    matrix = model.item_similarity_matrix(config.explore_k)
    with knn_scored_users() as users:
        explore = run_explore(model, data, segments, config)
    assert users == list(data.users)
    assert not explore.reused_core
    assert {"score", "rank"} <= set(explore.timings)
    assert_matches_oracle(explore, matrix, data, segments, config)


class TestExploreReusesNativeKnnCore:
    """A KNN with K <= explore_k is its own Explore predictor: Explore returns
    the core report of the same inputs unscored. Any other case re-scores."""

    @settings(max_examples=60, deadline=None)
    @given(split_cases(), CONFIGS, st.integers(0, 2))
    @example(every_case(), ProtocolConfig(top_n=2, explore_k=2), 0)
    def test_k_at_most_explore_k_reuses_core(self, case, config, below):
        data, segments = case
        model = knn_model(data, segments, max(1, config.explore_k - below))
        core = run_core(model, data, segments, config)
        with knn_scored_users() as users:
            explore = run_explore(model, data, segments, config)
        assert users == []
        assert explore.reused_core
        assert set(explore.timings) == {"extract"}
        assert [t.cells for t in explore.tables] == [t.cells for t in core.tables]
        assert explore.ami_excluded == core.ami_excluded
        assert_matches_oracle(explore, model.matrix, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.integers(1, 2))
    @example(every_case(), ProtocolConfig(top_n=2, explore_k=1), 1)
    def test_k_above_explore_k(self, case, config, above):
        data, segments = case
        model = knn_model(data, segments, config.explore_k + above)
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_no_core_run_before(self, case, config):
        data, segments = case
        assert_rescored(knn_model(data, segments, config.explore_k), data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_config_changed_in_place_after_core(self, case, config):
        data, segments = case
        model = knn_model(data, segments, config.explore_k)
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, replace(config, top_n=config.top_n + 1))

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_other_segments_object(self, case, config):
        data, segments = case
        model = knn_model(data, segments, config.explore_k)
        run_core(model, data, segments, config)
        assert_rescored(model, data, build_segment_model(data.train), config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_core_on_other_segments_object(self, case, config):
        data, segments = case
        model = knn_model(data, segments, config.explore_k)
        run_core(model, data, build_segment_model(data.train), config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_model_on_other_segments_object(self, case, config):
        data, segments = case
        model = knn_model(data, build_segment_model(data.train), config.explore_k)
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_other_data_object(self, case, config):
        data, segments = case
        model = knn_model(data, segments, config.explore_k)
        run_core(model, data, segments, config)
        assert_rescored(model, replace(data), segments, config)  # equal, but not the same

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_rating_scale_other_than_the_models(self, case, config):
        data, segments = case
        model = knn_model(data, segments, config.explore_k)
        config = replace(config, r_max=4.0)
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_knn_subclass(self, case, config):
        class DefaultScores(KnnPredictor):
            def predict_many(self, user_id, item_ids):
                return self.fallback.predict_many(user_id, item_ids)

        data, segments = case
        model = DefaultScores(
            build_similarity_matrix(data.train, k=config.explore_k, gamma=2), segments, data.train
        )
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.randoms(use_true_random=False))
    def test_knn_on_other_ratings_than_train(self, case, config, rng):
        data, segments = case
        ratings = data.train.ratings.copy()
        changed = rng.randrange(len(ratings))
        ratings[changed] = ratings[changed] % 5 + 1
        model = knn_model(data, segments, config.explore_k, replace(data.train, ratings=ratings))
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.randoms(use_true_random=False))
    def test_knn_rated_one_more_train_item(self, case, config, rng):
        data, segments = case
        train = data.train
        rated = set(zip(train.users.tolist(), train.items.tolist()))
        train_items = np.flatnonzero(segments.item_counts).tolist()
        users = sorted({u for u, _ in rated})
        gaps = [(u, i) for u in users for i in train_items if (u, i) not in rated]
        assume(gaps)
        user, item = rng.choice(gaps)
        model = knn_model(data, segments, config.explore_k, with_logs(train, user, item, 3.0))
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.randoms(use_true_random=False))
    def test_knn_lacks_one_train_pair(self, case, config, rng):
        data, segments = case
        kept = np.delete(np.arange(len(data.train)), rng.randrange(len(data.train)))
        model = knn_model(data, segments, config.explore_k, picked(data.train, kept))
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.booleans())
    def test_knn_given_a_user_outside_the_data(self, case, config, rated):
        data, segments = case
        train = replace(data.train, user_ids=(*data.users, "zz-stranger"))
        if rated:
            train = with_logs(train, len(data.users), np.flatnonzero(segments.item_counts)[0], 3.0)
        with pytest.raises(ValueError, match="other id tables"):
            knn_model(data, segments, config.explore_k, train)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.randoms(use_true_random=False))
    def test_train_repeats_a_pair(self, case, config, rng):
        """A train set that repeats a (user, item) pair, which
        ``load_dataset`` never leaves, is no input for a KNN."""
        data, _ = case
        train = [(log.user_id, log.item_id, log.rating) for log in data.train]
        test = [(log.user_id, log.item_id, log.rating) for log in data.test]
        data = split_of([*train, rng.choice(train)], test)
        segments = build_segment_model(data.train)
        assert len(data.train) == len(train) + 1
        with pytest.raises(ValueError, match=r"repeat a \(user, item\) pair"):
            knn_model(data, segments, config.explore_k)

    @settings(max_examples=30, deadline=None)
    @given(split_cases(), CONFIGS, st.randoms(use_true_random=False))
    def test_knn_given_train_ratings_in_another_order(self, case, config, rng):
        """Equal ratings in another object are re-scored: reuse asks for
        ``data.train`` itself. The scores are those of the core."""
        data, segments = case
        positions = list(range(len(data.train)))
        rng.shuffle(positions)
        model = knn_model(data, segments, config.explore_k, picked(data.train, positions))
        core = run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)
        explore = run_explore(model, data, segments, config)
        assert [t.cells for t in explore.tables] == [t.cells for t in core.tables]

    @settings(max_examples=20, deadline=None)
    @given(split_cases(), CONFIGS)
    def test_mf(self, case, config):
        data, segments = case
        assume(len(data.train) >= 2)
        factors = train_mf(data.train, n_factors=4, seed=1, validation_fraction=0.3, max_epochs=2)
        model = MFPredictor(factors, segments)
        run_core(model, data, segments, config)
        assert_rescored(model, data, segments, config)

    def test_evaluate_reuses_core(self):
        data, segments = make_data(seed=15)
        model = knn_model(data, segments, 5)
        report = evaluate(model, data, segments, ProtocolConfig(top_n=4, explore_k=5))
        assert report.explore.reused_core
        assert [t.cells for t in report.explore.tables] == [t.cells for t in report.core.tables]

    def test_entry_goes_with_its_model(self):
        data, segments = make_data(seed=16)
        model = knn_model(data, segments, 5)
        run_core(model, data, segments, ProtocolConfig(top_n=4, explore_k=5))
        assert protocol._core_runs[model].data is data
        data_ref = weakref.ref(data)
        del model, data, segments
        gc.collect()
        assert not protocol._core_runs
        assert data_ref() is None


class TestDeterminismAndLeakage:
    def test_identical_runs_identical_reports(self):
        from recbench.reporting import report_payload

        data, segments = make_data(seed=10)
        config = ProtocolConfig(top_n=4, explore_k=6)
        matrix = build_similarity_matrix(data.train, k=6, gamma=10)
        reports = []
        for _ in range(2):
            model = KnnPredictor(matrix, segments, data.train)
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
        assert perturbed_test != list(data.test)  # the perturbation is real

    def test_evaluable_outcomes_backed_by_test_logs(self):
        data, segments = make_data(seed=12)
        model = DefaultPredictor(segments)
        config = ProtocolConfig(top_n=5, explore_k=5)
        test_pairs = {(l.user_id, l.item_id) for l in data.test}
        # Re-derive outcomes the way run_core does and check evaluability.
        train_index = oracle.user_ratings_index(data.train)
        test_index = oracle.user_ratings_index(data.test)
        for user in data.users:
            seen = set(train_index.get(user, ()))
            top = top_items(model, user, data.items, 5, seen)
            for item in top:
                if item in test_index.get(user, {}):
                    assert (user, item) in test_pairs


def by_position(data):
    """A model scoring each item by its catalog position: the last ranks first."""
    return FixedScores({item: float(k) for k, item in enumerate(data.items)})


# u0 ranks i2 first, the test item of u1 at that position; u2 has no test log
ACROSS_ROWS = split_of(
    [("u0", "i0", 4.0), ("u1", "i0", 3.0), ("u2", "i1", 4.0)],
    [("u0", "i1", 2.0), ("u1", "i2", 5.0)],
)


class TestRunCoreAgainstOracle:
    """run_core's cells are the oracle's for blocks of one row and of
    several, with rows that hold no test log, with seen items excluded or
    not, and where a ranked slot of one row is at the position of another
    row's test item, which must not make the slot evaluable."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        split_cases(),
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from(["default", "random", "by_position"]),
    )
    @example((ACROSS_ROWS, build_segment_model(ACROSS_ROWS.train)), 3, 1, True, "by_position")
    @example((ACROSS_ROWS, build_segment_model(ACROSS_ROWS.train)), 1, 1, False, "by_position")
    def test_matches_naive_core_report(self, case, rows, top_n, exclude_seen, name):
        data, segments = case
        model = {
            "default": lambda: DefaultPredictor(segments),
            "random": lambda: RandomPredictor(seed=3),
            "by_position": lambda: by_position(data),
        }[name]()
        config = ProtocolConfig(top_n=top_n, explore_k=1, exclude_seen=exclude_seen)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "BLOCK_BYTES", rows * 16 * len(data.items))
            report = run_core(model, data, segments, config)
        reference = oracle.naive_core_report(model, data, segments, top_n, exclude_seen)
        assert_cells_match(report, reference)

    def test_slot_at_another_rows_test_position_is_not_evaluable(self):
        data = ACROSS_ROWS
        segments = build_segment_model(data.train)
        report = run_core(by_position(data), data, segments, ProtocolConfig(top_n=1, explore_k=1))
        assert report.table("Precision").cells[GLOBAL] == (1.0, 1)  # u1's i2 alone


# u0 and u4 have no test log, so their one-user blocks hold none; u2 has
# one, u1 two with tied truths, u3 three, two of them tied
BLOCK_CASE = split_of(
    [
        ("u0", "i0", 5.0), ("u0", "i1", 4.0), ("u1", "i0", 3.0), ("u2", "i1", 2.0),
        ("u3", "i2", 4.0), ("u4", "i0", 1.0),
    ],
    [
        ("u1", "i1", 4.0), ("u1", "i2", 4.0), ("u2", "i0", 3.0),
        ("u3", "i0", 2.0), ("u3", "i1", 5.0), ("u3", "i3", 2.0),
    ],
)
# i0, i1 and i3 tied
BLOCK_CASE_LEVELS = [3.0, 3.0, 4.0, 3.0, 1.0, 1.0, 1.0, 1.0]


class TestBlockedCompare:
    """Compare's records and the seen items are taken a block of users at a
    time: blocks of one user, the default blocks and one block of all users
    give equal tables, the oracle's, with tied truths and predictions."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        split_cases(),
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=8, max_size=8),
        st.integers(1, 4),
        st.booleans(),
    )
    @example((BLOCK_CASE, build_segment_model(BLOCK_CASE.train)), BLOCK_CASE_LEVELS, 2, True)
    @example((BLOCK_CASE, build_segment_model(BLOCK_CASE.train)), BLOCK_CASE_LEVELS, 1, False)
    def test_block_sizes_give_the_oracles_tables(self, case, levels, top_n, exclude_seen):
        data, segments = case
        model = FixedScores({f"i{n}": level for n, level in enumerate(levels)})
        config = ProtocolConfig(top_n=top_n, explore_k=1, exclude_seen=exclude_seen)
        reports = []
        for users in (1, None, len(data.users)):
            with pytest.MonkeyPatch.context() as patch:
                if users is not None:
                    patch.setattr(dataset, "BLOCK_BYTES", users * 16 * len(data.items))
                reports.append(run_core(model, data, segments, config))
        for report in reports[1:]:
            assert [t.cells for t in report.tables] == [t.cells for t in reports[0].tables]
            assert report.ami_excluded == reports[0].ami_excluded
        reference = oracle.naive_core_report(model, data, segments, top_n, exclude_seen)
        assert_cells_match(reports[0], reference)

    def test_fixture_holds_every_case(self):
        per_user = np.bincount(BLOCK_CASE.test.users, minlength=len(BLOCK_CASE.users))
        assert per_user.tolist() == [0, 2, 1, 3, 0]

    @pytest.mark.parametrize("users", [1, None])
    def test_a_later_failure_outranks_an_earlier_nan(self, monkeypatch, users):
        """Every block is scored before the NaN check, as when Compare ran
        after the blocks: a model that predicts NaN for a user of the first
        block and fails on a user of a later one reports the failure."""
        data, segments = make_data(seed=5)
        tested = sorted(set(data.test.users.tolist()))
        first, later = data.users[tested[0]], data.users[tested[-1]]

        class NanThenFail(DefaultPredictor):
            name = "nan-then-fail"

            def predict_many(self, user_id, item_ids):
                if user_id == later:
                    raise RuntimeError("boom")
                scores = super().predict_many(user_id, item_ids)
                return np.full_like(scores, np.nan) if user_id == first else scores

        if users is not None:
            monkeypatch.setattr(dataset, "BLOCK_BYTES", users * 16 * len(data.items))
        message = f"^model 'nan-then-fail' failed on user {later!r}: boom$"
        with pytest.raises(EvaluationError, match=message):
            run_core(NanThenFail(segments), data, segments, ProtocolConfig(top_n=3, explore_k=3))
