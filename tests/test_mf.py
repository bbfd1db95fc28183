import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from recbench import dataset, mf
from recbench.baselines import DefaultPredictor
from recbench.dataset import RatingLog, build_segment_model, split
from recbench.mf import (
    ITEM_PINNED,
    USER_PINNED,
    FactorModel,
    MFPredictor,
    TrainingError,
    mf_item_similarity,
    sgd_epoch,
    sgd_levels,
    train_mf,
)
from recbench.synthetic import gen_planted_rank1, gen_uniform


def small_model(p, q, user_ids=None, item_ids=None):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return FactorModel(
        n_factors=p.shape[1],
        learning_rate=0.03,
        regularization=0.008,
        seed=0,
        user_ids=user_ids or [f"u{k}" for k in range(p.shape[0])],
        # zero-padded to sort in row order, as train_mf leaves item ids
        item_ids=item_ids or [f"i{k:0{len(str(len(q) - 1))}d}" for k in range(len(q))],
        user_factors=p,
        item_factors=q,
    )


def one_log_stats(rating):
    """The segment model of one log, u0's rating of i0."""
    return build_segment_model(oracle.as_ratings([RatingLog("u0", "i0", rating)]))


class TestPrediction:
    def test_zero_free_parameters_dot_is_zero(self):
        # Pinned slots only: p = (1, 0, 0), q = (0, 1, 0) -> dot product 0.
        model = small_model([[1, 0, 0]], [[0, 1, 0]])
        assert model.user_factors[0] @ model.item_factors[0] == 0.0
        assert MFPredictor(model, one_log_stats(3.0)).predict("u0", "i0") == 1.0

    def test_dot_product_example(self):
        model = small_model([[1, 0.5, 0.2]], [[1.5, 1, 1.0]])
        assert model.user_factors[0] @ model.item_factors[0] == pytest.approx(2.2)
        assert MFPredictor(model, one_log_stats(3.0)).predict("u0", "i0") == pytest.approx(2.2)

    def test_clamped(self):
        model = small_model([[1, 0, 2.0]], [[1.5, 1, 2.4]])
        pred = MFPredictor(model, one_log_stats(3.0))
        assert model.user_factors[0] @ model.item_factors[0] > 5.0
        assert pred.predict("u0", "i0") == 5.0

    def test_other_item_order_rejected(self):
        model = small_model([[1, 0, 0]], [[0, 1, 0], [0, 1, 1]])
        stats = one_log_stats(4.0)
        with pytest.raises(ValueError):
            MFPredictor(model, stats)

    def test_unknown_user_falls_back(self):
        model = small_model([[1, 0, 0]], [[0, 1, 0]])
        stats = one_log_stats(4.0)
        pred = MFPredictor(model, stats)
        assert pred.predict("ghost", "i0") == DefaultPredictor(stats).predict("ghost", "i0")

    @pytest.mark.parametrize("user_ids", [["u1", "u0"], ["u0", "u0"]])
    def test_unsorted_user_ids_rejected(self, user_ids):
        """A user's row is found by bisection in user_ids."""
        with pytest.raises(ValueError, match="sorted and distinct"):
            small_model([[1, 0, 0]] * 2, [[0, 1, 0]], user_ids=user_ids)

    def test_predict_many_matches_predict(self):
        logs = gen_uniform(20, 12, 0.5, seed=1)
        model = train_mf(logs, n_factors=4, seed=2, budget_seconds=2, validation_fraction=0.1)
        stats = build_segment_model(logs)
        pred = MFPredictor(model, stats)
        catalog = tuple(sorted({l.item_id for l in logs}) + ["unknown"])
        for user in ["u00000", "u00004", "ghost"]:
            many = pred.predict_many(user, catalog)
            single = [pred.predict(user, i) for i in catalog]
            assert np.allclose(many, single, atol=1e-12)

    def test_predict_many_keeps_no_state(self):
        """Catalog, test-list and catalog calls leave the predictor as it
        was, and each equals a fresh predictor's call bit for bit."""
        data = split(gen_uniform(40, 60, 0.06, seed=3), 0.6, seed=4)
        stats = build_segment_model(data.train)
        model = train_mf(data.train, n_factors=4, seed=5, budget_seconds=2, max_epochs=2)
        catalog = stats.items
        assert len(oracle.train_items(stats)) < len(catalog)  # items outside train
        pred = MFPredictor(model, stats)
        before = dict(vars(pred))
        assert {"u00000", "u00007"} <= set(model.user_ids)
        for user in ["u00000", "u00007", "ghost"]:
            tested = [l.item_id for l in data.test if l.user_id == user] + ["unknown"]
            calls = [(catalog, pred.predict_many(user, catalog))]
            calls.append((tested, pred.predict_many(user, tested)))
            calls.append((catalog, pred.predict_many(user, catalog)))
            for items, got in calls:
                assert np.array_equal(got, MFPredictor(model, stats).predict_many(user, items))
        assert vars(pred).keys() == before.keys()
        assert all(vars(pred)[name] is value for name, value in before.items())
        fresh = MFPredictor(model, stats).catalog
        assert all(np.array_equal(a, b) for a, b in zip(pred.catalog, fresh, strict=True))


class TestSgdUpdates:
    def test_update_matches_finite_difference_gradient(self):
        # One SGD step direction equals the negative gradient of
        # 0.5*(r - p.q)^2 + 0.5*reg*(|p_free|^2 + |q_free|^2) on the free slots.
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = int(rng.integers(3, 7))
            p = rng.normal(0, 0.5, (1, f))
            q = rng.normal(0, 0.5, (1, f))
            p[0, USER_PINNED] = 1.0
            q[0, ITEM_PINNED] = 1.0
            r = float(rng.uniform(1, 5))
            lr, reg = 1e-4, 0.3

            def loss(pv, qv):
                err = r - pv @ qv
                free_p = np.delete(pv, USER_PINNED)
                free_q = np.delete(qv, ITEM_PINNED)
                return 0.5 * err**2 + 0.5 * reg * (free_p @ free_p + free_q @ free_q)

            grad_p = np.zeros(f)
            grad_q = np.zeros(f)
            eps = 1e-6
            for k in range(f):
                dp = np.zeros(f)
                dp[k] = eps
                grad_p[k] = (loss(p[0] + dp, q[0]) - loss(p[0] - dp, q[0])) / (2 * eps)
                grad_q[k] = (loss(p[0], q[0] + dp) - loss(p[0], q[0] - dp)) / (2 * eps)

            p2, q2 = p.copy(), q.copy()
            sgd_epoch(p2, q2, np.array([0]), np.array([0]), np.array([r]), np.array([0]), lr, reg)
            step_p = (p2[0] - p[0]) / lr
            step_q = (q2[0] - q[0]) / lr
            mask_p = np.arange(f) != USER_PINNED
            mask_q = np.arange(f) != ITEM_PINNED
            assert np.allclose(step_p[mask_p], -grad_p[mask_p], rtol=1e-4, atol=1e-8)
            assert np.allclose(step_q[mask_q], -grad_q[mask_q], rtol=1e-4, atol=1e-8)
            assert step_p[USER_PINNED] == 0.0
            assert step_q[ITEM_PINNED] == 0.0

    def test_single_step_reduces_error(self):
        # With reg 0 and a small learning rate, one step on a single log
        # strictly reduces that log's squared error.
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = int(rng.integers(3, 8))
            p = rng.normal(0, 0.5, (1, f))
            q = rng.normal(0, 0.5, (1, f))
            p[0, USER_PINNED] = 1.0
            q[0, ITEM_PINNED] = 1.0
            r = float(rng.uniform(1, 5))
            before = (r - p[0] @ q[0]) ** 2
            if before < 1e-20:
                continue
            sgd_epoch(p, q, np.array([0]), np.array([0]), np.array([r]), np.array([0]), 1e-3, 0.0)
            after = (r - p[0] @ q[0]) ** 2
            assert after < before


SGD_SHAPES = (
    "one user rates everything",
    "one item rated by everyone",
    "single-rating users",
    "mixed",
)


def sgd_fixture(shape, n, f, rng):
    """(p, q, uu, ii, rr): n ratings of the given shape, factors with their
    pinned slots at 1, and one more user and item that nobody rated."""
    if shape == "one user rates everything":  # one chain through every rating
        uu, ii = np.zeros(n, np.intp), np.arange(n)
    elif shape == "one item rated by everyone":
        uu, ii = np.arange(n), np.zeros(n, np.intp)
    elif shape == "single-rating users":
        uu, ii = np.arange(n), rng.integers(0, 4, n)
    else:
        uu, ii = rng.integers(0, 5, n), rng.integers(0, 6, n)
    rr = rng.integers(1, 6, n).astype(float)
    p = rng.uniform(-0.5, 0.5, (int(uu.max()) + 2, f))
    q = rng.uniform(-0.5, 0.5, (int(ii.max()) + 2, f))
    p[:, USER_PINNED] = 1.0
    q[:, ITEM_PINNED] = 1.0
    return p, q, uu, ii, rr


ORDER_KINDS = ("shuffled", "repeated", "single", "empty")


def epoch_order(kind, n, rng):
    if kind == "shuffled":
        return rng.permutation(n)
    if kind == "repeated":  # ratings seen several times, some not at all
        return rng.integers(0, n, 2 * n)
    if kind == "single":  # one update
        return rng.integers(0, n, 1)
    return np.array([], dtype=np.intp)


class TestLevelSchedule:
    """The level-scheduled epoch against one-rating-at-a-time steps."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from(SGD_SHAPES),
        n=st.integers(1, 40),
        orders=st.lists(st.sampled_from(ORDER_KINDS), min_size=1, max_size=3),
        f=st.sampled_from([3, 16]),
        lr=st.sampled_from([0.01, 0.05]),
        codes=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_epochs_bit_for_bit(self, shape, n, orders, f, lr, codes, seed):
        """Every shape leaves a p row and a q row that no update touches;
        train_mf passes int32 codes, the benchmark's check int64."""
        rng = np.random.default_rng(seed)
        p, q, uu, ii, rr = sgd_fixture(shape, n, f, rng)
        uu, ii = uu.astype(codes), ii.astype(codes)
        p_ref, q_ref = p.copy(), q.copy()
        for kind in orders:
            order = epoch_order(kind, n, rng)
            levels = sgd_epoch(p, q, uu, ii, rr, order, lr, 0.008)
            oracle.naive_sgd_epoch(p_ref, q_ref, uu, ii, rr, order, lr, 0.008)
            assert np.array_equal(p, p_ref)
            assert np.array_equal(q, q_ref)
            assert levels == int(sgd_levels(uu[order], ii[order]).max(initial=0))

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SGD_SHAPES),
        n=st.integers(1, 40),
        kind=st.sampled_from(ORDER_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_levels_share_no_row_and_follow_every_dependency(self, shape, n, kind, seed):
        rng = np.random.default_rng(seed)
        _, _, uu, ii, _ = sgd_fixture(shape, n, 3, rng)
        order = epoch_order(kind, n, rng)
        users, items = uu[order], ii[order]
        levels = sgd_levels(users, items)
        for level in set(levels.tolist()):
            on_level = levels == level
            assert len(set(users[on_level].tolist())) == on_level.sum()
            assert len(set(items[on_level].tolist())) == on_level.sum()
        assert levels.tolist() == oracle.naive_sgd_levels(users.tolist(), items.tolist())

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_levels_carry_across_chunks(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        p, q, uu, ii, rr = sgd_fixture("mixed", 40, 4, rng)
        order = epoch_order("repeated", 40, rng)
        whole = sgd_levels(uu[order], ii[order])
        monkeypatch.setattr(dataset, "BLOCK_BYTES", 256 * chunk)  # 256 bytes an update
        levels = sgd_levels(uu[order], ii[order])
        assert levels.dtype == np.int32 and np.array_equal(levels, whole)
        p_ref, q_ref = p.copy(), q.copy()
        sgd_epoch(p, q, uu, ii, rr, order, 0.05, 0.008)
        oracle.naive_sgd_epoch(p_ref, q_ref, uu, ii, rr, order, 0.05, 0.008)
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)

    def test_one_user_chain_has_a_level_per_rating(self):
        rng = np.random.default_rng(0)
        p, q, uu, ii, rr = sgd_fixture("one user rates everything", 12, 4, rng)
        assert sgd_epoch(p, q, uu, ii, rr, rng.permutation(12), 0.03, 0.008) == 12
        assert sgd_epoch(p, q, uu, ii, rr, np.array([], dtype=np.intp), 0.03, 0.008) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SGD_SHAPES),
        n=st.integers(1, 40),
        kind=st.sampled_from(ORDER_KINDS),
        codes=st.sampled_from([np.int32, np.int64]),
        order_codes=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_halves_and_separate_arrays_match_naive(
        self, shape, n, kind, codes, order_codes, seed
    ):
        """train_mf passes p and q as the two halves of one table, stepped
        in place; perfbench's check passes separate arrays, stepped on a
        copy. Both are the one-rating steps, bit for bit."""
        rng = np.random.default_rng(seed)
        p, q, uu, ii, rr = sgd_fixture(shape, n, 4, rng)
        uu, ii = uu.astype(codes), ii.astype(codes)
        order = epoch_order(kind, n, rng).astype(order_codes)
        p_ref, q_ref = p.copy(), q.copy()
        oracle.naive_sgd_epoch(p_ref, q_ref, uu, ii, rr, order, 0.05, 0.008)
        table = np.concatenate((p, q))
        halves = table[: len(p)], table[len(p) :]
        assert mf._stacked(*halves) is table and mf._stacked(p, q) is None
        sgd_epoch(*halves, uu, ii, rr, order, 0.05, 0.008)
        sgd_epoch(p, q, uu, ii, rr, order, 0.05, 0.008)
        for got_p, got_q in (halves, (p, q)):
            assert np.array_equal(got_p, p_ref) and np.array_equal(got_q, q_ref)

    def test_only_adjacent_halves_are_stepped_in_place(self):
        table = np.zeros((7, 4))
        assert mf._stacked(table[:3], table[3:]) is table
        assert mf._stacked(table[:0], table) is None  # the whole table is not a view of itself
        assert mf._stacked(table[3:], table[:3]) is None  # q's rows first
        assert mf._stacked(table[:3], table[4:]) is None  # a row between them
        assert mf._stacked(table[:3], table[3:].copy()) is None
        wide = np.zeros((7, 6))
        assert mf._stacked(wide[:3, :4], wide[3:, :4]) is None  # not contiguous

    def test_levels_past_one_radix_digit(self):
        """More than 2**16 levels take a second 16-bit pass: one item that
        every rating shares chains them all, and the first pass puts the
        levels past 2**16 first."""
        n = 2**16 + 20
        rng = np.random.default_rng(4)
        uu, ii = rng.integers(0, 50, n).astype(np.int32), np.zeros(n, np.int32)
        rr = rng.integers(1, 6, n).astype(float)
        table = rng.uniform(-0.5, 0.5, (51, 3))
        table[:50, USER_PINNED] = table[50:, ITEM_PINNED] = 1.0
        p_ref, q_ref = table[:50].copy(), table[50:].copy()
        order = rng.permutation(n).astype(np.int32)
        assert sgd_epoch(table[:50], table[50:], uu, ii, rr, order, 0.001, 0.008) == n
        oracle.naive_sgd_epoch(p_ref, q_ref, uu, ii, rr, order, 0.001, 0.008)
        assert np.array_equal(table[:50], p_ref) and np.array_equal(table[50:], q_ref)

    def test_train_mf_matches_naive_epochs(self, monkeypatch):
        logs = gen_uniform(30, 20, 0.4, seed=2)
        kwargs = dict(n_factors=5, seed=3, budget_seconds=1e9, validation_fraction=0.1, max_epochs=6)
        fast = train_mf(logs, **kwargs)
        monkeypatch.setattr(mf, "sgd_epoch", oracle.naive_sgd_epoch)
        naive = train_mf(logs, **kwargs)
        assert np.array_equal(fast.user_factors, naive.user_factors)
        assert np.array_equal(fast.item_factors, naive.item_factors)
        assert [e["val_rmse"] for e in fast.training_log] == [e["val_rmse"] for e in naive.training_log]


class TestTraining:
    def test_pinned_coordinates_unchanged(self):
        logs = gen_uniform(30, 15, 0.5, seed=3)
        model = train_mf(logs, n_factors=5, seed=4, budget_seconds=2, validation_fraction=0.1)
        assert np.all(model.user_factors[:, USER_PINNED] == 1.0)
        assert np.all(model.item_factors[:, ITEM_PINNED] == 1.0)

    def test_bit_reproducible(self):
        logs = gen_uniform(25, 12, 0.5, seed=5)
        kwargs = dict(n_factors=4, seed=9, budget_seconds=1e9, validation_fraction=0.1, max_epochs=8)
        a = train_mf(logs, **kwargs)
        b = train_mf(logs, **kwargs)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)
        # elapsed is wall clock; epochs and validation RMSEs must match exactly
        assert [(e["epoch"], e["val_rmse"]) for e in a.training_log] == [
            (e["epoch"], e["val_rmse"]) for e in b.training_log
        ]

    def test_returns_best_validation_snapshot(self):
        logs = gen_uniform(40, 20, 0.5, seed=6)
        model = train_mf(logs, n_factors=4, seed=7, budget_seconds=1e9, validation_fraction=0.1, max_epochs=30)
        best_epoch = min(model.training_log, key=lambda e: e["val_rmse"])
        # Retrain stopping exactly at the best epoch and compare factor tables.
        again = train_mf(
            logs, n_factors=4, seed=7, budget_seconds=1e9, validation_fraction=0.1,
            max_epochs=best_epoch["epoch"] + 1,
        )
        assert np.array_equal(model.user_factors, again.user_factors)
        assert np.array_equal(model.item_factors, again.item_factors)

    def test_training_log_has_every_epoch(self):
        logs = gen_uniform(25, 12, 0.5, seed=8)
        model = train_mf(logs, n_factors=4, seed=1, budget_seconds=1e9, validation_fraction=0.1, max_epochs=6)
        assert [e["epoch"] for e in model.training_log] == list(range(len(model.training_log)))
        assert all(isinstance(e["levels"], int) and e["levels"] >= 1 for e in model.training_log)

    def test_planted_rank1_recovery(self):
        logs = gen_planted_rank1(100, 60, 0.5, seed=11)
        model = train_mf(logs, n_factors=4, seed=12, budget_seconds=20, validation_fraction=0.05)
        stats = build_segment_model(logs)
        pred = MFPredictor(model, stats)
        errors = [(l.rating - pred.predict(l.user_id, l.item_id)) ** 2 for l in logs]
        assert np.sqrt(np.mean(errors)) <= 0.32

    def test_invalid_inputs(self):
        logs = gen_uniform(10, 5, 0.5, seed=0)
        with pytest.raises(TrainingError):
            train_mf(oracle.as_ratings([]), n_factors=4, seed=0, budget_seconds=1)
        with pytest.raises(TrainingError):
            train_mf(logs, n_factors=2, seed=0, budget_seconds=1)
        with pytest.raises(TrainingError):
            train_mf(logs, n_factors=4, seed=0, budget_seconds=1, validation_fraction=0.7)
        with pytest.raises(TrainingError):
            train_mf(logs, n_factors=4, seed=0, budget_seconds=0)
        # a NaN budget never ends a run: with max_epochs it would run them all
        with pytest.raises(TrainingError, match="budget must be positive"):
            train_mf(logs, n_factors=4, seed=0, budget_seconds=float("nan"), max_epochs=4)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"learning_rate": 0.0}, "learning_rate must be > 0"),
            ({"learning_rate": -0.5}, "learning_rate must be > 0"),
            ({"regularization": -0.1}, "regularization must be >= 0"),
            ({"max_epochs": 0}, "max_epochs must be >= 1"),
            ({"max_epochs": -2}, "max_epochs must be >= 1"),
        ],
    )
    def test_unusable_step_settings_rejected(self, bad, message):
        # learning_rate 0 never raises the validation RMSE, so it would spin
        # until the budget; max_epochs < 1 would still run one epoch
        logs = gen_uniform(30, 20, 0.3, seed=1)
        with pytest.raises(TrainingError, match=message):
            train_mf(logs, n_factors=4, seed=0, budget_seconds=2, **bad)

    def test_divergence_is_an_error(self):
        # a NaN validation RMSE never counts as an increase, so without the
        # check this ran to the budget and returned the initial factors
        logs = gen_uniform(30, 20, 0.3, seed=1)
        with pytest.raises(TrainingError, match="SGD diverged at epoch 0"):
            train_mf(logs, n_factors=4, seed=0, budget_seconds=2, learning_rate=50.0)


class TestItemSimilarity:
    def test_identical_vectors_full_similarity(self):
        q = [[0.5, 1, 0.2, 0.9], [0.5, 1, 0.2, 0.9], [1.0, 1, -2.0, 0.3]]
        model = small_model(np.ones((1, 4)), q)
        matrix = mf_item_similarity(model, k=2)
        assert matrix.neighbor_list("i0")[0] == ("i1", pytest.approx(1.0))

    def test_mirror_vector_excluded(self):
        qi = np.array([0.5, 1.0, 0.2, 0.9])
        qj = -qi + 2 * qi.mean()
        # Pearson of a vector with its mirror about the mean is exactly -1.
        model = small_model(np.ones((1, 4)), [qi, qj])
        matrix = mf_item_similarity(model, k=2)
        assert all(n != "i1" for n, _ in matrix.neighbor_list("i0"))

    def test_zero_variance_vector_has_no_neighbors(self):
        q = [[0.7, 0.7, 0.7, 0.7], [0.5, 1, 0.2, 0.9], [0.6, 1, 0.1, 0.8]]
        model = small_model(np.ones((1, 4)), q)
        matrix = mf_item_similarity(model, k=2)
        assert matrix.neighbor_list("i0") == []
        assert all(n != "i0" for n, _ in matrix.neighbor_list("i1"))

    def test_unsorted_item_ids_rejected(self):
        model = small_model(np.ones((1, 4)), np.eye(2, 4), item_ids=["i1", "i0"])
        with pytest.raises(ValueError):
            mf_item_similarity(model, k=1)

    def test_matches_naive_pearson(self):
        rng = np.random.default_rng(3)
        q = rng.normal(0, 1, (8, 5))
        model = small_model(np.ones((1, 5)), q)
        matrix = mf_item_similarity(model, k=7)
        for a in range(8):
            for b in range(8):
                if a == b:
                    continue
                expected = np.corrcoef(q[a], q[b])[0, 1]
                got = dict(matrix.neighbor_list(f"i{a}")).get(f"i{b}")
                if expected > 1e-9:
                    assert got == pytest.approx(expected, abs=1e-10)
                else:
                    assert got is None


class TestPredictorMatrix:
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_the_extraction_over_the_catalog(self, k):
        """Over a split whose catalog lists items without a train rating:
        the predictor's matrix is over the catalog, their rows are empty,
        and each other item lists, by id, its neighbours in
        ``mf_item_similarity``, with identical weight bits."""
        data = split(gen_uniform(40, 60, 0.06, seed=3), 0.6, seed=4)
        stats = build_segment_model(data.train)
        model = train_mf(data.train, n_factors=4, seed=5, budget_seconds=2, max_epochs=2)
        assert len(oracle.train_items(stats)) < len(stats.items)
        got = MFPredictor(model, stats).item_similarity_matrix(k)
        want = mf_item_similarity(model, k)
        assert got.k == k and got.item_ids == stats.items
        assert got.indices.dtype == want.indices.dtype
        assert not np.diff(got.indptr)[stats.item_counts == 0].any()
        for item in stats.items:
            assert got.neighbor_list(item) == want.neighbor_list(item), item
        assert np.array_equal(got.weights.view(np.int64), want.weights.view(np.int64))

    def test_other_train_items_rejected(self):
        stats = build_segment_model(oracle.as_ratings([RatingLog("u0", "i0", 3.0)]))
        model = small_model(np.ones((1, 3)), np.ones((2, 3)))  # items i0 and i1
        with pytest.raises(ValueError, match="factor model items differ"):
            MFPredictor(model, stats)


def gaussian_items(n_items, seed=5):
    """Continuous F=4 item vectors, every 97th one of zero variance."""
    q = np.random.default_rng(seed).normal(0, 1, (n_items, 4))
    q[::97] = 0.3
    return small_model(np.ones((1, 4)), q)


def tied_items(n_items, seed=6):
    """F=16 vectors c + (+-1 pattern): unit entries are +-1/4, so every
    correlation is a multiple of 1/16 whatever the summation order, and each
    pattern recurs about five times, so exact ties fall at the K boundaries."""
    rng = np.random.default_rng(seed)
    patterns = np.array([rng.permutation([1.0] * 8 + [-1.0] * 8) for _ in range(n_items // 5)])
    q = patterns[rng.integers(0, len(patterns), n_items)] + rng.integers(-3, 4, (n_items, 1))
    q[::97] = 2.0
    return small_model(np.ones((1, 16)), q)


def assert_same_neighbors(got, want):
    assert got.keys() == want.keys()
    for item, expected in want.items():
        assert [j for j, _ in got[item]] == [j for j, _ in expected], item
        np.testing.assert_allclose(
            [w for _, w in got[item]], [w for _, w in expected], rtol=0, atol=1e-12
        )


class TestBlockedExtraction:
    """Row-blocked extraction against the dense oracle."""

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("items", [gaussian_items, tied_items])
    def test_matches_dense_oracle(self, items, k):
        model = items(1500)
        assert 1500 > dataset.BLOCK_BYTES // (8 * 1500), "must span several blocks"
        assert_same_neighbors(
            mf_item_similarity(model, k).neighbors, oracle.naive_mf_item_similarity(model, k)
        )

    @pytest.mark.parametrize("k", [240, 265])
    def test_k_at_least_catalog(self, monkeypatch, k):
        monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 240 * 50)
        model = tied_items(240)
        assert_same_neighbors(
            mf_item_similarity(model, k).neighbors, oracle.naive_mf_item_similarity(model, k)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.one_of(
                        # equal entries: a zero-variance row; few distinct
                        # patterns: tied vectors, so ties at the K boundary
                        st.integers(-2, 2).map(lambda v: [float(v)] * 4),
                        st.lists(st.integers(-1, 1).map(float), min_size=4, max_size=4),
                        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                st.integers(1, n + 2),  # K: 1 to more than the items
                st.integers(1, 4),  # rows per block
            )
        )
    )
    @example(([[0.0, 1, 0, 1]] + [[1.0, 0, 1, 0]] * 3 + [[0.0, 1, 0, 1]] * 4, 2, 3))
    @example(([[0.0, 1, 0, 1]] * 3 + [[2.0] * 4] * 2 + [[0.0, 0, 1, 1]], 1, 1))
    def test_equals_all_candidates_reference(self, case):
        """Bit for bit: each block's rows cut to K give the CSR arrays of
        sorting every block's candidates at once."""
        q, k, block_rows = case
        model = small_model(np.ones((1, 4)), q)
        with mock.patch.object(dataset, "BLOCK_BYTES", 8 * len(q) * block_rows):
            got = mf_item_similarity(model, k)
            want = oracle.blocked_mf_item_similarity(model, k)
        assert got.k == want.k and got.item_ids == want.item_ids
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.weights, want.weights)

    def test_memory_is_the_block_and_the_output(self):
        """Peak memory: at most the block buffer, half of it again in
        temporaries, and twice the n x K output."""
        n_items, k = 3000, 100
        model = small_model(np.ones((1, 16)), np.random.default_rng(8).normal(0, 1, (n_items, 16)))
        tracemalloc.start()
        try:
            mf_item_similarity(model, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dataset.BLOCK_BYTES + 2 * n_items * k * 16

    # Extraction's peak in correlation blocks (43 rows x 3,000 items) when
    # ties make every row's candidates thousands long, about a tenth above
    # the measured 8.5 (all one vector) and 7.1 (one vector and its
    # mirror), 3.5 of which is the n x K output; 12.6 and 9.0 when each
    # row was partitioned on its own and its candidates kept as (row,
    # column, correlation) triples.
    @pytest.mark.parametrize(
        "direction, bound",
        [(np.ones(3000), 9.4), (np.resize([1.0, -1.0], 3000), 7.8)],
        ids=["all-tied", "two-direction"],
    )
    def test_memory_under_ties(self, direction, bound):
        """All item vectors one vector or its mirror, so every correlation
        is +-1 and each row's K-th largest ties with half the items or all."""
        n_items, k = 3000, 100
        q = direction[:, None] * np.random.default_rng(9).normal(0, 1, 16)
        model = small_model(np.ones((1, 16)), q)
        block = dataset.BLOCK_BYTES // (8 * n_items) * 8 * n_items
        tracemalloc.start()
        try:
            matrix = mf_item_similarity(model, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.counts()["neighbors"] == n_items * k
        assert peak / block <= bound, peak / block

    def test_short_rows_are_trimmed_without_a_copy(self, monkeypatch):
        """Most rows keep fewer than K, so the output is trimmed: in place,
        never held twice. Nine in ten vectors are one direction, the rest
        its mirror, so a row keeps its own group, about 82% of the n x K
        slots in all; a trimmed copy next to them would pass twice the output."""
        n_items, k = 600, 600
        monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * n_items * 8)
        rng = np.random.default_rng(10)
        direction = np.where(np.arange(n_items) % 10 == 0, -1.0, 1.0)
        q = direction[:, None] * rng.normal(0, 1, 16) + rng.normal(0, 0.01, (n_items, 16))
        model = small_model(np.ones((1, 16)), q)
        tracemalloc.start()
        try:
            matrix = mf_item_similarity(model, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = matrix.indptr.nbytes + matrix.indices.nbytes + matrix.weights.nbytes
        assert 0.7 < len(matrix.indices) / (n_items * (n_items - 1)) < 0.9
        assert peak < 2 * output, peak / output

    def test_memory_bounded_by_block(self):
        n_items = 3000
        model = small_model(np.ones((1, 16)), np.random.default_rng(7).normal(0, 1, (n_items, 16)))
        tracemalloc.start()
        try:
            mf_item_similarity(model, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_items * n_items * 8 / 4
