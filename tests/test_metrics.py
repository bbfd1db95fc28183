import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from recbench.dataset import SEGMENTS
from recbench.metrics import (
    GLOBAL,
    RecommendationOutcome,
    ScoredLog,
    aggregate_comp,
    aggregate_discover,
    aggregate_rmse,
    ami_user,
    comp_user,
    precision_user,
    rmse,
)


def scored(pairs, user="u", segment="LuserUitem"):
    return [
        ScoredLog(user, f"i{k}", t, p, segment) for k, (t, p) in enumerate(pairs)
    ]


def outcome(true_rating, user_mean, item_count, user="u", segment="LuserUitem",
            rank=1, catalog_size=100, item="i"):
    return RecommendationOutcome(
        user_id=user,
        item_id=item,
        rank=rank,
        evaluable=true_rating is not None,
        true_rating=true_rating,
        user_mean=user_mean,
        item_count=item_count,
        catalog_size=catalog_size,
        segment=segment,
    )


class TestRmse:
    def test_perfect(self):
        assert rmse(scored([(3, 3), (5, 5)])) == 0.0

    def test_symmetric_errors(self):
        assert rmse(scored([(3, 4), (3, 2)])) == 1.0

    def test_empty_absent(self):
        assert rmse([]) is None


class TestCompUser:
    def test_spec_example(self):
        # true (5,3,1), predicted (4.0,4.5,2.0): pairs (5,3) incompatible,
        # (5,1) and (3,1) compatible -> 2 of 3.
        assert comp_user(scored([(5, 4.0), (3, 4.5), (1, 2.0)])) == (2, 3)

    def test_perfect_predictions(self):
        logs = scored([(5, 5), (3, 3), (1, 1), (4, 4)])
        compatible, counted = comp_user(logs)
        assert compatible == counted == 6

    def test_all_equal_true_ratings(self):
        assert comp_user(scored([(3, 1.0), (3, 4.0), (3, 2.0)])) == (0, 0)

    def test_tied_predictions_incompatible(self):
        assert comp_user(scored([(5, 3.0), (1, 3.0)])) == (0, 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            pairs = [(float(rng.integers(1, 6)), float(rng.uniform(1, 5))) for _ in range(n)]
            transformed = [(t, math.exp(0.5 * p) + 1) for t, p in pairs]
            assert comp_user(scored(pairs)) == comp_user(scored(transformed))


class TestPrecisionUser:
    def test_spec_example(self):
        outcomes = [outcome(r, 3.5, 10) for r in (5, 4, 3, 2)]
        assert precision_user(outcomes) == 0.5

    def test_all_relevant(self):
        outcomes = [outcome(r, 2.0, 10) for r in (5, 4, 3)]
        assert precision_user(outcomes) == 1.0

    def test_rating_at_mean_is_relevant(self):
        assert precision_user([outcome(3.0, 3.0, 10)]) == 1.0

    def test_no_evaluable_absent(self):
        assert precision_user([outcome(None, 3.0, 10)]) is None


class TestAmiUser:
    def test_spec_example(self):
        # |I|=100: (count 2, above mean) and (count 50, below mean)
        # -> 0.5 * ((1/2)*1*100 + (1/50)*(-1)*100) = 24.0
        outcomes = [outcome(5.0, 3.0, 2), outcome(1.0, 3.0, 50)]
        assert ami_user(outcomes) == pytest.approx(24.0)

    def test_rating_at_mean_zero_impact(self):
        assert ami_user([outcome(3.0, 3.0, 10)]) == 0.0

    def test_count_zero_excluded(self):
        outcomes = [outcome(5.0, 3.0, 0), outcome(5.0, 3.0, 4)]
        assert ami_user(outcomes) == pytest.approx(25.0)

    def test_all_count_zero_absent(self):
        assert ami_user([outcome(5.0, 3.0, 0)]) is None

    def test_monotone_in_rarity(self):
        # A strictly rarer relevant item strictly increases AMI.
        base = [outcome(5.0, 3.0, 20), outcome(2.0, 3.0, 5)]
        rarer = [outcome(5.0, 3.0, 7), outcome(2.0, 3.0, 5)]
        assert ami_user(rarer) > ami_user(base)


class TestAggregate:
    def test_single_member_cells_equal_user_values(self):
        outcomes_by_user = {}
        for n, segment in enumerate(SEGMENTS):
            user = f"u{n}"
            outcomes_by_user[user] = [
                outcome(5.0, 3.0, 2 + n, user=user, segment=segment),
                outcome(2.0, 3.0, 8, user=user, segment=segment),
            ]
        precision_table, ami_table, excluded = aggregate_discover(outcomes_by_user)
        assert excluded == 0
        for n, segment in enumerate(SEGMENTS):
            user_outcomes = outcomes_by_user[f"u{n}"]
            assert precision_table.value(segment) == precision_user(user_outcomes)
            assert ami_table.value(segment) == pytest.approx(ami_user(user_outcomes))
            assert precision_table.support(segment) == 2

    def test_macro_micro_differ(self):
        # Users with (1/1) and (0/3) compatible pairs: macro 0.5, micro 0.25.
        per_user = {"a": (1, 1), "b": (0, 3)}
        segments = {"a": "Huser", "b": "Huser"}
        macro, micro = aggregate_comp(per_user, segments)
        assert macro.value(GLOBAL) == 0.5
        assert micro.value(GLOBAL) == 0.25
        assert micro.support(GLOBAL) == 4

    def test_rmse_segment_supports_sum_to_global(self):
        rng = np.random.default_rng(1)
        logs = []
        for k in range(100):
            seg = SEGMENTS[int(rng.integers(0, 4))]
            logs.append(ScoredLog(f"u{k % 7}", f"i{k}", float(rng.integers(1, 6)),
                                  float(rng.uniform(1, 5)), seg))
        table = aggregate_rmse(logs)
        assert sum(table.support(s) for s in SEGMENTS) == table.support(GLOBAL) == 100

    def test_empty_cells_absent_with_zero_support(self):
        table = aggregate_rmse([ScoredLog("u", "i", 3.0, 3.0, "HuserPitem")])
        assert table.value("LuserUitem") is None
        assert table.support("LuserUitem") == 0

    def test_discover_supports_sum_to_global(self):
        rng = np.random.default_rng(2)
        outcomes_by_user = {}
        for u in range(12):
            user = f"u{u}"
            outcomes = []
            for r in range(5):
                evaluable = rng.random() < 0.6
                outcomes.append(
                    outcome(
                        float(rng.integers(1, 6)) if evaluable else None,
                        3.0,
                        int(rng.integers(0, 5)),
                        user=user,
                        segment=SEGMENTS[int(rng.integers(0, 4))],
                        rank=r + 1,
                    )
                )
            outcomes_by_user[user] = outcomes
        precision_table, ami_table, _ = aggregate_discover(outcomes_by_user)
        assert sum(precision_table.support(s) for s in SEGMENTS) == precision_table.support(GLOBAL)
        assert sum(ami_table.support(s) for s in SEGMENTS) == ami_table.support(GLOBAL)


class TestOracleEquivalence:
    """Every metric reproduced by independent brute-force enumeration."""

    def test_random_fixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            pairs = [(float(rng.integers(1, 6)), float(rng.uniform(1, 5))) for _ in range(n)]
            logs = scored(pairs)
            assert abs(rmse(logs) - oracle.naive_rmse(pairs)) < 1e-12
            assert comp_user(logs) == oracle.naive_comp_pairs(pairs)

            outcomes = []
            naive_eval = []
            for k in range(int(rng.integers(1, 8))):
                evaluable = rng.random() < 0.7
                t = float(rng.integers(1, 6)) if evaluable else None
                c = int(rng.integers(1, 10))
                outcomes.append(outcome(t, 3.0, c, catalog_size=50))
                if evaluable:
                    naive_eval.append((t, 3.0, c))
            p = precision_user(outcomes)
            np_ = oracle.naive_precision([(t, m) for t, m, _ in naive_eval])
            assert (p is None and np_ is None) or abs(p - np_) < 1e-12
            a = ami_user(outcomes)
            na = oracle.naive_ami(naive_eval, 50)
            assert (a is None and na is None) or abs(a - na) < 1e-12


TRUTHS = st.integers(1, 5).map(float)
PREDICTIONS = st.one_of(st.sampled_from([1.0, 2.5, 3.0, 4.5]), st.floats(1.0, 5.0))


class TestCompUserAgainstOracle:
    """The O(n log n) count against the pair enumeration, ties in truth,
    in prediction and in both."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TRUTHS, PREDICTIONS), max_size=80))
    def test_generated_lists(self, pairs):
        assert comp_user(scored(pairs)) == oracle.naive_comp_pairs(pairs)

    def test_long_seeded_list(self):
        rng = np.random.default_rng(17)
        levels = rng.integers(1, 6, 600).astype(float)
        continuous = rng.uniform(1, 5, 600)
        pairs = [
            (float(t), float(p if k % 3 else round(p)))
            for k, (t, p) in enumerate(zip(levels, continuous))
        ]
        assert comp_user(scored(pairs)) == oracle.naive_comp_pairs(pairs)


@st.composite
def outcomes_by_user(draw):
    """Up to 8 users' top-N slots: unevaluable slots, ties at the user's
    mean, items never in train (count 0), users and segments without any
    evaluable slot."""
    result = {}
    for u in range(draw(st.integers(0, 8))):
        mean = draw(st.sampled_from([2.5, 3.0, 3.25]))
        slots = st.tuples(
            st.none() | TRUTHS | st.just(3.0),
            st.integers(0, 4),
            st.sampled_from(SEGMENTS),
        )
        result[f"u{u}"] = [
            outcome(truth, mean, count, user=f"u{u}", segment=segment, rank=rank, item=f"i{rank}")
            for rank, (truth, count, segment) in enumerate(draw(st.lists(slots, max_size=10)), 1)
        ]
    return result


class TestAggregateDiscoverAgainstOracle:
    """The one-pass routing against the cell-by-cell filter: the same cells,
    values equal to the last bit (``math.fsum`` is exact in any order)."""

    @settings(max_examples=300, deadline=None)
    @given(outcomes_by_user())
    def test_generated_outcomes(self, outcomes):
        assert aggregate_discover(outcomes) == oracle.per_cell_aggregate_discover(outcomes)
