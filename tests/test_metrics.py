import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from recbench import dataset, metrics
from recbench.dataset import SEGMENTS
from recbench.metrics import (
    GLOBAL,
    ScoredLog,
    aggregate_comp,
    aggregate_discover,
    aggregate_rmse,
    comp_user,
)


def scored(pairs, user="u", segment="LuserUitem"):
    return [
        ScoredLog(user, f"i{k}", t, p, segment) for k, (t, p) in enumerate(pairs)
    ]


def outcome(true_rating, user_mean, item_count, user="u", segment="LuserUitem",
            rank=1, catalog_size=100, item="i"):
    return oracle.RecommendationOutcome(
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


def decide(logs):
    """``aggregate_rmse`` of ScoredLog records, as run_core passes them."""
    return aggregate_rmse(
        np.array([s.true_rating for s in logs], dtype=float),
        np.array([s.predicted_rating for s in logs], dtype=float),
        np.array([SEGMENTS.index(s.segment) for s in logs], dtype=np.intp),
    )


def discover(outcomes_by_user):
    """``aggregate_discover`` of {user: [outcome]}, as run_core passes them:
    the evaluable outcomes, grouped by user, users coded in dict order.
    Every outcome has the same catalog_size."""
    slots = [
        (code, o)
        for code, outcomes in enumerate(outcomes_by_user.values())
        for o in outcomes
        if o.evaluable
    ]
    return aggregate_discover(
        np.array([code for code, _ in slots], dtype=np.intp),
        np.array([SEGMENTS.index(o.segment) for _, o in slots], dtype=np.intp),
        np.array([o.true_rating for _, o in slots], dtype=float),
        np.array([o.user_mean for _, o in slots], dtype=float),
        np.array([o.item_count for _, o in slots], dtype=np.int64),
        slots[0][1].catalog_size if slots else 1,
    )


def one_user(outcomes):
    """One user's precision and AMI, the Global cells of a one-user input,
    and the number of AMI-excluded slots."""
    precision_table, ami_table, excluded = discover({"u": outcomes})
    return precision_table.value(GLOBAL), ami_table.value(GLOBAL), excluded


class TestRmse:
    def test_perfect(self):
        assert decide(scored([(3, 3), (5, 5)])).cells[GLOBAL] == (0.0, 2)

    def test_symmetric_errors(self):
        assert decide(scored([(3, 4), (3, 2)])).cells[GLOBAL] == (1.0, 2)

    def test_empty_absent(self):
        table = decide([])
        assert all(table.cells[s] == (None, 0) for s in (GLOBAL,) + SEGMENTS)

    @settings(max_examples=200, deadline=None)
    @given(
        chunk=st.integers(1, 8),
        chunks=st.integers(1, 4),
        edge=st.sampled_from([-1, 0, 1]),
        cancelling=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(chunk=2**12, chunks=2, edge=1, cancelling=2, seed=0)
    def test_chunked_sum_is_one_exact_fsum(self, chunk, chunks, edge, cancelling, seed):
        """Huge, tiny and subnormal values, and huge pairs (h, -h) that
        cancel once the tiny ones are lost beside them, at lengths of a
        chunk boundary and one either side: a sum of per-chunk fsums would
        round at each chunk."""
        n = max(1, chunk * chunks + edge)
        rng = np.random.default_rng(seed)
        values = rng.random(n) * 2.0 ** rng.integers(-1074, 990, n)
        k = min(cancelling, n // 2)
        at = rng.choice(n, 2 * k, replace=False)
        values[at[:k]] = 2.0**1000 * (1 + rng.random(k))
        values[at[k:]] = -values[at[:k]]
        with mock.patch.object(dataset, "BLOCK_BYTES", 256 * chunk):  # 256 bytes a float
            got = metrics._rmse_cell(values)
        assert got == (math.sqrt(math.fsum(values.tolist()) / n), n)


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


class TestScoredLog:
    """A tuple of five fields, built positionally as the benchmark harness
    and the tests build it."""

    def test_positional_fields(self):
        log = ScoredLog("u", "i", 4.0, 3.5, "HuserPitem")
        assert ScoredLog._fields == ("user_id", "item_id", "true_rating", "predicted_rating", "segment")
        assert (log.user_id, log.item_id, log.true_rating, log.predicted_rating, log.segment) == tuple(log)

    def test_immutable(self):
        log = ScoredLog("u", "i", 4.0, 3.5, "HuserPitem")
        with pytest.raises(AttributeError):
            log.predicted_rating = 1.0

    def test_comp_user_on_positional_records_equals_the_oracle(self):
        rng = np.random.default_rng(5)
        truths = rng.integers(1, 6, 40).astype(float).tolist()
        predictions = np.round(rng.uniform(1, 5, 40), 1).tolist()
        logs = [ScoredLog("u", f"i{k}", t, p, "") for k, (t, p) in enumerate(zip(truths, predictions))]
        assert comp_user(logs) == oracle.naive_comp_pairs(list(zip(truths, predictions)))


class TestPrecisionUser:
    def test_spec_example(self):
        outcomes = [outcome(r, 3.5, 10) for r in (5, 4, 3, 2)]
        assert one_user(outcomes)[0] == 0.5

    def test_all_relevant(self):
        outcomes = [outcome(r, 2.0, 10) for r in (5, 4, 3)]
        assert one_user(outcomes)[0] == 1.0

    def test_rating_at_mean_is_relevant(self):
        assert one_user([outcome(3.0, 3.0, 10)])[0] == 1.0

    def test_no_evaluable_absent(self):
        precision_table, ami_table, excluded = discover({"u": [outcome(None, 3.0, 10)]})
        for table in (precision_table, ami_table):
            assert all(table.cells[s] == (None, 0) for s in (GLOBAL,) + SEGMENTS)
        assert excluded == 0


class TestAmiUser:
    def test_spec_example(self):
        # |I|=100: (count 2, above mean) and (count 50, below mean)
        # -> 0.5 * ((1/2)*1*100 + (1/50)*(-1)*100) = 24.0
        outcomes = [outcome(5.0, 3.0, 2), outcome(1.0, 3.0, 50)]
        assert one_user(outcomes)[1] == pytest.approx(24.0)

    def test_rating_at_mean_zero_impact(self):
        assert one_user([outcome(3.0, 3.0, 10)])[1] == 0.0

    def test_count_zero_excluded(self):
        outcomes = [outcome(5.0, 3.0, 0), outcome(5.0, 3.0, 4)]
        assert one_user(outcomes)[1:] == (pytest.approx(25.0), 1)

    def test_all_count_zero_absent(self):
        assert one_user([outcome(5.0, 3.0, 0)]) == (1.0, None, 1)

    def test_monotone_in_rarity(self):
        # A strictly rarer relevant item strictly increases AMI.
        base = [outcome(5.0, 3.0, 20), outcome(2.0, 3.0, 5)]
        rarer = [outcome(5.0, 3.0, 7), outcome(2.0, 3.0, 5)]
        assert one_user(rarer)[1] > one_user(base)[1]


class TestAggregate:
    def test_single_member_cells_equal_user_values(self):
        outcomes_by_user = {}
        for n, segment in enumerate(SEGMENTS):
            user = f"u{n}"
            outcomes_by_user[user] = [
                outcome(5.0, 3.0, 2 + n, user=user, segment=segment),
                outcome(2.0, 3.0, 8, user=user, segment=segment),
            ]
        precision_table, ami_table, excluded = discover(outcomes_by_user)
        assert excluded == 0
        for n, segment in enumerate(SEGMENTS):
            user_outcomes = outcomes_by_user[f"u{n}"]
            assert precision_table.value(segment) == oracle.precision_user(user_outcomes)
            assert ami_table.value(segment) == pytest.approx(oracle.ami_user(user_outcomes))
            assert precision_table.support(segment) == 2

    def test_macro_micro_differ(self):
        # Users with (1/1) and (0/3) compatible pairs: macro 0.5, micro 0.25.
        macro, micro = aggregate_comp(np.array([1, 0]), np.array([1, 3]), np.array([True, True]))
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
        table = decide(logs)
        assert sum(table.support(s) for s in SEGMENTS) == table.support(GLOBAL) == 100

    def test_empty_cells_absent_with_zero_support(self):
        table = decide([ScoredLog("u", "i", 3.0, 3.0, "HuserPitem")])
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
        precision_table, ami_table, _ = discover(outcomes_by_user)
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
            assert abs(decide(logs).value(GLOBAL) - oracle.naive_rmse(pairs)) < 1e-12
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
            p, a, _ = one_user(outcomes)
            np_ = oracle.naive_precision([(t, m) for t, m, _ in naive_eval])
            assert (p is None and np_ is None) or abs(p - np_) < 1e-12
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
        assert discover(outcomes) == oracle.per_cell_aggregate_discover(outcomes)


# (truth, prediction) pairs whose error e has e ** 2 != e * e with glibc's
# pow; in one cell they give an RMSE whose last bit tells the two apart.
SQUARE_MISMATCHES = [(5.0, 3.694345496954798), (1.0, 3.325088686927045)]


@st.composite
def evaluated_users(draw):
    """Up to 6 users' test logs and evaluable top-N slots, as run_core
    holds them: (user mean, [(truth, prediction, cell, item count)],
    [test log of each slot, in rank order]). Predictions are arbitrary
    floats, the pairs above, or the truth itself; a mean may be a rating
    level, as a single-rating user's is, so truths tie with it; items may
    have train count 0; a user may have one test log, or none; segments may
    stay empty."""
    users = []
    for _ in range(draw(st.integers(0, 6))):
        mean = draw(TRUTHS | st.sampled_from([2.5, 3.25]))
        logs = draw(st.lists(
            st.tuples(
                TRUTHS,
                st.floats(-1e6, 1e6) | st.sampled_from([p for _, p in SQUARE_MISMATCHES]) | st.none(),
                st.integers(0, len(SEGMENTS) - 1),
                st.integers(0, 4),
            ),
            max_size=8,
        ))
        logs = [(t, t if prediction is None else prediction, cell, count)
                for t, prediction, cell, count in logs]
        slots = draw(st.permutations(range(len(logs)))) if logs else []
        users.append((mean, logs, slots[: draw(st.integers(0, len(slots)))]))
    return users


class TestArraysAgainstRecords:
    """Decide and Discover from run_core's arrays against the record-based
    bodies they replaced: every cell and ami_excluded equal to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(evaluated_users())
    @example([(3.0, [(t, p, 3, 1) for t, p in SQUARE_MISMATCHES], [0, 1])])
    @example([(4.0, [(4.0, 4.0, 0, 0)], [0]), (2.5, [], [])])
    def test_generated_runs(self, users):
        records, outcomes_by_user = [], {}
        for code, (mean, logs, slots) in enumerate(users):
            user = f"u{code}"
            for truth, prediction, cell, _ in logs:
                records.append(ScoredLog(user, "i", truth, prediction, SEGMENTS[cell]))
            outcomes_by_user[user] = [
                outcome(logs[log][0], mean, logs[log][3], user, SEGMENTS[logs[log][2]], rank,
                        catalog_size=37, item=f"i{log}")
                for rank, log in enumerate(slots, 1)
            ]
        assert decide(records) == oracle.aggregate_rmse(records)
        assert discover(outcomes_by_user) == oracle.aggregate_discover(outcomes_by_user)
