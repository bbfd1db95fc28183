import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from recbench.dataset import (
    DatasetError,
    RatingLog,
    Ratings,
    build_segment_model,
    load_dataset,
    split,
    user_ratings_index,
)
from recbench.synthetic import gen_uniform


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_wellformed_lines(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,3\nu1,i2,4.5\nu2,i1,1\n")
        result = load_dataset(path)
        assert len(result.logs) == 3
        assert result.dropped_duplicates == 0
        assert next(iter(result.logs)) == RatingLog("u1", "i1", 3.0)

    def test_header_autodetected(self, tmp_path):
        path = write(tmp_path, "r.csv", "user_id,item_id,rating\nu1,i1,3\n")
        result = load_dataset(path)
        assert len(result.logs) == 1

    def test_duplicate_keeps_last(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,3\nu2,i2,2\nu1,i1,5\n")
        result = load_dataset(path)
        assert result.dropped_duplicates == 1
        # the first occurrence's position (it decides the pair's split draw), the last rating
        assert list(result.logs) == [RatingLog("u1", "i1", 5.0), RatingLog("u2", "i2", 2.0)]

    def test_timestamp_parsed_and_optional(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,3,1234\nu1,i2,4,\nu1,i3,5\n")
        result = load_dataset(path)
        assert [(l.item_id, l.rating) for l in result.logs] == [("i1", 3.0), ("i2", 4.0), ("i3", 5.0)]
        path = write(tmp_path, "bad.csv", "u1,i1,3,1234\nu1,i2,4,noon\n")
        with pytest.raises(DatasetError, match=r":2: bad timestamp 'noon'"):
            load_dataset(path)

    def test_rating_out_of_range(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,6\n")
        with pytest.raises(DatasetError, match="outside"):
            load_dataset(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,3\nu2,i2\n")
        with pytest.raises(DatasetError, match=":2"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "absent.csv")

    @pytest.mark.parametrize("header", ["", "user_id,item_id,rating\n"])
    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path, header):
        path = tmp_path / "r.csv"
        path.write_text("\ufeff" + header + "u1,i1,4\nu1,i2,3\nu2,i1,5\n", encoding="utf-8")
        logs = load_dataset(path).logs
        assert logs.user_ids == ("u1", "u2") and logs.item_ids == ("i1", "i2")
        assert list(logs)[0] == RatingLog("u1", "i1", 4.0)


class TestLoadNetflix:
    def test_single_item_file(self, tmp_path):
        path = write(tmp_path, "mv_0000001.txt", "1:\n1488844,3,2005-09-06\n822109,5,2005-05-13\n")
        result = load_dataset(path, fmt="netflix")
        # Hand-parsed: item "1", two customers with ratings 3 and 5.
        assert [(l.user_id, l.item_id, l.rating) for l in result.logs] == [
            ("1488844", "1", 3.0),
            ("822109", "1", 5.0),
        ]

    def test_directory_of_item_files(self, tmp_path):
        d = tmp_path / "nf"
        d.mkdir()
        (d / "mv_1.txt").write_text("1:\n10,4,2005-01-01\n")
        (d / "mv_2.txt").write_text("2:\n10,2,2005-01-01\n")
        result = load_dataset(d, fmt="netflix")
        assert {l.item_id for l in result.logs} == {"1", "2"}

    def test_duplicate_keeps_last(self, tmp_path):
        d = tmp_path / "nf"
        d.mkdir()
        (d / "mv_1.txt").write_text("1:\n10,3,2005-01-01\n20,2,2005-01-01\n")
        (d / "mv_2.txt").write_text("2:\n10,4,2005-01-01\n1:\n10,5,2005-01-02\n")
        result = load_dataset(d, fmt="netflix")
        assert result.dropped_duplicates == 1
        assert list(result.logs) == [
            RatingLog("10", "1", 5.0),
            RatingLog("20", "1", 2.0),
            RatingLog("10", "2", 4.0),
        ]

    def test_byte_order_mark_is_not_part_of_the_first_item(self, tmp_path):
        path = tmp_path / "mv_1.txt"
        path.write_text("\ufeff1:\n10,4,2005-01-01\n2:\n10,2,2005-01-01\n", encoding="utf-8")
        assert load_dataset(path, fmt="netflix").logs.item_ids == ("1", "2")

    def test_customer_line_before_header(self, tmp_path):
        path = write(tmp_path, "bad.txt", "10,4,2005-01-01\n")
        with pytest.raises(DatasetError, match="before item header"):
            load_dataset(path, fmt="netflix")


class TestSplit:
    def test_partition_is_exhaustive(self):
        logs = gen_uniform(30, 20, 0.5, seed=0)
        data = split(logs, 0.7, seed=1)
        assert len(data.train) + len(data.test) == len(logs)
        all_pairs = {(l.user_id, l.item_id) for l in logs}
        split_pairs = {(l.user_id, l.item_id) for l in [*data.train, *data.test]}
        assert split_pairs == all_pairs
        assert not (
            {(l.user_id, l.item_id) for l in data.train}
            & {(l.user_id, l.item_id) for l in data.test}
        )

    def test_binomial_bound(self):
        # 10000 logs, ratio 0.9: 3 sigma around 9000 is +-90.
        logs = [RatingLog(f"u{i}", f"i{i}", 3.0) for i in range(10_000)]
        data = split(logs, 0.9, seed=42)
        assert 8900 <= len(data.train) <= 9100

    def test_deterministic(self):
        logs = gen_uniform(20, 15, 0.5, seed=3)
        a = split(logs, 0.8, seed=5)
        b = split(logs, 0.8, seed=5)
        assert list(a.train) == list(b.train) and list(a.test) == list(b.test)

    def test_catalog_covers_train_and_test(self):
        logs = gen_uniform(20, 15, 0.5, seed=3)
        data = split(logs, 0.8, seed=5)
        assert data.catalog_size == len({l.item_id for l in logs})

    def test_bad_inputs(self):
        with pytest.raises(DatasetError):
            split([], 0.5, 0)
        with pytest.raises(DatasetError):
            split([RatingLog("u", "i", 3.0)], 1.0, 0)


class TestSegmentModel:
    def test_all_counts_equal_means_everyone_light(self):
        train = [RatingLog(f"u{u}", f"i{k}", 3.0) for u in range(4) for k in range(7)]
        model = build_segment_model(train)
        assert model.user_threshold == 7
        assert not any(model.is_heavy(f"u{u}") for u in range(4))

    def test_two_user_threshold(self):
        train = [RatingLog("a", f"i{k}", 3.0) for k in range(10)]
        train += [RatingLog("b", f"j{k}", 3.0) for k in range(20)]
        model = build_segment_model(train)
        assert model.user_threshold == 15
        assert not model.is_heavy("a")
        assert model.is_heavy("b")

    def test_segment_labels(self):
        train = [RatingLog("a", f"i{k}", 3.0) for k in range(10)]
        train += [RatingLog("b", f"j{k}", 3.0) for k in range(20)]
        model = build_segment_model(train)
        model.user_counts["x"] = 20
        model.item_counts["y"] = 100
        model.user_threshold = 15
        model.item_threshold = 50
        assert model.is_heavy("x") and model.is_popular("y")

    def test_unknown_ids_are_light_unpopular(self):
        model = build_segment_model([RatingLog("a", "i", 4.0)])
        assert not model.is_heavy("nobody") and not model.is_popular("nothing")

    def test_boundary_is_light(self):
        model = build_segment_model([RatingLog("a", "i", 4.0)])
        model.user_counts["b"] = 15
        model.user_threshold = 15.0
        assert not model.is_heavy("b")

    def test_counts_sum_to_train_size(self):
        logs = gen_uniform(25, 18, 0.4, seed=9)
        data = split(logs, 0.8, seed=2)
        model = build_segment_model(data.train)
        assert sum(model.item_counts.values()) == len(data.train)
        assert sum(model.user_counts.values()) == len(data.train)

    def test_order_independent(self):
        logs = gen_uniform(15, 10, 0.5, seed=4)
        a = build_segment_model(logs)
        b = build_segment_model(list(reversed(logs)))
        assert a.user_threshold == b.user_threshold
        assert a.user_means == b.user_means
        assert a.global_mean == b.global_mean

    def test_unseen_user_mean_falls_back_to_global(self):
        model = build_segment_model([RatingLog("a", "i", 4.0), RatingLog("b", "i", 2.0)])
        assert model.user_mean("c") == model.global_mean == 3.0

    def test_empty_train(self):
        with pytest.raises(DatasetError):
            build_segment_model([])


def test_ratings_columns_and_views():
    logs = [RatingLog("v", "j", 2.0), RatingLog("u", "j", 4.0), RatingLog("v", "i", 5)]
    ratings = Ratings.of(logs)
    assert Ratings.of(ratings) is ratings
    assert (ratings.user_ids, ratings.item_ids) == (("u", "v"), ("i", "j"))
    assert ratings.users.tolist() == [1, 0, 1] and ratings.items.tolist() == [1, 1, 0]
    assert ratings.users.dtype == ratings.items.dtype == np.int32
    assert ratings.ratings.dtype == np.float64
    assert len(ratings) == 3
    assert list(ratings) == [RatingLog("v", "j", 2.0), RatingLog("u", "j", 4.0), RatingLog("v", "i", 5.0)]
    assert all(type(log.rating) is float for log in ratings)


def test_user_ratings_index():
    logs = [RatingLog("u", "i", 4.0), RatingLog("u", "j", 2.0), RatingLog("v", "i", 5.0)]
    assert user_ratings_index(logs) == {"u": {"i": 4.0, "j": 2.0}, "v": {"i": 5.0}}


def write_logs(directory, fmt, raw):
    """(user, item, rating) triples as a file of the format, in their order."""
    if fmt == "csv":
        path = Path(directory) / "r.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows((u, i, repr(r)) for u, i, r in raw)
    else:
        path = Path(directory) / "mv_1.txt"
        path.write_text("".join(f"{i}:\n{u},{r!r}\n" for u, i, r in raw), encoding="utf-8")
    return path


def check_against_oracle(fmt, raw, ratio, seed):
    """load -> split -> segment model against the list-based references;
    returns the references' (logs, dropped, train, test)."""
    with tempfile.TemporaryDirectory() as directory:
        loaded = load_dataset(write_logs(directory, fmt, raw), fmt=fmt)
    logs, dropped = oracle.naive_dedupe([RatingLog(*log) for log in raw])
    assert list(loaded.logs) == logs
    assert loaded.dropped_duplicates == dropped

    data = split(loaded.logs, ratio, seed)
    train, test, users, items = oracle.naive_split(logs, ratio, seed)
    assert (data.users, data.items) == (users, items)
    assert list(data.train) == train
    assert list(data.test) == test
    if train:
        got, want = build_segment_model(data.train), oracle.naive_segment_model(train)
        for field in (
            "user_threshold",
            "item_threshold",
            "user_counts",
            "item_counts",
            "user_means",
            "item_means",
            "global_mean",
            "item_ids",
        ):
            assert getattr(got, field) == getattr(want, field), field
        assert np.array_equal(got.item_mean_array, want.item_mean_array)
    return logs, dropped, train, test


# no separator of either format, ids sort differently from their lengths
IDS = st.text("ab9Z_é", min_size=1, max_size=3)
# tenths add up differently in another order; any float round-trips by repr
RATINGS = st.one_of(st.sampled_from([1.0, 1.1, 2.2, 3.3, 4.4, 5.0]), st.floats(1.0, 5.0))


@st.composite
def raw_logs(draw):
    users = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    items = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    log = st.tuples(st.sampled_from(users), st.sampled_from(items), RATINGS)
    return draw(st.lists(log, min_size=1, max_size=80))


class TestAgainstListReferences:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["csv", "netflix"]),
        raw_logs(),
        st.sampled_from([0.3, 0.7, 0.9]),
        st.integers(0, 2**31),
    )
    def test_generated_logs(self, fmt, raw, ratio, seed):
        check_against_oracle(fmt, raw, ratio, seed)

    @pytest.mark.parametrize("fmt", ["csv", "netflix"])
    def test_seeded_logs_with_every_case(self, fmt):
        rng = np.random.default_rng(9)
        raw = [
            (f"u{u}", f"i{i}", float(r))
            for u, i, r in zip(
                rng.integers(0, 40, 900), rng.integers(0, 30, 900), rng.uniform(1.0, 5.0, 900)
            )
        ]
        raw += [(f"solo{n}", f"rare{n}", 1.0 + n / 7) for n in range(12)]
        logs, dropped, train, test = check_against_oracle(fmt, raw, 0.7, seed=3)

        # the cases the comparison must have met
        assert dropped > 0
        per_user = {}
        for log in logs:
            per_user[log.user_id] = per_user.get(log.user_id, 0) + 1
        assert 1 in per_user.values()
        assert {l.user_id for l in test} - {l.user_id for l in train}
        assert {l.item_id for l in test} - {l.item_id for l in train}
        running = 0.0
        for log in train:
            running += log.rating
        pairwise = np.sum([l.rating for l in train])
        assert running / len(train) != pairwise / len(train)
