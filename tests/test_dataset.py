import csv
import pickle
import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from recbench import dataset
from recbench.dataset import (
    DatasetError,
    RatingLog,
    Ratings,
    build_segment_model,
    load_dataset,
    split,
    user_ratings_index,
)
from recbench.baselines import DefaultPredictor
from recbench.knn import build_similarity_matrix
from recbench.synthetic import gen_clustered, gen_uniform


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


# lines the bulk path parses: 3 or 4 fields of printable ASCII; ids of 0 to
# 17 bytes (one, two and three 8-byte key words); ratings as float() reads
# them, -0, exponents, underscores and 16 or more digits among them, and inf
# and nan, which the scale refuses; timestamps empty or [+-]?D+
PLAIN_IDS = st.sampled_from(
    ["", "u1", "u2", "U10", "9", "i~!#", "b\\s", "12345678", "123456789", "a" * 17]
)
PLAIN_RATINGS = st.sampled_from(
    ["3", "3.0", "3.", "+4.5", "-0", "-0.75", "007.250", "10", "1.23456789012345", "0.1"]
    + ["1e0", ".5", "4.", "+.5e1", "1_0", "9.999999999999999", "2.50000000000000000001"]
    + ["inf", "nan"]
)
PLAIN_STAMPS = st.sampled_from([None, "", "1234", "+5", "-7", "000000000000000009"])
# lines that are not plain: the row path reads them, raising where it must;
# and four lines whose 16-digit, exponent or fraction-only ratings float()
# reads, which are plain
NOT_PLAIN = st.sampled_from(
    [
        '"u,1",i1,3',
        'u1,"i1",4',
        '"u\n1",i1,4',
        "u1,i1,3\ru2,i2,4",
        "u1\r,i1,3",
        "u1,i\r1,3,5",
        "u 1,i1,3",
        "\tu1,i1,3",
        "é,i1,3",
        "u1,i1,9.999999999999999",
        "u1,i1,9.876543210987651",
        "u1,i1,1e0",
        "u1,i1,.5",
        "u1,i1,3,",
        "",
        "u1,i1",
        "u1,i1,3,4,5",
        "u1,i1,abc",
        "u1,i1,11",
        "u1,i1,3,12x",
        "u1,i1,3,1234567890123456789",
        "u1\x00,i1,3",
    ]
)


@st.composite
def csv_files(draw):
    """CSV bytes: plain lines with lines that are not plain anywhere, a
    header on line 1 or not, and LF or CRLF ends."""
    plain = st.builds(
        lambda u, i, r, t: ",".join([u, i, r] + ([] if t is None else [t])),
        PLAIN_IDS,
        PLAIN_IDS,
        PLAIN_RATINGS,
        PLAIN_STAMPS,
    )
    lines = draw(st.lists(st.one_of(plain, plain, plain, NOT_PLAIN), max_size=40))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["user_id,item_id,rating", "user,item,rating,ts"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.removesuffix(ends[-1])  # no newline at the end
    return text.encode("utf-8")


def row_path(path, r_min, r_max):
    """The whole file through the csv.reader row path alone."""
    columns = dataset._Columns()
    with open(path, "rb") as fh:
        columns.add(dataset._parse_rows(path, fh, 0, 1, r_min, r_max))
    return dataset._dedupe(columns.to_ratings())


def outcome(load):
    """A load's Ratings columns and dropped count, or its error message."""
    try:
        result = load()
    except DatasetError as exc:
        return str(exc)
    logs = result.logs
    columns = (logs.users, logs.items, logs.ratings)
    return (
        logs.user_ids,
        logs.item_ids,
        [(column.dtype.str, column.tobytes()) for column in columns],
        result.dropped_duplicates,
    )


class TestBulkCsv:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_files(), st.sampled_from([1, 5, 24, 2**16]), st.sampled_from([None, 8]))
    def test_equals_the_row_path(self, content, chunk, field_limit):
        default_limit = csv.field_size_limit()
        try:
            if field_limit:
                csv.field_size_limit(field_limit)
            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory) / "r.csv"
                path.write_bytes(content)
                want = outcome(lambda: row_path(path, -1.0, 10.0))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dataset, "CSV_CHUNK", chunk)  # hand off mid-file
                    got = outcome(lambda: load_dataset(path, r_min=-1.0, r_max=10.0))
        finally:
            csv.field_size_limit(default_limit)
        assert got == want

    def test_sign_of_zero_and_exact_decimals(self, tmp_path):
        lines = ["u1,i1,-0", "u1,i2,+0.0", "u1,i3,0.1", "u2,i1,123456789.012345", "u2,i2,2.675"]
        path = write(tmp_path, "r.csv", "".join(line + "\r\n" for line in ["h,h,h"] + lines))
        ratings = load_dataset(path, r_min=-1.0, r_max=1e9).logs.ratings
        assert ratings.tobytes() == np.array([float(l.split(",")[2]) for l in lines]).tobytes()
        assert np.signbit(ratings).tolist() == [True, False, False, False, False]


class TestBulkRatings:
    """A bulk rating is what ``float`` reads, bit for bit; a chunk whose
    rating ``float`` refuses, or reads outside the scale, is not plain.
    This pins numpy's bytes-to-float64 cast to ``float``."""

    TEXTS = st.one_of(
        st.floats().map(repr),
        st.lists(st.sampled_from([*"0123456789+-._eE", "inf", "nan"]), max_size=25).map(
            lambda parts: "".join(parts)[:25]
        ),
    )

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(TEXTS)
    @example("1_0")
    @example("2.50000000000000000001")
    @example("-0")
    @example("")
    def test_a_rating_is_what_float_reads(self, text):
        logs = dataset._plain_chunk(b"u,i," + text.encode("ascii") + b"\n", -1.0, 10.0)
        try:
            want = float(text)
        except ValueError:
            want = None
        if want is None or not -1.0 <= want <= 10.0:
            assert logs is None
        else:
            assert logs[2].tobytes() == np.array([want]).tobytes()


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
        logs = oracle.as_ratings(RatingLog(f"u{i}", f"i{i}", 3.0) for i in range(10_000))
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
            split(oracle.as_ratings([]), 0.5, 0)
        with pytest.raises(DatasetError):
            split(oracle.as_ratings([RatingLog("u", "i", 3.0)]), 1.0, 0)


def train_part(logs, in_train):
    """The logs in train where ``in_train`` is set, with the id tables of all of them."""
    logs = oracle.as_ratings(logs)
    mask = np.asarray(in_train, dtype=bool)
    return Ratings(
        logs.user_ids, logs.item_ids, logs.users[mask], logs.items[mask], logs.ratings[mask]
    )


class TestSegmentModel:
    def test_all_counts_equal_means_everyone_light(self):
        train = [RatingLog(f"u{u}", f"i{k}", 3.0) for u in range(4) for k in range(7)]
        model = build_segment_model(oracle.as_ratings(train))
        assert model.user_threshold == 7
        assert model.user_counts.tolist() == [7] * 4
        assert model.heavy.tolist() == [False] * 4

    def test_two_user_threshold(self):
        train = [RatingLog("a", f"i{k}", 3.0) for k in range(10)]
        train += [RatingLog("b", f"j{k}", 3.0) for k in range(20)]
        model = build_segment_model(oracle.as_ratings(train))
        assert model.users == ("a", "b")
        assert model.user_threshold == 15
        assert model.heavy.tolist() == [False, True]

    def test_segment_labels(self):
        train = [RatingLog("a", f"i{k}", 3.0) for k in range(10)]
        train += [RatingLog("b", f"j{k}", 3.0) for k in range(20)]
        model = build_segment_model(oracle.as_ratings(train))
        counts = np.arange(len(model.items)) * 10
        model = replace(
            model,
            user_counts=np.array([20, 15]),
            item_counts=counts,
            user_threshold=15,
            item_threshold=50,
        )
        assert model.heavy.tolist() == [True, False]
        assert model.popular.tolist() == (counts > 50).tolist()
        assert model.popular.any() and not model.popular.all()

    def test_frozen(self):
        model = build_segment_model(oracle.as_ratings([RatingLog("a", "i", 4.0)]))
        with pytest.raises(FrozenInstanceError):
            model.user_threshold = 0.5

    def test_unknown_ids_are_light_unpopular(self):
        logs = [RatingLog("a", "i", 4.0), RatingLog("nobody", "nothing", 5.0)]
        model = build_segment_model(train_part(logs, [True, False]))
        assert (model.users, model.items) == (("a", "nobody"), ("i", "nothing"))
        assert model.user_counts.tolist() == [1, 0] and model.item_counts.tolist() == [1, 0]
        assert model.heavy.tolist() == [False, False]
        assert model.popular.tolist() == [False, False]
        assert model.user_means[0] == 4.0 and np.isnan(model.user_means[1])
        assert np.isnan(model.item_means[1])
        assert [model.user_code(u) for u in ("a", "nobody", "stranger")] == [0, -1, -1]
        # an item without a train rating keeps its catalog code; only an id
        # outside the catalog reads -1
        codes = model.item_codes(["nothing", "i", "stranger", "nothing", ""])
        assert codes.dtype == np.intp and codes.tolist() == [1, 0, -1, 1, -1]
        assert model.item_codes(model.items).tolist() == [0, 1]
        assert model.item_codes(()).tolist() == []

    def test_boundary_is_light(self):
        model = build_segment_model(
            oracle.as_ratings([RatingLog("a", "i", 4.0), RatingLog("b", "i", 4.0)])
        )
        model = replace(model, user_counts=np.array([15, 16]), user_threshold=15.0)
        assert model.heavy.tolist() == [False, True]

    def test_replace_derives_the_train_items_again(self):
        """The items without a train rating are read from ``item_counts``,
        so a replaced model's default row fills its cold items again: with
        the user's mean, or the global mean for a user without one."""
        logs = [RatingLog("a", "i", 4.0), RatingLog("a", "j", 2.0), RatingLog("b", "k", 3.0)]
        model = build_segment_model(oracle.as_ratings(logs))
        cut = replace(model, item_counts=np.array([1, 0, 1]))
        assert oracle.train_items(model) == ("i", "j", "k")
        assert oracle.train_items(cut) == ("i", "k")
        for stats, cold in ((model, []), (cut, [1])):
            row = DefaultPredictor(stats, 1.0, 5.0)
            # a's mean is 3: (4 + 3) / 2, (2 + 3) / 2, (3 + 3) / 2
            assert row.catalog_row("a").tolist() == [3.5, 3.0 if cold else 2.5, 3.0, 3.0]
            assert row.catalog_row("ghost")[cold].tolist() == [model.global_mean] * len(cold)
            assert row.catalog_row("ghost")[-1] == model.global_mean
            assert row.predict_many("a", ["j", "x"]).tolist() == [3.0 if cold else 2.5, 3.0]

    def test_counts_sum_to_train_size(self):
        logs = gen_uniform(25, 18, 0.4, seed=9)
        data = split(logs, 0.8, seed=2)
        model = build_segment_model(data.train)
        assert model.item_counts.sum() == len(data.train)
        assert model.user_counts.sum() == len(data.train)

    def test_order_independent(self):
        logs = gen_uniform(15, 10, 0.5, seed=4)
        a = build_segment_model(logs)
        b = build_segment_model(oracle.as_ratings(list(logs)[::-1]))
        assert a.user_threshold == b.user_threshold
        assert np.array_equal(a.user_means, b.user_means)
        assert a.global_mean == b.global_mean

    def test_unseen_user_mean_falls_back_to_global(self):
        model = build_segment_model(
            oracle.as_ratings([RatingLog("a", "i", 4.0), RatingLog("b", "i", 2.0)])
        )
        assert model.user_mean("c") == model.global_mean == 3.0

    def test_empty_train(self):
        with pytest.raises(DatasetError):
            build_segment_model(oracle.as_ratings([]))


@st.composite
def train_parts(draw):
    """Up to 8 users x 8 items, each (user, item) rated once, in train or
    not: users and items without a train rating, single-rating users, tied
    counts and empty segments all occur."""
    users = st.sampled_from([f"u{n}" for n in range(draw(st.integers(1, 8)))])
    items = st.sampled_from([f"i{n}" for n in range(draw(st.integers(1, 8)))])
    cells = draw(
        st.dictionaries(st.tuples(users, items), st.tuples(RATINGS, st.booleans()), min_size=1)
    )
    logs = [RatingLog(u, i, r) for (u, i), (r, _) in cells.items()]
    in_train = [t for _, t in cells.values()]
    assume(any(in_train))
    return train_part(logs, in_train)


# single-rating users only, so no Heavy user, and a user and an item
# without a train rating
EVERY_CASE = train_part(
    [
        RatingLog("u0", "i0", 5.0), RatingLog("u1", "i0", 1.1), RatingLog("u2", "i1", 2.2),
        RatingLog("u3", "i2", 3.3), RatingLog("u0", "i1", 4.0),
    ],
    [True, True, True, False, False],
)


class TestSegmentModelAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(train_parts())
    @example(EVERY_CASE)
    @example(train_part([RatingLog("u0", "i0", 2.0), RatingLog("u1", "i0", 3.0)], [True, True]))
    def test_arrays_equal_the_dicts(self, train):
        model = build_segment_model(train)
        want = oracle.naive_segment_model(list(train))
        assert (model.users, model.items) == (train.user_ids, train.item_ids)
        for table, counts, means, threshold, flags, want_counts, want_means, want_threshold in (
            (model.users, model.user_counts, model.user_means, model.user_threshold, model.heavy,
             want.user_counts, want.user_means, want.user_threshold),
            (model.items, model.item_counts, model.item_means, model.item_threshold, model.popular,
             want.item_counts, want.item_means, want.item_threshold),
        ):
            assert threshold == want_threshold
            assert counts.tolist() == [want_counts.get(i, 0) for i in table]
            assert [m for m, n in zip(means.tolist(), counts) if n] == [
                want_means[i] for i in table if i in want_means
            ]
            assert np.isnan(means[counts == 0]).all()
            assert flags.tolist() == [want_counts.get(i, 0) > want_threshold for i in table]
        assert model.global_mean == want.global_mean
        assert oracle.train_items(model) == tuple(sorted(want.item_means))
        ids = [*model.items, "stranger", *model.items[::-1]]
        assert model.item_codes(ids).tolist() == [
            model.items.index(i) if i in model.items else -1 for i in ids
        ]
        for user in (*model.users, "stranger"):
            assert model.user_mean(user) == want.user_means.get(user, want.global_mean)

    def test_every_case_is_met(self):
        model = build_segment_model(EVERY_CASE)
        assert model.user_counts.tolist() == [1, 1, 1, 0]
        assert model.item_counts.tolist() == [2, 1, 0]
        assert not model.heavy.any() and model.popular.tolist() == [True, False, False]


def test_ratings_columns_and_views():
    logs = [RatingLog("v", "j", 2.0), RatingLog("u", "j", 4.0), RatingLog("v", "i", 5)]
    ratings = oracle.as_ratings(logs)
    assert (ratings.user_ids, ratings.item_ids) == (("u", "v"), ("i", "j"))
    assert ratings.users.tolist() == [1, 0, 1] and ratings.items.tolist() == [1, 1, 0]
    assert ratings.users.dtype == ratings.items.dtype == np.int32
    assert ratings.ratings.dtype == np.float64
    assert len(ratings) == 3
    assert list(ratings) == [RatingLog("v", "j", 2.0), RatingLog("u", "j", 4.0), RatingLog("v", "i", 5.0)]
    assert all(type(log.rating) is float for log in ratings)


def coded(n_users, n_items, logs) -> Ratings:
    """(user code, item code, rating) triples as a Ratings with tables of these sizes."""
    users, items, ratings = zip(*logs) if logs else ((), (), ())
    return Ratings(
        tuple(f"u{k}" for k in range(n_users)),
        tuple(f"i{k}" for k in range(n_items)),
        np.array(users, np.int32),
        np.array(items, np.int32),
        np.array(ratings, float),
    )


@st.composite
def coded_logs(draw):
    """Up to 40 logs on tables of 1-6 users and 1-6 items: repeated pairs,
    table users with no log and single-log users all occur."""
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    log = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), st.integers(1, 5))
    return coded(n_users, n_items, draw(st.lists(log, max_size=40)))


class TestByUser:
    # u0: a repeated pair (i1 twice) out of item order; u1: no log; u2: one log
    @example(coded(4, 3, [(0, 1, 5), (2, 0, 1), (0, 0, 2), (0, 1, 3), (3, 2, 4), (0, 2, 1)]))
    @example(coded(3, 2, []))
    @given(coded_logs())
    @settings(max_examples=200, deadline=None)
    def test_against_a_tuple_sort(self, logs):
        order, ptr = logs.by_user
        expected_order, counts = oracle.naive_by_user(logs)
        assert order.tolist() == expected_order
        assert ptr.tolist() == np.cumsum([0] + counts).tolist()
        assert order.dtype == np.int32 and logs.by_user is logs.by_user

    def test_arrays_are_read_only(self):
        """A write fails, instead of leaving a stale by_user behind."""
        logs = coded(2, 2, [(0, 1, 4), (1, 0, 2)])
        for array in (logs.users, logs.items, logs.ratings, *logs.by_user):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_a_view_is_copied(self):
        """A write through a view's base leaves the logs, and by_user, as they were."""
        u = np.array([1, 0, 1], np.int32)
        logs = Ratings(("a", "b"), ("x", "y"), u[:], np.array([0, 1, 1], np.int32), np.ones(3))
        order, _ = logs.by_user
        u[0] = 0
        assert logs.users.tolist() == [1, 0, 1] and order.tolist() == [1, 0, 2]

    def test_pickle_round_trip(self):
        """Unpickled, through the constructor: read-only columns of numpy's
        own dtypes (an equal copy takes np.add.at off its fast path), a
        by_user built again and equal, and the same similarity matrix."""
        logs = split(gen_clustered(60, 40, 4, 0.3, seed=2), 0.8, 1).train
        logs.by_user
        copy = pickle.loads(pickle.dumps(logs))
        assert (copy.user_ids, copy.item_ids) == (logs.user_ids, logs.item_ids)
        assert "by_user" not in vars(copy)
        for name, dtype in (("users", np.int32), ("items", np.int32), ("ratings", np.float64)):
            column = getattr(copy, name)
            assert column.dtype is np.dtype(dtype), name
            assert not column.flags.writeable, name
            assert np.array_equal(column, getattr(logs, name)), name
        for got, want in zip(copy.by_user, logs.by_user):
            assert np.array_equal(got, want) and not got.flags.writeable
        got, want = build_similarity_matrix(copy, 5, 10), build_similarity_matrix(logs, 5, 10)
        assert got.item_ids == want.item_ids
        for field in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestStableOrder:
    """The radix order against numpy's stable argsort."""

    @given(
        st.sampled_from([1, 7, 2**16, 2**16 + 1, 2**20, 2**31 - 1, 2**40]).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(st.integers(0, size - 1), max_size=200),
                st.sampled_from([np.int32, np.int64]) if size <= 2**31 else st.just(np.int64),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_a_stable_argsort(self, case):
        size, codes, dtype = case
        codes = np.array(codes, dtype)
        got = dataset.stable_order(codes, size)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(codes, kind="stable"))

    @pytest.mark.parametrize("size", [2**12, 2**16, 2**16 + 3, 2**24, 2**33])
    def test_many_ties_and_codes_above_16_bits(self, size):
        """More codes than 2**16 with many ties: each pass must be stable
        on the one before."""
        rng = np.random.default_rng(size)
        codes = rng.integers(0, size, 150_000)
        codes[::3] = size - 1  # ties at the top code, all 16-bit digits set
        codes[1::5] = size // 2  # ties whose low digits are 0 above 2**16
        dtype = np.int32 if size < 2**31 else np.int64
        codes = codes.astype(dtype)
        assert np.array_equal(dataset.stable_order(codes, size), np.argsort(codes, kind="stable"))

    def test_empty(self):
        for size in (1, 2**20):
            got = dataset.stable_order(np.array([], np.int32), size)
            assert got.dtype == np.intp and len(got) == 0


def test_user_ratings_index():
    """What the benchmark harness passes to KnnPredictor: a split's train set itself."""
    logs = [RatingLog("u", "i", 4.0), RatingLog("u", "j", 2.0), RatingLog("v", "i", 5.0)]
    ratings = oracle.as_ratings(logs)
    train = split(ratings, 0.5, 1).train
    assert user_ratings_index(train) is train
    assert user_ratings_index(ratings) is ratings
    assert oracle.user_ratings_index(logs) == {"u": {"i": 4.0, "j": 2.0}, "v": {"i": 5.0}}


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
        got = build_segment_model(data.train)
        want = oracle.naive_segment_model(train)
        assert oracle.segment_dicts(got) == want
        assert oracle.train_items(got) == tuple(sorted(want.item_means))
        assert [got.item_means[c] for c in np.flatnonzero(got.item_counts)] == [
            want.item_means[i] for i in oracle.train_items(got)
        ]
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




class TestBlocks:
    """dataset.blocks: the ranges every chunked loop reads its units by."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2**12),
        st.one_of(
            st.lists(st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 2**13)), max_size=30),
            st.integers(0, 60),
        ),
        st.one_of(st.just(0), st.integers(1, 64), st.integers(1, 2**13)),
    )
    @example(budget=10, units=[], cost=1)  # empty input
    @example(budget=10, units=0, cost=3)  # no unit
    @example(budget=10, units=[0, 0, 0], cost=5)  # zero-cost units
    @example(budget=10, units=[3, 40, 0, 4], cost=1)  # a unit heavier than the budget
    @example(budget=10, units=7, cost=3)  # a scalar cost
    @example(budget=10, units=5, cost=0)  # a scalar cost of zero
    @example(budget=10, units=[5, 5], cost=1)  # a total at the budget: one range
    def test_ranges_tile_the_units_within_the_budget(self, budget, units, cost):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "BLOCK_BYTES", budget)
            if isinstance(units, int):  # units of ``cost`` bytes each
                got = list(dataset.blocks(units, cost))
                units = [1] * units
            else:  # units of that many parts of ``cost`` bytes
                got = list(dataset.blocks(np.array(units, np.int32), cost))
        n = len(units)
        # in order and without a gap, from 0 to n; none for no unit
        assert [a for a, _ in got] + [n] == [0] + [b for _, b in got]
        assert all(a < b for a, b in got)
        assert all(cost * sum(units[a:b]) <= budget or b == a + 1 for a, b in got)
        if n and cost * sum(units) <= budget:  # the fast path
            assert got == [(0, n)]

    def test_default_counts(self):
        """At the default budget each loop's unit cost gives its count."""
        m = 3000

        def first(units, cost):
            return next(dataset.blocks(units, cost))[1]

        assert dataset.BLOCK_BYTES == 2**20
        assert first(10**6, 16 * m) == 2**16 // m  # score block: users
        assert first(m, 8 * m) == 2**17 // m  # MF extraction: rows
        # build, pending top-K, transpose, neighbour sums: entries
        assert first(np.ones(10**6, np.intp), 64) == 2**14
        assert first(10**6, 256) == 2**12  # sgd_levels: updates; fsum: floats
