"""Peak memory per log of each model-construction stage, at two sizes.

``tracemalloc`` counts the bytes a stage allocates, not the process's RSS,
so the figures do not move with the machine or the allocator. Each stage's
peak per log must not grow from the smaller fixture to the larger (a stage
whose working set grows faster than its input fails), and must stay under
a bound set from the measured value. The fixed budgets (the KNN build's
pairs, cells and pending entries, the SGD level chunk, the MF extraction
block) are cut to a size far below the fixtures', so that what the peaks
show is the part that grows with the logs; the CSV chunk is 4 KiB, a few
hundred lines.

The KNN build is also measured on a wide fixture, 6,000 items: there its
similar pairs grow faster than the logs, and the build holds only each
row's top K of them, so its peak per log must not grow either. The last
two tests bound ``run_core``'s peak: in score blocks, and as the test
logs grow, which must not grow it by a Compare record per log.

The ``index`` stage is ``Ratings.by_user``, measured on a fresh copy of
the train logs. ``build`` and ``init`` are measured with the train logs'
index present: the first, unmeasured ``build_similarity_matrix`` call
builds it, and both stages read it.

The ``epoch`` stage is one ``sgd_epoch`` as ``train_mf`` calls it, on
the two halves of one table with an int32 order, and the ``fit`` stage is
``train_mf`` itself, F = 16 for two epochs: its factor tables and its
permutation are held between epochs, its schedule inside one.

The ``explore`` stage is ``run_explore`` on an MF model: the extraction of
its top-K matrix, the emulated KNN's init and its re-run, with the train
and test logs' indexes present. It is bounded per matrix entry, not per
log, and only at the larger size: the matrix (300 items x K = 100) is the
same at both sizes while the logs double.
"""

import tracemalloc

import numpy as np
import pytest

import oracle
from recbench import dataset, protocol
from recbench.baselines import Predictor
from recbench.dataset import (
    RatingLog,
    Ratings,
    build_segment_model,
    load_dataset,
    split,
)
from recbench.knn import KnnPredictor, build_similarity_matrix
from recbench.mf import FactorModel, MFPredictor, mf_item_similarity, sgd_epoch, train_mf

ITEMS = 300
# (users, draws): 16,894 and 33,685 distinct logs
SIZES = ((1000, 25_000), (2000, 50_000))
# bytes per log at the larger size, about a fifth above the measured load
# 73.3, index 18.2, init 34.2, epoch 25.1, fit 49.3 and extraction 15.2
# (the epoch is one sgd_epoch as train_mf calls it, the fit train_mf's two
# epochs). The init 38.1, the extraction 16.6, the epoch 34.5 and the fit
# 78.1 while the column form's rows were intp, the extraction held the
# centred factors through its blocks, and each epoch stepped a
# concatenated copy of p and q through intp orders, beside train_mf's fit
# gathers and int64 permutation (the epoch 33.6 on separate p and q and
# dense codes); the build 56.1 since it keeps a running top K, which here
# holds about as many entries as the similar pairs it held until one
# sort, so its bound stays (54.8 before; 53.7 and the init 38.1 since they
# read the index, and the init still 38.1 with the column form filled by
# row blocks, since the users' CSR after it set its peak); the init 43.4
# while it held four entry-length arrays at once, beside the users' CSR;
# before the construction stages were cut to these working sets: build
# 204.3, init 94.7, epoch 97.9 and extraction 20.8; the load 93.1 until it
# parsed plain CSV chunks in bulk; the init 64.2 while it read a user ->
# {item: rating} dict, built by a stage of its own at 58.4
BOUNDS = {"load": 88, "index": 22, "build": 66, "init": 41, "epoch": 30, "fit": 59, "extract": 18}
# the explore stage's bytes per matrix entry at the larger size, about a
# fifth above the measured 65.8 (58.4 at the smaller); 69.9 (bound 84)
# while the emulated KNN's column form held intp rows; 83.1 (bound 100)
# while run_core held Compare's records and the seen items for all users
# and the emulated KNN's init sorted all the matrix entries at once; 100.8
# while that init and the neighbour sums held spare entry-length arrays and
# its row-major matrix lived through the re-run
EXPLORE_BOUND = 79
# a peak per log may grow this much from the smaller size to the larger
# (dict and array growth steps)
SLACK = 1.05


def netflix_shape(path, n_users, draws, seed=0, n_items=ITEMS):
    """Lognormal user activity and 1/rank^0.9 item popularity, integer
    ratings from a rank-3 signal plus noise, as a CSV; repeated pairs kept,
    as a real log has them."""
    rng = np.random.default_rng(seed)
    user_weights = rng.lognormal(0, 1.3, n_users)
    item_weights = 1.0 / np.arange(1, n_items + 1) ** 0.9
    users = rng.choice(n_users, draws, p=user_weights / user_weights.sum())
    items = rng.choice(n_items, draws, p=item_weights / item_weights.sum())
    user_factors, item_factors = rng.normal(0, 1, (n_users, 3)), rng.normal(0, 1, (n_items, 3))
    signal = np.einsum("ij,ij->i", user_factors[users], item_factors[items])
    ratings = np.clip(np.rint(3 + 0.6 * signal + rng.normal(0, 0.8, draws)), 1, 5).astype(int)
    columns = (users.tolist(), items.tolist(), ratings.tolist())
    path.write_text("".join(f"u{u},i{i},{r}\n" for u, i, r in zip(*columns)), encoding="utf-8")


def peak_of(stage) -> int:
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peaks_per_log(path) -> dict[str, float]:
    """Each stage's tracemalloc peak, per log it reads: the loaded logs for
    the load, the train logs for the rest but explore, which is per entry
    of the extracted matrix."""
    logs = load_dataset(path).logs
    peaks = {"load": peak_of(lambda: load_dataset(path)) / len(logs)}
    data = split(logs, 0.9, 1)
    train = data.train
    n = len(train)
    fresh = Ratings(train.user_ids, train.item_ids, train.users, train.items, train.ratings)
    peaks["index"] = peak_of(lambda: fresh.by_user) / n
    del fresh
    stats = build_segment_model(train)
    matrix = build_similarity_matrix(train, 100, 50)
    peaks["build"] = peak_of(lambda: build_similarity_matrix(train, 100, 50)) / n
    peaks["init"] = peak_of(lambda: KnnPredictor(matrix, stats, train)) / n

    rng = np.random.default_rng(1)
    # as train_mf passes them: the two halves of one table, the Ratings'
    # own codes, and an int32 order
    n_users = len(train.user_ids)
    table = rng.uniform(-0.01, 0.01, (n_users + len(train.item_ids), 16))
    p, q = table[:n_users], table[n_users:]
    order = rng.permutation(n).astype(np.int32)
    epoch = (p, q, train.users, train.items, train.ratings, order, 0.03, 0.008)
    peaks["epoch"] = peak_of(lambda: sgd_epoch(*epoch)) / n
    peaks["fit"] = peak_of(lambda: train_mf(train, n_factors=16, seed=1, max_epochs=2)) / n

    items = oracle.train_items(stats)
    factors = rng.normal(0, 1, (len(items), 16))
    model = FactorModel(16, 0.03, 0.008, 0, ["u"], list(items), np.ones((1, 16)), factors)
    peaks["extract"] = peak_of(lambda: mf_item_similarity(model, 100)) / n

    data.test.by_user  # as train's, built before the stage
    explored = MFPredictor(model, stats)
    config = protocol.ProtocolConfig(explore_k=100)
    reports = []
    peak = peak_of(lambda: reports.append(protocol.run_explore(explored, data, stats, config)))
    peaks["explore"] = peak / reports[0].matrix_counts["neighbors"]
    return peaks


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    work = tmp_path_factory.mktemp("memory")
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "BLOCK_BYTES", 2**14)  # the extraction's block, as before
        patch.setattr(dataset, "CSV_CHUNK", 2**12)
        for n_users, draws in SIZES:
            path = work / f"logs-{n_users}.csv"
            netflix_shape(path, n_users, draws)
            sizes.append(peaks_per_log(path))
    return sizes


@pytest.mark.parametrize("stage", sorted(BOUNDS))
def test_peak_per_log_does_not_grow(measured, stage):
    small, large = measured
    assert large[stage] <= SLACK * small[stage], (small[stage], large[stage])


@pytest.mark.parametrize("stage", sorted(BOUNDS))
def test_peak_per_log_within_bound(measured, stage):
    assert measured[-1][stage] <= BOUNDS[stage], measured[-1][stage]


def test_explore_peak_per_matrix_entry_within_bound(measured):
    assert measured[-1]["explore"] <= EXPLORE_BOUND, measured[-1]["explore"]


WIDE_ITEMS = 6000
# (users, draws) of the wide fixture: 32,606 and 60,084 train logs over
# 5,170 and 5,820 items. The users stay and their draws double, so their
# co-rated pairs grow about four times: from 181.5 to 323.5 bytes per train
# log when the build held every similar pair until one sort
WIDE_SIZES = ((1000, 45_000), (1000, 90_000))
# K small enough that the matrix (15,195 and 24,352 neighbors) grows less
# than the logs
WIDE_K = 5
# the build's peak per train log at the larger size, about a fifth above
# the measured 63.1 (62.3 at the smaller)
WIDE_BUILD = 76


@pytest.fixture(scope="module")
def wide_build(tmp_path_factory):
    """The build's tracemalloc peak per train log at each wide size, with
    a budget of 2**12, far below the fixture's pairs (2**10 only slows the
    traced builds)."""
    work = tmp_path_factory.mktemp("wide")
    peaks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "BLOCK_BYTES", 64 * 2**12)
        for n_users, draws in WIDE_SIZES:
            path = work / f"logs-{draws}.csv"
            netflix_shape(path, n_users, draws, n_items=WIDE_ITEMS)
            train = split(load_dataset(path).logs, 0.9, 1).train
            assert len(np.unique(train.items)) >= 5000
            build_similarity_matrix(train, WIDE_K, 50)  # makes the by-user index
            peaks.append(peak_of(lambda: build_similarity_matrix(train, WIDE_K, 50)) / len(train))
    return peaks


def test_wide_build_peak_per_log_does_not_grow(wide_build):
    small, large = wide_build
    assert large <= SLACK * small, (small, large)
    assert large <= WIDE_BUILD, large


CORE_ITEMS = 4000
# run_core's peak in score blocks of 2 rows x 4,000 items: 3.0 measured
# (the block, np.partition's copy, numpy's 64 KiB ufunc buffer and the
# fixture's per-log arrays); 3.4 while it held the seen items and Compare's
# records for all users; 6.5 when it also held a block-shaped test
# index and a negated copy of the block, and kept the partitioned copy
# through the candidate scan
CORE_BLOCKS = 3.6


class TableScores(Predictor):
    """Distinct scores from a table made up front, so that scoring
    allocates nothing and the ranking has no ties to carry."""

    name = "table"

    def __init__(self, users, items):
        rows = np.random.default_rng(0).uniform(1, 5, (len(users), len(items)))
        self.rows = dict(zip(users, rows))

    def predict_many(self, user_id, item_ids):
        return self.rows[user_id]


@pytest.mark.parametrize("exclude_seen", [True, False])
def test_run_core_holds_a_block_and_one_partitioned_copy(monkeypatch, exclude_seen):
    logs = oracle.as_ratings(
        RatingLog(f"u{k % 40:02d}", f"i{k:04d}", float(1 + k % 5)) for k in range(CORE_ITEMS)
    )
    data = split(logs, 0.9, 1)
    segments = build_segment_model(data.train)
    model = TableScores(data.users, data.items)
    config = protocol.ProtocolConfig(exclude_seen=exclude_seen)
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 2**17)
    assert len(data.items) == CORE_ITEMS
    peak = peak_of(lambda: protocol.run_core(model, data, segments, config))
    assert peak / 64_000 <= CORE_BLOCKS, peak / 64_000  # a block is 2 rows of 4,000 scores


# run_core's peak as the test logs grow 4x, by 4x the users with about 40
# test logs each, at a fixed catalog of 500 items and blocks of 4 users:
# 38.5 bytes more per added test log measured, about a fifth below the
# bound (the per-log columns it holds, codes, rating, cell and prediction,
# and Decide's squares); 65.3 (bound 79) while Decide made all its squares
# Python floats at once for fsum; 251.3 while Compare held a record per
# test log for all users at once
CORE_GROWTH_USERS = (100, 400)
CORE_GROWTH_PER_LOG = 46


def uniform_split(n_users, n_items=500, per_user=50, seed=0):
    """Each user rates ``per_user`` distinct random items 1-5, and a 0.2
    split sends about 40 of them to test."""
    rng = np.random.default_rng(seed)
    logs = oracle.as_ratings(
        RatingLog(f"u{u:05d}", f"i{i:04d}", float(r))
        for u in range(n_users)
        for i, r in zip(rng.choice(n_items, per_user, replace=False), rng.integers(1, 6, per_user))
    )
    return split(logs, 0.2, 1)


def test_run_core_peak_does_not_grow_with_compares_records(monkeypatch):
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 2**15)
    peaks, tests = [], []
    for n_users in CORE_GROWTH_USERS:
        data = uniform_split(n_users)
        assert len(data.items) == 500  # the catalog is the same at both sizes
        segments = build_segment_model(data.train)
        data.train.by_user, data.test.by_user  # built before the stage, as in an evaluation
        model, config = TableScores(data.users, data.items), protocol.ProtocolConfig()
        peaks.append(peak_of(lambda: protocol.run_core(model, data, segments, config)))
        tests.append(len(data.test))
    assert tests[1] >= 3.5 * tests[0]
    growth = (peaks[1] - peaks[0]) / (tests[1] - tests[0])
    assert growth <= CORE_GROWTH_PER_LOG, growth
