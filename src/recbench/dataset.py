"""Rating log ingestion, train/test splitting and user/item segmentation."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# numpy imports numpy.random on first use; import it with this module, so
# split's first draw does not pay for that import
import numpy.random  # noqa: F401

SEGMENTS = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem")


class DatasetError(Exception):
    """Raised for unreadable files, malformed lines or out-of-range ratings."""


@dataclass(frozen=True)
class RatingLog:
    """One (user, item, rating) observation."""

    user_id: str
    item_id: str
    rating: float


@dataclass(frozen=True, eq=False)
class Ratings:
    """Rating logs as columns, in log order.

    ``user_ids`` and ``item_ids`` are sorted id tables; ``users`` and
    ``items`` are int32 codes into them and ``ratings`` the float64 ratings.
    The parts of a split keep the tables of the whole, so a code names the
    same id in each part, and a table may list ids without a log in a part.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    @classmethod
    def of(cls, logs) -> Ratings:
        """A Ratings unchanged; a sequence of RatingLog as columns."""
        if isinstance(logs, Ratings):
            return logs
        return _columns((log.user_id, log.item_id, log.rating) for log in logs)

    def __len__(self) -> int:
        return len(self.ratings)

    def __iter__(self):
        """A RatingLog view of each log, with a Python float rating."""
        user_ids, item_ids = self.user_ids, self.item_ids
        for u, i, r in zip(self.users.tolist(), self.items.tolist(), self.ratings.tolist()):
            yield RatingLog(user_ids[u], item_ids[i], r)


def _sorted_codes(codes: dict[str, int], raw: array) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids sorted, and the first-seen codes in ``raw`` renumbered into them."""
    table = sorted(codes)
    rank = np.empty(len(table), np.int32)
    rank[np.fromiter(map(codes.__getitem__, table), np.intp, len(table))] = np.arange(len(table))
    return tuple(table), rank[np.frombuffer(raw, np.intc)]


def _columns(logs) -> Ratings:
    """(user id, item id, rating) triples as a Ratings. Each id is coded in
    the order it is first seen, then renumbered in sorted order."""
    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    users, items, ratings = array("i"), array("i"), array("d")
    for user_id, item_id, rating in logs:
        users.append(user_codes.setdefault(user_id, len(user_codes)))
        items.append(item_codes.setdefault(item_id, len(item_codes)))
        ratings.append(rating)
    user_ids, users = _sorted_codes(user_codes, users)
    item_ids, items = _sorted_codes(item_codes, items)
    return Ratings(user_ids, item_ids, users, items, np.array(ratings, dtype=float))


@dataclass
class LoadResult:
    logs: Ratings
    dropped_duplicates: int


def _dedupe(logs: Ratings) -> LoadResult:
    """Keep each (user, item) pair once: at its first position, with its last rating."""
    key = logs.users.astype(np.int64) * len(logs.item_ids) + logs.items
    order = np.argsort(key, kind="stable")  # a pair's positions stay ascending
    starts = np.diff(key[order], prepend=-1) != 0
    # a pair's run ends where the next one starts, the last run at the end
    first, last = order[starts], order[np.roll(starts, -1)]
    keep = np.argsort(first)
    first, last = first[keep], last[keep]
    deduped = Ratings(
        logs.user_ids, logs.item_ids, logs.users[first], logs.items[first], logs.ratings[last]
    )
    return LoadResult(deduped, len(key) - len(first))


def _parse_csv(path: Path, r_min: float, r_max: float):
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (3, 4):
                raise DatasetError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(row)}")
            try:
                rating = float(row[2])
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise DatasetError(f"{path}:{lineno}: bad rating {row[2]!r}") from None
            if not r_min <= rating <= r_max:
                raise DatasetError(f"{path}:{lineno}: rating {rating} outside [{r_min}, {r_max}]")
            if len(row) == 4 and row[3].strip():
                try:
                    int(row[3])
                except ValueError:
                    raise DatasetError(f"{path}:{lineno}: bad timestamp {row[3]!r}") from None
            yield row[0].strip(), row[1].strip(), rating


def _parse_netflix_file(path: Path, r_min: float, r_max: float):
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        item_id: str | None = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.endswith(":"):
                item_id = line[:-1]
                continue
            if item_id is None:
                raise DatasetError(f"{path}:{lineno}: customer line before item header")
            parts = line.split(",")
            if len(parts) < 2:
                raise DatasetError(f"{path}:{lineno}: expected customer_id,rating[,date]")
            try:
                rating = float(parts[1])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: bad rating {parts[1]!r}") from None
            if not r_min <= rating <= r_max:
                raise DatasetError(f"{path}:{lineno}: rating {rating} outside [{r_min}, {r_max}]")
            yield parts[0].strip(), item_id, rating


def load_dataset(
    source: str | Path,
    fmt: str = "csv",
    r_min: float = 1.0,
    r_max: float = 5.0,
) -> LoadResult:
    """Load rating logs from ``source`` in the given format (``csv`` or ``netflix``).

    Duplicate (user, item) pairs keep the position of the first occurrence
    and the rating of the last; the number of dropped duplicates is
    reported in the result. CSV timestamps are checked, not kept.
    """
    path = Path(source)
    if fmt == "csv":
        logs = _parse_csv(path, r_min, r_max)
    elif fmt == "netflix":
        files = sorted(sub for sub in path.iterdir() if sub.is_file()) if path.is_dir() else [path]
        logs = (log for sub in files for log in _parse_netflix_file(sub, r_min, r_max))
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    return _dedupe(_columns(logs))


@dataclass
class SplitDataset:
    """Seeded random train/test partition of a set of rating logs.

    ``train`` and ``test`` share the id tables ``users`` and ``items``, so
    an item code in either is that item's position in the catalog.
    """

    train: Ratings
    test: Ratings
    users: tuple[str, ...]
    items: tuple[str, ...]

    @property
    def catalog_size(self) -> int:
        return len(self.items)

    def cold_test_logs(self) -> dict[str, int]:
        """How many test logs have a user, or an item, without a train rating."""

        def cold(train_codes, test_codes, table):
            warm = np.bincount(train_codes, minlength=len(table)) > 0
            return int(np.count_nonzero(~warm[test_codes]))

        return {
            "user": cold(self.train.users, self.test.users, self.users),
            "item": cold(self.train.items, self.test.items, self.items),
        }


def split(logs, ratio: float, seed: int) -> SplitDataset:
    """Assign each log independently to train with probability ``ratio``.

    The same (logs, ratio, seed) always yields identical partitions. The
    users and items of the result are the id tables of ``logs``.
    """
    logs = Ratings.of(logs)
    if not len(logs):
        raise DatasetError("cannot split an empty log collection")
    if not 0.0 < ratio < 1.0:
        raise DatasetError(f"split ratio must be in (0,1), got {ratio}")
    rng = np.random.default_rng(seed)
    in_train = rng.random(len(logs)) < ratio

    def part(mask):
        return Ratings(
            logs.user_ids, logs.item_ids, logs.users[mask], logs.items[mask], logs.ratings[mask]
        )

    return SplitDataset(part(in_train), part(~in_train), logs.user_ids, logs.item_ids)


@dataclass
class SegmentModel:
    """Mean-count thresholds and per-user/per-item train statistics.

    Heavy users have strictly more train ratings than the user mean count;
    popular items likewise for the item mean count. Users or items absent
    from the train set count 0 and are therefore Light / Unpopular.
    """

    user_threshold: float
    item_threshold: float
    user_counts: dict[str, int]
    item_counts: dict[str, int]
    user_means: dict[str, float]
    item_means: dict[str, float]
    global_mean: float

    def __post_init__(self):
        # the one item order that similarity matrices and factor models share
        self.item_ids = tuple(sorted(self.item_means))
        self.item_mean_array = np.array([self.item_means[i] for i in self.item_ids])
        self.item_index = {i: n for n, i in enumerate(self.item_ids)}
        self._rows_memo = (None, None)

    def item_rows(self, item_ids) -> np.ndarray:
        """Row of each id in the train item order, -1 for ids outside train.

        The last tuple asked for is remembered by identity (and kept alive,
        so a reused ``id`` cannot match), so a catalog is mapped once. Other
        sequences can change in place and are mapped afresh on every call.
        """
        memo = isinstance(item_ids, tuple)
        if memo and self._rows_memo[0] is item_ids:
            return self._rows_memo[1]
        rows = np.array([self.item_index.get(i, -1) for i in item_ids], dtype=np.intp)
        if memo:
            self._rows_memo = (item_ids, rows)
        return rows

    def user_mean(self, user_id: str) -> float:
        """Train-set mean rating of the user, global mean if unseen in train."""
        return self.user_means.get(user_id, self.global_mean)

    def item_count(self, item_id: str) -> int:
        return self.item_counts.get(item_id, 0)

    def is_heavy(self, user_id: str) -> bool:
        return self.user_counts.get(user_id, 0) > self.user_threshold

    def is_popular(self, item_id: str) -> bool:
        return self.item_counts.get(item_id, 0) > self.item_threshold


def _counts_and_means(codes: np.ndarray, ratings: np.ndarray, table) -> tuple[dict, dict]:
    """{id: count} and {id: mean rating} of the ids with a log.

    bincount adds each id's ratings in log order, as a running sum does.
    """
    counts = np.bincount(codes, minlength=len(table))
    sums = np.bincount(codes, weights=ratings, minlength=len(table))
    present = np.flatnonzero(counts)
    ids = [table[c] for c in present.tolist()]
    means = sums[present] / counts[present]
    return dict(zip(ids, counts[present].tolist())), dict(zip(ids, means.tolist()))


def build_segment_model(train) -> SegmentModel:
    """Compute thresholds, counts and means from the train set only."""
    train = Ratings.of(train)
    if not len(train):
        raise DatasetError("cannot build a segment model from an empty train set")
    user_counts, user_means = _counts_and_means(train.users, train.ratings, train.user_ids)
    item_counts, item_means = _counts_and_means(train.items, train.ratings, train.item_ids)
    # cumsum adds left to right; np.sum would add pairwise, in other last bits
    total = float(np.cumsum(train.ratings)[-1])
    return SegmentModel(
        user_threshold=len(train) / len(user_counts),
        item_threshold=len(train) / len(item_counts),
        user_counts=user_counts,
        item_counts=item_counts,
        user_means=user_means,
        item_means=item_means,
        global_mean=total / len(train),
    )


def user_ratings_index(logs) -> dict[str, dict[str, float]]:
    """Index logs as user -> {item: rating}."""
    logs = Ratings.of(logs)
    user_ids, item_ids = logs.user_ids, logs.item_ids
    index: dict[str, dict[str, float]] = {}
    for u, i, r in zip(logs.users.tolist(), logs.items.tolist(), logs.ratings.tolist()):
        index.setdefault(user_ids[u], {})[item_ids[i]] = r
    return index
