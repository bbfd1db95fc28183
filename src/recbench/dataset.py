"""Rating log ingestion, train/test splitting and user/item segmentation."""

from __future__ import annotations

import csv
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
# numpy imports numpy.random on first use; import it with this module, so
# split's first draw does not pay for that import
import numpy.random  # noqa: F401

SEGMENTS = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem")
# Logs whose columns user_ratings_index holds as Python lists at once.
INDEX_CHUNK = 2**16


def code_of(table, key: str) -> int:
    """The position of ``key`` in the sorted ``table``, -1 if it is not there."""
    n = bisect_left(table, key)
    return n if n < len(table) and table[n] == key else -1


def dense_codes(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes (into a table of ``size`` ids) that occur, ascending, and
    each code's position among them, as int32: ``np.unique`` with
    ``return_inverse``, by counting instead of sorting."""
    present = np.bincount(codes, minlength=size) > 0
    rank = np.cumsum(present, dtype=np.int32) - 1
    return np.flatnonzero(present), rank[codes]


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


def _not_utf8(path: Path) -> DatasetError:
    """The error for a file that is not UTF-8, naming its first bad line:
    a newline byte is never part of a multi-byte character, so each line
    decodes alone."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DatasetError(f"{path}:{lineno}: byte {line[exc.start]:#04x} is not UTF-8")
    return DatasetError(f"{path}: not UTF-8")


def _parse_csv(path: Path, r_min: float, r_max: float):
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
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
                    raise DatasetError(
                        f"{path}:{lineno}: rating {rating} outside [{r_min}, {r_max}]"
                    )
                if len(row) == 4 and row[3].strip():
                    try:
                        int(row[3])
                    except ValueError:
                        raise DatasetError(f"{path}:{lineno}: bad timestamp {row[3]!r}") from None
                yield row[0].strip(), row[1].strip(), rating
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except csv.Error as exc:  # say, a field over csv.field_size_limit()
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_netflix_file(path: Path, r_min: float, r_max: float):
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        item_id: str | None = None
        try:
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
                    raise DatasetError(
                        f"{path}:{lineno}: rating {rating} outside [{r_min}, {r_max}]"
                    )
                yield parts[0].strip(), item_id, rating
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


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


@dataclass(frozen=True, eq=False)
class SegmentModel:
    """Train rating counts and means by code of the id tables ``users`` and
    ``items`` (NaN means for ids without a train rating), the mean-count
    thresholds and the global mean. Heavy users have strictly more train
    ratings than the user mean count, popular items than the item mean count.

    ``item_ids`` (the items with a train rating, in table order: the one item
    order that similarity matrices and factor models share), their means
    ``row_means`` and ``code_row`` (each item code's row in that order, -1
    outside train) are derived, so ``dataclasses.replace`` derives them again.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    user_counts: np.ndarray
    user_means: np.ndarray
    item_counts: np.ndarray
    item_means: np.ndarray
    user_threshold: float
    item_threshold: float
    global_mean: float
    item_ids: tuple[str, ...] = field(init=False)
    row_means: np.ndarray = field(init=False)
    code_row: np.ndarray = field(init=False)

    def __post_init__(self):
        codes = np.flatnonzero(self.item_counts)
        code_row = np.full(len(self.items), -1, dtype=np.intp)
        code_row[codes] = np.arange(len(codes))
        object.__setattr__(self, "item_ids", tuple(map(self.items.__getitem__, codes.tolist())))
        object.__setattr__(self, "row_means", self.item_means[codes])
        object.__setattr__(self, "code_row", code_row)

    @property
    def heavy(self) -> np.ndarray:
        """Whether each user code is Heavy."""
        return self.user_counts > self.user_threshold

    @property
    def popular(self) -> np.ndarray:
        """Whether each item code is Popular."""
        return self.item_counts > self.item_threshold

    def item_rows(self, item_ids) -> np.ndarray:
        """Row of each id in ``item_ids``; the catalog, ``items``, reads ``code_row``."""
        if item_ids is self.items:
            return self.code_row
        return np.array([code_of(self.item_ids, i) for i in item_ids], dtype=np.intp)

    def user_code(self, user_id: str) -> int:
        """The user's code if they have a train rating, else -1."""
        u = code_of(self.users, user_id)
        return u if u >= 0 and self.user_counts[u] else -1

    def user_mean(self, user_id: str) -> float:
        """Train-set mean rating of the user, global mean if unseen in train."""
        u = self.user_code(user_id)
        return self.user_means[u] if u >= 0 else self.global_mean


def build_segment_model(train) -> SegmentModel:
    """Compute thresholds, counts and means from the train set only.

    bincount adds each id's ratings in log order, as a running sum does.
    """
    train = Ratings.of(train)
    if not len(train):
        raise DatasetError("cannot build a segment model from an empty train set")

    def counts_and_means(codes, table):  # (counts, means) by code
        counts = np.bincount(codes, minlength=len(table))
        sums = np.bincount(codes, weights=train.ratings, minlength=len(table))
        return counts, np.divide(sums, counts, out=np.full(len(table), np.nan), where=counts > 0)

    users = counts_and_means(train.users, train.user_ids)
    items = counts_and_means(train.items, train.item_ids)
    # cumsum adds left to right; np.sum would add pairwise, in other last bits
    total = float(np.cumsum(train.ratings)[-1])
    return SegmentModel(
        train.user_ids,
        train.item_ids,
        *users,
        *items,
        user_threshold=len(train) / np.count_nonzero(users[0]),
        item_threshold=len(train) / np.count_nonzero(items[0]),
        global_mean=total / len(train),
    )


def user_ratings_index(logs) -> dict[str, dict[str, float]]:
    """Index logs as user -> {item: rating}, reading INDEX_CHUNK logs at a time."""
    logs = Ratings.of(logs)
    user_ids, item_ids = logs.user_ids, logs.item_ids
    index: dict[str, dict[str, float]] = {}
    for start in range(0, len(logs), INDEX_CHUNK):
        part = slice(start, start + INDEX_CHUNK)
        columns = (logs.users[part], logs.items[part], logs.ratings[part])
        for u, i, r in zip(*(column.tolist() for column in columns)):
            index.setdefault(user_ids[u], {})[item_ids[i]] = r
    return index
