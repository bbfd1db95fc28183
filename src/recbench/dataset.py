"""Rating log ingestion, train/test splitting and user/item segmentation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEGMENTS = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem")


class DatasetError(Exception):
    """Raised for unreadable files, malformed lines or out-of-range ratings."""


@dataclass(frozen=True)
class RatingLog:
    """One (user, item, rating) observation. The timestamp is carried but ignored."""

    user_id: str
    item_id: str
    rating: float
    timestamp: int | None = None


@dataclass
class LoadResult:
    logs: list[RatingLog]
    dropped_duplicates: int


def _check_rating(value: float, r_min: float, r_max: float, where: str) -> float:
    if not (r_min <= value <= r_max):
        raise DatasetError(f"{where}: rating {value} outside [{r_min}, {r_max}]")
    return value


def _dedupe(logs: list[RatingLog]) -> LoadResult:
    # Keep the last occurrence of each (user, item) pair.
    by_key: dict[tuple[str, str], RatingLog] = {}
    for log in logs:
        by_key[(log.user_id, log.item_id)] = log
    return LoadResult(list(by_key.values()), len(logs) - len(by_key))


def _parse_csv(path: Path, r_min: float, r_max: float) -> list[RatingLog]:
    logs: list[RatingLog] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
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
            _check_rating(rating, r_min, r_max, f"{path}:{lineno}")
            ts: int | None = None
            if len(row) == 4 and row[3].strip():
                try:
                    ts = int(row[3])
                except ValueError:
                    raise DatasetError(f"{path}:{lineno}: bad timestamp {row[3]!r}") from None
            logs.append(RatingLog(row[0].strip(), row[1].strip(), rating, ts))
    return logs


def _parse_netflix_file(path: Path, r_min: float, r_max: float) -> list[RatingLog]:
    logs: list[RatingLog] = []
    try:
        fh = open(path, encoding="utf-8")
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
            _check_rating(rating, r_min, r_max, f"{path}:{lineno}")
            logs.append(RatingLog(parts[0].strip(), item_id, rating))
    return logs


def load_dataset(
    source: str | Path,
    fmt: str = "csv",
    r_min: float = 1.0,
    r_max: float = 5.0,
) -> LoadResult:
    """Load rating logs from ``source`` in the given format (``csv`` or ``netflix``).

    Duplicate (user, item) pairs keep the last occurrence; the number of
    dropped duplicates is reported in the result.
    """
    path = Path(source)
    if fmt == "csv":
        logs = _parse_csv(path, r_min, r_max)
    elif fmt == "netflix":
        if path.is_dir():
            logs = []
            for sub in sorted(path.iterdir()):
                if sub.is_file():
                    logs.extend(_parse_netflix_file(sub, r_min, r_max))
        else:
            logs = _parse_netflix_file(path, r_min, r_max)
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    return _dedupe(logs)


@dataclass
class SplitDataset:
    """Seeded random train/test partition of a set of rating logs."""

    train: list[RatingLog]
    test: list[RatingLog]
    users: tuple[str, ...]
    items: tuple[str, ...]

    @property
    def catalog_size(self) -> int:
        return len(self.items)


def split(logs: list[RatingLog], ratio: float, seed: int) -> SplitDataset:
    """Assign each log independently to train with probability ``ratio``.

    The same (logs, ratio, seed) always yields identical partitions.
    """
    if not logs:
        raise DatasetError("cannot split an empty log collection")
    if not 0.0 < ratio < 1.0:
        raise DatasetError(f"split ratio must be in (0,1), got {ratio}")
    rng = np.random.default_rng(seed)
    draws = rng.random(len(logs))
    train = [log for log, d in zip(logs, draws) if d < ratio]
    test = [log for log, d in zip(logs, draws) if d >= ratio]
    users = tuple(sorted({log.user_id for log in logs}))
    items = tuple(sorted({log.item_id for log in logs}))
    return SplitDataset(train=train, test=test, users=users, items=items)


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

    def segment_of(self, user_id: str, item_id: str) -> str:
        u = "H" if self.is_heavy(user_id) else "L"
        i = "P" if self.is_popular(item_id) else "U"
        return f"{u}user{i}item"


def build_segment_model(train: list[RatingLog]) -> SegmentModel:
    """Compute thresholds, counts and means from the train set only."""
    if not train:
        raise DatasetError("cannot build a segment model from an empty train set")
    user_counts: dict[str, int] = {}
    item_counts: dict[str, int] = {}
    user_sums: dict[str, float] = {}
    item_sums: dict[str, float] = {}
    total = 0.0
    for log in train:
        user_counts[log.user_id] = user_counts.get(log.user_id, 0) + 1
        item_counts[log.item_id] = item_counts.get(log.item_id, 0) + 1
        user_sums[log.user_id] = user_sums.get(log.user_id, 0.0) + log.rating
        item_sums[log.item_id] = item_sums.get(log.item_id, 0.0) + log.rating
        total += log.rating
    user_means = {u: user_sums[u] / user_counts[u] for u in user_counts}
    item_means = {i: item_sums[i] / item_counts[i] for i in item_counts}
    return SegmentModel(
        user_threshold=len(train) / len(user_counts),
        item_threshold=len(train) / len(item_counts),
        user_counts=user_counts,
        item_counts=item_counts,
        user_means=user_means,
        item_means=item_means,
        global_mean=total / len(train),
    )


def user_ratings_index(logs: list[RatingLog]) -> dict[str, dict[str, float]]:
    """Index logs as user -> {item: rating}."""
    index: dict[str, dict[str, float]] = {}
    for log in logs:
        index.setdefault(log.user_id, {})[log.item_id] = log.rating
    return index

