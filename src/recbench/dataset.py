"""Rating log ingestion, train/test splitting and user/item segmentation."""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
# numpy imports numpy.random on first use; import it with this module, so
# split's first draw does not pay for that import
import numpy.random  # noqa: F401

SEGMENTS = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem")
# Bytes that each chunked loop holds for one block of its units (``blocks``).
BLOCK_BYTES = 2**20
# Bytes of whole lines that load_dataset parses from a CSV at once (then up to
# the end of the line they end in), a few times this in temporaries; not from
# BLOCK_BYTES, as a read allocates its whole size before it reads.
CSV_CHUNK = 2**16
# The bytes of a plain CSV chunk: printable ASCII but space and '"', and line ends.
_PLAIN_BYTES = bytes(b for b in range(0x21, 0x7F) if b != ord('"')) + b"\r\n"
# The uint64 whose first k bytes in memory are 0xff and the rest 0, by k
_FIRST_BYTES = np.frombuffer(b"".join(b"\xff" * k + bytes(8 - k) for k in range(9)), np.uint64)


def code_of(table, key: str) -> int:
    """The position of ``key`` in the sorted ``table``, -1 if it is not there."""
    n = bisect_left(table, key)
    return n if n < len(table) and table[n] == key else -1


def dense_codes(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes (into a table of ``size`` ids) that occur, ascending, and
    each code's position among them, as int32: ``np.unique`` with
    ``return_inverse``, by a flag over the table instead of sorting."""
    codes = codes.astype(np.intp, copy=False)  # indexes twice as fast as int32
    present = np.zeros(size, bool)
    present[codes] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(size, np.int32)  # read only where a code occurs
    rank[distinct] = np.arange(len(distinct), dtype=np.int32)
    return distinct, rank[codes]


def stable_order(codes: np.ndarray, size: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for integer codes in [0, size),
    by 16-bit LSD radix passes: numpy's stable sort of uint16 is a radix
    sort, so codes below 2**16 take one pass, and each further 16 bits one
    more, stable on the order before it."""
    order = np.argsort(codes.astype(np.uint16), kind="stable")  # the cast keeps the low 16 bits
    shift = 16
    while size > 1 << shift:
        digits = (np.take(codes, order) >> shift).astype(np.uint16)
        order = np.take(order, np.argsort(digits, kind="stable"))
        shift += 16
    return order


def blocks(units, cost: int):
    """Consecutive ranges [start, stop) that tile the units in order, each of
    units costing at most BLOCK_BYTES in all, or of one unit; one if all fit.
    ``units`` is a number of units of ``cost`` bytes, or each unit's parts of that."""
    if isinstance(units, np.ndarray):
        cum = units.cumsum()
        n, total = len(cum), cum[-1] if len(cum) else 0
    else:
        cum, n, total = None, units, units
    start = 0
    while start < n:
        if total * cost <= BLOCK_BYTES:
            stop = n
        elif cum is None:
            stop = start + BLOCK_BYTES // cost
        else:
            base = cum[start - 1] if start else 0
            stop = int(np.searchsorted(cum, base + BLOCK_BYTES // cost, "right"))
        stop = min(max(start + 1, stop), n)
        yield start, stop
        start = stop


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
    The three arrays are made read-only, since ``by_user`` is cached, and
    carry numpy's own dtypes; a Ratings pickles through its constructor, so
    an unpickled one does too. The library's functions take a Ratings.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __post_init__(self):
        for name, dtype in (("users", np.int32), ("items", np.int32), ("ratings", np.float64)):
            column = getattr(self, name)
            if column.base is not None:  # a view, whose base could still be written
                column = column.copy()
            column.flags.writeable = False
            # numpy's own dtype, not an equal copy as unpickled, on which np.add.at
            # is slow: a view of the read-only column, or a cast
            column = np.asarray(column, dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __reduce__(self):
        return Ratings, (self.user_ids, self.item_ids, self.users, self.items, self.ratings)

    @cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, ptr): user code u's logs are at ``order[ptr[u]:ptr[u + 1]]``,
        by ascending item code, and the logs of a repeated pair in log order."""
        order = _by_user_item(self.users, self.items, len(self.item_ids))
        order = order.astype(np.int32) if len(order) < 2**31 else order
        counts = np.bincount(self.users, minlength=len(self.user_ids))
        ptr = np.concatenate(([0], np.cumsum(counts)))
        order.flags.writeable = ptr.flags.writeable = False
        return order, ptr

    def __len__(self) -> int:
        return len(self.ratings)

    def __iter__(self):
        """A RatingLog view of each log, with a Python float rating."""
        user_ids, item_ids = self.user_ids, self.item_ids
        for u, i, r in zip(self.users.tolist(), self.items.tolist(), self.ratings.tolist()):
            yield RatingLog(user_ids[u], item_ids[i], r)


class _Columns:
    """Logs appended as columns, each id coded in the order it is first seen.

    The CSV bulk path adds its logs in chunks of id keys and float64
    ratings, after the logs of line 1 and before those of any later line the
    row path reads. Until the columns are read, such a log's code is the
    position of its key among the distinct keys of all the chunks;
    ``to_ratings`` codes their ids with one ``_distinct_rows`` over those keys.
    """

    def __init__(self):
        self.user_codes: dict[str, int] = {}
        self.item_codes: dict[str, int] = {}
        self.users, self.items, self.ratings = array("i"), array("i"), array("d")
        self.keyed = slice(0, 0)  # the logs of the chunks
        self.keys: tuple[list, list] = ([], [])  # each chunk's distinct keys, per id column
        self.n_keys = [0, 0]

    def add(self, logs) -> None:
        """(user id, item id, rating) triples."""
        user_codes, item_codes = self.user_codes, self.item_codes
        users, items, ratings = self.users, self.items, self.ratings
        for user_id, item_id, rating in logs:
            users.append(user_codes.setdefault(user_id, len(user_codes)))
            items.append(item_codes.setdefault(item_id, len(item_codes)))
            ratings.append(rating)

    def add_keyed(self, users, items, ratings) -> None:
        """A chunk of logs: for each id column, its distinct keys and each
        log's position among them (``_distinct_rows``), and the ratings."""
        start = self.keyed.start if self.keys[0] else len(self.ratings)
        for i, (column, (keys, positions)) in enumerate(((self.users, users), (self.items, items))):
            positions += self.n_keys[i]
            column.frombytes(positions.tobytes())
            self.keys[i].append(keys)
            self.n_keys[i] += len(keys)
        self.ratings.frombytes(ratings.tobytes())
        self.keyed = slice(start, len(self.ratings))

    def to_ratings(self) -> Ratings:
        """The logs as a Ratings, each id table sorted and the codes renumbered into it."""
        columns = []
        for codes, column, keys in zip(
            (self.user_codes, self.item_codes), (self.users, self.items), self.keys
        ):
            raw = np.frombuffer(column, np.intc)
            if keys:
                raw[self.keyed] = _code_keys(codes, keys)[raw[self.keyed]]
            table = sorted(codes)
            rank = np.empty(len(table), np.int32)
            order = np.fromiter(map(codes.__getitem__, table), np.intp, len(table))
            rank[order] = np.arange(len(table))
            columns += [tuple(table), rank[raw]]
        user_ids, users, item_ids, items = columns
        return Ratings(user_ids, item_ids, users, items, np.array(self.ratings, dtype=float))


def _code_keys(codes: dict[str, int], keys: list) -> np.ndarray:
    """The code in ``codes`` (a new id gets the next one) of each key of the
    chunks of distinct keys ``keys``, in order; the list is emptied."""
    width = max(chunk.shape[1] for chunk in keys)
    distinct = np.zeros((sum(map(len, keys)), width), np.uint64)
    start = 0
    for chunk in keys:
        distinct[start : start + len(chunk), : chunk.shape[1]] = chunk
        start += len(chunk)
    keys.clear()
    distinct, where = _distinct_rows(distinct)
    ids = distinct.view(f"S{8 * width}")[:, 0].tolist()  # trailing NUL bytes dropped
    del distinct
    coded = np.fromiter((codes.setdefault(i.decode("ascii"), len(codes)) for i in ids), np.intc)
    return coded[where]


def _columns(logs) -> Ratings:
    """(user id, item id, rating) triples as a Ratings."""
    columns = _Columns()
    columns.add(logs)
    return columns.to_ratings()


@dataclass
class LoadResult:
    logs: Ratings
    dropped_duplicates: int


def _by_user_item(users: np.ndarray, items: np.ndarray, n_items: int) -> np.ndarray:
    """The log positions by (user, item) code, in one stable sort, so a
    repeated pair's positions stay ascending."""
    return np.argsort(users.astype(np.int64) * n_items + items, kind="stable")


def _dedupe(logs: Ratings) -> LoadResult:
    """Keep each (user, item) pair once: at its first position, with its last rating."""
    order = _by_user_item(logs.users, logs.items, len(logs.item_ids))
    users, items = logs.users[order], logs.items[order]
    # in (user, item) order, a pair's run starts after a change and ends before the next
    changes = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    del users, items
    if changes.all():
        return LoadResult(logs, 0)
    first = order[np.concatenate(([True], changes))]
    last = order[np.concatenate((changes, [True]))]
    del order, changes
    # each pair's last position onto its first, gathered in position order
    source = np.full(len(logs), -1, np.intp)
    source[first] = last
    del first, last
    keep = np.flatnonzero(source >= 0)
    deduped = Ratings(
        logs.user_ids,
        logs.item_ids,
        logs.users[keep],
        logs.items[keep],
        logs.ratings[source[keep]],
    )
    return LoadResult(deduped, len(logs) - len(keep))


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


def _parse_rows(path: Path, fh, offset: int, start: int, r_min: float, r_max: float):
    """The row path: the CSV rows of the binary ``fh`` from byte ``offset``,
    the first of them line ``start`` of ``path``, through ``csv.reader``."""
    fh.seek(offset)
    # a byte order mark is stripped at the start of the file only
    text = io.TextIOWrapper(fh, encoding="utf-8-sig" if offset == 0 else "utf-8", newline="")
    reader = csv.reader(text)
    try:
        for lineno, row in enumerate(reader, start=start):
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
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:  # say, a field over csv.field_size_limit()
        raise DatasetError(f"{path}:{start - 1 + reader.line_num}: {exc}") from None


def _chunks(fh):
    """The rest of the binary ``fh`` in chunks of whole lines: CSV_CHUNK
    bytes, then up to the end of the line they end in."""
    while chunk := fh.read(CSV_CHUNK):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()
        yield chunk


def _field_words(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int):
    """Each field ``buf[start:start + length]`` zero-padded to ``width``
    8-byte words, as a uint64 row, from ``words``, the 8 bytes at each
    offset of the buffer."""
    rows = np.empty((len(starts), width), np.uint64)
    for j in range(width):
        np.bitwise_and(
            words[starts + 8 * j], _FIRST_BYTES[np.clip(lengths - 8 * j, 0, 8)], out=rows[:, j]
        )
    return rows


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d uint64 array, and each row's position
    among them, as int32. An id's key is its bytes zero-padded to whole
    8-byte words: a plain id has no NUL byte, so its key names it at any
    width."""
    first, positions = _ranks(keys[:, 0])
    for column in keys.T[1:]:
        _, rank = _ranks(column)
        first, positions = _ranks(positions.astype(np.int64) * len(keys) + rank)
    return keys[first], positions


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A position of each distinct value, in ascending order of value, and
    each value's rank among the distinct ones (int32): ``np.unique``'s index
    and inverse, without its copies."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(len(values), bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    ranks = np.empty(len(values), np.int32)
    ranks[order] = np.cumsum(new, dtype=np.int32) - 1
    return order[new], ranks


def _timestamps_ok(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> bool:
    """Whether every field ``buf[start:start + length]`` (at most ``width``
    bytes) is empty or matches [+-]?D+."""
    first = buf[starts]
    signed = ((first == ord("+")) | (first == ord("-"))) & (lengths > 0)
    n_digits = np.zeros(len(starts), np.intp)
    led = lengths == 0  # or a digit right after any sign
    for j in range(width):
        is_digit = (buf[starts + j] - np.uint8(ord("0")) < 10) & (lengths > j)
        if j < 2:
            led |= is_digit & (signed == j)
        n_digits += is_digit
    return bool(led.all() and (n_digits + signed == lengths).all())


def _plain_chunk(chunk: bytes, r_min: float, r_max: float):
    """The logs of a chunk of whole lines if every line is plain, as
    ``_Columns.add_keyed`` takes them; None if one is not. The row path
    reads the same logs from plain lines: one row per line, no id for
    ``strip`` to change, and each number as ``float``/``int`` reads it.

    Plain: every byte printable ASCII but space and '"', and '\\r' only
    right before '\\n'; 3 or 4 fields of at most ``csv.field_size_limit()``
    bytes; a rating that ``float`` reads inside the scale; a timestamp
    empty or [+-]?D+ of at most 18 bytes, which any ``int`` digit limit
    admits. numpy casts bytes to float64 with ``float`` itself, so each
    distinct rating text of the chunk is read once, by the row path's parser."""
    if not chunk.endswith(b"\n"):  # the file's last line
        chunk += b"\n"
    if chunk.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    before_end = np.searchsorted(commas, ends)
    n_commas = np.diff(before_end, prepend=0)
    if n_commas.min() < 2 or n_commas.max() > 3:
        return None
    stops = ends
    if b"\r" in chunk:
        cr = buf[ends - 1] == ord("\r")
        if np.count_nonzero(cr) != chunk.count(b"\r"):
            return None
        stops = ends - cr
    first_comma = before_end - n_commas
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    user_stops, item_stops = commas[first_comma], commas[first_comma + 1]
    four = np.flatnonzero(n_commas == 3)
    rating_stops = stops.copy()
    rating_stops[four] = commas[first_comma[four] + 2]
    stamp_starts = rating_stops[four] + 1
    fields = (
        (starts, user_stops - starts),
        (user_stops + 1, item_stops - user_stops - 1),
        (item_stops + 1, rating_stops - item_stops - 1),
        (stamp_starts, stops[four] - stamp_starts),
    )
    widths = [int(np.max(lengths, initial=0)) for _, lengths in fields]
    if max(widths) > csv.field_size_limit() or widths[3] > 18:
        return None
    # ids and rating texts as keys of 8-byte words, each column's at most twice the chunk
    n_words = [-(-max(width, 1) // 8) for width in widths[:3]]
    if max(n_words) * 8 * len(ends) > 2 * len(buf):
        return None
    padded = np.zeros(len(buf) + 8 * max(n_words) + 18, np.uint8)
    padded[: len(buf)] = buf
    if not _timestamps_ok(padded, *fields[3], widths[3]):
        return None
    words = np.ndarray((len(padded) - 7,), np.uint64, padded, strides=(1,))
    users, items, (texts, where) = (
        _distinct_rows(_field_words(words, *field, width)) for field, width in zip(fields, n_words)
    )
    try:  # trailing NUL bytes dropped
        ratings = texts.view(f"S{8 * n_words[2]}")[:, 0].astype(float)
    except ValueError:
        return None
    if not ((ratings >= r_min) & (ratings <= r_max)).all():
        return None
    return users, items, ratings[where]


def _load_csv(path: Path, r_min: float, r_max: float) -> _Columns:
    """The logs of a CSV: line 1 (a header or not) and everything from the
    first chunk with a line that is not plain through the row path, the
    plain chunks before it in bulk."""
    columns = _Columns()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        head = fh.readline()
        if b'"' in head or b"\r" in head.removesuffix(b"\n").removesuffix(b"\r"):
            # a quoted field or a lone CR: line 1 may not end at its newline
            columns.add(_parse_rows(path, fh, 0, 1, r_min, r_max))
            return columns
        columns.add(_parse_rows(path, io.BytesIO(head), 0, 1, r_min, r_max))
        offset, lineno = len(head), 2
        for chunk in _chunks(fh):
            logs = _plain_chunk(chunk, r_min, r_max)
            if logs is None:
                columns.add(_parse_rows(path, fh, offset, lineno, r_min, r_max))
                break
            columns.add_keyed(*logs)
            offset += len(chunk)
            lineno += len(logs[-1])  # one log per plain line
    return columns


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
        columns = _load_csv(path, r_min, r_max)
    elif fmt == "netflix":
        files = sorted(sub for sub in path.iterdir() if sub.is_file()) if path.is_dir() else [path]
        columns = _Columns()
        columns.add(log for sub in files for log in _parse_netflix_file(sub, r_min, r_max))
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    logs = columns.to_ratings()
    del columns
    return _dedupe(logs)


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


def split(logs: Ratings, ratio: float, seed: int) -> SplitDataset:
    """Assign each log independently to train with probability ``ratio``.

    The same (logs, ratio, seed) always yields identical partitions. The
    users and items of the result are the id tables of ``logs``.
    """
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

    An item's code, its position in ``items`` (the catalog), is the one item
    index that similarity matrices and the predictors' rows share.
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

    @property
    def heavy(self) -> np.ndarray:
        """Whether each user code is Heavy."""
        return self.user_counts > self.user_threshold

    @property
    def popular(self) -> np.ndarray:
        """Whether each item code is Popular."""
        return self.item_counts > self.item_threshold

    def item_codes(self, item_ids) -> np.ndarray:
        """The catalog code of each id in ``item_ids``, -1 for an id outside the catalog."""
        return np.array([code_of(self.items, i) for i in item_ids], dtype=np.intp)

    def user_code(self, user_id: str) -> int:
        """The user's code if they have a train rating, else -1."""
        u = code_of(self.users, user_id)
        return u if u >= 0 and self.user_counts[u] else -1

    def user_mean(self, user_id: str) -> float:
        """Train-set mean rating of the user, global mean if unseen in train."""
        u = self.user_code(user_id)
        return self.user_means[u] if u >= 0 else self.global_mean


def build_segment_model(train: Ratings) -> SegmentModel:
    """Compute thresholds, counts and means from the train Ratings only.

    bincount adds each id's ratings in log order, as a running sum does.
    """
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


def user_ratings_index(train: Ratings) -> Ratings:
    """``train`` itself: ``KnnPredictor`` reads its ``by_user`` order.

    It remains only because ``perfbench`` passes its result to
    ``KnnPredictor`` and traces it; ROADMAP item 1 removes those calls,
    and this function with them."""
    return train
