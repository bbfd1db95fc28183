"""Seeded input generators for the benchmark's workloads.

The generators use their own numpy code, not ``recbench.synthetic``, so that
a refactor of the library cannot change what the benchmark feeds it. The same
(workload, seed, scale) always writes the same bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from workloads import R_MAX, R_MIN, Workload

# Shape of the skewed (mf-heavy) input: item popularity falls off as
# 1 / popularity_rank**ZIPF_EXPONENT, and ratings come from a model with RANK
# latent factors plus Gaussian noise of standard deviation NOISE_SD.
ZIPF_EXPONENT = 0.9
RANK = 4
NOISE_SD = 0.6


def _user_id(n: int) -> str:
    return f"u{n:05d}"


def _item_id(n: int) -> str:
    return f"i{n:05d}"


def _write_csv(path: Path, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> None:
    lines = ["user_id,item_id,rating"]
    lines += [
        f"{_user_id(u)},{_item_id(i)},{r:.1f}" for u, i, r in zip(users, items, ratings)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def gen_clustered(path: Path, seed: int, users: int, items: int, groups: int, density: float) -> None:
    """Item groups with one integer preference per (user, group), noise-free.

    Exactly round(density * users * items) distinct cells are rated, so the
    input size does not vary with the seed.
    """
    rng = np.random.default_rng(seed)
    prefs = rng.integers(1, 6, size=(users, groups))
    group_of = (np.arange(items) * groups) // items
    n_logs = int(round(density * users * items))
    cells = np.sort(rng.choice(users * items, size=n_logs, replace=False))
    uu, ii = np.divmod(cells, items)
    _write_csv(path, uu, ii, prefs[uu, group_of[ii]].astype(float))


def gen_skewed(
    path: Path,
    seed: int,
    light_users: int,
    heavy_users: int,
    items: int,
    light_logs: tuple[int, int],
    heavy_logs: int,
) -> None:
    """Many light users on Zipf-popular items plus a few users who rate most items.

    Ratings are a rounded low-rank model with Gaussian noise, clipped to 1..5.
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, items + 1) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    n_users = light_users + heavy_users
    counts = np.concatenate(
        [
            rng.integers(light_logs[0], light_logs[1] + 1, size=light_users),
            np.full(heavy_users, heavy_logs),
        ]
    )
    user_bias = rng.normal(0.0, 0.5, n_users)
    item_bias = rng.normal(0.0, 0.5, items)
    p = rng.normal(0.0, 0.5, (n_users, RANK))
    q = rng.normal(0.0, 0.5, (items, RANK))
    uu_parts, ii_parts = [], []
    for u, n in enumerate(counts):
        uu_parts.append(np.full(n, u))
        ii_parts.append(np.sort(rng.choice(items, size=n, replace=False, p=popularity)))
    uu = np.concatenate(uu_parts)
    ii = np.concatenate(ii_parts)
    raw = 3.5 + user_bias[uu] + item_bias[ii] + np.einsum("ij,ij->i", p[uu], q[ii])
    raw += rng.normal(0.0, NOISE_SD, len(uu))
    _write_csv(path, uu, ii, np.clip(np.round(raw), R_MIN, R_MAX))


def gen_netflix(path: Path, seed: int, users: int, items: int, files: int, per_user: tuple[int, int]) -> None:
    """Netflix-prize layout: a directory of files, each holding per-item blocks.

    Block format: ``<item>:`` then ``<customer>,<rating>,<date>`` lines.
    Customer ids are distinct 7-digit numbers, as in the prize data.
    """
    rng = np.random.default_rng(seed)
    customers = rng.choice(np.arange(1_000_000, 10_000_000), size=users, replace=False)
    counts = rng.integers(per_user[0], per_user[1] + 1, size=users)
    taste = rng.integers(1, 6, size=users)
    uu = np.repeat(np.arange(users), counts)
    ii = np.concatenate([rng.choice(items, size=n, replace=False) for n in counts])
    ratings = np.clip(taste[uu] + rng.integers(-1, 2, size=len(uu)), 1, 5)
    dates = np.datetime64("2000-01-01") + rng.integers(0, 2000, size=len(uu)).astype("timedelta64[D]")
    order = np.lexsort((customers[uu], ii))
    rows = [
        f"{c},{r},{d}"
        for c, r, d in zip(customers[uu[order]], ratings[order], np.datetime_as_string(dates[order]))
    ]
    starts = np.searchsorted(ii[order], np.arange(items + 1))
    path.mkdir(parents=True, exist_ok=True)
    bounds = np.linspace(0, items, files + 1).astype(int)
    for f in range(files):
        lines = []
        for item in range(bounds[f], bounds[f + 1]):
            lines.append(f"{item + 1}:")
            lines += rows[starts[item] : starts[item + 1]]
        (path / f"combined_data_{f + 1}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


GENERATORS = {"knn-catalog": gen_clustered, "mf-heavy": gen_skewed, "random-netflix": gen_netflix}


def generate(workload: Workload, seed: int, path: Path, reduced: bool = False) -> Path:
    """Write the workload's input at ``path`` (a file, or a directory for netflix)."""
    params = workload.reduced if reduced else workload.full
    GENERATORS[workload.name](path, seed, **params)
    return path


def input_sha256(path: Path) -> str:
    """Digest of a file, or of a directory's file names and contents in sorted order."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(f.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        h.update(f.read_bytes())
    return h.hexdigest()
