"""Seeded synthetic rating datasets used as fixtures and benchmarks."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .dataset import RatingLog, Ratings, _columns


def _user_id(n: int) -> str:
    return f"u{n:05d}"


def _item_id(n: int) -> str:
    return f"i{n:05d}"


def gen_uniform(
    n_users: int,
    n_items: int,
    density: float,
    seed: int,
) -> Ratings:
    """Each (user, item) pair rated with probability ``density``, uniform levels 1 to 5."""
    rng = np.random.default_rng(seed)
    picks = rng.random((n_users, n_items)) < density
    levels = rng.integers(1, 6, size=(n_users, n_items))
    return _columns(
        (_user_id(u), _item_id(i), float(levels[u, i])) for u, i in zip(*np.nonzero(picks))
    )


def gen_planted_rank1(
    n_users: int,
    n_items: int,
    density: float,
    seed: int,
) -> Ratings:
    """Noise-free rank-1 structure: rating = clamp(round(a_u * b_i)) in [1, 5]."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.2, n_users)
    b = rng.uniform(1.0, 2.2, n_items)
    picks = rng.random((n_users, n_items)) < density
    ratings = np.clip(np.round(np.outer(a, b)), 1.0, 5.0)
    return _columns(
        (_user_id(u), _item_id(i), float(ratings[u, i])) for u, i in zip(*np.nonzero(picks))
    )


def gen_clustered(
    n_users: int,
    n_items: int,
    n_groups: int,
    density: float,
    seed: int,
) -> Ratings:
    """Item groups with per-user group preferences.

    Every item in group g receives the user's group preference (an integer in
    [1, 5]), so the items of a group are rating-identical for every user.
    Group g holds the contiguous item range
    [g * n_items / n_groups, (g+1) * n_items / n_groups).
    """
    rng = np.random.default_rng(seed)
    prefs = rng.integers(1, 6, size=(n_users, n_groups)).astype(float)
    group_of = (np.arange(n_items) * n_groups) // n_items
    picks = rng.random((n_users, n_items)) < density
    return _columns(
        (_user_id(u), _item_id(i), float(prefs[u, group_of[i]])) for u, i in zip(*np.nonzero(picks))
    )


def write_csv(logs: Ratings | list[RatingLog], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "item_id", "rating"])
        for log in logs:
            writer.writerow([log.user_id, log.item_id, repr(log.rating)])
