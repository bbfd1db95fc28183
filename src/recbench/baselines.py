"""Predictor contract plus the default (mean-based) and random baselines."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .dataset import SegmentModel


class Predictor:
    """Behavioral contract shared by all models.

    ``predict`` must return a value in [r_min, r_max] and be a pure function
    of the trained state. Models able to expose an item-item similarity
    matrix override ``item_similarity_matrix``; others return None and are
    skipped by the Explore evaluation.
    """

    name = "predictor"

    def predict(self, user_id: str, item_id: str) -> float:
        raise NotImplementedError

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        return np.array([self.predict(user_id, i) for i in item_ids], dtype=float)

    def item_similarity_matrix(self, k: int):
        return None

    def config(self) -> dict:
        return {}


class DefaultPredictor(Predictor):
    """(item mean + user mean) / 2, with single-mean and global-mean fallbacks."""

    name = "default"

    def __init__(self, stats: SegmentModel, r_min: float = 1.0, r_max: float = 5.0):
        self.stats = stats
        self.r_min = r_min
        self.r_max = r_max
        self.cold = np.flatnonzero(np.append(stats.item_counts == 0, True))  # and the last slot

    def predict(self, user_id: str, item_id: str) -> float:
        return float(self.predict_many(user_id, (item_id,))[0])

    def catalog_row(self, user_id: str) -> np.ndarray:
        """Unclipped scores of the catalog, by item code, then of an id
        outside the catalog: the last entry, which the -1 that
        ``item_codes`` gives such an id reads."""
        means = self.stats.item_means
        row = np.empty(len(means) + 1)
        u = self.stats.user_code(user_id)
        if u < 0:
            row[:-1] = means
            fill = self.stats.global_mean
        else:
            fill = self.stats.user_means[u]
            np.add(means, fill, out=row[:-1])
            row[:-1] /= 2.0
        row[self.cold] = fill  # an item without a train rating has no mean
        return row

    def read(self, row: np.ndarray, item_ids) -> np.ndarray:
        """A catalog row's scores of ``item_ids``; of the catalog itself, a view."""
        return row[:-1] if item_ids is self.stats.items else row[self.stats.item_codes(item_ids)]

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        row = self.catalog_row(user_id)
        np.maximum(row, self.r_min, out=row)
        np.minimum(row, self.r_max, out=row)
        return self.read(row, item_ids)


class RandomPredictor(Predictor):
    """Uniform draw over the integers in [r_min, r_max], deterministic per (seed, u, i)."""

    name = "random"

    def __init__(self, seed: int, r_min: float = 1.0, r_max: float = 5.0):
        self.seed = seed
        self.r_min = r_min
        self.r_max = r_max
        self.levels = np.arange(math.ceil(r_min), math.floor(r_max) + 1, dtype=float)
        if not len(self.levels):
            raise ValueError(f"no integer rating level in [{r_min}, {r_max}]")

    def predict(self, user_id: str, item_id: str) -> float:
        return float(self.predict_many(user_id, (item_id,))[0])

    def predict_many(self, user_id: str, item_ids) -> np.ndarray:
        prefix = f"{self.seed}|{user_id}|".encode()
        n_levels = len(self.levels)
        idx = [
            int.from_bytes(hashlib.blake2b(prefix + i.encode(), digest_size=8).digest(), "big")
            % n_levels
            for i in item_ids
        ]
        return self.levels[idx]

    def config(self) -> dict:
        return {"seed": self.seed}
