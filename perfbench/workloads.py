"""The benchmark's workloads and run settings, as plain data.

Nothing here imports numpy, so the harness process that spawns the
evaluations stays small and cannot raise their peak RSS: Linux carries
``ru_maxrss`` across ``execve``. The inputs are written by ``generators.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

R_MIN, R_MAX = 1.0, 5.0
TOP_N = 10
EXPLORE_K = 100
MF_EPOCHS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "knn", "mf" or "random"
    fmt: str  # "csv" or "netflix"
    split_ratio: float
    full: dict  # generator parameters of the timed instance
    reduced: dict  # generator parameters of the oracle-checked instance
    model_cfg: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="knn-catalog",
            model="knn",
            fmt="csv",
            split_ratio=0.9,
            full=dict(users=1600, items=1000, groups=10, density=0.024),
            reduced=dict(users=160, items=100, groups=5, density=0.12),
            model_cfg={"K": 100, "gamma": 50},
        ),
        Workload(
            name="mf-heavy",
            model="mf",
            fmt="csv",
            split_ratio=0.7,
            full=dict(
                light_users=600, heavy_users=6, items=2000, light_logs=(10, 40), heavy_logs=1000
            ),
            reduced=dict(
                light_users=120, heavy_users=3, items=120, light_logs=(5, 20), heavy_logs=100
            ),
            model_cfg={"F": 16},
        ),
        Workload(
            name="random-netflix",
            model="random",
            fmt="netflix",
            split_ratio=0.9,
            full=dict(users=3000, items=400, files=4, per_user=(20, 60)),
            reduced=dict(users=150, items=60, files=2, per_user=(3, 12)),
        ),
    )
}
