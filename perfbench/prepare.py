"""Write a workload's input and check the library on a reduced instance.

Runs in a process of its own, so that numpy, the generated data and the
oracle's models never enter the harness process that spawns the timed
evaluations. Prints one JSON line: the input's path, digest and generation
time, and the checks made with their failures.

Checks on the reduced instance of the same generator and seed:

- every core and Explore table cell against ``tests/oracle.py::
  naive_core_report`` (1e-9, supports exact);
- the fit stage: for KNN, ``build_similarity_matrix`` against pairwise
  ``knn.weighted_pearson``; for MF, one ``sgd_epoch`` against the scalar
  ``reference_sgd_epoch`` below.

Run by ``run.py``; by hand:
``python3 perfbench/prepare.py --workload mf-heavy --seed 1 --work DIR``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import evaluate as ev  # puts src/ and tests/ on the import path
import oracle
from generators import generate, input_sha256
from recbench import dataset, knn, mf, protocol
from workloads import WORKLOADS

TOLERANCE = 1e-9


def reference_sgd_epoch(p, q, uu, ii, rr, order, lr, reg) -> None:
    """``mf.sgd_epoch`` on lists of floats, one coordinate at a time."""
    for n in order:
        pu, qi = p[uu[n]], q[ii[n]]
        err = rr[n] - sum(a * b for a, b in zip(pu, qi))
        pu_old = list(pu)
        for f in range(len(pu)):
            if f != mf.USER_PINNED:
                pu[f] += lr * (err * qi[f] - reg * pu[f])
        for f in range(len(qi)):
            if f != mf.ITEM_PINNED:
                qi[f] += lr * (err * pu_old[f] - reg * qi[f])


def check_sgd_epoch(train, n_factors: int, seed: int) -> tuple[int, list[str]]:
    """One library epoch against the scalar reference, from the same state."""
    users = {u: n for n, u in enumerate(sorted({log.user_id for log in train}))}
    items = {i: n for n, i in enumerate(sorted({log.item_id for log in train}))}
    uu = np.array([users[log.user_id] for log in train])
    ii = np.array([items[log.item_id] for log in train])
    rr = np.array([log.rating for log in train])
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 0.1, (len(users), n_factors))
    q = rng.normal(0.0, 0.1, (len(items), n_factors))
    p[:, mf.USER_PINNED] = 1.0
    q[:, mf.ITEM_PINNED] = 1.0
    order = rng.permutation(len(train))
    lr, reg = 0.030, 0.008

    p_ref, q_ref = p.tolist(), q.tolist()
    reference_sgd_epoch(p_ref, q_ref, uu.tolist(), ii.tolist(), rr.tolist(), order.tolist(), lr, reg)
    mf.sgd_epoch(p, q, uu, ii, rr, order, lr, reg)
    worst = max(float(np.max(np.abs(p - p_ref))), float(np.max(np.abs(q - q_ref))))
    if worst <= TOLERANCE:
        return 1, []
    return 1, [f"sgd_epoch differs from the scalar reference by {worst:.3g}"]


def check_similarity_matrix(train, k: int, gamma: int) -> tuple[int, list[str]]:
    """``build_similarity_matrix`` against ``weighted_pearson`` on every item pair.

    One check per item: its neighbours are positive, not itself, sorted by
    weight, each weighted as ``weighted_pearson`` gives it, and their weights
    are the top ``k`` pairwise ones (ties at the cut may pick either item).
    """
    ratings: dict[str, dict[str, float]] = {}
    for log in train:
        ratings.setdefault(log.item_id, {})[log.user_id] = log.rating
    matrix = knn.build_similarity_matrix(train, k, gamma)
    failures = []
    for item in sorted(ratings):
        pairwise = {
            other: knn.weighted_pearson(ratings[item], ratings[other], gamma)
            for other in ratings
            if other != item
        }
        want = sorted((w for w in pairwise.values() if w > knn.SIM_EPS), reverse=True)[:k]
        got = matrix.neighbor_list(item)
        weights = [w for _, w in got]
        problem = None
        if len(got) != len(want):
            problem = f"{len(got)} neighbours, pairwise gives {len(want)}"
        elif any(other not in pairwise for other, _ in got):
            problem = "lists itself or an unknown item"
        elif any(abs(w - pairwise[other]) > TOLERANCE for other, w in got):
            problem = "a weight differs from weighted_pearson"
        elif any(a < b for a, b in zip(weights, weights[1:])):
            problem = "neighbours not sorted by weight"
        elif any(abs(a - b) > TOLERANCE for a, b in zip(weights, want)):
            problem = "not the top-k pairwise weights"
        if problem:
            failures.append(f"similarity matrix, item {item}: {problem}")
    return len(ratings), failures


def check_reports(data, segments, model) -> tuple[int, list[str], float]:
    """Core and Explore tables against tests/oracle.py.

    Returns (cells checked plus one presence check, failures, worst absolute
    difference).
    """
    config = ev.protocol_config()
    core = protocol.run_core(model, data, segments, config)
    explore = protocol.run_explore(model, data, segments, config)

    sections = [("core", core, model)]
    matrix = model.item_similarity_matrix(config.explore_k)
    if matrix is not None:
        emulated = knn.KnnPredictor(
            matrix, segments, dataset.user_ratings_index(data.train), config.r_min, config.r_max
        )
        sections.append(("explore", explore, emulated))
    attempted, failures, worst = 1, [], 0.0
    if (matrix is None) != (explore is None):
        failures.append("Explore present iff the model exposes similarities")
    for label, report, predictor in sections:
        if report is None:
            continue
        reference = oracle.naive_core_report(predictor, data, segments, config.top_n)
        for metric, cells in reference.items():
            table = report.table(metric)
            for segment, (value, support) in cells.items():
                attempted += 1
                got, got_support = table.cells.get(segment, (None, -1))
                diff = 0.0 if value is None and got is None else (
                    abs(got - value) if None not in (got, value) else float("inf")
                )
                worst = max(worst, diff)
                if got_support != support or not diff <= TOLERANCE:
                    failures.append(
                        f"{label} {metric} {segment}: {got!r}/{got_support} vs oracle {value!r}/{support}"
                    )
    return attempted, failures, worst


def reduced_checks(workload, seed: int, work: Path) -> dict:
    path = generate(workload, seed, work / "reduced", reduced=True)
    loaded = dataset.load_dataset(path, workload.fmt, ev.R_MIN, ev.R_MAX)
    data = dataset.split(loaded.logs, workload.split_ratio, seed)
    segments = dataset.build_segment_model(data.train)
    cfg = workload.model_cfg

    if workload.model == "knn":
        fit_checks, failures = check_similarity_matrix(data.train, cfg["K"], cfg["gamma"])
    elif workload.model == "mf":
        fit_checks, failures = check_sgd_epoch(data.train, cfg["F"], seed)
    else:
        fit_checks, failures = 0, []

    model = ev.build_model(workload, data, segments, seed)
    cells, report_failures, worst = check_reports(data, segments, model)
    return {
        "attempted": fit_checks + cells,
        "failures": failures + report_failures,
        "fit_checks": fit_checks,
        "cells": cells,
        "worst": worst,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for the inputs")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    t_gen = time.monotonic()
    input_path = generate(
        workload, args.seed, work / ("input.csv" if workload.fmt == "csv" else "input")
    )
    gen_s = time.monotonic() - t_gen
    t_check = time.monotonic()
    try:
        checks = reduced_checks(workload, args.seed, work)
    except Exception as exc:  # a crash of the library fails the checks, not the benchmark
        checks = {"attempted": 1, "failures": [f"reduced checks raised {exc!r}"]}
    checks["seconds"] = time.monotonic() - t_check
    print(
        json.dumps(
            {"input": str(input_path), "sha256": input_sha256(input_path), "gen_s": gen_s, "checks": checks}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
