"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import oracle
from recbench.baselines import DefaultPredictor, RandomPredictor
from recbench.cli import main as cli_main
from recbench.dataset import build_segment_model, split
from recbench.knn import KnnPredictor, build_similarity_matrix
from recbench.metrics import GLOBAL, ScoredLog, aggregate_discover, comp_user
from recbench.mf import (
    ITEM_PINNED,
    USER_PINNED,
    MFPredictor,
    mf_item_similarity,
    sgd_epoch,
    train_mf,
)
from recbench.protocol import ProtocolConfig, evaluate, run_core, run_explore
from recbench.synthetic import gen_clustered, gen_planted_rank1, gen_uniform, write_csv
from test_protocol import PerfectOracle


def report_line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} {detail}")


def test_metric_oracle_equivalence():
    """RMSE, COMP (macro+micro), Precision, AMI and segment aggregation match
    a brute-force reference on 1000 seeded random fixtures within 1e-12."""
    started = time.monotonic()
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for fixture in range(1000):
        n_users = int(rng.integers(5, 31))
        n_items = int(rng.integers(5, 21))
        logs = gen_uniform(n_users, n_items, 0.4, seed=int(rng.integers(1 << 31)))
        if len(logs) < 4:
            continue
        data = split(logs, 0.75, seed=int(rng.integers(1 << 31)))
        if not data.train or not data.test:
            continue
        segments = build_segment_model(data.train)
        model = DefaultPredictor(segments)
        top_n = int(rng.integers(2, 7))
        report = run_core(model, data, segments, ProtocolConfig(top_n=top_n, explore_k=5))
        reference = oracle.naive_core_report(model, data, segments, top_n)
        for metric, cells in reference.items():
            table = report.table(metric)
            for segment, (value, support) in cells.items():
                got_value, got_support = table.cells[segment]
                assert got_support == support, (fixture, metric, segment)
                if value is None:
                    assert got_value is None, (fixture, metric, segment)
                else:
                    diff = abs(got_value - value)
                    worst = max(worst, diff)
                    assert diff < 1e-12, (fixture, metric, segment)
    elapsed = time.monotonic() - started
    report_line(
        "metric-oracle equivalence",
        elapsed < 60,
        f"(worst diff {worst:.2e}, {elapsed:.1f}s)",
    )
    assert elapsed < 60


def test_random_predictor_calibration():
    """RMSE 2.0 +- 0.02 and macro COMP 0.50 +- 0.01 on >= 1e5 uniform test logs.

    Note: with integer prediction levels and the tie rule of the pairwise
    compatibility formula (equal predictions on an unequal true pair are
    incompatible), the analytic macro COMP is 0.4 * 1 + 0.2 * 0 = 0.40,
    so the 0.50 half of this criterion cannot hold. It is asserted as
    stated and expected to fail; see the decisions ledger.
    """
    started = time.monotonic()
    rng = np.random.default_rng(5)
    model = RandomPredictor(seed=99)
    n_users, items_per_user = 2000, 50
    item_pool = [f"i{k:05d}" for k in range(400)]
    total_sq = 0.0
    n_logs = 0
    ratios = []
    for u in range(n_users):
        user = f"u{u:05d}"
        items = list(rng.choice(item_pool, size=items_per_user, replace=False))
        true = rng.integers(1, 6, size=items_per_user).astype(float)
        pred = model.predict_many(user, items)
        total_sq += float(np.sum((true - pred) ** 2))
        n_logs += items_per_user
        scored = [
            ScoredLog(user, i, t, float(p), "LuserUitem")
            for i, t, p in zip(items, true, pred)
        ]
        compatible, counted = comp_user(scored)
        if counted:
            ratios.append(compatible / counted)
    assert n_logs >= 100_000
    rmse_value = float(np.sqrt(total_sq / n_logs))
    macro_comp = float(np.mean(ratios))
    elapsed = time.monotonic() - started
    rmse_ok = abs(rmse_value - 2.0) <= 0.02
    comp_ok = abs(macro_comp - 0.50) <= 0.01
    report_line(
        "random-predictor calibration",
        rmse_ok and comp_ok and elapsed < 120,
        f"(RMSE {rmse_value:.4f}, macro COMP {macro_comp:.4f}, {elapsed:.1f}s)",
    )
    assert elapsed < 120
    assert rmse_ok, f"RMSE {rmse_value} outside 2.0 +- 0.02"
    assert comp_ok, f"macro COMP {macro_comp} outside 0.50 +- 0.01"


def test_perfect_oracle_bound():
    """A model echoing true test ratings: RMSE 0 and COMP 1.0 exactly."""
    for seed in (0, 1, 2):
        logs = gen_uniform(40, 25, 0.4, seed=seed)
        data = split(logs, 0.75, seed=seed + 10)
        segments = build_segment_model(data.train)
        model = PerfectOracle(data, segments)
        report = run_core(model, data, segments, ProtocolConfig(top_n=5, explore_k=5))
        assert report.table("RMSE").value(GLOBAL) == 0.0
        assert report.table("COMP_macro").value(GLOBAL) == 1.0
        assert report.table("COMP_micro").value(GLOBAL) == 1.0
    report_line("perfect-oracle bound", True, "(RMSE 0, COMP 1.0 exact)")


def test_ami_impact_ordering():
    """Rare relevant recommendations must dwarf popular ones under AMI."""
    n_train = 40
    catalog_size = 100
    popular_count = n_train // 2  # 0.5 * |train|
    rare_count = 1

    def ami(count, users=10):
        """AMI over users that each have one slot: rated 5.0 against a mean
        of 3.0, on an item with train count ``count``."""
        _, table, _ = aggregate_discover(
            np.arange(users), np.full(users, 3), np.full(users, 5.0), np.full(users, 3.0),
            np.full(users, count), catalog_size,
        )
        return table.value(GLOBAL)

    ami_popular = ami(popular_count)
    ami_rare = ami(rare_count)

    # Hand computation for one user: (1/|H_u|) * (1/count) * sign * |I|
    assert ami(popular_count, 1) == (1 / 1) * (1 / 20) * 1 * 100 == 5.0
    assert ami(rare_count, 1) == (1 / 1) * (1 / 1) * 1 * 100 == 100.0

    factor = ami_rare / ami_popular
    report_line("AMI impact ordering", factor >= 10, f"(factor {factor:.0f}x)")
    assert factor >= 10


def test_mf_recovery():
    """Planted rank-1 recovery, gradient correctness, pinned slots intact."""
    started = time.monotonic()
    logs = gen_planted_rank1(200, 100, 1.0, seed=77)
    data = split(logs, 0.5, seed=78)  # 50% train density
    model = train_mf(data.train, n_factors=4, seed=79, budget_seconds=60,
                     validation_fraction=0.015)
    segments = build_segment_model(data.train)
    pred = MFPredictor(model, segments)

    def dataset_rmse(part):
        by_user = {}
        for log in part:
            by_user.setdefault(log.user_id, []).append(log)
        total, n = 0.0, 0
        for user, lst in by_user.items():
            p = pred.predict_many(user, [l.item_id for l in lst])
            total += float(np.sum((np.array([l.rating for l in lst]) - p) ** 2))
            n += len(lst)
        return float(np.sqrt(total / n))

    train_rmse = dataset_rmse(data.train)
    test_rmse = dataset_rmse(data.test)

    # SGD step vs central finite differences of the regularized squared loss.
    rng = np.random.default_rng(3)
    max_rel = 0.0
    for _ in range(20):
        f = 5
        p = rng.normal(0, 0.5, (1, f))
        q = rng.normal(0, 0.5, (1, f))
        p[0, USER_PINNED] = 1.0
        q[0, ITEM_PINNED] = 1.0
        r = float(rng.uniform(1, 5))
        lr, reg = 1e-5, 0.1

        def loss(pv, qv):
            err = r - pv @ qv
            fp = np.delete(pv, USER_PINNED)
            fq = np.delete(qv, ITEM_PINNED)
            return 0.5 * err**2 + 0.5 * reg * (fp @ fp + fq @ fq)

        eps = 1e-6
        grad = np.zeros(2 * f)
        for k in range(f):
            d = np.zeros(f); d[k] = eps
            grad[k] = (loss(p[0] + d, q[0]) - loss(p[0] - d, q[0])) / (2 * eps)
            grad[f + k] = (loss(p[0], q[0] + d) - loss(p[0], q[0] - d)) / (2 * eps)
        p2, q2 = p.copy(), q.copy()
        sgd_epoch(p2, q2, np.array([0]), np.array([0]), np.array([r]), np.array([0]), lr, reg)
        step = np.concatenate([(p2[0] - p[0]) / lr, (q2[0] - q[0]) / lr])
        free = [k for k in range(f) if k != USER_PINNED] + [f + k for k in range(f) if k != ITEM_PINNED]
        rel = np.max(np.abs(step[free] + grad[free]) / np.maximum(np.abs(grad[free]), 1e-8))
        max_rel = max(max_rel, float(rel))
    grad_ok = max_rel < 1e-4

    # Pinned coordinates unchanged after every epoch of a manual short run.
    uu = np.array([0, 1, 0, 1]); ii = np.array([0, 0, 1, 1]); rr = np.array([4.0, 2.0, 3.0, 5.0])
    p = rng.uniform(-0.01, 0.01, (2, 4)); q = rng.uniform(-0.01, 0.01, (2, 4))
    p[:, USER_PINNED] = 1.0; q[:, ITEM_PINNED] = 1.0
    for _ in range(10):
        sgd_epoch(p, q, uu, ii, rr, np.arange(4), 0.03, 0.008)
        assert np.all(p[:, USER_PINNED] == 1.0)
        assert np.all(q[:, ITEM_PINNED] == 1.0)
    pinned_ok = (
        bool(np.all(model.user_factors[:, USER_PINNED] == 1.0))
        and bool(np.all(model.item_factors[:, ITEM_PINNED] == 1.0))
    )

    elapsed = time.monotonic() - started
    ok = train_rmse <= 0.30 and test_rmse <= 0.45 and grad_ok and pinned_ok and elapsed < 120
    report_line(
        "MF recovery",
        ok,
        f"(train RMSE {train_rmse:.3f}, test RMSE {test_rmse:.3f}, "
        f"grad rel err {max_rel:.1e}, {elapsed:.1f}s)",
    )
    assert train_rmse <= 0.30
    assert test_rmse <= 0.45
    assert grad_ok
    assert pinned_ok
    assert elapsed < 120


def test_knn_structure_recovery():
    """Two rating-identical item groups: in-group neighbor lists and a KNN
    RMSE below the default predictor's on the same test split."""
    logs = gen_clustered(200, 40, 2, density=0.5, seed=31)
    data = split(logs, 0.8, seed=32)
    segments = build_segment_model(data.train)
    matrix = build_similarity_matrix(data.train, k=15, gamma=20)
    group = oracle.item_group_of(40, 2)
    for item, lst in matrix.neighbors.items():
        assert lst, f"item {item} has no neighbors"
        assert all(group[n] == group[item] for n, _ in lst), item

    config = ProtocolConfig(top_n=5, explore_k=15)
    knn = KnnPredictor(matrix, segments, data.train)
    knn_rmse = run_core(knn, data, segments, config).table("RMSE").value(GLOBAL)
    default_rmse = (
        run_core(DefaultPredictor(segments), data, segments, config)
        .table("RMSE").value(GLOBAL)
    )
    ok = knn_rmse < default_rmse
    report_line(
        "KNN structure recovery",
        ok,
        f"(knn RMSE {knn_rmse:.3f} < default RMSE {default_rmse:.3f})",
    )
    assert ok


def test_explore_pipeline():
    """Native KNN Explore report equals its core report; an MF-emulated KNN
    beats a shuffled-neighbor matrix on Precision and AMI."""
    logs = gen_clustered(120, 40, 4, density=0.5, seed=21)
    data = split(logs, 0.8, seed=22)
    segments = build_segment_model(data.train)

    config = ProtocolConfig(top_n=5, explore_k=10)
    native = KnnPredictor(
        build_similarity_matrix(data.train, k=10, gamma=20), segments, data.train
    )
    core = run_core(native, data, segments, config)
    explore = run_explore(native, data, segments, config)
    identity_ok = all(
        c.cells == e.cells for c, e in zip(core.tables, explore.tables)
    )

    factors = train_mf(data.train, n_factors=6, seed=23, budget_seconds=20,
                       validation_fraction=0.05)
    emulated_matrix = mf_item_similarity(factors, 10)
    emulated = run_core(
        KnnPredictor(emulated_matrix, segments, data.train), data, segments, config
    )

    # Shuffled baseline: same per-item weights, randomly reassigned neighbors.
    rng = np.random.default_rng(24)
    items = sorted(emulated_matrix.neighbors)
    shuffled = {}
    for item, lst in emulated_matrix.neighbors.items():
        others = [j for j in items if j != item]
        picks = rng.choice(len(others), size=len(lst), replace=False)
        shuffled[item] = sorted(
            ((others[p], w) for p, w in zip(picks, (w for _, w in lst))),
            key=lambda t: (-t[1], t[0]),
        )
    shuffled_report = run_core(
        KnnPredictor(
            oracle.similarity_matrix(emulated_matrix.k, shuffled, items), segments, data.train
        ),
        data, segments, config,
    )

    precision_gap = (
        emulated.table("Precision").value(GLOBAL)
        - shuffled_report.table("Precision").value(GLOBAL)
    )
    ami_gap = emulated.table("AMI").value(GLOBAL) - shuffled_report.table("AMI").value(GLOBAL)
    ok = identity_ok and precision_gap > 0 and ami_gap > 0
    report_line(
        "Explore pipeline",
        ok,
        f"(identity {identity_ok}, precision gap {precision_gap:+.3f}, AMI gap {ami_gap:+.3f})",
    )
    assert identity_ok
    assert precision_gap > 0
    assert ami_gap > 0


def test_determinism_and_no_leakage(tmp_path):
    """Byte-identical reports across identical runs; test-set perturbation
    leaves trained models and similarity matrices bit-identical."""
    fixture = tmp_path / "ratings.csv"
    write_csv(gen_clustered(60, 16, 2, density=0.7, seed=6), fixture)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "dataset": {"path": str(fixture), "format": "csv"},
        "split": {"ratio": 0.8, "seed": 7},
        "model": {"name": "knn", "K": 8, "gamma": 20},
        "protocol": {"top_n": 5, "explore_k": 8, "exclude_seen": True},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(manifest), "-o", str(out1)]) == 0
    assert cli_main(["run", str(manifest), "-o", str(out2)]) == 0
    byte_identical = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes()
        for n in ("report.json", "core.csv", "explore.csv", "summary.txt")
    )

    logs = gen_uniform(40, 20, 0.5, seed=50)
    data = split(logs, 0.8, seed=51)
    m1 = build_similarity_matrix(data.train, k=6, gamma=10)
    m2 = build_similarity_matrix(data.train, k=6, gamma=10)  # test set irrelevant
    f1 = train_mf(data.train, n_factors=4, seed=1, budget_seconds=1e9,
                  validation_fraction=0.1, max_epochs=3)
    f2 = train_mf(data.train, n_factors=4, seed=1, budget_seconds=1e9,
                  validation_fraction=0.1, max_epochs=3)
    no_leakage = (
        m1.neighbors == m2.neighbors
        and np.array_equal(f1.user_factors, f2.user_factors)
        and np.array_equal(f1.item_factors, f2.item_factors)
    )
    ok = byte_identical and no_leakage
    report_line("determinism & no-leakage", ok)
    assert byte_identical
    assert no_leakage


REFERENCE_FIXTURES = {
    "clustered": lambda: gen_clustered(1500, 500, 5, 0.05, seed=1),
    "uniform": lambda: gen_uniform(400, 300, 0.3, seed=1),
}

# report.json sha256 of `recbench run` with the manifest defaults, by
# (fixture, model, exclude_seen). MF is left out: its dot products run
# through BLAS kernels chosen per CPU, so its last bits may differ by machine.
REFERENCE_DIGESTS = {
    ("clustered", "default", True): "7c146cc5e1c72bc432cf9826c38b931aa9be26d8efe40edd0e6a1d7f95ccaa4c",
    ("clustered", "default", False): "2c14105a956e71a195f6f6e75f44301cbcdb52724e6ad4385b8a34a17f929614",
    ("clustered", "random", True): "24eedc5cecdec4ec5ee378e62aec3c0fb1c1dfbf33ef569ad5bfb3849275f120",
    ("clustered", "random", False): "a29219e92737c3e470f835f147c709e0b24d6760fd3c6e577279c516c4d21820",
    ("clustered", "knn", True): "e992ff115bc9c2e38d97445ba186f8e66c62ae568208d2d72a5aabed62a2f169",
    ("clustered", "knn", False): "d8185c903feedb1eba50b92462d8993b6da400dff3672059b6b58737c6ffa4c6",
    ("uniform", "default", True): "64115ca2b375f312d8c90567ab195c53ee377a142ea0719bc65ef8896f83cfbc",
    ("uniform", "default", False): "fd1ddf25e4d4a91af56d64d0f4a11c38a4c26cbb1478ad96d94dff34f18b17f4",
    ("uniform", "random", True): "8d4574555702d31f0ed242825d1d1bb5d533b2c4f0c592d8ccba01746ff5cc29",
    ("uniform", "random", False): "ff43f055a672fb85964e27c371855f0803f31c4346089ae4f5a0c5d932a5a677",
    ("uniform", "knn", True): "da391684c9f203e62d72ca6dde87e28d204678e9b72ffb3f33ed9b1c974ec1f7",
    ("uniform", "knn", False): "b79812e79af933b6f478c331e110b7cf9960bcb08420c376e5dead5b31b0ddb7",
}


@pytest.mark.slow
def test_reference_report_digests(tmp_path):
    """The reference runs' report.json bytes are pinned: a change to the
    evaluation path that moves any reported number shows here."""
    for fixture, generate in REFERENCE_FIXTURES.items():
        write_csv(generate(), tmp_path / f"{fixture}.csv")
    got = {}
    for fixture, model, exclude_seen in REFERENCE_DIGESTS:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "dataset": {"path": str(tmp_path / f"{fixture}.csv"), "format": "csv"},
            "model": {"name": model},
            "protocol": {"exclude_seen": exclude_seen},
        }))
        out = tmp_path / f"{fixture}-{model}-{exclude_seen}"
        assert cli_main(["run", str(manifest), "-o", str(out)]) == 0
        got[fixture, model, exclude_seen] = hashlib.sha256(
            (out / "report.json").read_bytes()
        ).hexdigest()
    report_line("reference report digests", got == REFERENCE_DIGESTS)
    assert got == REFERENCE_DIGESTS


@pytest.mark.slow
def test_end_to_end_scale():
    """All four models through the full protocol (Explore included) on a
    5000-user x 2000-item fixture in under 10 minutes."""
    started = time.monotonic()
    logs = gen_clustered(5000, 2000, 10, density=0.012, seed=90)
    data = split(logs, 0.9, seed=91)
    segments = build_segment_model(data.train)
    config = ProtocolConfig(top_n=10, explore_k=100)

    reports = {}
    matrix = build_similarity_matrix(data.train, 100, 50)
    reports["knn"] = evaluate(KnnPredictor(matrix, segments, data.train), data, segments, config)
    factors = train_mf(data.train, n_factors=8, seed=92, budget_seconds=60,
                       validation_fraction=0.015)
    reports["mf"] = evaluate(MFPredictor(factors, segments), data, segments, config)
    reports["default"] = evaluate(DefaultPredictor(segments), data, segments, config)
    reports["random"] = evaluate(RandomPredictor(93), data, segments, config)

    elapsed = time.monotonic() - started
    assert reports["knn"].explore is not None
    assert reports["mf"].explore is not None
    assert reports["default"].explore is None
    assert reports["random"].explore is None
    for report in reports.values():
        assert report.core.table("RMSE").value(GLOBAL) is not None
    report_line("end-to-end scale", elapsed < 600, f"({elapsed:.0f}s for 4 models)")
    assert elapsed < 600
