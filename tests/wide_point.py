"""Time and memory of the KNN build, MF's fit and MF's Explore at four Netflix-shape points.

The points, each written with ``test_memory.netflix_shape`` (seed 0), split
0.9 with seed 1 and built with K = 100 and gamma = 50:

- ``1m``: 48,000 users, 1.15M draws, 1,800 items;
- ``1.8m``: 96,000 users, 2.3M draws, 1,800 items;
- ``wide``: 20,000 users, 1.15M draws, 17,770 items (Netflix's catalog);
- ``1%``: 4,800 users, 1.27M draws, 17,770 items (about 1% of Netflix's
  users at about 80% of its ratings per user).

This process writes each point's CSV, loads and splits it, and pickles
the split. A fresh process per point reads that pickle (the setup) and
builds the matrix on the train logs: it prints the build's wall time, its
peak RSS rise over the RSS after the setup, and the ``tracemalloc``
peak per train log of a second build (tracing slows a build, and this one
finds the train logs' by-user order made). So neither the CSV's
generation nor its load, whose peaks pass the build's at 1,800 items, is
in the rise. Between the two builds it scores KNN on the first matrix:
``KnnPredictor.predict_many`` over the catalog for a seeded sample of
2,000 users (all of them at fewer), and prints the wall time per user and
the column entries that a user's rated items read, on average. Another fresh process fits MF on the same pickle (F = 16,
seed 1, two epochs): it prints the slower epoch's ``sgd_epoch`` time, the
``sgd_levels`` pass per update on one epoch's order, the fit's peak RSS
rise over the setup, and two ``tracemalloc`` figures per train log: the
peak of a second fit, reached inside an epoch, and what a third fit holds
between epochs, the most traced as an epoch starts (its order included).
A third fresh process reads the split and evaluates MF as an evaluation
does up to its Explore: the same two-epoch fit, the segment model and
``run_core`` with the default ``ProtocolConfig``, whose wall time it
prints. It then runs ``run_explore`` and prints the Explore's peak
RSS rise over the RSS before it, its wall time, the extracted matrix's
entries and a sha256 of its tables' rows. Last, traced runs of the same
two calls print the ``tracemalloc`` peak of ``run_core`` in MF's core pass
and in Explore's re-run, and of the emulated KNN's init, each traced on
its own. The last line is one JSON object.

Usage, from the root of a checkout (not collected by pytest):
``python tests/wide_point.py [POINT ...]`` (the four above by default;
``tiny``, 300 users and 6,000 draws over 100 items, runs in seconds)
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# name -> (users, draws, items)
POINTS = {
    "1m": (48_000, 1_150_000, 1_800),
    "1.8m": (96_000, 2_300_000, 1_800),
    "wide": (20_000, 1_150_000, 17_770),
    "1%": (4_800, 1_270_000, 17_770),
    "tiny": (300, 6_000, 100),
}
DEFAULT = ("1m", "1.8m", "wide", "1%")
K, GAMMA = 100, 50
SCORED_USERS = 2_000


def status_mb(field: str) -> float:
    """A size from this process's /proc status (Linux): VmRSS now, or VmHWM,
    its peak. Not ``ru_maxrss``, which a child started by fork and exec
    inherits from its parent."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":")) / 1024


def traced_peak(call):
    """``call()``'s result and its ``tracemalloc`` peak, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(path: Path) -> dict:
    """The build's and KNN scoring's figures on one point's pickled split, in this process."""
    from recbench.knn import build_similarity_matrix

    train = pickle.loads(path.read_bytes()).train
    setup = status_mb("VmRSS")
    t0 = time.perf_counter()
    matrix = build_similarity_matrix(train, K, GAMMA)
    build_s = time.perf_counter() - t0
    peak = status_mb("VmHWM")
    scoring = score_knn(matrix, train)
    del matrix
    traced = traced_peak(lambda: build_similarity_matrix(train, K, GAMMA))[1]
    return {
        "train_logs": len(train),
        "items": len(train.item_ids),
        "build_s": round(build_s, 3),
        "rss_setup_mb": round(setup, 1),
        "rss_peak_mb": round(peak, 1),
        "rss_rise_mb": round(peak - setup, 1),
        "traced_bytes_per_log": round(traced / len(train), 1),
        **scoring,
    }


def score_knn(matrix, train) -> dict:
    """KNN's catalog rows for a seeded sample of users (seed 0): wall time
    per user, and the column entries their rated items read, per user."""
    import numpy as np

    from recbench.dataset import build_segment_model
    from recbench.knn import KnnPredictor

    stats = build_segment_model(train)
    model = KnnPredictor(matrix, stats, train)
    n = len(stats.users)
    users = np.random.default_rng(0).choice(n, min(SCORED_USERS, n), replace=False).tolist()
    t0 = time.perf_counter()
    for u in users:
        model.predict_many(stats.users[u], stats.items)
    score_s = time.perf_counter() - t0
    entries = sum(
        int(model.col_len[model.user_cols[model.user_ptr[u] : model.user_ptr[u + 1]]].sum())
        for u in users
    )
    return {
        "score_us_per_user": round(1e6 * score_s / len(users), 1),
        "score_entries_per_user": round(entries / len(users)),
    }


def train_mf(train):
    """MF as each process here fits it: F = 16, seed 1, two epochs."""
    from recbench import mf

    return mf.train_mf(train, n_factors=16, seed=1, max_epochs=2)


def fit(path: Path) -> dict:
    """MF's fit figures on one point's pickled split, in this process."""
    import numpy as np

    from recbench import mf

    train_logs = pickle.loads(path.read_bytes()).train
    setup = status_mb("VmRSS")
    epochs = []
    sgd_epoch = mf.sgd_epoch

    def timed_epoch(*args):
        t0 = time.perf_counter()
        levels = sgd_epoch(*args)
        epochs.append(time.perf_counter() - t0)
        return levels

    mf.sgd_epoch = timed_epoch  # train_mf looks it up on the module
    try:
        train_mf(train_logs)
    finally:
        mf.sgd_epoch = sgd_epoch
    peak = status_mb("VmHWM")
    # one epoch's order of the train logs, in their own codes as train_mf reads them
    order = np.random.default_rng(1).permutation(len(train_logs))
    users, items = train_logs.users[order], train_logs.items[order]
    del order
    t0 = time.perf_counter()
    mf.sgd_levels(users, items)
    levels_s = time.perf_counter() - t0
    del users, items
    traced = traced_peak(lambda: train_mf(train_logs))[1]
    held = []

    def held_epoch(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return sgd_epoch(*args)

    # a separate fit: the wrapper's arguments keep each epoch's order alive
    mf.sgd_epoch = held_epoch
    try:
        traced_peak(lambda: train_mf(train_logs))
    finally:
        mf.sgd_epoch = sgd_epoch
    return {
        "epoch_ms": round(1e3 * max(epochs), 1),
        "levels_ns_per_update": round(1e9 * levels_s / len(train_logs), 1),
        "rss_setup_mb": round(setup, 1),
        "rss_peak_mb": round(peak, 1),
        "rss_rise_mb": round(peak - setup, 1),
        "traced_bytes_per_log": round(traced / len(train_logs), 1),
        "traced_between_epochs_bytes_per_log": round(max(held) / len(train_logs), 1),
    }


def explore(path: Path) -> dict:
    """MF's Explore figures on one point's pickled split, in this process,
    after the fit and the core pass."""
    import hashlib

    from recbench import protocol
    from recbench.dataset import build_segment_model
    from recbench.metrics import tables_to_rows
    from recbench.mf import MFPredictor
    from recbench.protocol import ProtocolConfig, run_core, run_explore

    data = pickle.loads(path.read_bytes())
    segments = build_segment_model(data.train)
    model = MFPredictor(train_mf(data.train), segments)
    config = ProtocolConfig()
    t0 = time.perf_counter()
    run_core(model, data, segments, config)
    core_s = time.perf_counter() - t0
    setup, setup_peak = status_mb("VmRSS"), status_mb("VmHWM")
    t0 = time.perf_counter()
    report = run_explore(model, data, segments, config)
    explore_s = time.perf_counter() - t0
    peak = status_mb("VmHWM")
    rows = json.dumps(tables_to_rows(report.tables)).encode()

    traced = {"core": traced_peak(lambda: run_core(model, data, segments, config))[1]}

    def tracing(name, call):
        def traced_call(*args, **kwargs):
            result, traced[name] = traced_peak(lambda: call(*args, **kwargs))
            return result

        return traced_call

    # run_explore looks both up on the module
    knn_init = protocol.KnnPredictor
    protocol.run_core = tracing("rerun", run_core)
    protocol.KnnPredictor = tracing("init", knn_init)
    try:
        run_explore(model, data, segments, config)
    finally:
        protocol.run_core, protocol.KnnPredictor = run_core, knn_init
    return {
        "core_s": round(core_s, 2),
        "traced_core_mib": round(traced["core"] / 2**20, 1),
        "traced_rerun_mib": round(traced["rerun"] / 2**20, 1),
        "traced_init_mib": round(traced["init"] / 2**20, 1),
        "explore_s": round(explore_s, 2),
        "matrix_entries": report.matrix_counts["neighbors"],
        "rss_setup_mb": round(setup, 1),
        "rss_setup_peak_mb": round(setup_peak, 1),
        "rss_peak_mb": round(peak, 1),
        "rss_rise_mb": round(peak - setup, 1),
        "tables_sha256": hashlib.sha256(rows).hexdigest(),
    }


def child(mode: str, path: Path) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, mode, str(path)], check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(Path(argv[1]))))
        return 0
    if argv[:1] == ["--fit"]:
        print(json.dumps(fit(Path(argv[1]))))
        return 0
    if argv[:1] == ["--explore"]:
        print(json.dumps(explore(Path(argv[1]))))
        return 0
    names = argv or list(DEFAULT)
    unknown = [name for name in names if name not in POINTS]
    if unknown:
        print(f"unknown points {unknown}; choose from {list(POINTS)}", file=sys.stderr)
        return 2
    from recbench.dataset import load_dataset, split
    from test_memory import netflix_shape

    results = {}
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            n_users, draws, n_items = POINTS[name]
            path = Path(work) / f"{name}.csv"
            netflix_shape(path, n_users, draws, n_items=n_items)
            data = split(load_dataset(path).logs, 0.9, 1)
            path.unlink()
            path = path.with_suffix(".pickle")
            path.write_bytes(pickle.dumps(data))
            del data
            r = results[name] = child("--measure", path)
            print(
                f"{name}: {r['train_logs']:,} train logs, {r['items']:,} items: build "
                f"{r['build_s']:.2f} s, RSS {r['rss_setup_mb']:.0f} -> {r['rss_peak_mb']:.0f} MB "
                f"(+{r['rss_rise_mb']:.0f}), traced peak {r['traced_bytes_per_log']:.1f} B/log",
                flush=True,
            )
            print(
                f"{name}: KNN scoring: {r['score_us_per_user']:.0f} us/user over the catalog, "
                f"{r['score_entries_per_user']:,} column entries/user",
                flush=True,
            )
            m = r["mf"] = child("--fit", path)
            print(
                f"{name}: MF fit: epoch {m['epoch_ms']:.0f} ms, sgd_levels "
                f"{m['levels_ns_per_update']:.0f} ns/update, RSS {m['rss_setup_mb']:.0f} -> "
                f"{m['rss_peak_mb']:.0f} MB (+{m['rss_rise_mb']:.0f}), traced "
                f"{m['traced_between_epochs_bytes_per_log']:.1f} B/log between epochs, peak "
                f"{m['traced_bytes_per_log']:.1f} B/log inside one",
                flush=True,
            )
            e = r["mf_explore"] = child("--explore", path)
            path.unlink()
            print(
                f"{name}: MF Explore: {e['explore_s']:.2f} s, {e['matrix_entries']:,} matrix "
                f"entries, RSS {e['rss_setup_mb']:.1f} -> {e['rss_peak_mb']:.1f} MB "
                f"(+{e['rss_rise_mb']:.1f}), tables {e['tables_sha256'][:8]}",
                flush=True,
            )
            print(
                f"{name}: MF run_core {e['core_s']:.2f} s; traced peaks: run_core "
                f"{e['traced_core_mib']:.1f} MiB in the core pass, {e['traced_rerun_mib']:.1f} "
                f"MiB in Explore's re-run; emulated KNN init {e['traced_init_mib']:.1f} MiB",
                flush=True,
            )
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
