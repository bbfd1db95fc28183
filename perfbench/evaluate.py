"""One evaluation in a fresh process, the way ``recbench run`` does it.

load_dataset -> split -> build_segment_model -> model build -> run_core ->
run_explore -> write_report, through the public API. Prints one JSON line
with the stage times, peak RSS (``ru_maxrss``, and VmHWM to check it
against) and the report digest. With ``--trace`` the public functions are
wrapped first and the spans are written to that file; with ``--check`` the
full-size model is checked against the oracles after the reports are
written, outside every timed interval.

Run by ``run.py``; by hand:
``python3 perfbench/evaluate.py --workload knn-catalog --seed 1 --input IN --out OUT``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from recbench import baselines, dataset, knn, metrics, mf, protocol, reporting  # noqa: E402

from workloads import EXPLORE_K, MF_EPOCHS, R_MAX, R_MIN, TOP_N, WORKLOADS  # noqa: E402

# Far above any run here, so MF stops on the epoch cap alone and a faster
# SGD cannot buy more epochs (and a different report) inside the same fit_s.
MF_BUDGET_S = 24 * 3600.0
SAMPLE_USERS = 5
HEAVIEST_USERS = 3


def own_peak_rss_mb() -> float | None:
    """VmHWM from /proc/self/status: the peak RSS of this process's own
    memory map, which ``execve`` starts afresh. ``ru_maxrss`` also keeps the
    peak of the process image before the exec, that of the spawning harness."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def build_model(workload, data, segments, seed: int):
    cfg = workload.model_cfg
    if workload.model == "knn":
        matrix = knn.build_similarity_matrix(data.train, cfg["K"], cfg["gamma"])
        return knn.KnnPredictor(
            matrix, segments, dataset.user_ratings_index(data.train), R_MIN, R_MAX, gamma=cfg["gamma"]
        )
    if workload.model == "mf":
        model = mf.train_mf(
            data.train, n_factors=cfg["F"], seed=seed, budget_seconds=MF_BUDGET_S, max_epochs=MF_EPOCHS
        )
        return mf.MFPredictor(model, segments, R_MIN, R_MAX)
    return baselines.RandomPredictor(seed, R_MIN, R_MAX)


def protocol_config() -> protocol.ProtocolConfig:
    return protocol.ProtocolConfig(
        top_n=TOP_N, explore_k=EXPLORE_K, exclude_seen=True, r_min=R_MIN, r_max=R_MAX
    )


def full_size_checks(model, data, seed: int) -> tuple[list[str], int]:
    """Scalar ``predict`` and ``naive_comp_pairs`` against the batch paths.

    Users: the heaviest by test count plus a seeded sample of the rest. Each
    user's catalog is checked; their test list too when they have one, as
    Compare only scores users with test logs. Returns (failure messages,
    checks made); an exception fails its check and the others still run.
    """
    import numpy as np
    import oracle

    tests: dict[str, list] = {}
    for log in data.test:
        tests.setdefault(log.user_id, []).append(log)
    heaviest = sorted(tests, key=lambda u: (-len(tests[u]), u))[:HEAVIEST_USERS]
    rest = sorted(set(data.users) - set(heaviest))
    rng = np.random.default_rng(seed)
    sample = heaviest + [str(u) for u in rng.choice(rest, size=SAMPLE_USERS, replace=False)]

    def catalog_matches_scalar(user):
        batch = model.predict_many(user, data.items)
        scalar = np.array([model.predict(user, item) for item in data.items])
        worst = float(np.max(np.abs(batch - scalar)))
        return worst <= 1e-9 or f"predict_many != predict for {user}: {worst:.3g}"

    def comp_matches_naive(user):
        logs = tests[user]
        preds = model.predict_many(user, [log.item_id for log in logs])
        scored = [
            metrics.ScoredLog(user, log.item_id, log.rating, float(p), "") for log, p in zip(logs, preds)
        ]
        got = metrics.comp_user(scored)
        want = oracle.naive_comp_pairs([(s.true_rating, s.predicted_rating) for s in scored])
        return got == want or f"comp_user {got} != naive {want} for {user}"

    checks = [(catalog_matches_scalar, u) for u in sample]
    checks += [(comp_matches_naive, u) for u in sample if u in tests]
    failures = []
    for check, user in checks:
        try:
            outcome = check(user)
        except Exception as exc:  # a crash fails this check only
            outcome = f"{check.__name__}({user}) raised {exc!r}"
        if outcome is not True:
            failures.append(outcome)
    return failures, len(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, default=None, help="monotonic time the process was spawned")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer(t0)
        instrument(tracer)

    clock = time.monotonic
    t_start = clock()
    loaded = dataset.load_dataset(args.input, workload.fmt, R_MIN, R_MAX)
    data = dataset.split(loaded.logs, workload.split_ratio, args.seed)
    segments = dataset.build_segment_model(data.train)
    t_setup = clock()
    model = build_model(workload, data, segments, args.seed)
    t_fit = clock()
    config = protocol_config()
    core = protocol.run_core(model, data, segments, config)
    t_core = clock()
    explore = protocol.run_explore(model, data, segments, config)
    t_explore = clock()
    report = protocol.EvaluationReport(model.name, model.config(), config, core, explore)
    reporting.write_report(report, args.out)
    t_written = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    own_rss_mb = own_peak_rss_mb()  # read second: it can only have grown

    out = Path(args.out)
    if tracer is not None:
        tracer.counters["reporting.bytes"] = sum(f.stat().st_size for f in out.iterdir())
        Path(args.trace).write_text(json.dumps(tracer.finish(t_written)) + "\n", encoding="utf-8")

    per_user_test: dict[str, int] = {}
    for log in data.test:
        per_user_test[log.user_id] = per_user_test.get(log.user_id, 0) + 1
    result = {
        "total_s": t_written - t0,
        "setup_s": t_setup - t_start,
        "fit_s": t_fit - t_setup,
        "core_s": t_core - t_fit,
        "explore_s": t_explore - t_core,
        "write_s": t_written - t_explore,
        "peak_rss_mb": peak_rss_mb,
        "own_peak_rss_mb": own_rss_mb,
        "report_sha256": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
        "program_timings": {
            "core": core.timings,
            "explore": explore.timings if explore is not None else None,
        },
        "shape": {
            "users": len(data.users),
            "items": len(data.items),
            "train": len(data.train),
            "test": len(data.test),
            "max_user_test": max(per_user_test.values(), default=0),
        },
        "epochs": len(model.model.training_log) if workload.model == "mf" else None,
    }
    if args.check:
        failures, attempted = full_size_checks(model, data, args.seed)
        if workload.model == "mf":
            attempted += 1
            if result["epochs"] != MF_EPOCHS:
                failures.append(f"MF ran {result['epochs']} epochs, not {MF_EPOCHS}")
        result["checks"] = {"attempted": attempted, "failures": failures}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
