"""recbench benchmark: cold-start batch evaluations of one workload, checked.

Usage (from the root of a recbench checkout):

    python3 perfbench/run.py --workload knn-catalog --seed 1 --seconds 60 --trace 0

Generates the workload's input from ``--seed`` in a child process
(``prepare.py``, which also runs the reduced-instance checks), then runs
evaluations one after another (closed loop, one client), each in a fresh
process as a user of ``recbench run`` pays it, for ``--seconds``. Reports medians over the
evaluations. With ``--trace 1`` evaluations alternate between untraced and
traced processes, and the per-layer metrics come from the traced ones.

Correctness checks, each counted in ``attempted``/``failed``: every
evaluation exits cleanly; every evaluation of the run yields the same
report.json digest; every evaluation's ``ru_maxrss`` is its own (no more
than its VmHWM); on a reduced instance of the same generator every core and
Explore cell matches tests/oracle.py, and the fit stage matches pairwise
``weighted_pearson`` (KNN) or a scalar SGD epoch (MF); at full size, batch
scoring and comp_user match their scalar oracles for the heaviest and a
seeded sample of users, and MF ran exactly the pinned number of epochs.

The last line of stdout is one JSON object; the lines before it are for
people. Exits 2, printing no result, outside a recbench checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import LAYERS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_EVALS = 3
MAX_EVALS = 40
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("total_s", "s"), ("setup_s", "s"), ("core_s", "s"), ("peak_rss_mb", "MB"))
# Reported for people only: zero on random-netflix, so not gated.
STAGES = (("fit_s", "s"), ("explore_s", "s"), ("write_s", "s"))
UNITS = (
    ("extract_bytes", "computed-bytes"),
    ("reporting.bytes", "bytes"),
    ("_per_s", "1/s"),
    ("_frac", "ratio"),
    ("_s", "s"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_evaluation(workload: str, seed: int, input_path: Path, out: Path, trace: Path | None, check: bool) -> dict:
    """Run one evaluation in a fresh process; return its result, or raise RuntimeError."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "evaluate.py"), "--workload", workload, "--seed", str(seed),
        "--input", str(input_path), "--out", str(out), "--t0", repr(t0),
    ]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if check:
        cmd.append("--check")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"evaluation timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"evaluation exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace is not None:
        result["layers"] = layer_metrics(json.loads(trace.read_text(encoding="utf-8")))
    return result


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the input and run the reduced-instance checks in a child process,
    so that numpy and the data never enter this one (see workloads.py)."""
    cmd = [
        sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed),
        "--work", str(work),
    ]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"prepare.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians of the untraced evaluations, by name: (value, unit)."""
    return {name: (median([r[name] for r in untraced]), unit) for name, unit in END_TO_END}


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians of the traced evaluations' layer metrics, plus the tracing
    overhead and the stage times that are zero on some workloads."""
    layers = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    untraced_total = median([r["total_s"] for r in untraced])
    metrics["trace.overhead_s"] = (layers["trace.total_s"] - untraced_total, "s")
    for name, unit in STAGES[:2]:
        metrics[f"stage.{name}"] = (median([r[name] for r in untraced]), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recbench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "recbench").is_dir() or not (ROOT / "tests" / "oracle.py").is_file():
        print(
            f"perfbench: {ROOT} is not a recbench checkout (src/recbench and tests/oracle.py missing)",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        return run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workload, args, work: Path) -> int:
    prepared = prepare(args.workload, args.seed, work)
    input_path = Path(prepared["input"])
    reduced = prepared["checks"]
    attempted, failures = reduced["attempted"], list(reduced["failures"])

    untraced, traced = [], []
    start = time.monotonic()
    runs = 0
    while True:
        as_traced = bool(args.trace) and runs % 2 == 1
        trace_file = OUT / f"trace-{args.workload}.json" if as_traced else None
        attempted += 1
        try:
            result = run_evaluation(
                args.workload, args.seed, input_path, work / "report", trace_file, check=runs == 0
            )
        except RuntimeError as exc:
            failures.append(str(exc))
        else:
            (traced if as_traced else untraced).append(result)
            checks = result.get("checks")
            if checks:
                attempted += checks["attempted"]
                failures += checks["failures"]
            attempted += 1
            if result["own_peak_rss_mb"] is None or result["peak_rss_mb"] > result["own_peak_rss_mb"]:
                failures.append(
                    f"ru_maxrss {result['peak_rss_mb']:.1f} MB is not the evaluation's own peak "
                    f"(VmHWM {result['own_peak_rss_mb']} MB): peak_rss_mb would measure the harness"
                )
        runs += 1
        elapsed = time.monotonic() - start
        # Stop before an evaluation that would end past --seconds.
        if runs >= MAX_EVALS or (
            runs >= MIN_EVALS * (1 + args.trace) and elapsed * (runs + 1) / runs > args.seconds
        ):
            break

    done = untraced + traced
    if not untraced or (args.trace and not traced):
        print("perfbench: no evaluation completed", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    reference = done[0]["report_sha256"]
    attempted += len(done) - 1
    failures += [
        f"report.json digest {r['report_sha256']} differs from the first evaluation's {reference}"
        for r in done[1:]
        if r["report_sha256"] != reference
    ]

    shape = done[0]["shape"]
    print(f"workload {args.workload}  seed {args.seed}  model {workload.model}  format {workload.fmt}")
    print(
        f"input sha256 {prepared['sha256']}  users {shape['users']}  items {shape['items']}  "
        f"logs {shape['train'] + shape['test']} (train {shape['train']}, test {shape['test']})  "
        f"largest per-user test {shape['max_user_test']}  generated in {prepared['gen_s']:.2f} s"
    )
    print(
        f"closed loop, 1 client, fresh process per evaluation: {len(untraced)} untraced"
        + (f", {len(traced)} traced" if args.trace else "")
        + f" in {time.monotonic() - start:.1f} s; medians [min, max]"
    )
    for name, unit in END_TO_END + STAGES:
        values = [r[name] for r in untraced]
        if workload.model == "random" and name in ("fit_s", "explore_s"):
            print(f"  {name:<14}{'-':>12}     (the stage does no work for the random model)")
            continue
        print(f"  {name:<14}{median(values):>12.4f} {unit:<3} [{min(values):.4f}, {max(values):.4f}]")
    failed_frac = len(failures) / attempted
    print(f"  {'failed_frac':<14}{failed_frac:>12.4f}     ({len(failures)} of {attempted} operations)")
    if "cells" in reduced:
        print(
            f"reduced instance: {reduced['fit_checks']} fit-stage checks, {reduced['cells']} oracle "
            f"cells (worst difference {reduced['worst']:.2e}), in {reduced['seconds']:.2f} s"
        )
    if workload.model == "mf":
        print(f"MF epochs: {sorted({r['epochs'] for r in done})} (pinned to max_epochs)")
    timings = untraced[0]["program_timings"]
    print(
        f"program's own CoreReport.timings (cross-check): core {timings['core']}; explore "
        f"{timings['explore']} -- 'similarity_extraction' there is the whole Explore re-run, "
        "not the extraction"
    )
    for f in failures:
        print(f"FAILED: {f}")

    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        print("per layer (medians over traced evaluations):")
        for k, (v, unit) in metrics.items():
            print(f"  {k:<30}{v:>16.6g} {unit}")
        # Self times add up to the total within one evaluation, not across medians.
        mid = sorted(traced, key=lambda r: r["layers"]["trace.total_s"])[(len(traced) - 1) // 2]
        lm = mid["layers"]
        library = sum(lm[f"{layer}.self_s"] for layer in LAYERS if layer != "bench")
        untraced_total = median([r["total_s"] for r in untraced])
        print(
            f"accounting, traced evaluation with the median total: library layers' self "
            f"{library:.4f} s + bench {lm['bench.self_s']:.4f} s (startup {lm['bench.startup_s']:.4f} s) "
            f"= {library + lm['bench.self_s']:.4f} s of traced total {lm['trace.total_s']:.4f} s; "
            f"traced total exceeds the untraced median {untraced_total:.4f} s by "
            f"{lm['trace.total_s'] - untraced_total:.4f} s (tracing overhead plus noise)"
        )
    else:
        metrics = end_to_end_metrics(untraced)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
