"""The benchmark harness against the library.

``perfbench/tracing.py`` wraps library functions where their callers look
them up and reads attributes of their results. A refactor that renames or
removes one of them, or stops calling it, breaks ``perfbench/run.py
--trace 1`` only, so this test runs the traced evaluation of each benchmark
model on its reduced input. It runs in a subprocess, because tracing
patches the library's modules and classes for the rest of the process.
``perfbench/evaluate.py --check`` builds library records and calls the
oracles in ``tests/oracle.py``, so it is run on the same inputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TRACED_RUN = """
import json, sys, time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import evaluate as ev  # first: puts this checkout's src/ on the path
from generators import generate
from recbench import dataset, protocol
from tracing import Tracer, instrument, layer_metrics
from workloads import WORKLOADS

tracer = Tracer(time.monotonic())
instrument(tracer)
workload = WORKLOADS[sys.argv[2]]
path = generate(workload, 1, Path(sys.argv[3]) / "input.csv", reduced=True)
loaded = dataset.load_dataset(path, workload.fmt, ev.R_MIN, ev.R_MAX)
data = dataset.split(loaded.logs, workload.split_ratio, 1)
segments = dataset.build_segment_model(data.train)
model = ev.build_model(workload, data, segments, 1)
config = ev.protocol_config()
protocol.run_core(model, data, segments, config)
explore = protocol.run_explore(model, data, segments, config)
trace = tracer.finish(time.monotonic())
print(json.dumps({
    "metrics": layer_metrics(trace),
    "spans": sorted({s["name"] for s in trace["spans"]}),
    "users": len(data.users),
    "reused_core": explore.reused_core,
}))
"""


@pytest.mark.parametrize("workload", ["knn-catalog", "mf-heavy"])
def test_traced_evaluation_sees_the_library(workload, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH), workload, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout.splitlines()[-1])
    metrics = traced["metrics"]
    assert metrics["knn.predict_calls"] > 0
    assert metrics["metrics.comp_pairs"] > 0
    assert metrics["metrics.aggregate_s"] > 0
    for name in ("comp_user", "aggregate_rmse", "aggregate_comp", "aggregate_discover"):
        assert f"metrics.{name}" in traced["spans"]  # run_core still calls it
    if workload == "knn-catalog":
        assert metrics["knn.neighbors"] > 0
        # the harness's KNN reads data.train itself, so Explore is the core
        # report, and each user is scored once in all
        assert traced["reused_core"]
        assert metrics["protocol.rescored"] == 0
        assert metrics["knn.predict_calls"] == traced["users"]
    else:
        # train_mf looks sgd_epoch up on the module, where the tracer wraps it
        assert metrics["mf.epochs"] == 5
        assert metrics["mf.updates_per_s"] > 0


GENERATE = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from generators import generate
from workloads import WORKLOADS

generate(WORKLOADS[sys.argv[2]], 1, Path(sys.argv[3]), reduced=True)
"""


@pytest.mark.parametrize("workload", ["knn-catalog", "mf-heavy"])
def test_evaluate_check_passes(workload, tmp_path):
    path = tmp_path / "input.csv"
    subprocess.run(
        [sys.executable, "-c", GENERATE, str(PERFBENCH), workload, str(path)],
        check=True,
        timeout=300,
    )
    result = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "evaluate.py"), "--workload", workload, "--seed", "1",
            "--input", str(path), "--out", str(tmp_path / "out"), "--check",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    checks = json.loads(result.stdout.splitlines()[-1])["checks"]
    assert checks["attempted"] > 0 and checks["failures"] == []
