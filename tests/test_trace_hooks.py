"""The benchmark's traced run against the library.

``perfbench/tracing.py`` wraps library functions where their callers look
them up and reads attributes of their results. A refactor that renames or
removes one of them breaks ``perfbench/run.py --trace 1`` only, so this test
runs the traced evaluation of each benchmark model on its reduced input.
It runs in a subprocess, because tracing patches the library's modules and
classes for the rest of the process.
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
protocol.run_explore(model, data, segments, config)
print(json.dumps(layer_metrics(tracer.finish(time.monotonic()))))
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
    metrics = json.loads(result.stdout.splitlines()[-1])
    assert metrics["knn.predict_calls"] > 0
    if workload == "knn-catalog":
        assert metrics["knn.neighbors"] > 0
    else:
        # train_mf looks sgd_epoch up on the module, where the tracer wraps it
        assert metrics["mf.epochs"] == 5
        assert metrics["mf.updates_per_s"] > 0
