"""Tests of the benchmark's own code: input generators, span arithmetic and
the metric names it reports.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from tracing import LAYERS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from generators import generate, input_sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Digests of the reduced instances at seed 7. A change here changes every
# workload's input, so it needs a new baseline.
REDUCED_SHA256 = {
    "knn-catalog": "e3b92afe1d282dd621a745236d6be7bdabf2e920c7867ecbd349c77099380e77",
    "mf-heavy": "6310e1e863941580bb031cdca7b298f343526b56de79a95d62cbd426318e0be7",
    "random-netflix": "5f99db2e4ac8d85db6f36a496240643018815edd33b7bb7fadba18c509ebd4ee",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_stable(name, tmp_path):
    workload = WORKLOADS[name]
    first = input_sha256(generate(workload, 7, tmp_path / "a", reduced=True))
    again = input_sha256(generate(workload, 7, tmp_path / "b", reduced=True))
    other = input_sha256(generate(workload, 8, tmp_path / "c", reduced=True))
    assert first == again == REDUCED_SHA256[name]
    assert other != first


def test_harness_process_does_not_import_numpy():
    # Linux keeps ru_maxrss across execve, so the process that spawns the
    # evaluations must stay smaller than any of them.
    code = "import sys, run; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=run.HERE, check=True)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "bench.run", "bench", 0.0, 10.0),
        Span(1, 0, "a.f", "a", 1.0, 5.0),
        Span(2, 1, "b.g", "b", 2.0, 3.0),
        Span(3, 1, "b.h", "b", 2.5, 4.0),  # overlaps its sibling: [2, 4] counted once
        Span(4, 0, "c.k", "c", 6.0, 12.0),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 1.5, 6.0])


def _span(id, parent, name, start, end, n=None, key=None):
    return {
        "id": id, "parent": parent, "name": name, "layer": name.split(".")[0],
        "start": start, "end": end, "n": n, "key": key,
    }


def test_layer_metrics_on_a_hand_built_run():
    # One run_core over a 3-item catalog: Decide scores u1's 2 test items,
    # Discover scores the catalog for u1 and u2; each KNN call falls back
    # to the default predictor inside.
    spans = [
        _span(0, None, "bench.run", 0.0, 10.0),
        _span(1, 0, "bench.startup", 0.0, 1.0),
        _span(2, 0, "protocol.run_core", 2.0, 9.0, n=3),
        _span(3, 2, "knn.KnnPredictor.predict_many", 2.0, 3.0, n=2, key="u1"),
        _span(4, 3, "baselines.DefaultPredictor.predict_many", 2.0, 2.5, n=2),
        _span(5, 2, "metrics.comp_user", 3.0, 3.5, n=2),
        _span(6, 2, "knn.KnnPredictor.predict_many", 4.0, 5.0, n=3, key="u1"),
        _span(7, 6, "baselines.DefaultPredictor.predict_many", 4.0, 4.25, n=3),
        _span(8, 2, "knn.KnnPredictor.predict_many", 5.0, 6.0, n=3, key="u2"),
        _span(9, 8, "baselines.DefaultPredictor.predict_many", 5.0, 5.25, n=3),
    ]
    m = layer_metrics({"spans": spans, "counters": {"protocol.useful": 2 * 1 + 2}})
    assert m["trace.total_s"] == 10.0
    assert m["bench.startup_s"] == 1.0
    assert m["bench.self_s"] == pytest.approx(3.0)  # startup + the gaps outside run_core
    assert m["knn.predict_s"] == pytest.approx(2.0)  # fallback excluded
    assert m["knn.predict_calls"] == 3
    assert m["knn.scores"] == 8
    assert m["baselines.default.calls"] == 3
    assert m["baselines.default.predict_s"] == pytest.approx(1.0)
    assert m["metrics.comp_s"] == 0.5
    assert m["metrics.comp_max_n"] == 2
    assert m["protocol.core_self_s"] == pytest.approx(3.5)
    assert m["protocol.scores"] == 8
    assert m["protocol.rescored"] == 2
    assert m["protocol.useful_frac"] == pytest.approx(4 / 8)
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["trace.total_s"])
    assert m["mf.epochs"] == 0 and m["mf.epoch_s"] == 0.0


def test_wrapped_functions_nest_where_the_caller_looks_them_up():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    tracer = Tracer(t0=0.0)
    tracer.wrap(ns, "inner")
    tracer.wrap(ns, "outer")
    assert ns.outer(1) == 4
    trace = tracer.finish(t_end=tracer.spans[-1].end)
    names = [(s["name"].split(".")[-1], s["parent"]) for s in trace["spans"]]
    assert names == [("run", None), ("startup", 0), ("<lambda>", 0), ("<lambda>", 2)]


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = [_span(0, None, "bench.run", 0.0, 2.0), _span(1, 0, "bench.startup", 0.0, 1.0)]
    untraced = [{name: 1.0 for name, _ in run.END_TO_END + run.STAGES}]
    traced = [{"layers": layer_metrics({"spans": spans, "counters": {}})}]

    def declared(kind):
        return {m["name"]: m["unit"] for m in bench[kind]}

    def reported(metrics):
        return {name: unit for name, (_, unit) in metrics.items()}

    assert reported(run.end_to_end_metrics(untraced)) == declared("end_to_end")
    assert reported(run.per_layer_metrics(untraced, traced)) == declared("per_layer")
