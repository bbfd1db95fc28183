"""Spans around the public functions of each recbench module, and the layer
metrics computed from them.

Each function is wrapped where its caller looks it up (``recbench.protocol.
comp_user``, ``recbench.mf.sgd_epoch``, ``KnnPredictor.predict_many`` on the
class), so no library file is edited. Spans stay in memory and are written
out once, after the reports.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<qualified function name>"
    layer: str
    start: float
    end: float | None = None
    n: int | None = None  # items scored, logs updated or list length, where it applies
    key: str | None = None  # user id of a predict_many call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded process, rooted at ``bench.run``.

    ``t0`` is when the process was spawned; the interval from then to now
    (interpreter start and imports) is recorded as ``bench.startup``.
    """

    def __init__(self, t0: float):
        self.spans = [
            Span(0, None, "bench.run", "bench", t0),
            Span(1, 0, "bench.startup", "bench", t0, time.monotonic()),
        ]
        self.stack = [0]
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, owner, attr: str, hook=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``hook(tracer, span, args, result)`` runs after the call, outside
        the span, to set the span's size or key and to bump counters.
        """
        fn = vars(owner)[attr]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1], name, layer, time.monotonic())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def finish(self, t_end: float) -> dict:
        self.spans[0].end = t_end
        return {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}


def _n_items(tracer, span, args, result):
    span.n = len(args[2])
    span.key = args[1]


def _default_call(tracer, span, args, result):
    span.n = len(args[2])


def _loaded(tracer, span, args, result):
    tracer.counters["dataset.logs"] += len(result.logs) + result.dropped_duplicates


def _knn_built(tracer, span, args, result):
    tracer.counters["knn.neighbors"] += sum(len(lst) for lst in result.neighbors.values())


def _epoch(tracer, span, args, result):
    span.n = len(args[5])


def _extracted(tracer, span, args, result):
    tracer.counters["mf.extract_bytes"] += len(args[0].item_ids) ** 2 * 8


def _compared(tracer, span, args, result):
    span.n = len(args[0])
    tracer.counters["metrics.comp_pairs"] += result[1]


def _core(tracer, span, args, result):
    _, data, _, config = args
    span.n = len(data.items)
    tracer.counters["protocol.useful"] += len(data.users) * config.top_n + len(data.test)


def instrument(tracer: Tracer) -> None:
    """Wrap every public function the evaluation reaches, where it is looked up."""
    from recbench import baselines, dataset, knn, mf, protocol, reporting

    for owner, attr, hook in (
        (dataset, "load_dataset", _loaded),
        (dataset, "split", None),
        (dataset, "build_segment_model", None),
        (dataset, "user_ratings_index", None),
        (protocol, "user_ratings_index", None),
        (knn, "build_similarity_matrix", _knn_built),
        (knn.KnnPredictor, "predict_many", _n_items),
        (knn.KnnPredictor, "item_similarity_matrix", None),
        (mf, "train_mf", None),
        (mf, "sgd_epoch", _epoch),
        (mf, "mf_item_similarity", _extracted),
        (mf.MFPredictor, "predict_many", _n_items),
        (mf.MFPredictor, "item_similarity_matrix", None),
        (baselines.Predictor, "item_similarity_matrix", None),
        (baselines.DefaultPredictor, "predict_many", _default_call),
        (baselines.RandomPredictor, "predict_many", _n_items),
        (protocol, "run_core", _core),
        (protocol, "run_explore", None),
        (protocol, "comp_user", _compared),
        (protocol, "aggregate_rmse", None),
        (protocol, "aggregate_comp", None),
        (protocol, "aggregate_discover", None),
        (reporting, "write_report", None),
    ):
        tracer.wrap(owner, attr, hook)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(s.duration - covered)
    return result


LAYERS = ("bench", "dataset", "knn", "mf", "baselines", "metrics", "protocol", "reporting")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced evaluation, 0 where a layer did no work."""
    spans = [Span(**s) for s in trace["spans"]]
    counters = defaultdict(float, trace["counters"])
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.id)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_of(name):
        return sum(own[i] for i in by_name[name])

    def size(name):
        return sum(spans[i].n for i in by_name[name])

    m: dict[str, float] = {"trace.total_s": spans[0].duration, "bench.startup_s": total("bench.startup")}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)

    load_s = total("dataset.load_dataset")
    m["dataset.load_s"] = load_s
    m["dataset.split_s"] = total("dataset.split")
    m["dataset.segments_s"] = total("dataset.build_segment_model")
    m["dataset.logs_per_s"] = counters["dataset.logs"] / load_s if load_s else 0.0
    m["dataset.index_s"] = total("dataset.user_ratings_index")

    m["knn.build_s"] = total("knn.build_similarity_matrix")
    m["knn.neighbors"] = counters["knn.neighbors"]
    m["knn.predict_s"] = self_of("knn.KnnPredictor.predict_many")
    m["knn.predict_calls"] = len(by_name["knn.KnnPredictor.predict_many"])
    m["knn.scores"] = size("knn.KnnPredictor.predict_many")

    epochs = [spans[i].duration for i in by_name["mf.sgd_epoch"]]
    m["mf.train_s"] = total("mf.train_mf")
    m["mf.epochs"] = len(epochs)
    m["mf.epoch_s"] = statistics.median(epochs) if epochs else 0.0
    m["mf.updates_per_s"] = size("mf.sgd_epoch") / sum(epochs) if epochs else 0.0
    m["mf.extract_s"] = total("mf.mf_item_similarity")
    m["mf.extract_bytes"] = counters["mf.extract_bytes"]
    m["mf.predict_s"] = self_of("mf.MFPredictor.predict_many")

    m["baselines.random.predict_s"] = self_of("baselines.RandomPredictor.predict_many")
    m["baselines.random.scores"] = size("baselines.RandomPredictor.predict_many")
    m["baselines.default.predict_s"] = self_of("baselines.DefaultPredictor.predict_many")
    m["baselines.default.calls"] = len(by_name["baselines.DefaultPredictor.predict_many"])

    comp = by_name["metrics.comp_user"]
    m["metrics.comp_s"] = total("metrics.comp_user")
    m["metrics.comp_pairs"] = counters["metrics.comp_pairs"]
    m["metrics.comp_max_n"] = max((spans[i].n for i in comp), default=0)
    m["metrics.aggregate_s"] = sum(
        total(f"metrics.aggregate_{part}") for part in ("rmse", "comp", "discover")
    )

    # Predictions the protocol asked for: predict_many calls made directly by
    # run_core, not the default fallback that models call inside.
    scores = 0
    rescored = 0
    for core in by_name["protocol.run_core"]:
        catalog = spans[core].n
        decide: dict[str, int] = {}
        discovered: set[str] = set()
        for s in spans:
            if s.parent == core and s.name.endswith(".predict_many"):
                scores += s.n
                # Discover scores the whole catalog; Decide a user's test
                # items, which a split never makes the whole catalog.
                if s.n == catalog:
                    discovered.add(s.key)
                else:
                    decide[s.key] = s.n
        rescored += sum(n for user, n in decide.items() if user in discovered)
    extract = [
        s
        for s in spans
        if s.name.endswith(".item_similarity_matrix")
        and s.parent is not None
        and spans[s.parent].name == "protocol.run_explore"
    ]
    m["protocol.core_self_s"] = self_of("protocol.run_core")
    m["protocol.scores"] = scores
    m["protocol.useful_frac"] = counters["protocol.useful"] / scores if scores else 0.0
    m["protocol.rescored"] = rescored
    m["protocol.extract_s"] = sum(s.duration for s in extract)
    m["protocol.rerun_s"] = total("protocol.run_explore") - m["protocol.extract_s"]

    m["reporting.write_s"] = total("reporting.write_report")
    m["reporting.bytes"] = counters["reporting.bytes"]
    return m
