"""Serialization of evaluation reports: JSON, per-table CSV, text summaries.

The JSON report is fully deterministic; timings go into a separate
metadata file so byte-identity checks can ignore them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .dataset import SEGMENTS
from .metrics import GLOBAL, MetricTable, tables_to_rows
from .protocol import CoreReport, EvaluationReport, ProtocolConfig

CSV_COLUMNS = ("function", "metric", "segment", "value", "support")
SUMMARY_COLUMNS = ("HuserPitem", "LuserPitem", "HuserUitem", "LuserUitem", GLOBAL)

# Lower is better only for RMSE.
METRIC_DIRECTION = {
    "RMSE": "min",
    "COMP_macro": "max",
    "COMP_micro": "max",
    "Precision": "max",
    "AMI": "max",
}


def _core_payload(core: CoreReport) -> dict:
    return {
        "tables": [
            {
                "function": t.function,
                "metric": t.metric,
                "cells": {seg: {"value": v, "support": s} for seg, (v, s) in t.cells.items()},
            }
            for t in core.tables
        ],
        "ami_excluded": core.ami_excluded,
    }


def report_payload(report: EvaluationReport) -> dict:
    """Deterministic JSON-ready payload (no timings)."""
    return {
        "model": report.model_name,
        "model_config": report.model_config,
        "protocol": asdict(report.config),
        "core": _core_payload(report.core),
        "explore": _core_payload(report.explore) if report.explore else None,
    }


def metadata_payload(report: EvaluationReport, run_info: dict | None = None) -> dict:
    meta = {"timings": report.core.timings}
    if report.explore:
        meta["explore_timings"] = report.explore.timings
    meta.update(run_info or {})
    return meta


def _tables_from_payload(core: dict) -> list[MetricTable]:
    tables = []
    for t in core["tables"]:
        table = MetricTable(t["function"], t["metric"])
        table.cells = {
            seg: (cell["value"], cell["support"]) for seg, cell in t["cells"].items()
        }
        tables.append(table)
    return tables


def _write_table_csv(path: Path, tables: list[MetricTable]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for function, metric, segment, value, support in tables_to_rows(tables):
            writer.writerow(
                [function, metric, segment, "" if value is None else repr(value), support]
            )


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def render_summary(report: EvaluationReport) -> str:
    """Human-readable segment table: metric rows, segment columns."""
    lines = [f"model: {report.model_name}  config: {report.model_config}"]
    header = f"{'function/metric':<24}" + "".join(f"{c:>12}" for c in SUMMARY_COLUMNS)
    sections = [("core", report.core)]
    if report.explore is not None:
        sections.append(("explore", report.explore))
    for label, core in sections:
        lines.append(f"[{label}]")
        lines.append(header)
        for table in core.tables:
            row = f"{table.function + ' ' + table.metric:<24}"
            for col in SUMMARY_COLUMNS:
                value = table.value(col)
                if value is None and col != GLOBAL and table.metric.startswith("COMP"):
                    # COMP is segmented by user only; spread it across both
                    # item columns of that user segment.
                    value = table.value("Huser" if col.startswith("Huser") else "Luser")
                row += f"{_fmt(value):>12}"
            lines.append(row)
    if report.explore is None:
        lines.append("[explore] absent: model exposes no similarity matrix")
    return "\n".join(lines) + "\n"


def write_report(report: EvaluationReport, outdir: str | Path, run_info: dict | None = None) -> None:
    """Write report.json, metadata.json, per-section CSVs and summary.txt.

    ``run_info`` (stage times, peak RSS, input counts) goes into
    metadata.json only, beside the report's timings.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = report_payload(report)
    (outdir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (outdir / "metadata.json").write_text(
        json.dumps(metadata_payload(report, run_info), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    _write_table_csv(outdir / "core.csv", report.core.tables)
    if report.explore is not None:
        _write_table_csv(outdir / "explore.csv", report.explore.tables)
    (outdir / "summary.txt").write_text(render_summary(report), encoding="utf-8")


def load_report(path: str | Path) -> dict:
    """Load a report.json payload."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


class IncompatibleReports(Exception):
    pass


def render_compare(payloads: list[dict], names: list[str] | None = None) -> str:
    """Side-by-side comparison of report payloads with best-value marks."""
    if names is None:
        names = [p["model"] for p in payloads]
    scales = {(p["protocol"]["r_min"], p["protocol"]["r_max"]) for p in payloads}
    if len(scales) > 1:
        raise IncompatibleReports("reports use different rating scales")
    table_sets = [_tables_from_payload(p["core"]) for p in payloads]
    metrics = [(t.function, t.metric) for t in table_sets[0]]
    for tables in table_sets[1:]:
        if [(t.function, t.metric) for t in tables] != metrics:
            raise IncompatibleReports("reports carry different metric tables")

    width = max(14, max(len(n) for n in names) + 3)
    lines = [
        f"{'function/metric':<24}{'segment':<12}"
        + "".join(f"{n:>{width}}" for n in names)
    ]
    mark_winners = len(payloads) > 1
    for pos, (function, metric) in enumerate(metrics):
        direction = METRIC_DIRECTION.get(metric, "max")
        segments = list(table_sets[0][pos].cells)
        for segment in segments:
            values = [tables[pos].value(segment) for tables in table_sets]
            present = [v for v in values if v is not None]
            best = None
            if mark_winners and present:
                best = min(present) if direction == "min" else max(present)
            row = f"{function + ' ' + metric:<24}{segment:<12}"
            for v in values:
                cell = _fmt(v)
                if best is not None and v is not None and v == best:
                    cell += "*"
                row += f"{cell:>{width}}"
            lines.append(row)
    return "\n".join(lines) + "\n"
