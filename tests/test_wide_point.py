"""``tests/wide_point.py`` on its tiny point: the script runs end to end,
in its fresh processes, and its last line is the JSON object it
documents. No time or memory figure is bounded here."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "wide_point.py"

BUILD_KEYS = {
    "train_logs",
    "items",
    "build_s",
    "rss_setup_mb",
    "rss_peak_mb",
    "rss_rise_mb",
    "traced_bytes_per_log",
    "mf",
    "mf_explore",
}
FIT_KEYS = {
    "epoch_ms",
    "levels_ns_per_update",
    "rss_setup_mb",
    "rss_peak_mb",
    "rss_rise_mb",
    "traced_bytes_per_log",
    "traced_between_epochs_bytes_per_log",
}
EXPLORE_KEYS = {
    "core_s",
    "traced_core_mib",
    "traced_rerun_mib",
    "traced_init_mib",
    "explore_s",
    "matrix_entries",
    "rss_setup_mb",
    "rss_setup_peak_mb",
    "rss_peak_mb",
    "rss_rise_mb",
    "tables_sha256",
}


def test_tiny_point_prints_its_figures():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "tiny"], check=True, capture_output=True, text=True, timeout=120
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"tiny"}
    point = result["tiny"]
    assert set(point) == BUILD_KEYS
    assert set(point["mf"]) == FIT_KEYS
    assert set(point["mf_explore"]) == EXPLORE_KEYS
    fit = point["mf"]
    # an epoch holds its schedule beside what the fit keeps between epochs
    assert 0 < fit["traced_between_epochs_bytes_per_log"] < fit["traced_bytes_per_log"]
    assert point["mf_explore"]["matrix_entries"] > 0


def test_unknown_point_exits_2():
    done = subprocess.run([sys.executable, str(SCRIPT), "huge"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown points" in done.stderr
