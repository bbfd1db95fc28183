"""The report.json sha256 of the reference runs, as JSON on stdout.

The runs are each of the four models with ``exclude_seen`` on and off,
through ``recbench run`` with the manifest defaults, on two fixtures:
``gen_clustered(1500, 500, 5, 0.05, seed=1)`` and
``gen_uniform(400, 300, 0.3, seed=1)``. A change that moves no reported
number prints the same JSON as its parent. MF's digests may differ from one
machine to another (its dot products run through BLAS kernels chosen per
CPU), so compare two checkouts on one machine. ``test_reference_reports.py``
pins the other twelve.

Usage, from the root of a checkout (not collected by pytest):
``python tests/reference_reports.py``
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from recbench.cli import EXIT_OK, main  # noqa: E402
from recbench.synthetic import gen_clustered, gen_uniform, write_csv  # noqa: E402

FIXTURES = {
    "clustered": lambda: gen_clustered(1500, 500, 5, 0.05, seed=1),
    "uniform": lambda: gen_uniform(400, 300, 0.3, seed=1),
}
MODELS = ("default", "random", "knn", "mf")


def digests(work: Path, models=MODELS) -> dict[str, str]:
    """``"<fixture> <model> exclude_seen=<bool>"`` -> report.json sha256."""
    result = {}
    for fixture, generate in FIXTURES.items():
        data = work / f"{fixture}.csv"
        write_csv(generate(), data)
        for model in models:
            for exclude_seen in (True, False):
                name = f"{fixture} {model} exclude_seen={str(exclude_seen).lower()}"
                manifest = work / "manifest.json"
                manifest.write_text(json.dumps({
                    "dataset": {"path": str(data), "format": "csv"},
                    "model": {"name": model},
                    "protocol": {"exclude_seen": exclude_seen},
                }))
                out = work / name.replace(" ", "-")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["run", str(manifest), "-o", str(out)])
                if code != EXIT_OK:
                    raise SystemExit(f"{name}: recbench run exited {code}")
                result[name] = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    return result


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print(json.dumps(digests(Path(work)), indent=1))
