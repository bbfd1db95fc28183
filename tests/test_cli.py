import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import recbench
from recbench import cli
from recbench.baselines import DefaultPredictor
from recbench.cli import (
    EXIT_DATASET,
    EXIT_EVALUATION,
    EXIT_MANIFEST,
    EXIT_OK,
    EXIT_TRAINING,
    main,
)
from recbench.dataset import RatingLog, split
from recbench.synthetic import gen_clustered, write_csv


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    write_csv(gen_clustered(60, 16, 2, density=0.7, seed=6), path)
    return path


def manifest_file(tmp_path, fixture_csv, model, name="manifest.json", **extra):
    manifest = {
        "dataset": {"path": str(fixture_csv), "format": "csv"},
        "split": {"ratio": 0.8, "seed": 7},
        "model": model,
        "protocol": {"top_n": 5, "explore_k": 8, "exclude_seen": True},
        **extra,
    }
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return path


# ratings at the float limit, whose RMSE overflows
FLOAT_LIMIT_CSV = "".join(f"u{n % 7},i{n % 5},{(-1) ** n * 1e308}\n" for n in range(35))


class TestRun:
    def test_default_model_explore_absent(self, tmp_path, fixture_csv, capsys):
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["explore"] is None
        assert {t["metric"] for t in payload["core"]["tables"]} == {
            "RMSE", "COMP_macro", "COMP_micro", "Precision", "AMI",
        }
        assert (out / "core.csv").exists()
        assert not (out / "explore.csv").exists()
        assert "[explore] absent" in capsys.readouterr().out

    def test_knn_explore_equals_core(self, tmp_path, fixture_csv):
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "K": 8, "gamma": 20})
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["explore"] == payload["core"]

    def test_metadata_explains_the_run(self, tmp_path, fixture_csv):
        header, *lines = fixture_csv.read_text().splitlines()
        # the split sends a log to test by its position alone: put the only
        # rating of a cold user and of two cold items at the first three test positions
        probe = [RatingLog(str(n), "i", 1.0) for n in range(len(lines) + 3)]
        probe = split(oracle.as_ratings(probe), 0.8, 7)
        first, second, third = sorted(int(log.user_id) for log in probe.test)[:3]
        lines.insert(first, "cold-user,i00000,3.0")
        lines.insert(second, "u00000,cold-item,4.0")
        lines.insert(third, "u00001,other-cold-item,2.0")
        lines += lines[-2:]  # two duplicates, dropped before the split
        fixture_csv.write_text("\n".join([header, *lines]) + "\n")
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "K": 6, "gamma": 20})
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert set(meta["stage_timings"]) == {"load", "split", "segments", "fit"}
        assert all(t >= 0.0 for t in meta["stage_timings"].values())
        assert meta["peak_rss_mb"] > 0.0
        assert meta["dropped_duplicates"] == 2
        assert meta["cold_test_logs"] == {"user": 1, "item": 2}
        assert {"timings", "explore_timings"} <= set(meta)
        assert {"score", "rank", "decide", "compare", "discover"} <= set(meta["timings"])
        report = (out / "report.json").read_text()
        assert "peak_rss_mb" not in report and "timings" not in report
        assert "cold_test_logs" not in report

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
    def test_peak_rss_is_the_runs_own(self, tmp_path, fixture_csv):
        """A run spawned by a process that has written 256 MiB reports its
        own peak: Linux keeps ``ru_maxrss`` across ``execve``, so the run
        would report its spawner's."""
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        out = tmp_path / "out"
        run = "import sys; from recbench.cli import main; sys.exit(main(sys.argv[1:]))"
        spawner = (
            "import subprocess, sys\n"
            "held = b'x' * 2**28\n"
            f"subprocess.run([sys.executable, '-c', {run!r}, 'run', *sys.argv[1:]], check=True)\n"
        )
        paths = [str(Path(recbench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        subprocess.run(
            [sys.executable, "-c", spawner, str(path), "-o", str(out)],
            env=env, capture_output=True, check=True, timeout=120,
        )
        meta = json.loads((out / "metadata.json").read_text())
        assert 0.0 < meta["peak_rss_mb"] < 256, meta["peak_rss_mb"]

    @pytest.mark.parametrize(
        "model, reused",
        [
            ({"name": "knn", "K": 8, "gamma": 20}, True),  # K = explore_k
            ({"name": "knn", "K": 5, "gamma": 20}, True),
            ({"name": "knn", "K": 9, "gamma": 20}, False),
            ({"name": "mf", "F": 4, "budget_seconds": 5, "validation_fraction": 0.1}, False),
            ({"name": "default"}, None),  # no Explore
        ],
    )
    def test_metadata_says_whether_explore_reused_core(self, tmp_path, fixture_csv, model, reused):
        path = manifest_file(tmp_path, fixture_csv, model)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert meta.get("explore_reused_core") is reused
        if reused is not None:
            assert ({"score", "rank"} <= set(meta["explore_timings"])) is not reused
        assert "reused" not in (out / "report.json").read_text()

    @pytest.mark.parametrize(
        "model, k",
        [
            ({"name": "knn", "K": 5, "gamma": 20}, 5),  # reused: the KNN's own K
            ({"name": "knn", "K": 9, "gamma": 20}, 8),  # truncated to explore_k
            ({"name": "mf", "F": 4, "budget_seconds": 5, "validation_fraction": 0.1}, 8),
        ],
    )
    def test_metadata_describes_the_explore_matrix(self, tmp_path, fixture_csv, model, k):
        path = manifest_file(tmp_path, fixture_csv, model)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        counts = json.loads((out / "metadata.json").read_text())["explore_matrix"]
        assert set(counts) == {"k", "items", "neighbors", "items_short_of_k"}
        assert counts["k"] == k
        assert 0 < counts["items"] <= len(fixture_csv.read_text().splitlines())
        short = counts["items_short_of_k"]
        assert 0 <= short <= counts["items"]
        # each full row holds k, each short row fewer
        assert (counts["items"] - short) * k <= counts["neighbors"] <= counts["items"] * k - short
        report = (out / "report.json").read_text()
        for key in ("explore_matrix", "items_short_of_k", "neighbors"):
            assert key not in report

    def test_rerun_byte_identical(self, tmp_path, fixture_csv):
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "K": 6, "gamma": 20})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "-o", str(out1)]) == EXIT_OK
        assert main(["run", str(path), "-o", str(out2)]) == EXIT_OK
        for name in ("report.json", "core.csv", "explore.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_mf_run(self, tmp_path, fixture_csv):
        path = manifest_file(
            tmp_path,
            fixture_csv,
            {"name": "mf", "F": 4, "budget_seconds": 5, "validation_fraction": 0.1},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["explore"] is not None

    def test_mf_training_log_in_metadata_only(self, tmp_path, fixture_csv):
        path = manifest_file(
            tmp_path,
            fixture_csv,
            {"name": "mf", "F": 4, "budget_seconds": 60, "validation_fraction": 0.1},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        log = json.loads((out / "metadata.json").read_text())["training_log"]
        assert [e["epoch"] for e in log] == list(range(len(log)))
        assert all(set(e) == {"epoch", "val_rmse", "elapsed", "levels"} for e in log)
        # one entry per epoch run, up to the third increase in a row that stopped it
        rmse = [e["val_rmse"] for e in log]
        assert len(rmse) >= 4 and all(a < b for a, b in zip(rmse[-4:], rmse[-3:]))
        assert "training_log" not in (out / "report.json").read_text()

    def test_mf_defaults_are_train_mfs(self, tmp_path, fixture_csv):
        spelled = {
            "F": 16,
            "budget_seconds": 90 * 60,
            "validation_fraction": 0.015,
            "learning_rate": 0.030,
            "regularization": 0.008,
        }
        reports = []
        for n, model in enumerate([{"name": "mf"}, {"name": "mf", **spelled}]):
            path = manifest_file(tmp_path, fixture_csv, model, name=f"m{n}.json")
            assert main(["run", str(path), "-o", str(tmp_path / str(n))]) == EXIT_OK
            reports.append((tmp_path / str(n) / "report.json").read_bytes())
        assert reports[0] == reports[1]
        config = json.loads(reports[0])["model_config"]
        assert config == {"F": 16, "learning_rate": 0.03, "regularization": 0.008, "seed": 7}

    def test_output_dir_env(self, tmp_path, fixture_csv, monkeypatch):
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        monkeypatch.setenv("RECBENCH_OUTPUT_DIR", str(tmp_path / "env-out"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        assert (tmp_path / "env-out" / "report.json").exists()

    def test_seed_override_changes_split(self, tmp_path, fixture_csv):
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "-o", str(out1)]) == EXIT_OK
        assert main(["--seed", "99", "run", str(path), "-o", str(out2)]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "random", "seed": 3},
            {"name": "mf", "seed": 3, "F": 4, "budget_seconds": 5, "validation_fraction": 0.1},
        ],
    )
    def test_seed_override_replaces_model_seed(self, tmp_path, fixture_csv, model):
        path = manifest_file(tmp_path, fixture_csv, model)
        out = tmp_path / "out"
        assert main(["--seed", "99", "run", str(path), "-o", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["model_config"]["seed"] == 99


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_MANIFEST

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_MANIFEST

    def test_unknown_model(self, tmp_path, fixture_csv):
        path = manifest_file(tmp_path, fixture_csv, {"name": "oracle9000"})
        assert main(["run", str(path)]) == EXIT_MANIFEST

    def test_missing_dataset_path(self, tmp_path):
        manifest = {"dataset": {"path": str(tmp_path / "absent.csv")}, "model": {"name": "default"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", str(path)]) == EXIT_MANIFEST

    def test_dataset_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,i1,17\n")
        manifest = {"dataset": {"path": str(bad)}, "model": {"name": "default"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_DATASET

    @pytest.mark.parametrize(
        "fmt, content, message",
        [
            ("csv", b"u1,i1,4\nu2,i\xff,3\n", "bad.txt:2: byte 0xff is not UTF-8"),
            ("netflix", b"1:\n5,3\n2:\n7\xff,2\n", "bad.txt:4: byte 0xff is not UTF-8"),
            (
                "csv",
                b"u1,i1,4\nu2," + b"x" * 140_000 + b",3\n",
                "bad.txt:2: field larger than field limit",
            ),
        ],
        ids=["csv-not-utf8", "netflix-not-utf8", "csv-long-field"],
    )
    def test_unreadable_bytes(self, tmp_path, capsys, fmt, content, message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        manifest = {"dataset": {"path": str(bad), "format": fmt}, "model": {"name": "default"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out / "sub")]) == EXIT_DATASET
        err = capsys.readouterr().err
        assert err.startswith("dataset error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_output_dirs_removed_when_the_run_raises(self, tmp_path, fixture_csv, monkeypatch):
        def broken(*args):
            raise RuntimeError("broken run")

        monkeypatch.setattr(cli, "_run", broken)
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        with pytest.raises(RuntimeError, match="broken run"):
            main(["run", str(path), "-o", str(tmp_path / "out" / "sub")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("protocol.top_n", "10"),
            ("protocol.top_n", True),
            ("protocol.top_n", 2.5),
            ("protocol.top_n", 0),
            ("protocol.explore_k", True),
            ("protocol.exclude_seen", "no"),
            ("protocol", [5]),
            ("split.ratio", "0.9"),
            ("split.ratio", 1.0),
            ("split.seed", "x"),
            ("split", "0.9"),
            ("rating_scale", "x"),
            ("rating_scale", [5, 1]),
            ("rating_scale", [1, "5"]),
            ("rating_scale", [1, 3, 5]),
            ("model.K", "ten"),
            ("model.gamma", None),
            ("model.F", "16"),
            ("model.seed", False),
            ("model.budget_seconds", "5"),
            ("model.validation_fraction", [0.1]),
            ("model.learning_rate", "fast"),
            ("model.regularization", {}),
            ("dataset.path", 5),
            ("dataset.format", "parquet"),
            ("dataset.format", 5),
            ("dataset.format", None),
            ("model.bogus", 1),
        ],
    )
    def test_mistyped_manifest_field(self, tmp_path, fixture_csv, capsys, field, value):
        manifest = json.loads(manifest_file(tmp_path, fixture_csv, {"name": "knn"}).read_text())
        *parents, key = field.split(".")
        section = manifest
        for name in parents:
            section = section[name]
        section[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        assert err.startswith("manifest error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model, key, value",
        [
            ("knn", "K", 2.5),
            ("knn", "K", 1e300),
            ("knn", "gamma", 50.0),
            ("mf", "F", 1e12),
            ("mf", "seed", -1),
            ("random", "seed", -1),
            ("random", "seed", 7.0),
        ],
    )
    def test_model_key_not_an_integer(self, tmp_path, fixture_csv, capsys, model, key, value):
        path = manifest_file(tmp_path, fixture_csv, {"name": model, key: value})
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        assert err.startswith(f"manifest error: model.{key} must be an integer")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key",
        [
            ("protocol", "top_N"),
            ("split", "sead"),
            ("dataset", "fromat"),
            ("model", "bogus"),
            (None, "protocl"),
        ],
    )
    def test_unknown_key(self, tmp_path, fixture_csv, capsys, section, key):
        manifest = json.loads(manifest_file(tmp_path, fixture_csv, {"name": "knn"}).read_text())
        (manifest if section is None else manifest[section])[key] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        what = "manifest" if section is None else section
        assert err == f"manifest error: unknown {what} key {key!r}\n"
        assert not (tmp_path / "out").exists()

    def test_random_on_a_scale_without_an_integer(self, tmp_path, capsys):
        data = tmp_path / "ratings.csv"
        data.write_text("".join(f"u{n % 7},i{n % 5},0.35\n" for n in range(35)))
        path = manifest_file(tmp_path, data, {"name": "random"}, rating_scale=[0.3, 0.4])
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err == "training error: no integer rating level in [0.3, 0.4]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model, key, value",
        [("mf", "F", 10**12), ("knn", "K", 10**300)],
    )
    def test_integer_too_large_to_fit(self, tmp_path, fixture_csv, capsys, model, key, value):
        # an integer passes the manifest; the fit cannot allocate or index it
        # (F = 10**12 asks for 437 TiB, more than a process can map)
        path = manifest_file(tmp_path, fixture_csv, {"name": model, key: value})
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.startswith("training error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_in_manifest(self, tmp_path, fixture_csv):
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("output", ["report.json", "report.json/sub"])
    def test_unusable_output_dir(self, tmp_path, fixture_csv, capsys, output):
        (tmp_path / "report.json").write_text("{}")
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / output)]) == EXIT_MANIFEST
        captured = capsys.readouterr()
        assert captured.err.startswith("manifest error: cannot create output directory")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("gamma", [0, -5])
    def test_gamma_below_one(self, tmp_path, fixture_csv, capsys, gamma):
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "gamma": gamma})
        # the run makes both directories first, and takes both away on failure
        assert main(["run", str(path), "-o", str(tmp_path / "out" / "sub")]) == EXIT_TRAINING
        assert "gamma must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"learning_rate": 0}, "learning_rate must be > 0"),
            ({"learning_rate": -0.5}, "learning_rate must be > 0"),
            ({"regularization": -0.1}, "regularization must be >= 0"),
            ({"learning_rate": 50}, "SGD diverged at epoch 0"),
        ],
    )
    def test_unusable_mf_step(self, tmp_path, fixture_csv, capsys, setting, message):
        model = {"name": "mf", "F": 4, "budget_seconds": 5, "validation_fraction": 0.1, **setting}
        path = manifest_file(tmp_path, fixture_csv, model)
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.startswith("training error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["default", "knn"])
    def test_ratings_at_the_float_limit_are_an_evaluation_error(self, tmp_path, capsys, model):
        # exit 5, not "Infinity" in report.json
        data = tmp_path / "ratings.csv"
        data.write_text(FLOAT_LIMIT_CSV)
        path = manifest_file(tmp_path, data, {"name": model}, rating_scale=[-1e308, 1e308])
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_EVALUATION
        err = capsys.readouterr().err
        assert err.startswith("evaluation error:") and "Traceback" not in err
        assert "Decide RMSE cell Global is inf, not a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_nan_prediction_is_an_evaluation_error(self, tmp_path, fixture_csv, capsys, monkeypatch):
        class NanForOne(DefaultPredictor):
            def predict_many(self, user_id, item_ids):
                scores = super().predict_many(user_id, item_ids)
                return scores * np.nan if user_id == self.nan_user else scores

        models = []

        def build_model(name, manifest, data, segments, r_min, r_max):
            model = NanForOne(segments, r_min, r_max)
            model.nan_user = data.users[int(data.test.users[0])]
            models.append(model)
            return model

        monkeypatch.setattr(cli, "build_model", build_model)
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        capsys.readouterr()
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_EVALUATION
        err = capsys.readouterr().err
        assert err == f"evaluation error: model 'default' predicted NaN for user {models[0].nan_user!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_override(self, tmp_path, fixture_csv, seed):
        path = manifest_file(tmp_path, fixture_csv, {"name": "default"})
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, "run", str(path), "-o", str(tmp_path / "out")])
        assert exc.value.code == EXIT_MANIFEST


class TestCompare:
    def run_model(self, tmp_path, fixture_csv, model, out):
        path = manifest_file(tmp_path, fixture_csv, model, name=f"{out}.json")
        assert main(["run", str(path), "-o", str(tmp_path / out)]) == EXIT_OK
        return tmp_path / out / "report.json"

    def test_side_by_side_with_winners(self, tmp_path, fixture_csv, capsys):
        knn = self.run_model(tmp_path, fixture_csv, {"name": "knn", "K": 8, "gamma": 20}, "knn")
        default = self.run_model(tmp_path, fixture_csv, {"name": "default"}, "default")
        capsys.readouterr()
        assert main(["compare", str(knn), str(default)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "knn" in out and "default" in out
        assert "*" in out
        # KNN dominates RMSE on the clustered fixture: its global RMSE wins.
        rmse_global = [l for l in out.splitlines() if l.startswith("Decide RMSE") and "Global" in l][0]
        knn_cell = rmse_global.split()[-2]
        assert knn_cell.endswith("*")

    def test_single_report_no_winner_marks(self, tmp_path, fixture_csv, capsys):
        knn = self.run_model(tmp_path, fixture_csv, {"name": "knn", "K": 8, "gamma": 20}, "knn")
        capsys.readouterr()
        assert main(["compare", str(knn)]) == EXIT_OK
        assert "*" not in capsys.readouterr().out

    def test_different_scales_rejected(self, tmp_path, fixture_csv):
        a = self.run_model(tmp_path, fixture_csv, {"name": "default"}, "a")
        b_path = manifest_file(
            tmp_path, fixture_csv, {"name": "default"}, name="b.json",
            rating_scale=[1.0, 10.0],
        )
        assert main(["run", str(b_path), "-o", str(tmp_path / "b")]) == EXIT_OK
        assert main(["compare", str(a), str(tmp_path / "b" / "report.json")]) == EXIT_EVALUATION

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"a": 1},
            {"model": "x", "protocol": {"r_min": 1, "r_max": 5}, "core": {"tables": [1]}},
        ],
    )
    def test_non_report_json_rejected(self, tmp_path, capsys, payload):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(payload))
        assert main(["compare", str(path)]) == EXIT_EVALUATION
        err = capsys.readouterr().err
        assert err.startswith("cannot load report:") and "Traceback" not in err


    @pytest.mark.parametrize(
        "field, bad",
        [
            ("value", "high"),
            ("value", True),
            ("support", "12"),
            ("support", -1),
            ("support", 2.0),
            ("function", 3),
            ("metric", None),
        ],
    )
    def test_mistyped_cell_rejected(self, tmp_path, fixture_csv, capsys, field, bad):
        report = self.run_model(tmp_path, fixture_csv, {"name": "default"}, "default")
        payload = json.loads(report.read_text())
        table = payload["core"]["tables"][0]
        if field in ("function", "metric"):
            table[field] = bad
        else:
            table["cells"]["Global"][field] = bad
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", str(report)]) == EXIT_EVALUATION
        err = capsys.readouterr().err
        assert err.startswith("cannot load report:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, bad",
        [("r_min", [1]), ("r_max", {"a": 5}), ("r_min", "1"), ("r_max", None), ("r_min", True)],
    )
    def test_non_numeric_scale_rejected(self, tmp_path, fixture_csv, capsys, field, bad):
        report = self.run_model(tmp_path, fixture_csv, {"name": "default"}, "default")
        payload = json.loads(report.read_text())
        payload["protocol"][field] = bad
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", str(report), str(report)]) == EXIT_EVALUATION
        err = capsys.readouterr().err
        assert err.startswith("cannot load report:") and "Traceback" not in err


def test_import_loads_no_scipy():
    """scipy is a test dependency only: the package must not import it."""
    code = (
        "import sys, recbench, recbench.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('numpy.random' in sys.modules)"
    )
    path = [str(Path(recbench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == ["[]", "True"]


class TestGenFixture:
    def test_generates_loadable_csv(self, tmp_path):
        out = tmp_path / "fix.csv"
        assert main(["gen-fixture", "clustered", str(out), "--users", "20",
                     "--items", "10", "--density", "0.5", "--groups", "2"]) == EXIT_OK
        from recbench.dataset import load_dataset

        result = load_dataset(out)
        assert result.logs and result.dropped_duplicates == 0

    def test_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "5", "gen-fixture", "uniform", str(a)]) == EXIT_OK
        assert main(["--seed", "5", "gen-fixture", "uniform", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, parent):
        (tmp_path / "a-file").write_text("")
        out = tmp_path / parent / "fix.csv"
        assert main(["gen-fixture", "uniform", str(out)]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--users", "-1"),
            ("--users", "0"),
            ("--items", "0"),
            ("--groups", "0"),
            ("--groups", "-3"),
            ("--users", "2.5"),
            ("--density", "0"),
            ("--density", "-0.1"),
            ("--density", "1.5"),
            ("--density", "nan"),
            ("--density", "dense"),
        ],
    )
    def test_bad_argument_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fix.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen-fixture", "clustered", str(out), flag, value])
        assert exc.value.code == EXIT_MANIFEST
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


# CSV lines: well-formed, quoted, with NUL, blank, of 2 or 5 fields, a header
# anywhere, huge, tiny and non-finite floats, and random bytes
CSV_LINES = st.one_of(
    st.builds("u{},i{},{}".format, st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)).map(
        str.encode
    ),
    st.sampled_from(
        [
            '"u1",i1,3',
            '"u,1",i2,4',
            '"unclosed,i1,3',
            "u1\x00,i1,3",
            "",
            "u1,i1",
            "u1,i1,3,4,5",
            "user_id,item_id,rating",
            "u1,i1,1e308",
            "u1,i1,1e-320",
            "u1,i1,inf",
            "u1,i1,nan",
            "u1,i1,-0",
            "u1,i1,3,99999999999999999999999",
        ]
    ).map(str.encode),
    st.binary(max_size=12),
)
# Netflix files: an item block, empty, binary or stray text
NETFLIX_FILES = st.one_of(
    st.builds(
        "{}:\n{},{},2005-01-01\n".format, st.integers(1, 4), st.integers(1, 9), st.integers(1, 5)
    ),
    st.sampled_from(["", "README: not ratings\n", "7,3\n", "1:\nx,y\n"]),
).map(str.encode) | st.binary(max_size=12)
# each key of a manifest, and values of the wrong type (or range) for some key
MANIFEST_KEYS = [
    ("dataset",),
    ("dataset", "path"),
    ("dataset", "format"),
    ("model",),
    ("model", "name"),
    *(("model", key) for key in cli.MODEL_INT_KEYS + cli.MODEL_NUMBER_KEYS),
    ("split",),
    ("split", "ratio"),
    ("split", "seed"),
    ("rating_scale",),
    ("protocol",),
    ("protocol", "top_n"),
    ("protocol", "explore_k"),
    ("protocol", "exclude_seen"),
    ("output_dir",),
]
WRONG_VALUES = [None, True, "5", [1, 5], {}, 2.5, -1, 0, 1e300]


@st.composite
def run_inputs(draw):
    """(dataset format, the dataset's files by name, a manifest)."""
    if draw(st.booleans()):
        fmt = "csv"
        lines = draw(st.lists(CSV_LINES, max_size=30))
        ends = st.sampled_from([b"\n", b"\r\n"])
        ends = draw(st.lists(ends, min_size=len(lines), max_size=len(lines)))
        files = {"data": b"".join(line + end for line, end in zip(lines, ends))}
    else:
        fmt = "netflix"
        contents = draw(st.lists(NETFLIX_FILES, max_size=5))
        files = {f"data/mv_{n}.txt": content for n, content in enumerate(contents)}
        files["data/stray.bin"] = draw(st.binary(max_size=8))
    manifest = {
        "dataset": {"path": "data", "format": fmt},
        "model": {"name": draw(st.sampled_from(["default", "random", "knn"])), "K": 3},
        "split": {"ratio": 0.7, "seed": 1},
        "rating_scale": draw(st.sampled_from([[1, 5], [-1e308, 1e308], [0.5, 5.5]])),
        "protocol": {"top_n": 3, "explore_k": 4, "exclude_seen": True},
        "output_dir": "out/sub",
    }
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(MANIFEST_KEYS))
        section = manifest
        for name in parents:
            section = section[name]
        section[key] = draw(st.sampled_from(WRONG_VALUES))
    return files, manifest


FLOAT_LIMIT_RUN = (
    {"data": FLOAT_LIMIT_CSV.encode()},
    {
        "dataset": {"path": "data", "format": "csv"},
        "model": {"name": "default"},
        "split": {"ratio": 0.7, "seed": 1},
        "rating_scale": [-1e308, 1e308],
        "output_dir": "out/sub",
    },
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_inputs())
@example(FLOAT_LIMIT_RUN)
def test_generated_inputs_end_in_a_documented_exit(inputs):
    """Bad input ends with a documented exit code, never a traceback, and a
    failed run leaves no directory it made; a report written is strict JSON."""
    files, manifest = inputs
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        for name, content in files.items():
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_bytes(content)
        Path("manifest.json").write_text(json.dumps(manifest))
        before = sorted(Path().rglob("*"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "manifest.json"])
        assert code in (EXIT_OK, EXIT_MANIFEST, EXIT_DATASET, EXIT_TRAINING, EXIT_EVALUATION)
        assert "Traceback" not in err.getvalue()
        if code != EXIT_OK:
            assert sorted(Path().rglob("*")) == before, err.getvalue()
        for report in Path().rglob("report.json"):  # strict JSON: no NaN or Infinity
            json.loads(report.read_text(), parse_constant=refuse_constant)


def refuse_constant(name):
    raise ValueError(f"report.json holds {name}")
