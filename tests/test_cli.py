import json

import pytest

from recbench.cli import (
    EXIT_DATASET,
    EXIT_EVALUATION,
    EXIT_MANIFEST,
    EXIT_OK,
    EXIT_TRAINING,
    main,
)
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
        lines = fixture_csv.read_text().splitlines()
        fixture_csv.write_text("\n".join(lines + lines[-2:]) + "\n")  # two duplicates
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "K": 6, "gamma": 20})
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert set(meta["stage_timings"]) == {"load", "split", "segments", "fit"}
        assert all(t >= 0.0 for t in meta["stage_timings"].values())
        assert meta["peak_rss_mb"] > 0.0
        assert meta["dropped_duplicates"] == 2
        assert {"timings", "explore_timings"} <= set(meta)
        report = (out / "report.json").read_text()
        assert "peak_rss_mb" not in report and "stage_timings" not in report

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

    @pytest.mark.parametrize("gamma", [0, -5])
    def test_gamma_below_one(self, tmp_path, fixture_csv, capsys, gamma):
        path = manifest_file(tmp_path, fixture_csv, {"name": "knn", "gamma": gamma})
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_TRAINING
        assert "gamma must be >= 1" in capsys.readouterr().err
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
