from __future__ import annotations

import json

import numpy as np
import pytest

from relu_prism import InputError
from relu_prism.cli import main, parse_hidden, parse_seeds

RUN_FILES = [
    "dataset.csv",
    "network.json",
    "history.csv",
    "clusters.json",
    "importance.csv",
    "verify.json",
    "summary.json",
    "manifest.json",
]


def simulate_args(out, n=400, epochs=3, extra=()):
    return [
        "simulate", "--n", str(n), "--epochs", str(epochs),
        "--seeds", "1..2", "--out", str(out), *extra,
    ]


def assert_rejected(argv, out, capsys):
    """Bad input: exit 2, a one-line message, and no output directory."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    return err


class TestArgParsing:
    def test_parse_seeds_forms(self):
        assert parse_seeds("3") == [3]
        assert parse_seeds("1..4") == [1, 2, 3, 4]
        assert parse_seeds("0,5,9") == [0, 5, 9]

    def test_parse_seeds_rejects_empty_range(self):
        with pytest.raises(InputError):
            parse_seeds("5..1")

    def test_parse_hidden(self):
        assert parse_hidden("4,2") == [4, 2]
        with pytest.raises(InputError):
            parse_hidden("a,b")
        with pytest.raises(InputError):
            parse_hidden(",")

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(simulate_args(out)) == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "best seed" in stdout
        assert "verify: max_abs_err" in stdout
        doc = json.loads((out / "verify.json").read_text())
        assert doc["affine"]["pass"] is True
        clusters = json.loads((out / "clusters.json").read_text())
        assert abs(sum(c["fraction"] for c in clusters) - 1.0) < 1e-9
        lines = (out / "importance.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * len(clusters)

    def test_manifest_omits_out_and_records_defaults(self, tmp_path):
        out = tmp_path / "run"
        main(simulate_args(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "out" not in manifest["args"]
        assert manifest["args"]["data_seed"] == 5
        assert manifest["args"]["seeds"] == [1, 2]
        assert manifest["args"]["hidden"] == [4, 2]
        assert "dataset" in manifest["input_hashes"]

    def test_env_var_supplies_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELU_PRISM_SEED", "7")
        out = tmp_path / "run"
        main(["simulate", "--n", "200", "--epochs", "1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["seeds"] == [7]

    def test_unparseable_seeds_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert_rejected(simulate_args(out, extra=("--seeds", "x")), out, capsys)

    def test_empty_seed_list_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert_rejected(simulate_args(out, extra=("--seeds", ",")), out, capsys)

    def test_negative_n_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert_rejected(simulate_args(out, n=-5), out, capsys)

    def test_divergent_learning_rate_exits_three(self, tmp_path, capsys):
        # Several steps per epoch so a post-step batch loss observes the blowup.
        code = main(
            ["simulate", "--n", "100", "--epochs", "1", "--seed", "1",
             "--lr", "1e300", "--batch-size", "10", "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "diverged" in capsys.readouterr().err


class TestRerun:
    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(simulate_args(first)) == 0
        assert main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0
        for name in RUN_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_verify_rerun_is_byte_identical(self, tmp_path):
        run = tmp_path / "run"
        main(simulate_args(run))
        v1, v2 = tmp_path / "v1", tmp_path / "v2"
        args = ["verify", "--net", str(run / "network.json"),
                "--data", str(run / "dataset.csv"), "--out", str(v1)]
        assert main(args) == 0
        assert main(["rerun", str(v1 / "manifest.json"), "--out", str(v2)]) == 0
        for name in ("verify.json", "manifest.json"):
            assert (v1 / name).read_bytes() == (v2 / name).read_bytes()

    def test_bad_manifest_exits_two(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"command": "unknown", "args": {}}')
        assert main(["rerun", str(path), "--out", str(tmp_path / "o")]) == 2
        path.write_text("{broken")
        assert main(["rerun", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_bad_seed_list_in_manifest_exits_two(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(simulate_args(run)) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        path = tmp_path / "manifest.json"
        out = tmp_path / "again"
        for seeds in ([], ["1"], "1..2"):
            manifest["args"]["seeds"] = seeds
            path.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)

    @pytest.fixture(scope="class")
    def manifests(self, synthetic_titanic_csv, tmp_path_factory):
        """One manifest per command: simulate, verify and titanic."""
        root = tmp_path_factory.mktemp("manifests")
        run, verified, titanic = root / "run", root / "verified", root / "titanic"
        assert main(simulate_args(run)) == 0
        assert main(["verify", "--net", str(run / "network.json"),
                     "--data", str(run / "dataset.csv"), "--out", str(verified)]) == 0
        assert main(["titanic", "--csv", str(synthetic_titanic_csv), "--epochs", "1",
                     "--out", str(titanic)]) == 0
        return [json.loads((source / "manifest.json").read_text())
                for source in (run, verified, titanic)]

    def test_manifest_missing_arg_exits_two(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        for manifest in manifests:
            for key in manifest["args"]:
                args = {k: v for k, v in manifest["args"].items() if k != key}
                path = tmp_path / "manifest.json"
                path.write_text(json.dumps({**manifest, "args": args}))
                capsys.readouterr()
                err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                assert repr(key) in err, (manifest["command"], key, err)

    def test_manifest_arg_of_wrong_type_exits_two(self, manifests, tmp_path, capsys):
        wrong = {
            "simulate": {"n": "abc", "epochs": 1.5, "lr": "0.01", "data_seed": None,
                         "batch_size": True, "hidden": [4, "2"], "normalization": "none",
                         "tol": [1e-6]},
            "verify": {"net": None, "clusters": 3, "jacobian_samples": 1.0,
                       "jacobian_step": "1e-4", "seed": "0"},
            "titanic": {"csv": 1, "test_fraction": "0", "cluster_on": "everyone",
                        "split_seed": 0.5, "hidden": []},
        }
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            for key, value in wrong[manifest["command"]].items():
                path.write_text(json.dumps({**manifest, "args": {**manifest["args"], key: value}}))
                capsys.readouterr()
                err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                assert repr(key) in err, (manifest["command"], key, err)

    def test_missing_manifest_exits_two(self, tmp_path):
        assert main(["rerun", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        main(simulate_args(out))
        return out

    def test_fresh_artifacts_pass(self, run_dir, tmp_path, capsys):
        code = main(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(tmp_path / "v")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert doc["affine"]["pass"] and doc["jacobian"]["pass"]
        assert doc["clusters"]["pass"]  # sibling clusters.json picked up
        assert "verify: pass" in capsys.readouterr().out

    def test_tampered_weight_detected(self, run_dir, tmp_path):
        net_doc = json.loads((run_dir / "network.json").read_text())
        net_doc["layers"][0]["w"][0][0] += 1.5
        (run_dir / "network.json").write_text(json.dumps(net_doc))
        code = main(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(tmp_path / "v")]
        )
        assert code == 1

    def test_structurally_corrupt_network_exits_two(self, run_dir, tmp_path, capsys):
        (run_dir / "network.json").write_text('{"layers": [')
        code = main(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(tmp_path / "v")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_tolerance_exits_nonzero(self, run_dir, tmp_path):
        for flag, value in (("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
                            ("--jacobian-tol", "nan"), ("--jacobian-tol", "inf")):
            code = main(
                ["verify", "--net", str(run_dir / "network.json"),
                 "--data", str(run_dir / "dataset.csv"),
                 flag, value, "--out", str(tmp_path / "v")]
            )
            assert code == 2, (flag, value)
            assert not (tmp_path / "v").exists()

    def test_bad_jacobian_step_exits_two(self, run_dir, tmp_path, capsys):
        # checked up front, even when no sample would use the step
        out = tmp_path / "v"
        for value in ("nan", "inf", "0", "-1e-4"):
            capsys.readouterr()
            assert_rejected(
                ["verify", "--net", str(run_dir / "network.json"),
                 "--data", str(run_dir / "dataset.csv"), "--jacobian-samples", "0",
                 f"--jacobian-step={value}", "--out", str(out)],
                out, capsys,
            )

    def test_negative_jacobian_samples_exits_two(self, run_dir, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "v"
        assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"),
             "--jacobian-samples", "-1", "--out", str(out)],
            out, capsys,
        )

    def assert_stored_map_rejected(self, run_dir, tmp_path, capsys, key, value):
        doc = json.loads((run_dir / "clusters.json").read_text())
        doc[-1][key] = value
        (run_dir / "clusters.json").write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "v"
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(out)],
            out, capsys,
        )
        assert f"cluster {len(doc) - 1} " in err, err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bias", [None]),
            ("omega", [[float("nan")] * 10]),
            ("omega", [[float("inf")] + [0.0] * 9]),
        ],
    )
    def test_non_finite_stored_map_exits_two(self, run_dir, tmp_path, capsys, key, value):
        self.assert_stored_map_rejected(run_dir, tmp_path, capsys, key, value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("omega", "abc"),
            ("omega", [[1.0, 2.0], [3.0]]),
            ("bias", {"b": 1.0}),
            ("omega", [[0.0] * 9]),
        ],
    )
    def test_malformed_stored_map_exits_two(self, run_dir, tmp_path, capsys, key, value):
        self.assert_stored_map_rejected(run_dir, tmp_path, capsys, key, value)

    def test_no_clusters_flag_skips_cross_check(self, run_dir, tmp_path):
        code = main(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"),
             "--no-clusters", "--out", str(tmp_path / "v")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert "clusters" not in doc

    def test_missing_files_exit_two(self, tmp_path):
        assert main(
            ["verify", "--net", str(tmp_path / "no.json"),
             "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path / "v")]
        ) == 2


class TestTitanic:
    def titanic_args(self, csv_path, out, extra=()):
        return ["titanic", "--csv", str(csv_path), "--epochs", "3",
                "--seeds", "1..2", "--out", str(out), *extra]

    def test_pipeline_writes_artifacts(self, synthetic_titanic_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.titanic_args(synthetic_titanic_csv, out)) == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_rows"] == 34
        assert summary["test_accuracy"] is None
        assert abs(sum(c["fraction"] for c in summary["clusters"]) - 1.0) < 1e-9
        for c in summary["clusters"]:
            assert 0.5 <= c["predicted_purity"] <= 1.0
        assert "best seed" in capsys.readouterr().out

    def test_rerun_byte_identical(self, synthetic_titanic_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self.titanic_args(synthetic_titanic_csv, a))
        assert main(["rerun", str(a / "manifest.json"), "--out", str(b)]) == 0
        for name in RUN_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_split_and_cluster_choice(self, synthetic_titanic_csv, tmp_path):
        out = tmp_path / "run"
        code = main(
            self.titanic_args(
                synthetic_titanic_csv, out,
                extra=("--test-fraction", "0.25", "--cluster-on", "test"),
            )
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["test_accuracy"] is not None
        rows = sum(json.loads((out / "clusters.json").read_text())[i]["size"]
                   for i in range(summary["n_clusters"]))
        assert rows == round(34 * 0.25)

    def test_cluster_on_test_without_split_exits_two(self, synthetic_titanic_csv, tmp_path):
        code = main(
            self.titanic_args(synthetic_titanic_csv, tmp_path / "x",
                              extra=("--cluster-on", "test"))
        )
        assert code == 2

    def test_schema_error_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare\n")
        code = main(self.titanic_args(bad, tmp_path / "run"))
        assert code == 2
        assert "Embarked" in capsys.readouterr().err

    def test_missing_csv_exits_two(self, tmp_path):
        assert main(self.titanic_args(tmp_path / "none.csv", tmp_path / "run")) == 2
