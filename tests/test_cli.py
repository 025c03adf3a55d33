from __future__ import annotations

import argparse
import json
import warnings

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    InputError,
    Layer,
    Network,
    __version__,
    accuracy,
    forward_batch,
    load_network,
    partition,
    save_network,
    verify_affine,
)
from relu_prism import cli
from relu_prism.cli import _PARAM_KEYS, build_parser, main, parse_hidden, parse_seeds
from relu_prism.data import dataset_to_csv, read_dataset_csv
from relu_prism.partition import clusters_to_json

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
    """Bad input: exit 2, a one-line message, nothing on stdout and no output directory."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "", captured.out
    err = captured.err
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

    def test_parser_flags_match_manifest_keys(self):
        """Every flag but --out, and those folded into another key, is a manifest arg."""
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        folded = {"simulate": {"seed"}, "titanic": {"seed"}, "verify": {"no_clusters"}}
        for command, keys in _PARAM_KEYS.items():
            dests = {a.dest for a in subs.choices[command]._actions
                     if not isinstance(a, argparse._HelpAction)}
            assert dests - {"out"} - folded[command] == set(keys), command
        assert set(subs.choices) == {*_PARAM_KEYS, "rerun"}

    def test_dispatch_calls_the_bound_run_function(self, monkeypatch, tmp_path):
        """perfbench's tracer rebinds run_simulate; main must call the new binding."""
        calls = []
        monkeypatch.setattr(cli, "run_simulate", lambda params, out: calls.append(out) or 0)
        assert main(simulate_args(tmp_path / "run")) == 0
        assert calls == [tmp_path / "run"]


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

    @pytest.mark.parametrize(
        "flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--reg", "nan"), ("--reg", "inf")]
    )
    def test_non_finite_hyperparameter_exits_two(self, tmp_path, capsys, flag, value):
        """Bad input, not a divergence (exit 3) after training starts."""
        out = tmp_path / "run"
        err = assert_rejected(simulate_args(out, extra=(flag, value)), out, capsys)
        assert "finite" in err, err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tol_is_refused_before_training(self, tmp_path, capsys, value):
        out = tmp_path / "run"
        err = assert_rejected(simulate_args(out, extra=(f"--tol={value}",)), out, capsys)
        assert "--tol" in err, err

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

    def test_non_finite_manifest_number_exits_two(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            keys = [k for k, kind in _PARAM_KEYS[manifest["command"]].items()
                    if kind is cli._NUMBER]
            assert keys
            for key in keys:
                for value in (float("nan"), float("inf")):
                    args = {**manifest["args"], key: value}
                    path.write_text(json.dumps({**manifest, "args": args}))
                    capsys.readouterr()
                    err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                    assert repr(key) in err, (manifest["command"], key, err)

    def test_bad_tol_in_manifest_is_refused_before_training(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            if manifest["command"] == "verify":
                continue
            for tol in (0.0, -1.0):
                path.write_text(json.dumps({**manifest, "args": {**manifest["args"], "tol": tol}}))
                capsys.readouterr()
                err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                assert "--tol" in err, (manifest["command"], err)

    def test_manifest_of_another_version_exits_two(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            assert manifest["version"] == __version__
            for version in ("0.0.0", None):
                path.write_text(json.dumps({**manifest, "version": version}))
                capsys.readouterr()
                err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                assert repr(version) in err, err
            path.write_text(json.dumps({k: v for k, v in manifest.items() if k != "version"}))
            capsys.readouterr()
            assert "version" in assert_rejected(["rerun", str(path), "--out", str(out)],
                                                out, capsys)

    def test_manifest_with_unknown_arg_exits_two(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            args = {**manifest["args"], "learning_rate": 0.5}
            path.write_text(json.dumps({**manifest, "args": args}))
            capsys.readouterr()
            err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
            assert "'learning_rate'" in err, (manifest["command"], err)

    def test_missing_manifest_exits_two(self, tmp_path):
        assert main(["rerun", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_manifest_without_input_hashes_exits_two(self, manifests, tmp_path, capsys):
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            for hashes in (None, [], "abc"):
                doc = {k: v for k, v in manifest.items() if k != "input_hashes"}
                if hashes is not None:
                    doc["input_hashes"] = hashes
                path.write_text(json.dumps(doc))
                capsys.readouterr()
                err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                assert "input_hashes" in err, err

    def test_recorded_hash_mismatch_exits_two(self, manifests, tmp_path, capsys):
        """Every recorded hash is recomputed; a wrong, missing or extra one is refused."""
        out = tmp_path / "again"
        path = tmp_path / "manifest.json"
        for manifest in manifests:
            recorded = manifest["input_hashes"]
            for name in recorded:
                for hashes in ({**recorded, name: "0" * 64},
                               {k: v for k, v in recorded.items() if k != name}):
                    path.write_text(json.dumps({**manifest, "input_hashes": hashes}))
                    capsys.readouterr()
                    err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                    assert repr(name) in err, (manifest["command"], name, err)
            path.write_text(json.dumps({**manifest, "input_hashes": {**recorded, "extra": "0"}}))
            capsys.readouterr()
            err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
            assert "'extra'" in err, err

    @pytest.mark.parametrize("name", ["data", "net", "clusters"])
    def test_edited_verify_input_exits_two(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        assert main(simulate_args(run)) == 0
        verified = tmp_path / "verified"
        assert main(["verify", "--net", str(run / "network.json"),
                     "--data", str(run / "dataset.csv"), "--out", str(verified)]) == 0
        file = {"data": "dataset.csv", "net": "network.json", "clusters": "clusters.json"}[name]
        lines = (run / file).read_text().splitlines(keepends=True)
        if name == "data":
            # one row edited: its target flipped
            row = lines[1].rstrip("\n").split(",")
            row[-1] = "1" if row[-1] == "0" else "0"
            lines[1] = ",".join(row) + "\n"
        else:
            lines.append("\n")  # same document, other bytes
        (run / file).write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "again"
        err = assert_rejected(["rerun", str(verified / "manifest.json"), "--out", str(out)],
                              out, capsys)
        assert repr(name) in err, err

    def test_edited_titanic_csv_exits_two(self, synthetic_titanic_csv, tmp_path, capsys):
        csv_path = tmp_path / "train.csv"
        csv_path.write_bytes(synthetic_titanic_csv.read_bytes())
        run = tmp_path / "run"
        assert main(["titanic", "--csv", str(csv_path), "--epochs", "1",
                     "--out", str(run)]) == 0
        lines = csv_path.read_text().splitlines(keepends=True)
        assert lines[1].startswith("1,0,")
        lines[1] = "1,1," + lines[1][4:]  # the first passenger now survives
        csv_path.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "again"
        err = assert_rejected(["rerun", str(run / "manifest.json"), "--out", str(out)],
                              out, capsys)
        assert "'csv'" in err, err


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

    def test_bad_tol_is_refused_before_any_input_is_read(self, run_dir, tmp_path, capsys):
        (run_dir / "clusters.json").write_text("[")  # would be a schema error if parsed
        out = tmp_path / "v"
        for value in ("nan", "0", "-1"):
            capsys.readouterr()
            err = assert_rejected(
                ["verify", "--net", str(run_dir / "network.json"),
                 "--data", str(run_dir / "dataset.csv"), f"--tol={value}", "--out", str(out)],
                out, capsys,
            )
            assert "--tol" in err, err

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

    def test_undecodable_cluster_file_exits_two(self, run_dir, tmp_path, capsys):
        (run_dir / "clusters.json").write_bytes(b'[{"pattern": "\xff"}]')
        capsys.readouterr()
        out = tmp_path / "v"
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(out)],
            out, capsys,
        )
        assert "invalid cluster JSON" in err, err

    def test_network_without_hidden_layer(self, tmp_path, capsys):
        """One affine layer: every row shares the empty pattern ""."""
        rng = np.random.default_rng(3)
        net = Network((Layer(rng.normal(size=(1, 3)), rng.normal(size=1)),))
        X = rng.normal(size=(20, 3))
        dataset = Dataset(X, (X[:, 0] > 0).astype(int), ("a", "b", "c"))
        (cluster,) = partition(net, dataset)
        assert cluster.pattern.bitstring == "" and cluster.size == 20
        np.testing.assert_array_equal(cluster.affine.omega, net.layers[0].weight)
        assert verify_affine(net, X).n_patterns == 1
        save_network(net, tmp_path / "network.json")
        (tmp_path / "dataset.csv").write_text(dataset_to_csv(dataset))
        (tmp_path / "clusters.json").write_text(json.dumps(clusters_to_json([cluster])))
        out = tmp_path / "v"
        assert main(["verify", "--net", str(tmp_path / "network.json"),
                     "--data", str(tmp_path / "dataset.csv"), "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["clusters"] == {"checked": 1, "max_abs_err": 0.0, "pass": True}

    def test_overflowing_network_exits_two(self, run_dir, tmp_path, capsys):
        """Finite weights whose forward pass overflows: one named refusal, no warning."""
        net_doc = json.loads((run_dir / "network.json").read_text())
        net_doc["layers"][0]["w"][0][:2] = [1e308, 1e308]
        (run_dir / "network.json").write_text(json.dumps(net_doc))
        net = load_network(run_dir / "network.json")
        X = read_dataset_csv(run_dir / "dataset.csv").features
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.flatnonzero(~np.isfinite(forward_batch(net, X)[0][:, 0]))
        assert bad.size
        capsys.readouterr()
        out = tmp_path / "v"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = assert_rejected(
                ["verify", "--net", str(run_dir / "network.json"),
                 "--data", str(run_dir / "dataset.csv"), "--out", str(out)],
                out, capsys,
            )
        assert f"row {bad[0]} " in err, err

    def test_json_writer_refuses_non_finite_numbers(self, tmp_path):
        path = tmp_path / "doc.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="doc.json"):
                cli._write_json(path, {"max_abs_err": value})
            assert not path.exists()

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

    def test_bad_tol_is_refused_before_training(self, synthetic_titanic_csv, tmp_path, capsys):
        out = tmp_path / "run"
        err = assert_rejected(self.titanic_args(synthetic_titanic_csv, out, ("--tol", "nan")),
                              out, capsys)
        assert "--tol" in err, err

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


class TestSweepAccuracy:
    def test_per_seed_accuracy_matches_saved_files(self, tmp_path):
        """Each seed's train_accuracy is the accuracy of that seed's saved network."""
        sweep = tmp_path / "sweep"
        size = ["--n", "2000", "--epochs", "1"]
        assert main(["simulate", *size, "--seeds", "1..3", "--out", str(sweep)]) == 0
        summary = json.loads((sweep / "summary.json").read_text())
        per_seed = {run["seed"]: run["train_accuracy"] for run in summary["per_seed"]}
        assert sorted(per_seed) == [1, 2, 3]
        assert max(per_seed.values()) < 1.0
        for seed, train_accuracy in per_seed.items():
            single = tmp_path / f"seed{seed}"
            assert main(["simulate", *size, "--seed", str(seed), "--out", str(single)]) == 0
            saved = load_network(single / "network.json"), read_dataset_csv(single / "dataset.csv")
            assert train_accuracy == accuracy(*saved), seed
        saved = load_network(sweep / "network.json"), read_dataset_csv(sweep / "dataset.csv")
        assert summary["train_accuracy"] == accuracy(*saved)
