from __future__ import annotations

import argparse
import builtins
import csv
import functools
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    InputError,
    Layer,
    Network,
    TrainConfig,
    __version__,
    accuracy,
    forward_batch,
    init_network,
    load_network,
    partition,
    save_network,
    verify_affine,
)
from relu_prism import cli
from relu_prism.affine import collapse_batch
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
        monkeypatch.setattr(cli, "run_simulate",
                            lambda params, out, recorded: calls.append((out, recorded)) or 0)
        assert main(simulate_args(tmp_path / "run")) == 0
        assert calls == [(tmp_path / "run", None)]


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

    def test_negative_seed_flag_is_refused_by_its_name(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = assert_rejected(
            ["simulate", "--n", "200", "--epochs", "1", "--seed", "-3", "--out", str(out)],
            out, capsys,
        )
        assert err == "error: --seed must be a non-negative integer, got -3\n"

    def test_negative_seed_env_var_is_refused_by_its_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELU_PRISM_SEED", "-2")
        out = tmp_path / "run"
        err = assert_rejected(
            ["simulate", "--n", "200", "--epochs", "1", "--out", str(out)], out, capsys
        )
        assert err == "error: RELU_PRISM_SEED must be a non-negative integer, got '-2'\n"

    def test_divergence_reports_the_first_diverging_seed_in_sweep_order(
        self, tmp_path, capsys
    ):
        # Seed 3 survives lr 1e150 with a huge but finite loss; seed 1 diverges
        # in epoch 1. Seed 3 comes first in the sweep, so its line is printed
        # and the sweep stops at seed 1, whatever seed 4 does.
        out = tmp_path / "run"
        code = main(
            ["simulate", "--n", "500", "--data-seed", "1", "--lr", "1e150", "--epochs", "2",
             "--seeds", "3,1,4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("seed 3: train_accuracy="), captured.out
        assert captured.err == "error: training diverged with non-finite loss at epoch 1\n"
        assert not out.exists()


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
            # every float argument: each key whose kind takes 0.5
            keys = [k for k, (_, accepts) in _PARAM_KEYS[manifest["command"]].items()
                    if accepts(0.5)]
            assert keys
            for key in keys:
                for value in (float("nan"), float("inf")):
                    args = {**manifest["args"], key: value}
                    path.write_text(json.dumps({**manifest, "args": args}))
                    capsys.readouterr()
                    err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                    assert repr(key) in err, (manifest["command"], key, err)

    @pytest.mark.parametrize(
        "command, args, flags, env",
        [
            ("simulate", {"data_seed": -1}, ["--data-seed=-1"], None),
            ("simulate", {"seeds": [-1]}, ["--seeds=-1"], None),
            ("simulate", {"seeds": [0, -1]}, ["--seeds=0,-1"], None),
            ("simulate", {"seeds": [-3]}, ["--seed=-3"], None),
            ("simulate", {"seeds": [-2]}, [], "-2"),
            ("simulate", {"tol": 0.0}, ["--tol=0"], None),
            ("titanic", {"test_fraction": 1.0}, ["--test-fraction=1"], None),
            ("titanic", {"test_fraction": 0.25, "split_seed": -1},
             ["--test-fraction=0.25", "--split-seed=-1"], None),
            ("titanic", {"seeds": [-1]}, ["--seeds=-1"], None),
            ("verify", {"seed": -1}, ["--seed=-1"], None),
            ("verify", {"seed": -2}, [], "-2"),
            ("verify", {"jacobian_samples": -1}, ["--jacobian-samples=-1"], None),
            ("verify", {"jacobian_step": 0.0}, ["--jacobian-step=0"], None),
            ("verify", {"tol": -1.0}, ["--tol=-1"], None),
            ("verify", {"jacobian_tol": -1.0}, ["--jacobian-tol=-1"], None),
            ("simulate", {"n": 0}, ["--n=0"], None),
            ("simulate", {"epochs": 0}, ["--epochs=0"], None),
            ("simulate", {"batch_size": 0}, ["--batch-size=0"], None),
            ("simulate", {"hidden": [4, 0]}, ["--hidden=4,0"], None),
            ("simulate", {"lr": -0.1}, ["--lr=-0.1"], None),
            ("simulate", {"reg": -1.0}, ["--reg=-1"], None),
            ("simulate", {"seeds": [1, 1]}, ["--seeds=1,1"], None),
            ("titanic", {"seeds": [2, 0, 2]}, ["--seeds=2,0,2"], None),
        ],
    )
    def test_out_of_range_arg_is_refused_alike_on_both_paths(
        self, manifests, synthetic_titanic_csv, tmp_path, capsys, monkeypatch,
        command, args, flags, env,
    ):
        """One check, one message, whether the value comes from a flag or a manifest.

        A lone seed from --seed or $RELU_PRISM_SEED folds into the seeds key,
        so on the command line its message names the flag or the variable.
        """
        (manifest,) = [m for m in manifests if m["command"] == command]
        if command == "simulate":
            base = ["simulate", "--n", "400", "--epochs", "3"]
        elif command == "titanic":
            base = ["titanic", "--csv", str(synthetic_titanic_csv), "--epochs", "1"]
        else:
            base = ["verify", "--net", manifest["args"]["net"], "--data", manifest["args"]["data"]]
        if env is not None:
            monkeypatch.setenv("RELU_PRISM_SEED", env)
        out = tmp_path / "again"
        capsys.readouterr()
        from_flags = assert_rejected([*base, *flags, "--out", str(out)], out, capsys)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**manifest, "args": {**manifest["args"], **args}}))
        from_manifest = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        key = [*args][-1]
        assert f"--{key.replace('_', '-')} ({key!r}) must be " in from_manifest, from_manifest
        if env is not None:
            assert from_flags == f"error: RELU_PRISM_SEED must be {cli._SEED[0]}, got {env!r}\n"
        elif command != "verify" and flags[-1].startswith("--seed="):
            assert from_flags == f"error: --seed must be {cli._SEED[0]}, got {args['seeds'][0]}\n"
        else:
            assert from_flags == from_manifest

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

    def test_rerun_from_another_directory_reads_the_same_inputs(
        self, synthetic_titanic_csv, tmp_path, monkeypatch
    ):
        """Input paths given relative are recorded absolute, so a rerun does not
        depend on the directory it is started in."""
        here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
        elsewhere.mkdir()
        assert main(simulate_args(here / "sim")) == 0
        (here / "titanic.csv").write_bytes(synthetic_titanic_csv.read_bytes())
        monkeypatch.chdir(here)
        assert main(["verify", "--net", "sim/network.json", "--data", "sim/dataset.csv",
                     "--out", "verified"]) == 0
        assert main(["titanic", "--csv", "titanic.csv", "--epochs", "1", "--out", "titanic"]) == 0
        args = json.loads(Path("verified/manifest.json").read_text())["args"]
        for key, name in (("net", "network.json"), ("data", "dataset.csv"),
                          ("clusters", "clusters.json")):
            assert args[key] == str(Path("sim", name).absolute()), key
        monkeypatch.chdir(elsewhere)
        for run, files in (("verified", ["verify.json", "manifest.json"]), ("titanic", RUN_FILES)):
            assert main(["rerun", str(here / run / "manifest.json"), "--out", run]) == 0, run
            for name in files:
                assert (here / run / name).read_bytes() == (elsewhere / run / name).read_bytes()

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

    @pytest.mark.parametrize(
        "value, problem", [(True, "it holds true or false"), ("0.5", "it holds a string")]
    )
    def test_non_numeric_weight_exits_two(self, run_dir, tmp_path, capsys, value, problem):
        net_doc = json.loads((run_dir / "network.json").read_text())
        net_doc["layers"][1]["w"][0][1] = value
        (run_dir / "network.json").write_text(json.dumps(net_doc))
        out = tmp_path / "v"
        capsys.readouterr()
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(out)],
            out, capsys,
        )
        assert err == f"error: layer 2 is not numeric: {problem}\n"

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
            ("bias", ["0.5"]),
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
        assert cluster.pattern.bitstring == "" and cluster.stats.size == 20
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

    def test_missing_cluster_file_exits_two(self, run_dir, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "v"
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"),
             "--clusters", str(tmp_path / "none.json"), "--out", str(out)],
            out, capsys,
        )
        assert "none.json" in err, err

    def test_missing_files_exit_two(self, tmp_path):
        assert main(
            ["verify", "--net", str(tmp_path / "no.json"),
             "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path / "v")]
        ) == 2


class TestStoredClustersInBulk:
    """verify checks the stored maps in blocks of entries; a bad entry is still named."""

    @pytest.fixture(scope="class")
    def many(self, tmp_path_factory):
        """network.json, dataset.csv and clusters.json of a random 16,8 net: 1,361 clusters."""
        root = tmp_path_factory.mktemp("many")
        net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
        X = np.random.default_rng(0).standard_normal((1500, 10))
        dataset = Dataset(X, (X.sum(axis=1) > 0).astype(int), tuple("abcdefghij"))
        clusters = partition(net, dataset)
        # Entry 500 sits in the first, full block; 1100 and 1300 in the last, partial one.
        assert 500 < cli._MAP_BLOCK < 1100 < 1300 < len(clusters) < 2 * cli._MAP_BLOCK
        save_network(net, root / "network.json")
        (root / "dataset.csv").write_text(dataset_to_csv(dataset))
        cli._write_json(root / "clusters.json", clusters_to_json(clusters))
        return root

    def verify(self, many, clusters: Path, out: Path) -> list[str]:
        return ["verify", "--net", str(many / "network.json"), "--data", str(many / "dataset.csv"),
                "--clusters", str(clusters), "--out", str(out)]

    def test_every_entry_is_checked(self, many, tmp_path):
        assert main(self.verify(many, many / "clusters.json", tmp_path / "v")) == 0
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert doc["clusters"] == {"checked": 1361, "max_abs_err": 0.0, "pass": True}

    def test_parsed_maps_equal_plain_json_arrays(self, many):
        text = (many / "clusters.json").read_text()
        maps = cli._StoredMaps((1, 10))
        patterns, omegas, biases = maps.checked(
            json.loads(text, object_hook=maps), many / "clusters.json", 24
        )
        plain = json.loads(text)
        assert patterns == [entry["pattern"] for entry in plain]
        assert omegas.tobytes() == b"".join(np.array(e["omega"]).tobytes() for e in plain)
        assert biases.tobytes() == b"".join(np.array(e["bias"]).tobytes() for e in plain)

    def refused(self, many, tmp_path, capsys, doc, text=None) -> str:
        bad = tmp_path / "clusters.json"
        bad.write_text(json.dumps(doc) if text is None else text)
        out = tmp_path / "v"
        capsys.readouterr()
        return assert_rejected(self.verify(many, bad, out), out, capsys)

    @pytest.mark.parametrize("bad", [500, 1100])  # inside the first, full block; in the last
    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("omega", "abc", "map is not numeric: could not convert string to float: 'abc'"),
            ("omega", [["0.25"] * 10], "map is not numeric: it holds a string"),
            ("bias", ["0.25"], "map is not numeric: it holds a string"),
            ("omega", [[1.0, 2.0], [3.0]], None),  # ragged: numpy's own words follow
            ("bias", [None], "map is not finite"),
            ("pattern", "0" * 23, "pattern has 23 bits, network has 24 hidden units"),
            ("pattern", "2" + "0" * 23, "pattern must be a 0/1 string"),
            ("pattern", 7, "pattern must be a 0/1 string"),
            ("omega", [[0.0] * 9], "map shapes do not match the network"),
            ("bias", [0.0, 0.0], "map shapes do not match the network"),
            ("omega", [[float("nan")] * 10], "map is not finite"),
            ("bias", [float("-inf")], "map is not finite"),
            ("bias", None, "must carry pattern, omega and bias"),
            ("bias", [10**400], "map is not numeric: int too large to convert to float"),
            # numpy infers true beside numbers as a number, and converts a string
            # beside an integer too large for uint64.
            ("omega", [[0.5, True] + [0.0] * 8], "map is not numeric: it holds true or false"),
            ("bias", [False], "map is not numeric: it holds true or false"),
            ("omega", [[True] * 10], "map is not numeric: it holds true or false"),
            ("omega", [["0.5", 2**70] + [0.0] * 8], "map is not numeric: it holds a string"),
        ],
    )
    def test_bad_entry_is_named(self, many, tmp_path, capsys, bad, key, value, problem):
        doc = json.loads((many / "clusters.json").read_text())
        if value is None:
            del doc[bad][key]
        else:
            doc[bad][key] = value
        if problem is None:
            with pytest.raises(ValueError) as numpy_error:
                np.array(value, dtype=np.float64)
            problem = f"map is not numeric: {numpy_error.value}"
        err = self.refused(many, tmp_path, capsys, doc)
        assert err == f"error: cluster {bad} {problem}\n"

    NOT_NUMERIC = ("omega", "abc", "map is not numeric: could not convert string to float: 'abc'")
    SHORT = ("pattern", "0" * 23, "pattern has 23 bits, network has 24 hidden units")

    @pytest.mark.parametrize("first, second", [(500, 1100), (1100, 1300)])
    @pytest.mark.parametrize("early, late", [(NOT_NUMERIC, SHORT), (SHORT, NOT_NUMERIC)])
    def test_first_bad_entry_is_named(self, many, tmp_path, capsys, first, second, early, late):
        doc = json.loads((many / "clusters.json").read_text())
        doc[first][early[0]] = early[1]
        doc[second][late[0]] = late[1]
        err = self.refused(many, tmp_path, capsys, doc)
        assert err == f"error: cluster {first} {early[2]}\n"

    def test_a_refused_file_is_parsed_once(self, many, tmp_path, capsys, monkeypatch):
        doc = json.loads((many / "clusters.json").read_text())
        doc[500]["omega"] = "abc"
        parses, real_loads = [], json.loads

        def counting_loads(text, **kwargs):
            parses.append(text)
            return real_loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert "cluster 500 map is not numeric" in self.refused(many, tmp_path, capsys, doc)
        assert parses.count(json.dumps(doc)) == 1

    def test_syntax_error_after_a_bad_entry_is_invalid_json(self, many, tmp_path, capsys):
        """The block holding the bad entry is converted while parsing; nothing is raised then."""
        doc = json.loads((many / "clusters.json").read_text())
        doc[500]["omega"] = "abc"
        err = self.refused(many, tmp_path, capsys, doc, text=json.dumps(doc)[:-1])
        assert err.startswith("error: invalid cluster JSON in "), err

    def test_entry_below_the_top_level_is_refused(self, many, tmp_path, capsys):
        doc = json.loads((many / "clusters.json").read_text())
        doc[3]["note"] = dict(doc[4])
        err = self.refused(many, tmp_path, capsys, doc)
        assert err.endswith("clusters.json holds a cluster entry below its top-level array\n"), err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"pattern": "0", "omega": [[0.0]], "bias": [0.0]}',
             "must hold a JSON array of clusters"),
            ("[1]", "cluster 0 must carry pattern, omega and bias"),
        ],
    )
    def test_document_of_the_wrong_shape_is_refused(self, many, tmp_path, capsys, text, message):
        err = self.refused(many, tmp_path, capsys, None, text=text)
        assert message in err, err

    @pytest.mark.parametrize("note", [None, True, "null"])
    def test_accepted_maps_convert_a_block_at_a_time(self, many, tmp_path, monkeypatch, note):
        """No entry is converted alone, also when a boolean or null sits outside the maps."""
        doc = json.loads((many / "clusters.json").read_text())
        if note is not None:
            doc[3]["note"] = note
        stored = tmp_path / "clusters.json"
        stored.write_text(json.dumps(doc))
        alone = []
        monkeypatch.setattr(cli, "_numeric_array", lambda values: alone.append(values))
        assert main(self.verify(many, stored, tmp_path / "v")) == 0
        assert alone == []

    def test_empty_list_checks_nothing_and_passes(self, many, tmp_path):
        empty = tmp_path / "clusters.json"
        empty.write_text("[]\n")
        assert main(self.verify(many, empty, tmp_path / "v")) == 0
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert doc["clusters"] == {"checked": 0, "max_abs_err": 0.0, "pass": True}


class SwappingReads:
    """Counts the opens of watched files for reading; swaps each file after its first.

    Right after the first open, ``os.replace`` puts other bytes at the path.
    The handle already open still reads the first bytes, so a command that
    reads a file once sees only those, and one that reads it again sees the
    others. ``open`` and ``Path.open``, which ``Path.read_bytes`` and
    ``Path.read_text`` call, are both watched.
    """

    def __init__(self, monkeypatch, swaps: dict):
        self.swaps = {Path(path).absolute(): other for path, other in swaps.items()}
        self.first, self.opens = {}, dict.fromkeys(self.swaps, 0)
        real_open, real_path_open = builtins.open, Path.open

        def watch(file, mode):
            path = Path(file).absolute() if isinstance(file, (str, os.PathLike)) else None
            if path not in self.swaps or set(mode) & set("wax+"):
                return
            self.opens[path] += 1
            if self.opens[path] == 1:
                with real_open(path, "rb") as first:
                    self.first[path] = first.read()
                other = path.with_name(path.name + ".other")
                with real_open(other, "wb") as fh:
                    fh.write(self.swaps[path])
                os.replace(other, path)

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            watch(file, mode)
            return handle

        def counting_path_open(path, mode="r", *args, **kwargs):
            handle = real_path_open(path, mode, *args, **kwargs)
            watch(path, mode)
            return handle

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(Path, "open", counting_path_open)


class TestEachInputReadOnce:
    """Each input is read once, and the manifest holds the hash of the bytes parsed."""

    def test_verify_reads_and_hashes_each_input_once(self, tmp_path, monkeypatch):
        run, other = tmp_path / "run", tmp_path / "other"
        assert main(simulate_args(run)) == 0
        assert main(simulate_args(other, n=300, extra=("--hidden", "3"))) == 0
        reference = tmp_path / "reference"
        argv = ["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
                "--clusters", str(run / "clusters.json")]
        assert main([*argv, "--out", str(reference)]) == 0
        names = ("network.json", "dataset.csv", "clusters.json")
        swaps = {run / name: (other / name).read_bytes() for name in names}
        reads = SwappingReads(monkeypatch, swaps)
        assert main([*argv, "--out", str(tmp_path / "v")]) == 0
        monkeypatch.undo()
        assert set(reads.opens.values()) == {1}, reads.opens
        hashes = json.loads((tmp_path / "v" / "manifest.json").read_text())["input_hashes"]
        for key, name in (("net", "network.json"), ("data", "dataset.csv"),
                          ("clusters", "clusters.json")):
            first = reads.first[(run / name).absolute()]
            assert hashes[key] == hashlib.sha256(first).hexdigest(), key
        assert (tmp_path / "v" / "verify.json").read_bytes() == (
            reference / "verify.json").read_bytes()

    def test_titanic_reads_and_hashes_its_csv_once(self, synthetic_titanic_csv, tmp_path,
                                                    monkeypatch, tiny_titanic_csv):
        csv_path = tmp_path / "train.csv"
        csv_path.write_bytes(synthetic_titanic_csv.read_bytes())
        argv = ["titanic", "--csv", str(csv_path), "--epochs", "1"]
        assert main([*argv, "--out", str(tmp_path / "reference")]) == 0
        reads = SwappingReads(monkeypatch, {csv_path: tiny_titanic_csv.read_bytes()})
        assert main([*argv, "--out", str(tmp_path / "run")]) == 0
        monkeypatch.undo()
        assert reads.opens == {csv_path.absolute(): 1}
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        digest = hashlib.sha256(synthetic_titanic_csv.read_bytes()).hexdigest()
        assert manifest["input_hashes"] == {"csv": digest}
        for name in RUN_FILES:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "reference" / name).read_bytes(), name


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

    def test_class_outside_the_grid_exits_two(self, synthetic_titanic_csv, tmp_path, capsys):
        lines = synthetic_titanic_csv.read_text().splitlines(keepends=True)
        assert lines[0].split(",")[2] == "Pclass"
        fields = lines[4].split(",")
        fields[2] = "-1"  # the Pclass of the row on line 5
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "run"
        err = assert_rejected(self.titanic_args(bad, out), out, capsys)
        assert err == "error: line 5: Pclass must be 1, 2 or 3, got -1\n", err

    @pytest.mark.parametrize("column, value, shown", [
        ("Age", "-1", "-1.0"), ("SibSp", "-1", "-1"), ("Parch", "-2", "-2"),
        ("Fare", "-7.25", "-7.25"),
    ])
    def test_negative_value_exits_two(self, synthetic_titanic_csv, tmp_path, capsys,
                                      column, value, shown):
        with open(synthetic_titanic_csv, newline="") as f:
            rows = list(csv.reader(f))
        rows[4][rows[0].index(column)] = value  # the row on line 5
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        out = tmp_path / "run"
        err = assert_rejected(self.titanic_args(bad, out), out, capsys)
        assert err == f"error: line 5: {column} must be >= 0, got {shown}\n", err

    def test_missing_csv_exits_two(self, tmp_path):
        assert main(self.titanic_args(tmp_path / "none.csv", tmp_path / "run")) == 2


@pytest.mark.parametrize("name", ["network.json", "dataset.csv", "titanic.csv", "manifest.json"])
def test_undecodable_input_exits_two(name, synthetic_titanic_csv, tmp_path, capsys):
    """A byte that is not UTF-8 is a schema error naming the file, not a traceback."""
    run = tmp_path / "run"
    assert main(simulate_args(run)) == 0
    titanic_csv = tmp_path / "titanic.csv"
    titanic_csv.write_bytes(synthetic_titanic_csv.read_bytes())
    path = {"titanic.csv": titanic_csv}.get(name, run / name)
    raw = path.read_bytes()
    cut = raw.index(b"\n", len(raw) // 2)  # inside the file, not on its first line
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    out = tmp_path / "again"
    verify = ["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv")]
    argv = {
        "network.json": verify,
        "dataset.csv": verify,
        "titanic.csv": ["titanic", "--csv", str(titanic_csv), "--epochs", "1"],
        "manifest.json": ["rerun", str(run / "manifest.json")],
    }[name]
    capsys.readouterr()
    err = assert_rejected([*argv, "--out", str(out)], out, capsys)
    assert str(path) in err, err


@pytest.mark.parametrize("name", ["net", "data", "clusters", "csv", "manifest"])
def test_input_that_is_a_directory_exits_two(name, tmp_path, capsys):
    """An OS error reading an input is bad input: exit 2 naming it, no traceback."""
    run = tmp_path / "run"
    assert main(simulate_args(run)) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"net": run / "network.json", "data": run / "dataset.csv",
             "clusters": run / "clusters.json"}
    paths[name] = folder
    argv = {
        "csv": ["titanic", "--csv", str(folder), "--epochs", "1"],
        "manifest": ["rerun", str(folder)],
    }.get(name, ["verify", "--net", str(paths["net"]), "--data", str(paths["data"]),
                 "--clusters", str(paths["clusters"])])
    out = tmp_path / "again"
    capsys.readouterr()
    err = assert_rejected([*argv, "--out", str(out)], out, capsys)
    assert "Is a directory" in err and str(folder) in err, err


def test_out_under_a_file_is_refused_before_any_work(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "run"
    err = assert_rejected(simulate_args(out), out, capsys)
    assert f"{taken} is not a directory" in err, err
    assert taken.read_text() == "keep\n"


def test_out_that_is_a_file_is_refused_before_any_work(tmp_path, capsys):
    """The checks of assert_rejected, but the file named by --out stays as it was."""
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert main(simulate_args(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "", captured.out  # no seed line: nothing was trained
    assert captured.err == f"error: --out {out}: {out} is not a directory\n", captured.err
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_with_a_whole_run_or_none(tmp_path, unbuffered):
    """A reader that has gone: no traceback, status 141, all eight files or no directory.

    Unbuffered, the first seed line fails, before any file is written.
    Buffered, every line waits for main's flush, after the last file.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "run"
    argv = [sys.executable, "-m", "relu_prism.cli", "simulate", "--n", "300",
            "--epochs", "1", "--seeds", "1..2", "--out", str(out)]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE == 141, proc.stderr
    assert proc.stderr == b""
    if unbuffered:
        assert not out.exists()
    else:
        assert sorted(os.listdir(out)) == sorted(RUN_FILES)


def test_split_sweep_prints_each_line_once_and_writes_the_serial_bytes(
    tmp_path, capsys, monkeypatch
):
    """A four-seed sweep trains its later two seeds in a forked child.

    Stdout sent to a file is block-buffered, so a child that flushed it or
    ran on into the command would print lines twice. Stdout and files equal
    a serial run's, made in process where ``os.fork`` does not exist.
    """
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    split, serial, printed = tmp_path / "split", tmp_path / "serial", tmp_path / "stdout.txt"
    size = ["--n", "2000", "--seeds", "1..4"]
    with open(printed, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "relu_prism.cli", "simulate", *size, "--out", str(split)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = printed.read_text().splitlines()
    n_clusters = json.loads((split / "summary.json").read_text())["n_clusters"]
    heads = [f"seed {seed}:" for seed in (1, 2, 3, 4)]
    heads += [f"cluster {i}:" for i in range(n_clusters)]
    assert [sum(line.startswith(head) for line in lines) for head in heads] == [1] * len(heads)

    monkeypatch.delattr(os, "fork")
    capsys.readouterr()
    assert main(["simulate", *size, "--out", str(serial)]) == 0
    assert capsys.readouterr().out == printed.read_text()
    for name in RUN_FILES:
        assert (split / name).read_bytes() == (serial / name).read_bytes(), name


def test_simulate_and_verify_do_not_import_numpy_ma(tmp_path):
    """numpy.ma costs each fresh process about 15 ms; np.unique imports it."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run, checked = tmp_path / "run", tmp_path / "v"
    script = (
        "import sys\n"
        "from relu_prism.cli import main\n"
        "at = sys.argv.index('verify')\n"
        "codes = [main(sys.argv[1:at]), main(sys.argv[at:])]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    argv = [sys.executable, "-c", script,
            "simulate", "--n", "300", "--epochs", "1", "--seeds", "1..2", "--out", str(run),
            "verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
            "--clusters", str(run / "clusters.json"), "--out", str(checked)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == "[0, 0] False\n"



def count_calls(monkeypatch, *functions) -> dict:
    """Counts the calls of each function, by name, at every relu_prism module binding.

    The package imports with ``from .x import f``, so one function can be
    bound in several modules; every binding that is the original is wrapped.
    """
    calls = dict.fromkeys((fn.__name__ for fn in functions), 0)
    modules = [module for name, module in list(sys.modules.items())
               if name == "relu_prism" or name.startswith("relu_prism.")]

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        wrapper = counted(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("command", ["simulate", "titanic"])
def test_one_forward_pass_and_one_collapse_over_the_target_rows(
    command, synthetic_titanic_csv, tmp_path, monkeypatch
):
    """The clusters and the exactness check read one pattern table of the rows."""
    out = tmp_path / "run"
    argv = simulate_args(out) if command == "simulate" else [
        "titanic", "--csv", str(synthetic_titanic_csv), "--epochs", "1",
        "--test-fraction", "0", "--out", str(out),
    ]
    calls = count_calls(monkeypatch, forward_batch, collapse_batch)
    assert main(argv) == 0
    assert calls == {"forward_batch": 1, "collapse_batch": 1}

# SHA-256 of stdout and of each artifact of two small runs, as recorded on
# x86-64 Linux, numpy 2.x with OpenBLAS 0.3.31 (Haswell kernels). They hold
# the bytes fixed across commits, not just a run against its own rerun, and
# depend on the platform as PINNED_SWEEP_SHA256 in test_acceptance.py does.
# The titanic manifest records the CSV's path, which depends on the checkout,
# so it is left out.
GOLDEN_SHA256 = {
    "simulate": {
        "stdout": "77c1b2dd81bb9cb50f10ce720ff99d6effcb73f555bf8807cb8222a79de47688",
        "dataset.csv": "657ad0027859d98691f80d433556c978e1b200c4a54c6c761494cb6017b1ad22",
        "network.json": "377adb1b23738e5500be2a20481994dde1869dd51679f7ff02fb91da18401041",
        "history.csv": "73a1fcd780c5b9896d075fb0d272ad625446c6574a64da54b1e615eea250e9ad",
        "clusters.json": "1ff908c022f232be6aa75768c6beff2333558fe2004d8247b8eb59db5cdb29d6",
        "importance.csv": "5b8b1525e969739ebd582849ddb8521041a4916d1d634d9f2230915f284b468d",
        "verify.json": "fe5e6b53a68acaa5b05bc337d25b82b2f1d97c93fc16ad609f695b58dde5cb87",
        "summary.json": "0c5d218ba50ab66399bd8a14ddc5089e46d98dc44e797e794930e77df61e6eaf",
        "manifest.json": "aa6cbff79b1e3d362d57f37eb8e10c81ddd8cc68deb697cf8660be8f86bf66f0",
    },
    "titanic": {
        "stdout": "14eb13cd84f272132761fc66928825446c18662cad6f7dd3887d5f66261daf01",
        "dataset.csv": "fa22fa0d5559766d73577df5978c331301f87159e63b3e27216c8485654119f5",
        "network.json": "f12f0d57c43e7f2ee79f90d133fc7a1d6e33f526aa00d97c70de0cff24d816b9",
        "history.csv": "c1342d50ef8a9f688c7f5bc5ad6614eafc1a1fff1b35eb10c0e1c9fef7a6fe17",
        "clusters.json": "c1b9ad00383fad29d769e1e7c0076e4ae32e884474d373f1d331c9d2f01e5fec",
        "importance.csv": "a866dba856621c416beedd27b35c7d2a300567ff771b9eecf91bb8b7c44f4601",
        "verify.json": "e096fa55dfe440e4ffbba1dd2c2fbee42c8989535ded81bda149820ece13e169",
        "summary.json": "5b512f7454b78b1a78cf3aa987aa049439278c835163e95abc99e1e5fd6be33f",
    },
}


def golden_argv(command, csv_path, out):
    if command == "simulate":
        head = ["simulate", "--n", "2000", "--data-seed", "101"]
    else:
        head = ["titanic", "--csv", str(csv_path), "--test-fraction", "0.25",
                "--split-seed", "3", "--cluster-on", "test"]
    return [*head, "--seeds", "1..2", "--epochs", "2", "--out", str(out)]


@pytest.mark.parametrize("command", ["simulate", "titanic"])
def test_run_bytes_are_pinned(command, synthetic_titanic_csv, tmp_path, capsys):
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(golden_argv(command, synthetic_titanic_csv, out)) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name in RUN_FILES:
        if not (command == "titanic" and name == "manifest.json"):
            got[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256[command]


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
