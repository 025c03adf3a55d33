from __future__ import annotations

import argparse
import builtins
import csv
import functools
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    InputError,
    Layer,
    Network,
    SchemaError,
    TrainConfig,
    TrainHistory,
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
from conftest import counted_forks

trainer = importlib.import_module("relu_prism.train")
forking = importlib.import_module("relu_prism._forking")

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


@pytest.fixture(params=["forked", "no-fork"])
def clusters_checked(request, monkeypatch):
    """Where verify checks the stored clusters: in a forked child, or in process.

    The in-process path is the one taken where ``os.fork`` does not exist.
    ``pids`` lists each child forked, by the sweep as well as by verify.
    """
    if request.param == "no-fork":
        monkeypatch.delattr(os, "fork")
        return types.SimpleNamespace(forked=False, pids=[])
    return types.SimpleNamespace(forked=True, pids=counted_forks(monkeypatch))


def rejected_on(checked, argv, out, capsys) -> str:
    """`assert_rejected` of one verify, which forks once on the forked path only."""
    before = len(checked.pids)
    err = assert_rejected(argv, out, capsys)
    assert len(checked.pids) - before == checked.forked
    return err


def in_child(parent: int, act, function):
    """``function``, with ``act()`` run first in a forked child only."""
    def patched(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return function(*args, **kwargs)

    return patched


class TestArgParsing:
    def test_parse_seeds_forms(self):
        assert parse_seeds("3") == [3]
        assert parse_seeds("1..4") == [1, 2, 3, 4]
        assert parse_seeds("0,5,9") == [0, 5, 9]

    def test_parse_seeds_rejects_empty_range(self):
        """Text that reads as no seeds is returned as it is, for the argument check."""
        assert parse_seeds("5..1") == "5..1"
        assert parse_seeds("x") == "x"

    def test_seed_count_is_bounded_and_a_range_is_told_by_its_ends(self):
        """No list is built for a range of more than ``_MAX_SEEDS`` seeds, however long."""
        bound = cli._MAX_SEEDS
        assert parse_seeds(f"5..{bound + 4}") == list(range(5, bound + 5))
        for text in (f"5..{bound + 5}", f"0..{10**18}"):
            assert parse_seeds(text) == text
        assert cli._SEEDS.accepts(list(range(bound)))
        assert not cli._SEEDS.accepts(list(range(bound + 1)))

    def test_parse_hidden(self):
        assert parse_hidden("4,2") == [4, 2]
        assert parse_hidden("a,b") == "a,b"
        assert parse_hidden(",") == ","

    def test_missing_subcommand_exits_two(self, tmp_path, capsys):
        err = assert_rejected([], tmp_path / "run", capsys)
        assert err == "error: the following arguments are required: command\n", err

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--n", "400", "--bogus", "--out", "{out}"],
         "unrecognized arguments: --bogus"),
        (["simulate", "--n", "400"], "the following arguments are required: --out"),
        (["verify", "--data", "d.csv", "--out", "{out}"],
         "the following arguments are required: --net"),
        (["simulate", "--out", "{out}", "--n"], "argument --n: expected one argument"),
        (["again", "--out", "{out}"], "argument command: invalid choice: 'again' "
         "(choose from 'simulate', 'titanic', 'verify', 'rerun')"),
    ], ids=["unknown-flag", "missing-out", "missing-net", "flag-without-value", "unknown-command"])
    def test_usage_error_exits_two_with_one_line(self, tmp_path, capsys, argv, line):
        """A usage error is bad input like any other, not a usage block and a SystemExit."""
        out = tmp_path / "run"
        err = assert_rejected([arg.format(out=out) for arg in argv], out, capsys)
        assert err == f"error: {line}\n", err

    def test_help_names_every_flag_and_each_choice(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        for command, keys in _PARAM_KEYS.items():
            text = subs.choices[command].format_help()
            for key, (kind, _, help_text) in keys.items():
                assert f"--{key.replace('_', '-')}" in text, key
                assert f"{help_text}; {kind.description}" in text, key
        assert "one of raw, max_abs" in subs.choices["simulate"].format_help()
        assert "one of train, test, all" in subs.choices["titanic"].format_help()

    def test_parser_flags_match_manifest_keys(self):
        """Every flag but --out, and those folded into another key, is a manifest arg."""
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        folded = {"simulate": set(), "titanic": set(), "verify": {"no_clusters"}}
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

    def test_run_without_seeds_records_seed_zero(self, tmp_path, monkeypatch):
        """--seeds is the one seed input: the retired variable is not read."""
        monkeypatch.setenv("RELU_PRISM_SEED", "7")
        out = tmp_path / "run"
        assert main(["simulate", "--n", "200", "--epochs", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["seeds"] == [0]

    @pytest.mark.parametrize("command", ["simulate", "titanic"])
    def test_retired_seed_flag_is_unrecognized(self, command, synthetic_titanic_csv, tmp_path,
                                               capsys):
        head = {"simulate": ["simulate"],
                "titanic": ["titanic", "--csv", str(synthetic_titanic_csv)]}[command]
        out = tmp_path / "run"
        err = assert_rejected([*head, "--epochs", "1", "--seed", "1", "--out", str(out)],
                              out, capsys)
        assert err == "error: unrecognized arguments: --seed 1\n", err

    def test_unparseable_seeds_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert_rejected(simulate_args(out, extra=("--seeds", "x")), out, capsys)

    def test_empty_seed_list_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert_rejected(simulate_args(out, extra=("--seeds", ",")), out, capsys)

    def test_seed_range_past_the_index_range_exits_two(self, tmp_path, capsys):
        """A range of 2**70 seeds has no length Python can hold."""
        out = tmp_path / "run"
        err = assert_rejected(simulate_args(out, extra=("--seeds", f"0..{2**70}")), out, capsys)
        assert err == ("error: --seeds ('seeds') must be a non-empty list of at most 1024 "
                       f"distinct non-negative integers, got '0..{2**70}'\n"), err

    def test_seed_range_past_the_bound_is_refused_before_training(self, tmp_path, capsys,
                                                                  monkeypatch):
        def trained(*args):
            raise AssertionError("train_seeds was called")

        monkeypatch.setattr(cli, "train_seeds", trained)
        out = tmp_path / "run"
        err = assert_rejected(simulate_args(out, extra=("--seeds", "0..200000")), out, capsys)
        assert err == ("error: --seeds ('seeds') must be a non-empty list of at most 1024 "
                       "distinct non-negative integers, got '0..200000'\n"), err

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
            ["simulate", "--n", "100", "--epochs", "1", "--seeds", "1",
             "--lr", "1e300", "--batch-size", "10", "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 80.0 TiB", "error: Unable to allocate 80.0 TiB\n"),
    ])
    def test_memory_error_during_a_run_exits_two(self, tmp_path, capsys, monkeypatch,
                                                 message, line):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "train_seeds", out_of_memory)
        out = tmp_path / "run"
        assert assert_rejected(simulate_args(out), out, capsys) == line

    def test_a_non_finite_summary_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                              monkeypatch):
        """Every JSON text is built before the run directory is made."""
        sweep = cli.train_seeds

        def nan_loss(*args):
            for net, history in sweep(*args):
                yield net, TrainHistory((*history.losses[:-1], float("nan")), history.accuracies)

        monkeypatch.setattr(cli, "train_seeds", nan_loss)
        out = tmp_path / "run"
        assert main(simulate_args(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: summary.json would hold a non-finite number"), err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_a_training_child_that_ends_without_its_result_exits_two(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.setattr(forking, "_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_train_lockstep", in_child(
            os.getpid(), lambda: os._exit(3), trainer._train_lockstep))
        out = tmp_path / "run"
        err = assert_rejected(simulate_args(out), out, capsys)
        assert re.fullmatch(
            r"error: the forked child \d+ ended without its result \(wait status 768\)\n", err
        ), err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_epoch_loss_past_the_float_range_exits_three(self, tmp_path, capsys):
        """Each batch loss is finite, but their sum over the epoch is not: no partial run."""
        out = tmp_path / "run"
        code = main(["simulate", "--n", "300", "--seeds", "1..2", "--epochs", "1",
                     "--reg", "1e308", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert (captured.out, captured.err) == (
            "", "error: training diverged with non-finite loss at epoch 1\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [["verify"], {"verify": 1}, 3])
    def test_manifest_command_of_wrong_type_exits_two(self, tmp_path, capsys, command):
        """A command that is not a string is refused by name, not hashed into a TypeError."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": __version__, "command": command, "args": {},
                                    "input_hashes": {}}))
        out = tmp_path / "again"
        capsys.readouterr()
        err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        assert err == f"error: manifest names unknown command {command!r}\n", err

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
            "verify": {"net": None, "data": 7, "clusters": 3, "jacobian_tol": True},
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
            keys = [k for k, (kind, _, _) in _PARAM_KEYS[manifest["command"]].items()
                    if kind.accepts(0.5)]
            assert keys
            for key in keys:
                for value in (float("nan"), float("inf")):
                    args = {**manifest["args"], key: value}
                    path.write_text(json.dumps({**manifest, "args": args}))
                    capsys.readouterr()
                    err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
                    assert repr(key) in err, (manifest["command"], key, err)

    @pytest.mark.parametrize(
        "command, args, flags",
        [
            ("simulate", {"data_seed": -1}, ["--data-seed=-1"]),
            ("simulate", {"seeds": [-1]}, ["--seeds=-1"]),
            ("simulate", {"seeds": [0, -1]}, ["--seeds=0,-1"]),
            ("simulate", {"tol": 0.0}, ["--tol=0"]),
            ("titanic", {"test_fraction": 1.0}, ["--test-fraction=1"]),
            ("titanic", {"test_fraction": 0.25, "split_seed": -1},
             ["--test-fraction=0.25", "--split-seed=-1"]),
            ("titanic", {"seeds": [-1]}, ["--seeds=-1"]),
            ("verify", {"tol": 0.0}, ["--tol=0"]),
            ("verify", {"jacobian_tol": 0.0}, ["--jacobian-tol=0"]),
            ("verify", {"tol": -1.0}, ["--tol=-1"]),
            ("verify", {"jacobian_tol": -1.0}, ["--jacobian-tol=-1"]),
            ("simulate", {"n": 0}, ["--n=0"]),
            ("simulate", {"epochs": 0}, ["--epochs=0"]),
            ("simulate", {"batch_size": 0}, ["--batch-size=0"]),
            ("simulate", {"hidden": [4, 0]}, ["--hidden=4,0"]),
            ("simulate", {"lr": -0.1}, ["--lr=-0.1"]),
            ("simulate", {"reg": -1.0}, ["--reg=-1"]),
            ("simulate", {"seeds": [1, 1]}, ["--seeds=1,1"]),
            ("titanic", {"seeds": [2, 0, 2]}, ["--seeds=2,0,2"]),
            # Counts numpy cannot shape, or that no run could hold.
            ("simulate", {"n": 2**70}, [f"--n={2**70}"]),
            ("simulate", {"n": 2**62}, [f"--n={2**62}"]),
            ("simulate", {"epochs": 2**63}, [f"--epochs={2**63}"]),
            ("simulate", {"hidden": [4, 2**70]}, [f"--hidden=4,{2**70}"]),
            ("titanic", {"batch_size": 2**70}, [f"--batch-size={2**70}"]),
            ("titanic", {"hidden": [cli._MAX_COUNT + 1]}, [f"--hidden={cli._MAX_COUNT + 1}"]),
            # Text that does not read as the flag's kind.
            ("simulate", {"n": "abc"}, ["--n=abc"]),
            ("simulate", {"lr": "x"}, ["--lr=x"]),
            ("simulate", {"seeds": "x"}, ["--seeds=x"]),
            ("simulate", {"hidden": "a,b"}, ["--hidden=a,b"]),
            ("simulate", {"normalization": "zz"}, ["--normalization=zz"]),
            ("titanic", {"cluster_on": "nope"}, ["--cluster-on=nope"]),
        ],
    )
    def test_out_of_range_arg_is_refused_alike_on_both_paths(
        self, manifests, synthetic_titanic_csv, tmp_path, capsys, command, args, flags,
    ):
        """One check, one message, whether the value comes from a flag or a manifest."""
        (manifest,) = [m for m in manifests if m["command"] == command]
        if command == "simulate":
            base = ["simulate", "--n", "400", "--epochs", "3"]
        elif command == "titanic":
            base = ["titanic", "--csv", str(synthetic_titanic_csv), "--epochs", "1"]
        else:
            base = ["verify", "--net", manifest["args"]["net"], "--data", manifest["args"]["data"]]
        out = tmp_path / "again"
        capsys.readouterr()
        from_flags = assert_rejected([*base, *flags, "--out", str(out)], out, capsys)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**manifest, "args": {**manifest["args"], **args}}))
        from_manifest = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        key = [*args][-1]
        assert f"--{key.replace('_', '-')} ({key!r}) must be " in from_manifest, from_manifest
        assert from_flags == from_manifest

    @pytest.mark.parametrize("command, key", [
        ("verify", "net"), ("verify", "data"), ("verify", "clusters"), ("titanic", "csv"),
    ])
    def test_path_holding_a_nul_character_is_refused_alike_on_both_paths(
        self, manifests, tmp_path, capsys, command, key,
    ):
        """No file system takes such a path: the argument check refuses it by its key."""
        (manifest,) = [m for m in manifests if m["command"] == command]
        args = {**manifest["args"], key: manifest["args"][key] + "\0"}
        given = ("csv",) if command == "titanic" else ("net", "data", "clusters")
        flags = [arg for name in given for arg in (cli._flag(name), args[name])]
        out = tmp_path / "again"
        capsys.readouterr()
        from_flags = assert_rejected([command, *flags, "--out", str(out)], out, capsys)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**manifest, "args": args}))
        from_manifest = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        kind = "a string without a NUL character" + (", or null" if key == "clusters" else "")
        assert from_flags == from_manifest == (
            f"error: {cli._flag(key)} ({key!r}) must be {kind}, got {args[key]!r}\n"), from_flags

    def test_manifest_path_holding_a_nul_character_exits_two(self, tmp_path, capsys):
        manifest, out = str(tmp_path / "manifest.json") + "\0", tmp_path / "again"
        err = assert_rejected(["rerun", manifest, "--out", str(out)], out, capsys)
        assert err == f"error: manifest {manifest!r} holds a NUL character\n", err

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

    @pytest.mark.parametrize("step", [1e-4, 1e-12])
    def test_verify_manifest_holding_the_retired_step_exits_two(self, manifests, tmp_path,
                                                                capsys, step):
        """The probe's step is fixed: a manifest that still records one is refused for it."""
        (manifest,) = [m for m in manifests if m["command"] == "verify"]
        assert "jacobian_step" not in manifest["args"]
        path, out = tmp_path / "manifest.json", tmp_path / "again"
        path.write_text(json.dumps({**manifest, "args": {**manifest["args"],
                                                         "jacobian_step": step}}))
        capsys.readouterr()
        err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        assert err == "error: manifest args hold unknown 'jacobian_step'\n", err

    def test_refusal_line_quotes_a_long_value_in_part(self, manifests, tmp_path, capsys):
        """A manifest holding 2,000 seeds is refused in one short line that names the bound."""
        (manifest,) = [m for m in manifests if m["command"] == "simulate"]
        path, out = tmp_path / "manifest.json", tmp_path / "again"
        path.write_text(json.dumps({**manifest, "args": {**manifest["args"],
                                                         "seeds": list(range(2000))}}))
        capsys.readouterr()
        err = assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys)
        assert err == ("error: --seeds ('seeds') must be a non-empty list of at most 1024 "
                       "distinct non-negative integers, got [0, 1, 2, 3, 4, 5, ...]\n"), err
        assert len(err) < 200

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

    @pytest.mark.parametrize(
        "flags", [["--seed", "1"], ["--jacobian-samples", "5"], ["--jacobian-step", "1e-12"]])
    def test_retired_probe_flags_are_unrecognized(self, run_dir, tmp_path, capsys, flags):
        """The probe's rows and step are fixed: no seed, sample count or step chooses them."""
        capsys.readouterr()
        out = tmp_path / "v"
        err = assert_rejected(["verify", "--net", str(run_dir / "network.json"),
                               "--data", str(run_dir / "dataset.csv"), *flags, "--out", str(out)],
                              out, capsys)
        assert err == f"error: unrecognized arguments: {' '.join(flags)}\n", err

    def assert_stored_map_rejected(self, run_dir, tmp_path, capsys, checked, key, value):
        doc = json.loads((run_dir / "clusters.json").read_text())
        doc[-1][key] = value
        (run_dir / "clusters.json").write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "v"
        err = rejected_on(
            checked,
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
    def test_non_finite_stored_map_exits_two(self, run_dir, tmp_path, capsys, clusters_checked,
                                             key, value):
        self.assert_stored_map_rejected(run_dir, tmp_path, capsys, clusters_checked, key, value)

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
    def test_malformed_stored_map_exits_two(self, run_dir, tmp_path, capsys, clusters_checked,
                                            key, value):
        self.assert_stored_map_rejected(run_dir, tmp_path, capsys, clusters_checked, key, value)

    def test_undecodable_cluster_file_exits_two(self, run_dir, tmp_path, capsys,
                                                clusters_checked):
        (run_dir / "clusters.json").write_bytes(b'[{"pattern": "\xff"}]')
        capsys.readouterr()
        out = tmp_path / "v"
        err = rejected_on(
            clusters_checked,
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

    def test_huge_weight_on_a_never_active_unit_is_probed_without_a_warning(
        self, run_dir, tmp_path, capsys
    ):
        """A weight of -1e308 would overflow an unscaled ||g||, and every probe would skip.

        Unit 0 never fires: its bias is -100. Where the huge weight's input is
        0, the unit's boundary lies within 1e-306 of the row, and the probe is
        skipped; where it is 1, the row lies 1e308 deep in the unit's region.
        The stored clusters were made with the old weights, so verify fails.
        """
        net_doc = json.loads((run_dir / "network.json").read_text())
        net_doc["layers"][0]["w"][0][0] = -1e308
        net_doc["layers"][0]["b"][0] = -100.0
        (run_dir / "network.json").write_text(json.dumps(net_doc))
        X = read_dataset_csv(run_dir / "dataset.csv").features
        probed = X[[i * len(X) // 100 for i in range(100)], 0]
        out = tmp_path / "v"
        capsys.readouterr()
        assert main(["verify", "--net", str(run_dir / "network.json"),
                     "--data", str(run_dir / "dataset.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "verify.json").read_text())
        assert doc["affine"]["pass"] and not doc["clusters"]["pass"]
        jacobian = doc["jacobian"]
        assert jacobian["pass"] and jacobian["max_row_err"] < 1e-6
        assert (jacobian["checked"], jacobian["skipped"]) == (
            int((probed == 1).sum()), int((probed == 0).sum()))

    def test_partial_collapse_past_the_float_range_is_skipped_without_a_warning(
        self, tmp_path, capsys
    ):
        """1 -> 1 -> 1 -> 1 with weights 1e200, 1e200, 1: g of unit 2 is 1e400.

        The forward pass at 1e-300 stays finite, but the collapse does not, so
        the probe is skipped and the affine error, infinite, is refused.
        """
        net = Network(tuple(Layer([[w]], [0.0]) for w in (1e200, 1e200, 1.0)))
        save_network(net, tmp_path / "network.json")
        (tmp_path / "dataset.csv").write_text("x0,target\n1e-300,1\n")
        capsys.readouterr()
        assert main(["verify", "--net", str(tmp_path / "network.json"),
                     "--data", str(tmp_path / "dataset.csv"), "--no-clusters",
                     "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: verify.json would hold a non-finite number"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "v").exists()

    def test_a_checked_probe_row_whose_error_is_not_finite_fails(self, tmp_path, capsys):
        """1 -> 2 -> 1 with hidden weights 1.7976e308 and output weights 1, -1 at the row 1.0.

        The logit is 0 and the affine check passes, but one step up overflows
        both units, so the row's differences are inf - inf: the row is
        checked, its error is NaN, and the check fails with the row counted.
        """
        w = 1.7976e308
        net = Network((Layer([[w], [w]], [0.0, 0.0]), Layer([[1.0, -1.0]], [0.0])))
        save_network(net, tmp_path / "network.json")
        (tmp_path / "dataset.csv").write_text("x0,target\n1.0,1\n")
        out = tmp_path / "v"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--net", str(tmp_path / "network.json"),
                         "--data", str(tmp_path / "dataset.csv"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        doc = json.loads((out / "verify.json").read_text())
        assert doc["affine"]["pass"]
        assert doc["jacobian"] == {"samples": 1, "checked": 1, "skipped": 0, "max_row_err": 0.0,
                                   "h": 0.0001, "tol": 0.0001, "pass": False, "non_finite": 1}
        assert captured.out.splitlines()[1:] == [
            "jacobian: checked=1 skipped=0 max_row_err=0.000e+00 pass=False non_finite=1",
            "verify: FAIL",
        ]

    def test_json_writer_refuses_non_finite_numbers(self, tmp_path):
        path = tmp_path / "doc.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="doc.json"):
                cli._write_json(path, cli._json_text(path.name, {"max_abs_err": value}))
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

    def test_clusters_flag_with_no_clusters_exits_two(self, run_dir, tmp_path, capsys):
        """An explicit cluster file is not skipped in silence."""
        capsys.readouterr()
        out = tmp_path / "v"
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--clusters", str(run_dir / "clusters.json"),
             "--no-clusters", "--out", str(out)],
            out, capsys,
        )
        assert err == "error: --clusters and --no-clusters exclude each other\n", err

    def test_missing_cluster_file_exits_two(self, run_dir, tmp_path, capsys, clusters_checked):
        capsys.readouterr()
        out = tmp_path / "v"
        err = rejected_on(
            clusters_checked,
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

    def verified(self, run_dir, tmp_path) -> Path:
        """The manifest of a passing verify of ``run_dir``, its clusters named."""
        out = tmp_path / "verified"
        assert main(["verify", "--net", str(run_dir / "network.json"),
                     "--data", str(run_dir / "dataset.csv"),
                     "--clusters", str(run_dir / "clusters.json"), "--out", str(out)]) == 0
        return out / "manifest.json"

    # A refusal names the first failing step of: the clusters' check, the
    # read of the rows, the input hashes, the parse of the rows.
    @pytest.mark.parametrize(
        "rerun, clusters, data, message",
        [
            (False, "[", "x0,target\nabc,1\n", "error: invalid cluster JSON in "),
            (True, "[", None, "error: invalid cluster JSON in "),
            (True, None, "x0,target\nabc,1\n",
             "error: input 'data' does not match the SHA-256 the manifest records\n"),
            (True, None, "missing", "error: [Errno 2] No such file or directory: "),
        ],
        ids=["bad-clusters-and-rows", "rerun-changed-rows-bad-clusters",
             "rerun-unparsable-changed-rows", "rerun-missing-rows"],
    )
    def test_the_first_refusal_is_reported(self, run_dir, tmp_path, capsys, clusters_checked,
                                           rerun, clusters, data, message):
        manifest = self.verified(run_dir, tmp_path) if rerun else None
        if clusters is not None:
            (run_dir / "clusters.json").write_text(clusters)
        if data == "missing":
            (run_dir / "dataset.csv").unlink()
        elif data is not None:
            (run_dir / "dataset.csv").write_text(data)
        elif rerun:
            with open(run_dir / "dataset.csv", "a") as rows:
                rows.write("0,0,0,0,0,0,0,0,0,0,1\n")
        out = tmp_path / "v"
        capsys.readouterr()
        argv = (["rerun", str(manifest)] if rerun else
                ["verify", "--net", str(run_dir / "network.json"),
                 "--data", str(run_dir / "dataset.csv")])
        err = rejected_on(clusters_checked, [*argv, "--out", str(out)], out, capsys)
        assert err.startswith(message), err

    def test_a_child_that_ends_without_its_result_exits_two(self, run_dir, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(forking, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_check_stored_clusters", in_child(
            os.getpid(), lambda: os._exit(3), cli._check_stored_clusters))
        out = tmp_path / "v"
        capsys.readouterr()
        err = assert_rejected(
            ["verify", "--net", str(run_dir / "network.json"),
             "--data", str(run_dir / "dataset.csv"), "--out", str(out)],
            out, capsys,
        )
        assert re.fullmatch(
            r"error: the forked child \d+ ended without its result \(wait status 768\)\n", err
        ), err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestVerifyReadsOnlyItsFiles:
    """verify draws nothing at random: its output follows from its files and flags."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("probed") / "run"
        assert main(simulate_args(out, n=250)) == 0
        return out

    def verify_args(self, run_dir, out):
        return ["verify", "--net", str(run_dir / "network.json"),
                "--data", str(run_dir / "dataset.csv"), "--out", str(out)]

    def test_output_does_not_follow_the_seed_variable(self, run_dir, tmp_path, capsys,
                                                      monkeypatch):
        printed = []
        for seed in ("0", "7"):
            monkeypatch.setenv("RELU_PRISM_SEED", seed)
            capsys.readouterr()
            assert main(self.verify_args(run_dir, tmp_path / seed)) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert (tmp_path / "0" / "verify.json").read_bytes() == (
            tmp_path / "7" / "verify.json").read_bytes()

    def test_probes_rows_spread_evenly_from_the_first(self, run_dir, tmp_path, monkeypatch):
        """One probe call receives every probe row, at the fixed step."""
        probed, real_probe = [], cli._jacobian_probe

        def recording_probe(net, U, h):
            probed.append((U.copy(), h))
            return real_probe(net, U, h)

        monkeypatch.setattr(cli, "_jacobian_probe", recording_probe)
        assert main(self.verify_args(run_dir, tmp_path / "v")) == 0
        X = read_dataset_csv(run_dir / "dataset.csv").features
        n, k = 250, 100
        rows = [i * n // k for i in range(k)]
        assert rows[:5] == [0, 2, 5, 7, 10] and rows == sorted(set(rows))
        ((U, h),) = probed
        np.testing.assert_array_equal(U, X[rows])
        assert h == 1e-4
        jacobian = json.loads((tmp_path / "v" / "verify.json").read_text())["jacobian"]
        assert jacobian["samples"] == k == jacobian["checked"] + jacobian["skipped"]

    def test_verify_does_not_import_numpy_random(self, run_dir, tmp_path):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys\n"
            "from relu_prism.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy.random' in sys.modules, file=sys.stderr)\n"
        )
        argv = [sys.executable, "-c", script, *self.verify_args(run_dir, tmp_path / "v")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.stderr == "0 False\n"


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
        cli._write_json(root / "clusters.json",
                        cli._json_text("clusters.json", clusters_to_json(clusters)))
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

    def refused(self, many, tmp_path, capsys, checked, doc, text=None) -> str:
        bad = tmp_path / "clusters.json"
        bad.write_text(json.dumps(doc) if text is None else text)
        out = tmp_path / "v"
        capsys.readouterr()
        return rejected_on(checked, self.verify(many, bad, out), out, capsys)

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
    def test_bad_entry_is_named(self, many, tmp_path, capsys, clusters_checked,
                                bad, key, value, problem):
        doc = json.loads((many / "clusters.json").read_text())
        if value is None:
            del doc[bad][key]
        else:
            doc[bad][key] = value
        if problem is None:
            with pytest.raises(ValueError) as numpy_error:
                np.array(value, dtype=np.float64)
            problem = f"map is not numeric: {numpy_error.value}"
        err = self.refused(many, tmp_path, capsys, clusters_checked, doc)
        assert err == f"error: cluster {bad} {problem}\n"

    NOT_NUMERIC = ("omega", "abc", "map is not numeric: could not convert string to float: 'abc'")
    SHORT = ("pattern", "0" * 23, "pattern has 23 bits, network has 24 hidden units")

    @pytest.mark.parametrize("first, second", [(500, 1100), (1100, 1300)])
    @pytest.mark.parametrize("early, late", [(NOT_NUMERIC, SHORT), (SHORT, NOT_NUMERIC)])
    def test_first_bad_entry_is_named(self, many, tmp_path, capsys, clusters_checked,
                                      first, second, early, late):
        doc = json.loads((many / "clusters.json").read_text())
        doc[first][early[0]] = early[1]
        doc[second][late[0]] = late[1]
        err = self.refused(many, tmp_path, capsys, clusters_checked, doc)
        assert err == f"error: cluster {first} {early[2]}\n"

    def test_a_refused_file_is_parsed_once(self, many, tmp_path, capsys, monkeypatch,
                                           clusters_checked):
        doc = json.loads((many / "clusters.json").read_text())
        doc[500]["omega"] = "abc"
        # Each text parsed, by its SHA-256, kept in a file: a forked child's count too.
        parses, real_loads = tmp_path / "parses.log", json.loads

        def counting_loads(text, **kwargs):
            data = text.encode() if isinstance(text, str) else text
            with open(parses, "a") as log:
                log.write(hashlib.sha256(data).hexdigest() + "\n")
            return real_loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        err = self.refused(many, tmp_path, capsys, clusters_checked, doc)
        assert "cluster 500 map is not numeric" in err
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert parses.read_text().split().count(digest) == 1

    def test_syntax_error_after_a_bad_entry_is_invalid_json(self, many, tmp_path, capsys,
                                                            clusters_checked):
        """The block holding the bad entry is converted while parsing; nothing is raised then."""
        doc = json.loads((many / "clusters.json").read_text())
        doc[500]["omega"] = "abc"
        err = self.refused(many, tmp_path, capsys, clusters_checked, doc,
                           text=json.dumps(doc)[:-1])
        assert err.startswith("error: invalid cluster JSON in "), err

    def test_entry_below_the_top_level_is_refused(self, many, tmp_path, capsys,
                                                  clusters_checked):
        doc = json.loads((many / "clusters.json").read_text())
        doc[3]["note"] = dict(doc[4])
        err = self.refused(many, tmp_path, capsys, clusters_checked, doc)
        assert err.endswith("clusters.json holds a cluster entry below its top-level array\n"), err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"pattern": "0", "omega": [[0.0]], "bias": [0.0]}',
             "must hold a JSON array of clusters"),
            ("[1]", "cluster 0 must carry pattern, omega and bias"),
        ],
    )
    def test_document_of_the_wrong_shape_is_refused(self, many, tmp_path, capsys,
                                                    clusters_checked, text, message):
        err = self.refused(many, tmp_path, capsys, clusters_checked, None, text=text)
        assert message in err, err

    @pytest.mark.parametrize("note", [None, True, "null"])
    def test_accepted_maps_convert_a_block_at_a_time(self, many, tmp_path, monkeypatch,
                                                     clusters_checked, note):
        """No entry is converted alone, also when a boolean or null sits outside the maps."""
        doc = json.loads((many / "clusters.json").read_text())
        if note is not None:
            doc[3]["note"] = note
        stored = tmp_path / "clusters.json"
        stored.write_text(json.dumps(doc))
        # Kept in a file, so that a conversion in a forked child is seen too.
        alone = tmp_path / "alone.log"

        def convert_alone(values):
            with open(alone, "a") as log:
                log.write(f"{values!r}\n")

        monkeypatch.setattr(cli, "_numeric_array", convert_alone)
        before = len(clusters_checked.pids)
        assert main(self.verify(many, stored, tmp_path / "v")) == 0
        assert len(clusters_checked.pids) - before == clusters_checked.forked
        assert not alone.exists()

    def test_empty_list_drops_every_cluster_and_fails(self, many, tmp_path):
        empty = tmp_path / "clusters.json"
        empty.write_text("[]\n")
        assert main(self.verify(many, empty, tmp_path / "v")) == 1
        doc = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert doc["clusters"] == {
            "checked": 0, "max_abs_err": 0.0, "pass": False,
            "mismatch": "cluster 0: the rows make 1361 clusters, the file holds 0",
        }


class TestTamperedClusters:
    """A copy of a run's clusters.json with one thing changed fails verify.

    The stored clusters must be the rows' partition, entry for entry: each
    pattern, statistic and map. Each case draws the entries it changes from
    its own seeded stream, and the mismatch names the first entry changed.
    """

    SEED = 31
    CASES = ("size", "size-as-float", "fraction", "predicted-rate", "target-rate", "omega",
             "bias", "pattern-bit", "drop", "duplicate", "swap")

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """A small run of 26 clusters, most of a few rows."""
        out = tmp_path_factory.mktemp("tampered") / "run"
        assert main(["simulate", "--n", "600", "--epochs", "2", "--seeds", "1",
                     "--out", str(out)]) == 0
        assert len(json.loads((out / "clusters.json").read_text())) == 26
        return out

    @staticmethod
    def tamper(doc: list, case: str, rng) -> int:
        """Change ``doc`` in place as ``case`` says; return the first entry changed."""
        i, j = sorted(rng.choice(len(doc), size=2, replace=False).tolist())
        entry = doc[i]
        if case == "size":
            entry["size"] += 1
        elif case == "size-as-float":
            entry["size"] = float(entry["size"])
        elif case in ("fraction", "predicted-rate", "target-rate"):
            key = {"fraction": "fraction", "predicted-rate": "predicted_positive_rate",
                   "target-rate": "target_positive_rate"}[case]
            entry[key] = float(np.nextafter(entry[key], 2.0))  # the next float up
        elif case == "omega":
            entry["omega"][0][int(rng.integers(len(entry["omega"][0])))] += 1e-3
        elif case == "bias":
            entry["bias"][0] -= 1e-3
        elif case == "pattern-bit":
            k = int(rng.integers(len(entry["pattern"])))
            entry["pattern"] = (entry["pattern"][:k] + "10"[int(entry["pattern"][k])]
                                + entry["pattern"][k + 1:])
        elif case == "drop":
            del doc[i]
        elif case == "duplicate":
            doc.insert(i + 1, dict(entry))
            return i + 1
        else:
            doc[i], doc[j] = doc[j], doc[i]
        return i

    @pytest.mark.parametrize("case", CASES)
    def test_a_changed_copy_fails(self, run_dir, tmp_path, capsys, case):
        doc = json.loads((run_dir / "clusters.json").read_text())
        first = self.tamper(doc, case, np.random.default_rng([self.SEED, self.CASES.index(case)]))
        tampered = tmp_path / "clusters.json"
        tampered.write_text(json.dumps(doc, indent=2) + "\n")
        out = tmp_path / "v"
        capsys.readouterr()
        assert main(["verify", "--net", str(run_dir / "network.json"),
                     "--data", str(run_dir / "dataset.csv"), "--clusters", str(tampered),
                     "--out", str(out)]) == 1
        clusters = json.loads((out / "verify.json").read_text())["clusters"]
        assert not clusters["pass"] and clusters["checked"] == len(doc)
        assert clusters["mismatch"].startswith(f"cluster {first}: "), clusters
        stdout = capsys.readouterr().out
        assert f"clusters: {clusters['mismatch']}\nverify: FAIL\n" in stdout, stdout


class TestVerifyForksTheClusterCheck:
    """verify checks the stored clusters in one forked child while it checks the rows."""

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        return counted_forks(monkeypatch)

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("forked") / "run"
        assert main(simulate_args(out, n=250)) == 0
        return out

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def params(run_dir: Path, clusters: Path) -> dict:
        return {"net": str(run_dir / "network.json"), "data": str(run_dir / "dataset.csv"),
                "tol": 1e-6, "clusters": str(clusters), "jacobian_tol": 1e-4}

    @pytest.mark.parametrize("case, code", [
        ("pass", 0), ("failed-check", 1), ("bad-clusters", 2), ("bad-rows", 2),
        ("missing-rows", 2), ("changed-rows", 2),
    ])
    def test_no_child_is_left(self, run_dir, tmp_path, capsys, forks, case, code):
        copy = tmp_path / "run"
        copy.mkdir()
        for name in ("network.json", "dataset.csv", "clusters.json"):
            (copy / name).write_bytes((run_dir / name).read_bytes())
        argv = ["verify", "--net", str(copy / "network.json"), "--data", str(copy / "dataset.csv")]
        if case == "changed-rows":
            assert main([*argv, "--out", str(tmp_path / "first")]) == 0
            argv = ["rerun", str(tmp_path / "first" / "manifest.json")]
            forks.clear()
        if case in ("failed-check", "bad-clusters"):
            doc = json.loads((copy / "clusters.json").read_text())
            doc[0]["bias"] = [1e9] if case == "failed-check" else "abc"
            (copy / "clusters.json").write_text(json.dumps(doc))
        if case in ("bad-rows", "changed-rows"):
            with open(copy / "dataset.csv", "a") as rows:
                rows.write("0,0,0,0,0,0,0,0,0,0,1\n" if case == "changed-rows" else "abc\n")
        if case == "missing-rows":
            (copy / "dataset.csv").unlink()
        assert main([*argv, "--out", str(tmp_path / "v")]) == code
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_an_interrupt_in_the_parent_kills_the_child(self, run_dir, tmp_path, monkeypatch,
                                                        forks):
        parent = os.getpid()
        monkeypatch.setattr(cli, "_check_stored_clusters", in_child(
            parent, lambda: time.sleep(60), cli._check_stored_clusters))

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_dataset_csv", interrupted)
        statuses, waitpid = [], os.waitpid

        def recorded_waitpid(*args):
            statuses.append(waitpid(*args))
            return statuses[-1]

        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--net", str(run_dir / "network.json"),
                  "--data", str(run_dir / "dataset.csv"), "--out", str(tmp_path / "v")])
        assert time.monotonic() - start < 30
        assert [pid for pid, _ in statuses] == forks and len(forks) == 1
        status = statuses[0][1]
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert not (tmp_path / "v").exists()
        self.assert_no_child_left()

    def test_in_one_process_the_clusters_are_checked_before_the_rows_are_read(
            self, run_dir, tmp_path, monkeypatch, forks):
        """The parse of clusters.json, the one-process peak, ends before dataset.csv is read."""
        monkeypatch.delattr(os, "fork")
        events, read_bytes, check = [], Path.read_bytes, cli._check_stored_clusters

        def recorded_read(path):
            events.append(f"read {path.name}")
            return read_bytes(path)

        def recorded_check(*args):
            result = check(*args)
            events.append("checked clusters")
            return result

        monkeypatch.setattr(Path, "read_bytes", recorded_read)
        monkeypatch.setattr(cli, "_check_stored_clusters", recorded_check)
        assert main(["verify", "--net", str(run_dir / "network.json"),
                     "--data", str(run_dir / "dataset.csv"),
                     "--clusters", str(run_dir / "clusters.json"),
                     "--out", str(tmp_path / "v")]) == 0
        assert events == [
            "read network.json", "read clusters.json", "checked clusters", "read dataset.csv",
        ]
        assert forks == []

    @pytest.mark.parametrize("kind", [SchemaError, FileNotFoundError, IsADirectoryError])
    def test_an_exception_in_the_child_is_raised_in_the_parent(self, run_dir, tmp_path,
                                                               monkeypatch, forks, kind):
        """Its type, message and path are those the check raises in process."""
        clusters = tmp_path / "clusters.json"
        if kind is SchemaError:
            clusters.write_text("[")
        elif kind is IsADirectoryError:
            clusters.mkdir()
        with pytest.raises(kind) as forked:
            cli.run_verify(self.params(run_dir, clusters), tmp_path / "v")
        assert len(forks) == 1
        self.assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        with pytest.raises(kind) as in_process:
            cli.run_verify(self.params(run_dir, clusters), tmp_path / "v")
        assert str(forked.value) == str(in_process.value)
        assert str(clusters) in str(forked.value)
        if kind is not SchemaError:
            assert forked.value.filename == in_process.value.filename == str(clusters)
        assert not (tmp_path / "v").exists()

    def test_outputs_are_those_of_one_process(self, run_dir, tmp_path, capsys, monkeypatch,
                                              forks):
        """Exit code, stdout, stderr and verify.json, with the clusters passing and failing."""
        doc = json.loads((run_dir / "clusters.json").read_text())
        doc[0]["bias"] = [doc[0]["bias"][0] + 1.0]
        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(doc))
        seen = {}
        for way in ("forked", "no-fork"):
            if way == "no-fork":
                monkeypatch.delattr(os, "fork")
            for clusters in (run_dir / "clusters.json", failing):
                out = tmp_path / way / clusters.stem
                capsys.readouterr()
                code = main(["verify", "--net", str(run_dir / "network.json"),
                             "--data", str(run_dir / "dataset.csv"),
                             "--clusters", str(clusters), "--out", str(out)])
                captured = capsys.readouterr()
                seen.setdefault(way, []).append(
                    (code, captured.out, captured.err, (out / "verify.json").read_bytes()))
        assert len(forks) == 2
        assert seen["forked"] == seen["no-fork"]
        assert [code for code, *_ in seen["forked"]] == [0, 1]


class SwappingReads:
    """Counts the opens of watched files for reading; swaps each file after its first.

    Right after the first open, ``os.replace`` puts other bytes at the path.
    The handle already open still reads the first bytes, so a command that
    reads a file once sees only those, and one that reads it again sees the
    others. ``open`` and ``Path.open``, which ``Path.read_bytes`` and
    ``Path.read_text`` call, are both watched. The counts and first bytes
    are kept in files under ``record``, so that the opens of a forked child
    count too.
    """

    def __init__(self, monkeypatch, swaps: dict, record: Path):
        self.swaps = {Path(path).absolute(): other for path, other in swaps.items()}
        record.mkdir()
        self.logs = {path: record / str(i) for i, path in enumerate(self.swaps)}
        real_open, real_path_open = builtins.open, Path.open

        def watch(file, mode):
            path = Path(file).absolute() if isinstance(file, (str, os.PathLike)) else None
            if path not in self.swaps or set(mode) & set("wax+"):
                return
            log = self.logs[path]
            with real_open(log.with_suffix(".opens"), "a") as opens:
                opens.write("open\n")
            if not log.with_suffix(".first").exists():
                with real_open(path, "rb") as first, \
                        real_open(log.with_suffix(".first"), "wb") as kept:
                    kept.write(first.read())
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

    @property
    def opens(self) -> dict:
        return {path: len(log.with_suffix(".opens").read_text().split())
                if log.with_suffix(".opens").exists() else 0
                for path, log in self.logs.items()}

    @property
    def first(self) -> dict:
        return {path: log.with_suffix(".first").read_bytes() for path, log in self.logs.items()
                if log.with_suffix(".first").exists()}


class TestEachInputReadOnce:
    """Each input is read once, and the manifest holds the hash of the bytes parsed."""

    def test_verify_reads_and_hashes_each_input_once(self, tmp_path, monkeypatch,
                                                     clusters_checked):
        run, other = tmp_path / "run", tmp_path / "other"
        assert main(simulate_args(run)) == 0
        assert main(simulate_args(other, n=300, extra=("--hidden", "3"))) == 0
        reference = tmp_path / "reference"
        argv = ["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
                "--clusters", str(run / "clusters.json")]
        assert main([*argv, "--out", str(reference)]) == 0
        names = ("network.json", "dataset.csv", "clusters.json")
        swaps = {run / name: (other / name).read_bytes() for name in names}
        reads = SwappingReads(monkeypatch, swaps, tmp_path / "reads")
        before = len(clusters_checked.pids)
        assert main([*argv, "--out", str(tmp_path / "v")]) == 0
        assert len(clusters_checked.pids) - before == clusters_checked.forked
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
        reads = SwappingReads(monkeypatch, {csv_path: tiny_titanic_csv.read_bytes()},
                              tmp_path / "reads")
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

    def test_cluster_on_test_without_split_is_refused_before_the_csv_is_read(
        self, synthetic_titanic_csv, tmp_path, capsys,
    ):
        """On the command line and in a manifest, before the CSV is read or hashed."""
        line = "error: --cluster-on test requires --test-fraction > 0\n"
        out = tmp_path / "again"
        missing = self.titanic_args(tmp_path / "none.csv", out, extra=("--cluster-on", "test"))
        assert assert_rejected(missing, out, capsys) == line
        csv_path, run = tmp_path / "passengers.csv", tmp_path / "run"
        csv_path.write_bytes(synthetic_titanic_csv.read_bytes())
        assert main(self.titanic_args(csv_path, run)) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["args"]["cluster_on"] = "test"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        csv_path.write_bytes(synthetic_titanic_csv.read_bytes() + b"\n")  # a changed hash
        capsys.readouterr()
        assert assert_rejected(["rerun", str(path), "--out", str(out)], out, capsys) == line

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


def test_out_holding_a_nul_character_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def trained(*args):
        raise AssertionError("train_seeds was called")

    monkeypatch.setattr(cli, "train_seeds", trained)
    out = tmp_path / "run\0"
    err = assert_rejected(simulate_args(out), out, capsys)
    assert err == f"error: --out {str(out)!r} holds a NUL character\n", err


def test_out_that_is_a_dangling_symlink_is_refused_before_any_work(tmp_path, capsys):
    """``Path.exists`` follows the link, but ``mkdir`` cannot replace it."""
    out = tmp_path / "link"
    out.symlink_to(tmp_path / "nowhere")
    err = assert_rejected(simulate_args(out), out, capsys)  # no seed line: nothing trained
    assert err == f"error: --out {out}: {out} is not a directory\n", err
    assert out.is_symlink() and not (tmp_path / "nowhere").exists()


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


def test_run_bytes_do_not_follow_blas_threads_or_fork(tmp_path):
    """simulate and its verify under one and two BLAS threads, and without os.fork.

    Every artifact and stdout is byte-compared; the verify manifest is left
    out, as it records the paths of its inputs.
    """
    src = str(Path(cli.__file__).parents[1])
    script = (
        "import os, sys\n"
        "from relu_prism.cli import main\n"
        "if sys.argv[1] == 'no-fork':\n"
        "    del os.fork\n"
        "run, checked = sys.argv[2:]\n"
        "sys.exit(main(['simulate', '--n', '400', '--epochs', '3', '--seeds', '1..2',\n"
        "               '--out', run])\n"
        "         or main(['verify', '--net', os.path.join(run, 'network.json'),\n"
        "                  '--data', os.path.join(run, 'dataset.csv'), '--out', checked]))\n"
    )
    seen = {}
    for way, threads in (("one-thread", "1"), ("two-threads", "2"), ("no-fork", "2")):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run, checked = tmp_path / way / "run", tmp_path / way / "v"
        proc = subprocess.run([sys.executable, "-c", script, way, str(run), str(checked)],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), (way, proc.stderr)
        seen[way] = {"stdout": proc.stdout, "verify.json": (checked / "verify.json").read_bytes(),
                     **{name: (run / name).read_bytes() for name in RUN_FILES}}
    assert seen["one-thread"] == seen["two-threads"] == seen["no-fork"]


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



def count_calls(monkeypatch, log: Path, *functions):
    """Counts the calls of each function, by name, at every relu_prism module binding.

    The package imports with ``from .x import f``, so one function can be
    bound in several modules; every binding that is the original is wrapped.
    Each call is a line of the file ``log``, so that a forked child's calls
    count too. Returns a function that reads the counts.
    """
    modules = [module for name, module in list(sys.modules.items())
               if name == "relu_prism" or name.startswith("relu_prism.")]

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with open(log, "a") as calls:
                calls.write(fn.__name__ + "\n")
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        wrapper = counted(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)

    def calls() -> dict:
        names = log.read_text().split() if log.exists() else []
        return {fn.__name__: names.count(fn.__name__) for fn in functions}

    return calls


@pytest.mark.parametrize("command", ["simulate", "titanic", "verify"])
def test_one_forward_pass_and_one_collapse_over_the_target_rows(
    command, synthetic_titanic_csv, tmp_path, monkeypatch
):
    """The clusters and the exactness check read one pattern table of the rows.

    verify holds the stored clusters, read in a forked child, to that table
    too. Its other forward pass is the Jacobian probe's, over every checked row's stencil.
    """
    out, forks = tmp_path / "run", []
    if command == "verify":
        run = tmp_path / "sim"
        assert main(simulate_args(run)) == 0
        forks = counted_forks(monkeypatch)
        argv = ["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
                "--clusters", str(run / "clusters.json"), "--out", str(out)]
    else:
        argv = simulate_args(out) if command == "simulate" else [
            "titanic", "--csv", str(synthetic_titanic_csv), "--epochs", "1",
            "--test-fraction", "0", "--out", str(out),
        ]
    calls = count_calls(monkeypatch, tmp_path / "calls.log", forward_batch, collapse_batch)
    assert main(argv) == 0
    if command == "verify":
        assert len(forks) == 1
    assert calls() == {"forward_batch": 2 if command == "verify" else 1, "collapse_batch": 1}

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


# SHA-256 of verify.json and of stdout for verify on two runs, recorded on
# the platform of GOLDEN_SHA256: a small simulate run, and a random 16,8 net
# over Gaussian rows and one zero row, with its clusters, whose probes are
# both checked and skipped.
VERIFY_SHA256 = {
    "simulate": {
        "verify.json": "a1b498fc671dd48e29b9830e7955e1470ac655bbb87e4fdc7f65bd2d602807d3",
        "stdout": "c09d8c3287a0fbbb6f687741e4b7712aabd24f246a437fd984200dc2b98e0b53",
    },
    "regions": {
        "verify.json": "4fe7654c1f74669b8a6554dd8a5042ae5c2fb274da923d16e27a5e11f8d7e459",
        "stdout": "00d4a763e066ef06880d5321276d5a75ba5629dfbdf396c7ce18689e245ccc86",
    },
}


@pytest.mark.parametrize("source", ["simulate", "regions"])
def test_verify_bytes_are_pinned(source, tmp_path, capsys):
    run = tmp_path / "run"
    if source == "simulate":
        assert main(simulate_args(run)) == 0
    else:
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 10))
        # The net's biases are zero, so every first-layer unit sits on its kink
        # at the zero row: r = 0, and its probe is skipped.
        X[0] = 0.0
        rows = Dataset(X, rng.integers(0, 2, 300), [f"x{i}" for i in range(10)])
        net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
        run.mkdir()
        save_network(net, run / "network.json")
        (run / "dataset.csv").write_text(dataset_to_csv(rows))
        (run / "clusters.json").write_text(
            json.dumps(clusters_to_json(partition(net, rows)), indent=2) + "\n")
    out = tmp_path / "v"
    capsys.readouterr()
    assert main(["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    if source == "regions":
        jacobian = json.loads((out / "verify.json").read_text())["jacobian"]
        assert jacobian["checked"] and jacobian["skipped"]
    got = {"verify.json": hashlib.sha256((out / "verify.json").read_bytes()).hexdigest(),
           "stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    assert got == VERIFY_SHA256[source]


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
            assert main(["simulate", *size, "--seeds", str(seed), "--out", str(single)]) == 0
            saved = load_network(single / "network.json"), read_dataset_csv(single / "dataset.csv")
            assert train_accuracy == accuracy(*saved), seed
        saved = load_network(sweep / "network.json"), read_dataset_csv(sweep / "dataset.csv")
        assert summary["train_accuracy"] == accuracy(*saved)
