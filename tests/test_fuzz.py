"""A seeded fuzzer over the five inputs a user hands the command line.

Each mutant is a byte mutation (a flipped bit, a deleted or inserted run of
bytes, a truncation or a spliced chunk) or a structure-aware one: in a JSON
document one value becomes null, a bool, 2**70, 1e308 or nested lists, a key
is dropped or a list entry duplicated; in a CSV one cell becomes such a
value, a column is dropped or a row duplicated. The inputs are the
``network.json``, ``dataset.csv`` and ``clusters.json`` that ``verify``
reads, a ``verify`` manifest that ``rerun`` replays, and the synthetic
passenger CSV that ``titanic`` trains on for one epoch. Only a verify
manifest is mutated, so no mutant generates rows or trains at a mutated
size.

Every mutant runs in process through ``main``. It passes when its exit code
is in {0, 1, 2, 3}, no exception escapes ``main`` (the suite turns a numpy
warning into one) and an exit of 2 or 3 comes with exactly one stderr line.
The seed and the count were fixed before the first run.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from relu_prism.cli import main

SEED = 27
COUNT = 200
INPUTS = ("network.json", "dataset.csv", "clusters.json", "manifest.json", "passengers.csv")
# The values a structure-aware mutation puts in place of one value.
VALUES = (None, True, False, 2**70, 1e308, [[[]]], [[1.0], [[2.0]]])


def byte_mutant(rng, data: bytes) -> tuple[str, bytes]:
    kind = rng.choice(["flip", "delete", "insert", "truncate", "splice"])
    at = int(rng.integers(len(data)))
    run = int(rng.integers(1, 9))
    if kind == "flip":
        return kind, data[:at] + bytes([data[at] ^ (1 << int(rng.integers(8)))]) + data[at + 1:]
    if kind == "delete":
        return kind, data[:at] + data[at + run:]
    if kind == "insert":
        return kind, data[:at] + rng.integers(256, size=run, dtype=np.uint8).tobytes() + data[at:]
    if kind == "truncate":
        return kind, data[:at]
    start = int(rng.integers(len(data)))
    return kind, data[:at] + data[start:start + 8 * run] + data[at:]


def json_paths(doc, path=()):
    """The path of every value in ``doc``, the document itself first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, (*path, key))


def at_path(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def json_mutant(rng, data: bytes) -> tuple[str, bytes]:
    doc = json.loads(data)
    paths = list(json_paths(doc))
    kind = rng.choice(["replace", "drop", "duplicate"])
    if kind == "drop":
        objects = [value for _, value in paths if isinstance(value, dict) and value]
        obj = objects[int(rng.integers(len(objects)))]
        del obj[list(obj)[int(rng.integers(len(obj)))]]
    elif kind == "duplicate":
        lists = [value for _, value in paths if isinstance(value, list) and value]
        items = lists[int(rng.integers(len(lists)))]
        items.insert(int(rng.integers(len(items) + 1)), items[int(rng.integers(len(items)))])
    else:
        path, _ = paths[1 + int(rng.integers(len(paths) - 1))]
        at_path(doc, path[:-1])[path[-1]] = VALUES[int(rng.integers(len(VALUES)))]
    return kind, json.dumps(doc, indent=2).encode()


def csv_mutant(rng, data: bytes) -> tuple[str, bytes]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    kind = rng.choice(["replace", "drop", "duplicate"])
    i = int(rng.integers(len(rows)))
    if kind == "drop":
        j = int(rng.integers(len(rows[0])))
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif kind == "duplicate":
        rows.insert(int(rng.integers(len(rows) + 1)), rows[i])
    else:
        value = VALUES[int(rng.integers(len(VALUES)))]
        rows[i][int(rng.integers(len(rows[i])))] = json.dumps(value)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return kind, text.getvalue().encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, synthetic_titanic_csv) -> tuple:
    """A small run's files, and its verify manifest with paths relative to them."""
    base = tmp_path_factory.mktemp("fuzz")
    run = base / "run"
    assert main(["simulate", "--n", "300", "--epochs", "1", "--seeds", "1",
                 "--out", str(run)]) == 0
    assert main(["verify", "--net", str(run / "network.json"), "--data", str(run / "dataset.csv"),
                 "--out", str(base / "v")]) == 0
    manifest = json.loads((base / "v" / "manifest.json").read_text())
    # Relative paths keep the manifest's bytes, and so each mutant, the
    # same wherever the suite runs; the mutants run from ``run``.
    manifest["args"].update(net="network.json", data="dataset.csv", clusters="clusters.json")
    files = {name: (run / name).read_bytes() for name in INPUTS[:3]}
    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True).encode()
    files["passengers.csv"] = synthetic_titanic_csv.read_bytes()
    return run, files


def test_no_mutant_escapes_the_input_contract(inputs, tmp_path, capsys, monkeypatch):
    run, files = inputs
    monkeypatch.chdir(run)
    rng = np.random.default_rng(SEED)
    escapes = []
    for i in range(COUNT):
        name = INPUTS[i % len(INPUTS)]
        data = files[name]
        if rng.random() < 0.5:
            kind, mutant = byte_mutant(rng, data)
        else:
            kind, mutant = (json_mutant if name.endswith(".json") else csv_mutant)(rng, data)
        path, out = tmp_path / f"{i}-{name}", tmp_path / f"out{i}"
        path.write_bytes(mutant)
        if name == "manifest.json":
            argv = ["rerun", str(path)]
        elif name == "passengers.csv":
            argv = ["titanic", "--csv", str(path), "--epochs", "1", "--seeds", "0"]
        else:
            given = {"network.json": "--net", "dataset.csv": "--data", "clusters.json": "--clusters"}
            argv = ["verify", *[arg for other, flag in given.items()
                                for arg in (flag, str(path) if other == name else other)]]
        capsys.readouterr()
        try:
            code = main([*argv, "--out", str(out)])
        except (Exception, SystemExit) as exc:
            escapes.append((i, name, kind, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or (code in (2, 3) and err.count("\n") != 1):
            escapes.append((i, name, kind, code, err))
    assert not escapes, escapes
