"""A seeded fuzzer over the five inputs a user hands the command line.

Each mutant is a byte mutation (a flipped bit, a deleted or inserted run of
bytes, a truncation or a spliced chunk) or a structure-aware one: in a JSON
document one value becomes null, a bool, 2**70, 1e308 or nested lists, a key
is dropped, a list entry duplicated or a NUL character put into one string
(one of a manifest's paths among them) or, where there is none, into one
key; in a CSV one cell becomes such a
value, a column is dropped or a row duplicated. The inputs are the
``network.json``, ``dataset.csv`` and ``clusters.json`` that ``verify``
reads, a ``verify`` manifest that ``rerun`` replays, and the synthetic
passenger CSV that ``titanic`` trains on for one epoch. Only a verify
manifest is mutated, so no mutant generates rows or trains at a mutated
size.

Every mutant runs in process through ``main``. It passes when its exit code
is in {0, 1, 2, 3}, no exception escapes ``main`` (the suite turns a numpy
warning into one) and an exit of 2 or 3 comes with exactly one stderr line.
The seed and the count were fixed before the first run. Six raw-text
mutants more put an integer literal of 5,001 digits, past Python's limit
for converting a string to an int, in place of one value of
``network.json``, ``clusters.json`` or the manifest; each must exit 2 with
one line.

A second fuzzer mutates valid command lines of all four commands: one
flag's value becomes a junk token, a flag is dropped or duplicated, or an
unknown flag is inserted anywhere. It never inserts ``-h`` or ``--version``,
which print and exit by design. A mutant passes by the same rule, a
``SystemExit`` counting as an escape. Its seed and count were also fixed
before its first run.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np
import pytest

from relu_prism.cli import main

SEED = 27
COUNT = 200
ARGV_SEED = 30
ARGV_COUNT = 150
INPUTS = ("network.json", "dataset.csv", "clusters.json", "manifest.json", "passengers.csv")
# The values a structure-aware mutation puts in place of one value.
VALUES = (None, True, False, 2**70, 1e308, [[[]]], [[1.0], [[2.0]]])
# The tokens an argv mutation puts in place of a flag's value, and the flags
# it inserts. None of them is a valid value that would make a mutant slow.
JUNK = ("", "abc", "-1", "0", "nan", "1e999", "x,y", "1..", "..", "1,1", "-", "--", "\u00e9",
        str(2**70), "--n", "0..1000000000")
UNKNOWN = ("--bogus", "--seed", "-x", "--jacobian-samples", "--jacobian-step", "--no-clusters=1",
           "--out-dir")


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
    kind = rng.choice(["replace", "drop", "duplicate", "nul"])
    strings = [path for path, value in paths if isinstance(value, str)]
    if kind == "nul" and strings:
        path = strings[int(rng.integers(len(strings)))]
        text = at_path(doc, path)
        at = int(rng.integers(len(text) + 1))
        at_path(doc, path[:-1])[path[-1]] = text[:at] + "\0" + text[at:]
    elif kind in ("drop", "nul"):
        objects = [value for _, value in paths if isinstance(value, dict) and value]
        obj = objects[int(rng.integers(len(objects)))]
        key = list(obj)[int(rng.integers(len(obj)))]
        value = obj.pop(key)
        if kind == "nul":
            obj[key + "\0"] = value
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


def mutant_argv(name: str, path) -> list:
    """The command line that reads the mutant at ``path`` in place of input ``name``."""
    if name == "manifest.json":
        return ["rerun", str(path)]
    if name == "passengers.csv":
        return ["titanic", "--csv", str(path), "--epochs", "1", "--seeds", "0"]
    given = {"network.json": "--net", "dataset.csv": "--data", "clusters.json": "--clusters"}
    return ["verify", *[arg for other, flag in given.items()
                        for arg in (flag, str(path) if other == name else other)]]


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
        argv = mutant_argv(name, path)
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


# An integer literal of more digits than Python converts (4,300 by default):
# json.loads raises a plain ValueError for it, not a JSONDecodeError. Such
# an int cannot pass through json.dumps, so it is put into the raw text.
HUGE_INTEGER = b"1" + b"0" * 5000
# How each JSON input is named in the refusal of its parse.
NOUNS = {"network.json": "network", "clusters.json": "cluster", "manifest.json": "manifest"}


@pytest.mark.parametrize("name, key", [
    ("network.json", b'"w"'), ("network.json", b'"b"'), ("clusters.json", b'"omega"'),
    ("clusters.json", b'"size"'), ("manifest.json", b'"tol"'), ("manifest.json", b'"data"'),
])
def test_an_integer_past_the_digit_limit_exits_two(inputs, tmp_path, capsys, monkeypatch,
                                                   name, key):
    """The first value after ``key`` becomes the integer, in the raw text of the input."""
    run, files = inputs
    monkeypatch.chdir(run)
    mutant, count = re.subn(re.escape(key) + rb'(:[\s\[]*)(-?[0-9][0-9.eE+-]*|"[^"]*")',
                            key + rb"\g<1>" + HUGE_INTEGER, files[name], count=1)
    assert count == 1
    path, out = tmp_path / name, tmp_path / "out"
    path.write_bytes(mutant)
    capsys.readouterr()
    assert main([*mutant_argv(name, path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {NOUNS[name]} JSON in ") and err.count("\n") == 1, err
    assert "4300" in err and not out.exists()


def argv_mutant(rng, groups: list) -> tuple[str, list]:
    """One mutant of a command line given as groups: the command, then each flag with its value."""
    groups = [list(group) for group in groups]
    flags = [i for i, group in enumerate(groups) if group[0].startswith("--")]
    kind = rng.choice(["junk", "drop", "duplicate", "unknown"])
    if kind == "junk":
        valued = [i for i in flags if len(groups[i]) == 2]
        groups[valued[int(rng.integers(len(valued)))]][1] = JUNK[int(rng.integers(len(JUNK)))]
    elif kind == "drop":
        del groups[flags[int(rng.integers(len(flags)))]]
    elif kind == "duplicate":
        copy = groups[flags[int(rng.integers(len(flags)))]]
        groups.insert(1 + int(rng.integers(len(groups))), copy)
    argv = [token for group in groups for token in group]
    if kind == "unknown":
        argv.insert(int(rng.integers(len(argv) + 1)), UNKNOWN[int(rng.integers(len(UNKNOWN)))])
    return kind, argv


def test_no_command_line_mutant_escapes_the_input_contract(inputs, synthetic_titanic_csv,
                                                           tmp_path, capsys, monkeypatch):
    run, files = inputs
    manifest = json.loads(files["manifest.json"])
    manifest["args"].update({key: str(run / manifest["args"][key])
                             for key in ("net", "data", "clusters")})
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    # A junk --out such as "abc" is made here.
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out")
    bases = [
        [["simulate"], ["--n", "300"], ["--data-seed", "5"], ["--seeds", "1"], ["--epochs", "1"],
         ["--lr", "0.01"], ["--batch-size", "100"], ["--reg", "0.02"], ["--hidden", "4,2"],
         ["--normalization", "raw"], ["--tol", "1e-6"], ["--out", out]],
        [["titanic"], ["--csv", str(synthetic_titanic_csv)], ["--test-fraction", "0.25"],
         ["--split-seed", "1"], ["--cluster-on", "test"], ["--seeds", "0"], ["--epochs", "1"],
         ["--hidden", "3"], ["--normalization", "max_abs"], ["--out", out]],
        [["verify"], ["--net", str(run / "network.json")], ["--data", str(run / "dataset.csv")],
         ["--clusters", str(run / "clusters.json")], ["--tol", "1e-6"],
         ["--jacobian-tol", "1e-4"], ["--out", out]],
        [["verify"], ["--net", str(run / "network.json")], ["--data", str(run / "dataset.csv")],
         ["--no-clusters"], ["--out", out]],
        [["rerun"], [str(manifest_path)], ["--out", out]],
    ]
    rng = np.random.default_rng(ARGV_SEED)
    escapes = []
    for i in range(ARGV_COUNT):
        kind, argv = argv_mutant(rng, bases[i % len(bases)])
        argv = [f"{out}{i}" if token == out else token for token in argv]
        capsys.readouterr()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            escapes.append((i, kind, argv, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or (code in (2, 3) and err.count("\n") != 1):
            escapes.append((i, kind, argv, code, err))
    assert not escapes, escapes
