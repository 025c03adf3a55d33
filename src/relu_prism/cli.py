"""Command-line pipeline: train, partition, explain, verify, reproduce.

Four subcommands:

  simulate   generate the Boolean dataset, train, partition, report
  titanic    same pipeline on a Kaggle-format Titanic train csv
  verify     audit saved artifacts: affine exactness, Jacobian agreement,
             and consistency of stored cluster maps with the network
  rerun      re-execute a previous run from its manifest

Every artifact-writing command stores a manifest capturing the normalized
arguments (minus the output directory) and input hashes, so `rerun` can
reproduce the run byte for byte on the same platform. Exit codes: 0 success,
1 verification failure, 2 bad input or schema, 3 training divergence, 141
stdout closed by its reader (the shell's status for SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .affine import _pattern_table, _verify_table, collapse_batch, jacobian_check, verify_affine
from .data import (
    Dataset,
    _write_dataset_csv,
    gen_boolean,
    parse_dataset_csv,
    parse_titanic_csv,
    split,
)
from .errors import ChildLostError, InputError, SchemaError, TrainingDivergedError
from .explain import NORMALIZATIONS, feature_importance, render_report
from .network import (
    _leaf_types, _numeric_array, bitstrings_to_masks, parse_network_json, save_network,
)
from .partition import _clusters, clusters_to_json
from .train import TrainConfig, _fork, accuracy, history_to_csv, train_seeds

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_PIPE = 141

# Which equally-good solution training lands in depends on the interaction of
# the data draw with the shuffle stream. This dataset seed makes the default
# sweep land in the canonical three-cluster solution: one all-inactive
# constant cluster plus one cluster per conjunction of the target formula.
DEFAULT_DATA_SEED = 5


def parse_seeds(text: str) -> list[int]:
    """Accept '3', '1,2,5' or an inclusive range '1..5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            seeds = list(range(int(lo_text), int(hi_text) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError):
        raise InputError(f"cannot parse seeds {text!r}")
    if not seeds:
        raise InputError(f"no seeds in {text!r}")
    return seeds


def parse_hidden(text: str) -> list[int]:
    try:
        widths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"cannot parse hidden widths {text!r}")
    if not widths:
        raise InputError("hidden widths must be non-empty")
    return widths


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dataset_hash(dataset: Dataset) -> str:
    """SHA-256 of the feature bytes, then the target bytes, read in place."""
    digest = hashlib.sha256(dataset.features.data)
    digest.update(dataset.targets.data)
    return digest.hexdigest()


def _json_text(name: str, doc, sort_keys: bool = False) -> str:
    """``doc`` as the strict JSON text of file ``name``; a NaN or infinity is refused."""
    try:
        return json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"{name} would hold a non-finite number: {exc}") from exc


def _write_json(path: Path, text: str) -> None:
    """Write the JSON ``text`` of `_json_text` and its final newline."""
    # Written in two pieces: ``text + "\n"`` would copy the whole document.
    with path.open("w") as out:
        out.write(text)
        out.write("\n")


def _check_inputs(recorded: dict | None, hashes: dict) -> None:
    """On a rerun, refuse any input whose SHA-256 is not the one the manifest records.

    ``recorded`` is None on a fresh run. An input that only one of the two
    names is refused too.
    """
    if recorded is None:
        return
    for name in sorted(recorded.keys() | hashes.keys()):
        if recorded.get(name) != hashes.get(name):
            raise InputError(f"input {name!r} does not match the SHA-256 the manifest records")


def _manifest_text(command: str, params: dict, input_hashes: dict, outputs: list[str]) -> str:
    return _json_text(
        "manifest.json",
        {
            "tool": "relu-prism",
            "version": __version__,
            "command": command,
            "args": params,
            "input_hashes": input_hashes,
            "outputs": sorted(outputs),
        },
        sort_keys=True,
    )


_RUN_OUTPUTS = [
    "dataset.csv", "network.json", "history.csv", "clusters.json",
    "importance.csv", "verify.json", "summary.json", "manifest.json",
]


def _run_experiment(command: str, params: dict, out: Path, train_set: Dataset,
                    target: Dataset, hashes: dict, note, fields) -> int:
    """The pipeline of simulate and titanic: train, partition, explain, verify, write.

    Trains ``train_set`` for every seed at once and keeps the best run:
    highest accuracy, ties to the lowest seed. Clusters ``target`` by the best
    network's activation patterns. ``note(net, history)`` gives the tail of
    each seed's stdout line, ``fields(net, clusters)`` the command's own
    ``summary.json`` fields. The cluster lines are printed once every
    artifact is written, so a closed stdout leaves a whole run.
    """
    config = TrainConfig(
        hidden_widths=tuple(params["hidden"]), learning_rate=params["lr"],
        epochs=params["epochs"], batch_size=params["batch_size"], activity_reg_coeff=params["reg"],
    )
    runs, seeds = [], params["seeds"]
    for seed, (net, history) in zip(seeds, train_seeds(train_set, config, seeds)):
        runs.append((seed, net, history))
        print(f"seed {seed}: train_accuracy={history.accuracies[-1]:.4f}{note(net, history)}")
    best_seed, net, history = max(runs, key=lambda run: (run[2].accuracies[-1], -run[0]))
    print(f"best seed {best_seed}: train_accuracy={history.accuracies[-1]:.4f}")

    # One forward pass, grouping and collapse over the target rows serves
    # both the clusters and the exactness check.
    table = _pattern_table(net, target.features)
    clusters = _clusters(net, table, target)
    reports = [
        feature_importance(c, target.feature_names, params["normalization"], cluster_id=i)
        for i, c in enumerate(clusters)
    ]
    report = _verify_table(target.features, table, params["tol"])
    summary = {
        "command": command,
        "per_seed": [
            {"seed": s, "train_accuracy": h.accuracies[-1], "final_loss": h.losses[-1]}
            for s, _, h in runs
        ],
        "best_seed": best_seed,
        "train_accuracy": history.accuracies[-1],
        "n_clusters": len(clusters),
        "verify_pass": report.passed,
        **fields(net, clusters),
    }
    # Every JSON text is built before the directory is made, so a refused
    # non-finite number leaves no output behind.
    texts = {
        "clusters.json": _json_text("clusters.json", clusters_to_json(clusters)),
        "verify.json": _json_text("verify.json", {"affine": report.to_dict()}, sort_keys=True),
        "summary.json": _json_text("summary.json", summary, sort_keys=True),
        "manifest.json": _manifest_text(command, params, hashes, _RUN_OUTPUTS),
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_dataset_csv(target, out / "dataset.csv")
    save_network(net, out / "network.json")
    (out / "history.csv").write_text(history_to_csv(history))
    _write_json(out / "clusters.json", texts.pop("clusters.json"))
    (out / "importance.csv").write_text(render_report(clusters, reports, "csv"))
    for name, text in texts.items():
        _write_json(out / name, text)
    for i, c in enumerate(clusters):
        stats = c.stats
        constant = " constant" if not c.affine.omega.any() else ""
        print(
            f"cluster {i}: pattern={c.pattern.bitstring or '-'} size={stats.size} "
            f"fraction={stats.fraction:.4f} predicted_rate={stats.predicted_positive_rate:.3f} "
            f"target_rate={stats.target_positive_rate:.3f}{constant}"
        )
    print(f"verify: max_abs_err={report.max_abs_err:.3e} pass={report.passed}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def run_simulate(params: dict, out: Path, recorded: dict | None = None) -> int:
    dataset = gen_boolean(params["n"], params["data_seed"])
    hashes = {"dataset": _dataset_hash(dataset)}
    _check_inputs(recorded, hashes)
    return _run_experiment(
        "simulate", params, out, dataset, dataset, hashes,
        note=lambda net, history: f" final_loss={history.losses[-1]:.4f}",
        fields=lambda net, clusters: {
            "cluster_fractions": [c.stats.fraction for c in clusters],
            "has_all_inactive": any("1" not in c.pattern.bitstring for c in clusters),
        },
    )


def run_titanic(params: dict, out: Path, recorded: dict | None = None) -> int:
    csv_path = Path(params["csv"])
    raw = csv_path.read_bytes()
    hashes = {"csv": _sha256(raw)}
    _check_inputs(recorded, hashes)
    full = parse_titanic_csv(raw, csv_path)
    if params["test_fraction"] > 0.0:
        test_set, train_set = split(full, params["test_fraction"], params["split_seed"])
    else:
        test_set, train_set = None, full
    target = {"train": train_set, "test": test_set, "all": full}[params["cluster_on"]]
    if target is None:
        raise InputError("--cluster-on test requires --test-fraction > 0")

    def note(net, history):
        return "" if test_set is None else f" test_accuracy={accuracy(net, test_set):.4f}"

    def entry(cluster):
        stats = cluster.stats
        return {
            "pattern": cluster.pattern.bitstring,
            "fraction": stats.fraction,
            "predicted_positive_rate": stats.predicted_positive_rate,
            "target_positive_rate": stats.target_positive_rate,
            "predicted_purity": max(
                stats.predicted_positive_rate, 1.0 - stats.predicted_positive_rate
            ),
        }

    def fields(net, clusters):
        return {
            "n_rows": full.n_rows,
            "survival_rate": float(full.targets.mean()),
            "test_accuracy": None if test_set is None else accuracy(net, test_set),
            "clusters": [entry(c) for c in clusters],
        }

    return _run_experiment("titanic", params, out, train_set, target, hashes, note, fields)


# The keys that make a JSON object a cluster entry for verify.
_ENTRY_KEYS = frozenset(("pattern", "omega", "bias"))
# Entries whose float lists become arrays in one conversion.
_MAP_BLOCK = 1024
# What each cluster entry parses to under ``_StoredMaps``.
_ENTRY = object()


class _StoredMaps:
    """``json`` object hook: keep each cluster entry's pattern, and its map as
    arrays converted ``_MAP_BLOCK`` entries at a time.

    Each entry parses to ``_ENTRY``. Only one block's float lists are alive at
    a time. A block that does not convert to numeric maps of ``shape``, or
    that holds a boolean, is converted one entry at a time: an entry whose
    map is not numeric, or not of ``shape``, is recorded, with NaN in its
    place so that the test for finite maps refuses it. A block is searched
    for booleans only if ``booleans`` says the document may hold one. The
    hook never raises, so a syntax error later in the document is still
    reported as one.
    """

    def __init__(self, shape: tuple, booleans: bool = True):
        self.shape, self.booleans = shape, booleans
        self.patterns = []
        # The converted blocks, after an empty one: no entries make (0, ...) maps.
        self.omegas, self.biases = [np.empty((0, *shape))], [np.empty((0, shape[0]))]
        self.pending_omegas, self.pending_biases = [], []
        # Why each unusable entry's map is not numeric, and the entries of the wrong shape.
        self.not_numeric, self.misshapen = {}, set()

    def __call__(self, obj: dict):
        if not _ENTRY_KEYS <= obj.keys():
            return obj
        self.patterns.append(obj["pattern"])
        self.pending_omegas.append(obj["omega"])
        self.pending_biases.append(obj["bias"])
        if len(self.pending_omegas) == _MAP_BLOCK:
            self._convert()
        return _ENTRY

    def _convert(self) -> None:
        omegas, biases = self.pending_omegas, self.pending_biases
        self.pending_omegas, self.pending_biases = [], []
        n, shape = len(omegas), self.shape
        try:
            # The dtype is inferred, not given: numpy would parse a string such as "0.25".
            omega, bias = np.array(omegas), np.array(biases)
        except (TypeError, ValueError, OverflowError):
            omega = bias = np.empty(0)
        if not (omega.shape == (n, *shape) and bias.shape == (n, shape[0])
                and omega.dtype.kind in "iuf" and bias.dtype.kind in "iuf"
                # true beside numbers infers as a number.
                and not (self.booleans and bool in _leaf_types([omegas, biases]))):
            omega, bias = np.full((n, *shape), np.nan), np.full((n, shape[0]), np.nan)
            first = len(self.patterns) - n
            for j in range(n):
                try:
                    one_omega, one_bias = _numeric_array(omegas[j]), _numeric_array(biases[j])
                except (TypeError, ValueError, OverflowError) as exc:
                    self.not_numeric[first + j] = str(exc)
                    continue
                if one_omega.shape == shape and one_bias.shape == shape[:1]:
                    omega[j], bias[j] = one_omega, one_bias
                else:
                    self.misshapen.add(first + j)
        self.omegas.append(omega.astype(np.float64, copy=False))
        self.biases.append(bias.astype(np.float64, copy=False))

    def checked(self, doc, clusters_path: Path, total: int) -> tuple:
        """The stored patterns and maps of ``doc``; a bad entry is refused by its index.

        Each check runs once over all entries: each is a top-level entry, its
        map numeric, its pattern a 0/1 string of ``total`` bits and its map
        finite. Only if that refuses does one loop over the same entries name
        the first bad one. Within an entry the checks run in that order, with
        the map's shapes checked after its pattern.
        """
        if type(doc) is not list:
            raise SchemaError(f"{clusters_path} must hold a JSON array of clusters")
        patterns = self.patterns
        if doc.count(_ENTRY) != len(patterns):
            raise SchemaError(f"{clusters_path} holds a cluster entry below its top-level array")
        if self.pending_omegas:
            self._convert()
        omegas, biases = np.concatenate(self.omegas), np.concatenate(self.biases)
        if (len(doc) == len(patterns) and not set(map(type, patterns)) - {str}
                and not set(map(len, patterns)) - {total}
                and not set("".join(patterns)) - {"0", "1"}
                and np.isfinite(omegas).all() and np.isfinite(biases).all()):
            return patterns, omegas, biases
        for i, item in enumerate(doc):
            if item is not _ENTRY:
                raise SchemaError(f"cluster {i} must carry pattern, omega and bias")
            if i in self.not_numeric:
                raise SchemaError(f"cluster {i} map is not numeric: {self.not_numeric[i]}")
            bits = patterns[i]
            if not isinstance(bits, str) or set(bits) - {"0", "1"}:
                raise SchemaError(f"cluster {i} pattern must be a 0/1 string")
            if len(bits) != total:
                raise SchemaError(
                    f"cluster {i} pattern has {len(bits)} bits, network has {total} hidden units"
                )
            if i in self.misshapen:
                raise SchemaError(f"cluster {i} map shapes do not match the network")
            if not (np.isfinite(omegas[i]).all() and np.isfinite(biases[i]).all()):
                raise SchemaError(f"cluster {i} map is not finite")
        return patterns, omegas, biases


def _check_stored_clusters(net, clusters_path: Path, tol: float) -> tuple[dict, str]:
    """Recompute every stored cluster's map from the network and compare.

    Returns the check's ``verify.json`` entry and the SHA-256 of the bytes
    parsed, from one read of the file. The file is parsed once, through
    ``_StoredMaps``, whether it is accepted or refused: its entries are
    checked all at once, and only when that refuses are the same parsed
    entries checked one at a time, to name the first bad one. The stored
    bitstrings become one mask matrix, collapsed in one batch.
    """
    raw = clusters_path.read_bytes()
    digest = _sha256(raw)
    total = sum(net.hidden_widths)
    # No key that clusters_to_json writes holds a "u" or an "l", and both
    # true and false do: a file without either letter holds no boolean.
    maps = _StoredMaps((net.output_dim, net.input_dim), b"u" in raw or b"l" in raw)
    try:
        text = raw.decode()
        # One copy of the file at a time, as with read_text: the bytes are
        # dropped before parsing and the text as soon as it is parsed.
        del raw
        doc = json.loads(text, object_hook=maps)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"invalid cluster JSON in {clusters_path}: {exc}")
    del text
    patterns, stored_omega, stored_bias = maps.checked(doc, clusters_path, total)
    del doc, maps
    omegas, biases = collapse_batch(net, bitstrings_to_masks(patterns, total))
    worst = max(
        float(np.abs(stored_omega - omegas).max(initial=0.0)),
        float(np.abs(stored_bias - biases).max(initial=0.0)),
    )
    return {"checked": len(patterns), "max_abs_err": worst, "pass": worst <= tol}, digest


def _check_rows(net, params: dict, hashes: dict, recorded: dict | None) -> dict:
    """Read, hash and parse the rows; check their logits and the Jacobian at fixed rows.

    Returns the ``affine`` and ``jacobian`` entries of ``verify.json``. The
    SHA-256 of the bytes read goes into ``hashes["data"]``, and
    `_check_inputs` then refuses a changed input before the rows are parsed.
    """
    data_path = Path(params["data"])
    raw = data_path.read_bytes()
    hashes["data"] = _sha256(raw)
    _check_inputs(recorded, hashes)
    # The dataset holds the parsed table itself, compacted to its features.
    dataset = parse_dataset_csv(raw, data_path)
    del raw
    affine_report = verify_affine(net, dataset.features, tol=params["tol"])

    # At most 100 fixed probe rows, i * n // k, spread evenly from the first.
    n = dataset.n_rows
    k = min(100, n)
    max_row_err, checked, skipped = 0.0, 0, 0
    for i in range(k):
        report = jacobian_check(net, dataset.features[i * n // k], h=params["jacobian_step"])
        if report.skipped:
            skipped += 1
        else:
            checked += 1
            max_row_err = max(max_row_err, report.max_row_err)
    return {
        "affine": affine_report.to_dict(),
        "jacobian": {
            "samples": k,
            "checked": checked,
            "skipped": skipped,
            "max_row_err": max_row_err,
            "h": params["jacobian_step"],
            "tol": params["jacobian_tol"],
            "pass": max_row_err <= params["jacobian_tol"],
        },
    }


def run_verify(params: dict, out: Path, recorded: dict | None = None) -> int:
    net_path = Path(params["net"])
    raw = net_path.read_bytes()
    hashes = {"net": _sha256(raw)}
    net = parse_network_json(raw, net_path)
    del raw
    doc, stored = {}, params["clusters"]

    def check_stored():
        return _check_stored_clusters(net, Path(stored), params["tol"])

    with _fork(check_stored) if stored is not None else nullcontext() as join:
        if join is None:
            # In one process the stored clusters are checked first: parsing
            # clusters.json is then this command's peak of memory, and it
            # runs before the rows are read.
            if stored is not None:
                doc["clusters"], hashes["clusters"] = check_stored()
            doc.update(_check_rows(net, params, hashes, recorded))
        else:
            # The rows are checked while a child checks the stored clusters.
            # A refusal comes in the one-process order: the child's, the
            # rows' read, the input hashes, then the rest of the rows' check.
            try:
                rows = _check_rows(net, params, hashes, None)
            except Exception as exc:
                rows = exc
            doc["clusters"], hashes["clusters"] = join()
            if "data" in hashes:
                _check_inputs(recorded, hashes)
            if isinstance(rows, Exception):
                raise rows
            doc.update(rows)

    ok = all(part["pass"] for part in doc.values())
    texts = {
        "verify.json": _json_text("verify.json", doc, sort_keys=True),
        "manifest.json": _manifest_text("verify", params, hashes, ["verify.json", "manifest.json"]),
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        _write_json(out / name, text)
    affine, jacobian = doc["affine"], doc["jacobian"]
    print(f"affine: max_abs_err={affine['max_abs_err']:.3e} pass={affine['pass']}")
    print(
        f"jacobian: checked={jacobian['checked']} skipped={jacobian['skipped']} "
        f"max_row_err={jacobian['max_row_err']:.3e} pass={jacobian['pass']}"
    )
    if "clusters" in doc:
        print(
            f"clusters: checked={doc['clusters']['checked']} "
            f"max_abs_err={doc['clusters']['max_abs_err']:.3e} pass={doc['clusters']['pass']}"
        )
    print(f"verify: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _runners() -> dict:
    """Each command's run function, looked up when called: perfbench's tracer rebinds them."""
    return {"simulate": run_simulate, "titanic": run_titanic, "verify": run_verify}


_CLUSTER_ON = ("train", "test", "all")


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return _is_int(value) or (type(value) is float and math.isfinite(value))


def _list_of(items: str, accepts) -> tuple:
    return (f"a non-empty list of {items}",
            lambda v: type(v) is list and bool(v) and all(map(accepts, v)))


def _one_of(choices: tuple) -> tuple:
    return f"one of {', '.join(choices)}", lambda v: v in choices


# The largest count of rows, epochs, batch rows or hidden units. A count
# beyond it is refused before any work: numpy cannot shape an array of
# 2**63 entries, and one of 2**31 rows of ten features would hold 160 GiB.
_MAX_COUNT = 2**31 - 1

# An argument kind: (description, predicate). ``type(v) is int``, not
# isinstance, so that a JSON ``true`` is not taken for 1.
_SEED = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_COUNT = (f"an integer in [1, {_MAX_COUNT}]", lambda v: _is_int(v) and 0 < v <= _MAX_COUNT)
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
_NON_NEGATIVE = ("a non-negative finite number", lambda v: _is_number(v) and v >= 0)
_FRACTION = ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1)
# An input file's path; ``_params`` records it absolute.
_PATH = ("a string", lambda v: type(v) is str)
_PATH_OR_NULL = ("a string or null", lambda v: v is None or type(v) is str)
_COUNTS = _list_of(f"integers in [1, {_MAX_COUNT}]", _COUNT[1])
_SEEDS = (
    "a non-empty list of distinct non-negative integers",
    lambda v: type(v) is list and bool(v) and all(map(_SEED[1], v)) and len(set(v)) == len(v),
)

# The one contract for each command's arguments, on the command line and in
# a manifest: the keys they carry and what each value must be.
_TRAIN_KEYS = {
    "seeds": _SEEDS,
    "epochs": _COUNT,
    "lr": _POSITIVE,
    "batch_size": _COUNT,
    "reg": _NON_NEGATIVE,
    "hidden": _COUNTS,
    "normalization": _one_of(NORMALIZATIONS),
    "tol": _POSITIVE,
}
_PARAM_KEYS = {
    "simulate": {"n": _COUNT, "data_seed": _SEED, **_TRAIN_KEYS},
    "titanic": {
        "csv": _PATH,
        "test_fraction": _FRACTION,
        "split_seed": _SEED,
        "cluster_on": _one_of(_CLUSTER_ON),
        **_TRAIN_KEYS,
    },
    "verify": {
        "net": _PATH,
        "data": _PATH,
        "tol": _POSITIVE,
        "clusters": _PATH_OR_NULL,
        "jacobian_step": _POSITIVE,
        "jacobian_tol": _POSITIVE,
    },
}


def _check_params(command: str, params: dict) -> None:
    """Refuse the first value outside its kind, naming its flag and its manifest key."""
    for key, (description, accepts) in _PARAM_KEYS[command].items():
        if not accepts(params[key]):
            flag = "--" + key.replace("_", "-")
            raise InputError(f"{flag} ({key!r}) must be {description}, got {params[key]!r}")


def _read_manifest(manifest_path: Path) -> tuple[str, dict, dict]:
    """A manifest's command, arguments and input hashes; ``_check_params`` checks the values."""
    try:
        doc = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"invalid manifest JSON in {manifest_path}: {exc}")
    if not isinstance(doc, dict) or "command" not in doc or "args" not in doc:
        raise SchemaError("manifest must carry command and args")
    if doc.get("version") != __version__:
        raise SchemaError(
            f"manifest version {doc.get('version')!r} is not this tool's {__version__!r}"
        )
    command = doc["command"]
    if type(command) is not str or command not in _PARAM_KEYS:
        raise SchemaError(f"manifest names unknown command {command!r}")
    params = doc["args"]
    if not isinstance(params, dict):
        raise SchemaError("manifest args must be an object")
    recorded = doc.get("input_hashes")
    if not isinstance(recorded, dict):
        raise SchemaError("manifest must carry an input_hashes object")
    missing = [key for key in _PARAM_KEYS[command] if key not in params]
    if missing:
        raise SchemaError(f"manifest args lack {', '.join(map(repr, missing))}")
    unknown = [key for key in params if key not in _PARAM_KEYS[command]]
    if unknown:
        raise SchemaError(f"manifest args hold unknown {', '.join(map(repr, unknown))}")
    return command, params, recorded


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, default=10)
    sub.add_argument("--lr", type=float, default=0.01)
    sub.add_argument("--batch-size", type=int, default=100)
    sub.add_argument("--reg", type=float, default=0.02, help="activity regularizer coefficient")
    sub.add_argument("--hidden", default="4,2", help="hidden widths, e.g. 4,2")
    sub.add_argument("--seeds", default="0", help="seeds, e.g. 3, 1..5 or 0,3,7; best run kept")
    sub.add_argument(
        "--normalization", choices=NORMALIZATIONS, default="raw",
        help="importance weight scaling in reports",
    )
    sub.add_argument("--tol", type=float, default=1e-6, help="affine verification tolerance")
    sub.add_argument("--out", required=True, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relu-prism",
        description="Exact affine decomposition and cluster explanations for ReLU networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    # Flags are matched whole: the retired --seed is not read as --seeds.
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    sim = add_parser("simulate", help="Boolean simulation experiment")
    sim.add_argument("--n", type=int, default=100_000, help="sample count")
    sim.add_argument(
        "--data-seed", type=int, default=DEFAULT_DATA_SEED, help="dataset generation seed"
    )
    _add_train_flags(sim)

    tit = add_parser("titanic", help="Titanic tabular experiment")
    tit.add_argument("--csv", required=True, help="Kaggle-format train csv")
    tit.add_argument("--test-fraction", type=float, default=0.0,
                     help="held-out fraction; 0 trains on all rows")
    tit.add_argument("--split-seed", type=int, default=0)
    tit.add_argument("--cluster-on", choices=_CLUSTER_ON, default="train")
    _add_train_flags(tit)

    ver = add_parser("verify", help="audit saved network/dataset artifacts")
    ver.add_argument("--net", required=True, help="network JSON path")
    ver.add_argument("--data", required=True, help="dataset csv path")
    ver.add_argument("--tol", type=float, default=1e-6)
    ver.add_argument("--clusters", help="cluster JSON to cross-check (default: sibling of --net)")
    ver.add_argument("--no-clusters", action="store_true", help="skip the cluster cross-check")
    ver.add_argument("--jacobian-step", type=float, default=1e-4)
    ver.add_argument("--jacobian-tol", type=float, default=1e-4)
    ver.add_argument("--out", required=True, help="artifact directory")

    rer = add_parser("rerun", help="re-execute a run from its manifest")
    rer.add_argument("manifest", help="manifest.json of a previous run")
    rer.add_argument("--out", required=True, help="artifact directory")
    return parser


def _params(args) -> dict:
    """The command's normalized arguments, as its manifest records them.

    Each key of ``_PARAM_KEYS[args.command]`` is read from ``args``. Input
    paths are made absolute, so that a rerun from another directory reads the
    same files; only ``seeds`` and ``hidden``, or ``clusters`` for verify, are
    normalized otherwise. The values are checked by ``_check_params``, as a
    manifest's are.
    """
    keys = _PARAM_KEYS[args.command]
    params = {key: getattr(args, key) for key in keys}
    for key, kind in keys.items():
        if kind in (_PATH, _PATH_OR_NULL) and params[key] is not None:
            params[key] = str(Path(params[key]).absolute())
    if args.command != "verify":
        params["seeds"] = parse_seeds(args.seeds)
        params["hidden"] = parse_hidden(args.hidden)
        return params
    if args.no_clusters:
        params["clusters"] = None
    elif args.clusters is None:
        sibling = Path(params["net"]).parent / "clusters.json"
        params["clusters"] = str(sibling) if sibling.exists() else None
    return params


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that cannot become a directory, before any work."""
    existing = next(path for path in (out, *out.absolute().parents) if path.exists())
    if not existing.is_dir():
        raise InputError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(Path(args.out))
        if args.command == "rerun":
            command, params, recorded = _read_manifest(Path(args.manifest))
        else:
            command, params, recorded = args.command, _params(args), None
        _check_params(command, params)
        code = _runners()[command](params, Path(args.out), recorded)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. Point stdout at devnull so that the
        # flush at exit does not fail again (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (InputError, OSError, ChildLostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy's names the allocation that failed; a bare one says nothing.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
