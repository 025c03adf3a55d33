"""Command-line pipeline: train, partition, explain, verify, reproduce.

Four subcommands:

  simulate   generate the Boolean dataset, train, partition, report
  titanic    same pipeline on a Kaggle-format Titanic train csv
  verify     audit saved artifacts: affine exactness, Jacobian agreement
             at fixed rows in one batched probe of a fixed step, and that
             the stored clusters are the rows' partition, each with its
             statistics and its map
  rerun      re-execute a previous run from its manifest

Every artifact-writing command stores a manifest capturing the normalized
arguments (minus the output directory) and input hashes, so `rerun` can
reproduce the run byte for byte on the same platform. Exit codes: 0 success,
1 verification failure, 2 bad input or schema, 3 training divergence, 141
stdout closed by its reader (the shell's status for SIGPIPE).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import reprlib
import sys
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from ._forking import _fork
from .affine import _jacobian_probe, _pattern_table, _verify_table
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
    _leaf_types, _numeric_array, parse_network_json, save_network, split_bitstrings,
)
from .partition import _clusters, _ranked_stats, clusters_to_json
from .train import TrainConfig, accuracy, history_to_csv, train_seeds

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


# The most seeds one sweep trains. Training holds a row order per seed: 1,024
# seeds over 100k rows peaked at 257 MB and took 7 s for one epoch on 2 vCPUs.
_MAX_SEEDS = 1024


def parse_seeds(text: str) -> list[int] | str:
    """Read '3', '1,2,5' or an inclusive range '1..5'; other text is returned as it is.

    So is a range of more than ``_MAX_SEEDS`` seeds, told from its ends alone.
    """
    try:
        if ".." in text:
            lo, hi = map(int, text.split("..", 1))
            seeds = list(range(lo, hi + 1)) if hi - lo < _MAX_SEEDS else []
        else:
            seeds = [int(part) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError):
        return text
    return seeds or text


def parse_hidden(text: str) -> list[int] | str:
    """Read widths such as '4,2'; other text is returned as it is."""
    try:
        widths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        return text
    return widths or text


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
# The statistics of a cluster entry, kept by ``_StoredMaps`` in this order, and
# the type of each: a JSON true is not the size 1.
_STAT_KEYS = ("size", "fraction", "predicted_positive_rate", "target_positive_rate")
_STAT_TYPES = (int, float, float, float)
# Entries whose float lists become arrays in one conversion.
_MAP_BLOCK = 1024
# What each cluster entry parses to under ``_StoredMaps``.
_ENTRY = object()


class _StoredMaps:
    """``json`` object hook: keep each cluster entry's pattern and statistics,
    and its map as arrays converted ``_MAP_BLOCK`` entries at a time.

    Each entry parses to ``_ENTRY``. Only one block's float lists are alive at
    a time. A block that does not convert to numeric maps of ``shape``, or
    that holds a boolean, is converted one entry at a time: an entry whose
    map is not numeric, or not of ``shape``, is recorded, with NaN in its
    place so that the test for finite maps refuses it. The hook never
    raises, so a syntax error later in the document is still reported as
    one. A statistic the entry lacks is kept as None.
    """

    def __init__(self, shape: tuple):
        self.shape = shape
        self.patterns, self.stats = [], tuple([] for _ in _STAT_KEYS)
        # The converted blocks, after an empty one: no entries make (0, ...) maps.
        self.omegas, self.biases = [np.empty((0, *shape))], [np.empty((0, shape[0]))]
        self.pending_omegas, self.pending_biases = [], []
        # Why each unusable entry's map is not numeric, and the entries of the wrong shape.
        self.not_numeric, self.misshapen = {}, set()

    def __call__(self, obj: dict):
        if not _ENTRY_KEYS <= obj.keys():
            return obj
        self.patterns.append(obj["pattern"])
        for column, key in zip(self.stats, _STAT_KEYS):
            column.append(obj.get(key))
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
                and bool not in _leaf_types([omegas, biases])):
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


def _check_stored_clusters(net, clusters_path: Path) -> tuple[tuple, str]:
    """Read the stored clusters once and parse them once, through ``_StoredMaps``.

    Returns the patterns that ``_StoredMaps.checked`` accepts, side by side in
    one string, its maps, the statistics, and the SHA-256 of the bytes parsed.
    """
    raw = clusters_path.read_bytes()
    digest = _sha256(raw)
    maps = _StoredMaps((net.output_dim, net.input_dim))
    try:
        text = raw.decode()
        # One copy of the file at a time, as with read_text: the bytes are
        # dropped before parsing and the text as soon as it is parsed.
        del raw
        doc = json.loads(text, object_hook=maps)
    except ValueError as exc:  # bad UTF-8, bad JSON or an integer past Python's digit limit
        raise SchemaError(f"invalid cluster JSON in {clusters_path}: {exc}")
    del text
    patterns, omegas, biases = maps.checked(doc, clusters_path, sum(net.hidden_widths))
    return ("".join(patterns), omegas, biases, maps.stats), digest


def _compare_clusters(stored: tuple, rows: tuple, tol: float) -> dict:
    """The ``clusters`` entry of ``verify.json``: the ``stored`` clusters held to the rows'.

    Each side holds its patterns side by side in one string, its maps and its
    statistics; the rows' side is the ranked table of ``_ranked_stats``.
    ``max_abs_err`` is the largest gap between a stored map and the rows' map
    of its pattern, over the patterns the rows realise. Entry i must carry
    the rows' cluster i: its pattern, each statistic of its type and value,
    and its map within ``tol``. Only if the entries, compared all at once,
    differ does ``mismatch`` name the first that does.
    """
    (text, omegas, biases, stats), (row_text, row_omegas, row_biases, row_stats) = stored, rows
    # The rows make at least one cluster.
    n, m, width = len(omegas), len(row_omegas), len(row_text) // len(row_omegas)
    same = n == m and text == row_text
    if same:
        at = np.arange(n)
    else:
        index = dict(zip(split_bitstrings(row_text, width, m), range(m)))
        at = np.array([index.get(bits, -1) for bits in split_bitstrings(text, width, n)],
                      dtype=np.int64)
    gap = row_omegas[at]
    gap -= omegas
    gaps = np.maximum(np.abs(gap, out=gap).max(axis=(1, 2), initial=0.0),
                      np.abs(row_biases[at] - biases).max(axis=1, initial=0.0))
    gaps[at < 0] = 0.0
    doc = {"checked": n, "max_abs_err": float(gaps.max(initial=0.0)), "pass": True}
    if same and (gaps <= tol).all() and all(
            got == want.tolist() and not set(map(type, got)) - {kind}
            for got, want, kind in zip(stats, row_stats, _STAT_TYPES)):
        return doc
    columns = [("pattern", str, split_bitstrings(text, width, n),
                split_bitstrings(row_text, width, m)),
               *zip(_STAT_KEYS, _STAT_TYPES, stats, row_stats.tolist())]
    for i in range(min(n, m)):
        what = next((f"{key} is {json.dumps(got[i])}, not the rows' {json.dumps(kind(want[i]))}"
                     for key, kind, got, want in columns
                     if type(got[i]) is not kind or got[i] != want[i]), None)
        if what is None and not gaps[i] <= tol:
            what = f"map differs from the rows' by {gaps[i]:.3e}"
        if what is not None:
            break
    else:
        i, what = min(n, m), f"the rows make {m} clusters, the file holds {n}"
    doc.update({"pass": False, "mismatch": f"cluster {i}: {what}"})
    return doc


def _check_rows(net, params: dict, hashes: dict, partition: bool) -> tuple[dict, object]:
    """Read, hash and parse the rows; check their logits and the Jacobian at fixed rows.

    Returns the ``affine`` and ``jacobian`` entries of ``verify.json`` and, if
    ``partition``, the rows' clusters as ``_compare_clusters`` reads them (else
    None), both from one pattern table. The SHA-256 of the bytes read goes
    into ``hashes["data"]``.
    """
    data_path = Path(params["data"])
    raw = data_path.read_bytes()
    hashes["data"] = _sha256(raw)
    # The dataset holds the parsed table itself, compacted to its features.
    dataset = parse_dataset_csv(raw, data_path)
    del raw
    table = _pattern_table(net, dataset.features)
    affine_report = _verify_table(dataset.features, table, params["tol"])
    ranked = _ranked_stats(table, dataset)[1] if partition else None
    del table

    # At most 100 fixed probe rows, i * n // k, spread evenly from the first, and a
    # fixed step: a step far below it lets rounding fail a correct network.
    n, k, h = dataset.n_rows, min(100, dataset.n_rows), 1e-4
    err, skipped = _jacobian_probe(net, dataset.features[np.arange(k) * n // k], h)
    # A skipped row's error is NaN. A checked row whose error is not finite
    # fails the check, and is counted apart from the largest finite error.
    finite = np.isfinite(err)
    non_finite = int((~finite & ~skipped).sum())
    max_row_err = float(err[finite].max(initial=0.0))
    jacobian = {
        "samples": k,
        "checked": int(k - skipped.sum()),
        "skipped": int(skipped.sum()),
        "max_row_err": max_row_err,
        "h": h,
        "tol": params["jacobian_tol"],
        "pass": max_row_err <= params["jacobian_tol"] and not non_finite,
    }
    if non_finite:
        jacobian["non_finite"] = non_finite
    return {"affine": affine_report.to_dict(), "jacobian": jacobian}, ranked


def run_verify(params: dict, out: Path, recorded: dict | None = None) -> int:
    net_path = Path(params["net"])
    raw = net_path.read_bytes()
    hashes = {"net": _sha256(raw)}
    net = parse_network_json(raw, net_path)
    del raw
    stored = params["clusters"]

    def check_stored():
        return _check_stored_clusters(net, Path(stored))

    with _fork(check_stored) if stored is not None else nullcontext() as join:
        if join is None:
            # Where nothing forks, the stored clusters are read first:
            # parsing clusters.json is then this command's peak of memory,
            # and only its compact result is held while the rows are read.
            result = check_stored() if stored is not None else None
            join = lambda: result
        # A refusal comes in the one-process order: the stored clusters',
        # the rows' read, the input hashes, then the rest of the rows' check.
        try:
            rows = _check_rows(net, params, hashes, stored is not None)
        except Exception as exc:
            rows = exc
        if stored is not None:
            entries, hashes["clusters"] = join()
        if "data" in hashes:
            _check_inputs(recorded, hashes)
        if isinstance(rows, Exception):
            raise rows
        doc, ranked = rows
        if stored is not None:
            doc["clusters"] = _compare_clusters(entries, ranked, params["tol"])

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
        + (f" non_finite={jacobian['non_finite']}" if "non_finite" in jacobian else "")
    )
    if "clusters" in doc:
        print(
            f"clusters: checked={doc['clusters']['checked']} "
            f"max_abs_err={doc['clusters']['max_abs_err']:.3e} pass={doc['clusters']['pass']}"
        )
        if "mismatch" in doc["clusters"]:
            print(f"clusters: {doc['clusters']['mismatch']}")
    print(f"verify: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _runners() -> dict:
    """Each command's run function, looked up when called: perfbench's tracer rebinds them."""
    return {"simulate": run_simulate, "titanic": run_titanic, "verify": run_verify}


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return _is_int(value) or (type(value) is float and math.isfinite(value))


# An argument kind: what its value must be, and how its flag's text is read.
_Kind = namedtuple("_Kind", "description accepts read", defaults=(str,))


def _one_of(choices: tuple) -> _Kind:
    return _Kind(f"one of {', '.join(choices)}", lambda v: v in choices)


# The largest count of rows, epochs, batch rows or hidden units. A count
# beyond it is refused before any work: numpy cannot shape an array of
# 2**63 entries, and one of 2**31 rows of ten features would hold 160 GiB.
_MAX_COUNT = 2**31 - 1

# The argument kinds. ``type(v) is int``, not isinstance, so that a JSON
# ``true`` is not taken for 1.
_SEED = _Kind("a non-negative integer", lambda v: _is_int(v) and v >= 0, int)
_COUNT = _Kind(f"an integer in [1, {_MAX_COUNT}]",
               lambda v: _is_int(v) and 0 < v <= _MAX_COUNT, int)
_POSITIVE = _Kind("a positive finite number", lambda v: _is_number(v) and v > 0, float)
_NON_NEGATIVE = _Kind("a non-negative finite number", lambda v: _is_number(v) and v >= 0, float)
_FRACTION = _Kind("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1, float)
# An input file's path, recorded absolute. Its flag is required. No file
# system takes a path holding a NUL character.
_PATH = _Kind("a string without a NUL character", lambda v: type(v) is str and "\0" not in v,
              lambda text: str(Path(text).absolute()))
_PATH_OR_NULL = _PATH._replace(description=f"{_PATH.description}, or null",
                               accepts=lambda v: v is None or _PATH.accepts(v))
_COUNTS = _Kind(f"a non-empty list of integers in [1, {_MAX_COUNT}]",
                lambda v: type(v) is list and bool(v) and all(map(_COUNT.accepts, v)), parse_hidden)
_SEEDS = _Kind(f"a non-empty list of at most {_MAX_SEEDS} distinct non-negative integers",
               lambda v: type(v) is list and 0 < len(v) <= _MAX_SEEDS
               and all(map(_SEED.accepts, v)) and len(set(v)) == len(v), parse_seeds)

# The one declaration of each command's arguments, on the command line and in
# a manifest: each key's kind, its flag's default text (None where the flag
# has no default) and its flag's help.
_TRAIN_KEYS = {
    "seeds": (_SEEDS, "0", f"seeds, e.g. 3, 1..5 or 0,3,7; at most {_MAX_SEEDS}; best run kept"),
    "epochs": (_COUNT, "10", "training epochs"),
    "lr": (_POSITIVE, "0.01", "learning rate"),
    "batch_size": (_COUNT, "100", "rows per training batch"),
    "reg": (_NON_NEGATIVE, "0.02", "activity regularizer coefficient"),
    "hidden": (_COUNTS, "4,2", "hidden widths, e.g. 4,2"),
    "normalization": (_one_of(NORMALIZATIONS), "raw", "importance weight scaling in reports"),
    "tol": (_POSITIVE, "1e-6", "affine verification tolerance"),
}
_PARAM_KEYS = {
    "simulate": {
        "n": (_COUNT, "100000", "sample count"),
        "data_seed": (_SEED, str(DEFAULT_DATA_SEED), "dataset generation seed"),
        **_TRAIN_KEYS,
    },
    "titanic": {
        "csv": (_PATH, None, "Kaggle-format train csv"),
        "test_fraction": (_FRACTION, "0", "held-out fraction; 0 trains on all rows"),
        "split_seed": (_SEED, "0", "seed of the held-out split"),
        "cluster_on": (_one_of(("train", "test", "all")), "train", "the rows to cluster"),
        **_TRAIN_KEYS,
    },
    "verify": {
        "net": (_PATH, None, "network JSON path"),
        "data": (_PATH, None, "dataset csv path"),
        "tol": (_POSITIVE, "1e-6", "affine verification tolerance"),
        "clusters": (_PATH_OR_NULL, None,
                     "cluster JSON to cross-check (default: sibling of --net)"),
        "jacobian_tol": (_POSITIVE, "1e-4", "Jacobian probe tolerance"),
    },
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# Quotes a refused value in at most about a thousand characters: a list shows
# its first six items, each only to its top level; a long string or number, its ends.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel, _QUOTE.maxstring, _QUOTE.maxother = 1, 160, 160


def _check_params(command: str, params: dict) -> None:
    """Refuse the first value outside its kind, naming its flag and its manifest key.

    Then refuse clustering the held-out rows of a titanic run that holds none out.
    """
    for key, (kind, _, _) in _PARAM_KEYS[command].items():
        if not kind.accepts(params[key]):
            raise InputError(f"{_flag(key)} ({key!r}) must be {kind.description}, "
                             f"got {_QUOTE.repr(params[key])}")
    if command == "titanic" and params["cluster_on"] == "test" and params["test_fraction"] == 0:
        raise InputError("--cluster-on test requires --test-fraction > 0")


def _read_manifest(manifest_path: Path) -> tuple[str, dict, dict]:
    """A manifest's command, arguments and input hashes; ``_check_params`` checks the values."""
    if "\0" in str(manifest_path):
        raise InputError(f"manifest {str(manifest_path)!r} holds a NUL character")
    try:
        doc = json.loads(manifest_path.read_text())
    except ValueError as exc:  # bad UTF-8, bad JSON or an integer past Python's digit limit
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage error is bad input, which ``main`` reports in one line."""

    def error(self, message):
        raise InputError(message)


_COMMANDS = {"simulate": "Boolean simulation experiment", "titanic": "Titanic tabular experiment",
             "verify": "audit saved network/dataset artifacts",
             "rerun": "re-execute a run from its manifest"}


def build_parser() -> argparse.ArgumentParser:
    """The command line, each flag of ``_PARAM_KEYS`` made from its entry and taken as text.

    ``_params`` reads each flag's text by its kind. Only ``--out``,
    ``--no-clusters`` and rerun's manifest are declared here.
    """
    parser = _Parser(
        prog="relu-prism",
        description="Exact affine decomposition and cluster explanations for ReLU networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        # Flags are matched whole: the retired --seed is not read as --seeds.
        sub = subs.add_parser(command, help=summary, allow_abbrev=False)
        for key, (kind, default, text) in _PARAM_KEYS.get(command, {}).items():
            sub.add_argument(_flag(key), default=default, required=kind is _PATH,
                             help=f"{text}; {kind.description}")
        if command == "verify":
            sub.add_argument("--no-clusters", action="store_true",
                             help="skip the cluster cross-check; excludes --clusters")
        if command == "rerun":
            sub.add_argument("manifest", help="manifest.json of a previous run")
        sub.add_argument("--out", required=True, help="artifact directory")
    return parser


def _params(args) -> dict:
    """The command's arguments as its manifest records them: each flag's text read by its kind.

    A path is read absolute, so that a rerun from another directory reads the
    same files. ``_check_params`` checks the values, as a manifest's are. For
    verify, ``--no-clusters`` makes ``clusters`` None; without either flag it
    is the ``clusters.json`` beside ``--net``, if there is one.
    """
    params = {}
    for key, (kind, _, _) in _PARAM_KEYS[args.command].items():
        text = getattr(args, key)
        try:
            params[key] = None if text is None else kind.read(text)
        except ValueError:
            # Kept as text, for _check_params to refuse with the line that
            # a manifest holding this text gets.
            params[key] = text
    if args.command != "verify":
        return params
    if args.no_clusters:
        if params["clusters"] is not None:
            raise InputError("--clusters and --no-clusters exclude each other")
    elif params["clusters"] is None:
        sibling = Path(params["net"]).parent / "clusters.json"
        params["clusters"] = str(sibling) if sibling.exists() else None
    return params


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that cannot become a directory, before any work.

    A symlink counts as existing, dangling or not: ``mkdir`` cannot replace it.
    """
    if "\0" in str(out):
        raise InputError(f"--out {str(out)!r} holds a NUL character")
    existing = next(path for path in (out, *out.absolute().parents) if os.path.lexists(path))
    if not existing.is_dir():
        raise InputError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
