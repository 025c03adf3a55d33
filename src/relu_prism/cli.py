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
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .affine import collapse_batch, jacobian_check, verify_affine
from .data import (
    Dataset,
    dataset_to_csv,
    gen_boolean,
    load_titanic,
    read_dataset_csv,
    split,
)
from .errors import InputError, SchemaError, TrainingDivergedError
from .explain import NORMALIZATIONS, feature_importance, render_report
from .network import bitstrings_to_masks, load_network, save_network
from .partition import clusters_to_json, partition
from .train import TrainConfig, accuracy, history_to_csv, train_seeds

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_PIPE = 141

SEED_ENV_VAR = "RELU_PRISM_SEED"

# Which equally-good solution training lands in depends on the interaction of
# the data draw with the shuffle stream. This dataset seed makes the default
# sweep land in the canonical three-cluster solution: one all-inactive
# constant cluster plus one cluster per conjunction of the target formula.
DEFAULT_DATA_SEED = 5


def _default_seed() -> int:
    """$RELU_PRISM_SEED, or 0 if it is unset; a bad value is refused under its own name."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if not _is_seed(seed):
        raise InputError(f"{SEED_ENV_VAR} must be {_SEED[0]}, got {raw!r}")
    return seed


def parse_seeds(text: str) -> list[int]:
    """Accept '3', '1,2,5' or an inclusive range '1..5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            seeds = list(range(int(lo_text), int(hi_text) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
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
    return _sha256(dataset.features.tobytes() + dataset.targets.tobytes())


def _write_json(path: Path, doc, sort_keys: bool = False) -> None:
    """Write ``doc`` as strict JSON; a NaN or infinity is refused, not written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"{path.name} would hold a non-finite number: {exc}") from exc
    path.write_text(text + "\n")


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


def _write_manifest(out: Path, command: str, params: dict, input_hashes: dict, outputs: list[str]) -> None:
    _write_json(
        out / "manifest.json",
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

    clusters = partition(net, target)
    reports = [
        feature_importance(c, target.feature_names, params["normalization"], cluster_id=i)
        for i, c in enumerate(clusters)
    ]
    report = verify_affine(net, target.features, tol=params["tol"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.csv").write_text(dataset_to_csv(target))
    save_network(net, out / "network.json")
    (out / "history.csv").write_text(history_to_csv(history))
    _write_json(out / "clusters.json", clusters_to_json(clusters))
    (out / "importance.csv").write_text(render_report(clusters, reports, "csv"))
    _write_json(out / "verify.json", {"affine": report.to_dict()}, sort_keys=True)
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
    _write_json(out / "summary.json", summary, sort_keys=True)
    _write_manifest(out, command, params, hashes, _RUN_OUTPUTS)
    for i, c in enumerate(clusters):
        constant = " constant" if not c.affine.omega.any() else ""
        print(
            f"cluster {i}: pattern={c.pattern.bitstring or '-'} size={c.stats.size} "
            f"fraction={c.stats.fraction:.4f} predicted_rate={c.stats.predicted_positive_rate:.3f} "
            f"target_rate={c.stats.target_positive_rate:.3f}{constant}"
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
    hashes = {"csv": _sha256(csv_path.read_bytes())}
    _check_inputs(recorded, hashes)
    full = load_titanic(csv_path)
    if params["test_fraction"] > 0.0:
        test_set, train_set = split(full, params["test_fraction"], params["split_seed"])
    else:
        test_set, train_set = None, full
    target = {"train": train_set, "test": test_set, "all": full}[params["cluster_on"]]
    if target is None:
        raise InputError("--cluster-on test requires --test-fraction > 0")

    def note(net, history):
        return "" if test_set is None else f" test_accuracy={accuracy(net, test_set):.4f}"

    def fields(net, clusters):
        return {
            "n_rows": full.n_rows,
            "survival_rate": float(full.targets.mean()),
            "test_accuracy": None if test_set is None else accuracy(net, test_set),
            "clusters": [
                {
                    "pattern": c.pattern.bitstring,
                    "fraction": c.stats.fraction,
                    "predicted_positive_rate": c.stats.predicted_positive_rate,
                    "target_positive_rate": c.stats.target_positive_rate,
                    "predicted_purity": max(
                        c.stats.predicted_positive_rate, 1.0 - c.stats.predicted_positive_rate
                    ),
                }
                for c in clusters
            ],
        }

    return _run_experiment("titanic", params, out, train_set, target, hashes, note, fields)


class _StoredMap(NamedTuple):
    """One parsed clusters.json entry: its pattern and map, or why the map is unusable."""

    pattern: object
    omega: np.ndarray | None
    bias: np.ndarray | None
    problem: str | None = None


def _stored_map(obj: dict):
    """``json`` object hook: turn each cluster entry into arrays as it is parsed.

    Only one entry's float lists are alive at a time, instead of the whole
    document's.
    """
    if not {"pattern", "omega", "bias"} <= obj.keys():
        return obj
    try:
        omega = np.array(obj["omega"], dtype=np.float64)
        bias = np.array(obj["bias"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        return _StoredMap(obj["pattern"], None, None, f"map is not numeric: {exc}")
    return _StoredMap(obj["pattern"], omega, bias)


def _check_stored_clusters(net, clusters_path: Path, tol: float) -> tuple[dict, str]:
    """Recompute every stored cluster's map from the network and compare.

    Returns the check's ``verify.json`` entry and the SHA-256 of the bytes
    parsed, from one read of the file. The stored bitstrings become one mask
    matrix, collapsed in one batch.
    """
    raw = clusters_path.read_bytes()
    digest = _sha256(raw)
    try:
        text = raw.decode()
        # One copy of the file at a time, as with read_text: the bytes are
        # dropped before parsing and the text right after it.
        del raw
        doc = json.loads(text, object_hook=_stored_map)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"invalid cluster JSON in {clusters_path}: {exc}")
    del text
    if not isinstance(doc, list):
        raise SchemaError(f"{clusters_path} must hold a JSON array of clusters")
    total = sum(net.hidden_widths)
    shape = (net.output_dim, net.input_dim)
    stored_omega = np.empty((len(doc), *shape))
    stored_bias = np.empty((len(doc), shape[0]))
    for i, entry in enumerate(doc):
        if not isinstance(entry, _StoredMap):
            raise SchemaError(f"cluster {i} must carry pattern, omega and bias")
        if entry.problem is not None:
            raise SchemaError(f"cluster {i} {entry.problem}")
        bits = entry.pattern
        if not isinstance(bits, str) or set(bits) - {"0", "1"}:
            raise SchemaError(f"cluster {i} pattern must be a 0/1 string")
        if len(bits) != total:
            raise SchemaError(
                f"cluster {i} pattern has {len(bits)} bits, network has {total} hidden units"
            )
        if entry.omega.shape != shape or entry.bias.shape != shape[:1]:
            raise SchemaError(f"cluster {i} map shapes do not match the network")
        if not (np.isfinite(entry.omega).all() and np.isfinite(entry.bias).all()):
            raise SchemaError(f"cluster {i} map is not finite")
        stored_omega[i] = entry.omega
        stored_bias[i] = entry.bias
    masks = bitstrings_to_masks([entry.pattern for entry in doc], total)
    omegas, biases = collapse_batch(net, masks)
    worst = max(
        float(np.abs(stored_omega - omegas).max(initial=0.0)),
        float(np.abs(stored_bias - biases).max(initial=0.0)),
    )
    return {"checked": len(doc), "max_abs_err": worst, "pass": worst <= tol}, digest


def run_verify(params: dict, out: Path, recorded: dict | None = None) -> int:
    net_path = Path(params["net"])
    data_path = Path(params["data"])
    net = load_network(net_path)
    hashes = {"net": _sha256(net_path.read_bytes()), "data": _sha256(data_path.read_bytes())}
    # Parsing clusters.json is this command's peak of memory, so it runs
    # before the rows are read.
    doc = {}
    if params["clusters"] is not None:
        doc["clusters"], hashes["clusters"] = _check_stored_clusters(
            net, Path(params["clusters"]), params["tol"]
        )
    _check_inputs(recorded, hashes)
    dataset = read_dataset_csv(data_path)
    affine_report = verify_affine(net, dataset.features, tol=params["tol"])

    n = dataset.n_rows
    n_samples = min(params["jacobian_samples"], n)
    rng = np.random.default_rng(params["seed"])
    picks = np.sort(rng.choice(n, size=n_samples, replace=False))
    max_row_err, checked, skipped = 0.0, 0, 0
    for i in picks:
        report = jacobian_check(net, dataset.features[i], h=params["jacobian_step"])
        if report.skipped:
            skipped += 1
        else:
            checked += 1
            max_row_err = max(max_row_err, report.max_row_err)
    jacobian_pass = max_row_err <= params["jacobian_tol"]
    jacobian_doc = {
        "samples": int(n_samples),
        "checked": checked,
        "skipped": skipped,
        "max_row_err": max_row_err,
        "h": params["jacobian_step"],
        "tol": params["jacobian_tol"],
        "pass": jacobian_pass,
    }

    doc.update(affine=affine_report.to_dict(), jacobian=jacobian_doc)
    ok = all(part["pass"] for part in doc.values())
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", doc, sort_keys=True)
    _write_manifest(out, "verify", params, hashes, ["verify.json", "manifest.json"])
    print(
        f"affine: max_abs_err={affine_report.max_abs_err:.3e} pass={affine_report.passed}"
    )
    print(
        f"jacobian: checked={checked} skipped={skipped} "
        f"max_row_err={max_row_err:.3e} pass={jacobian_pass}"
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


def _is_seed(value) -> bool:
    return _is_int(value) and value >= 0


def _is_number(value) -> bool:
    return _is_int(value) or (type(value) is float and math.isfinite(value))


def _list_of(items: str, accepts) -> tuple:
    return (f"a non-empty list of {items}",
            lambda v: type(v) is list and bool(v) and all(map(accepts, v)))


def _one_of(choices: tuple) -> tuple:
    return f"one of {', '.join(choices)}", lambda v: v in choices


# An argument kind: (description, predicate). ``type(v) is int``, not
# isinstance, so that a JSON ``true`` is not taken for 1.
_INT = ("an integer", _is_int)
_SEED = ("a non-negative integer", _is_seed)
_NUMBER = ("a finite number", _is_number)
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
_FRACTION = ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1)
# An input file's path; ``_params`` records it absolute.
_PATH = ("a string", lambda v: type(v) is str)
_PATH_OR_NULL = ("a string or null", lambda v: v is None or type(v) is str)
_INTS = _list_of("integers", _is_int)
_SEEDS = _list_of("non-negative integers", _is_seed)

# The one contract for each command's arguments, on the command line and in
# a manifest: the keys they carry and what each value must be.
_TRAIN_KEYS = {
    "seeds": _SEEDS,
    "epochs": _INT,
    "lr": _NUMBER,
    "batch_size": _INT,
    "reg": _NUMBER,
    "hidden": _INTS,
    "normalization": _one_of(NORMALIZATIONS),
    "tol": _POSITIVE,
}
_PARAM_KEYS = {
    "simulate": {"n": _INT, "data_seed": _SEED, **_TRAIN_KEYS},
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
        "jacobian_samples": _SEED,
        "jacobian_step": _POSITIVE,
        "jacobian_tol": _NUMBER,
        "seed": _SEED,
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
    if command not in _PARAM_KEYS:
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
    seed_group = sub.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, help=f"single seed (default ${SEED_ENV_VAR} or 0)")
    seed_group.add_argument("--seeds", help="sweep, e.g. 1..5 or 0,3,7; best run kept")
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

    sim = subs.add_parser("simulate", help="Boolean simulation experiment")
    sim.add_argument("--n", type=int, default=100_000, help="sample count")
    sim.add_argument(
        "--data-seed", type=int, default=DEFAULT_DATA_SEED, help="dataset generation seed"
    )
    _add_train_flags(sim)

    tit = subs.add_parser("titanic", help="Titanic tabular experiment")
    tit.add_argument("--csv", required=True, help="Kaggle-format train csv")
    tit.add_argument("--test-fraction", type=float, default=0.0,
                     help="held-out fraction; 0 trains on all rows")
    tit.add_argument("--split-seed", type=int, default=0)
    tit.add_argument("--cluster-on", choices=_CLUSTER_ON, default="train")
    _add_train_flags(tit)

    ver = subs.add_parser("verify", help="audit saved network/dataset artifacts")
    ver.add_argument("--net", required=True, help="network JSON path")
    ver.add_argument("--data", required=True, help="dataset csv path")
    ver.add_argument("--tol", type=float, default=1e-6)
    ver.add_argument("--clusters", help="cluster JSON to cross-check (default: sibling of --net)")
    ver.add_argument("--no-clusters", action="store_true", help="skip the cluster cross-check")
    ver.add_argument("--jacobian-samples", type=int, default=100)
    ver.add_argument("--jacobian-step", type=float, default=1e-4)
    ver.add_argument("--jacobian-tol", type=float, default=1e-4)
    ver.add_argument("--seed", type=int, help="sample-selection seed")
    ver.add_argument("--out", required=True, help="artifact directory")

    rer = subs.add_parser("rerun", help="re-execute a run from its manifest")
    rer.add_argument("manifest", help="manifest.json of a previous run")
    rer.add_argument("--out", required=True, help="artifact directory")
    return parser


def _params(args) -> dict:
    """The command's normalized arguments, as its manifest records them.

    Each key of ``_PARAM_KEYS[args.command]`` is read from ``args``. Input
    paths are made absolute, so that a rerun from another directory reads the
    same files; only ``seeds`` and ``hidden``, or ``clusters`` and ``seed`` for
    verify, are normalized otherwise. The values are checked by
    ``_check_params``, as a manifest's are, but for a single seed from
    ``--seed`` or $RELU_PRISM_SEED: it is checked as it is read, so that a
    refusal names where it came from.
    """
    keys = _PARAM_KEYS[args.command]
    params = {key: getattr(args, key) for key in keys}
    for key, kind in keys.items():
        if kind in (_PATH, _PATH_OR_NULL) and params[key] is not None:
            params[key] = str(Path(params[key]).absolute())
    if args.command != "verify":
        if args.seeds:
            params["seeds"] = parse_seeds(args.seeds)
        elif args.seed is None:
            params["seeds"] = [_default_seed()]
        elif _is_seed(args.seed):
            params["seeds"] = [args.seed]
        else:
            raise InputError(f"--seed must be {_SEED[0]}, got {args.seed!r}")
        params["hidden"] = parse_hidden(args.hidden)
        return params
    if args.no_clusters:
        params["clusters"] = None
    elif args.clusters is None:
        sibling = Path(params["net"]).parent / "clusters.json"
        params["clusters"] = str(sibling) if sibling.exists() else None
    if args.seed is None:
        params["seed"] = _default_seed()
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
