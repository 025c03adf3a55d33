"""One set-up or one op of a workload, in a fresh process.

    python3 perfbench/worker.py setup <workload> <work> --seed N [--smoke] [--sabotage] [--pace TICKS]
    python3 perfbench/worker.py op <workload> <work> <opdir> --seed N [--smoke] [--traced] [--pace TICKS]

`setup` imports relu_prism and writes the workload's inputs and the values
its output checks expect under <work>/inputs. `op` runs one op in process
(the CLI workloads through `cli.main`), optionally traced, and
writes <opdir>/result.json. With --pace, the process samples its pace
(see pace.py) and writes the ticks to TICKS. Needs relu_prism importable
(src on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from relu_prism import Dataset, TrainConfig

from pace import Pace
from tracer import Tracer
from workloads import MAX_ABS_ERR, N_FEATURES, NET_HIDDEN, NET_SEED, cli_steps, size_of

# The package rebinds names such as `partition` to functions, so the
# modules are taken from the import system. Calls go through these module
# attributes, which is where a tracer puts its wrappers.
affine, cli, data, explain, network, partition, train = (
    import_module(f"relu_prism.{name}")
    for name in ("affine", "cli", "data", "explain", "network", "partition", "train")
)

FEATURE_NAMES = tuple(f"x{i}" for i in range(N_FEATURES))


def _write_json(path: Path, doc, indent=None) -> None:
    path.write_text(json.dumps(doc, indent=indent) + "\n")


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no mode argument
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def gaussian_inputs(n: int, seed: int):
    """The regions/audit inputs: a fixed random 16,8 net and n Gaussian rows."""
    net = train.init_network(N_FEATURES, TrainConfig(hidden_widths=NET_HIDDEN, seed=NET_SEED))
    X = np.random.default_rng(seed).standard_normal((n, N_FEATURES))
    return net, Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), FEATURE_NAMES)


def setup(workload: str, work: Path, seed: int, smoke: bool, sabotage: bool) -> None:
    n = size_of(smoke)["n"]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "paper":
        ds = data.gen_boolean(n, seed)
        digest = hashlib.sha256(ds.features.tobytes() + ds.targets.tobytes()).hexdigest()
        expected = {"n": n, "dataset_sha256": "0" * 64 if sabotage else digest}
    else:
        net, ds = gaussian_inputs(n, seed)
        network.save_network(net, inputs / "network.json")
        expected = {"n": n + 1 if sabotage and workload == "regions" else n}
        if workload == "regions":
            np.save(inputs / "features.npy", ds.features)
            np.save(inputs / "targets.npy", ds.targets)
        else:
            clusters = partition.partition(net, ds)
            # Laid out as the CLI writes it.
            _write_json(inputs / "clusters.json", partition.clusters_to_json(clusters), indent=2)
            csv_path = inputs / "dataset.csv"
            csv_path.write_text(data.dataset_to_csv(ds))
            expected["clusters"] = len(clusters) + (1 if sabotage else 0)
            expected["csv_bytes"] = csv_path.stat().st_size
    _write_json(inputs / "expected.json", expected)
    _write_json(work / "env.json", {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
    })


def _regions_chain(net, ds):
    """The analysis tail; every call goes through a module binding so a tracer sees it."""
    clusters = partition.partition(net, ds)
    reports = [
        explain.feature_importance(c, ds.feature_names, cluster_id=i)
        for i, c in enumerate(clusters)
    ]
    importance_csv = explain.render_report(clusters, reports, "csv")
    clusters_doc = partition.clusters_to_json(clusters)
    report = affine.verify_affine(net, ds.features)
    dataset_csv = data.dataset_to_csv(ds)
    return clusters, importance_csv, clusters_doc, report, dataset_csv


def check_regions(outputs, n: int) -> tuple[list[str], dict]:
    clusters, importance_csv, clusters_doc, report, dataset_csv = outputs
    failures = []
    members = np.sort(np.concatenate([c.member_indices for c in clusters]))
    if members.shape != (n,) or not np.array_equal(members, np.arange(n)):
        failures.append(f"clusters are not a disjoint cover of the {n} rows")
    if report.n_patterns != len(clusters):
        failures.append(f"verify_affine saw {report.n_patterns} patterns, partition made {len(clusters)}")
    if not report.max_abs_err <= MAX_ABS_ERR:
        failures.append(f"max_abs_err {report.max_abs_err} exceeds {MAX_ABS_ERR}")
    rows = importance_csv.count("\n") - 1
    if rows != len(clusters) * N_FEATURES:
        failures.append(f"importance csv has {rows} rows, expected {len(clusters) * N_FEATURES}")
    if len(clusters_doc) != len(clusters):
        failures.append("clusters_to_json lost clusters")
    if dataset_csv.count("\n") != n + 1:
        failures.append("dataset csv does not hold every row")
    props = {
        "clusters": len(clusters),
        "patterns": report.n_patterns,
        "rows_per_cluster": n / len(clusters) if clusters else 0.0,
        "csv_bytes": len(dataset_csv),
        "max_abs_err": report.max_abs_err,
    }
    return failures, props


def op(workload: str, work: Path, opdir: Path, seed: int, smoke: bool, traced: bool) -> None:
    opdir.mkdir(parents=True, exist_ok=True)
    if workload == "regions":
        inputs = work / "inputs"
        net = network.load_network(inputs / "network.json")
        ds = Dataset(np.load(inputs / "features.npy"), np.load(inputs / "targets.npy"), FEATURE_NAMES)

        def run():
            return _regions_chain(net, ds)
    else:
        steps = cli_steps(workload, work, opdir, size_of(smoke), seed)

        def run():
            codes = {}
            for step, argv in steps:
                with open(opdir / f"{step}.stdout", "w") as out, contextlib.redirect_stdout(out):
                    codes[step] = cli.main(argv)
            return codes

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    outputs = tracer.run(run) if tracer is not None else run()
    result = {"wall_s": time.perf_counter() - start}
    if workload == "regions":
        expected = json.loads((work / "inputs" / "expected.json").read_text())
        result["failures"], result["props"] = check_regions(outputs, expected["n"])
    else:
        result["codes"] = outputs
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["spans"] = tracer.spans
    _write_json(opdir / "result.json", result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("setup", "op"))
    parser.add_argument("workload")
    parser.add_argument("work", type=Path)
    parser.add_argument("opdir", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sabotage", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--pace", type=Path)
    args = parser.parse_args(argv)
    pace = Pace()
    with pace if args.pace else contextlib.nullcontext():
        if args.kind == "setup":
            setup(args.workload, args.work, args.seed, args.smoke, args.sabotage)
        else:
            op(args.workload, args.work, args.opdir, args.seed, args.smoke, args.traced)
    if args.pace:
        pace.save(args.pace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
