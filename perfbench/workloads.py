"""Workload definitions shared by the orchestrator and the worker.

Nothing here imports relu_prism, so the orchestrator stays a plain harness:
every timed piece of the program runs in a fresh child process.

Workloads (the seed is the workload seed given on the command line):

  paper    `simulate --seeds 1..5 --data-seed <seed>` then `verify` on its
           output, through the CLI. Training dominates; only ~3 patterns.
  regions  in-process analysis tail (partition, feature_importance,
           render_report, clusters_to_json, verify_affine, dataset_to_csv)
           on a random 16,8 net over Gaussian rows; ~22k patterns at 50k
           rows, ~2 rows each. No training.
  audit    CLI `verify` on regions-style artifacts written in set-up: it
           reads CSV and JSON back and rebuilds every stored cluster map.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WORKLOADS = ("paper", "regions", "audit")

# Full size is what a benchmark run measures; smoke size only proves that
# every path runs and every metric is emitted. Rows are 50k rather than the
# 100k of the paper's run so that one run holds several ops and its median
# is steady on a shared 2-core machine: an op of ~15 s varied by 15% from one
# op to the next there.
FULL = {"n": 50_000, "seeds": "1..5", "epochs": 10}
SMOKE = {"n": 2_000, "seeds": "1", "epochs": 1}

# The regions/audit net is fixed so that the pattern count, which sets the
# cost of grouping and collapse, does not move with the workload seed; the
# seed draws the rows. Net seed 5 gives ~22k patterns over 50k rows.
NET_SEED = 5
NET_HIDDEN = (16, 8)
N_FEATURES = 10

MAX_ABS_ERR = 1e-6


def size_of(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


def cli_steps(workload: str, work: Path, opdir: Path, size: dict, seed: int) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one paper or audit op, as (step, argv) pairs."""
    if workload == "paper":
        sim = opdir / "sim"
        return [
            ("simulate", [
                "simulate", "--n", str(size["n"]), "--data-seed", str(seed),
                "--seeds", size["seeds"], "--epochs", str(size["epochs"]), "--out", str(sim),
            ]),
            ("verify", [
                "verify", "--net", str(sim / "network.json"), "--data", str(sim / "dataset.csv"),
                "--out", str(opdir / "verify"),
            ]),
        ]
    if workload == "audit":
        inputs = work / "inputs"
        return [
            ("verify", [
                "verify", "--net", str(inputs / "network.json"), "--data", str(inputs / "dataset.csv"),
                "--clusters", str(inputs / "clusters.json"), "--out", str(opdir / "verify"),
            ]),
        ]
    raise ValueError(f"{workload} is not a CLI workload")


def _load(path: Path):
    return json.loads(path.read_text())


def check_cli_op(workload: str, work: Path, opdir: Path, codes: dict) -> tuple[list[str], dict]:
    """Check the outputs of one paper or audit op.

    Returns the failed checks (empty when the op is correct) and the
    workload properties read from the outputs.
    """
    expected = _load(work / "inputs" / "expected.json")
    failures = [f"{step} exited {code}" for step, code in codes.items() if code != 0]
    props: dict = {}
    if failures:
        return failures, props
    verify_dir = opdir / "verify"
    doc = _load(verify_dir / "verify.json")
    for part in ("affine", "jacobian", "clusters"):
        if not doc.get(part, {}).get("pass"):
            failures.append(f"verify.json {part} did not pass")
    lines = (opdir / "verify.stdout").read_text().splitlines()
    if not lines or lines[-1] != "verify: pass":
        failures.append("verify did not print 'verify: pass'")
    if doc["affine"]["n_inputs"] != expected["n"]:
        failures.append(f"verify checked {doc['affine']['n_inputs']} rows, expected {expected['n']}")
    checked = doc.get("clusters", {}).get("checked")
    if workload == "paper":
        sim = opdir / "sim"
        manifest = _load(sim / "manifest.json")
        if manifest["input_hashes"]["dataset"] != expected["dataset_sha256"]:
            failures.append("simulate trained on another dataset than set-up generated")
        clusters = _load(sim / "clusters.json")
        if sum(c["size"] for c in clusters) != expected["n"]:
            failures.append("stored clusters do not cover every row")
        if checked != len(clusters):
            failures.append(f"verify checked {checked} clusters, simulate wrote {len(clusters)}")
        # Recorded, not gated: drift here shows a change in bit-identity.
        props["network_sha256"] = hashlib.sha256((sim / "network.json").read_bytes()).hexdigest()
        props["clusters"] = len(clusters)
        props["csv_bytes"] = (sim / "dataset.csv").stat().st_size
    else:
        if checked != expected["clusters"]:
            failures.append(f"verify checked {checked} clusters, set-up wrote {expected['clusters']}")
        props["clusters"] = expected["clusters"]
        props["csv_bytes"] = expected["csv_bytes"]
    props["patterns"] = doc["affine"]["n_patterns"]
    props["rows_per_cluster"] = expected["n"] / props["clusters"] if props["clusters"] else 0.0
    return failures, props
