"""End-to-end acceptance checks for the toolkit.

Each test prints one `[acceptance] <label>: PASS|FAIL` line (through the
capture so it lands in the terminal), making the suite double as a checklist.
Oracles here are independent of the library internals wherever possible:
finite differences for gradients and weight rows, a per-row Python loop for
the partition, and byte comparison for reproducibility.
"""
from __future__ import annotations

import os
import statistics
from pathlib import Path

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    Layer,
    Network,
    TrainConfig,
    accuracy,
    batch_gradients,
    batch_loss,
    effective_affine,
    feature_importance,
    forward_batch,
    forward_trace,
    gen_boolean,
    load_titanic,
    partition,
    train,
    verify_affine,
)
from relu_prism.cli import DEFAULT_DATA_SEED, main as cli_main
from conftest import make_random_network, network_sha256

SWEEP_SEEDS = (1, 2, 3, 4, 5)
TITANIC_ENV = "RELU_PRISM_TITANIC_CSV"
RUN_FILES = (
    "dataset.csv",
    "network.json",
    "history.csv",
    "clusters.json",
    "importance.csv",
    "verify.json",
    "summary.json",
    "manifest.json",
)


def report(capsys, label: str, ok: bool, detail: str = "", status: str | None = None) -> None:
    with capsys.disabled():
        line = f"[acceptance] {label}: {status or ('PASS' if ok else 'FAIL')}"
        if detail:
            line += f" ({detail})"
        print(line)


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="session")
def random_nets():
    """50 random nets (1-4 affine layers, widths <= 8, d <= 10, params U(-1,1))
    paired with 1000 inputs U(-10,10) each."""
    rng = np.random.default_rng(20250814)
    cases = []
    for _ in range(50):
        n_layers = int(rng.integers(1, 5))
        d = int(rng.integers(1, 11))
        widths = tuple(int(rng.integers(1, 9)) for _ in range(n_layers - 1))
        net = make_random_network(rng, d=d, widths=widths)
        X = rng.uniform(-10.0, 10.0, (1000, d))
        cases.append((net, X))
    return cases


@pytest.fixture(scope="session")
def sim_dataset():
    return gen_boolean(100_000, seed=DEFAULT_DATA_SEED)


def _sweep(dataset, reg):
    runs = []
    for seed in SWEEP_SEEDS:
        cfg = TrainConfig(activity_reg_coeff=reg, seed=seed)
        net, _ = train(dataset, cfg)
        runs.append((seed, net, accuracy(net, dataset)))
    return runs


@pytest.fixture(scope="session")
def reg_runs(sim_dataset):
    return _sweep(sim_dataset, 0.02)


@pytest.fixture(scope="session")
def noreg_runs(sim_dataset):
    return _sweep(sim_dataset, 0.0)


@pytest.fixture(scope="session")
def best_reg_run(sim_dataset, reg_runs):
    seed, net, acc = max(reg_runs, key=lambda r: (r[2], -r[0]))
    return seed, net, acc, partition(net, sim_dataset)


# ---------------------------------------------------------------------------
# 1. the per-pattern affine maps reproduce the logit exactly


def test_affine_maps_match_logits(random_nets, capsys):
    worst = 0.0
    for net, X in random_nets:
        rep = verify_affine(net, X, tol=1e-8)
        worst = max(worst, rep.max_abs_err)
    ok = worst <= 1e-8
    report(
        capsys,
        "affine exactness, 50 nets x 1000 inputs",
        ok,
        f"max |affine - logit| = {worst:.3e}, tol 1e-8",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. the weight rows equal the finite-difference Jacobian on interior inputs


def test_weights_match_finite_difference_jacobian(random_nets, capsys):
    h = 1e-4
    worst = 0.0
    checked = 0
    for net, X in random_nets:
        d = X.shape[1]
        eye = np.eye(d)
        for u in X[:20]:
            base = forward_trace(net, u)
            stencil = np.concatenate([u + h * eye, u - h * eye])
            logits, bits = forward_batch(net, stencil)
            flat = np.array(
                [b for row in base.pattern.bits for b in row], dtype=bool
            )
            if flat.size:
                bitmat = np.hstack(bits)
                if not np.all(bitmat == flat[None, :]):
                    continue  # the stencil leaves the region: not interior
            omega = effective_affine(net, base.pattern).omega[0]
            fd = (logits[:d, 0] - logits[d:, 0]) / (2.0 * h)
            worst = max(worst, float(np.abs(fd - omega).max()))
            checked += 1
    ok = worst <= 1e-4 and checked >= 500
    report(
        capsys,
        "finite-difference Jacobian agreement",
        ok,
        f"{checked} interior inputs, max row error {worst:.3e}, tol 1e-4",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. partition equals a naive per-row grouping with naive masked-product maps


def test_partition_matches_naive_grouping(capsys):
    rng = np.random.default_rng(7)
    net = make_random_network(rng, d=2, widths=(4, 2))  # 6 hidden units
    g = np.linspace(-3.0, 3.0, 100)
    xx, yy = np.meshgrid(g, g)
    X = np.column_stack([xx.ravel(), yy.ravel()])  # 10^4 grid points
    ds = Dataset(X, (X.sum(axis=1) > 0).astype(int), ("x", "y"))

    clusters = partition(net, ds)

    # One row at a time, plain loops: group indices by the bit key.
    groups: dict[str, list[int]] = {}
    for i in range(X.shape[0]):
        a = X[i]
        key = ""
        for layer in net.layers[:-1]:
            z = layer.weight @ a + layer.bias
            key += "".join("1" if v > 0.0 else "0" for v in z)
            a = np.maximum(z, 0.0)
        groups.setdefault(key, []).append(i)

    mismatches = []
    if len(clusters) != len(groups):
        mismatches.append(f"{len(clusters)} clusters vs {len(groups)} naive groups")
    for c in clusters:
        key = c.pattern.bitstring
        if key not in groups or not np.array_equal(c.member_indices, groups[key]):
            mismatches.append(f"members differ for pattern {key}")
            continue
        # Independent map: diagonal 0/1 masks times the raw layer matrices.
        omega = np.eye(2)
        bias = np.zeros(2)
        for layer, row in zip(net.layers[:-1], c.pattern.bits):
            mask = np.diag(np.array(row, dtype=np.float64))
            omega = mask @ (layer.weight @ omega)
            bias = mask @ (layer.weight @ bias + layer.bias)
        last = net.layers[-1]
        omega = last.weight @ omega
        bias = last.weight @ bias + last.bias
        if not (
            np.array_equal(c.affine.omega, omega) and np.array_equal(c.affine.bias, bias)
        ):
            mismatches.append(f"affine map differs for pattern {key}")
    ok = not mismatches
    report(
        capsys,
        "partition vs brute-force grouping",
        ok,
        f"{len(clusters)} clusters over 10^4 grid points"
        + ("" if ok else "; " + "; ".join(mismatches)),
    )
    assert ok, mismatches


# ---------------------------------------------------------------------------
# 4. simulation sweep reaches (near-)perfect training accuracy


def test_simulation_best_run_accuracy(best_reg_run, capsys):
    seed, _, acc, _ = best_reg_run
    ok = acc >= 0.999
    report(
        capsys,
        "simulation training accuracy",
        ok,
        f"best of seeds 1..5 is seed {seed} with accuracy {acc:.4f}, need >= 0.999",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. the all-inactive cluster is constant-zero; cluster count is small


def test_simulation_trivial_cluster(best_reg_run, capsys):
    _, _, _, clusters = best_reg_run
    k = len(clusters)
    trivial = [c for c in clusters if c.pattern.bitstring.count("1") == 0]
    problems = []
    if not trivial:
        problems.append("no all-inactive cluster")
    else:
        c = trivial[0]
        if not np.all(c.affine.omega == 0.0):
            problems.append("all-inactive cluster has nonzero weights")
        if c.stats.predicted_positive_rate != 0.0:
            problems.append("all-inactive cluster predicts some rows positive")
    if not 2 <= k <= 5:
        problems.append(f"cluster count {k} outside [2, 5]")
    ok = not problems
    detail = f"{k} clusters"
    if trivial:
        detail += (
            f"; all-inactive cluster fraction {trivial[0].stats.fraction:.4f},"
            " weights exactly 0, predicted all-negative"
        )
    if problems:
        detail += "; " + "; ".join(problems)
    report(capsys, "simulation trivial cluster", ok, detail)
    assert ok, problems


# ---------------------------------------------------------------------------
# 6. term-specific clusters: one ignores v2 and uses v1, another the reverse


def test_simulation_term_specific_clusters(best_reg_run, sim_dataset, capsys):
    _, _, _, clusters = best_reg_run
    names = sim_dataset.feature_names
    v1_clusters = []
    v2_clusters = []
    for i, c in enumerate(clusters):
        w = feature_importance(c, names, normalization="max_abs", cluster_id=i).weights
        if abs(w[1]) < 0.1 and w[0] > 0:
            v1_clusters.append(i)
        if abs(w[0]) < 0.1 and w[1] > 0:
            v2_clusters.append(i)
    ok = any(i != j for i in v1_clusters for j in v2_clusters)
    report(
        capsys,
        "simulation term-specific clusters",
        ok,
        f"v1-driven clusters {v1_clusters}, v2-driven clusters {v2_clusters}"
        " (normalized cross-weight < 0.1)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. the activity regularizer shrinks the number of clusters


def test_regularizer_reduces_cluster_count(sim_dataset, reg_runs, noreg_runs, capsys):
    k_reg = [len(partition(net, sim_dataset)) for _, net, _ in reg_runs]
    k_free = [len(partition(net, sim_dataset)) for _, net, _ in noreg_runs]
    med_reg = statistics.median(k_reg)
    med_free = statistics.median(k_free)
    ok = med_free > med_reg
    report(
        capsys,
        "regularizer cluster-count contrast",
        ok,
        f"median clusters without penalty {med_free} (counts {k_free}) vs"
        f" with penalty {med_reg} (counts {k_reg})",
    )
    assert ok


# SHA-256 of each seed's saved network.json text for the sweeps above, as
# recorded on x86-64 Linux, numpy 2.x with OpenBLAS 0.3.31 (Haswell kernels).
# Training must reproduce them bit for bit; another BLAS or CPU may not.
PINNED_SWEEP_SHA256 = {
    0.02: (
        "008ade5d5b86c1413d1eed5cbb9e3bc6ee0050784fc4da36a9c8c4f12fa74f47",
        "493fc780c1c0abc49927d9dcbf0b797b13865d926542ceadf3e5a931fcfc7303",
        "833fcace6885de1eae24dbcbb319af3cb56b20bf6f59bf2658c4079c5af949ed",
        "dbfc08119a166491d2b9da787c0011972090237851dc9581a1c429286ac4eb00",
        "dca6776060b570123d706be515445083926322626fd418f389394e328f58cfa5",
    ),
    0.0: (
        "cc1d97d6fe52c5f1304b0b9bdd4c2e2e9cb135f3ac8d56ca26383cebe0903729",
        "08e6c9d161e193ee5c9e149904c8bfa2391e7cbdfa60dd3caac911acd090796e",
        "5ef3ba6c9195c799bff5f19038af498cf3a0bab2d72a85e9f383b65b540d29f8",
        "70b98a3e06a220d9547934acdeea43f152727acb1d6c342d46b313433d9b791c",
        "3002a5c41583eff142d44d340e996329c81cf9a8d0f75f0c9f1cf4f58684fbfb",
    ),
}


def test_sweep_weights_are_pinned(reg_runs, noreg_runs):
    for reg, runs in ((0.02, reg_runs), (0.0, noreg_runs)):
        got = tuple(network_sha256(net) for _, net, _ in runs)
        assert got == PINNED_SWEEP_SHA256[reg], reg


# ---------------------------------------------------------------------------
# 8. passenger-survival experiment lands in the reported accuracy band


def _titanic_csv() -> Path | None:
    env = os.environ.get(TITANIC_ENV)
    if env:
        return Path(env)
    default = Path(__file__).resolve().parents[1] / "data" / "titanic-train.csv"
    return default if default.exists() else None


def test_titanic_accuracy_band(capsys):
    path = _titanic_csv()
    if path is None or not path.exists():
        report(
            capsys,
            "titanic accuracy band",
            True,
            f"no passenger CSV; set {TITANIC_ENV} or add data/titanic-train.csv",
            status="SKIP",
        )
        pytest.skip(
            "passenger CSV not available: set RELU_PRISM_TITANIC_CSV to a"
            " Kaggle-style train.csv or place it at data/titanic-train.csv"
        )
    ds = load_titanic(path)
    runs = _sweep(ds, 0.02)
    seed, net, acc = max(runs, key=lambda r: (r[2], -r[0]))
    clusters = partition(net, ds)
    parts = []
    for c in clusters[:4]:
        p = c.stats.predicted_positive_rate
        parts.append(f"{c.stats.fraction:.2f}/{max(p, 1.0 - p):.2f}")
    summary = ", ".join(parts)
    ok = 0.74 <= acc <= 0.80
    report(
        capsys,
        "titanic accuracy band",
        ok,
        f"best seed {seed} accuracy {acc:.4f}, need [0.74, 0.80];"
        f" fraction/purity per cluster: {summary}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. trainer gradients match finite differences, penalty included


def _interior_case(seed: int, widths: tuple[int, ...]):
    """Net + batch whose hidden preactivations sit clear of every kink."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        net = make_random_network(rng, d=2, widths=widths)
        X = rng.uniform(-2.0, 2.0, (6, 2))
        t = rng.integers(0, 2, 6)
        margin = np.inf
        a = X
        for layer in net.layers[:-1]:
            z = a @ layer.weight.T + layer.bias
            margin = min(margin, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        if margin > 1e-3:
            return net, X, t
    raise AssertionError("no interior micro case found")


def _fd_gap(net: Network, X, t, cfg: TrainConfig, h: float = 1e-6) -> float:
    """Scaled max gap between analytic and central-difference gradients."""
    _, analytic = batch_gradients(net, X, t, cfg)
    worst = 0.0
    for i, layer in enumerate(net.layers):
        for which, arr in (("w", layer.weight), ("b", layer.bias)):
            for idx in np.ndindex(*arr.shape):
                bumped = []
                for eps in (h, -h):
                    layers = []
                    for j, l in enumerate(net.layers):
                        W = np.array(l.weight)
                        b = np.array(l.bias)
                        if j == i:
                            (W if which == "w" else b)[idx] += eps
                        layers.append(Layer(W, b))
                    bumped.append(batch_loss(Network(tuple(layers)), X, t, cfg))
                fd = (bumped[0] - bumped[1]) / (2.0 * h)
                a = analytic[i][0][idx] if which == "w" else analytic[i][1][idx]
                worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return worst


def test_trainer_gradients_match_finite_differences(capsys):
    cases = [
        ((2,), TrainConfig(hidden_widths=(2,), activity_reg_coeff=0.3)),
        (
            (3, 2),
            TrainConfig(hidden_widths=(3, 2), activity_reg_coeff=0.15, reg_norm="l2"),
        ),
        (
            (2,),
            TrainConfig(
                hidden_widths=(2,), activity_reg_coeff=0.2, reg_reduction="sum"
            ),
        ),
    ]
    worst = 0.0
    for seed, (widths, cfg) in enumerate(cases, start=11):
        net, X, t = _interior_case(seed, widths)
        worst = max(worst, _fd_gap(net, X, t, cfg))
    ok = worst <= 1e-5
    report(
        capsys,
        "trainer gradient check",
        ok,
        f"max relative gap {worst:.3e} over {len(cases)} penalized micro-nets,"
        " tol 1e-5",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. a command re-run from its manifest reproduces byte-identical artifacts


def test_rerun_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = [
        "simulate",
        "--n",
        "400",
        "--epochs",
        "3",
        "--seeds",
        "1..2",
        "--out",
        str(first),
    ]
    assert cli_main(args) == 0
    assert cli_main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0
    differing = [
        name
        for name in RUN_FILES
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    ok = not differing
    report(
        capsys,
        "manifest re-run determinism",
        ok,
        f"{len(RUN_FILES)} artifacts byte-compared"
        + ("" if ok else f"; differ: {differing}"),
    )
    assert ok
