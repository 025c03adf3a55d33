from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from relu_prism import (
    ActivationPattern,
    AffineMap,
    Cluster,
    ClusterStats,
    Dataset,
    ImportanceReport,
    ShapeError,
    TrainConfig,
    clusters_to_json,
    effective_affine,
    feature_importance,
    forward_batch,
    forward_trace,
    init_network,
    partition,
    render_report,
    verify_affine,
)
from relu_prism.data import dataset_to_csv
from relu_prism.explain import NORMALIZATIONS
from conftest import make_random_network


def brute_force_groups(net, X):
    """Independent per-row grouping: dict from pattern bitstring to row list."""
    groups = {}
    for i in range(X.shape[0]):
        key = forward_trace(net, X[i]).pattern.bitstring
        groups.setdefault(key, []).append(i)
    return groups


def random_dataset(rng, net, n):
    X = rng.uniform(-5, 5, (n, net.input_dim))
    t = rng.integers(0, 2, n)
    return Dataset(X, t, tuple(f"f{i}" for i in range(net.input_dim)))


class TestPartitionLaws:
    def test_singleton_dataset(self, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        ds = random_dataset(rng, net, 1)
        clusters = partition(net, ds)
        assert len(clusters) == 1
        assert clusters[0].stats.size == len(clusters[0].member_indices) == 1
        assert clusters[0].stats.fraction == 1.0

    def test_disjoint_cover_and_consistency(self, rng):
        net = make_random_network(rng, d=4, widths=(3, 2))
        ds = random_dataset(rng, net, 300)
        clusters = partition(net, ds)
        seen = np.concatenate([c.member_indices for c in clusters])
        assert len(seen) == 300
        assert len(np.unique(seen)) == 300
        for c in clusters:
            for i in c.member_indices[:5]:
                assert forward_trace(net, ds.features[i]).pattern == c.pattern

    def test_matches_brute_force_grouping(self, rng):
        net = make_random_network(rng, d=2, widths=(3, 2))
        ds = random_dataset(rng, net, 400)
        clusters = partition(net, ds)
        expected = brute_force_groups(net, ds.features)
        assert len(clusters) == len(expected)
        for c in clusters:
            np.testing.assert_array_equal(
                c.member_indices, expected[c.pattern.bitstring]
            )

    def test_many_patterns_match_brute_force(self):
        """Thousands of patterns, most of them singletons, so every group
        boundary of the sort-and-split grouping is exercised."""
        rng = np.random.default_rng(11)
        net = make_random_network(rng, d=10, widths=(16, 8))
        X = rng.standard_normal((5000, 10))
        ds = Dataset(X, (X.sum(axis=1) > 0).astype(int), tuple(f"f{i}" for i in range(10)))
        groups = brute_force_groups(net, X)
        singletons = sum(len(rows) == 1 for rows in groups.values())
        assert len(groups) > 2000 and singletons > len(groups) / 2

        clusters = partition(net, ds)
        expected = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        assert [(c.pattern.bitstring, c.member_indices.tolist()) for c in clusters] == expected

        logits, _ = forward_batch(net, X)
        worst = 0.0
        for key, rows in groups.items():
            pattern = ActivationPattern.from_flat((b == "1" for b in key), net.hidden_widths)
            err = np.abs(effective_affine(net, pattern).apply(X[rows]) - logits[rows])
            worst = max(worst, float(err.max()))
        report = verify_affine(net, X)
        assert report.n_patterns == len(groups)
        assert report.max_abs_err == worst

    def test_canonical_order(self, rng):
        net = make_random_network(rng, d=3, widths=(3,))
        ds = random_dataset(rng, net, 500)
        clusters = partition(net, ds)
        assert all(c.stats.size == len(c.member_indices) for c in clusters)
        keys = [(-c.stats.size, c.pattern.bitstring) for c in clusters]
        assert keys == sorted(keys)

    def test_shuffle_yields_same_clusters(self, rng):
        net = make_random_network(rng, d=3, widths=(2, 2))
        ds = random_dataset(rng, net, 200)
        perm = rng.permutation(200)
        shuffled = ds.take(perm)
        a = partition(net, ds)
        b = partition(net, shuffled)
        assert [c.pattern for c in a] == [c.pattern for c in b]
        assert [c.stats.size for c in a] == [c.stats.size for c in b]
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(
                np.sort(perm[cb.member_indices]), ca.member_indices
            )
            np.testing.assert_array_equal(ca.affine.omega, cb.affine.omega)

    def test_stats_rates(self):
        net = make_random_network(np.random.default_rng(7), d=2, widths=(2,))
        ds = random_dataset(np.random.default_rng(8), net, 100)
        for c in partition(net, ds):
            logits = c.affine.apply(ds.features[c.member_indices])[:, 0]
            assert c.stats.predicted_positive_rate == pytest.approx(
                (logits > 0).mean(), abs=1e-12
            )
            assert c.stats.target_positive_rate == pytest.approx(
                ds.targets[c.member_indices].mean()
            )

    def test_zero_omega_cluster_predicts_one_class(self, rng):
        # force the all-inactive pattern by shifting inputs far negative
        net = make_random_network(rng, d=2, widths=(3,))
        X = rng.uniform(-100, -50, (50, 2))
        ds = Dataset(X, np.zeros(50, dtype=int), ("a", "b"))
        clusters = partition(net, ds)
        for c in clusters:
            if not c.affine.omega.any():
                rate = c.stats.predicted_positive_rate
                assert rate in (0.0, 1.0)

    def test_dimension_mismatch(self, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        ds = random_dataset(rng, make_random_network(rng, d=4, widths=(2,)), 10)
        with pytest.raises(ShapeError):
            partition(net, ds)

    def test_requires_scalar_output(self, rng):
        net = make_random_network(rng, d=3, widths=(2,), q=2)
        ds = random_dataset(rng, net, 10)
        with pytest.raises(ShapeError):
            partition(net, ds)


class TestClusterType:
    def test_member_indices_must_increase(self, rng):
        net = make_random_network(rng, d=2, widths=(2,))
        ds = random_dataset(rng, net, 20)
        c = partition(net, ds)[0]
        for bad in ([3, 1], [0, 0], [2, 1, 3], [[0, 1]]):
            with pytest.raises(ShapeError):
                Cluster(c.pattern, np.array(bad), c.affine, c.stats)
        with pytest.raises(ShapeError):
            Cluster(c.pattern, np.array([], dtype=int), c.affine, c.stats)


    def test_partition_clusters_are_read_only(self):
        rng = np.random.default_rng(12)
        net = make_random_network(rng, d=4, widths=(6, 3))
        ds = random_dataset(rng, net, 500)
        clusters = partition(net, ds)
        assert len(clusters) > 10
        # Every cluster is a row of one set of tables, and reads views of them.
        table = clusters[0]._table
        for c in clusters:
            idx = c.member_indices
            assert idx.dtype == np.int64 and idx.ndim == 1 and idx.shape[0] > 0
            assert (np.diff(idx) > 0).all()
            assert c._table is table
            assert np.shares_memory(idx, table.order)
            assert np.shares_memory(c.affine.omega, table.omegas)
            for arr in (idx, c.affine.omega, c.affine.bias):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
            assert c.affine.omega.shape == (1, 4) and c.affine.bias.shape == (1,)

    def test_public_constructors_check_and_copy(self, rng):
        net = make_random_network(rng, d=2, widths=(2,))
        c = partition(net, random_dataset(rng, net, 20))[0]
        with pytest.raises(ShapeError):
            AffineMap([[1.0, 2.0]], [0.0, 1.0])
        indices = np.array([1, 4])
        public = Cluster(c.pattern, indices, AffineMap(c.affine.omega, c.affine.bias), c.stats)
        indices[0] = 3
        assert public.member_indices.tolist() == [1, 4]


class TestSlottedTypes:
    """Cluster, AffineMap, ClusterStats and ImportanceReport hold their fields in slots."""

    @pytest.fixture()
    def cluster(self):
        rng = np.random.default_rng(21)
        net = make_random_network(rng, d=3, widths=(4, 2))
        clusters = partition(net, random_dataset(rng, net, 200))
        assert len(clusters) > 2
        return clusters[1]

    def objects(self, cluster):
        report = feature_importance(cluster, ("a", "b", "c"), "max_abs", cluster_id=1)
        return cluster, cluster.affine, cluster.stats, report

    def test_every_field_is_frozen(self, cluster):
        for obj in self.objects(cluster):
            assert not hasattr(obj, "__dict__")
            for field in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, field.name, getattr(obj, field.name))
            # A name that is not a field cannot be set either; under slots,
            # Python 3.11 raises TypeError for it, not FrozenInstanceError.
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1
        # A cluster's four values are read from its row and cannot be set.
        for name in ("pattern", "member_indices", "affine", "stats"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(cluster, name, getattr(cluster, name))

    def test_each_read_builds_equal_values(self, cluster):
        assert cluster.pattern == cluster.pattern
        assert cluster.stats == cluster.stats
        assert cluster.affine is not cluster.affine
        assert cluster.affine.omega.tobytes() == cluster.affine.omega.tobytes()
        assert cluster.member_indices.tolist() == cluster.member_indices.tolist()

    def test_cluster_pickles(self, cluster):
        # A pickle holds the cluster's row alone, not its partition's tables.
        alone = Cluster(cluster.pattern, cluster.member_indices, cluster.affine, cluster.stats)
        assert len(pickle.dumps(cluster)) == len(pickle.dumps(alone))
        for back in (pickle.loads(pickle.dumps(cluster)), copy.deepcopy(cluster)):
            assert type(back) is Cluster and back.pattern == cluster.pattern
            assert back.stats == cluster.stats
            assert type(back.affine) is AffineMap
            for got, want in ((back.member_indices, cluster.member_indices),
                              (back.affine.omega, cluster.affine.omega),
                              (back.affine.bias, cluster.affine.bias)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_report_pickles(self, cluster):
        report = self.objects(cluster)[3]
        back = pickle.loads(pickle.dumps(report))
        assert type(back) is ImportanceReport and back is not report
        assert (back.cluster_id, back.feature_names, back.bias, back.normalization) == (
            report.cluster_id, report.feature_names, report.bias, report.normalization
        )
        assert back.weights.dtype == report.weights.dtype
        assert back.weights.tobytes() == report.weights.tobytes()
        assert not back.weights.flags.writeable
        assert back.feature_importances == report.feature_importances

    def test_replace(self, cluster):
        stats = dataclasses.replace(cluster.stats, size=7)
        assert type(stats) is ClusterStats and stats.size == 7
        assert stats.fraction == cluster.stats.fraction
        report = self.objects(cluster)[3]
        renamed = dataclasses.replace(report, cluster_id=9)
        assert type(renamed) is ImportanceReport and renamed.cluster_id == 9
        assert renamed.feature_names is report.feature_names
        assert renamed.weights is report.weights
        assert renamed.feature_importances == report.feature_importances
        assert renamed.bias == report.bias and renamed.normalization == "max_abs"

    def test_private_constructors_match_public_ones(self, cluster):
        public = Cluster(
            ActivationPattern(cluster.pattern.bits),
            list(cluster.member_indices),
            AffineMap(cluster.affine.omega.tolist(), cluster.affine.bias.tolist()),
            ClusterStats(*(getattr(cluster.stats, f.name)
                           for f in dataclasses.fields(ClusterStats))),
        )
        assert public.pattern == cluster.pattern
        assert public.pattern.widths == cluster.pattern.widths == (4, 2)
        assert public.stats == cluster.stats
        for got, want in ((public.member_indices, cluster.member_indices),
                          (public.affine.omega, cluster.affine.omega),
                          (public.affine.bias, cluster.affine.bias)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable and not want.flags.writeable


def test_pattern_stable_under_interior_perturbation(rng):
    net = make_random_network(rng, d=3, widths=(3,))
    ds = random_dataset(rng, net, 100)
    (home,) = [c for c in partition(net, ds) if 0 in c.member_indices]
    u = ds.features[0]
    trace = forward_trace(net, u)
    margin = min(abs(z) for z in trace.preactivations[0])
    if margin == 0.0:
        pytest.skip("input sits exactly on a boundary")
    assert trace.pattern == home.pattern
    assert forward_trace(net, u + margin * 1e-6).pattern == home.pattern


def test_clusters_to_json_round_trip(rng):
    net = make_random_network(rng, d=2, widths=(2,))
    ds = random_dataset(rng, net, 60)
    clusters = partition(net, ds)
    doc = clusters_to_json(clusters)
    assert len(doc) == len(clusters)
    assert abs(sum(entry["fraction"] for entry in doc) - 1.0) < 1e-9
    for entry, c in zip(doc, clusters):
        assert entry["pattern"] == c.pattern.bitstring
        assert entry["size"] == c.stats.size == len(c.member_indices)
        np.testing.assert_array_equal(entry["omega"], c.affine.omega)
        expected = effective_affine(net, c.pattern)
        np.testing.assert_array_equal(entry["omega"], expected.omega)


def many_region_chain():
    """The analysis tail on a random 16,8 net over 2k Gaussian rows: 1,800 patterns."""
    net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
    X = np.random.default_rng(5).standard_normal((2000, 10))
    ds = Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), tuple(f"x{i}" for i in range(10)))
    clusters = partition(net, ds)
    texts = {}
    for mode in NORMALIZATIONS:
        reports = [
            feature_importance(c, ds.feature_names, mode, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        texts[f"importance_{mode}.csv"] = render_report(clusters, reports, "csv")
    texts["clusters.json"] = json.dumps(clusters_to_json(clusters), indent=2)
    texts["dataset.csv"] = dataset_to_csv(ds)
    return clusters, texts


# SHA-256 of each text of ``many_region_chain``, recorded on x86-64 Linux with
# numpy 2.x and OpenBLAS, like GOLDEN_SHA256 in test_cli.py. They hold the
# bytes of the cluster writers fixed across changes to how they are built.
MANY_REGION_SHA256 = {
    "importance_raw.csv": "bad0792024f780156bdd6291b88bdaf1d9454f2f5c70b4441222fd386ebb447d",
    "importance_max_abs.csv": "87486494d1f7b858c52952a129cad9e1a65471a5faa41450779bd4546dbb57c5",
    "clusters.json": "f15dcdcad32ac2b8eb2c1ba85083261255f5f285726a30688c527be5ec8c467d",
    "dataset.csv": "256c4580028d7d52d556b2886e4e7a93661567fcd881c0cf330cc2ed09f5a865",
}


def test_many_region_chain_bytes_are_pinned():
    clusters, texts = many_region_chain()
    assert len(clusters) > 1000
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert got == MANY_REGION_SHA256
