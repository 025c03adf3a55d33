from __future__ import annotations

import csv
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from relu_prism import (
    ActivationPattern,
    AffineMap,
    Cluster,
    Dataset,
    ImportanceReport,
    InputError,
    Layer,
    Network,
    ShapeError,
    TrainConfig,
    feature_importance,
    init_network,
    partition,
    render_report,
)
from relu_prism.partition import ClusterStats
from conftest import make_random_network


def cluster_with_map(omega, bias, pattern=()):
    return Cluster(
        pattern=ActivationPattern(pattern),
        member_indices=np.array([0, 1]),
        affine=AffineMap(omega, bias),
        stats=ClusterStats(2, 1.0, 0.5, 0.5),
    )


def hand_net_clusters():
    net = Network(
        (
            Layer([[1.0, -1.0], [2.0, 0.0]], [0.0, 1.0]),
            Layer([[1.0, 1.0]], [-1.0]),
        )
    )
    ds = Dataset([[1.0, 2.0], [3.0, 0.5], [-4.0, -4.0]], [1, 1, 0], ("x", "y"))
    return net, partition(net, ds)


class TestFeatureImportance:
    def test_weights_equal_hand_expanded_row(self):
        # both units active: omega = [[3, -1]], bias = 0
        report = feature_importance(
            cluster_with_map([[3.0, -1.0]], [0.0], ((True, True),)), ("x", "y")
        )
        assert report.feature_importances == (("x", 3.0), ("y", -1.0))
        assert report.bias == 0.0
        assert report.normalization == "raw"

    def test_all_inactive_cluster_all_zero(self):
        report = feature_importance(
            cluster_with_map([[0.0, 0.0]], [-2.5], ((False, False),)), ("x", "y")
        )
        assert all(w == 0.0 for _, w in report.feature_importances)
        assert report.bias == -2.5

    def test_max_abs_peak_is_one(self):
        report = feature_importance(
            cluster_with_map([[3.0, -1.5]], [0.0], ((True, True),)),
            ("x", "y"),
            normalization="max_abs",
        )
        assert report.feature_importances == (("x", 1.0), ("y", -0.5))

    def test_max_abs_leaves_zero_row_alone(self):
        report = feature_importance(
            cluster_with_map([[0.0, 0.0]], [1.0], ((False, False),)),
            ("x", "y"),
            normalization="max_abs",
        )
        assert report.weights.tolist() == [0.0, 0.0]

    def test_normalization_preserves_ranking_and_signs(self, rng):
        for _ in range(10):
            row = rng.normal(size=6)
            cluster = cluster_with_map([row.tolist()], [0.0], ((True,) * 3,))
            names = tuple(f"f{i}" for i in range(6))
            raw = feature_importance(cluster, names, "raw").weights
            scaled = feature_importance(cluster, names, "max_abs").weights
            np.testing.assert_array_equal(
                np.argsort(np.abs(raw)), np.argsort(np.abs(scaled))
            )
            np.testing.assert_array_equal(np.sign(raw), np.sign(scaled))

    @pytest.mark.parametrize("outputs", [2, 0])
    def test_rejects_non_scalar_map(self, outputs):
        cluster = cluster_with_map(np.ones((outputs, 1)), np.zeros(outputs), ((True,),))
        with pytest.raises(ShapeError, match=f"scalar output, got {outputs} rows"):
            feature_importance(cluster, ("x",))

    def test_rejects_wrong_name_count_and_bad_mode(self):
        cluster = cluster_with_map([[1.0, 2.0]], [0.0], ((True,),))
        with pytest.raises(ShapeError):
            feature_importance(cluster, ("x",))
        with pytest.raises(InputError):
            feature_importance(cluster, ("x", "y"), normalization="l2")


class TestReportLayout:
    """A report holds the caller's names and the cluster's own weight row."""

    def test_raw_weights_are_a_read_only_view_of_omega(self, rng):
        net = make_random_network(rng, d=3, widths=(4, 3))
        ds = Dataset(rng.normal(size=(100, 3)), rng.integers(0, 2, 100), ("a", "b", "c"))
        for cluster in partition(net, ds):
            report = feature_importance(cluster, ds.feature_names)
            assert np.shares_memory(report.weights, cluster.affine.omega)
            assert not report.weights.flags.writeable
            assert report.weights.dtype == np.float64
            assert report.weights.tobytes() == cluster.affine.omega[0].tobytes()
            assert report.feature_names is ds.feature_names

    def test_max_abs_weights_are_read_only_and_peak_at_one(self, rng):
        row = rng.normal(size=5)
        cluster = cluster_with_map([row], [0.0], ((True,),))
        report = feature_importance(cluster, tuple("abcde"), "max_abs")
        assert not report.weights.flags.writeable
        assert np.abs(report.weights).max() == 1.0
        assert not np.shares_memory(report.weights, cluster.affine.omega)
        assert cluster.affine.omega[0].tolist() == row.tolist()

    def test_max_abs_keeps_an_all_zero_row_zero(self):
        cluster = cluster_with_map([[0.0, -0.0, 0.0]], [1.0], ((False,),))
        report = feature_importance(cluster, ("a", "b", "c"), "max_abs")
        assert not report.weights.flags.writeable
        assert [repr(w) for w in report.weights.tolist()] == ["0.0", "-0.0", "0.0"]

    @pytest.mark.parametrize(
        "names", [["a", "b"], (np.str_("a"), np.str_("b")), np.array(["a", "b"])],
        ids=["list", "np.str_-tuple", "array"],
    )
    def test_other_names_come_out_as_a_tuple_of_plain_str(self, names):
        report = feature_importance(cluster_with_map([[1.0, 2.0]], [0.0]), names)
        assert type(report.feature_names) is tuple
        assert [type(name) for name in report.feature_names] == [str, str]
        assert report.feature_names == ("a", "b")

    @pytest.mark.parametrize("normalization", ["raw", "max_abs"])
    def test_feature_importances_zip_names_with_the_row(self, normalization):
        row = (-0.0, 5e-324, 2.0**-1074 * 3, -1e-310, 1.0, 0.0)
        names = tuple(f"f{i}" for i in range(len(row)))
        report = feature_importance(cluster_with_map([row], [0.0]), names, normalization)
        pairs = report.feature_importances
        assert pairs == tuple(zip(names, report.weights.tolist()))
        assert [type(w) for _, w in pairs] == [float] * len(row)
        if normalization == "raw":
            assert [repr(w) for _, w in pairs] == [repr(w) for w in row]

    def test_reports_compare_by_identity(self):
        cluster = cluster_with_map([[1.0, 2.0]], [0.0])
        report = feature_importance(cluster, ("a", "b"))
        assert report == report
        assert report != feature_importance(cluster, ("a", "b"))


def test_reports_hold_no_python_object_per_weight():
    """A regions-style chain at reduced size: each report costs a few small objects."""
    net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
    X = np.random.default_rng(5).standard_normal((5000, 10))
    ds = Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), tuple(f"x{i}" for i in range(10)))
    clusters = partition(net, ds)
    assert len(clusters) > 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [
            feature_importance(c, ds.feature_names, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # About 1,044 B a report when each held a (name, float) pair per weight.
    assert held / len(reports) < 400


class TestRenderReport:
    def make_reports(self):
        net, clusters = hand_net_clusters()
        reports = [
            feature_importance(c, ("x", "y"), cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        return clusters, reports

    def test_csv_row_cardinality(self):
        clusters, reports = self.make_reports()
        lines = render_report(clusters, reports, "csv").splitlines()
        assert lines[0] == "cluster_id,feature,weight,bias,size,fraction"
        assert len(lines) == 1 + 2 * len(clusters)

    def test_empty_csv_keeps_header(self):
        assert render_report([], [], "csv") == "cluster_id,feature,weight,bias,size,fraction\n"

    def test_deterministic_bytes(self):
        clusters, reports = self.make_reports()
        assert render_report(clusters, reports, "csv") == render_report(
            clusters, reports, "csv"
        )

    def test_misaligned_and_unknown_format(self):
        clusters, reports = self.make_reports()
        with pytest.raises(InputError):
            render_report(clusters, reports[:-1], "csv")
        for retired in ("yaml", "json", "text-table"):
            with pytest.raises(InputError):
                render_report(clusters, reports, retired)

    def test_csv_weight_round_trips_exactly(self, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        X = rng.uniform(-4, 4, (30, 3))
        ds = Dataset(X, rng.integers(0, 2, 30), ("a", "b", "c"))
        clusters = partition(net, ds)
        reports = [
            feature_importance(c, ds.feature_names, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        lines = render_report(clusters, reports, "csv").splitlines()[1:]
        for line, (name, weight) in zip(lines, reports[0].feature_importances):
            cells = line.split(",")
            assert cells[1] == name
            assert float(cells[2]) == weight


def reference_report_csv(clusters, reports) -> str:
    """The importance csv as ``csv.writer`` writes it, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cluster_id", "feature", "weight", "bias", "size", "fraction"])
    for cluster, report in zip(clusters, reports):
        for name, weight in report.feature_importances:
            writer.writerow([
                report.cluster_id, name, repr(weight), repr(report.bias),
                cluster.stats.size, repr(cluster.stats.fraction),
            ])
    return buf.getvalue()


# Names csv.writer must quote, or must not: a comma, a quote, a line break,
# the empty name, and non-ASCII text.
AWKWARD_NAMES = ("a,b", 'say "hi"', "two\nlines", "", "Größe", "température", "x")
AWKWARD_WEIGHTS = (-0.0, 5e-324, 1e16, 1e-7, 3.0, -12.0, 0.1)


class TestReportMatchesCsvWriter:
    def clusters(self):
        rows = [
            AWKWARD_WEIGHTS,
            tuple(reversed(AWKWARD_WEIGHTS)),
            (0.0,) * len(AWKWARD_WEIGHTS),
            (-2.0, 1e16, -0.0, 5e-324, 1e-7, 4.0, -0.5),
        ]
        biases = (-0.0, 1e-7, 2.5, 5e-324)
        stats = (
            ClusterStats(5, 0.5, 0.2, 0.4),
            ClusterStats(3, 0.3, 1.0, 0.0),
            ClusterStats(1, 0.1, 0.0, 1.0),
            ClusterStats(1, 0.1, 0.0, 0.0),
        )
        return [
            Cluster(ActivationPattern(((True, False),)), np.arange(st.size), AffineMap([row], [b]), st)
            for row, b, st in zip(rows, biases, stats)
        ]

    @pytest.mark.parametrize("normalization", ["raw", "max_abs"])
    def test_awkward_names_and_weights(self, normalization):
        clusters = self.clusters()
        reports = [
            feature_importance(c, AWKWARD_NAMES, normalization, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        text = render_report(clusters, reports)
        assert text == reference_report_csv(clusters, reports)
        assert '\n0,"a,b",' in text and '\n0,"say ""hi""",' in text and '\n0,,' in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert [row[1] for row in parsed[1:8]] == list(AWKWARD_NAMES)

    def test_partition_clusters(self, rng):
        net = make_random_network(rng, d=3, widths=(4, 3))
        ds = Dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200), ("p,q", "é", '"r"'))
        clusters = partition(net, ds)
        for normalization in ("raw", "max_abs"):
            reports = [
                feature_importance(c, ds.feature_names, normalization, cluster_id=i)
                for i, c in enumerate(clusters)
            ]
            assert render_report(clusters, reports) == reference_report_csv(clusters, reports)

    @pytest.mark.parametrize("normalization", ["raw", "max_abs"])
    def test_regions_style_partition(self, normalization):
        """The regions chain at reduced size: over a thousand clusters share one name tuple."""
        net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
        X = np.random.default_rng(5).standard_normal((5000, 10))
        ds = Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), tuple(f"x{i}" for i in range(10)))
        clusters = partition(net, ds)
        assert len(clusters) > 1000
        reports = [
            feature_importance(c, ds.feature_names, normalization, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        assert {id(r.feature_names) for r in reports} == {id(ds.feature_names)}
        assert render_report(clusters, reports) == reference_report_csv(clusters, reports)

    def test_zero_clusters(self):
        assert render_report([], []) == reference_report_csv([], [])


class TestReportEdgeCases:
    """Inputs that a cache keyed on names, tuples or clusters could get wrong."""

    def test_names_holding_percent_signs(self):
        names = ("50%", "%r", "%%", "%s", "a,%d")
        cluster = cluster_with_map([[1.0, -0.0, 2.5, 1e16, 5e-324]], [0.5])
        reports = [feature_importance(cluster, names, cluster_id=3)]
        text = render_report([cluster], reports)
        assert text == reference_report_csv([cluster], reports)
        assert [row[1] for row in csv.reader(io.StringIO(text))][1:] == list(names)

    def test_clusters_of_two_partitions_a_constructed_and_an_unpickled_one(self, rng):
        net = make_random_network(rng, d=3, widths=(4, 3))
        names = ("a", "b%", "c")
        first = partition(net, Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), names))
        second = partition(
            net, Dataset(3.0 * rng.normal(size=(40, 3)), rng.integers(0, 2, 40), names)
        )
        built = cluster_with_map([[1.0, 2.0, 3.0]], [-1.0])
        unpickled = pickle.loads(pickle.dumps(second[1]))
        clusters = [first[0], second[0], built, first[-1], unpickled, second[-1], first[1]]
        reports = [feature_importance(c, names, cluster_id=i) for i, c in enumerate(clusters)]
        assert render_report(clusters, reports) == reference_report_csv(clusters, reports)

    def test_reports_with_two_name_tuples(self):
        clusters = [cluster_with_map([[1.0, -2.0]], [0.25]), cluster_with_map([[0.5, 3.0]], [-1.0])]
        # Two tuples, and a third equal to the first but not the same object.
        tuples = [("a", "b"), ('"q"', "%r"), ("a", "b")]
        reports = [
            feature_importance(clusters[i % 2], names, cluster_id=i)
            for i, names in enumerate(tuples + tuples[::-1])
        ]
        clusters = [clusters[i % 2] for i in range(len(reports))]
        text = render_report(clusters, reports)
        assert text == reference_report_csv(clusters, reports)
        assert [row[1] for row in csv.reader(io.StringIO(text))][1:5] == ["a", "b", '"q"', "%r"]

    def test_one_cluster_listed_twice(self):
        cluster = cluster_with_map([[4.0, -2.0, 0.1]], [1e-7])
        names = ("x", "y", "z")
        reports = [
            feature_importance(cluster, names, cluster_id=0),
            feature_importance(cluster, names, "max_abs", cluster_id=0),
        ]
        clusters = [cluster, cluster]
        assert render_report(clusters, reports) == reference_report_csv(clusters, reports)

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], []])
    def test_hand_built_report_pairs_names_and_weights_as_zip(self, weights):
        names = ("a", "b%", "c")
        cluster = cluster_with_map([[1.0, 2.0, 3.0]], [0.0])
        reports = [
            feature_importance(cluster, names, cluster_id=8),
            ImportanceReport(7, names, np.array(weights), 0.25, "raw"),
            feature_importance(cluster, names, cluster_id=9),
        ]
        clusters = [cluster] * 3
        assert render_report(clusters, reports) == reference_report_csv(clusters, reports)


    def test_repeated_fractions_and_a_percent_sign_in_a_name(self):
        """Fractions equal by value but not by repr: -0.0 and 0.0, 1 and 1.0, a numpy float."""
        names = ("w%", "%d%%", "x")
        fractions = (0.25, 0.25, 0.5, 0.25, 0.0, -0.0, 0.0, 1, 1.0, np.float64(0.25),
                     float("nan"), 0.5, 1e-300, 1e-300)
        clusters = [
            Cluster(ActivationPattern(((True,),)), np.arange(2),
                    AffineMap([[float(i), -0.5, 1e16]], [0.25 * i]),
                    ClusterStats(2, fraction, 0.5, 0.5))
            for i, fraction in enumerate(fractions)
        ]
        reports = [feature_importance(c, names, cluster_id=i) for i, c in enumerate(clusters)]
        text = render_report(clusters, reports)
        assert text == reference_report_csv(clusters, reports)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [row[1] for row in rows[:3]] == list(names)
        assert [row[5] for row in rows[::3]] == [repr(f) for f in fractions]


@pytest.mark.parametrize("normalization", ["raw", "max_abs"])
def test_reports_build_no_map_and_no_stats_per_cluster(monkeypatch, rng, normalization):
    """feature_importance and render_report read each cluster's table row."""
    net = make_random_network(rng, d=3, widths=(4, 3))
    ds = Dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200), ("a", "b", "c"))
    clusters = partition(net, ds) + [cluster_with_map([[1.0, 2.0, 3.0]], [-1.0])]
    assert len(clusters) > 5

    def built(self):
        raise AssertionError("an AffineMap or a ClusterStats was built for a report")

    with monkeypatch.context() as patch:
        patch.setattr(Cluster, "affine", property(built))
        patch.setattr(Cluster, "stats", property(built))
        reports = [
            feature_importance(c, ds.feature_names, normalization, cluster_id=i)
            for i, c in enumerate(clusters)
        ]
        text = render_report(clusters, reports)
    assert text == reference_report_csv(clusters, reports)
