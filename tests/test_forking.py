"""The two float texts made in two processes, and `_fork`'s streaming join.

`data.dataset_to_csv` and `render_report` give the later half of a text of
more than ``_SPLIT_FLOATS`` floats to one child forked through `_fork`.
Each case makes its text just above that bound on both paths: forked, and
in process, as where ``os.fork`` does not exist or the process may run on
one CPU only. Every text is also held to the bytes of ``csv.writer``.
"""

from __future__ import annotations

import csv
import importlib
import io
import os

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    ImportanceReport,
    InputError,
    TrainConfig,
    feature_importance,
    init_network,
    partition,
    render_report,
)
from relu_prism.data import _CSV_BLOCK_ROWS, _all_digits, dataset_to_csv
from relu_prism.errors import ChildLostError
from conftest import counted_forks

forking = importlib.import_module("relu_prism._forking")
data = importlib.import_module("relu_prism.data")
partition_module = importlib.import_module("relu_prism.partition")


@pytest.fixture
def forks(monkeypatch) -> list:
    return counted_forks(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process(monkeypatch, how: str, make):
    """``make()`` where the writers stay in one process: no ``os.fork``, or one CPU."""
    with monkeypatch.context() as m:
        if how == "no-fork":
            m.delattr(os, "fork")
        else:
            m.setattr(forking, "_cpus", lambda: 1)
        return make()


def in_child(parent: int, function):
    """``function``, raising ChildHalfFailure when it runs in a forked child."""
    def patched(*args, **kwargs):
        if os.getpid() != parent:
            raise ChildHalfFailure("the child's half failed")
        return function(*args, **kwargs)

    return patched


class ChildHalfFailure(Exception):
    """Raised by a patched writer step in the forked child only."""


IN_PROCESS = pytest.mark.parametrize("how", ["no-fork", "one-cpu"])

# Values whose repr is not plain decimal digits: signed zero, exponent forms
# and the smallest subnormal.
ODD_VALUES = (-0.0, 5e-324, 1e16, 1.5e200, -2.5e-07, 1e-300, 1e-05)


def mixed_rows() -> Dataset:
    """6,600 rows of 10 features: 66,000 floats, just above the bound.

    The rows are 7 blocks, the last of 456 rows, and the split falls after
    block 3. Blocks 0, 2 and 4 hold one-digit values (a digit table);
    blocks 1, 3 and 5 Gaussian values with the odd values among them, and
    block 6 digits with one -0.0, which its sign keeps out of the digit table.
    """
    n, d = 6_600, 10
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, d))
    for b in (0, 2, 4, 6):
        rows = slice(b * _CSV_BLOCK_ROWS, (b + 1) * _CSV_BLOCK_ROWS)
        X[rows] = rng.integers(0, 10, X[rows].shape)
    for b in (1, 3, 5):
        start = b * _CSV_BLOCK_ROWS
        X[start, : len(ODD_VALUES)] = ODD_VALUES
        X[start + 1, : len(ODD_VALUES)] = [-v for v in ODD_VALUES]
    X[6 * _CSV_BLOCK_ROWS + 7, 3] = -0.0
    ds = Dataset(X, rng.integers(0, 2, n), tuple(f"f{i}" for i in range(d)))
    assert n * d > forking._SPLIT_FLOATS and n % _CSV_BLOCK_ROWS
    return ds


def reference_dataset_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*ds.feature_names, "target"])
    for row, target in zip(ds.features.tolist(), ds.targets.tolist()):
        writer.writerow([*map(repr, row), target])
    return buf.getvalue()


class TestDatasetText:
    def test_the_blocks_are_digit_tables_and_reprs_on_either_side_of_the_split(self):
        ds = mixed_rows()
        digits = [
            _all_digits(ds.features[start : start + _CSV_BLOCK_ROWS])
            for start in range(0, ds.n_rows, _CSV_BLOCK_ROWS)
        ]
        assert digits == [True, False, True, False, True, False, False]

    @IN_PROCESS
    def test_the_text_is_the_same_on_both_paths(self, forks, monkeypatch, how):
        ds = mixed_rows()
        text = dataset_to_csv(ds)
        assert len(forks) == 1
        assert_no_child_left()
        assert in_process(monkeypatch, how, lambda: dataset_to_csv(ds)) == text
        assert len(forks) == 1
        assert text == reference_dataset_csv(ds)

    def test_one_fork_above_the_bound_and_none_at_it(self, forks):
        rng = np.random.default_rng(3)
        n = forking._SPLIT_FLOATS  # one feature a row
        X = rng.standard_normal((n + 1, 1))
        at = Dataset(X[:n], np.zeros(n, dtype=np.int64), ("x",))
        above = Dataset(X, np.zeros(n + 1, dtype=np.int64), ("x",))
        assert dataset_to_csv(at) == reference_dataset_csv(at)
        assert forks == []
        assert dataset_to_csv(above) == reference_dataset_csv(above)
        assert len(forks) == 1
        assert_no_child_left()

    def test_an_exception_in_the_childs_half_is_raised_in_the_parent(self, forks, monkeypatch):
        monkeypatch.setattr(data, "_all_digits", in_child(os.getpid(), data._all_digits))
        with pytest.raises(ChildHalfFailure, match="the child's half failed"):
            dataset_to_csv(mixed_rows())
        assert len(forks) == 1
        assert_no_child_left()

    def test_an_exception_in_the_parents_half_leaves_no_child(self, forks, monkeypatch):
        parent, all_digits = os.getpid(), data._all_digits

        def fail_in_parent(values):
            if os.getpid() == parent:
                raise ChildHalfFailure("the parent's half failed")
            return all_digits(values)

        monkeypatch.setattr(data, "_all_digits", fail_in_parent)
        with pytest.raises(ChildHalfFailure, match="the parent's half failed"):
            dataset_to_csv(mixed_rows())
        assert len(forks) == 1
        assert_no_child_left()


NAMES = ("a,b", 'say "hi"', "two\nlines", "", "Größe", "x5", "x6", "x7", "x8", "x9")


@pytest.fixture(scope="module")
def report_inputs():
    """5,463 clusters of 10 features: 65,556 floats, just above the bound.

    The clusters are the regions net's over 8,000 Gaussian rows. The first
    and the last cluster of each half carry the odd values in their weights
    and bias.
    """
    net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
    X = np.random.default_rng(5).standard_normal((8_000, 10))
    clusters = partition(net, Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), NAMES))
    k = 5_463
    assert k % 2 and k * 12 > forking._SPLIT_FLOATS
    clusters = clusters[:k]
    reports = [feature_importance(c, NAMES, cluster_id=i) for i, c in enumerate(clusters)]
    half = (k + 1) // 2
    for i in (0, half - 1, half, k - 1):
        weights = np.array([*ODD_VALUES, 1.0, 2.0, -3.0])
        weights.setflags(write=False)
        reports[i] = ImportanceReport(i, NAMES, weights, ODD_VALUES[i % len(ODD_VALUES)], "raw")
    return clusters, reports


def reference_report_csv(clusters, reports) -> str:
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


class TestReportText:
    @IN_PROCESS
    def test_the_text_is_the_same_on_both_paths(self, forks, monkeypatch, how, report_inputs):
        clusters, reports = report_inputs
        text = render_report(clusters, reports)
        assert len(forks) == 1
        assert_no_child_left()
        assert in_process(monkeypatch, how, lambda: render_report(clusters, reports)) == text
        assert len(forks) == 1
        assert text == reference_report_csv(clusters, reports)

    def test_one_fork_above_the_bound_and_none_at_it(self, forks, report_inputs):
        """Clusters of one feature: three floats each, the weight, the bias and the fraction."""
        cluster = report_inputs[0][0]
        weights = np.array([0.5])
        weights.setflags(write=False)
        report = ImportanceReport(0, ("x",), weights, -1.5, "raw")
        k = forking._SPLIT_FLOATS // 3
        for count, forked in ((k, 0), (k + 1, 1)):
            clusters, reports = [cluster] * count, [report] * count
            assert render_report(clusters, reports) == reference_report_csv(clusters, reports)
            assert len(forks) == forked
        assert_no_child_left()

    def test_an_exception_in_the_childs_half_is_raised_in_the_parent(self, forks, monkeypatch,
                                                                     report_inputs):
        cluster_type = partition_module.Cluster
        monkeypatch.setattr(cluster_type, "_size_fraction",
                            in_child(os.getpid(), cluster_type._size_fraction))
        with pytest.raises(ChildHalfFailure, match="the child's half failed"):
            render_report(*report_inputs)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("bad", ["lengths", "format"])
    def test_a_refusal_comes_before_any_fork(self, forks, report_inputs, bad):
        clusters, reports = report_inputs
        with pytest.raises(InputError) as err:
            if bad == "lengths":
                render_report(clusters, reports[:-1])
            else:
                render_report(clusters, reports, "json")
        assert str(err.value) == (
            f"{len(clusters)} clusters but {len(clusters) - 1} reports" if bad == "lengths"
            else "format must be 'csv', got 'json'"
        )
        assert forks == []


class Unloadable:
    """Pickles in the child; loading it raises in any process."""

    def __reduce__(self):
        return _refuse, ()


def _refuse():
    raise ChildHalfFailure("this result cannot be loaded")


class ExitsWhilePickled:
    """Pickling it ends the child, with status 3, part-way through its stream."""

    def __reduce__(self):
        os._exit(3)


class TestJoin:
    """`_fork`'s join reads the child's result from the pipe as it comes."""

    def test_a_result_larger_than_the_pipe_comes_back_whole(self, forks):
        result = ["x" * 100_000, "é" * 300_000, *map(str, range(50_000))]
        with forking._fork(lambda: result) as join:
            assert join() == result
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_stream_cut_short_is_a_lost_child(self, forks):
        # The first string fills many frames, so part of the stream is sent.
        with forking._fork(lambda: ["x" * 1_000_000, ExitsWhilePickled()]) as join:
            with pytest.raises(ChildLostError,
                               match=r"ended without its result \(wait status 768\)"):
                join()
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_result_this_process_cannot_load_is_raised(self, forks):
        """The rest of the stream, larger than a pipe holds, is read so the child can end."""
        with forking._fork(lambda: [Unloadable(), "x" * 1_000_000]) as join:
            with pytest.raises(ChildHalfFailure, match="cannot be loaded"):
                join()
        assert len(forks) == 1
        assert_no_child_left()
