"""Memory guards: each stage of simulate and verify holds one copy of the rows,
a partition holds its clusters as rows of shared tables, and the importance
report holds its text and one copy more.

Each stage test measures, under ``tracemalloc``, how far a stage's peak rises
above what was allocated when it began, in multiples of the ``nbytes`` of the
features it works on (50k rows of 10 features, 4 MB). The partition test
measures what its result holds, in bytes per cluster, and the report test
the peak of rendering in multiples of the text's length. numpy reports its
array buffers to ``tracemalloc``, so the measure is exact and does not
depend on the host.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from relu_prism import (
    Dataset,
    Layer,
    Network,
    TrainConfig,
    data,
    gen_boolean,
    feature_importance,
    init_network,
    partition,
    render_report,
    verify_affine,
)
from relu_prism.network import _group_rows

N = 50_000


def peak_above_start(stage) -> int:
    """Bytes by which ``stage()``'s traced peak rises above the memory traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stage()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def gaussian(n: int) -> Dataset:
    """The regions rows: n standard normal rows of 10 features at seed 5."""
    X = np.random.default_rng(5).standard_normal((n, 10))
    return Dataset(X, (X.sum(axis=1) > 0.0).astype(np.int64), tuple(f"x{i}" for i in range(10)))


@pytest.fixture(scope="module")
def boolean_rows() -> Dataset:
    return gen_boolean(N, 5)


@pytest.fixture(scope="module")
def gaussian_rows() -> Dataset:
    return gaussian(N)


def test_writing_dataset_csv_holds_a_block_of_text(tmp_path, gaussian_rows):
    """The text of 50k Gaussian rows is 2.5 times their features, and its bytes as many again."""
    ds = gaussian_rows
    peak = peak_above_start(lambda: data._write_dataset_csv(ds, tmp_path / "dataset.csv"))
    # 4.98 when the whole text was built, then encoded by write_text; 0.19 a block at a time.
    assert peak / ds.features.nbytes < 0.5


def test_gen_boolean_builds_one_feature_matrix():
    ds = None

    def stage():
        nonlocal ds
        ds = gen_boolean(N, 5)

    peak = peak_above_start(stage)
    # The dataset itself is 1.1 (features and targets). 2.23 with an int64
    # draw of every row and the Dataset's defensive copy; 1.15 now.
    assert peak / ds.features.nbytes < 1.5


def test_parsing_a_written_table_holds_one_table(boolean_rows):
    """The paper's dataset.csv, as verify parses it."""
    raw = data.dataset_to_csv(boolean_rows).encode()
    peak = peak_above_start(lambda: data.parse_dataset_csv(raw, "dataset.csv"))
    # The (n, d + 1) table is 1.1. 2.33 when the Dataset copied its features
    # out of it; 1.22 with the table compacted in place.
    assert peak / boolean_rows.features.nbytes < 1.5


def test_parsing_a_written_gaussian_table_holds_one_table(gaussian_rows):
    """The regions dataset.csv, 9.9 MB of text, as verify parses it."""
    raw = data.dataset_to_csv(gaussian_rows).encode()
    peak = peak_above_start(lambda: data.parse_dataset_csv(raw, "dataset.csv"))
    # 2.48 when the check of the row bytes translated a copy of the whole
    # file; 1.22 with a 64 KiB slice at a time, where the table sets it.
    assert peak / gaussian_rows.features.nbytes < 1.5


def test_grouping_the_training_rows_gathers_a_block_of_keys(boolean_rows):
    """The trainer's grouping of its rows by their feature bytes: 80-byte keys."""
    keys = boolean_rows.features.view(np.uint8)
    peak = peak_above_start(lambda: _group_rows(keys))
    # 1.13 with every key gathered in sorted order; 0.28 a block at a time.
    assert peak / boolean_rows.features.nbytes < 0.5


def paper_net() -> Network:
    """A 4,2 net with the paper's three patterns on the Boolean rows.

    All units off; the unit for v1 and v3 on; the unit for v2 and not v3 on.
    """
    W1 = np.zeros((4, 10))
    W1[0, [0, 2]] = 1.1
    W1[1, 1], W1[1, 2] = 0.9, -0.9
    return Network((
        Layer(W1, [-1.6, -0.45, -1.0, -1.0]),
        Layer([[0.7, 0.3, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]], [0.0, 0.0]),
        Layer([[1.3, 0.6]], [-0.1]),
    ))


def test_verify_affine_gathers_a_block_of_rows(boolean_rows):
    net = paper_net()
    report = None

    def stage():
        nonlocal report
        report = verify_affine(net, boolean_rows.features)

    peak = peak_above_start(stage)
    assert report.n_patterns == 3 and report.passed
    # 0.98 with each pattern's rows gathered whole (a quarter to a half of
    # them); 0.68 now, where the forward pass's 4- and 2-wide layers set it.
    assert peak / boolean_rows.features.nbytes < 0.85


def test_partition_holds_its_clusters_as_rows_of_tables():
    """The regions net over 5,000 of its rows: 4,012 clusters, most of one row."""
    net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
    ds = gaussian(5000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clusters = partition(net, ds)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(clusters) == 4012
    # 827 B a cluster when each held a Cluster, an ActivationPattern, an
    # AffineMap, a ClusterStats and three array views; 386 B as a table row.
    assert held / len(clusters) < 500


def test_rendering_the_report_holds_its_text_twice():
    """The regions net over 5,000 of its rows: 40,120 report rows, 1.6 MB of text."""
    net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
    ds = gaussian(5000)
    clusters = partition(net, ds)
    reports = [feature_importance(c, ds.feature_names, cluster_id=i) for i, c in enumerate(clusters)]
    text = None

    def stage():
        nonlocal text
        text = render_report(clusters, reports)

    peak = peak_above_start(stage)
    # 2.18: one string per cluster, all joined at the end. One % fill over
    # every cluster's values in a single argument tuple reads 3.49.
    assert peak / len(text) < 2.5
