"""Per-cluster feature-importance reports.

For a scalar-output network the affine map of a cluster has a single weight
row, and each entry multiplies exactly one input feature. Reading those
entries against the feature names yields a local, exact explanation of what
the network computes on that cluster. Weights are reported raw by default;
max_abs rescaling (largest magnitude becomes 1) is available for comparing
shapes across clusters.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from ._forking import _joined_text
from .errors import InputError, ShapeError
from .partition import Cluster

__all__ = ["NORMALIZATIONS", "ImportanceReport", "feature_importance", "render_report"]

NORMALIZATIONS = ("raw", "max_abs")

# The last feature-name tuple that ``feature_importance`` kept as given: a
# tuple of exact ``str`` stays one, so the same tuple is not checked again.
_accepted_names: tuple = ()


@dataclass(frozen=True, slots=True, eq=False)
class ImportanceReport:
    """One cluster's weight row, read against the feature names.

    ``weights`` is the read-only float64 row ``omega[0]`` of the cluster's
    affine map: a view of it under raw, a scaled copy under max_abs. Reports
    compare by identity.
    """

    cluster_id: int
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    normalization: str

    @property
    def feature_importances(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.feature_names, self.weights.tolist()))

    def __reduce__(self):
        return _read_only_report, (
            self.cluster_id, self.feature_names, self.weights, self.bias, self.normalization
        )


def _read_only_report(cluster_id, feature_names, weights, bias, normalization) -> ImportanceReport:
    """A report whose ``weights`` are made read-only: an unpickled array is writeable."""
    weights.setflags(write=False)
    return ImportanceReport(cluster_id, feature_names, weights, bias, normalization)


def feature_importance(
    cluster: Cluster,
    feature_names,
    normalization: str = "raw",
    cluster_id: int = 0,
) -> ImportanceReport:
    """Attach feature names to a cluster's weight row.

    The row is read straight from the cluster's table: no ``AffineMap`` is
    built. A tuple of exact ``str`` names is kept as given, so every report
    of one call site shares it; other names are converted with ``str``.
    max_abs divides by the largest |weight| so the dominant feature gets
    magnitude 1; an all-zero row is left untouched. Rescaling by a positive
    constant preserves signs, zeros and the magnitude ranking.
    """
    omega, bias = cluster._map_views()
    if omega.shape[0] != 1:
        raise ShapeError(
            f"importance reports require a scalar output, got {omega.shape[0]} rows"
        )
    global _accepted_names
    names = feature_names
    if names is not _accepted_names:
        if type(names) is not tuple or set(map(type, names)) - {str}:
            names = tuple(map(str, names))
        else:
            _accepted_names = names
    if len(names) != omega.shape[1]:
        raise ShapeError(
            f"{len(names)} feature names for {omega.shape[1]} weights"
        )
    if normalization not in NORMALIZATIONS:
        raise InputError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    row = omega[0]
    if normalization == "max_abs":
        peak = np.abs(row).max()
        if peak > 0.0:
            row = row / peak
            row.setflags(write=False)
    return ImportanceReport(cluster_id, names, row, bias.item(0), normalization)


class _CsvFields(dict):
    """Each text as one csv field, quoted as ``csv.writer`` quotes it; made once per text."""

    def __missing__(self, text: str) -> str:
        buf = io.StringIO()
        # A second, empty field: csv.writer quotes a lone empty field.
        csv.writer(buf, lineterminator="\n").writerow([text, ""])
        field = self[text] = buf.getvalue()[:-2]
        return field


def render_report(clusters, reports, format: str = "csv") -> str:
    """Serialize aligned clusters and reports into one document.

    Output is a deterministic function of the inputs. The one format, csv,
    has one row per (cluster, feature) pair with columns cluster_id, feature,
    weight, bias, size, fraction: the bytes ``csv.writer`` writes for the
    ``repr`` of each weight, bias and fraction. Each cluster's size and
    fraction are read from its table row, so no ``ClusterStats`` is built.
    Each cluster's closing fields are formatted once, and each feature name
    is quoted once. A report of more than ``_SPLIT_FLOATS`` floats has its
    later clusters' rows made in a forked child, beside this process
    (`_joined_text`); the bytes are the same either way.
    """
    clusters = list(clusters)
    reports = list(reports)
    if len(clusters) != len(reports):
        raise InputError(
            f"{len(clusters)} clusters but {len(reports)} reports"
        )
    if format != "csv":
        raise InputError(f"format must be 'csv', got {format!r}")
    names = _CsvFields()

    def rows(start: int, stop: int):
        # One string per cluster: a string per row would hold a Python
        # object for every row of the document until the final join.
        for cluster, report in zip(clusters[start:stop], reports[start:stop]):
            size, fraction = cluster._size_fraction()
            head = f"{report.cluster_id},"
            tail = f",{report.bias!r},{size},{fraction!r}\n"
            yield "".join([
                f"{head}{names[name]},{weight!r}{tail}"
                for name, weight in zip(report.feature_names, report.weights.tolist())
            ])

    # Each cluster's weights, its bias and its fraction.
    floats = sum(len(report.feature_names) + 2 for report in reports)
    return _joined_text(
        "cluster_id,feature,weight,bias,size,fraction\n",
        rows, len(clusters), (len(clusters) + 1) // 2, floats,
    )
