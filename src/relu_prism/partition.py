"""Partition a dataset by activation-pattern equality.

Two inputs are equivalent when every hidden unit makes the same
active/inactive decision on both. The network computes one exact affine map
per equivalence class, so each cluster ships with its map and with summary
statistics of the member rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineMap, _pattern_table
from .data import Dataset
from .errors import ShapeError
from .network import ActivationPattern, Network, masks_to_text, split_bitstrings

__all__ = ["ClusterStats", "Cluster", "partition", "clusters_to_json"]


@dataclass(frozen=True, slots=True)
class ClusterStats:
    """Membership summary: counts plus predicted and observed positive rates."""

    size: int
    fraction: float
    predicted_positive_rate: float
    target_positive_rate: float


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class _Table:
    """A partition's clusters as rows of shared read-only tables.

    Row r is one cluster: the pattern ``bitstrings[r]`` over the hidden
    ``widths``, the member rows ``order[starts[r] : stops[r]]``, the map
    ``(omegas[r], biases[r])`` and the stats ``sizes[r]``, ``fractions[r]``,
    ``predicted_rates[r]`` and ``target_rates[r]``. The strings, sizes and
    rates are Python objects, so each read, and each ``clusters_to_json``
    doc, shares them instead of making its own.
    """

    widths: tuple[int, ...]
    bitstrings: tuple[str, ...]
    order: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    omegas: np.ndarray
    biases: np.ndarray
    sizes: tuple
    fractions: tuple
    predicted_rates: tuple
    target_rates: tuple

    def __post_init__(self):
        for array in (self.order, self.starts, self.stops, self.omegas, self.biases):
            array.setflags(write=False)


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Cluster:
    """One equivalence class of dataset rows together with its affine map.

    A cluster is one row of its partition's shared read-only tables.
    ``pattern``, ``member_indices``, ``affine`` and ``stats`` are built from
    that row on each read, so compare them by value and clusters by identity.
    """

    _table: _Table
    _row: int

    def __init__(
        self, pattern: ActivationPattern, member_indices, affine: AffineMap, stats: ClusterStats,
    ):
        idx = np.array(member_indices, dtype=np.int64)
        if idx.ndim != 1 or idx.shape[0] == 0:
            raise ShapeError("a cluster needs a non-empty index vector")
        if (idx[1:] <= idx[:-1]).any():
            raise ShapeError("member indices must be strictly increasing")
        table = _Table(
            pattern.widths, (pattern.bitstring,), idx, np.zeros(1, dtype=np.int64),
            np.array([idx.shape[0]]), affine.omega[None], affine.bias[None],
            (stats.size,), (stats.fraction,), (stats.predicted_positive_rate,),
            (stats.target_positive_rate,),
        )
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_row", 0)

    @property
    def pattern(self) -> ActivationPattern:
        table = self._table
        return ActivationPattern._from_bitstring(table.bitstrings[self._row], table.widths)

    @property
    def member_indices(self) -> np.ndarray:
        table, row = self._table, self._row
        return table.order[table.starts[row] : table.stops[row]]

    @property
    def affine(self) -> AffineMap:
        table, row = self._table, self._row
        return AffineMap._from_frozen(table.omegas[row], table.biases[row])

    @property
    def stats(self) -> ClusterStats:
        table, row = self._table, self._row
        return ClusterStats(
            table.sizes[row], table.fractions[row], table.predicted_rates[row],
            table.target_rates[row],
        )

    def _map_views(self) -> tuple[np.ndarray, np.ndarray]:
        """``affine.omega`` and ``affine.bias`` as read-only views of the table row."""
        table, row = self._table, self._row
        return table.omegas[row], table.biases[row]

    def _size_fraction(self) -> tuple[int, float]:
        """``stats.size`` and ``stats.fraction``, from the table row."""
        table, row = self._table, self._row
        return table.sizes[row], table.fractions[row]

    def __repr__(self) -> str:
        return (
            f"Cluster(pattern={self.pattern!r}, member_indices={self.member_indices!r}, "
            f"affine={self.affine!r}, stats={self.stats!r})"
        )

    def __reduce__(self):
        # One row: the public constructor copies it out of the shared tables.
        return Cluster, (self.pattern, self.member_indices, self.affine, self.stats)


def partition(net: Network, dataset: Dataset) -> list[Cluster]:
    """Group dataset rows by shared activation pattern.

    The clusters are pairwise disjoint, cover every row, and come in a
    canonical order (size descending, ties by pattern bitstring) so that the
    output is independent of row order up to member indices.
    """
    if net.input_dim != dataset.n_features:
        raise ShapeError(
            f"network expects {net.input_dim} features, dataset has {dataset.n_features}"
        )
    if net.output_dim != 1:
        raise ShapeError(
            f"partition statistics require a scalar output, got output_dim={net.output_dim}"
        )
    return _clusters(net, _pattern_table(net, dataset.features), dataset)


def _clusters(net: Network, table: tuple, dataset: Dataset) -> list[Cluster]:
    """The clusters of ``dataset`` from the ``_pattern_table`` of its features."""
    _, masks, order, counts, _, _ = table
    rank, (text, omegas, biases, stats) = _ranked_stats(table, dataset)
    starts = (np.cumsum(counts) - counts)[rank]
    sizes = counts[rank]
    # The tables are ranked once, and each cluster is one row of them.
    table = _Table(
        net.hidden_widths,
        tuple(split_bitstrings(text, masks.shape[1], len(rank))),
        order,
        starts,
        starts + sizes,
        omegas,
        biases,
        tuple(sizes.tolist()),
        *(tuple(column.tolist()) for column in stats[1:]),
    )
    clusters = []
    for row in range(len(sizes)):
        cluster = object.__new__(Cluster)
        object.__setattr__(cluster, "_table", table)
        object.__setattr__(cluster, "_row", row)
        clusters.append(cluster)
    return clusters


def _ranked_stats(table: tuple, dataset: Dataset) -> tuple[np.ndarray, tuple]:
    """The canonical order of ``dataset``'s ``_pattern_table``, and its rows in that order.

    Returns ``rank``, the pattern indices by size descending, ties by
    bitstring, and the ranked patterns side by side in one string, their
    omegas and biases, and the (4, k) float array of their sizes, fractions,
    predicted rates (of the first output) and target rates.
    """
    logits, masks, order, counts, omegas, biases = table
    # Predictions and targets are 0/1, so each weighted bincount is an exact
    # count and each rate the same division that a per-group mean makes.
    label = np.repeat(np.arange(counts.shape[0]), counts)
    predicted_rates = np.bincount(label, weights=logits[order, 0] > 0.0) / counts
    target_rates = np.bincount(label, weights=dataset.targets[order]) / counts
    # Groups come in bitstring order, so a stable sort on size descending
    # gives the canonical order.
    rank = np.argsort(-counts, kind="stable")
    sizes = counts[rank]
    stats = np.array([sizes, sizes / dataset.n_rows, predicted_rates[rank], target_rates[rank]])
    return rank, (masks_to_text(masks[rank]), omegas[rank], biases[rank], stats)


def clusters_to_json(clusters: list[Cluster]) -> list[dict]:
    """Export clusters in canonical order as plain JSON objects."""
    docs = []
    for c in clusters:
        table, row = c._table, c._row
        docs.append({
            "pattern": table.bitstrings[row],
            "size": table.sizes[row],
            "fraction": table.fractions[row],
            "predicted_positive_rate": table.predicted_rates[row],
            "target_positive_rate": table.target_rates[row],
            "omega": table.omegas[row].tolist(),
            "bias": table.biases[row].tolist(),
        })
    return docs
