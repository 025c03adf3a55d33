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
from .network import ActivationPattern, Network, masks_to_bitstrings

__all__ = ["ClusterStats", "Cluster", "partition", "clusters_to_json"]


@dataclass(frozen=True, slots=True)
class ClusterStats:
    """Membership summary: counts plus predicted and observed positive rates."""

    size: int
    fraction: float
    predicted_positive_rate: float
    target_positive_rate: float


@dataclass(frozen=True, eq=False, slots=True)
class Cluster:
    """One equivalence class of dataset rows together with its affine map."""

    pattern: ActivationPattern
    member_indices: np.ndarray
    affine: AffineMap
    stats: ClusterStats

    def __post_init__(self):
        idx = np.array(self.member_indices, dtype=np.int64)
        if idx.ndim != 1 or idx.shape[0] == 0:
            raise ShapeError("a cluster needs a non-empty index vector")
        if (idx[1:] <= idx[:-1]).any():
            raise ShapeError("member indices must be strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "member_indices", idx)

    @classmethod
    def _from_frozen(
        cls, pattern: ActivationPattern, member_indices: np.ndarray, affine: AffineMap,
        stats: ClusterStats,
    ) -> "Cluster":
        """Wrap a read-only, non-empty, strictly increasing int64 vector, uncopied and unchecked."""
        cluster = object.__new__(cls)
        object.__setattr__(cluster, "pattern", pattern)
        object.__setattr__(cluster, "member_indices", member_indices)
        object.__setattr__(cluster, "affine", affine)
        object.__setattr__(cluster, "stats", stats)
        return cluster

    def __reduce__(self):
        # Unpickled arrays are writeable; the constructor's copy is read-only.
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
    logits, masks, order, counts, omegas, biases = table
    starts = np.cumsum(counts) - counts
    # Each cluster's invariants, checked once over the whole table: every
    # group has rows, and its rows increase (the step into a group's first
    # row is not within a group), and its map has one consistent shape.
    steps = np.diff(order)
    steps[starts[1:] - 1] = 1
    if (
        not (counts > 0).all()
        or not (steps > 0).all()
        or omegas.shape != (counts.shape[0], 1, net.input_dim)
        or biases.shape != (counts.shape[0], 1)
    ):
        raise ShapeError("pattern groups do not form a table of clusters")
    # Predictions and targets are 0/1, so each weighted bincount is an exact
    # count and each rate the same division that a per-group mean makes.
    label = np.repeat(np.arange(counts.shape[0]), counts)
    predicted_rates = np.bincount(label, weights=logits[order, 0] > 0.0) / counts
    target_rates = np.bincount(label, weights=dataset.targets[order]) / counts
    # Groups come in bitstring order, so a stable sort on size descending
    # gives the canonical order. The tables are ranked once, and each
    # cluster wraps one row of each.
    rank = np.argsort(-counts, kind="stable")
    sizes, omegas, biases = counts[rank], omegas[rank], biases[rank]
    for table in (order, omegas, biases):
        table.setflags(write=False)
    widths = net.hidden_widths
    return [
        Cluster._from_frozen(
            ActivationPattern._from_bitstring(bitstring, widths),
            order[start : start + size],
            AffineMap._from_frozen(omega, bias),
            ClusterStats(size, fraction, predicted_rate, target_rate),
        )
        for bitstring, omega, bias, start, size, fraction, predicted_rate, target_rate in zip(
            masks_to_bitstrings(masks[rank]),
            omegas,
            biases,
            starts[rank].tolist(),
            sizes.tolist(),
            (sizes / dataset.n_rows).tolist(),
            predicted_rates[rank].tolist(),
            target_rates[rank].tolist(),
        )
    ]


def clusters_to_json(clusters: list[Cluster]) -> list[dict]:
    """Export clusters in canonical order as plain JSON objects."""
    docs = []
    for c in clusters:
        stats, affine = c.stats, c.affine
        docs.append({
            "pattern": c.pattern.bitstring,
            "size": stats.size,
            "fraction": stats.fraction,
            "predicted_positive_rate": stats.predicted_positive_rate,
            "target_positive_rate": stats.target_positive_rate,
            "omega": affine.omega.tolist(),
            "bias": affine.bias.tolist(),
        })
    return docs
