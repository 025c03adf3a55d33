"""Partition a dataset by activation-pattern equality.

Two inputs are equivalent when every hidden unit makes the same
active/inactive decision on both. The network computes one exact affine map
per equivalence class, so each cluster ships with its map and with summary
statistics of the member rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineMap, collapse_batch
from .data import Dataset
from .errors import ShapeError
from .network import (
    ActivationPattern,
    Network,
    forward_trace,
    group_by_pattern,
    masks_to_bitstrings,
)

__all__ = ["ClusterStats", "Cluster", "partition", "cluster_of", "clusters_to_json"]


@dataclass(frozen=True)
class ClusterStats:
    """Membership summary: counts plus predicted and observed positive rates."""

    size: int
    fraction: float
    predicted_positive_rate: float
    target_positive_rate: float


@dataclass(frozen=True, eq=False)
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

    @property
    def size(self) -> int:
        return int(self.member_indices.shape[0])


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
    n = dataset.n_rows
    logits, masks, order, counts = group_by_pattern(net, dataset.features)
    starts = np.cumsum(counts) - counts
    omegas, biases = collapse_batch(net, masks)
    # Predictions and targets are 0/1, so each weighted bincount is an exact
    # count and each rate the same division that a per-group mean makes.
    label = np.repeat(np.arange(counts.shape[0]), counts)
    predicted_rates = np.bincount(label, weights=logits[order, 0] > 0.0) / counts
    target_rates = np.bincount(label, weights=dataset.targets[order]) / counts
    widths = net.hidden_widths

    clusters = [
        Cluster(
            pattern=ActivationPattern._from_bitstring(bitstring, widths),
            member_indices=order[start : start + size],
            affine=AffineMap(omega, bias),
            stats=ClusterStats(
                size=size,
                fraction=fraction,
                predicted_positive_rate=predicted_rate,
                target_positive_rate=target_rate,
            ),
        )
        for bitstring, start, size, fraction, predicted_rate, target_rate, omega, bias in zip(
            masks_to_bitstrings(masks),
            starts.tolist(),
            counts.tolist(),
            (counts / n).tolist(),
            predicted_rates.tolist(),
            target_rates.tolist(),
            omegas,
            biases,
        )
    ]
    clusters.sort(key=lambda c: (-c.size, c.pattern.bitstring))
    return clusters


def cluster_of(clusters: list[Cluster], net: Network, u) -> Cluster | None:
    """Find the cluster whose pattern the input realizes, if any.

    Inputs from regions the partitioned dataset never visited return None
    instead of minting a new cluster.
    """
    key = forward_trace(net, u).pattern.bitstring
    for cluster in clusters:
        if cluster.pattern.bitstring == key:
            return cluster
    return None


def clusters_to_json(clusters: list[Cluster]) -> list[dict]:
    """Export clusters in canonical order as plain JSON objects."""
    return [
        {
            "pattern": c.pattern.bitstring,
            "size": c.stats.size,
            "fraction": c.stats.fraction,
            "predicted_positive_rate": c.stats.predicted_positive_rate,
            "target_positive_rate": c.stats.target_positive_rate,
            "omega": c.affine.omega.tolist(),
            "bias": c.affine.bias.tolist(),
        }
        for c in clusters
    ]
