"""Exact affine decomposition and cluster-level explanations for ReLU networks.

A trained fully-connected ReLU network with a sigmoid output computes a
plain affine function on every region where its activation pattern is
constant. This package extracts those affine maps exactly, partitions a
dataset into the pattern-equality clusters, and reports each cluster's
effective weights as named feature importances. A from-scratch trainer and
a CLI reproduce the two reference experiments end to end.
"""

from .affine import (
    AffineMap,
    JacobianReport,
    VerifyReport,
    effective_affine,
    jacobian_check,
    verify_affine,
)
from .data import Dataset, gen_boolean, load_titanic, split
from .errors import InputError, SchemaError, ShapeError, TrainingDivergedError
from .explain import ImportanceReport, feature_importance, render_report
from .network import (
    ActivationPattern,
    ForwardTrace,
    Layer,
    Network,
    forward_batch,
    forward_trace,
    load_network,
    network_from_json,
    network_to_json,
    predict,
    predict_batch,
    save_network,
    sigmoid,
)
from .partition import Cluster, ClusterStats, cluster_of, clusters_to_json, partition
from .train import (
    AdamParams,
    TrainConfig,
    TrainHistory,
    accuracy,
    batch_gradients,
    batch_loss,
    history_to_csv,
    init_network,
    train,
    train_seeds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ActivationPattern",
    "AdamParams",
    "AffineMap",
    "Cluster",
    "ClusterStats",
    "Dataset",
    "ForwardTrace",
    "ImportanceReport",
    "InputError",
    "JacobianReport",
    "Layer",
    "Network",
    "SchemaError",
    "ShapeError",
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "VerifyReport",
    "accuracy",
    "batch_gradients",
    "batch_loss",
    "cluster_of",
    "clusters_to_json",
    "effective_affine",
    "feature_importance",
    "forward_batch",
    "forward_trace",
    "gen_boolean",
    "history_to_csv",
    "init_network",
    "jacobian_check",
    "load_network",
    "load_titanic",
    "network_from_json",
    "network_to_json",
    "partition",
    "predict",
    "predict_batch",
    "render_report",
    "save_network",
    "sigmoid",
    "split",
    "train",
    "train_seeds",
    "verify_affine",
]
