"""Exact affine form of the network on one activation pattern.

Holding the firing pattern fixed, every ReLU acts as multiplication by a 0/1
diagonal, so the whole network collapses to a single affine map. Zeroing the
rows of inactive units is equivalent to deleting those units and their arcs
from the computation graph. The map is built by a forward sweep over the
masked weights, which is an O(depth) evaluation of the layer-product formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .network import (
    ActivationPattern,
    Network,
    forward_batch,
    forward_trace,
    group_by_pattern,
)

__all__ = [
    "AffineMap",
    "effective_affine",
    "collapse_batch",
    "VerifyReport",
    "verify_affine",
    "JacobianReport",
    "jacobian_check",
]


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The pair (omega, bias): logit(u) = omega @ u + bias on one pattern's region.

    For a scalar-output network, ``omega[0]`` is the effective weight vector
    whose entries are read as per-cluster feature importances.
    """

    omega: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        omega = np.array(self.omega, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        if omega.ndim != 2 or bias.ndim != 1 or bias.shape[0] != omega.shape[0]:
            raise ShapeError(
                f"affine map shapes omega={omega.shape}, bias={bias.shape} are inconsistent"
            )
        omega.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "bias", bias)

    def apply(self, u) -> np.ndarray:
        """Evaluate the map on one vector or on rows of a matrix."""
        u = np.asarray(u, dtype=np.float64)
        if u.ndim == 1:
            return self.omega @ u + self.bias
        return u @ self.omega.T + self.bias


def effective_affine(net: Network, pattern: ActivationPattern) -> AffineMap:
    """Collapse the network on one pattern into a single affine map.

    Zeroes the weight rows and bias entries of inactive units, then sweeps
    the layers input-to-output, composing one affine function at a time. On
    a depth-1 network this returns the layer itself for any (empty) pattern.
    """
    if not pattern.matches(net):
        raise ShapeError(
            f"pattern widths {pattern.widths} do not match hidden widths {net.hidden_widths}"
        )
    weights, biases = [], []
    for layer, row in zip(net.layers[:-1], pattern.bits):
        mask = np.array(row, dtype=np.float64)
        weights.append(layer.weight * mask[:, None])
        biases.append(layer.bias * mask)
    weights.append(net.layers[-1].weight)
    biases.append(net.layers[-1].bias)
    omega, bias = weights[0], biases[0]
    for w, b in zip(weights[1:], biases[1:]):
        omega = w @ omega
        bias = w @ bias + b
    return AffineMap(omega, bias)


# Patterns per stacked product in ``collapse_batch``: bounds the masked
# weights held at once to chunk * width * width floats per layer.
_COLLAPSE_CHUNK = 1024


def collapse_batch(net: Network, masks) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the network on many patterns at once.

    ``masks`` is a (k, total_bits) 0/1 matrix, one pattern per row with the
    hidden layers side by side. Returns omegas (k, output_dim, input_dim) and
    biases (k, output_dim). Entry i equals ``effective_affine`` on pattern i
    bit for bit: each stacked ``np.matmul`` makes, per pattern, the same
    masked products in the same order as the one-pattern sweep.
    """
    masks = np.asarray(masks, dtype=bool)
    total = sum(net.hidden_widths)
    if masks.ndim != 2 or masks.shape[1] != total:
        raise ShapeError(
            f"mask matrix shape {masks.shape} does not match {total} hidden units"
        )
    k = masks.shape[0]
    last = net.layers[-1]
    omegas = np.empty((k, net.output_dim, net.input_dim))
    biases = np.empty((k, net.output_dim))
    for lo in range(0, k, _COLLAPSE_CHUNK):
        hi = min(lo + _COLLAPSE_CHUNK, k)
        chunk = masks[lo:hi].astype(np.float64)
        omega = bias = None
        at = 0
        for layer in net.layers[:-1]:
            mask = chunk[:, at : at + layer.d_out]
            at += layer.d_out
            w = layer.weight * mask[:, :, None]
            b = layer.bias * mask
            if omega is None:
                omega, bias = w, b
            else:
                omega = w @ omega
                bias = (w @ bias[:, :, None])[:, :, 0] + b
        if omega is None:
            omegas[lo:hi] = last.weight
            biases[lo:hi] = last.bias
        else:
            omegas[lo:hi] = last.weight @ omega
            biases[lo:hi] = (last.weight @ bias[:, :, None])[:, :, 0] + last.bias
    return omegas, biases


@dataclass(frozen=True)
class VerifyReport:
    """Worst-case gap between the per-pattern affine maps and the real forward pass."""

    max_abs_err: float
    worst_index: int
    passed: bool
    tol: float
    n_inputs: int
    n_patterns: int

    def to_dict(self) -> dict:
        return {
            "max_abs_err": self.max_abs_err,
            "worst_index": self.worst_index,
            "pass": self.passed,
            "tol": self.tol,
            "n_inputs": self.n_inputs,
            "n_patterns": self.n_patterns,
        }


def verify_affine(net: Network, inputs, tol: float = 1e-6) -> VerifyReport:
    """Check |affine(u) - logit(u)| over a batch of inputs.

    Inputs are grouped by activation pattern and the map of every distinct
    pattern is built in one ``collapse_batch``, from the weights alone; the
    result does not depend on input order.
    """
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InputError("verify_affine needs at least one input")
    logits, masks, order, counts = group_by_pattern(net, X)
    starts = np.cumsum(counts) - counts
    omegas, biases = collapse_batch(net, masks)
    # Each row's error, at its place in ``order``. The groups of one size are
    # one stacked product, per group the same as ``AffineMap.apply``.
    err = np.empty(X.shape[0])
    for size in np.unique(counts):
        groups = np.flatnonzero(counts == size)
        at = starts[groups][:, None] + np.arange(size)
        rows = order[at]
        fit = X[rows] @ omegas[groups].transpose(0, 2, 1) + biases[groups][:, None, :]
        err[at] = np.abs(fit - logits[rows]).max(axis=2)
    # The first maximum in ``order`` lies in the first pattern, in np.unique
    # order, that attains it, and is that pattern's lowest such row.
    first = int(np.argmax(err))
    max_err = float(err[first])
    return VerifyReport(
        max_abs_err=max_err,
        worst_index=int(order[first]),
        passed=max_err <= tol,
        tol=tol,
        n_inputs=X.shape[0],
        n_patterns=len(counts),
    )


@dataclass(frozen=True)
class JacobianReport:
    """Finite-difference probe of the effective weights at one input."""

    max_row_err: float | None
    skipped: bool
    reason: str | None = None


def jacobian_check(net: Network, u, h: float = 1e-4) -> JacobianReport:
    """Compare central finite differences of the logit against the affine weights.

    The check only makes sense strictly inside a linear region: if any hidden
    preactivation is within 10*h of zero the input is treated as boundary and
    the check is skipped rather than failed.
    """
    if not 0.0 < h < np.inf:
        raise InputError(f"step h must be positive and finite, got {h}")
    trace = forward_trace(net, u)
    for z in trace.preactivations[:-1]:
        if np.any(np.abs(z) < 10.0 * h):
            return JacobianReport(max_row_err=None, skipped=True, reason="boundary")
    amap = effective_affine(net, trace.pattern)
    u = np.asarray(u, dtype=np.float64)
    d = net.input_dim
    steps = np.vstack([np.eye(d) * h, -np.eye(d) * h])
    logits, _ = forward_batch(net, u[None, :] + steps)
    fd = (logits[:d] - logits[d:]) / (2.0 * h)  # (d, q)
    err = float(np.abs(fd.T - amap.omega).max())
    return JacobianReport(max_row_err=err, skipped=False)

