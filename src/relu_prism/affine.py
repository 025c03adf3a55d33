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


def _check_pattern(net: Network, pattern: ActivationPattern) -> None:
    if pattern.widths != net.hidden_widths:
        raise ShapeError(
            f"pattern widths {pattern.widths} do not match hidden widths {net.hidden_widths}"
        )


def effective_affine(net: Network, pattern: ActivationPattern) -> AffineMap:
    """Collapse the network on one pattern into a single affine map.

    Zeroes the weight rows and bias entries of inactive units, then sweeps
    the layers input-to-output, composing one affine function at a time. On
    a depth-1 network this returns the layer itself for any (empty) pattern.
    """
    _check_pattern(net, pattern)
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

    Inputs are grouped by activation pattern so each affine map is built once
    per distinct pattern; the result does not depend on input order.
    """
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InputError("verify_affine needs at least one input")
    logits, bitmat, groups = group_by_pattern(net, X)
    widths = net.hidden_widths
    max_err = 0.0
    worst = 0
    n_patterns = 0
    for idx in groups:
        pattern = ActivationPattern.from_flat(bitmat[idx[0]], widths)
        amap = effective_affine(net, pattern)
        err = np.abs(amap.apply(X[idx]) - logits[idx]).max(axis=1)
        k = int(np.argmax(err))
        if err[k] > max_err or n_patterns == 0:
            max_err = float(err[k])
            worst = int(idx[k])
        n_patterns += 1
    return VerifyReport(
        max_abs_err=max_err,
        worst_index=worst,
        passed=max_err <= tol,
        tol=tol,
        n_inputs=X.shape[0],
        n_patterns=n_patterns,
    )


@dataclass(frozen=True)
class JacobianReport:
    """Finite-difference probe of the effective weights at one input."""

    max_row_err: float | None
    skipped: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "max_row_err": self.max_row_err,
            "skipped": self.skipped,
            "reason": self.reason,
        }


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

