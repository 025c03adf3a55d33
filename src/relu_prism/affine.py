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
    ActivationPattern, Network, _group_rows, _input_vector, _preactivations, forward_batch,
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


@dataclass(frozen=True, eq=False, slots=True)
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

    @classmethod
    def _from_frozen(cls, omega: np.ndarray, bias: np.ndarray) -> "AffineMap":
        """Wrap read-only float64 arrays of consistent shapes, uncopied and unchecked."""
        affine = object.__new__(cls)
        object.__setattr__(affine, "omega", omega)
        object.__setattr__(affine, "bias", bias)
        return affine

    def __reduce__(self):
        # Unpickled arrays are writeable; the constructor's copies are read-only.
        return AffineMap, (self.omega, self.bias)

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


def _pattern_table(net: Network, X: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one pass over rows X: their logits, grouped by pattern, and each pattern's map.

    Returns the logits (n, output_dim), the (k, total_bits) masks of the k
    distinct patterns with hidden layers side by side, the row order
    ``order``, the row count of each pattern, and the omegas and biases of
    one ``collapse_batch`` over the masks. Pattern g owns
    ``order[s : s + counts[g]]`` with ``s = counts[:g].sum()``, a strictly
    increasing run of row indices.

    Each row's key is its packed bits. ``_group_rows`` pads every key to at
    least one word, which groups the empty keys of a net without hidden
    layers too, and orders the patterns by bitstring. Finite weights can
    still overflow, in the forward pass or in the collapse; the values are
    kept without a warning, and ``_verify_table`` refuses a non-finite logit
    by its row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits, bits = forward_batch(net, X)
        n = logits.shape[0]
        width = sum(b.shape[1] for b in bits)
        keys = np.packbits(np.hstack(bits), axis=1) if bits else np.zeros((n, 0), dtype=np.uint8)
        order, starts = _group_rows(keys)
        counts = np.diff(starts, append=n)
        packed = np.take(keys, order[starts], axis=0)
        masks = np.unpackbits(packed, axis=1, count=width).view(bool)
        return logits, masks, order, counts, *collapse_batch(net, masks)


# Rows per stacked product in ``verify_affine``: bounds the rows it gathers at once.
_VERIFY_BLOCK = 1024


def _row_errors(X, logits, omegas, biases, order, counts) -> np.ndarray:
    """Each row's largest |affine - logit| gap, at its place in ``order``.

    Pattern g owns rows ``order[s : s + counts[g]]`` and the map
    ``(omegas[g], biases[g])``. Groups of one size are stacked in products
    of at most a block of rows, per group the same as ``AffineMap.apply``. A
    group larger than a block is cut into slices of a block of rows, and a
    last row left alone joins the slice before it, so every row keeps the
    bits of its group's whole product. The sizes come from a bincount:
    np.unique would import numpy.ma.
    """
    starts = np.cumsum(counts) - counts
    err = np.empty(X.shape[0])
    for size in np.flatnonzero(np.bincount(counts)).tolist():
        groups = np.flatnonzero(counts == size)
        # A lone row would take another BLAS kernel than the slice before it.
        cuts = [*range(0, max(size - 1, 1), _VERIFY_BLOCK), size]
        stack = max(1, _VERIFY_BLOCK // size)
        for g in range(0, len(groups), stack):
            chunk = groups[g : g + stack]
            omega_t = omegas[chunk].transpose(0, 2, 1)
            bias = biases[chunk][:, None, :]
            for lo, hi in zip(cuts, cuts[1:]):
                at = starts[chunk][:, None] + np.arange(lo, hi)
                rows = order[at]
                fit = X[rows] @ omega_t + bias
                err[at] = np.abs(fit - logits[rows]).max(axis=2)
    return err


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
    result does not depend on input order. A row whose logit is not finite
    is refused with an ``InputError`` naming the first such row.
    """
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InputError("verify_affine needs at least one input")
    return _verify_table(X, _pattern_table(net, X), tol)


def _verify_table(X: np.ndarray, table: tuple, tol: float) -> VerifyReport:
    """The ``VerifyReport`` of rows X from their ``_pattern_table``."""
    logits, _, order, counts, omegas, biases = table
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise InputError(f"the network's logit on input row {bad[0]} is not finite")
    err = _row_errors(X, logits, omegas, biases, order, counts)
    # The first maximum in ``order`` lies in the first pattern, in bitstring
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


def jacobian_check(net: Network, u, h: float = 1e-4) -> JacobianReport:
    """Compare central finite differences of the logit against the affine weights.

    Each difference moves u by h along one axis, so the check is exact only
    while that step stays in u's linear region. On the region each hidden
    preactivation is affine, z_i = g_i . u + c_i, where g_i is row i of the
    partial collapse through unit i's layer, taken before unit i's own mask.
    The distance from u to the region's boundary is r = min |z_i| / ||g_i||
    over the units with g_i != 0, and the check is skipped exactly when h >= r.
    Each ||g_i|| is taken scaled, as m ||g_i / m|| with m = max |g_ij|, so no
    square overflows. A row of g with a non-finite entry, or whose norm is
    beyond the float range, gives its unit r = 0. Finite weights can still
    overflow in the products; the check runs without a warning. Omega is the
    last layer times the sweep's final masked partial collapse. This is the
    one-row case of ``_jacobian_probe``.
    """
    if not 0.0 < h < np.inf:
        raise InputError(f"step h must be positive and finite, got {h}")
    err, skipped = _jacobian_probe(net, _input_vector(net, u)[None, :], h)
    return JacobianReport(None if skipped[0] else float(err[0]), bool(skipped[0]))


def _jacobian_probe(net: Network, U: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``jacobian_check`` at each row of the finite (k, input_dim) matrix U, in one pass.

    Returns each row's error, NaN where the row is skipped, and the skipped
    mask. Each stacked product makes a row's one-row product.
    """
    k, d = U.shape
    with np.errstate(over="ignore", invalid="ignore"):
        pres = _preactivations(((layer.weight, layer.bias) for layer in net.layers), U)
        partial, radius = np.broadcast_to(np.eye(d), (k, d, d)), np.full(k, np.inf)
        # Each z is read before the loop resumes, which rectifies it in place.
        for layer, z in zip(net.layers[:-1], pres):
            g = layer.weight @ partial
            scale = np.abs(g).max(axis=2, initial=0.0)
            live = scale != 0.0  # a NaN entry makes a NaN scale, and its row live
            norms = np.linalg.norm(g / np.where(live, scale, 1.0)[..., None], axis=2) * scale
            radii = np.divide(np.abs(z), norms, out=np.where(live, 0.0, np.inf),
                              where=live & np.isfinite(norms))
            # fmin passes over NaN: a layer whose least radius is NaN bounds nothing.
            radius = np.fmin(radius, radii.min(axis=1, initial=np.inf))
            partial = g * (z > 0.0)[..., None]
        skipped = h >= radius
        steps = np.vstack([np.eye(d) * h, -np.eye(d) * h])
        logits, _ = forward_batch(net, (U[~skipped, None, :] + steps).reshape(-1, d))
        logits = logits.reshape(-1, 2 * d, net.output_dim)
        fd = (logits[:, :d] - logits[:, d:]) / (2.0 * h)  # (checked, d, q)
        err = np.full(k, np.nan)
        err[~skipped] = np.abs(fd.mT - net.layers[-1].weight @ partial[~skipped]).max(axis=(1, 2))
    return err, skipped
