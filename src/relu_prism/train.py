"""From-scratch trainer: Adam on binary cross-entropy plus activity regularization.

The loss is mean BCE of sigmoid(logit) against binary targets, computed in
the fused form max(z,0) - z*t + log1p(exp(-|z|)) which never overflows. The
activity regularizer penalizes hidden post-activations, pushing units toward
staying off and thereby shrinking the number of realized activation
patterns. Everything is plain numpy and deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InputError, ShapeError, TrainingDivergedError
from .network import Layer, Network, _preactivations, predict_batch

__all__ = [
    "AdamParams",
    "TrainConfig",
    "TrainHistory",
    "init_network",
    "train",
    "accuracy",
    "batch_loss",
    "batch_gradients",
    "history_to_csv",
]

REG_NORMS = ("l1", "l2")
REG_REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class AdamParams:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InputError("Adam betas must lie in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise InputError("Adam epsilon must be positive and finite")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults reproduce the reference experiment setup.

    The regularizer is configurable in three directions: norm (l1 or l2),
    which hidden layers it covers (None = all), and whether the per-batch
    value is the mean over batch and units ("mean") or the per-sample sum
    over units averaged over the batch ("sum", the convention of common
    deep-learning frameworks).
    """

    hidden_widths: tuple[int, ...] = (4, 2)
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 100
    activity_reg_coeff: float = 0.02
    seed: int = 0
    adam: AdamParams = field(default_factory=AdamParams)
    reg_norm: str = "l1"
    reg_reduction: str = "mean"
    reg_layers: tuple[int, ...] | None = None

    def __post_init__(self):
        widths = tuple(int(w) for w in self.hidden_widths)
        if not widths or any(w < 1 for w in widths):
            raise InputError(f"hidden_widths must be positive, got {self.hidden_widths}")
        object.__setattr__(self, "hidden_widths", widths)
        if not 0.0 < self.learning_rate < math.inf:
            raise InputError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.activity_reg_coeff < math.inf:
            raise InputError(
                f"activity_reg_coeff must be >= 0 and finite, got {self.activity_reg_coeff}"
            )
        if self.reg_norm not in REG_NORMS:
            raise InputError(f"reg_norm must be one of {REG_NORMS}, got {self.reg_norm!r}")
        if self.reg_reduction not in REG_REDUCTIONS:
            raise InputError(
                f"reg_reduction must be one of {REG_REDUCTIONS}, got {self.reg_reduction!r}"
            )
        if self.reg_layers is not None:
            layers = tuple(int(i) for i in self.reg_layers)
            if any(i < 0 or i >= len(widths) for i in layers):
                raise InputError(
                    f"reg_layers {layers} out of range for {len(widths)} hidden layers"
                )
            object.__setattr__(self, "reg_layers", layers)

    def regularized_layers(self, n_hidden: int | None = None) -> tuple[int, ...]:
        """Hidden-layer indices the activity penalty applies to.

        ``n_hidden`` is the hidden-layer count of the network actually being
        evaluated, which may differ from the configured architecture when the
        loss is computed on an externally built network.
        """
        if n_hidden is None:
            n_hidden = len(self.hidden_widths)
        if self.reg_layers is None:
            return tuple(range(n_hidden))
        bad = [i for i in self.reg_layers if i >= n_hidden]
        if bad:
            raise InputError(
                f"reg_layers {self.reg_layers} out of range for {n_hidden} hidden layers"
            )
        return self.reg_layers


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean training loss and full-dataset accuracy."""

    losses: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        if len(self.losses) != len(self.accuracies):
            raise InputError("losses and accuracies must have equal length")

    @property
    def epochs(self) -> int:
        return len(self.losses)


def _glorot(d: int, widths: tuple[int, ...], rng: np.random.Generator):
    """Glorot-uniform weights, zero biases, for dims d -> widths -> 1."""
    dims = [d, *widths, 1]
    Ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        Ws.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Ws, bs


def init_network(d: int, config: TrainConfig) -> Network:
    """The network `train` starts from: same seed, same draws."""
    if d < 1:
        raise InputError(f"input dimension must be >= 1, got {d}")
    Ws, bs = _glorot(d, config.hidden_widths, np.random.default_rng(config.seed))
    return Network(tuple(Layer(w, b) for w, b in zip(Ws, bs)))


def _reg_terms(config: TrainConfig, Ws) -> tuple[tuple[int, int], ...]:
    """(hidden layer, unit divisor) for each layer the activity penalty covers.

    The penalty's scale on a batch of B rows is coeff / (B * divisor): the
    divisor is the layer's width for the "mean" reduction and 1 for "sum".
    """
    if config.activity_reg_coeff == 0.0:
        return ()
    n_hidden = len(Ws) - 1
    return tuple(
        (i, Ws[i].shape[0] if config.reg_reduction == "mean" else 1)
        for i in config.regularized_layers(n_hidden)
    )


def _loss_and_grads(Ws, bs, X, t, config: TrainConfig, reg, grads=None) -> float:
    """Mean BCE + activity penalty over one batch; optional backprop.

    ``reg`` comes from `_reg_terms`. When ``grads`` is a pair of per-layer
    lists (dWs, dbs), the gradients are written into those arrays.

    The regularizer's subgradient at an exactly-zero activation is 0, which
    matches the strict-activity rule: a unit sitting on its kink contributes
    neither to the pattern nor to the penalty gradient.

    Callers run this with numpy overflow/invalid warnings silenced: when the
    parameters blow up the loss goes non-finite, and the caller turns that
    into a typed divergence error instead of warning noise.
    """
    B = X.shape[0]
    # acts[i + 1] is hidden layer i's activations: the loop rectified it in place.
    acts = [X, *_preactivations(zip(Ws, bs), X)]
    logit = acts.pop()[:, 0]
    e = np.exp(-np.abs(logit))
    loss = float((np.maximum(logit, 0.0) - logit * t + np.log1p(e)).sum() / B)

    scales = {}
    for i, divisor in reg:
        scales[i] = config.activity_reg_coeff / (B * divisor)
        pen = acts[i + 1] if config.reg_norm == "l1" else acts[i + 1] ** 2
        loss += scales[i] * float(pen.sum())
    if grads is None:
        return loss

    dWs, dbs = grads
    # sigmoid(logit), from the loss's exp(-|logit|)
    g = ((np.where(logit >= 0.0, 1.0, e) / (1.0 + e) - t) / B)[:, None]
    np.matmul(g.T, acts[-1], out=dWs[-1])
    g.sum(axis=0, out=dbs[-1])
    ga = g @ Ws[-1]
    for i in reversed(range(len(Ws) - 1)):
        a = acts[i + 1]
        if i in scales:
            # post-activations are >= 0, so sign(a) is the l1 subgradient with 0 at 0
            ga += scales[i] * (np.sign(a) if config.reg_norm == "l1" else 2.0 * a)
        gz = ga * (a > 0.0)
        np.matmul(gz.T, acts[i], out=dWs[i])
        gz.sum(axis=0, out=dbs[i])
        if i:
            ga = gz @ Ws[i]
    return loss


def _batch_loss_and_grads(net: Network, features, targets, config: TrainConfig, grads=None):
    X = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"features shape {X.shape} does not match input_dim={net.input_dim}")
    if t.shape != (X.shape[0],):
        raise ShapeError(f"targets shape {t.shape} does not match {X.shape[0]} rows")
    if not np.all((t == 0) | (t == 1)):
        raise InputError("targets must be 0 or 1")
    Ws = [l.weight for l in net.layers]
    bs = [l.bias for l in net.layers]
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads(
            Ws, bs, X, t.astype(np.float64), config, _reg_terms(config, Ws), grads
        )


def batch_loss(net: Network, features, targets, config: TrainConfig) -> float:
    """The full training objective on one batch, as a pure function of `net`."""
    return _batch_loss_and_grads(net, features, targets, config)


def batch_gradients(net: Network, features, targets, config: TrainConfig):
    """Backpropagated gradients of `batch_loss` for every layer.

    Returns (loss, [(dW, db) per layer]) so finite differences can audit the
    analytic gradient parameter by parameter.
    """
    dWs = [np.empty_like(l.weight) for l in net.layers]
    dbs = [np.empty_like(l.bias) for l in net.layers]
    loss = _batch_loss_and_grads(net, features, targets, config, (dWs, dbs))
    return loss, list(zip(dWs, dbs))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def train(dataset: Dataset, config: TrainConfig) -> tuple[Network, TrainHistory]:
    """Mini-batch Adam over seeded epoch shuffles; the last short batch counts.

    Raises TrainingDivergedError naming the 1-based epoch if a batch loss
    goes non-finite. Identical dataset and config give bit-identical weights.
    """
    rng = np.random.default_rng(config.seed)
    Ws, bs = _glorot(dataset.n_features, config.hidden_widths, rng)
    n_layers = len(Ws)
    X_all, t_all = dataset.features, dataset.targets.astype(np.float64)
    n = dataset.n_rows

    # Every W and b is a view into one flat buffer, and every gradient a view
    # into a matching one, so Adam updates all parameters in whole-buffer calls.
    shapes = [p.shape for p in Ws + bs]
    params = np.concatenate([p.ravel() for p in Ws + bs])
    grad = np.zeros_like(params)
    views, grad_views = _views(params, shapes), _views(grad, shapes)
    Ws, bs = views[:n_layers], views[n_layers:]
    grads = (grad_views[:n_layers], grad_views[n_layers:])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    upd = np.empty_like(params)
    denom = np.empty_like(params)
    X_perm = np.empty_like(X_all)
    t_perm = np.empty_like(t_all)
    reg = _reg_terms(config, Ws)
    lr, batch = config.learning_rate, config.batch_size
    beta1, beta2, eps = config.adam.beta1, config.adam.beta2, config.adam.epsilon
    step = 0
    losses, accuracies = [], []
    # errstate: exploded-but-not-yet-detected weights may overflow; the next
    # batch loss check raises the typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n)
            np.take(X_all, perm, axis=0, out=X_perm)
            np.take(t_all, perm, out=t_perm)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                X = X_perm[start : start + batch]
                loss = _loss_and_grads(
                    Ws, bs, X, t_perm[start : start + batch], config, reg, grads
                )
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch)
                epoch_loss += loss * X.shape[0]
                step += 1
                corr1 = 1.0 - beta1**step
                corr2 = 1.0 - beta2**step
                # p -= lr * (m / corr1) / (sqrt(v / corr2) + eps), in place
                m *= beta1
                np.multiply(grad, 1.0 - beta1, out=upd)
                m += upd
                v *= beta2
                np.square(grad, out=upd)
                upd *= 1.0 - beta2
                v += upd
                np.divide(m, corr1, out=upd)
                upd *= lr
                np.divide(v, corr2, out=denom)
                np.sqrt(denom, out=denom)
                denom += eps
                upd /= denom
                params -= upd
            losses.append(epoch_loss / n)
            for logits in _preactivations(zip(Ws, bs), X_all):
                pass  # to the last matrix, holding two layers' matrices at a time
            accuracies.append(float(((logits[:, 0] > 0.0) == t_all).mean()))
    net = Network(tuple(Layer(w, b) for w, b in zip(Ws, bs)))
    return net, TrainHistory(losses=tuple(losses), accuracies=tuple(accuracies))


def accuracy(net: Network, dataset: Dataset) -> float:
    """Fraction of rows where the predicted class equals the target."""
    if dataset.n_rows == 0:
        raise InputError("accuracy needs a non-empty dataset")
    return float((predict_batch(net, dataset.features) == dataset.targets).mean())


def history_to_csv(history: TrainHistory) -> str:
    """Rows of (epoch, loss, accuracy), 1-based epochs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss", "accuracy"])
    for i, (loss, acc) in enumerate(zip(history.losses, history.accuracies), start=1):
        writer.writerow([i, repr(loss), repr(acc)])
    return buf.getvalue()
