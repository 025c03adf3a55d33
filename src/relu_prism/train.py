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
import numbers
from dataclasses import dataclass

import numpy as np

from ._forking import _fork
from .data import Dataset
from .errors import InputError, ShapeError, TrainingDivergedError
from .network import Layer, Network, _group_rows, _preactivations, predict_batch

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "init_network",
    "train",
    "train_seeds",
    "accuracy",
    "batch_loss",
    "batch_gradients",
    "history_to_csv",
]

REG_NORMS = ("l1", "l2")
REG_REDUCTIONS = ("mean", "sum")

# Adam's standard decay rates (Kingma & Ba, 2015), with Keras's epsilon.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-7


def _is_count(value) -> bool:
    """An integer >= 1, Python or numpy; not a bool, a float or a str."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _is_real(value) -> bool:
    """A Python or numpy real number; not a bool or a str."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults reproduce the reference experiment setup.

    The regularizer covers every hidden layer and is configurable in two
    directions: norm (l1 or l2), and whether the per-batch value is the mean
    over batch and units ("mean") or the per-sample sum over units averaged
    over the batch ("sum", the convention of common deep-learning frameworks).
    """

    hidden_widths: tuple[int, ...] = (4, 2)
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 100
    activity_reg_coeff: float = 0.02
    seed: int = 0
    reg_norm: str = "l1"
    reg_reduction: str = "mean"

    def __post_init__(self):
        widths = tuple(self.hidden_widths)
        if not widths or not all(map(_is_count, widths)):
            raise InputError(f"hidden_widths must be integers >= 1, got {self.hidden_widths!r}")
        object.__setattr__(self, "hidden_widths", tuple(map(int, widths)))
        if not (_is_real(self.learning_rate) and 0.0 < self.learning_rate < math.inf):
            raise InputError(
                f"learning_rate must be a finite number > 0, got {self.learning_rate!r}"
            )
        for name in ("epochs", "batch_size"):
            if not _is_count(getattr(self, name)):
                raise InputError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not (_is_real(self.activity_reg_coeff) and 0.0 <= self.activity_reg_coeff < math.inf):
            raise InputError(
                f"activity_reg_coeff must be a finite number >= 0, got {self.activity_reg_coeff!r}"
            )
        if self.reg_norm not in REG_NORMS:
            raise InputError(f"reg_norm must be one of {REG_NORMS}, got {self.reg_norm!r}")
        if self.reg_reduction not in REG_REDUCTIONS:
            raise InputError(
                f"reg_reduction must be one of {REG_REDUCTIONS}, got {self.reg_reduction!r}"
            )


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean training loss and full-dataset accuracy."""

    losses: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        if len(self.losses) != len(self.accuracies):
            raise InputError("losses and accuracies must have equal length")


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
    """(hidden layer, unit divisor) for each hidden layer of ``Ws``.

    ``Ws`` may come from an externally built network, whose depth need not
    match ``config.hidden_widths``. The penalty's scale on a batch of B rows is coeff / (B * divisor): the
    divisor is the layer's width for the "mean" reduction and 1 for "sum".
    """
    if config.activity_reg_coeff == 0.0:
        return ()
    return tuple(
        (i, Ws[i].shape[-2] if config.reg_reduction == "mean" else 1)
        for i in range(len(Ws) - 1)
    )


def _loss_and_grads(Ws, bs, X, t, config: TrainConfig, reg, grads=None):
    """Mean BCE + activity penalty over one batch; optional backprop.

    One network's arrays are weights (out, in), biases (out,), rows X (B, d)
    and targets t (B,), and its loss is a scalar. A stack of S networks puts
    a leading seed axis on each, with biases (S, 1, out) to broadcast over
    the rows, and gets S losses: every sum runs along its own seed's batch,
    so each seed gets the bits of a lone run. ``reg`` comes from
    `_reg_terms`. When ``grads`` is a pair of per-layer lists (dWs, dbs), the
    gradients are written into those arrays: dW shaped like W, db (…, out).
    Sums are ``np.add.reduce`` calls, which skip the Python wrapper of
    ``ndarray.sum``.

    The regularizer's subgradient at an exactly-zero activation is 0, which
    matches the strict-activity rule: a unit sitting on its kink contributes
    neither to the pattern nor to the penalty gradient.

    Callers run this with numpy overflow/invalid warnings silenced: when the
    parameters blow up the loss goes non-finite, and the caller turns that
    into a typed divergence error instead of warning noise.
    """
    B = t.shape[-1]
    # acts[i + 1] is hidden layer i's activations: the loop rectified it in place.
    acts = [X, *_preactivations(zip(Ws, bs), X)]
    logit = acts.pop()[..., 0]
    e = np.exp(-np.abs(logit))
    loss = np.add.reduce(np.maximum(logit, 0.0) - logit * t + np.log1p(e), axis=-1) / B

    scales = {}
    for i, divisor in reg:
        scales[i] = config.activity_reg_coeff / (B * divisor)
        pen = acts[i + 1] if config.reg_norm == "l1" else acts[i + 1] ** 2
        loss += scales[i] * np.add.reduce(pen, axis=(-2, -1))
    if grads is None:
        return loss

    dWs, dbs = grads
    # sigmoid(logit), from the loss's exp(-|logit|)
    g = ((np.where(logit >= 0.0, 1.0, e) / (1.0 + e) - t) / B)[..., None]
    np.matmul(g.mT, acts[-1], out=dWs[-1])
    np.add.reduce(g, axis=-2, out=dbs[-1])
    ga = g @ Ws[-1]
    for i in reversed(range(len(Ws) - 1)):
        a = acts[i + 1]
        if i in scales:
            # post-activations are >= 0, so sign(a) is the l1 subgradient with 0 at 0
            ga += scales[i] * (np.sign(a) if config.reg_norm == "l1" else 2.0 * a)
        gz = ga * (a > 0.0)
        np.matmul(gz.mT, acts[i], out=dWs[i])
        np.add.reduce(gz, axis=-2, out=dbs[i])
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
        return float(_loss_and_grads(
            Ws, bs, X, t.astype(np.float64), config, _reg_terms(config, Ws), grads
        ))


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
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _train_lockstep(dataset: Dataset, config: TrainConfig, seeds):
    """Train one network per seed, every seed in each numpy call.

    Returns each layer's weights (S, out, in) and biases (S, out), the
    per-epoch losses and accuracies (epochs, S), and, by position in
    ``seeds``, the first epoch in which each diverged seed's batch loss or
    epoch loss went non-finite. A diverged seed trains on with non-finite
    weights, which touch no other seed; training stops early only when the
    first seed of ``seeds`` diverges, as no other seed's result is then used.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    S, n, d = len(rngs), dataset.n_rows, dataset.n_features
    per_seed = [Ws + bs for Ws, bs in (_glorot(d, config.hidden_widths, rng) for rng in rngs)]
    n_layers = len(config.hidden_widths) + 1
    # A lone seed runs on plain 2-D arrays: on the stacked (1, …) arrays a
    # one-seed `train` at 50k rows ran 13% slower, in 17 of 20 pairs.
    lead = (S,) if S > 1 else ()

    # Every W and b is a view into one flat buffer, and every gradient a view
    # into a matching one, so Adam updates all parameters of every seed in
    # whole-buffer calls.
    params = np.concatenate([np.stack(p).ravel() for p in zip(*per_seed)])
    shapes = [(*lead, *p.shape) for p in per_seed[0]]
    grad = np.zeros_like(params)
    views, grad_views = _views(params, shapes), _views(grad, shapes)
    Ws = views[:n_layers]
    bs = [b[..., None, :] for b in views[n_layers:]]  # a row axis, to broadcast
    grads = (grad_views[:n_layers], grad_views[n_layers:])
    # The same parameters, indexed by seed.
    seed_Ws = [W.reshape(S, *W.shape[-2:]) for W in Ws]
    seed_bs = [b.reshape(S, b.shape[-1]) for b in views[n_layers:]]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    upd = np.empty_like(params)
    denom = np.empty_like(params)

    X_all, t_all = dataset.features, dataset.targets.astype(np.float64)
    # The per-epoch accuracy runs over the distinct rows, equal in every
    # byte, each with the counts of its 0 and 1 targets: the exact count of
    # correct rows is that of a pass over all n rows.
    order, starts = _group_rows(X_all.view(np.uint8))
    X_distinct = np.take(X_all, order[starts], axis=0)
    ones = np.add.reduceat(dataset.targets[order], starts)
    zeros = np.diff(starts, append=n) - ones
    # Only the distinct rows and their counts are kept through training.
    del order, starts
    lr, batch = config.learning_rate, config.batch_size
    # One row order per seed, held as int32 where n fits: half the memory of
    # a sweep's orders, and the same rows gathered.
    perms = np.empty((S, n), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.intp)
    reg = _reg_terms(config, Ws)
    beta1, beta2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON
    step = 0
    losses = np.empty((config.epochs, S))
    accuracies = np.empty((config.epochs, S))
    diverged: dict[int, int] = {}

    def diverges(loss) -> bool:
        """Record each seed whose ``loss`` is not finite; True once the first seed's is not."""
        # A lone seed's loss is a scalar; the largest of several losses is
        # non-finite exactly when one of them is.
        if math.isfinite(loss if S == 1 else loss.max()):
            return False
        for s in np.flatnonzero(~np.isfinite(loss)).tolist():
            diverged.setdefault(s, epoch)
        return 0 in diverged

    # errstate: a diverged seed's weights overflow on every later step.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            for s, rng in enumerate(rngs):
                perms[s] = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                index = perms[:, start : start + batch].reshape(*lead, -1)
                loss = _loss_and_grads(
                    Ws, bs, np.take(X_all, index, axis=0), np.take(t_all, index),
                    config, reg, grads,
                )
                if diverges(loss):
                    return seed_Ws, seed_bs, losses, accuracies, diverged
                epoch_loss = epoch_loss + loss * index.shape[-1]
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
            losses[epoch - 1] = epoch_loss / n
            # Finite batch losses can still sum past the float range.
            if diverges(epoch_loss / n):
                return seed_Ws, seed_bs, losses, accuracies, diverged
            for s in range(S):
                layers = ((W[s], b[s]) for W, b in zip(seed_Ws, seed_bs))
                for logits in _preactivations(layers, X_distinct):
                    pass  # to the last matrix, holding two layers' matrices at a time
                accuracies[epoch - 1, s] = np.where(logits[:, 0] > 0.0, ones, zeros).sum() / n
    return seed_Ws, seed_bs, losses, accuracies, diverged


def _train_halves(dataset: Dataset, config: TrainConfig, seeds):
    """`_train_lockstep` over ``seeds``, its later half in a forked child.

    The calling process trains the first ceil(S/2) seeds and one child the
    rest, both through `_train_lockstep`, and joins the halves along the
    seed axis. Every seed's sums run along its own batch only, so each gets
    the bits of one lockstep call. The child is killed, not waited for,
    when a seed before its own diverged or the parent leaves on an error.
    One seed, or a process that `_fork` does not split, trains in one call.
    """
    if len(seeds) < 2:
        return _train_lockstep(dataset, config, seeds)
    half = (len(seeds) + 1) // 2
    with _fork(lambda: _train_lockstep(dataset, config, seeds[half:])) as join:
        if join is None:
            return _train_lockstep(dataset, config, seeds)
        first = _train_lockstep(dataset, config, seeds[:half])
        if first[4]:
            return first  # a seed before the child's diverged: the child is killed
        second = join()
    Ws, bs, losses, accuracies, diverged = first
    return (
        [np.concatenate(pair) for pair in zip(Ws, second[0])],
        [np.concatenate(pair) for pair in zip(bs, second[1])],
        np.concatenate((losses, second[2]), axis=1),
        np.concatenate((accuracies, second[3]), axis=1),
        diverged | {s + half: epoch for s, epoch in second[4].items()},
    )


def train_seeds(dataset: Dataset, config: TrainConfig, seeds):
    """Train one network per seed in lockstep; yield (net, history) in ``seeds`` order.

    ``config.seed`` is ignored: seed s runs as `train` with ``seed=s`` would,
    on its own ``default_rng(s)`` stream for Glorot and the epoch shuffles,
    and gets bit-identical weights and history. Every seed trains on the
    first ``next``, which raises InputError on an empty or repeated seed
    list. Iteration stops with TrainingDivergedError at the first seed, in
    ``seeds`` order, whose batch loss went non-finite, naming that seed's
    1-based epoch; the seeds before it are yielded first.

    Two or more seeds train as two lockstep halves in two processes, the
    later half in a forked child (`_train_halves`). They stay in one
    process where ``os.fork`` does not exist, the process may run on one
    CPU only, or it has more than one thread. No setting chooses between
    the two, and the bits are the same either way.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise InputError("train_seeds needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise InputError(f"train_seeds needs distinct seeds, got {list(seeds)}")
    Ws, bs, losses, accuracies, diverged = _train_halves(dataset, config, seeds)
    for s in range(len(seeds)):
        if s in diverged:
            raise TrainingDivergedError(diverged[s])
        net = Network(tuple(Layer(W[s], b[s]) for W, b in zip(Ws, bs)))
        yield net, TrainHistory(
            losses=tuple(losses[:, s].tolist()), accuracies=tuple(accuracies[:, s].tolist())
        )


def train(dataset: Dataset, config: TrainConfig) -> tuple[Network, TrainHistory]:
    """Mini-batch Adam over seeded epoch shuffles; the last short batch counts.

    The one-seed case of `train_seeds`. Raises TrainingDivergedError naming
    the 1-based epoch if a batch loss goes non-finite. Identical dataset and
    config give bit-identical weights.
    """
    return next(train_seeds(dataset, config, (config.seed,)))


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
