from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from relu_prism import (
    AdamParams,
    Dataset,
    InputError,
    Layer,
    Network,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    batch_gradients,
    batch_loss,
    gen_boolean,
    history_to_csv,
    init_network,
    train,
    train_seeds,
)
from conftest import make_random_network, network_text


def perturbed(net: Network, layer_i: int, which: str, idx, eps: float) -> Network:
    layers = []
    for j, layer in enumerate(net.layers):
        W = np.array(layer.weight)
        b = np.array(layer.bias)
        if j == layer_i:
            if which == "w":
                W[idx] += eps
            else:
                b[idx] += eps
        layers.append(Layer(W, b))
    return Network(tuple(layers))


def numerical_gradients(net, X, t, config, h=1e-5):
    grads = []
    for i, layer in enumerate(net.layers):
        dW = np.zeros_like(layer.weight)
        for idx in np.ndindex(*layer.weight.shape):
            up = batch_loss(perturbed(net, i, "w", idx, h), X, t, config)
            down = batch_loss(perturbed(net, i, "w", idx, -h), X, t, config)
            dW[idx] = (up - down) / (2 * h)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(*layer.bias.shape):
            up = batch_loss(perturbed(net, i, "b", idx, h), X, t, config)
            down = batch_loss(perturbed(net, i, "b", idx, -h), X, t, config)
            db[idx] = (up - down) / (2 * h)
        grads.append((dW, db))
    return grads


def relative_gap(analytic, numeric) -> float:
    worst = 0.0
    for (aW, ab), (nW, nb) in zip(analytic, numeric):
        for a, n in ((aW, nW), (ab, nb)):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def interior_micro_case(seed, widths=(2,)):
    """A micro-net and batch whose preactivations sit clear of every kink."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        net = make_random_network(rng, d=2, widths=widths)
        X = rng.uniform(-2, 2, (5, 2))
        margins = []
        a = X
        for layer in net.layers[:-1]:
            z = a @ layer.weight.T + layer.bias
            margins.append(np.abs(z).min())
            a = np.maximum(z, 0.0)
        if min(margins) > 1e-3:
            t = rng.integers(0, 2, 5)
            return net, X, t
    raise AssertionError("could not find an interior micro case")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_widths": ()},
            {"hidden_widths": (0,)},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"epochs": 0},
            {"batch_size": 0},
            {"activity_reg_coeff": -0.1},
            {"activity_reg_coeff": float("nan")},
            {"activity_reg_coeff": float("inf")},
            {"reg_norm": "linf"},
            {"reg_reduction": "median"},
            {"reg_layers": (2,)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            TrainConfig(**kwargs)

    def test_adam_validation(self):
        with pytest.raises(InputError):
            AdamParams(beta1=1.0)
        with pytest.raises(InputError):
            AdamParams(epsilon=0.0)
        with pytest.raises(InputError):
            AdamParams(epsilon=float("nan"))

    def test_defaults_match_reference_setup(self):
        config = TrainConfig()
        assert config.hidden_widths == (4, 2)
        assert config.learning_rate == 0.01
        assert config.epochs == 10
        assert config.batch_size == 100
        assert config.activity_reg_coeff == 0.02
        assert (config.adam.beta1, config.adam.beta2, config.adam.epsilon) == (
            0.9, 0.999, 1e-7,
        )

    def test_regularized_layers_default_all(self):
        assert TrainConfig().regularized_layers() == (0, 1)
        assert TrainConfig(reg_layers=(1,)).regularized_layers() == (1,)


class TestInit:
    def test_deterministic(self):
        config = TrainConfig(seed=42)
        a = init_network(10, config)
        b = init_network(10, config)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_layer_shapes(self):
        net = init_network(10, TrainConfig())
        assert [l.weight.shape for l in net.layers] == [(4, 10), (2, 4), (1, 2)]

    def test_glorot_bounds_and_zero_biases(self):
        net = init_network(100, TrainConfig(hidden_widths=(50,), seed=3))
        limit = np.sqrt(6.0 / (100 + 50))
        assert np.abs(net.layers[0].weight).max() <= limit
        for layer in net.layers:
            assert not layer.bias.any()

    def test_zero_input_gives_zero_logit(self):
        net = init_network(7, TrainConfig(seed=11))
        from relu_prism import forward_trace

        assert forward_trace(net, np.zeros(7)).logit[0] == 0.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(InputError):
            init_network(0, TrainConfig())


class TestLossAndGradients:
    def test_fused_bce_matches_naive_formula(self, rng):
        net = make_random_network(rng, d=3, widths=(3,))
        X = rng.uniform(-1, 1, (20, 3))
        t = rng.integers(0, 2, 20)
        config = TrainConfig(activity_reg_coeff=0.0)
        from relu_prism import forward_batch, sigmoid

        logits, _ = forward_batch(net, X)
        p = sigmoid(logits[:, 0])
        naive = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert batch_loss(net, X, t, config) == pytest.approx(naive, rel=1e-12)

    def test_loss_finite_at_huge_logits(self):
        net = Network((Layer([[1e6]], [0.0]),))
        config = TrainConfig(activity_reg_coeff=0.0)
        assert np.isfinite(batch_loss(net, [[1.0], [-1.0]], [1, 0], config))

    def test_regularizer_value_mean_reduction(self, rng):
        net = make_random_network(rng, d=2, widths=(3, 2))
        X = rng.uniform(-2, 2, (9, 2))
        t = rng.integers(0, 2, 9)
        base = batch_loss(net, X, t, TrainConfig(activity_reg_coeff=0.0))
        full = batch_loss(net, X, t, TrainConfig(activity_reg_coeff=0.5))
        a = X
        expected = 0.0
        for layer in net.layers[:-1]:
            a = np.maximum(a @ layer.weight.T + layer.bias, 0.0)
            expected += np.abs(a).mean()
        assert full - base == pytest.approx(0.5 * expected, rel=1e-12)

    def test_regularizer_value_sum_reduction(self, rng):
        net = make_random_network(rng, d=2, widths=(3,))
        X = rng.uniform(-2, 2, (7, 2))
        t = rng.integers(0, 2, 7)
        base = batch_loss(net, X, t, TrainConfig(activity_reg_coeff=0.0))
        full = batch_loss(
            net, X, t, TrainConfig(activity_reg_coeff=0.25, reg_reduction="sum")
        )
        a = np.maximum(X @ net.layers[0].weight.T + net.layers[0].bias, 0.0)
        expected = np.abs(a).sum(axis=1).mean()
        assert full - base == pytest.approx(0.25 * expected, rel=1e-12)

    def test_regularizer_layer_subset(self, rng):
        net = make_random_network(rng, d=2, widths=(3, 2))
        X = rng.uniform(-2, 2, (6, 2))
        t = rng.integers(0, 2, 6)
        base = batch_loss(net, X, t, TrainConfig(activity_reg_coeff=0.0))
        only_first = batch_loss(
            net, X, t, TrainConfig(activity_reg_coeff=0.5, reg_layers=(0,))
        )
        a1 = np.maximum(X @ net.layers[0].weight.T + net.layers[0].bias, 0.0)
        assert only_first - base == pytest.approx(0.5 * np.abs(a1).mean(), rel=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(activity_reg_coeff=0.0),
            TrainConfig(activity_reg_coeff=0.3),
            TrainConfig(activity_reg_coeff=0.3, reg_norm="l2"),
            TrainConfig(activity_reg_coeff=0.3, reg_reduction="sum"),
            TrainConfig(activity_reg_coeff=0.3, reg_layers=(0,)),
        ],
        ids=["no-reg", "l1-mean", "l2-mean", "l1-sum", "l1-subset"],
    )
    def test_backprop_matches_finite_differences(self, config):
        net, X, t = interior_micro_case(seed=97, widths=(2,))
        loss, analytic = batch_gradients(net, X, t, config)
        numeric = numerical_gradients(net, X, t, config)
        assert np.isfinite(loss)
        assert relative_gap(analytic, numeric) <= 1e-5

    def test_backprop_two_hidden_layers(self):
        net, X, t = interior_micro_case(seed=193, widths=(3, 2))
        config = TrainConfig(activity_reg_coeff=0.2)
        _, analytic = batch_gradients(net, X, t, config)
        numeric = numerical_gradients(net, X, t, config)
        assert relative_gap(analytic, numeric) <= 1e-5

    def test_batch_shape_validation(self, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        config = TrainConfig()
        with pytest.raises(InputError):
            batch_loss(net, np.zeros((4, 3)), [0, 1, 0, 2], config)
        from relu_prism import ShapeError

        with pytest.raises(ShapeError):
            batch_loss(net, np.zeros((4, 2)), [0, 1, 0, 1], config)


class TestTrain:
    def separable(self, n=200):
        # Margin around zero keeps 100% reachable in few epochs.
        rng = np.random.default_rng(0)
        x = rng.uniform(0.25, 1, (n, 1)) * rng.choice([-1.0, 1.0], (n, 1))
        return Dataset(x, (x[:, 0] > 0).astype(int), ("x",))

    def test_separable_toy_reaches_perfect_accuracy(self):
        ds = self.separable()
        config = TrainConfig(
            hidden_widths=(4,), activity_reg_coeff=0.0, batch_size=20, seed=1
        )
        net, history = train(ds, config)
        assert accuracy(net, ds) == 1.0
        assert history.epochs == 10
        assert all(np.isfinite(l) for l in history.losses)

    def test_bitwise_deterministic(self):
        ds = gen_boolean(500, seed=2)
        config = TrainConfig(epochs=3, seed=9)
        net_a, hist_a = train(ds, config)
        net_b, hist_b = train(ds, config)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert hist_a.losses == hist_b.losses

    def test_loss_decreases_on_simulation(self):
        ds = gen_boolean(5000, seed=1)
        _, history = train(ds, TrainConfig(seed=1))
        assert history.losses[-1] < history.losses[0]

    def test_partial_final_batch_updates_weights(self):
        # one row against batch_size 100: the only batch is the short one
        ds = Dataset([[1.0]], [1], ("x",))
        config = TrainConfig(hidden_widths=(2,), epochs=1, seed=4)
        net, _ = train(ds, config)
        start = init_network(1, config)
        assert any(
            not np.array_equal(a.weight, b.weight)
            for a, b in zip(net.layers, start.layers)
        )

    def test_divergence_raises_with_epoch(self):
        # Small batches so the loss of a later batch sees the exploded weights
        # within the first epoch.
        ds = self.separable(50)
        config = TrainConfig(
            hidden_widths=(2,), learning_rate=1e300, batch_size=10, seed=0
        )
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, config)
        assert err.value.epoch == 1
        assert "epoch 1" in str(err.value)

    def test_sweep_needs_a_seed(self):
        with pytest.raises(InputError):
            next(train_seeds(self.separable(20), TrainConfig(hidden_widths=(2,)), []))

    def test_history_lengths_match_epochs(self):
        ds = self.separable(60)
        _, history = train(ds, TrainConfig(hidden_widths=(2,), epochs=4, seed=0))
        assert history.epochs == 4
        assert len(history.accuracies) == 4


def _gaussian_dataset(n=2500, d=3, seed=11) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    t = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
    return Dataset(X, t, tuple(f"x{i}" for i in range(d)))


class TestPinnedWeights:
    """One run per trainer branch, pinned to the SHA-256 of its saved network
    text followed by its history csv. Recorded on x86-64 Linux, numpy 2.x
    with OpenBLAS 0.3.31 (Haswell kernels); another BLAS or CPU may differ."""

    # 530 rows against batch 100 (or 37) leaves a short final batch.
    CASES = {
        "l1-mean": ("boolean", TrainConfig(epochs=3, seed=1)),
        "l2-norm": ("boolean", TrainConfig(
            epochs=3, seed=2, activity_reg_coeff=0.05, reg_norm="l2")),
        "sum-reduction": ("boolean", TrainConfig(epochs=3, seed=3, reg_reduction="sum")),
        "layer-subset": ("boolean", TrainConfig(
            epochs=3, seed=4, hidden_widths=(6, 3, 2), reg_layers=(1,))),
        "no-reg": ("boolean", TrainConfig(
            epochs=3, seed=5, activity_reg_coeff=0.0, batch_size=37)),
        "gaussian-big-batch": ("gaussian", TrainConfig(epochs=4, seed=6, batch_size=1000)),
    }
    SHA256 = {
        "l1-mean": "2f11c02330aabb4d2a75591c70bcbf69348c181d2af2266996925ada27127ba5",
        "l2-norm": "b5759a497cebae69bfffcc7b125d2cd96d33bd126861e11286b6389aac18c586",
        "sum-reduction": "26419fd72f2ddee452a6147cb841dc6b91a0598e2d26c170ff7985648c77ad8d",
        "layer-subset": "1634936af9c4d3832ef42fa916ab1db000cd0d29cdb9f6ad3c28bbffadf1e38c",
        "no-reg": "642c5c788df69e9e6a76b7e939dccbd2dd11d77f278e23318d62626486bb8739",
        "gaussian-big-batch": "23d42fc9c15b34b5a86f4a533dbc71524d75f18c70660a6851c4f15c11fed47c",
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_weights_and_history_are_pinned(self, name):
        kind, config = self.CASES[name]
        ds = gen_boolean(530, seed=3) if kind == "boolean" else _gaussian_dataset()
        net, history = train(ds, config)
        text = network_text(net) + history_to_csv(history)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[name]

    @pytest.mark.parametrize("name", list(CASES))
    def test_lockstep_sweep_matches_lone_runs(self, name):
        """The pinned run leads a 3-seed lockstep sweep; every member is its lone run."""
        kind, config = self.CASES[name]
        ds = gen_boolean(530, seed=3) if kind == "boolean" else _gaussian_dataset()
        seeds = (config.seed, config.seed + 7, config.seed + 9)
        texts = [
            network_text(net) + history_to_csv(history)
            for net, history in train_seeds(ds, config, seeds)
        ]
        assert hashlib.sha256(texts[0].encode()).hexdigest() == self.SHA256[name]
        for seed, text in zip(seeds[1:], texts[1:]):
            net, history = train(ds, replace(config, seed=seed))
            assert text == network_text(net) + history_to_csv(history), seed


class TestAccuracy:
    def test_constant_predictions(self):
        always_one = Network((Layer([[0.0]], [5.0]),))
        ones = Dataset([[0.0], [1.0]], [1, 1], ("x",))
        zeros = Dataset([[0.0], [1.0]], [0, 0], ("x",))
        assert accuracy(always_one, ones) == 1.0
        assert accuracy(always_one, zeros) == 0.0


def test_history_csv_format():
    from relu_prism import TrainHistory

    text = history_to_csv(TrainHistory(losses=(0.5, 0.25), accuracies=(0.75, 1.0)))
    lines = text.splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert lines[1] == "1,0.5,0.75"
    assert lines[2] == "2,0.25,1.0"
