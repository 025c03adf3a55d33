from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relu_prism import (
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
from relu_prism.train import _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON
from conftest import counted_forks, make_random_network, network_text


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
            {"epochs": 2.5},
            {"epochs": True},
            {"batch_size": 2.5},
            {"batch_size": "100"},
            {"hidden_widths": (4.7, 2)},
            {"hidden_widths": ("4", 2)},
            {"hidden_widths": (True, 2)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": True}, "learning_rate must be a finite number > 0, got True"),
            ({"learning_rate": "0.01"}, "learning_rate must be a finite number > 0, got '0.01'"),
            ({"activity_reg_coeff": False},
             "activity_reg_coeff must be a finite number >= 0, got False"),
            ({"activity_reg_coeff": True},
             "activity_reg_coeff must be a finite number >= 0, got True"),
        ],
    )
    def test_refuses_a_value_of_the_wrong_type_in_one_line(self, kwargs, message):
        """A bool, a float or a str is not taken for an integer, nor a bool for a number."""
        with pytest.raises(InputError) as info:
            TrainConfig(**kwargs)
        assert str(info.value) == message

    def test_numpy_scalars_are_accepted(self):
        TrainConfig(learning_rate=np.float64(0.01), activity_reg_coeff=np.float32(0.5))

    def test_defaults_match_reference_setup(self):
        config = TrainConfig()
        assert config.hidden_widths == (4, 2)
        assert config.learning_rate == 0.01
        assert config.epochs == 10
        assert config.batch_size == 100
        assert config.activity_reg_coeff == 0.02
        assert (_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON) == (0.9, 0.999, 1e-7)


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
        from relu_prism import forward_batch

        logits, _ = forward_batch(net, X)
        p = 1.0 / (1.0 + np.exp(-logits[:, 0]))
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

    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(activity_reg_coeff=0.0),
            TrainConfig(activity_reg_coeff=0.3),
            TrainConfig(activity_reg_coeff=0.3, reg_norm="l2"),
            TrainConfig(activity_reg_coeff=0.3, reg_reduction="sum"),
        ],
        ids=["no-reg", "l1-mean", "l2-mean", "l1-sum"],
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
        assert len(history.losses) == 10
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

    def test_divergence_survives_a_pickle_round_trip(self):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(3)))
        assert type(err) is TrainingDivergedError and err.epoch == 3
        assert str(err) == "training diverged with non-finite loss at epoch 3"

    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2)], ids=["lone", "lockstep"])
    def test_epoch_loss_past_the_float_range_diverges(self, seeds):
        """Each batch loss is finite, but their weighted sum over the epoch is not."""
        ds = gen_boolean(300, 5)
        config = TrainConfig(hidden_widths=(4, 2), epochs=1, activity_reg_coeff=1e308, seed=0)
        assert np.isfinite(batch_loss(init_network(10, config), ds.features, ds.targets, config))
        diverged = trainer._train_lockstep(ds, config, seeds)[4]
        assert diverged == dict.fromkeys(range(len(seeds)), 1)
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, config)
        assert err.value.epoch == 1

    def test_sweep_needs_a_seed(self):
        with pytest.raises(InputError):
            next(train_seeds(self.separable(20), TrainConfig(hidden_widths=(2,)), []))

    def test_sweep_refuses_a_repeated_seed(self):
        with pytest.raises(InputError, match=r"distinct seeds, got \[1, 2, 1\]"):
            next(train_seeds(self.separable(20), TrainConfig(hidden_widths=(2,)), [1, 2, 1]))

    def test_history_lengths_match_epochs(self):
        ds = self.separable(60)
        _, history = train(ds, TrainConfig(hidden_widths=(2,), epochs=4, seed=0))
        assert len(history.losses) == 4
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

    # 530 rows against batch 100 (or 37) leaves a short final batch; batch 1
    # and batch 600 pin the two edges: one row per step, one step per epoch.
    CASES = {
        "l1-mean": ("boolean", TrainConfig(epochs=3, seed=1)),
        "l2-norm": ("boolean", TrainConfig(
            epochs=3, seed=2, activity_reg_coeff=0.05, reg_norm="l2")),
        "sum-reduction": ("boolean", TrainConfig(epochs=3, seed=3, reg_reduction="sum")),
        "three-hidden": ("boolean", TrainConfig(epochs=3, seed=4, hidden_widths=(6, 3, 2))),
        "no-reg": ("boolean", TrainConfig(
            epochs=3, seed=5, activity_reg_coeff=0.0, batch_size=37)),
        "gaussian-big-batch": ("gaussian", TrainConfig(epochs=4, seed=6, batch_size=1000)),
        "batch-of-one": ("boolean", TrainConfig(epochs=3, seed=7, batch_size=1)),
        "batch-over-rows": ("boolean", TrainConfig(epochs=3, seed=8, batch_size=600)),
    }
    SHA256 = {
        "l1-mean": "2f11c02330aabb4d2a75591c70bcbf69348c181d2af2266996925ada27127ba5",
        "l2-norm": "b5759a497cebae69bfffcc7b125d2cd96d33bd126861e11286b6389aac18c586",
        "sum-reduction": "26419fd72f2ddee452a6147cb841dc6b91a0598e2d26c170ff7985648c77ad8d",
        "three-hidden": "185af29bbc55efa3ebefa67e0779ea16b109228b71f39161f3e36d8ee332c16e",
        "no-reg": "642c5c788df69e9e6a76b7e939dccbd2dd11d77f278e23318d62626486bb8739",
        "gaussian-big-batch": "23d42fc9c15b34b5a86f4a533dbc71524d75f18c70660a6851c4f15c11fed47c",
        "batch-of-one": "495f2cadf016b238ee36c0f8bb3c9ca8a9ca1a951a612be407725c2ffdb54af5",
        "batch-over-rows": "2a19a054de890eb3918c09644cb38252856b67f12f59442ba04ecf0ccf4ed03c",
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


trainer = importlib.import_module("relu_prism.train")
forking = importlib.import_module("relu_prism._forking")


class ChildFailure(Exception):
    """Raised by a patched trainer in the forked child only."""


def _separable(n=50) -> Dataset:
    return TestTrain().separable(n)


# At this learning rate seeds 3 and 15 of the separable rows train on and
# every other seed below 20 diverges in epoch 1: seed 12's batch losses stay
# finite there, but their sum over the epoch does not.
_EDGE = TrainConfig(hidden_widths=(2,), learning_rate=1e154, batch_size=10, epochs=5)


class TestSplitSweep:
    """A sweep of two or more seeds trains its later half in one forked child.

    Each case runs the sweep split and serial; the serial path is the one
    taken where ``os.fork`` does not exist.
    """

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        return counted_forks(monkeypatch)

    @staticmethod
    def outcome(ds, config, seeds):
        """The text of each seed yielded, then the divergence epoch or None."""
        texts = []
        try:
            for net, history in train_seeds(ds, config, seeds):
                texts.append(network_text(net) + history_to_csv(history))
        except TrainingDivergedError as exc:
            return texts, exc.epoch
        return texts, None

    def serial(self, monkeypatch, ds, config, seeds):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            return self.outcome(ds, config, seeds)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def in_child(parent: int, act):
        """`_train_lockstep`, with ``act()`` run first in the child only."""
        lockstep = trainer._train_lockstep

        def patched(*args):
            if os.getpid() != parent:
                act()
            return lockstep(*args)

        return patched

    @pytest.mark.parametrize("seeds", [(1, 2, 3, 4, 5), (1, 2)], ids=["5-seeds", "2-seeds"])
    def test_split_sweep_has_the_serial_bits(self, monkeypatch, forks, seeds):
        ds, config = gen_boolean(530, seed=3), TrainConfig(epochs=3)
        split = self.outcome(ds, config, seeds)
        assert len(forks) == 1
        assert split == self.serial(monkeypatch, ds, config, seeds)
        assert len(split[0]) == len(seeds) and split[1] is None
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "make, seeds, yielded, epoch",
        [(_separable, (3, 15, 12), 2, 1), (lambda: gen_boolean(300, seed=3), (5, 7, 11, 0), 3, 1)],
        ids=["lone-child-seed", "child-second-seed"],
    )
    def test_divergence_in_the_child_half(self, monkeypatch, forks, make, seeds, yielded, epoch):
        split = self.outcome(make(), _EDGE, seeds)
        assert len(forks) == 1
        assert split == self.serial(monkeypatch, make(), _EDGE, seeds)
        assert (len(split[0]), split[1]) == (yielded, epoch)
        self.assert_no_child_left()

    @pytest.mark.parametrize("seeds", [(0, 3, 15), (3, 0, 15, 12)], ids=["first", "second"])
    def test_divergence_in_the_parent_half_kills_the_child(self, monkeypatch, forks, seeds):
        """No seed of the child's is yielded, so the child is killed, not waited for."""
        monkeypatch.setattr(trainer, "_train_lockstep",
                            self.in_child(os.getpid(), lambda: time.sleep(60)))
        statuses, waitpid = [], os.waitpid

        def recorded_waitpid(*args):
            statuses.append(waitpid(*args))
            return statuses[-1]

        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        split = self.outcome(_separable(), _EDGE, seeds)
        assert time.monotonic() - start < 30
        assert [pid for pid, _ in statuses] == forks and len(forks) == 1
        status = statuses[0][1]
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        monkeypatch.undo()
        assert split == self.serial(monkeypatch, _separable(), _EDGE, seeds)
        assert split[1] == 1
        self.assert_no_child_left()

    def test_an_exception_in_the_child_is_raised_in_the_parent(self, monkeypatch, forks):
        def fail():
            raise ChildFailure("the child's half failed")

        monkeypatch.setattr(trainer, "_train_lockstep", self.in_child(os.getpid(), fail))
        with pytest.raises(ChildFailure, match="the child's half failed"):
            self.outcome(gen_boolean(530, seed=3), TrainConfig(epochs=1), (1, 2, 3))
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_a_divergence_raised_in_the_child_comes_back_unchanged(self, forks):
        def work():
            raise TrainingDivergedError(7)

        with forking._fork(work) as join:
            assert join is not None
            with pytest.raises(TrainingDivergedError) as err:
                join()
        assert len(forks) == 1
        assert type(err.value) is TrainingDivergedError and err.value.epoch == 7
        assert str(err.value) == "training diverged with non-finite loss at epoch 7"
        self.assert_no_child_left()

    def test_a_child_that_ends_without_its_result_is_an_error(self, monkeypatch, forks):
        monkeypatch.setattr(trainer, "_train_lockstep",
                            self.in_child(os.getpid(), lambda: os._exit(3)))
        with pytest.raises(RuntimeError, match=r"without its result \(wait status 768\)"):
            self.outcome(gen_boolean(530, seed=3), TrainConfig(epochs=1), (1, 2))
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_an_interrupt_in_the_parent_kills_the_child(self, monkeypatch, forks):
        parent, lockstep = os.getpid(), trainer._train_lockstep

        def patched(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return lockstep(*args)

        monkeypatch.setattr(trainer, "_train_lockstep", patched)
        with pytest.raises(KeyboardInterrupt):
            self.outcome(gen_boolean(530, seed=3), TrainConfig(epochs=1), (1, 2))
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_the_child_runs_no_exit_handler_and_flushes_no_stdout(self, tmp_path):
        """A line held in the stdout buffer at the fork, and an atexit line, print once."""
        script = (
            "import atexit\n"
            "from relu_prism import TrainConfig, gen_boolean, train_seeds\n"
            "atexit.register(print, 'exit')\n"
            "print('before')\n"
            "nets = list(train_seeds(gen_boolean(530, seed=3), TrainConfig(epochs=1), (1, 2)))\n"
            "print(len(nets))\n"
        )
        src = str(Path(trainer.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("PYTHONUNBUFFERED", None)
        printed = tmp_path / "stdout.txt"
        with open(printed, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-c", script], stdout=stdout,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert printed.read_text() == "before\n2\nexit\n"

    @pytest.mark.parametrize("case", ["one-seed", "one-cpu", "two-threads"])
    def test_stays_in_one_process(self, monkeypatch, forks, case):
        ds, config = gen_boolean(530, seed=3), TrainConfig(epochs=1)
        seeds = (1,) if case == "one-seed" else (1, 2)
        if case == "one-cpu":
            monkeypatch.setattr(forking, "_cpus", lambda: 1)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "two-threads":
            thread.start()
        try:
            got = self.outcome(ds, config, seeds)
        finally:
            done.set()
            if case == "two-threads":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert got == self.serial(monkeypatch, ds, config, seeds)

def _signed_zero_dataset() -> Dataset:
    """Boolean rows in pairs: each odd row is the row before it with -0.0 for 0.0."""
    ds = gen_boolean(600, seed=4)
    X, t = ds.features.copy(), ds.targets.copy()
    X[1::2] = np.where(X[::2] == 0.0, -0.0, X[::2])
    t[1::2] = t[::2]
    return Dataset(X, t, ds.feature_names)


class TestAccuracy:
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize(
        "make",
        [lambda: gen_boolean(600, seed=4), lambda: _gaussian_dataset(600), _signed_zero_dataset],
        ids=["boolean", "gaussian", "signed-zero"],
    )
    def test_history_accuracy_is_the_full_pass(self, make, epochs):
        """The per-epoch accuracy, counted over distinct rows, is that of every row."""
        ds = make()
        net, history = train(ds, TrainConfig(epochs=epochs, seed=epochs, batch_size=50))
        assert history.accuracies[-1] == accuracy(net, ds)

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
