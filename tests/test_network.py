from __future__ import annotations

import json

import numpy as np
import pytest

from relu_prism import (
    ActivationPattern,
    Dataset,
    InputError,
    Layer,
    Network,
    SchemaError,
    ShapeError,
    TrainConfig,
    batch_gradients,
    forward_batch,
    forward_trace,
    load_network,
    network_from_json,
    network_to_json,
    partition,
    predict_batch,
    save_network,
    verify_affine,
)
from relu_prism.affine import _pattern_table
from relu_prism.network import _group_rows, parse_network_json
from conftest import make_random_network


def two_layer_net() -> Network:
    return Network(
        (
            Layer([[1.0, -1.0], [2.0, 0.0]], [0.0, 1.0]),
            Layer([[1.0, 1.0]], [-1.0]),
        )
    )


class TestLayerAndNetwork:
    def test_layer_shape_validation(self):
        with pytest.raises(ShapeError):
            Layer([1.0, 2.0], [0.0])
        with pytest.raises(ShapeError):
            Layer([[1.0, 2.0]], [0.0, 0.0])

    def test_layer_rejects_non_finite(self):
        with pytest.raises(InputError):
            Layer([[np.nan]], [0.0])
        with pytest.raises(InputError):
            Layer([[1.0]], [np.inf])

    def test_layer_arrays_read_only(self):
        layer = Layer([[1.0]], [0.0])
        with pytest.raises(ValueError):
            layer.weight[0, 0] = 2.0

    def test_network_needs_chained_dims(self):
        with pytest.raises(ShapeError):
            Network((Layer([[1.0, 2.0]], [0.0]), Layer([[1.0, 1.0]], [0.0])))

    def test_network_needs_a_layer(self):
        with pytest.raises(ShapeError):
            Network(())

    def test_dimension_properties(self):
        net = two_layer_net()
        assert net.input_dim == 2
        assert net.output_dim == 1
        assert net.hidden_widths == (2,)


class TestForwardTrace:
    def test_matches_manual_computation(self):
        net = two_layer_net()
        trace = forward_trace(net, [1.0, 2.0])
        # z1 = (1*1 - 1*2, 2*1 + 1) = (-1, 3); relu -> (0, 3); logit = 0 + 3 - 1 = 2
        np.testing.assert_array_equal(trace.preactivations[0], [-1.0, 3.0])
        np.testing.assert_array_equal(trace.logit, [2.0])
        assert trace.pattern.bits == ((False, True),)

    def test_zero_preactivation_counts_inactive(self):
        net = Network((Layer([[1.0]], [0.0]), Layer([[1.0]], [0.0])))
        trace = forward_trace(net, [0.0])
        assert trace.pattern.bits == ((False,),)

    def test_rejects_wrong_shape_and_non_finite(self):
        net = two_layer_net()
        with pytest.raises(ShapeError):
            forward_trace(net, [1.0])
        with pytest.raises(InputError):
            forward_trace(net, [np.nan, 0.0])

    def test_batch_agrees_with_per_row(self, rng):
        net = make_random_network(rng, d=5, widths=(4, 3), q=2)
        X = rng.uniform(-3, 3, (40, 5))
        logits, bits = forward_batch(net, X)
        assert logits.shape == (40, 2)
        for i in range(40):
            trace = forward_trace(net, X[i])
            # Batched and per-row matmuls may sum in different orders, so
            # agreement is to rounding, not bit-for-bit.
            np.testing.assert_allclose(logits[i], trace.logit, rtol=1e-12, atol=1e-12)
            flat = [b for row in trace.pattern.bits for b in row]
            np.testing.assert_array_equal(np.hstack([m[i] for m in bits]), flat)

    def test_batch_shape_validation(self):
        net = two_layer_net()
        with pytest.raises(ShapeError):
            forward_batch(net, np.zeros((3, 5)))


class TestKinkRule:
    """A unit fires only on a strictly positive preactivation, on every path.

    Integer weights make every preactivation below exact, so each row sits
    exactly on a kink or 1 ulp to either side of one, in both hidden layers.
    """

    NET = Network(
        (
            Layer([[1.0, -1.0], [1.0, 0.0]], [0.0, -1.0]),  # x0 - x1, x0 - 1
            Layer([[1.0, 1.0]], [0.0]),  # relu(x0 - x1) + relu(x0 - 1)
            Layer([[2.0]], [-1.0]),
        )
    )

    def rows_and_keys(self):
        ones = (1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0))
        X = np.array(
            [(x0, x1) for x0 in ones for x1 in (x0, np.nextafter(x0, 2.0), np.nextafter(x0, 0.0))]
        )
        keys = []
        for x0, x1 in X:
            first = (x0 > x1, x0 > 1.0)
            bits = (*first, any(first))
            keys.append("".join("1" if b else "0" for b in bits))
        assert len(set(keys)) == 4  # both kinks hit from both sides
        return X, keys

    def test_forward_paths_agree(self):
        X, keys = self.rows_and_keys()
        _, bits = forward_batch(self.NET, X)
        batch_keys = ["".join("1" if b else "0" for b in row) for row in np.hstack(bits)]
        assert batch_keys == keys
        assert [forward_trace(self.NET, x).pattern.bitstring for x in X] == keys

    def test_partition_and_verify_agree(self):
        X, keys = self.rows_and_keys()
        ds = Dataset(X, np.zeros(len(X), dtype=int), ("x0", "x1"))
        clusters = partition(self.NET, ds)
        assert sorted(i for c in clusters for i in c.member_indices) == list(range(len(X)))
        for c in clusters:
            assert all(keys[i] == c.pattern.bitstring for i in c.member_indices)
        report = verify_affine(self.NET, X, tol=1e-12)
        assert report.n_patterns == len(set(keys))
        assert report.passed

    @pytest.mark.parametrize("reg", [0.0, 0.02])
    def test_training_gradient_stops_at_the_kink(self, reg):
        """Backprop passes nothing through a unit at exactly 0, and passes through 1 ulp above."""
        up = np.nextafter(1.0, 2.0)
        config = TrainConfig(hidden_widths=(2, 1), activity_reg_coeff=reg)
        # x0 - x1 is exactly 0 while x0 - 1 is 1 ulp above 0, so the second
        # hidden layer stays active and unit 0 is the only unit on its kink.
        _, grads = batch_gradients(self.NET, [[up, up]], [0], config)
        (dW, db), _, _ = grads
        assert not dW[0].any() and db[0] == 0.0
        assert dW[1].all() and db[1] != 0.0
        # x0 - x1 is 1 ulp above 0: unit 0 is active and takes a gradient.
        _, grads = batch_gradients(self.NET, [[up, 1.0]], [0], config)
        (dW, db), _, _ = grads
        assert dW[0].all() and db[0] != 0.0


class TestPredict:
    def test_strictly_positive_logit_is_class_one(self):
        up = Network((Layer([[1.0]], [0.5]),))
        down = Network((Layer([[1.0]], [-0.5]),))
        np.testing.assert_array_equal(predict_batch(up, [[0.0]]), [1])
        np.testing.assert_array_equal(predict_batch(down, [[0.0]]), [0])

    def test_zero_logit_ties_to_class_zero(self):
        net = Network((Layer([[1.0]], [0.0]),))
        np.testing.assert_array_equal(predict_batch(net, [[0.0], [1.0]]), [0, 1])

    def test_requires_scalar_output(self, rng):
        net = make_random_network(rng, d=3, widths=(2,), q=2)
        with pytest.raises(ShapeError):
            predict_batch(net, np.zeros((2, 3)))

    def test_batch_matches_one_row_logits(self, rng):
        net = make_random_network(rng, d=4, widths=(3,))
        X = rng.uniform(-2, 2, (25, 4))
        np.testing.assert_array_equal(
            predict_batch(net, X), [forward_trace(net, x).logit[0] > 0.0 for x in X]
        )


class TestActivationPattern:
    def test_constructor_and_bits_round_trip(self):
        bits = ((True, False, False), (False, True))
        pattern = ActivationPattern(bits)
        assert pattern.bits == bits
        assert pattern.bitstring == "10001"
        assert pattern.widths == (3, 2)
        assert ActivationPattern(pattern.bits) == pattern
        # any 0/1 or bool-like rows, such as a forward pass's numpy bools
        assert ActivationPattern([np.array([1, 0, 0]), [0, 1]]) == pattern
        assert ActivationPattern(()).bits == () and ActivationPattern(()).bitstring == ""

    def test_equality_and_hash(self):
        a = ActivationPattern(((True, False), (True,)))
        b = ActivationPattern.from_flat(np.array([True, False, True]), [2, 1])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # the same bits over other widths is another pattern
        assert a != ActivationPattern(((True,), (False, True)))
        assert a != ActivationPattern(((True, True), (True,)))

    def test_from_flat_round_trip(self):
        pattern = ActivationPattern(((True, False), (True,)))
        rebuilt = ActivationPattern.from_flat([True, False, True], (2, 1))
        assert rebuilt == pattern
        assert rebuilt.bitstring == "101"
        assert rebuilt.widths == (2, 1)

    def test_from_flat_checks_length(self):
        with pytest.raises(ShapeError):
            ActivationPattern.from_flat([True], (2,))

    def test_matches_network(self):
        net = two_layer_net()
        assert ActivationPattern(((True, True),)).matches(net)
        assert not ActivationPattern(((True,),)).matches(net)


class TestSerialization:
    def test_json_round_trip_is_exact(self, rng):
        net = make_random_network(rng, d=6, widths=(5, 3))
        rebuilt = network_from_json(json.loads(json.dumps(network_to_json(net))))
        for a, b in zip(net.layers, rebuilt.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_file_round_trip(self, tmp_path, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        path = tmp_path / "net.json"
        save_network(net, path)
        rebuilt = load_network(path)
        np.testing.assert_array_equal(net.layers[0].weight, rebuilt.layers[0].weight)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"layers": []},
            {"layers": [{"w": [[1.0]]}]},
            {"layers": [{"w": [["x"]], "b": [0.0]}]},
            {"layers": [{"w": [[1.0, 2.0]], "b": [0.0, 0.0]}]},
            {"layers": 7},
        ],
    )
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            network_from_json(doc)

    @pytest.mark.parametrize(
        "w, b, problem",
        [
            ([[10**400]], [0.0], "int too large"),
            ([["0.5", True]], ["1"], "it holds a string"),  # numpy would parse "0.5"
            ([[0.5]], ["1"], "it holds a string"),
            ([["abc"]], [0.0], "could not convert string to float: 'abc'"),
            ([[0.5, True]], [1.0], "it holds true or false"),  # numpy would take it as 1.0
            ([[0.5]], [False], "it holds true or false"),
            ([[True]], [0.0], "it holds true or false"),
            ([["0.5", 2**70]], [0.0], "it holds a string"),  # an object array
        ],
    )
    def test_non_numeric_layer_is_a_schema_error(self, w, b, problem):
        with pytest.raises(SchemaError, match=f"^layer 1 is not numeric: {problem}"):
            network_from_json({"layers": [{"w": w, "b": b}]})

    def test_parse_network_json_names_the_file(self, rng):
        net = make_random_network(rng, d=3, widths=(2,))
        raw = json.dumps(network_to_json(net)).encode()
        assert parse_network_json(raw, "n.json").layers[0].weight.tobytes() == (
            net.layers[0].weight.tobytes())
        with pytest.raises(SchemaError, match="^invalid network JSON in n.json: "):
            parse_network_json(b"\xff", "n.json")

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_network(path)


def unique_grouping(net, X):
    """The grouping as ``np.unique(..., axis=0)`` over packed bits gives it: the reference."""
    logits, bits = forward_batch(net, X)
    bitmat = np.hstack(bits) if bits else np.zeros((X.shape[0], 0), dtype=bool)
    packed, inverse, counts = np.unique(
        np.packbits(bitmat, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    masks = np.unpackbits(packed, axis=1, count=bitmat.shape[1]).view(bool)
    return logits, masks, np.argsort(inverse.reshape(-1), kind="stable"), counts


class TestGroupByPattern:
    @pytest.mark.parametrize(
        "widths", [(), (1,), (7,), (8,), (9,), (63,), (64,), (65,), (60, 40)],
        ids=lambda w: f"bits{sum(w)}",
    )
    def test_matches_unique_over_packed_bits(self, widths):
        rng = np.random.default_rng(sum(widths) + 1)
        net = make_random_network(rng, d=6, widths=widths)
        X = rng.normal(size=(300, 6))
        # Repeated rows, scattered: each pattern then owns rows far apart.
        X = X[rng.integers(0, 300, size=600)]
        got = _pattern_table(net, X)[:4]
        expected = unique_grouping(net, X)
        assert [a.dtype for a in got] == [a.dtype for a in expected]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        assert got[1].shape[1] == sum(widths)
        assert got[3].sum() == 600


def void_grouping(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping of one stable sort of each key as an ``np.void`` scalar: the reference."""
    n, width = keys.shape
    voids = np.ndarray(n, np.dtype((np.void, width)), keys)
    order = np.argsort(voids, kind="stable")
    ordered = voids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(first)


class TestGroupRows:
    """``_group_rows`` orders and cuts the keys as a stable sort of their bytes does."""

    @pytest.mark.parametrize("width", range(82))
    def test_matches_the_void_sort_at_every_width(self, width):
        rng = np.random.default_rng(1000 + width)
        for n in (0, 1, 2, 3, 50, 5000):
            # Few distinct keys, so most repeat, and bytes drawn from a small
            # set that holds 0 and 255, so neighbours share leading words.
            distinct = rng.choice(np.array([0, 1, 127, 128, 254, 255], dtype=np.uint8),
                                  size=(max(1, n // 4), width))
            keys = np.ascontiguousarray(distinct[rng.integers(0, len(distinct), size=n)])
            for case in (keys, np.zeros_like(keys), np.full_like(keys, 255)):
                order, starts = _group_rows(case)
                expected_order, expected_starts = void_grouping(case)
                np.testing.assert_array_equal(order, expected_order)
                np.testing.assert_array_equal(starts, expected_starts)
                assert order.dtype == expected_order.dtype and starts.dtype == expected_starts.dtype

    @pytest.mark.parametrize("width", [1, 4, 8, 9, 16, 80, 81])
    def test_keys_differing_in_one_byte_past_the_first_word(self, width):
        """Keys equal but for one byte, and a group split across a block of rows."""
        rng = np.random.default_rng(width)
        n = 9000
        keys = np.zeros((n, width), dtype=np.uint8)
        keys[:, -1] = rng.integers(0, 3, size=n)
        order, starts = _group_rows(keys)
        expected_order, expected_starts = void_grouping(keys)
        np.testing.assert_array_equal(order, expected_order)
        np.testing.assert_array_equal(starts, expected_starts)
