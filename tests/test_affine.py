from __future__ import annotations

import json

import numpy as np
import pytest

from relu_prism import (
    ActivationPattern,
    AffineMap,
    Dataset,
    InputError,
    Layer,
    Network,
    ShapeError,
    effective_affine,
    forward_batch,
    forward_trace,
    gen_boolean,
    init_network,
    jacobian_check,
    save_network,
    train,
    verify_affine,
)
from relu_prism import affine
from relu_prism.affine import (
    _COLLAPSE_CHUNK, _jacobian_probe, _pattern_table, _row_errors, collapse_batch,
)
from relu_prism.cli import main
from relu_prism.data import dataset_to_csv
from relu_prism.train import TrainConfig
from conftest import make_random_network


def hand_net() -> Network:
    return Network(
        (
            Layer([[1.0, -1.0], [2.0, 0.0]], [0.0, 1.0]),
            Layer([[1.0, 1.0]], [-1.0]),
        )
    )


class TestAffineMap:
    def test_apply_vector_and_matrix(self):
        amap = AffineMap([[2.0, -1.0]], [3.0])
        np.testing.assert_array_equal(amap.apply([1.0, 1.0]), [4.0])
        np.testing.assert_array_equal(
            amap.apply([[1.0, 1.0], [0.0, 0.0]]), [[4.0], [3.0]]
        )

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            AffineMap([[1.0]], [1.0, 2.0])


class TestEffectiveAffine:
    def test_pattern_width_mismatch(self):
        with pytest.raises(ShapeError):
            effective_affine(hand_net(), ActivationPattern(((True,),)))

    def test_hand_expanded_both_active(self):
        amap = effective_affine(hand_net(), ActivationPattern(((True, True),)))
        np.testing.assert_array_equal(amap.omega, [[3.0, -1.0]])
        np.testing.assert_array_equal(amap.bias, [0.0])

    def test_hand_expanded_one_active(self):
        amap = effective_affine(hand_net(), ActivationPattern(((True, False),)))
        np.testing.assert_array_equal(amap.omega, [[1.0, -1.0]])
        np.testing.assert_array_equal(amap.bias, [-1.0])

    def test_all_inactive_collapses_to_final_bias(self, rng):
        net = make_random_network(rng, d=4, widths=(3, 2))
        widths = net.hidden_widths
        amap = effective_affine(
            net, ActivationPattern.from_flat([False] * sum(widths), widths)
        )
        assert not amap.omega.any()
        np.testing.assert_array_equal(amap.bias, net.layers[-1].bias)

    def test_single_layer_net_is_itself(self):
        layer = Layer([[1.5, -2.0]], [0.25])
        amap = effective_affine(Network((layer,)), ActivationPattern(()))
        np.testing.assert_array_equal(amap.omega, layer.weight)
        np.testing.assert_array_equal(amap.bias, layer.bias)

    def test_exactness_on_random_networks(self, rng):
        """The map reproduces the logit bit-for-bit-close on its own region."""
        for _ in range(20):
            depth = int(rng.integers(1, 5))
            widths = tuple(int(w) for w in rng.integers(1, 9, size=depth - 1))
            d = int(rng.integers(1, 11))
            net = make_random_network(rng, d=d, widths=widths)
            for _ in range(20):
                u = rng.uniform(-10, 10, d)
                trace = forward_trace(net, u)
                amap = effective_affine(net, trace.pattern)
                np.testing.assert_allclose(
                    amap.apply(u), trace.logit, rtol=0, atol=1e-9
                )


def assert_collapse_matches_oracle(net, masks):
    """Every batched map equals ``effective_affine`` on its pattern, byte for byte."""
    omegas, biases = collapse_batch(net, masks)
    assert omegas.shape == (len(masks), net.output_dim, net.input_dim)
    assert biases.shape == (len(masks), net.output_dim)
    for mask, omega, bias in zip(masks, omegas, biases):
        amap = effective_affine(net, ActivationPattern.from_flat(mask, net.hidden_widths))
        assert omega.tobytes() == amap.omega.tobytes()
        assert bias.tobytes() == amap.bias.tobytes()


class TestCollapseBatch:
    @pytest.mark.parametrize(
        "widths, q",
        [((), 1), ((3,), 1), ((16, 8), 1), ((9, 7, 5), 1), ((4, 3), 2)],
    )
    def test_equals_effective_affine(self, rng, widths, q):
        net = make_random_network(rng, d=5, widths=widths, q=q)
        masks = rng.integers(0, 2, (40, sum(widths))).astype(bool)
        masks[0], masks[-1] = False, True
        assert_collapse_matches_oracle(net, masks)

    def test_empty_batch(self, rng):
        net = make_random_network(rng, d=5, widths=(4, 3), q=2)
        omegas, biases = collapse_batch(net, np.zeros((0, 7), dtype=bool))
        assert omegas.shape == (0, 2, 5) and biases.shape == (0, 2)

    def test_batch_spanning_chunks(self, rng):
        net = make_random_network(rng, d=10, widths=(16, 8))
        masks = rng.integers(0, 2, (2 * _COLLAPSE_CHUNK + 1, 24)).astype(bool)
        assert_collapse_matches_oracle(net, masks)

    def test_mask_shape_validation(self, rng):
        net = make_random_network(rng, d=3, widths=(4, 2))
        for masks in (np.zeros((2, 5), dtype=bool), np.zeros(6, dtype=bool)):
            with pytest.raises(ShapeError):
                collapse_batch(net, masks)


def reference_verify(net, X) -> tuple[float, int]:
    """The per-pattern loop that ``verify_affine`` batches: (max error, worst row).

    The worst row is the first pattern, in np.unique order, that attains the
    maximum, and its lowest row that does.
    """
    logits, bits = forward_batch(net, X)
    bitmat = np.hstack(bits)
    _, inverse = np.unique(np.packbits(bitmat, axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    max_err, worst = None, None
    for g in range(inverse.max() + 1):
        idx = np.flatnonzero(inverse == g)
        pattern = ActivationPattern.from_flat(bitmat[idx[0]], net.hidden_widths)
        err = np.abs(effective_affine(net, pattern).apply(X[idx]) - logits[idx]).max(axis=1)
        k = int(np.argmax(err))
        if max_err is None or err[k] > max_err:
            max_err, worst = float(err[k]), int(idx[k])
    return max_err, worst


class TestVerifyAffine:
    def test_matches_per_pattern_loop_on_duplicated_rows(self, rng):
        net = make_random_network(rng, d=4, widths=(6, 3), q=2)
        X = np.repeat(rng.uniform(-3, 3, (300, 4)), 3, axis=0)[rng.permutation(900)]
        report = verify_affine(net, X)
        assert (report.max_abs_err, report.worst_index) == reference_verify(net, X)

    def test_worst_index_tie_rule(self, rng):
        # Integer weights and inputs make every error exactly 0, so every row
        # ties: the report names the lowest row of the first pattern in
        # np.unique order. Those rows go last, so that row is not row 0.
        layers = [
            Layer(rng.integers(-2, 3, (d_out, d_in)), rng.integers(-2, 3, d_out))
            for d_in, d_out in ((3, 4), (4, 2), (2, 1))
        ]
        net = Network(tuple(layers))
        X = np.repeat(rng.integers(-3, 4, (100, 3)).astype(np.float64), 2, axis=0)
        bits = np.hstack(forward_batch(net, X)[1])
        _, inverse = np.unique(np.packbits(bits, axis=1), axis=0, return_inverse=True)
        in_first = inverse.reshape(-1) == 0
        X = X[np.argsort(in_first, kind="stable")]
        report = verify_affine(net, X)
        assert report.max_abs_err == 0.0
        assert report.worst_index == X.shape[0] - in_first.sum() > 0
        assert (report.max_abs_err, report.worst_index) == reference_verify(net, X)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes", [(1025, 7, 1), (1030, 1027, 2), (1151, 1, 1026)])
    def test_groups_over_a_block_keep_the_bits_of_the_whole_product(self, seed, sizes):
        """A pattern with more rows than ``_VERIFY_BLOCK`` is checked a slice at a time.

        Every row's error has the bits of ``AffineMap.apply`` on all of its
        group's rows: the slices start at multiples of the block, and a last
        row left alone joins the slice before it. (At 8 features and at most
        1,152 rows a group's product runs on one BLAS thread.)
        """
        rng = np.random.default_rng(seed)
        net = make_random_network(rng, d=8, widths=(3, 2))
        pool = rng.uniform(-3, 3, (20_000, 8))
        bits = np.packbits(np.hstack(forward_batch(net, pool)[1]), axis=1)
        _, inverse, counts = np.unique(bits, axis=0, return_inverse=True, return_counts=True)
        common = np.argsort(-counts, kind="stable")[: len(sizes)]
        X = np.concatenate([
            pool[rng.choice(np.flatnonzero(inverse.reshape(-1) == g), size)]
            for g, size in zip(common, sizes)
        ])[rng.permutation(sum(sizes))]
        logits, masks, order, counts, omegas, biases = _pattern_table(net, X)
        err = _row_errors(X, logits, omegas, biases, order, counts)
        assert sorted(counts.tolist()) == sorted(sizes)
        start = 0
        for omega, bias, size in zip(omegas, biases, counts.tolist()):
            rows = order[start : start + size]
            whole = np.abs(AffineMap(omega, bias).apply(X[rows]) - logits[rows]).max(axis=1)
            assert err[start : start + size].tobytes() == whole.tobytes()
            start += size
        report = verify_affine(net, X)
        assert (report.max_abs_err, report.worst_index) == reference_verify(net, X)

    def test_random_net_passes_tight_tolerance(self, rng):
        net = make_random_network(rng, d=6, widths=(5, 4, 3))
        X = rng.uniform(-10, 10, (500, 6))
        report = verify_affine(net, X, tol=1e-8)
        assert report.passed
        assert report.n_inputs == 500
        assert report.max_abs_err <= 1e-8
        assert report.n_patterns >= 1

    def test_error_is_order_invariant(self, rng):
        net = make_random_network(rng, d=4, widths=(3, 2))
        X = rng.uniform(-5, 5, (200, 4))
        shuffled = X[rng.permutation(200)]
        assert (
            verify_affine(net, X).max_abs_err
            == verify_affine(net, shuffled).max_abs_err
        )

    def test_single_vector_and_no_hidden_layers(self, rng):
        net = Network((Layer([[2.0, 1.0]], [0.5]),))
        report = verify_affine(net, [1.0, -1.0])
        assert report.passed and report.n_patterns == 1

    def test_input_validation(self, rng):
        net = hand_net()
        with pytest.raises(InputError):
            verify_affine(net, np.zeros((0, 2)))
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError):
                verify_affine(net, [[0.0, 0.0]], tol=tol)

    def test_non_finite_logit_names_the_first_such_row(self):
        net = Network((Layer([[1e308, 1e308]], [0.0]), Layer([[1.0]], [0.0])))
        X = [[0.0, 1.0], [0.5, 0.5], [1.0, 1.0], [2.0, 0.0]]
        with pytest.raises(InputError, match="row 2 "):
            verify_affine(net, X)

    def test_an_overflowing_map_is_refused_by_its_row_without_a_warning(self):
        """The rows' maps are built before their logits are checked: inf, not a warning."""
        net = Network((Layer([[1e308, 1e308]], [0.0]), Layer([[10.0]], [0.0])))
        with pytest.raises(InputError, match="row 1 "):
            verify_affine(net, [[-1.0, -1.0], [1.0, 1.0]])

    def test_report_dict_uses_pass_key(self, rng):
        net = hand_net()
        doc = verify_affine(net, [[0.5, 0.5]]).to_dict()
        assert set(doc) == {
            "max_abs_err", "worst_index", "pass", "tol", "n_inputs", "n_patterns",
        }


class TestJacobianCheck:
    def test_interior_input_matches_weights(self, rng):
        net = make_random_network(rng, d=5, widths=(4, 3))
        for _ in range(20):
            u = rng.uniform(-5, 5, 5)
            report = jacobian_check(net, u, h=1e-4)
            if not report.skipped:
                assert report.max_row_err <= 1e-4
                return
        pytest.fail("no interior input found in 20 draws")

    @pytest.mark.parametrize(
        "weight, u, skipped",
        [
            # z = 0.005 is 50 steps from the kink, but r = z / 100 = 5e-5 < h:
            # the differences cross the kink, so the probe is skipped.
            (100.0, 5e-5, True),
            # on the kink: r = 0.
            (1.0, 0.0, True),
            # z = 5e-4 is within 10 steps of the kink, but r = 0.05 >> h.
            (0.01, 0.05, False),
        ],
        ids=["steep", "on-kink", "shallow"],
    )
    def test_skipped_exactly_within_the_region_radius(self, tmp_path, weight, u, skipped):
        """One unit, z = weight * u, r = |z| / |weight|, h = 1e-4; ``verify`` passes."""
        net = Network((Layer([[weight]], [0.0]), Layer([[1.0]], [0.0])))
        report = jacobian_check(net, [u], h=1e-4)
        assert report.skipped is skipped
        assert (report.max_row_err is None) is skipped
        save_network(net, tmp_path / "network.json")
        (tmp_path / "dataset.csv").write_text(dataset_to_csv(Dataset([[u]], [1], ("x",))))
        out = tmp_path / "v"
        assert main(["verify", "--net", str(tmp_path / "network.json"),
                     "--data", str(tmp_path / "dataset.csv"), "--out", str(out)]) == 0
        jacobian = json.loads((out / "verify.json").read_text())["jacobian"]
        assert (jacobian["checked"], jacobian["skipped"]) == (int(not skipped), int(skipped))

    @pytest.mark.parametrize(
        "weight2, skipped",
        [
            # The 1000 comes in through the inactive unit, so g = 1 and r = 0.005;
            # a slope taken without the first layer's mask, 1 - 1000, would skip.
            ([[1.0, 1000.0]], False),
            # The 1000 comes in through the active unit: g = 1000, r = 5e-6 < h.
            ([[1000.0, 0.0]], True),
        ],
        ids=["through-inactive", "through-active"],
    )
    def test_deep_unit_radius_follows_earlier_masks(self, weight2, skipped):
        """At u = 1 the first layer gives (1, -1); the second-layer unit sits at z = 0.005."""
        first = Layer([[1.0], [-1.0]], [0.0, 0.0])
        second = Layer(weight2, [0.005 - weight2[0][0]])
        net = Network((first, second, Layer([[1.0]], [0.0])))
        np.testing.assert_allclose(forward_trace(net, [1.0]).preactivations[1], [0.005])
        report = jacobian_check(net, [1.0], h=1e-4)
        assert report.skipped is skipped
        if not skipped:
            assert report.max_row_err <= 1e-8

    def test_constant_unit_on_its_kink_is_left_out(self):
        """A unit fed only by inactive units has g = 0: z = 0 does not end the region."""
        first = Layer([[1.0], [-1.0]], [0.0, 0.0])
        second = Layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        net = Network((first, second, Layer([[1.0, 1.0]], [0.0])))
        np.testing.assert_array_equal(forward_trace(net, [1.0]).preactivations[1], [1.0, 0.0])
        report = jacobian_check(net, [1.0], h=1e-4)
        assert not report.skipped
        assert report.max_row_err <= 1e-8

    @pytest.mark.parametrize(
        "z, skipped", [(4.5e-4, True), (5.5e-4, False)], ids=["inside-h", "outside-h"]
    )
    def test_radius_divides_by_the_euclidean_norm(self, z, skipped):
        """g = (3, 4), so r = z / 5: 9e-5 and 1.1e-4 either side of h = 1e-4."""
        net = Network((Layer([[3.0, 4.0]], [z - 7.0]), Layer([[1.0]], [0.0])))
        report = jacobian_check(net, [1.0, 1.0], h=1e-4)
        assert report.skipped is skipped
        if not skipped:
            assert report.max_row_err <= 1e-8

    def test_huge_weight_on_a_never_active_unit_keeps_the_region(self):
        """Unit 0's g = (-1e308, 0) squares past the float range; taken scaled, r = 1.

        At u = (1, 1) unit 0 sits at z = -1e308 - 1 and never fires; unit 1
        sits at z = 1 with g = (0, 1). So r = 1 >> h, and the probe is made.
        """
        first = Layer([[-1e308, 0.0], [0.0, 1.0]], [-1.0, 0.0])
        net = Network((first, Layer([[1.0, 1.0]], [0.0])))
        report = jacobian_check(net, [1.0, 1.0], h=1e-4)
        assert not report.skipped
        assert report.max_row_err <= 1e-8

    def test_norm_beyond_the_float_range_is_infinite(self):
        """g = (1e308,) * 4 has ||g|| = 2e308 > the largest float: r = 0, without a warning."""
        net = Network((Layer([[1e308] * 4], [1.0]), Layer([[1.0]], [0.0])))
        report = jacobian_check(net, [0.0] * 4, h=1e-4)
        assert report.skipped and report.max_row_err is None

    def test_partial_collapse_past_the_float_range_skips(self):
        """Weights 1e200, 1e200, 1 at u = 1e-300: z stays finite, but g of unit 2 is 1e400.

        That row of g is not finite, so its unit's r is 0 and the probe is
        skipped, without a warning from the product or the norm.
        """
        net = Network(tuple(Layer([[w]], [0.0]) for w in (1e200, 1e200, 1.0)))
        report = jacobian_check(net, [1e-300], h=1e-4)
        assert report.skipped and report.max_row_err is None

    def test_preactivation_past_the_float_range_is_probed_without_a_warning(self):
        """At u = 1e200 unit 1 sits at z = -1e400, read as -inf: off, and the logit is 0."""
        net = Network(tuple(Layer([[w]], [0.0]) for w in (-1e200, 1e200, 1.0)))
        report = jacobian_check(net, [1e200], h=1e-4)
        assert not report.skipped and report.max_row_err == 0.0

    def test_linear_net_checks_anywhere(self, rng):
        net = Network((Layer([[3.0, -2.0]], [1.0]),))
        for u in ([0.0, 0.0], [1e-9, 0.0], [5.0, -5.0]):
            report = jacobian_check(net, u)
            assert not report.skipped
            assert report.max_row_err <= 1e-8

    def test_step_validation(self):
        for h in (0.0, np.nan, np.inf):
            with pytest.raises(InputError):
                jacobian_check(hand_net(), [1.0, 1.0], h=h)

    def test_weights_come_from_the_radius_sweep(self, rng, monkeypatch):
        """Omega is the last layer times the sweep's partial collapse, with no second collapse."""
        net = make_random_network(rng, d=6, widths=(5, 3))

        def refuse(*args):
            raise AssertionError("jacobian_check collapsed the network a second time")

        monkeypatch.setattr(affine, "effective_affine", refuse)
        reports = [jacobian_check(net, u) for u in rng.standard_normal((20, 6))]
        assert any(not r.skipped for r in reports)

    @pytest.mark.parametrize(
        "widths, q", [((), 1), ((4, 2), 1), ((16, 8), 1), ((6, 3, 2), 1), ((5,), 2)]
    )
    def test_error_matches_effective_affine_bit_for_bit(self, rng, widths, q):
        """The sweep's omega is ``effective_affine``'s up to the sign of a zero, which |fd - omega| drops."""
        d, h = 10, 1e-4
        net = make_random_network(rng, d=d, widths=widths, q=q)
        checked = 0
        for u in rng.standard_normal((40, d)):
            report = jacobian_check(net, u, h=h)
            if report.skipped:
                continue
            omega = effective_affine(net, forward_trace(net, u).pattern).omega
            logits, _ = forward_batch(net, u + np.vstack([np.eye(d) * h, -np.eye(d) * h]))
            fd = (logits[:d] - logits[d:]) / (2.0 * h)
            assert report.max_row_err == float(np.abs(fd.T - omega).max())
            checked += 1
        assert checked >= 20


def one_row_reference(net: Network, u, h: float) -> tuple[bool, float | None]:
    """The one-row probe as a loop over ``forward_trace``'s preactivations: (skipped, error)."""
    with np.errstate(over="ignore", invalid="ignore"):
        partial, radius = np.eye(net.input_dim), np.inf
        for layer, z in zip(net.layers[:-1], forward_trace(net, u).preactivations):
            g = layer.weight @ partial
            scale = np.abs(g).max(axis=1, initial=0.0)
            live = scale != 0.0
            norms = np.linalg.norm(g[live] / scale[live, None], axis=1) * scale[live]
            radii = np.where(np.isfinite(norms), np.abs(z[live]) / norms, 0.0)
            radius = min(radius, radii.min(initial=np.inf))
            partial = g * (z > 0.0)[:, None]
        if h >= radius:
            return True, None
        d = net.input_dim
        steps = np.vstack([np.eye(d) * h, -np.eye(d) * h])
        logits, _ = forward_batch(net, np.asarray(u)[None, :] + steps)
        fd = (logits[:d] - logits[d:]) / (2.0 * h)
        return False, float(np.abs(fd.T - net.layers[-1].weight @ partial).max())


class TestJacobianProbe:
    """The batched probe that ``verify`` makes is the loop of one-row checks, bit for bit."""

    @pytest.fixture(scope="class")
    def nets(self):
        """A trained 4,2 Boolean net and the random 16,8 net (seed 5), each with its probe rows.

        Row 0 of each lies on a kink: the Boolean row within rounding of one
        (one feature set to -b / w of a first-layer unit), the Gaussian row
        exactly, as the 16,8 net's biases are zero.
        """
        boolean = gen_boolean(2000, 5)
        trained, _ = train(boolean, TrainConfig(hidden_widths=(4, 2), epochs=3, seed=1))
        first = trained.layers[0]
        unit, feature = np.unravel_index(np.argmax(np.abs(first.weight)), first.weight.shape)
        kink = np.zeros(first.d_in)
        kink[feature] = -first.bias[unit] / first.weight[unit, feature]
        gaussian = np.random.default_rng(0).standard_normal((200, 10))
        gaussian[0] = 0.0
        return {
            "boolean-4-2": (trained, np.vstack([kink, boolean.features[:199]])),
            "gaussian-16-8": (init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5)),
                              gaussian),
        }

    @pytest.mark.parametrize("h", [1e-4, 1e-2])
    @pytest.mark.parametrize("case", ["boolean-4-2", "gaussian-16-8"])
    def test_equals_a_loop_of_one_row_checks(self, nets, case, h):
        net, U = nets[case]
        err, skipped = _jacobian_probe(net, U, h)
        reports = [jacobian_check(net, u, h=h) for u in U]
        assert [(r.skipped, r.max_row_err) for r in reports] == [
            one_row_reference(net, u, h) for u in U]
        assert skipped.tolist() == [report.skipped for report in reports]
        assert skipped[0] and not skipped.all()
        checked = [report.max_row_err for report in reports if not report.skipped]
        np.testing.assert_array_equal(err[~skipped], checked)
        assert np.isnan(err[skipped]).all()
        # verify's max_row_err: the most of the errors, 0 when none is checked
        assert float(np.fmax.reduce(err, initial=0.0)) == max(checked)

    def test_a_non_finite_error_is_kept_as_the_one_row_check_keeps_it(self):
        """At u = 1 both units sit at 1.7976e308; one step up overflows them, and the logit
        inf - inf is NaN. The row is checked (r = 1), and its error is NaN on both paths."""
        w = 1.7976e308
        net = Network((Layer([[w], [w]], [0.0, 0.0]), Layer([[1.0, -1.0]], [0.0])))
        report = jacobian_check(net, [1.0])
        assert not report.skipped and np.isnan(report.max_row_err)
        err, skipped = _jacobian_probe(net, np.ones((3, 1)), 1e-4)
        assert not skipped.any() and np.isnan(err).all()

    def test_rows_all_skipped_make_an_empty_stencil(self):
        net = init_network(10, TrainConfig(hidden_widths=(16, 8), seed=5))
        err, skipped = _jacobian_probe(net, np.zeros((4, 10)), 1e-4)
        assert skipped.all() and np.isnan(err).all()

    def test_one_row_errors_are_those_of_the_forward_pass(self):
        with pytest.raises(ShapeError, match=r"input shape \(3,\) does not match input_dim=2"):
            jacobian_check(hand_net(), [1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="input vector must be finite"):
            jacobian_check(hand_net(), [1.0, np.nan])
