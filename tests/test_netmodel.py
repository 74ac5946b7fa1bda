import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isccopt import netmodel as nm
from isccopt.config import build_config
from util import flops, max_rho_bisection


def small_fc_net(weights):
    """FC chain from a list of weight matrices."""
    layers = []
    n_prev = weights[0].shape[1]
    for w in weights:
        layers.append(nm.fc(w.shape[0], w.shape[1], weights=w))
    return nm.NetworkModel(layers=tuple(layers), input_dim=n_prev)


class TestFlops:
    def test_fc_full(self):
        assert flops(nm.fc(60, 120), 1.0) == 14340

    def test_fc_half(self):
        assert flops(nm.fc(60, 120), 0.5) == 7140

    def test_maxpool(self):
        assert flops(nm.maxpool(14, 14, 6, 2)) == 4704

    def test_conv_full(self):
        assert flops(nm.conv(28, 28, 6, 5, 1), 1.0) == 230496

    def test_maxpool_ignores_rho(self):
        layer = nm.maxpool(14, 14, 6, 2)
        assert flops(layer, 0.3) == flops(layer, 1.0)

    def test_affine_in_rho(self):
        # exact collinearity at three points, for each kind
        for layer in (nm.fc(60, 120), nm.conv(28, 28, 6, 5, 1)):
            f = [flops(layer, r) for r in (0.25, 0.5, 0.75)]
            assert f[1] - f[0] == pytest.approx(f[2] - f[1], abs=0.0)
            slope, intercept = nm.flops_affine(layer)
            assert slope >= 0
            assert slope * 0.5 + intercept == f[1]

    def test_degenerate_clamps_to_zero(self):
        layer = nm.fc(1, 2)  # (2*2*rho - 1)*1 < 0 for rho < 0.25
        assert flops(layer, 0.1) == 0.0
        assert flops(layer, 0.25) == 0.0
        assert flops(layer, 0.5) == 1.0

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            flops(nm.fc(60, 120), 0.0)
        with pytest.raises(ValueError):
            flops(nm.fc(60, 120), 1.5)


class TestCumFlops:
    @pytest.fixture
    def two_fc(self):
        layers = (nm.fc(60, 120), nm.fc(5, 60))
        return nm.NetworkModel(layers=layers, input_dim=120)

    def test_single_layer_range(self, two_fc):
        assert nm.cum_flops(two_fc, 1, 1, 1.0) == flops(two_fc.layer(1), 1.0)

    def test_full_range_additive(self, template_net):
        total = sum(flops(template_net.layer(l), 1.0) for l in range(1, 8))
        assert nm.cum_flops(template_net, 1, 7, 1.0) == total == 826015

    def test_half_rho_example(self, two_fc):
        assert nm.cum_flops(two_fc, 1, 2, 0.5) == 7435

    def test_empty_range(self, two_fc):
        assert nm.cum_flops(two_fc, 3, 2, 1.0) == 0.0

    def test_bad_range(self, two_fc):
        with pytest.raises(IndexError):
            nm.cum_flops(two_fc, 0, 2)
        with pytest.raises(IndexError):
            nm.cum_flops(two_fc, 1, 3)


@st.composite
def layer_stacks(draw):
    """Mixed conv / max-pool / fc stacks that chain. Small fan-ins put clamp
    points -intercept/slope = 1/(2 fan-in) anywhere in (0, 0.5], and equal
    fan-ins give repeated clamp points."""
    input_dim = draw(st.integers(1, 64))
    prev_dim, channels = input_dim, None
    layers = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([nm.CONV, nm.MP, nm.FC]))
        if kind == nm.FC:
            layer = nm.fc(draw(st.integers(1, 12)), prev_dim)
        else:
            alpha, beta = draw(st.integers(1, 12)), draw(st.integers(1, 12))
            psi = draw(st.integers(1, 4))
            if kind == nm.CONV:
                layer = nm.conv(alpha, beta, draw(st.integers(1, 6)), psi,
                                channels or draw(st.integers(1, 4)))
            else:
                layer = nm.maxpool(alpha, beta, channels or draw(st.integers(1, 6)), psi)
        layers.append(layer)
        prev_dim = layer.out_dim
        channels = None if kind == nm.FC else layer.gamma
    return nm.NetworkModel(layers=tuple(layers), input_dim=input_dim)


def clamp_points(net, a=1, b=None):
    return [-c / s for s, c in map(nm.flops_affine, net.layers[a - 1:b]) if s > 0.0]


def rho_draws(net):
    """A geometric grid over (0, 1] and each clamp point with its adjacent
    floats and the points 1e-9 relative away."""
    grid = [2.0 ** (-k / 4) for k in range(80)]
    near = [r for t in clamp_points(net)
            for r in (t * (1.0 - 1e-9), math.nextafter(t, 0.0), t,
                      math.nextafter(t, 1.0), t * (1.0 + 1e-9))]
    return sorted(set(grid + near))


def layer_sum(net, a, b, rho):
    """The per-layer reference: sum of flops(layer, rho) over a..b."""
    return sum(flops(net.layer(i), rho) for i in range(a, b + 1))


@st.composite
def max_rho_cases(draw):
    """A stack, a split l and two caps on its count: a fraction in
    [-0.1, 1.2] of the count at rho = 1, and the count at a drawn rho."""
    net = draw(layer_stacks())
    l = draw(st.integers(1, net.depth))
    rho = draw(st.sampled_from(rho_draws(net)))
    return net, l, [draw(st.floats(-0.1, 1.2)) * nm.cum_flops(net, 1, l, 1.0),
                    nm.cum_flops(net, 1, l, rho)]


STACKS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestFlopTable:
    @STACKS
    @given(layer_stacks(), st.data())
    def test_matches_the_layer_sum(self, net, data):
        b = data.draw(st.integers(1, net.depth))
        a = data.draw(st.integers(1, b))
        for rho in rho_draws(net):
            # relative to the size of the summed terms: both sides round
            # s*rho + c, which cancels near a clamp point
            scale = sum(s * rho + abs(c)
                        for s, c in map(nm.flops_affine, net.layers[a - 1:b]))
            got = nm.cum_flops(net, a, b, rho)
            assert abs(got - layer_sum(net, a, b, rho)) <= 1e-12 * scale, (a, b, rho)

    @STACKS
    @given(layer_stacks(), st.data())
    def test_exact_at_one_and_dyadic_rho(self, net, data):
        b = data.draw(st.integers(1, net.depth))
        a = data.draw(st.integers(1, b))
        for rho in (1.0, 0.5, 0.25, 0.75, 0.375, 0.125, 2.0 ** -10, 5 / 64):
            assert nm.cum_flops(net, a, b, rho) == layer_sum(net, a, b, rho), rho

    @STACKS
    @given(layer_stacks(), st.data())
    def test_nondecreasing_and_nonnegative(self, net, data):
        b = data.draw(st.integers(1, net.depth))
        a = data.draw(st.integers(1, b))
        counts = [nm.cum_flops(net, a, b, rho) for rho in rho_draws(net)]
        assert min(counts) >= 0.0
        assert all(lo <= hi for lo, hi in zip(counts, counts[1:]))

    @STACKS
    @given(layer_stacks(), st.data())
    def test_zero_where_the_whole_range_clamps(self, net, data):
        b = data.draw(st.integers(1, net.depth))
        a = data.draw(st.integers(1, b))
        if any(layer.kind == nm.MP for layer in net.layers[a - 1:b]):
            return   # max-pooling FLOPs never clamp
        lowest = min(clamp_points(net, a, b))
        for rho in (lowest, lowest * (1.0 - 1e-9), lowest * data.draw(st.floats(1e-6, 1.0))):
            assert nm.cum_flops(net, a, b, rho) == 0.0, rho

    def test_rho_outside_the_domain_raises(self, template_net):
        for rho in (0.0, -0.5, 1.0 + 1e-12, 2.0):
            with pytest.raises(ValueError):
                nm.cum_flops(template_net, 1, 3, rho)
            with pytest.raises(ValueError):
                nm.cum_flops(template_net, 4, 7, rho)

    @STACKS
    @given(max_rho_cases())
    # cap - intercept cancels near the clamp point 0.25: the affine root
    # rounds to a rho that counts 3.5762786887e-07, above the cap
    @example((nm.NetworkModel(layers=(nm.fc(1, 2),), input_dim=2), 1, [3.576278688e-07]))
    def test_max_rho_inverts_the_count(self, case):
        net, l, caps = case
        for cap in caps:
            r = nm.max_rho(net, l, cap)
            if r == 0.0:   # the max-pooling FLOPs alone exceed the cap
                assert nm.cum_flops(net, 1, l, 1e-300) > cap
                continue
            assert nm.cum_flops(net, 1, l, r) <= cap * (1 + 1e-12)
            if r < 1.0:
                assert nm.cum_flops(net, 1, l, min(r * (1 + 1e-9), 1.0)) > cap

    def test_replace_and_with_weights_rebuild_the_table(self, template_net, rng):
        bare = nm.NetworkModel(
            layers=tuple(dataclasses.replace(layer, weights=None)
                         for layer in template_net.layers),
            input_dim=template_net.input_dim)
        assert bare.flop_table == template_net.flop_table
        weights = [rng.standard_normal(layer.weight_count) for layer in bare.layers
                   if layer.is_weighted]
        assert bare.with_weights(weights).flop_table == bare.flop_table
        for l in range(1, bare.depth + 1):
            head = dataclasses.replace(bare, layers=bare.layers[:l])
            fresh = nm.NetworkModel(layers=bare.layers[:l], input_dim=bare.input_dim)
            assert head.flop_table == fresh.flop_table == bare.flop_table[:l + 1]

    def test_table_takes_no_part_in_equality_or_repr(self, template_net):
        field = {f.name: f for f in dataclasses.fields(nm.NetworkModel)}["flop_table"]
        assert not field.compare and not field.repr
        other = copy.copy(template_net)
        object.__setattr__(other, "flop_table", ())
        assert other == template_net
        assert repr(other) == repr(template_net)


class TestEquality:
    def test_networks_built_alike_are_equal(self):
        a, b = build_config({}).network, build_config({}).network
        assert a.layers[0].weights is not b.layers[0].weights
        assert (a == b) is True and (a != b) is False
        assert (a.layers[0] == b.layers[0]) is True

    def test_pruned_network_differs_from_its_parent(self, template_net):
        assert nm.prune(template_net, 1.0, 3) == template_net
        for l in range(1, template_net.depth + 1):
            pruned = nm.prune(template_net, 0.5, l)
            assert (pruned == template_net) is False
            assert (pruned.layer(1) == template_net.layer(1)) is False

    def test_weights_and_dimensions_take_part(self):
        w = np.arange(6.0).reshape(2, 3)
        assert nm.fc(2, 3, w) == nm.fc(2, 3, w.copy())
        assert nm.fc(2, 3, w) != nm.fc(2, 3)
        assert nm.fc(2, 3) == nm.fc(2, 3)
        assert nm.fc(2, 3) != nm.fc(3, 2)
        assert nm.maxpool(2, 2, 3, 2) != nm.conv(2, 2, 3, 2, 3)


def max_rho_caps(net, l):
    """Caps around every clamp point of layers 1..l, below the fixed
    (max-pooling) FLOPs, and at and above the FLOPs at rho = 1."""
    fixed = sum(c for s, c in map(nm.flops_affine, net.layers[:l]) if s == 0.0)
    clamps = [-c / s for s, c in map(nm.flops_affine, net.layers[:l]) if s > 0.0]
    caps = [0.5 * fixed, -1.0]
    for rho in clamps + [0.01, 0.3, 1.0]:
        flops = nm.cum_flops(net, 1, l, rho)
        caps += [flops * (1.0 - 1e-6), flops, flops * (1.0 + 1e-6) + 1e-3]
    return caps


class TestMaxRho:
    def test_stock_net_matches_bisection(self, template_net):
        for l in range(1, template_net.depth + 1):
            for cap in max_rho_caps(template_net, l):
                assert nm.max_rho(template_net, l, cap) == pytest.approx(
                    max_rho_bisection(template_net, l, cap), rel=1e-12, abs=0.0), (l, cap)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 40), min_size=2, max_size=6),
           st.integers(1, 5), st.floats(-0.1, 1.2))
    def test_random_fc_stacks_match_bisection(self, dims, l, frac):
        net = nm.random_fc_network(dims, [1.0] * (len(dims) - 1),
                                   np.random.default_rng(0))
        l = min(l, net.depth)
        cap = frac * nm.cum_flops(net, 1, l, 1.0)
        assert nm.max_rho(net, l, cap) == pytest.approx(
            max_rho_bisection(net, l, cap), rel=1e-12, abs=0.0)
        for cap in max_rho_caps(net, l):
            assert nm.max_rho(net, l, cap) == pytest.approx(
                max_rho_bisection(net, l, cap), rel=1e-12, abs=0.0), cap


class TestFeatureDim:
    def test_input(self, template_net):
        assert nm.feature_dim(template_net, 0) == 1024
        assert nm.upload_dim(template_net, 0) == 1024

    def test_maxpool(self, template_net):
        assert nm.feature_dim(template_net, 2) == 14 * 14 * 6

    def test_fc(self, template_net):
        assert nm.feature_dim(template_net, 6) == 60
        assert nm.upload_dim(template_net, 6) == 60
        # the split after the last layer uploads nothing
        assert nm.feature_dim(template_net, 7) == 5
        assert nm.upload_dim(template_net, 7) == 0

    def test_out_of_range(self, template_net):
        with pytest.raises(IndexError):
            nm.feature_dim(template_net, 8)
        with pytest.raises(IndexError):
            nm.upload_dim(template_net, 8)


class TestForward:
    def test_identity_weights(self):
        net = small_fc_net([np.eye(4), np.eye(4)])
        x = np.array([1.0, 0.5, 2.0, 0.0])
        np.testing.assert_array_equal(nm.forward(net, x, 2), x)

    def test_single_layer_is_matmul(self, rng):
        w = rng.standard_normal((3, 5))
        net = small_fc_net([w])
        x = rng.standard_normal(5)
        np.testing.assert_allclose(nm.forward(net, x, 1), w @ x, rtol=1e-15)

    def test_matches_independent_chain(self, rng):
        ws = [rng.standard_normal((8, 10)), rng.standard_normal((6, 8)),
              rng.standard_normal((4, 6))]
        net = small_fc_net(ws)
        x = rng.standard_normal(10)
        # hand-rolled oracle with explicit loops
        ref = x.copy()
        for i, w in enumerate(ws):
            if i > 0:
                ref = np.where(ref > 0, ref, 0.0)
            out = np.zeros(w.shape[0])
            for r in range(w.shape[0]):
                for c in range(w.shape[1]):
                    out[r] += w[r, c] * ref[c]
            ref = out
        np.testing.assert_allclose(nm.forward(net, x, 3), ref, rtol=1e-12)

    def test_no_relu_after_last(self):
        net = small_fc_net([-np.eye(3)])
        x = np.ones(3)
        assert (nm.forward(net, x, 1) < 0).all()

    def test_relu_is_1_lipschitz(self, rng):
        u = rng.standard_normal((50, 100))
        v = rng.standard_normal((50, 100))
        lhs = np.linalg.norm(np.maximum(u, 0) - np.maximum(v, 0), axis=0)
        rhs = np.linalg.norm(u - v, axis=0)
        assert (lhs <= rhs + 1e-12).all()

    def test_conv_unsupported(self, template_net):
        with pytest.raises(ValueError):
            nm.forward(template_net, np.zeros(1024), 1)


def weighted_pairs(net, pruned):
    return [(a, b) for a, b in zip(net.layers, pruned.layers) if a.is_weighted]


class TestPrune:
    def test_identity_at_one(self, rng, template_net):
        net = small_fc_net([rng.standard_normal((4, 4))])
        pruned = nm.prune(net, 1.0, 1)
        np.testing.assert_array_equal(pruned.layer(1).weights, net.layer(1).weights)
        for l in range(template_net.depth + 1):
            pairs = weighted_pairs(template_net, nm.prune(template_net, 1.0, l))
            for layer, kept in pairs:
                np.testing.assert_array_equal(kept.weights, layer.weights)

    def test_returns_a_network_pruned_up_to_l(self, template_net):
        for l in range(template_net.depth + 1):
            pruned = nm.prune(template_net, 0.5, l)
            assert isinstance(pruned, nm.NetworkModel)
            assert repr(pruned) == repr(template_net)   # same layers, same dims
            for i, layer in enumerate(template_net.layers, start=1):
                new = pruned.layer(i)
                if not layer.is_weighted:
                    assert new is layer
                    continue
                if i > l:
                    assert new.weights is layer.weights
                    continue
                assert new.weights is not layer.weights
                assert new.weights.shape == layer.weight_shape
                zeros = np.count_nonzero(new.weights == 0.0)
                assert zeros == layer.weight_count // 2, (l, i)

    def test_layers_above_l_are_kept_as_they_are(self, template_net):
        for l in range(template_net.depth + 1):
            pruned = nm.prune(template_net, 0.5, l)
            assert all(new is layer for new, layer in
                       zip(pruned.layers[l:], template_net.layers[l:]))

    def test_cached_norms_match_the_pruned_weights(self, template_net):
        pruned = nm.prune(template_net, 0.3, 5)
        for i in (1, 3, 5):
            layer = pruned.layer(i)
            w = layer.weights
            assert layer.fro_norm == float(np.linalg.norm(w))
            assert layer.fro_sq == float(np.sum(w**2))
            assert layer.laplace_rate == w.size / float(np.sum(np.abs(w)))
        # the unpruned layers keep their norms
        for layer, kept in weighted_pairs(template_net, pruned)[3:]:
            assert (kept.fro_norm, kept.fro_sq, kept.laplace_rate) == (
                layer.fro_norm, layer.fro_sq, layer.laplace_rate)

    def test_layers_above_l_need_no_weights(self, rng):
        w = rng.standard_normal((4, 6))
        net = nm.NetworkModel(layers=(nm.fc(4, 6, weights=w), nm.fc(3, 4)), input_dim=6)
        pruned = nm.prune(net, 0.5, 1)
        assert pruned.layer(2).weights is None
        assert np.count_nonzero(pruned.layer(1).weights) == 12
        with pytest.raises(ValueError, match="layer 2 has no weight matrix"):
            nm.prune(net, 0.5, 2)

    def test_smallest_magnitudes_zeroed(self):
        w = np.array([[0.1, -0.5], [0.2, 0.9]])
        net = small_fc_net([w])
        pruned = nm.prune(net, 0.5, 1)
        np.testing.assert_array_equal(pruned.layer(1).weights,
                                      np.array([[0.0, -0.5], [0.0, 0.9]]))

    def test_floor_count(self, rng):
        w = rng.standard_normal((1, 7))
        net = small_fc_net([w])
        pruned = nm.prune(net, 0.3, 1)
        assert np.count_nonzero(pruned.layer(1).weights == 0.0) == 4

    def test_tie_break_by_index(self):
        w = np.array([[0.5, 0.5, 0.5, 0.5]])
        net = small_fc_net([w])
        pruned = nm.prune(net, 0.5, 1)
        np.testing.assert_array_equal(pruned.layer(1).weights,
                                      np.array([[0.0, 0.0, 0.5, 0.5]]))

    def test_survivors_keep_values(self, rng):
        w = rng.standard_normal((6, 6))
        net = small_fc_net([w])
        pruned = nm.prune(net, 0.4, 1)
        kept = pruned.layer(1).weights != 0
        np.testing.assert_array_equal(pruned.layer(1).weights[kept], w[kept])

    def test_monotone_zero_sets(self, rng):
        w = rng.standard_normal((10, 10))
        net = small_fc_net([w])
        for r_hi, r_lo in ((0.9, 0.5), (0.7, 0.2), (0.5, 0.1)):
            z_hi = nm.prune(net, r_hi, 1).layer(1).weights == 0
            z_lo = nm.prune(net, r_lo, 1).layer(1).weights == 0
            assert (z_lo | ~z_hi).all()  # zeros at high rho stay zero at low rho


class TestPruningErrorBound:
    def test_zero_when_unpruned(self, rng):
        net = small_fc_net([rng.standard_normal((5, 5))])
        pruned = nm.prune(net, 1.0, 1)
        assert nm.pruning_error_bound(net, pruned, 1) == 0.0

    def test_single_layer_closed_form(self, rng):
        w = rng.standard_normal((5, 8))
        net = small_fc_net([w])
        pruned = nm.prune(net, 0.6, 1)
        expected = np.sum((w - pruned.layer(1).weights) ** 2)
        assert nm.pruning_error_bound(net, pruned, 1) == pytest.approx(expected, rel=1e-14)

    def test_dominates_measured_error(self, rng):
        for _ in range(100):
            dims = [10, 8, 6, 5]
            rates = rng.uniform(1.0, 4.0, 3) * np.sqrt(
                2.0 * np.array(dims[1:]) * np.array(dims[:-1]))
            net = nm.random_fc_network(dims, rates, rng)
            rho = float(rng.uniform(0.1, 0.99))
            pruned = nm.prune(net, rho, 3)
            x = rng.standard_normal(10)
            x /= np.linalg.norm(x)
            err = np.sum((nm.forward(net, x, 3) - nm.forward(pruned, x, 3)) ** 2)
            assert err <= nm.pruning_error_bound(net, pruned, 3) + 1e-12


class TestTailNormProduct:
    def test_empty_product(self, template_net):
        assert nm.tail_norm_product(template_net, 7) == 1.0

    def test_single_and_double_tail(self):
        net = small_fc_net([np.array([[2.0]]), np.array([[3.0]])])
        assert nm.tail_norm_product(net, 1) == pytest.approx(3.0)
        assert nm.tail_norm_product(net, 0) == pytest.approx(6.0)

    def test_recurrence(self, template_net):
        for l in (1, 3, 5, 6, 7):
            layer = template_net.layer(l)
            if not layer.is_weighted:
                continue
            lhs = nm.tail_norm_product(template_net, l) * np.linalg.norm(layer.weights)
            assert lhs == pytest.approx(nm.tail_norm_product(template_net, l - 1), rel=1e-12)

    def test_weightless_layers_contribute_one(self, template_net):
        # layer 2 is max-pooling: stepping over it leaves the product unchanged
        assert nm.tail_norm_product(template_net, 1) == pytest.approx(
            nm.tail_norm_product(template_net, 2), rel=1e-15)


class TestLaplaceRateAndPenaltyCoeff:
    def test_rate_for_constant_magnitudes(self):
        c = 0.25
        w = np.array([[c, -c], [c, -c]])
        layer = nm.fc(2, 2, weights=w)
        assert layer.laplace_rate == pytest.approx(1.0 / c)
        # M / lambda^2 and ||W||_F^2 are both 4 c^2
        assert nm.prune_factors(layer) == pytest.approx((4 * c**2, 4 * c**2))

    def test_all_zero_layer_errors(self):
        layer = nm.fc(2, 2, weights=np.zeros((2, 2)))
        assert layer.laplace_rate is None
        with pytest.raises(ValueError, match="all-zero"):
            nm.prune_factors(layer)
        with pytest.raises(ValueError, match="no weight matrix"):
            nm.prune_factors(nm.fc(2, 2))

    def test_single_layer_coeff(self):
        c = 0.5
        w = np.full((3, 4), c) * np.sign(np.arange(12).reshape(3, 4) % 3 - 0.5)
        net = small_fc_net([np.where(w == 0, c, w)])
        # all magnitudes equal c: rate 1/c, coefficient M*c^2
        got = nm.pruning_penalty_coeff(net, 1)
        assert got == pytest.approx(12 * c**2, rel=1e-12)

    def test_two_layer_recompute(self, rng):
        ws = [rng.laplace(0, 0.3, (6, 8)), rng.laplace(0, 0.1, (4, 6))]
        net = small_fc_net(ws)
        # independent recomputation from raw weights
        rates = [w.size / np.abs(w).sum() for w in ws]
        sq = [float(np.sum(w**2)) for w in ws]
        expected = (ws[0].size / rates[0] ** 2) * sq[1] + (ws[1].size / rates[1] ** 2) * sq[0]
        assert nm.pruning_penalty_coeff(net, 2) == pytest.approx(expected, rel=1e-12)


class TestValidation:
    def test_chain_mismatch(self):
        with pytest.raises(ValueError):
            nm.NetworkModel(layers=(nm.fc(60, 120), nm.fc(5, 61)), input_dim=120)

    def test_channel_chain_mismatch(self):
        with pytest.raises(ValueError):
            nm.NetworkModel(layers=(nm.conv(28, 28, 6, 5, 1), nm.maxpool(14, 14, 5, 2)),
                            input_dim=1024)

    def test_mp_weights_rejected(self):
        with pytest.raises(ValueError):
            nm.LayerSpec("mp", alpha=2, beta=2, gamma=1, psi=2, weights=np.ones((1, 4)))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            nm.fc(3, 4, weights=np.ones((3, 3)))

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            nm.fc(0, 4)


class TestGeneratorsAndIO:
    def test_random_fc_network_shapes(self, rng):
        net = nm.random_fc_network([10, 8, 4], [5.0, 5.0], rng)
        assert net.depth == 2
        assert net.layer(1).weights.shape == (8, 10)
        assert net.layer(2).weights.shape == (4, 8)

    def test_laplacian_rate_matches(self, rng):
        rate = 7.0
        net = nm.random_fc_network([100, 100], [rate], rng)
        assert net.layer(1).laplace_rate == pytest.approx(rate, rel=0.05)

    def test_random_fc_network_draw_order(self):
        # the random-fc benchmark inputs and the margin suite depend on
        # these exact draws: one Laplace matrix per layer, in layer order
        dims, rates = [9, 7, 5, 3], [2.0, 3.0, 4.0]
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        net = nm.random_fc_network(dims, rates, rng)
        ref = [ref_rng.laplace(0.0, 1.0 / rate, size=(n, n_prev))
               for n_prev, n, rate in zip(dims[:-1], dims[1:], rates)]
        for layer, w in zip(net.layers, ref):
            np.testing.assert_array_equal(layer.weights, w)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_weight_shape(self):
        assert nm.fc(4, 6).weight_shape == (4, 6)
        assert nm.conv(10, 10, 16, 5, 6).weight_shape == (16, 150)
        assert nm.maxpool(5, 5, 16, 2).weight_shape == (0, 0)

    def test_rates_for_norms(self, template_net):
        for layer, target in zip(
                (l for l in template_net.layers if l.is_weighted),
                [6.0, 2.5, 2.5, 0.6, 0.6]):
            assert np.linalg.norm(layer.weights) == pytest.approx(target, rel=0.15)

    def test_weight_file_roundtrip_text(self, rng, tmp_path):
        ws = [rng.standard_normal((4, 6)), rng.standard_normal((3, 4))]
        net = small_fc_net(ws)
        path = tmp_path / "weights.txt"
        np.savetxt(path, np.concatenate([w.reshape(-1) for w in ws]))
        bare = nm.NetworkModel(layers=(nm.fc(4, 6), nm.fc(3, 4)), input_dim=6)
        loaded = nm.load_weights(bare, path)
        for l in (1, 2):
            np.testing.assert_allclose(loaded.layer(l).weights,
                                       net.layer(l).weights, rtol=1e-12)

    def test_weight_file_roundtrip_binary(self, rng, tmp_path):
        ws = [rng.standard_normal((4, 6)), rng.standard_normal((3, 4))]
        net = small_fc_net(ws)
        path = tmp_path / "weights.bin"
        np.concatenate([w.reshape(-1) for w in ws]).astype("<f8").tofile(path)
        bare = nm.NetworkModel(layers=(nm.fc(4, 6), nm.fc(3, 4)), input_dim=6)
        loaded = nm.load_weights(bare, path)
        for l in (1, 2):
            np.testing.assert_array_equal(loaded.layer(l).weights, net.layer(l).weights)

    def test_weight_file_length_mismatch(self, rng, tmp_path):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.ones(5))
        bare = nm.NetworkModel(layers=(nm.fc(2, 4),), input_dim=4)
        with pytest.raises(ValueError):
            nm.load_weights(bare, path)
