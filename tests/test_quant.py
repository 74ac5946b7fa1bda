import numpy as np
import pytest

from isccopt import netmodel as nm
from isccopt.quant import (QuantSpec, calibrate_range, delta_coeff,
                           quant_error_bound, quantize_vector)


class TestQuantSpec:
    def test_knobs(self):
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        assert spec.n_knobs == 4
        np.testing.assert_allclose(spec.knobs, [0.0, 1 / 3, 2 / 3, 1.0])
        assert (np.diff(spec.knobs) > 0).all()

    def test_offset_range(self):
        spec = QuantSpec(bits=2, f_min=0.5, f_max=1.5)
        np.testing.assert_allclose(spec.knobs, [0.5, 1.5])

    def test_q1_rejected(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=1, f_min=0.0, f_max=1.0)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=2, f_min=1.0, f_max=1.0)


class TestQuantizeVector:
    def test_two_level_mean(self):
        spec = QuantSpec(bits=2, f_min=0.0, f_max=1.0)
        draws = quantize_vector(np.full(100000, 0.3), spec, seed=0)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert np.mean(draws) == pytest.approx(0.3, abs=0.005)

    def test_negative_mirrored(self):
        spec = QuantSpec(bits=2, f_min=0.0, f_max=1.0)
        draws = quantize_vector(np.full(100000, -0.3), spec, seed=1)
        assert set(np.unique(draws)) <= {-0.0, -1.0}
        assert np.mean(draws) == pytest.approx(-0.3, abs=0.005)

    def test_exact_knob_kept(self):
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        for knob in spec.knobs:
            out = quantize_vector(np.full(1000, knob), spec, seed=2)
            np.testing.assert_array_equal(out, np.full(1000, knob))

    def test_zero_maps_to_zero_knob(self):
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        assert quantize_vector(np.zeros(10), spec, seed=3).tolist() == [0.0] * 10

    def test_unbiased_over_grid(self):
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1, 1, size=8)
        n = 100000
        for x in xs:
            draws = quantize_vector(np.full(n, x), spec, seed=5)
            sigma = np.std(draws) / np.sqrt(n) + 1e-12
            assert abs(np.mean(draws) - x) <= 4 * sigma

    def test_per_element_variance_bound(self):
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=200000)
        draws = quantize_vector(x, spec, seed=7)
        var = np.mean((draws - x) ** 2)
        assert var <= spec.step**2 / 4 + 1e-4

    def test_alphabet_within_q_bits(self):
        spec = QuantSpec(bits=3, f_min=0.25, f_max=1.0)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=50000)
        with pytest.warns(RuntimeWarning):  # magnitudes below f_min clamp
            out = quantize_vector(x, spec, seed=9)
        alphabet = set(np.unique(np.abs(out)))
        assert alphabet <= set(spec.knobs)
        assert len(np.unique(out)) <= 2 * spec.n_knobs

    def test_clamping_flagged(self):
        spec = QuantSpec(bits=2, f_min=0.0, f_max=1.0)
        with pytest.warns(RuntimeWarning):
            out = quantize_vector(np.array([2.0, -3.0]), spec, seed=10)
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_deterministic_given_seed(self):
        spec = QuantSpec(bits=4, f_min=0.0, f_max=1.0)
        x = np.linspace(0.01, 0.99, 1000)
        np.testing.assert_array_equal(quantize_vector(x, spec, seed=11),
                                      quantize_vector(x, spec, seed=11))


class TestQuantErrorBound:
    def test_direct_formula(self):
        # feature size 100 with unit range at 3 bits
        net = nm.NetworkModel(layers=(nm.fc(100, 64), nm.fc(10, 100)), input_dim=64)
        spec = QuantSpec(bits=3, f_min=0.0, f_max=1.0)
        assert quant_error_bound(net, 1, spec) == pytest.approx(100 / 4 / 9)

    def test_monotone_to_zero_in_bits(self):
        net = nm.NetworkModel(layers=(nm.fc(100, 64),), input_dim=64)
        bounds = [quant_error_bound(net, 1, QuantSpec(bits=q, f_min=0.0, f_max=1.0))
                  for q in range(2, 16)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-6 * bounds[0]

    def test_maxpool_lookahead(self):
        # split right before a pooling layer uses the pooled feature size
        layers = (nm.conv(10, 10, 1, 3, 1), nm.maxpool(5, 5, 1, 2), nm.fc(4, 25))
        net = nm.NetworkModel(layers=layers, input_dim=144)
        spec = QuantSpec(bits=2, f_min=0.0, f_max=1.0)
        assert nm.feature_dim(net, 1) == 100
        assert quant_error_bound(net, 1, spec) == pytest.approx(25 / 4)
        assert quant_error_bound(net, 2, spec) == pytest.approx(25 / 4)

    def test_input_split(self):
        net = nm.NetworkModel(layers=(nm.fc(8, 32),), input_dim=32)
        spec = QuantSpec(bits=2, f_min=0.0, f_max=2.0)
        assert quant_error_bound(net, 0, spec) == pytest.approx(32 * 4 / 4)


class TestCalibrateRange:
    def test_scans_peak(self):
        lo, hi = calibrate_range([np.array([0.1, -2.0]), np.array([1.5])],
                                 headroom=1.1)
        assert lo == 0.0
        assert hi == pytest.approx(2.2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            calibrate_range([np.zeros(4)])


class TestDeltaCoeff:
    def test_scales_with_range_squared(self):
        net = nm.NetworkModel(layers=(nm.fc(10, 5),), input_dim=5)
        assert delta_coeff(net, 1, 0.0, 2.0) == 4 * delta_coeff(net, 1, 0.0, 1.0)
