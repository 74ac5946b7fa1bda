import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isccopt import sensing
from isccopt.sensing import (ClutterPath, EchoParams, TargetPath,
                             clutter_filter, generate_echo, sensing_cost,
                             spectrogram)
from util import generate_echo_reference, stock_config, svd_band


def make_params(**overrides):
    base = dict(
        power=0.5,
        chirp_duration=1e-5,
        n_chirps=64,
        sample_rate=1e7,
        target=TargetPath(delay=2e-6, doppler_hz=3000.0, gain=1.0 + 0.0j),
        clutter=(ClutterPath(delay=1e-6, gain=2.0 + 0.0j),
                 ClutterPath(delay=3e-6, gain=1.0 - 0.5j)),
        noise_psd=0.0,
        chirp_bandwidth=1e6,
    )
    base.update(overrides)
    return EchoParams(**base)


class TestGenerateEcho:
    def test_shape(self):
        y = generate_echo(make_params(), seed=0)
        assert y.shape == (100, 64)

    def test_all_zero_when_silent(self):
        p = make_params(target=TargetPath(2e-6, 3000.0, 0.0 + 0.0j), clutter=())
        y = generate_echo(p, seed=0)
        assert np.all(y == 0)

    def test_static_clutter_gives_identical_columns(self):
        p = make_params(target=TargetPath(2e-6, 3000.0, 0.0 + 0.0j))
        y = generate_echo(p, seed=1)
        np.testing.assert_array_equal(y, np.tile(y[:, :1], (1, y.shape[1])))

    def test_noise_variance(self):
        psd = 1e-9
        p = make_params(power=0.0, clutter=(), noise_psd=psd,
                        n_chirps=1000, target=TargetPath(2e-6, 0.0, 0.0j))
        y = generate_echo(p, seed=2)
        assert y.size == 100000
        var = np.mean(np.abs(y) ** 2)
        assert var == pytest.approx(psd * p.sample_rate, rel=0.03)

    def test_deterministic(self):
        p = make_params(noise_psd=1e-9)
        np.testing.assert_array_equal(generate_echo(p, seed=3), generate_echo(p, seed=3))

    def test_doppler_progression(self):
        # pure target: column m carries phase 2*pi*f_D*T0*m
        p = make_params(clutter=())
        y = generate_echo(p, seed=0)
        k = np.argmax(np.abs(y[:, 0]))
        phase = np.angle(y[k, :] / y[k, 0])
        expected = np.angle(np.exp(2j * np.pi * 3000.0 * 1e-5 * np.arange(64)))
        np.testing.assert_allclose(phase, expected, atol=1e-9)

    @pytest.mark.parametrize("seed", [1, 301, 9001])
    @pytest.mark.parametrize("rate, chirps, noise_psd", [
        (1e7, 256, None), (2e7, 512, None), (1e7, 256, 0.0)],
        ids=["100x256", "200x512", "100x256-noiseless"])
    def test_bytes_equal_the_complex_temporary_expression(self, rate, chirps,
                                                          noise_psd, seed):
        # the stock echo (noise_psd 1e-9) at the benchmark's two sizes
        echo = replace(stock_config().echo, sample_rate=rate, n_chirps=chirps)
        if noise_psd is not None:
            echo = replace(echo, noise_psd=noise_psd)
        got, want = generate_echo(echo, seed), generate_echo_reference(echo, seed)
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape == (echo.n_fast, chirps)
        assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(target=TargetPath(2e-5, 0.0, 1.0j))  # delay >= chirp
        with pytest.raises(ValueError):
            make_params(sample_rate=1e4)  # under one sample per chirp


class TestClutterFilter:
    def test_full_rank_reconstructs(self, rng):
        y = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
        filtered = clutter_filter(y, 1, 20)
        assert np.linalg.norm(filtered - y) <= 1e-9 * np.linalg.norm(y)

    def test_rank_one_removed(self, rng):
        u = rng.standard_normal(15)
        v = rng.standard_normal(25)
        y = np.outer(u, v).astype(complex)
        filtered = clutter_filter(y, 2, 15)
        assert np.linalg.norm(filtered) <= 1e-9 * np.linalg.norm(y)

    def test_norm_never_grows(self, rng):
        y = rng.standard_normal((12, 18)) + 1j * rng.standard_normal((12, 18))
        for r1, r2 in ((1, 3), (2, 8), (5, 12)):
            assert np.linalg.norm(clutter_filter(y, r1, r2)) <= np.linalg.norm(y) + 1e-12

    def test_projection_idempotent_from_top(self, rng):
        y = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
        once = clutter_filter(y, 1, 10)
        twice = clutter_filter(once, 1, 10)
        assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(once)

    def test_projection_idempotent_shifted(self, rng):
        # after filtering with r1 > 1 the kept components re-rank from 1, so
        # the identical subspace is (1, r2 - r1 + 1) on the output
        y = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
        once = clutter_filter(y, 2, 10)
        twice = clutter_filter(once, 1, 9)
        assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(once)

    def test_bad_range(self, rng):
        y = rng.standard_normal((5, 5)).astype(complex)
        with pytest.raises(ValueError):
            clutter_filter(y, 0, 3)
        with pytest.raises(ValueError):
            clutter_filter(y, 4, 3)
        with pytest.raises(ValueError):
            clutter_filter(y, 1, 6)

    def test_non_finite_rejected(self):
        y = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            clutter_filter(y, 1, 2)

    def test_one_d_rejected(self):
        with pytest.raises(ValueError, match="y must be 2-D"):
            clutter_filter(np.ones(5, dtype=complex), 1, 1)

    @pytest.mark.parametrize("r1", [2, 3])
    def test_stock_echo_certified(self, r1):
        # the stock echo's clutter and target give a clear gap after the
        # top one and two singular values, so no SVD is needed
        cfg = stock_config()
        y = generate_echo(cfg.echo, seed=cfg.seed)
        u = sensing._dominant_subspace(y, r1 - 1)
        assert u is not None
        u_svd = np.linalg.svd(y)[0][:, :r1 - 1]
        gap = u @ u.conj().T - u_svd @ u_svd.conj().T
        assert np.linalg.norm(gap, 2) <= 1e-13

    def test_no_gap_gives_up_after_two_steps(self, monkeypatch):
        # with r1 = 4 the stock echo has s4/s3 = 0.97: the gap bound stays
        # negative, so the filter stops after two Rayleigh-Ritz steps (one
        # eigh each) and takes the SVD expression
        cfg = stock_config()
        y = generate_echo(cfg.echo, seed=cfg.seed)
        eigh = np.linalg.eigh
        calls = 0

        def counting_eigh(*args, **kwargs):
            nonlocal calls
            calls += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        got = clutter_filter(y, 4, min(y.shape))
        assert calls == 2
        np.testing.assert_array_equal(got, svd_band(y, 4, min(y.shape)))

    @pytest.mark.parametrize("case", ["repeated-top", "gaussian-r1=2", "gaussian-r1=3",
                                      "partial-band", "start-misses-top"])
    def test_fallback_is_the_svd_expression(self, case, rng):
        # no certifiable gap (or a band short of full rank): the output is
        # the full-SVD expression itself
        g = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
        if case == "start-misses-top":
            # the Gram's five largest columns span eigenvectors e_0..e_4
            # (eigenvalues 0.9..0.35), an invariant subspace that misses
            # the top eigenvector (eigenvalue 1, spread over e_5..e_19);
            # only the Frobenius bound on lambda_2 refuses the Ritz pair
            left = np.eye(20)
            left[5:, 5:] = np.linalg.qr(np.c_[np.ones(15), g.real[5:, :14]])[0]
            lam = np.array([0.9, 0.5, 0.45, 0.4, 0.35, 1.0] + [0.01] * 14)
            right = np.linalg.qr(g.real[:, :20].T)[0]
            y, r1, r2 = (left * np.sqrt(lam)) @ right.T, 2, 20
        elif case == "repeated-top":
            left = np.linalg.qr(g[:12, :12])[0]
            right = np.linalg.qr(g[:18, 12:24])[0]
            s = np.array([4.0, 4.0, 2.0, 1.0] + [0.5] * 8)
            y, r1, r2 = (left * s) @ right.conj().T, 2, 12
        elif case == "partial-band":
            y, r1, r2 = g[:12, :18], 2, 8
        else:
            y, r1, r2 = g, int(case[-1]), 20
        np.testing.assert_array_equal(clutter_filter(y, r1, r2), svd_band(y, r1, r2))


@st.composite
def echo_cases(draw):
    """Echo scenes with up to two clutter paths, wide and tall, plus r1."""
    duration = 1e-5
    unit = st.floats(0.0, 1.0)

    def gain(top):
        mag, phase = draw(st.floats(0.0, top)), draw(st.floats(0.0, 2 * math.pi))
        return complex(mag * math.cos(phase), mag * math.sin(phase))

    target = TargetPath(delay=draw(unit) * 0.9 * duration,
                        doppler_hz=draw(st.floats(-40000.0, 40000.0)), gain=gain(2.0))
    clutter = tuple(ClutterPath(delay=draw(unit) * 0.9 * duration, gain=gain(3.0))
                    for _ in range(draw(st.integers(0, 2))))
    noise = draw(st.one_of(st.just(0.0), st.floats(-11.0, -8.0).map(lambda e: 10.0**e)))
    params = EchoParams(power=draw(st.floats(0.01, 1.0)), chirp_duration=duration,
                        n_chirps=draw(st.integers(8, 256)),
                        sample_rate=draw(st.floats(2e6, 2e7)), target=target,
                        clutter=clutter, noise_psd=noise)
    return params, draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(echo_cases())
def test_full_rank_filter_matches_svd(case):
    params, seed, r1 = case
    y = generate_echo(params, seed=seed)
    r2 = min(y.shape)
    r1 = min(r1, r2)
    got = clutter_filter(y, r1, r2)
    want = svd_band(y, r1, r2)
    y_norm = np.linalg.norm(y)
    assert np.linalg.norm(got - want) <= 1e-12 * y_norm
    np.testing.assert_array_equal(clutter_filter(y, r1, r2), got)
    # the spectrogram is normalized, so it scales a matrix difference by
    # ||y|| / ||ybar||; compare it where the kept part is above rounding
    if np.linalg.norm(want) > 1e-3 * y_norm:
        w = min(16, params.n_chirps)
        spec = spectrogram(got, w, w // 2)
        assert np.max(np.abs(spec - spectrogram(want, w, w // 2))) <= 1e-12
        np.testing.assert_array_equal(spectrogram(clutter_filter(y, r1, r2), w, w // 2), spec)


class TestSpectrogram:
    def test_unit_norm(self, rng):
        y = rng.standard_normal((10, 128)) + 1j * rng.standard_normal((10, 128))
        spec = spectrogram(y, 32, 16)
        assert np.linalg.norm(spec) == pytest.approx(1.0, abs=1e-12)

    def test_output_size(self, rng):
        y = rng.standard_normal((4, 100)).astype(complex)
        spec = spectrogram(y, 32, 16)
        # frames start at 0, 16, ..., 64: (100 - 32) // 16 + 1 = 5
        assert spec.size == 5 * 32

    def test_constant_signal_peaks_at_dc(self):
        y = np.ones((3, 64), dtype=complex)
        spec = spectrogram(y, 16, 8).reshape(-1, 16)
        assert (np.argmax(spec, axis=1) == 0).all()

    def test_single_tone_argmax(self):
        # tone exactly on DFT bin k of the window
        w, k, n_slow = 32, 5, 128
        tone = np.exp(2j * np.pi * k * np.arange(n_slow) / w)
        y = tone[None, :]
        spec = spectrogram(y, w, w // 2).reshape(-1, w)
        assert (np.argmax(spec, axis=1) == k).all()

    def test_matches_naive_dft(self, rng):
        w, hop, n_slow = 8, 4, 24
        y = (rng.standard_normal((2, n_slow)) + 1j * rng.standard_normal((2, n_slow)))
        spec = spectrogram(y, w, hop)
        slow = y.sum(axis=0)
        window = 0.5 * (1 - np.cos(2 * np.pi * np.arange(w) / w))
        mags = []
        for start in range(0, n_slow - w + 1, hop):
            seg = slow[start:start + w] * window
            for m in range(w):
                acc = 0.0 + 0.0j
                for n in range(w):
                    acc += seg[n] * np.exp(-2j * np.pi * m * n / w)
                mags.append(abs(acc))
        mags = np.array(mags)
        np.testing.assert_allclose(spec, mags / np.linalg.norm(mags), atol=1e-12)

    def test_zero_input_flagged(self):
        y = np.zeros((3, 32), dtype=complex)
        with pytest.warns(RuntimeWarning):
            spec = spectrogram(y, 16, 8)
        assert np.all(spec == 0)

    def test_window_too_long(self, rng):
        y = rng.standard_normal((2, 16)).astype(complex)
        with pytest.raises(ValueError):
            spectrogram(y, 32, 8)
        with pytest.raises(ValueError):
            spectrogram(y, 8, 0)

    @pytest.mark.parametrize("window_len", [0, -3, 1])
    def test_window_below_two(self, rng, window_len):
        y = rng.standard_normal((2, 16)).astype(complex)
        with pytest.raises(ValueError, match="window_len"):
            spectrogram(y, window_len, 8)

    def test_one_d_rejected(self):
        with pytest.raises(ValueError, match="ybar must be 2-D"):
            spectrogram(np.ones(16, dtype=complex), 4, 2)


class TestSensingCost:
    def test_table_values(self):
        t_sen, e_sen = sensing_cost(0.1, 1e-5, 50000)
        assert t_sen == pytest.approx(0.5)
        assert e_sen == pytest.approx(0.05)

    def test_zero_power(self):
        assert sensing_cost(0.0, 1e-5, 50000)[1] == 0.0

    def test_linear_in_power_and_chirps(self):
        t1, e1 = sensing_cost(0.2, 1e-5, 1000)
        t2, e2 = sensing_cost(0.4, 1e-5, 1000)
        t3, e3 = sensing_cost(0.2, 1e-5, 2000)
        assert e2 == pytest.approx(2 * e1)
        assert (t3, e3) == (pytest.approx(2 * t1), pytest.approx(2 * e1))

    def test_validation(self):
        with pytest.raises(ValueError):
            sensing_cost(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            sensing_cost(-0.1, 1e-5, 10)
