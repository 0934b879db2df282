import numpy as np
import pytest

from glnls import noise as nz
from glnls.config import ConfigError, load_config


class TestSpecAndTraces:
    def test_traces_power_profile(self):
        spec = nz.NoiseSpec.power_profile(4, 1.0, 2.0)
        tr = nz.traces(spec)
        assert tr.tr_qq == pytest.approx(1 + 1 / 16 + 1 / 81 + 1 / 256, rel=1e-12)

    def test_traces_empty(self):
        tr = nz.traces(nz.NoiseSpec(np.zeros(0)))
        assert tr == (0.0, 0.0)

    def test_trace_a32qq_single_mode(self):
        tr = nz.traces(nz.NoiseSpec(np.array([1.0])))
        assert tr.tr_a32qq == pytest.approx(np.pi**3, rel=1e-12)

    def test_positive_amplitudes_required(self):
        with pytest.raises(ValueError):
            nz.NoiseSpec(np.array([1.0, 0.0]))

    def test_cq_check(self, tmp_path):
        # a run configuration needs cq_bound > Tr(A^{3/2}QQ*), ~84.3 here
        tr32 = nz.traces(nz.NoiseSpec.power_profile(8, 1.0, 2.0)).tr_a32qq

        def load(cq):
            p = tmp_path / "run.cfg"
            p.write_text("[noise]\nforced_modes = 8\nlambda0 = 1.0\ndecay = 2.0\n"
                         f"cq_bound = {cq!r}\n")
            return load_config(str(p), "simulate")

        load(200.0)
        load(float(np.nextafter(tr32, np.inf)))
        for cq in (1.0, tr32):
            with pytest.raises(ConfigError) as err:
                load(cq)
            assert "C_Q" in str(err.value)


class TestIncrements:
    def test_variance(self):
        spec = nz.NoiseSpec(np.array([1.0]))
        rng = nz.trajectory_rng(0, 0)
        n, dt = 100_000, 0.01
        z = rng.standard_normal((n, 2, 1))
        dw = nz.increments_from_normals(z, dt)
        lam = 1.0
        var = np.var(np.real(lam * dw[:, 0]))
        se = np.sqrt(2.0 / n) * dt  # var of the variance estimator of N(0, dt)
        assert abs(var - dt) < 3 * se
        # E|lambda dW|^2 = 2 lambda^2 dt
        assert np.mean(np.abs(dw[:, 0]) ** 2) == pytest.approx(2 * dt, rel=0.02)

    def test_small_dt_limit(self):
        rng = nz.trajectory_rng(0, 1)
        z = rng.standard_normal((1000, 2, 3))
        for dt in (1e-2, 1e-4, 1e-8):
            dw = nz.increments_from_normals(z, dt)
            assert np.mean(np.abs(dw) ** 2) == pytest.approx(2 * dt, rel=0.2)


class TestExactConvolution:
    def test_zero_amplitude(self):
        std = nz.convolution_std(nz.NoiseSpec(np.array([1.0])), 0.1, 1.0, 0.1, M=4)
        assert np.all(std[1:] == 0.0)  # unforced modes get exactly zero

    def test_long_time_ou_limit(self):
        # gamma=0, alpha=1, lambda=1: per-component variance -> 1/2, E|xi|^2 -> 1
        spec = nz.NoiseSpec(np.array([1.0]))
        std = nz.convolution_std(spec, 0.0, 1.0, dt=100.0)
        assert std[0] ** 2 == pytest.approx(0.5, rel=1e-10)

    def test_closed_form_against_ito_isometry_quadrature(self):
        # independent oracle: numerically integrate the isometry integrand
        gamma, alpha, dt, lam = 0.1, 0.5, 0.05, 0.7
        spec = nz.NoiseSpec(np.array([lam]))
        c = gamma * np.pi**2 + alpha
        s = np.linspace(0.0, dt, 200001)
        var_oracle = lam**2 * np.trapezoid(np.exp(-2 * c * s), s)
        std = nz.convolution_std(spec, gamma, alpha, dt)
        assert std[0] ** 2 == pytest.approx(var_oracle, rel=1e-8)

    def test_monte_carlo_matches_closed_form(self):
        gamma, alpha, dt = 0.1, 0.5, 0.05
        spec = nz.NoiseSpec(np.array([1.0, 0.5]))
        rng = nz.trajectory_rng(3, 4)
        n = 100_000
        z = rng.standard_normal((n, 2, 2))
        std = nz.convolution_std(spec, gamma, alpha, dt)
        xi = nz.convolution_from_normals(z, std)
        for k in range(2):
            emp = np.var(xi[:, k].real)
            se = std[k] ** 2 * np.sqrt(2.0 / n)
            assert abs(emp - std[k] ** 2) < 3 * se

    def test_c_to_zero_limit(self):
        spec = nz.NoiseSpec(np.array([2.0]))
        std = nz.convolution_std(spec, 0.0, 0.0, dt=0.01, M=1)
        assert std[0] ** 2 == pytest.approx(4.0 * 0.01, rel=1e-12)

    def test_ou_mode_variance_formula(self):
        spec = nz.NoiseSpec(np.array([1.0, 0.25]))
        v = nz.ou_mode_variance(spec, alpha=2.0, t=0.3)
        expect = spec.lambdas**2 * (1 - np.exp(-2 * 2.0 * 0.3)) / 2.0
        assert np.allclose(v, expect)


class TestStreams:
    def test_bit_identical_reproduction(self):
        a = nz.trajectory_rng(42, 7).standard_normal(100)
        b = nz.trajectory_rng(42, 7).standard_normal(100)
        assert np.array_equal(a, b)
        c = nz.trajectory_rng(42, 8).standard_normal(100)
        assert not np.array_equal(a, c)

    def test_ensemble_blocks_independent_of_batching(self):
        full = nz.EnsembleNoise(5, np.arange(4), 2).next_block(10)
        split_a = nz.EnsembleNoise(5, np.arange(2), 2).next_block(10)
        split_b = nz.EnsembleNoise(5, np.arange(2, 4), 2).next_block(10)
        assert np.array_equal(full, np.concatenate([split_a, split_b], axis=0))

    def test_sequential_blocks_continue_stream(self):
        src = nz.EnsembleNoise(5, np.array([3]), 2)
        first = src.next_block(4)
        second = src.next_block(4)
        whole = nz.EnsembleNoise(5, np.array([3]), 2).next_block(8)
        assert np.array_equal(np.concatenate([first, second], axis=1), whole)

    def test_cross_mode_and_component_correlations(self):
        n = 40_000
        z = nz.trajectory_rng(9, 0).standard_normal((n, 2, 3))
        dw = nz.increments_from_normals(z, 1.0)
        cols = np.column_stack([dw.real, dw.imag])
        corr = np.corrcoef(cols.T)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(n)

    def test_derive_seed_stable(self):
        assert nz.derive_seed(1, "pilot") == nz.derive_seed(1, "pilot")
        assert nz.derive_seed(1, "pilot") != nz.derive_seed(1, "segment-0")
