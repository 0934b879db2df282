import numpy as np
import pytest

from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls.spectral import basis_mode

CONSTS = fn.FunctionalConstants()
NO_NOISE = nz.NoiseSpec(np.zeros(0))


def cubic_oracle(a, M_out):
    """Dense-quadrature coefficients of i|u|^2 u: integrate against each e_k."""
    x = np.linspace(0.0, 1.0, 60001)
    k = np.arange(1, len(a) + 1)
    S = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    u = S @ a
    w = 1j * np.abs(u) ** 2 * u
    kk = np.arange(1, M_out + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, kk))
    return np.trapezoid(w[:, None] * basis, x, axis=0)


class TestNonlinearity:
    def test_zero(self):
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
        assert np.all(md.nonlinearity(np.zeros(8, complex), p) == 0)

    def test_single_mode_against_quadrature_oracle(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 0.8 * basis_mode(M, 1)
        got = md.nonlinearity(a, p)
        oracle = cubic_oracle(a, M)
        assert np.max(np.abs(got - oracle)) < 1e-7
        # only odd modes are excited by a real single-mode cube
        assert np.max(np.abs(got[1::2])) < 1e-12

    def test_random_field_against_oracle(self):
        rng = np.random.default_rng(0)
        M = 12
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.arange(1, M + 1)
        assert np.max(np.abs(md.nonlinearity(a, p) - cubic_oracle(a, M))) < 1e-6

    def test_mass_neutrality(self):
        # Re<i|u|^2 u, conj(u)>_H = 0, the identity behind the mass law
        rng = np.random.default_rng(1)
        M = 32
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        for _ in range(5):
            a = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            nl = md.nonlinearity(a, p)
            val = np.real(np.sum(nl * np.conj(a)))
            assert abs(val) < 1e-10 * np.sum(np.abs(a) ** 2)

    def test_dealias_two_equals_three(self):
        # 2x sine padding is already alias-free for the retained cubic modes
        rng = np.random.default_rng(2)
        M = 24
        a = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        p2 = md.ModelParams(gamma=0.1, alpha=1.0, M=M, pad_factor=2)
        p3 = md.ModelParams(gamma=0.1, alpha=1.0, M=M, pad_factor=3)
        assert np.max(np.abs(md.nonlinearity(a, p2) - md.nonlinearity(a, p3))) < 1e-11


class TestTruncatedNonlinearity:
    def test_inactive_region_matches_full(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 0.2 * basis_mode(M, 1)  # |u|^2 <= 0.08 << R
        full = md.nonlinearity(a, p)
        trunc = md.truncated_nonlinearity(a, 2.0, p)
        assert np.allclose(full, trunc, atol=1e-14)

    def test_saturated_region_is_zero(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 10.0 * basis_mode(M, 1)
        # |u(x)|^2 >= R+1 wherever u is away from the boundary; check the
        # pointwise cut-off instead of the projected coefficients
        assert md.cutoff_smoothstep(np.array([200.0]), 2.0)[0] == 0.0
        assert md.cutoff_smoothstep(np.array([1.0]), 2.0)[0] == 1.0

    def test_smoothstep_midpoint(self):
        assert md.cutoff_smoothstep(np.array([2.5]), 2.0)[0] == pytest.approx(0.5)

    def test_c1_join(self):
        eps = 1e-6
        R = 3.0
        left = md.cutoff_smoothstep(np.array([R - eps]), R)[0]
        right = md.cutoff_smoothstep(np.array([R + eps]), R)[0]
        assert left == 1.0 and right == pytest.approx(1.0, abs=1e-11)


class TestStep:
    def test_zero_fixed_point(self):
        for scheme in md.SCHEMES:
            p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
            ic = md.IntegratorConfig(dt=0.01, scheme=scheme)
            rec = md.simulate_ensemble(np.zeros(8, complex), p, ic, NO_NOISE, 0.5, seed=3)
            assert np.all(rec.final == 0)

    @pytest.mark.parametrize("scheme", md.SCHEMES)
    def test_linear_exactness(self, scheme):
        # nonlinearity disabled, Q = 0: a_1(t) = e^{-((gamma+i)pi^2+alpha)t}
        p = md.ModelParams(gamma=0.3, alpha=0.7, M=8, nonlinear=False)
        ic = md.IntegratorConfig(dt=0.01, scheme=scheme)
        rec = md.simulate_ensemble(basis_mode(8, 1), p, ic, NO_NOISE, 1.0, seed=4)
        exact = np.exp(-((0.3 + 1j) * np.pi**2 + 0.7) * 1.0)
        assert abs(rec.final[0, 0] - exact) < 1e-10

    def test_nls_mass_decay(self):
        # gamma=0, Q=0: ||u(2)||_H = e^{-1} ||u0||_H within 1e-6 at dt=1e-4
        p = md.ModelParams(gamma=0.0, alpha=0.5, M=64)
        ic = md.IntegratorConfig(dt=1e-4, scheme="strang", record_every=2000)
        u0 = basis_mode(64, 1)
        rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 2.0, seed=5)
        got = float(fn.norm_h(rec.final[0]))
        assert got == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_public_step_and_blowup_guard(self):
        p = md.ModelParams(gamma=0.0, alpha=1.0, M=8)
        ic = md.IntegratorConfig(dt=0.01)
        rng = nz.trajectory_rng(0, 0)
        out = md.step(basis_mode(8, 1), p, ic, nz.NoiseSpec(np.array([0.5])), rng)
        assert out.shape == (8,)
        ic_tight = md.IntegratorConfig(dt=0.01, blowup_guard=1e-3)
        with pytest.raises(md.BlowUpError):
            md.step(basis_mode(8, 1), p, ic_tight, NO_NOISE, rng)


class TestSimulate:
    def test_t_zero_single_record(self):
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
        ic = md.IntegratorConfig(dt=0.01)
        rec = md.simulate(basis_mode(8, 1), p, ic, NO_NOISE, 0.0, seed=6)
        assert len(rec.times) == 1 and rec.times[0] == 0.0

    def test_seed_determinism(self):
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        ic = md.IntegratorConfig(dt=1e-3, record_every=50)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        a = md.simulate(basis_mode(16, 1), p, ic, spec, 0.5, seed=7, record_states=True)
        b = md.simulate(basis_mode(16, 1), p, ic, spec, 0.5, seed=7, record_states=True)
        assert np.array_equal(a.states, b.states)
        c = md.simulate(basis_mode(16, 1), p, ic, spec, 0.5, seed=8, record_states=True)
        assert not np.array_equal(a.states, c.states)

    def test_batching_invariance(self):
        # trajectory 3 is bit-identical whether run alone or inside a batch
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        batch = md.simulate_ensemble(
            np.zeros(16, complex), p, ic, spec, 0.3, seed=9, traj_ids=np.arange(6)
        )
        solo = md.simulate_ensemble(
            np.zeros(16, complex), p, ic, spec, 0.3, seed=9, traj_ids=np.array([3])
        )
        assert np.array_equal(batch.final[3], solo.final[0])
        # 200 rows on the 128-point kick grid pass numpy's 256 KiB
        # temporary-reuse size, 100 rows stay below it
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=64)
        ic = md.IntegratorConfig(dt=5e-3)
        u0 = 0.5 * basis_mode(64, 1) + 0.3 * basis_mode(64, 3)
        batch = md.simulate_ensemble(u0, p, ic, spec, 0.1, seed=7, traj_ids=np.arange(200))
        sub = md.simulate_ensemble(u0, p, ic, spec, 0.1, seed=7, traj_ids=np.arange(100))
        assert np.array_equal(batch.final[:100], sub.final)

    def test_pathwise_mass_law(self):
        p = md.ModelParams(gamma=0.0, alpha=0.5, M=64)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        u0 = 0.5 * basis_mode(64, 1) + 0.3 * basis_mode(64, 2)
        rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 1.0, seed=10)
        h = np.sqrt(rec.energy.H[:, 0])
        target = float(fn.norm_h(u0)) * np.exp(-0.5 * rec.times)
        assert np.max(np.abs(h - target)) / float(fn.norm_h(u0)) < 1e-6

    def test_hamiltonian_second_order(self):
        p = md.ModelParams(gamma=0.0, alpha=0.0, M=32)
        u0 = 0.5 * basis_mode(32, 1) + 0.3 * basis_mode(32, 2)

        def drift(dt):
            ic = md.IntegratorConfig(dt=dt, scheme="strang",
                                     record_every=max(1, int(0.05 / dt)))
            rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 1.0, seed=11)
            h = rec.energy.H1[:, 0] - 0.5 * rec.energy.L4[:, 0]
            return np.max(np.abs(h - h[0])) / abs(h[0])

        d1, d2 = drift(2e-3), drift(1e-3)
        assert d1 < 1e-3
        assert d1 / d2 > 3.0  # second order: ~4x per halving

    def test_blowup_flagging_counted(self):
        p = md.ModelParams(gamma=0.0, alpha=0.1, M=8)
        ic = md.IntegratorConfig(dt=0.01, blowup_guard=1e-4)
        spec = nz.NoiseSpec.power_profile(2, 1.0, 2.0)
        rec = md.simulate_ensemble(np.zeros(8, complex), p, ic, spec, 0.2, seed=12,
                                   traj_ids=np.arange(4))
        assert rec.excluded.all()
        with pytest.raises(md.BlowUpError):
            md.simulate(np.zeros(8, complex), p, ic, spec, 0.2, seed=12)

    def test_truncated_matches_full_below_radius(self):
        spec = nz.NoiseSpec.power_profile(4, 0.05, 2.0)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        u0 = 0.2 * basis_mode(32, 1)
        full = md.ModelParams(gamma=0.05, alpha=1.0, M=32)
        trunc = md.ModelParams(gamma=0.05, alpha=1.0, M=32, truncation=2.0)
        a = md.simulate_ensemble(u0, full, ic, spec, 1.0, seed=13)
        b = md.simulate_ensemble(u0, trunc, ic, spec, 1.0, seed=13)
        # sup |u|^2 stays far below R = 2, so phi_R is identically 1
        assert np.max(np.abs(a.final - b.final)) < 1e-12

    def test_lyapunov_envelope_constant_across_gamma(self):
        # fitted C in E Phi(t) <= e^{-alpha t/2} Phi(u0) + C varies < 3x in gamma
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        u0 = 0.5 * basis_mode(32, 1)
        chats = []
        for g in (0.0, 0.01, 0.1):
            p = md.ModelParams(gamma=g, alpha=1.0, M=32)
            ic = md.IntegratorConfig(dt=2e-3, record_every=100)
            rec = md.simulate_ensemble(u0, p, ic, spec, 5.0, seed=14,
                                       traj_ids=np.arange(100), consts=CONSTS)
            mean_phi = rec.energy.phi.mean(axis=1)
            phi0 = mean_phi[0]
            chat = np.max(mean_phi - np.exp(-0.5 * 1.0 * rec.times) * phi0)
            chats.append(max(chat, 1e-12))
        assert max(chats) / min(chats) < 3.0


class TestEta:
    def test_zero_noise(self):
        times, states = md.simulate_eta(nz.NoiseSpec(np.zeros(0)), 1.0, 1.0, 0.1, seed=15)
        assert states.size == 0 or np.all(states == 0)

    def test_stationary_variance(self):
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        alpha = 0.8
        times, states = md.simulate_eta(spec, alpha, T=10 / alpha, dt=0.25, seed=16,
                                        n_traj=10_000, record_every=10)
        final = states[-1]
        emp = np.mean(np.abs(final) ** 2, axis=0)
        se = np.std(np.abs(final) ** 2, axis=0) / np.sqrt(final.shape[0])
        theory = nz.ou_mode_variance(spec, alpha, times[-1])
        assert np.all(np.abs(emp - theory) <= 3 * se)

    def test_small_ball_frequency_positive(self):
        # P(sup_{[0,2]} ||eta||_{H^2} <= 1.5) observed > 0 at the default profile
        spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
        times, states = md.simulate_eta(spec, 1.0, T=2.0, dt=0.05, seed=17,
                                        n_traj=400, record_every=1)
        h2 = fn.norm_hr(states, 2.0)  # (n_rec, n_traj)
        sup = h2.max(axis=0)
        assert np.mean(sup <= 1.5) > 0.0

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            md.simulate_eta(nz.NoiseSpec(np.array([1.0])), 0.0, 1.0, 0.1, seed=18)
