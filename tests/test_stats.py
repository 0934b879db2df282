import numpy as np
import pytest

from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import stats as st
from glnls.spectral import basis_mode

CONSTS = fn.FunctionalConstants()


def rand_measure(rng, n, M=6, weighted=False):
    A = rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))
    if weighted:
        w = rng.integers(1, 4, size=n).astype(float)
        return st.EmpiricalMeasure(A, w / w.sum())
    return st.EmpiricalMeasure(A)


class TestEmpiricalMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            st.EmpiricalMeasure(np.zeros((2, 3), complex), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            st.EmpiricalMeasure(np.zeros((2, 3), complex), np.array([-0.2, 1.2]))


class TestWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        emp = rand_measure(rng, 5)
        assert st.wasserstein(emp, emp, "d0").value == pytest.approx(0.0, abs=1e-12)

    def test_two_diracs(self):
        u1 = basis_mode(4, 1)
        u2 = 0.25 * basis_mode(4, 2)
        got = st.wasserstein(
            st.EmpiricalMeasure(u1[None]), st.EmpiricalMeasure(u2[None]), "d0"
        ).value
        assert got == pytest.approx(min(float(fn.norm_h(u1 - u2)), 1.0), rel=1e-12)

    def test_two_point_best_pairing(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 4)) + 0j
        B = rng.standard_normal((2, 4)) + 0j
        C = st.cost_matrix(st.EmpiricalMeasure(A), st.EmpiricalMeasure(B), "d0")
        manual = min(C[0, 0] + C[1, 1], C[0, 1] + C[1, 0]) / 2.0
        got = st.wasserstein(st.EmpiricalMeasure(A), st.EmpiricalMeasure(B), "d0")
        assert got.value == pytest.approx(manual, rel=1e-12)

    def test_lp_matches_enumeration_and_assignment(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(1, 7))
            ea = rand_measure(rng, n, weighted=trial % 2 == 0)
            eb = rand_measure(rng, int(rng.integers(1, 7)) if trial % 2 else n)
            try:
                bf = st.wasserstein_bruteforce(ea, eb, "d0")
            except ValueError:
                continue
            lp = st.wasserstein(ea, eb, "d0")
            assert abs(lp.value - bf) < 1e-10
            assert lp.gap < 1e-8
            if ea.is_uniform() and eb.is_uniform() and ea.n == eb.n:
                asg = st.wasserstein(ea, eb, "d0", method="assignment")
                assert asg.value == pytest.approx(lp.value, abs=1e-12)

    def test_dual_never_exceeds_primal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ea = rand_measure(rng, int(rng.integers(1, 8)))
            eb = rand_measure(rng, int(rng.integers(1, 8)))
            primal = st.wasserstein(ea, eb, "d0").value
            dual = st.dual_lower_bound(ea, eb, "d0")
            assert dual <= primal + 1e-9

    def test_dual_tight_on_far_diracs(self):
        # f(u) = min(||u||_H, 1) separates delta_{e1} from delta_0 exactly
        e1 = basis_mode(4, 1)
        ea = st.EmpiricalMeasure(e1[None])
        eb = st.EmpiricalMeasure(np.zeros((1, 4), complex))
        obs = [(lambda u: np.minimum(fn.norm_h(u), 1.0), 1.0)]
        dual = st.dual_lower_bound(ea, eb, "d0", observables=obs)
        primal = st.wasserstein(ea, eb, "d0").value
        assert dual == pytest.approx(1.0, rel=1e-12)
        assert primal == pytest.approx(1.0, rel=1e-12)

    def test_triangle_inequality_metric_costs(self):
        rng = np.random.default_rng(4)
        for ground in ("d0", "d1"):
            for _ in range(20):
                a = rand_measure(rng, 4)
                b = rand_measure(rng, 4)
                c = rand_measure(rng, 4)
                ab = st.wasserstein(a, b, ground).value
                bc = st.wasserstein(b, c, ground).value
                ac = st.wasserstein(a, c, ground).value
                assert ac <= ab + bc + 1e-9

    def test_subsampling_declares_variance(self):
        rng = np.random.default_rng(5)
        big_a = rand_measure(rng, 80)
        big_b = rand_measure(rng, 80)
        res = st.wasserstein(big_a, big_b, "d0", cap=32, rng=rng, replicates=4)
        assert res.subsampled and res.method == "subsampled-assignment"
        assert res.replicate_std >= 0.0
        full = st.wasserstein(big_a, big_b, "d0", cap=128).value
        assert abs(res.value - full) < 0.3  # replicate mean is in the ballpark

    def test_d0xi_cost_and_gap(self):
        rng = np.random.default_rng(6)
        ea, eb = rand_measure(rng, 4), rand_measure(rng, 4)
        res = st.wasserstein(ea, eb, "d0xi", xi=0.05)
        assert res.gap < 1e-8
        dual = st.dual_lower_bound(ea, eb, "d0xi", xi=0.05)
        assert dual <= res.value + 1e-9


class TestRateFits:
    def test_power_law_recovery(self):
        x = np.geomspace(1e-4, 1e-1, 8)
        y = 3.0 * x**1.25
        f = st.fit_power_law(x, y)
        assert f.exponent == pytest.approx(1.25, abs=1e-10)
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exponential_recovery_with_noise(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 10, 30)
        y = 2.0 * np.exp(-0.7 * t) * np.exp(0.01 * rng.standard_normal(30))
        f = st.fit_exponential(t, y)
        assert f.exponent == pytest.approx(0.7, abs=0.01)
        assert f.residual > 0.0  # residual reported, never hidden


class TestMixing:
    def test_identical_start_zero_curve(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        u = 0.4 * basis_mode(16, 1)
        c = st.mixing_curve(u, u, params, spec, np.linspace(0, 1, 5), 8, seed=8,
                            integ=md.IntegratorConfig(dt=5e-3))
        assert np.all(c.upper_d1 == 0.0)

    def test_decay_and_dual_below_upper(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.05, 2.0)
        c = st.mixing_curve(basis_mode(16, 1), basis_mode(16, 2), params, spec,
                            np.linspace(0, 8, 9), 32, seed=9,
                            integ=md.IntegratorConfig(dt=5e-3))
        assert c.upper_d1[-1] < c.upper_d1[0]
        upper_at_dual = np.interp(c.dual_t, c.t, c.upper_d1)
        assert np.all(c.dual_lower <= upper_at_dual + 1e-9)

    def test_stacked_pair_matches_member_loop(self):
        # 64 pairs at M = 64: the stacked kick product reaches 256 KiB
        M, E, dt = 64, 64, 5e-3
        params = md.ModelParams(gamma=0.01, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(8, 0.3, 2.0)
        integ = md.IntegratorConfig(dt=dt)
        u1 = 0.3 * basis_mode(M, 1)
        u2 = u1 + 0.01 * basis_mode(M, 2)
        c = st.mixing_curve(u1, u2, params, spec, [0.0, 0.05, 0.1], E, seed=9,
                            integ=integ, dual_checkpoints=0)
        stepper = md.Stepper(params, integ, spec)
        zs = nz.EnsembleNoise(9, np.arange(E), spec.N).next_block(20)
        s1 = np.tile(u1, (E, 1))
        s2 = np.tile(u2, (E, 1))
        up1 = [np.mean(fn.dist_d1(s1, s2))]
        up0 = [np.mean(fn.dist_d0(s1, s2))]
        for s in range(20):
            s1 = stepper.step(s1, zs[:, s])
            s2 = stepper.step(s2, zs[:, s])
            if s in (9, 19):
                up1.append(np.mean(fn.dist_d1(s1, s2)))
                up0.append(np.mean(fn.dist_d0(s1, s2)))
        assert np.array_equal(c.upper_d1, up1)
        assert np.array_equal(c.upper_d0, up0)


def inviscid_reference(u0, gammas, T, E, seed, M, spec, R, dt):
    """The per-gamma loop: each gamma re-steps its own gamma = 0 reference."""
    integ = md.IntegratorConfig(dt=dt, scheme="strang", noise_mode="em")
    n_steps = int(round(T / dt))
    out = []
    for g in sorted(gammas):
        st_g = md.Stepper(md.ModelParams(gamma=g, alpha=1.0, M=M, truncation=R), integ, spec)
        st_0 = md.Stepper(md.ModelParams(gamma=0.0, alpha=1.0, M=M, truncation=R), integ, spec)
        zs = nz.EnsembleNoise(seed, np.arange(E), spec.N).next_block(n_steps)
        a = np.tile(np.asarray(u0, complex), (E, 1))
        b = a.copy()
        sup = np.zeros(E)
        for s in range(n_steps):
            a = st_g.step(a, zs[:, s])
            b = st_0.step(b, zs[:, s])
            sup = np.maximum(sup, fn.norm_h_sq(a - b))
        out.append((np.mean(np.sqrt(sup)), np.mean(sup), np.std(sup) / np.sqrt(E)))
    return np.array(out).T


class TestInviscid:
    @pytest.mark.parametrize("gammas", [
        [0.0, 1e-3, 1e-2, 1e-1],
        [1e-2, 1e-3, 1e-1],
        [1e-2, 0.0, 1e-3, 1e-2, 1e-1],
    ], ids=["with-zero", "without-zero", "duplicate"])
    def test_stacked_matches_per_gamma_loop(self, gammas):
        M, E, T, dt, R = 32, 12, 0.1, 1e-3, 2.0
        spec = nz.NoiseSpec(0.3 * np.arange(1, M + 1, dtype=float) ** -1.5)
        u0 = 0.5 * np.exp(0.4j) * basis_mode(M, 1)
        curve = st.inviscid_curve(u0, gammas, T, E, seed=15, alpha=1.0, M=M, spec=spec,
                                  truncated=True, R=R, dt=dt)
        err, err_sq, se = inviscid_reference(u0, gammas, T, E, 15, M, spec, R, dt)
        assert np.array_equal(curve.gammas, sorted(gammas))
        assert np.array_equal(curve.mean_sup_err, err)
        assert np.array_equal(curve.mean_sup_err_sq, err_sq)
        assert np.array_equal(curve.se_sup_err_sq, se)
        assert np.all(curve.excluded == 0)
        assert np.all(curve.mean_sup_err[curve.gammas == 0.0] == 0.0)

    def test_one_noise_block_per_256_steps(self, monkeypatch):
        calls = []
        next_block = nz.EnsembleNoise.next_block

        def counted(self, n_steps):
            calls.append(n_steps)
            return next_block(self, n_steps)

        monkeypatch.setattr(nz.EnsembleNoise, "next_block", counted)
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        st.inviscid_curve(0.3 * basis_mode(8, 1), [0.0, 1e-3, 1e-2, 1e-1, 0.2], T=0.3,
                          ensemble_size=2, seed=16, alpha=1.0, M=8, spec=spec, dt=1e-3)
        assert calls == [256, 44]

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_nonfinite_pairs_excluded(self):
        # |u|^2 overflows to inf, so the first kick turns every state into NaN
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(1e200 * basis_mode(16, 1), [0.0, 1e-3, 1e-2, 1e-1],
                                  T=0.01, ensemble_size=4, seed=17, alpha=1.0, M=16,
                                  spec=spec, dt=2e-3)
        assert np.all(curve.excluded == 4)
        assert np.all(np.isnan(curve.mean_sup_err_sq))
        assert curve.fit is None

    def test_gamma_zero_is_exact_zero(self):
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(0.3 * basis_mode(16, 1), [0.0, 0.05], T=0.2,
                                  ensemble_size=4, seed=10, alpha=1.0, M=16,
                                  spec=spec, dt=2e-3)
        i0 = int(np.argmin(curve.gammas))
        assert curve.mean_sup_err_sq[i0] == 0.0

    def test_error_increases_with_gamma(self):
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(0.3 * basis_mode(16, 1), [1e-3, 1e-2, 1e-1],
                                  T=0.5, ensemble_size=16, seed=11, alpha=1.0,
                                  M=16, spec=spec, dt=1e-3)
        assert np.all(np.diff(curve.mean_sup_err_sq) > 0)
        assert curve.fit is not None


class TestMoments:
    def test_mass_growth_and_saturation(self):
        # from u0 = 0: E||u||^2 <= 2 Tr t early and saturates near Tr/alpha
        M = 16
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        params = md.ModelParams(gamma=0.0, alpha=1.0, M=M)
        rep = st.moment_experiment(params, spec, np.zeros(M, complex), T=8.0,
                                   n_list=(1,), ensemble_size=400, seed=12,
                                   dt=5e-3, record_every=20)
        tr = nz.traces(spec).tr_qq
        m1 = rep.mean_h2n[1]
        early = rep.t <= 0.2
        assert np.all(m1[early] <= 2 * tr * np.maximum(rep.t[early], 0) + 1e-9)
        # closed form at gamma = 0: E||u||^2 = Tr (1 - e^{-2 alpha t})/alpha
        closed = tr * (1 - np.exp(-2 * rep.t)) / 1.0
        se = closed / np.sqrt(400) * np.sqrt(2.0) + 1e-12
        assert np.all(np.abs(m1 - closed) <= 4 * se + 5e-4)
        assert m1[-1] <= tr / 1.0 * 1.2

    def test_deterministic_decay_to_zero(self):
        M = 16
        params = md.ModelParams(gamma=0.0, alpha=1.0, M=M)
        rep = st.moment_experiment(params, nz.NoiseSpec(np.zeros(0)),
                                   0.5 * basis_mode(M, 1), T=10.0, n_list=(1,),
                                   ensemble_size=2, seed=13, dt=5e-3,
                                   record_every=100, xi=0.1)
        assert rep.mean_phin[1][-1] < 1e-4 * rep.mean_phin[1][0]

    def test_xi_bound_enforced(self):
        spec = nz.NoiseSpec(np.array([1.0]))
        params = md.ModelParams(gamma=0.0, alpha=1.0, M=4)
        with pytest.raises(ValueError):
            st.moment_experiment(params, spec, np.zeros(4, complex), T=0.1,
                                 xi=10.0, ensemble_size=2, seed=14)


class TestMassIdentity:
    def test_residuals_unbiased(self):
        M = 32
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        rep = st.mass_identity_residuals(params, spec, np.zeros(M, complex),
                                         T=4.0, n_checkpoints=8,
                                         ensemble_size=300, seed=15, dt=5e-3)
        assert np.all(rep.inside_3se)

    def test_error_bars_shrink_like_root_n(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        small = st.mass_identity_residuals(params, spec, np.zeros(M, complex),
                                           T=1.0, n_checkpoints=2,
                                           ensemble_size=100, seed=16, dt=5e-3)
        big = st.mass_identity_residuals(params, spec, np.zeros(M, complex),
                                         T=1.0, n_checkpoints=2,
                                         ensemble_size=400, seed=16, dt=5e-3)
        ratio = small.se_residual.mean() / big.se_residual.mean()
        assert ratio == pytest.approx(2.0, rel=0.35)


class TestTails:
    def test_monotone_and_vanishing(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        rho = np.geomspace(1e-2, 1e4, 10)
        rep = st.tail_experiment(params, spec, np.zeros(M, complex), n=4, p=1.0,
                                 rho_grid=rho, T=4.0, ensemble_size=100,
                                 seed=17, dt=2e-3, record_every=5)
        assert np.all(np.diff(rep.frequency) <= 1e-12)
        assert rep.frequency[-1] == 0.0
        assert rep.c_n_hat > 0


class TestInvariantMeasure:
    def test_deterministic_limit_is_delta_zero(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        emp, diag = st.invariant_measure_sample(params, nz.NoiseSpec(np.zeros(0)),
                                                burn_in=20.0, n_samples=8,
                                                thinning=0.5, seed=18, dt=5e-3,
                                                u0=0.5 * basis_mode(M, 1))
        assert np.all(fn.norm_h(emp.samples) < 1e-6)

    def test_ergodic_consistency_and_gamma_trend(self):
        M = 16
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)

        def measure(g, tag):
            params = md.ModelParams(gamma=g, alpha=1.0, M=M)
            return st.invariant_measure_sample(params, spec, burn_in=20.0,
                                               n_samples=96, thinning=1.0,
                                               seed=nz.derive_seed(19, tag),
                                               dt=5e-3)

        ref, diag0 = measure(0.0, "g0")
        # thinned-sample mean of Phi agrees with the time average
        spread = abs(diag0["phi_sample_mean"] - diag0["phi_time_average"])
        assert spread <= 0.5 * max(abs(diag0["phi_time_average"]), 1e-6)
        w_big = st.wasserstein(measure(0.3, "g3")[0], ref, "d0").value
        w_small = st.wasserstein(measure(0.02, "g02")[0], ref, "d0").value
        assert w_small < w_big
