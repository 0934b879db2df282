import numpy as np
import pytest

from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import stats as st
from glnls.config import default_config, validate
from glnls.spectral import basis_mode, eigenvalues

CONSTS = fn.FunctionalConstants(kappa=1.0, kappa2=1.0, xi=0.1)


def dense_lp_oracle(a, p, n=20001):
    """Independent fine-quadrature oracle: trapezoid on a dense uniform grid."""
    x = np.linspace(0.0, 1.0, n)
    k = np.arange(1, len(a) + 1)
    vals = (np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))) @ a
    return np.trapezoid(np.abs(vals) ** p, x) ** (1.0 / p)


def random_field(rng, M, decay=1.0):
    z = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return z / np.arange(1, M + 1) ** decay


def gn_holds(a, kappa):
    """||u||_{L^4}^4 <= 1/4 ||u||_{H^1}^2 + kappa/2 ||u||_H^6, to rounding."""
    rhs = 0.25 * fn.norm_hr_sq(a, 1.0) + 0.5 * kappa * fn.norm_h_sq(a) ** 3
    return fn.l4_norm4(a) <= rhs * (1 + 1e-12) + 1e-15


def d0xi(u, v, xi):
    """The d0xi ground cost between the single fields u and v."""
    return st.cost_matrix(st.EmpiricalMeasure(u), st.EmpiricalMeasure(v), "d0xi", xi=xi)[0, 0]


class TestNorms:
    def test_h1_of_e1(self):
        assert fn.norm_hr_sq(basis_mode(8, 1), 1.0) == pytest.approx(np.pi**2)

    def test_zero_for_all_r(self):
        z = np.zeros(8, complex)
        for r in (0.0, 0.75, 1.0, 1.5, 2.0, 3.0):
            assert fn.norm_hr(z, r) == 0.0

    def test_l4_of_e1_closed_form(self):
        # int_0^1 4 sin^4(pi x) dx = 3/2, cross-checked by the dense oracle
        e1 = basis_mode(16, 1)
        assert fn.l4_norm4(e1) == pytest.approx(1.5, rel=1e-12)
        assert dense_lp_oracle(e1, 4) ** 4 == pytest.approx(1.5, rel=1e-8)

    def test_lp_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        a = random_field(rng, 12)
        assert fn.norm_h(a) == pytest.approx(dense_lp_oracle(a, 2.0), rel=1e-6)
        assert fn.l4_norm4(a) ** 0.25 == pytest.approx(dense_lp_oracle(a, 4.0), rel=1e-6)

    def test_hr_weights_cached_read_only(self):
        w = fn._hr_weights(8, 1.5)
        assert w is fn._hr_weights(8, 1.5) and not w.flags.writeable
        a = random_field(np.random.default_rng(7), 8)
        assert fn.norm_hr_sq(a, 1.5) == np.sum(eigenvalues(8) ** 1.5 * np.abs(a) ** 2)

    @pytest.mark.parametrize("shape", [(8,), (5, 16), (2, 3, 64)])
    def test_both_norms_from_one_pass(self, shape):
        # one |a|^2 for both norms, with the bits of the two single-norm calls
        rng = np.random.default_rng(list(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h2, h1sq = fn.norms_h_h1_sq(a)
        assert np.array_equal(h2, fn.norm_h_sq(a))
        assert np.array_equal(h1sq, fn.norm_hr_sq(a, 1.0))

    def test_scaling(self):
        rng = np.random.default_rng(1)
        a = random_field(rng, 10)
        c = 0.7 - 1.3j
        assert fn.norm_h(c * a) == pytest.approx(abs(c) * fn.norm_h(a), rel=1e-12)
        assert fn.norm_hr(c * a, 1.5) == pytest.approx(abs(c) * fn.norm_hr(a, 1.5), rel=1e-12)


class TestPsiPhi:
    def test_zero(self):
        z = np.zeros(8, complex)
        assert fn.psi(z, CONSTS) == 0.0
        assert fn.phi(z, CONSTS) == 0.0

    def test_e1_values(self):
        e1 = basis_mode(8, 1)
        assert fn.psi(e1, CONSTS) == pytest.approx(np.pi**2 - 0.75 + 1.0, rel=1e-12)
        assert fn.phi(e1, CONSTS) == pytest.approx(np.pi**2 - 0.75 + 2.0, rel=1e-12)

    def test_phi_dominates_psi_on_unit_ball(self):
        rng = np.random.default_rng(2)
        fields = np.stack([random_field(rng, 16) for _ in range(200)])
        fields /= np.maximum(fn.norm_h(fields), 1.0)[:, None]
        assert np.all(fn.phi(fields, CONSTS) >= fn.psi(fields, CONSTS))

    def test_cube_chain_on_provable_range(self):
        # Psi >= (kappa/2)||u||_H^6 gives Psi^3 >= Phi once
        # Psi^2 (1 - 8/kappa^2) >= 1: from Psi >= sqrt(2) at kappa = 4
        consts = fn.FunctionalConstants(kappa=4.0)
        cut = np.sqrt(2.0)
        rng = np.random.default_rng(3)
        fields = 3.0 * np.stack([random_field(rng, 16) for _ in range(200)])
        ps = fn.psi(fields, consts)
        ph = fn.phi(fields, consts)
        big = ps >= cut
        assert big.any()
        assert np.all(ps[big] ** 3 >= ph[big] * (1 - 1e-12))
        assert np.all(ph >= ps)

    def test_cube_chain_counterexample_at_small_kappa(self):
        # the cube chain has no valid range for kappa <= 2 sqrt(2): with
        # kappa = 1, u = 10 e_1 has Psi ~ 1e6 but Phi > Psi^3
        u = 10.0 * basis_mode(16, 1)
        ps, ph = float(fn.psi(u, CONSTS)), float(fn.phi(u, CONSTS))
        assert ps > 1.0 and ps**3 < ph
        assert ph >= ps

    def test_phi_dominates_h1_at_default_kappa(self):
        # wherever the GN inequality holds, Phi >= 7/8 ||u||_{H^1}^2: the
        # bound that makes kappa2 = 1 admissible
        rng = np.random.default_rng(4)
        fields = np.stack([2.0 * random_field(rng, 16, decay=0.5) for _ in range(300)])
        consts = fn.FunctionalConstants()
        assert np.all(gn_holds(fields, consts.kappa))
        assert np.all(fn.phi(fields, consts) >= 0.875 * fn.norm_hr_sq(fields, 1.0))


class TestSharedFieldPhi:
    """Phi from the pad_points field the steppers synthesise, against fn.phi."""

    @pytest.mark.parametrize("M", [8, 32, 64])
    @pytest.mark.parametrize("pad_factor", [2, 3])
    def test_matches_phi(self, M, pad_factor):
        rng = np.random.default_rng([M, pad_factor])
        a = np.stack([random_field(rng, M, d) for d in (0.5, 1.0, 2.0) for _ in range(4)])
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, pad_factor=pad_factor)
        l4, ps, ph = md.field_energy(a, md.physical_field(a, p), *fn.norms_h_h1_sq(a),
                                     p, CONSTS)
        for got, ref in ((l4, fn.l4_norm4(a)), (ps, fn.psi(a, CONSTS)), (ph, fn.phi(a, CONSTS))):
            assert np.max(np.abs(got / ref - 1.0)) < 1e-13

    def test_dealias_off_keeps_l4_grid(self):
        # the M-point field aliases |u|^4, so the 2M+1-point grid of l4_norm4
        # must give the L4 term, bit for bit
        M = 16
        a = random_field(np.random.default_rng(6), M, 0.5)[None]
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, dealias=False)
        field = md.physical_field(a, p)
        assert field[0].shape[-1] == M
        assert abs(fn.l4_norm4_from_density(field[1]) / fn.l4_norm4(a) - 1.0) > 1e-6
        got = md.field_energy(a, field, *fn.norms_h_h1_sq(a), p, CONSTS)
        assert np.array_equal(got[0], fn.l4_norm4(a))
        assert np.array_equal(got[2], fn.phi(a, CONSTS))

    @pytest.mark.parametrize("dealias", [True, False])
    def test_ensemble_records(self, dealias):
        # the record columns against the reference functionals of the recorded states
        M = 16
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, dealias=dealias)
        spec = nz.NoiseSpec.power_profile(4, 0.5, 2.0)
        for scheme in ("strang", "expeuler"):
            integ = md.IntegratorConfig(dt=1e-3, record_every=7, scheme=scheme)
            rec = md.simulate_ensemble(0.3 * basis_mode(M, 1), p, integ, spec, 0.05, seed=4,
                                       traj_ids=np.arange(3), consts=CONSTS,
                                       record_states=True)
            e, u = rec.energy, rec.states
            assert np.array_equal(e.H, fn.norm_h_sq(u))
            assert np.array_equal(e.H1, fn.norm_hr_sq(u, 1.0))
            for got, ref in ((e.L4, fn.l4_norm4(u)), (e.psi, fn.psi(u, CONSTS)),
                             (e.phi, fn.phi(u, CONSTS))):
                if dealias:
                    assert np.max(np.abs(got / ref - 1.0)) < 1e-13
                else:
                    assert np.array_equal(got, ref)


class TestKappaCalibration:
    """The default kappa = 1 against the GN inequality it must satisfy."""

    def test_single_mode_closed_form(self):
        # along c e_1 the inequality binds at c^2 = G/(2L), where it needs
        # kappa = 2 L^2/(G B) = 4.5/pi^2; large amplitudes need vanishing kappa
        e1 = basis_mode(16, 1)
        L, G, B = fn.l4_norm4(e1), fn.norm_hr_sq(e1, 1.0), fn.norm_h_sq(e1) ** 3
        worst = 4.5 / np.pi**2
        assert 2.0 * L**2 / (G * B) == pytest.approx(worst, rel=1e-10)
        binding = np.sqrt(G / (2.0 * L)) * e1
        assert gn_holds(binding, worst) and not gn_holds(binding, 0.99 * worst)
        for c in (10.0, 100.0):
            L = fn.l4_norm4(c * e1)
            G = fn.norm_hr_sq(c * e1, 1.0)
            needed = 2.0 * max(L - G / 4.0, 0.0) / fn.norm_h_sq(c * e1) ** 3
            assert needed < worst  # -> 0 like 3/c^2 along the ray
            assert gn_holds(c * e1, worst)

    def test_default_kappa_holds_on_fresh_fields(self):
        rng = np.random.default_rng(5)
        fresh = np.concatenate([
            np.stack([random_field(rng, 16, d) for _ in range(5000)])
            for d in (0.5, 1.0, 2.0)
        ])
        scales = rng.uniform(0.05, 20.0, size=(len(fresh), 1))
        assert np.all(gn_holds(fresh * scales, 1.0))

    def test_default_kappa_admissible(self):
        # kappa = 1 at M = 64 on single modes, two-mode mixtures and random
        # fields, each at the amplitude where the inequality binds
        M = 64
        rng = np.random.default_rng(6)
        modes = np.eye(M, dtype=complex)
        mixes = np.stack([
            np.cos(m) * basis_mode(M, j) + np.sin(m) * np.exp(1j * ph) * basis_mode(M, k)
            for j, k in ((1, 2), (1, 3), (2, 8), (1, M))
            for m in np.linspace(0.15, 1.4, 5)
            for ph in (0.0, np.pi / 4, np.pi / 2, np.pi)
        ])
        rand = np.concatenate([
            np.stack([random_field(rng, M, d) for _ in range(300)]) for d in (0.0, 1.0, 2.0)
        ])
        dirs = np.concatenate([modes, mixes, rand])
        binding = np.sqrt(fn.norm_hr_sq(dirs, 1.0) / (2.0 * fn.l4_norm4(dirs)))[:, None]
        assert np.all(gn_holds(binding * dirs, 1.0))


class TestJFunctional:
    def test_identical_pair(self):
        rng = np.random.default_rng(7)
        u = random_field(rng, 12)
        assert fn.j_functional(u, u, CONSTS) == pytest.approx(0.0, abs=1e-12)

    def test_e1_versus_zero(self):
        M = 12
        u1 = basis_mode(M, 1)
        u2 = np.zeros(M, complex)
        expect = np.pi**2 + CONSTS.kappa2 * fn.phi(u1, CONSTS) * 1.0
        assert fn.j_functional(u1, u2, CONSTS) == pytest.approx(float(expect), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        u1, u2 = random_field(rng, 10), random_field(rng, 10)
        assert fn.j_functional(u1, u2, CONSTS) == pytest.approx(
            float(fn.j_functional(u2, u1, CONSTS)), rel=1e-12
        )

    def test_cross_term_against_dense_quadrature(self):
        rng = np.random.default_rng(9)
        u1, u2 = random_field(rng, 6), random_field(rng, 6)
        v = u1 - u2
        x = np.linspace(0, 1, 40001)
        k = np.arange(1, 7)
        S = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
        p1, p2, pv = S @ u1, S @ u2, S @ v
        oracle = np.trapezoid(np.real(p1 * p2 * np.conj(pv) ** 2), x)
        got = fn._re_cross_term(u1, u2, v)
        assert got == pytest.approx(oracle, rel=1e-7, abs=1e-10)

    def test_j_dominates_h1_at_default_kappa2(self):
        # pairs in the ball ||u||_{H^1} <= 3: 1/2 kappa2 (Phi1 + Phi2)||v||_H^2
        # dominates the cross term, so J >= ||u1 - u2||_{H^1}^2
        rng = np.random.default_rng(10)
        consts = fn.FunctionalConstants()
        for _ in range(200):
            u1 = random_field(rng, 16)
            u2 = random_field(rng, 16)
            scale = rng.uniform(0.1, 1.0)
            u1, u2 = scale * u1 / fn.norm_hr(u1, 1.0) * 3.0, scale * u2 / fn.norm_hr(u2, 1.0) * 3.0
            v = u1 - u2
            half = 0.5 * consts.kappa2 * (fn.phi(u1, consts) + fn.phi(u2, consts))
            assert half * fn.norm_h_sq(v) >= abs(fn._re_cross_term(u1, u2, v))
            assert fn.j_functional(u1, u2, consts) >= fn.norm_hr_sq(v, 1.0) - 1e-9


class TestEnAccumulation:
    def test_zero_trajectory(self):
        acc = fn.EnAccumulator(2, alpha=1.0)
        acc.reset(0.0)
        for _ in range(10):
            acc.push(0.0, 0.1)
        assert acc.value() == 0.0

    def test_frozen_e1(self):
        # constant Phi(e1), n = 1, alpha = 1, t = 2 -> 2 Phi(e1)
        phi1 = float(fn.phi(basis_mode(8, 1), CONSTS))
        acc = fn.EnAccumulator(1, alpha=1.0)
        acc.reset(phi1)
        dt = 1e-3
        for _ in range(2000):
            acc.push(phi1, dt)
        assert acc.value() == pytest.approx(2.0 * phi1, rel=1e-9)

    def test_en_dominates_phin_along_trajectory(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        integ = md.IntegratorConfig(dt=1e-3, record_every=20)
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        rec = md.simulate_ensemble(
            np.zeros(M, complex), params, integ, spec, 1.0, seed=11,
            consts=CONSTS, track_phi_every_step=True,
        )
        assert np.all(rec.energy.E4 >= rec.energy.phi**4 - 1e-12)
        assert np.all(rec.energy.E1 >= rec.energy.phi - 1e-12)

    def test_vectorized_accumulate_matches(self):
        # records every 5 steps of 0.01 and a last one 3 steps after the 49th
        rng = np.random.default_rng(12)
        phis = rng.uniform(0.0, 2.0, size=50)
        rec_steps = md.record_schedule(49 * 5 - 2, 5)
        acc = fn.EnAccumulator(4, alpha=0.7)
        acc.reset(phis[0])
        series = [acc.value()]
        for p, gap in zip(phis[1:], np.diff(rec_steps)):
            series.append(acc.push(p, 0.01 * gap))
        vec = fn.accumulate_en(phis, rec_steps, 0.01, 4, 0.7)
        assert np.allclose(series, vec, rtol=1e-13, atol=0.0)


class TestDistances:
    def test_coincident(self):
        rng = np.random.default_rng(13)
        u = random_field(rng, 8)
        assert fn.dist_d0(u, u) == 0.0
        # the cost matrix forms its costs from the differences, which vanish
        emp = st.EmpiricalMeasure(u)
        assert st.cost_matrix(emp, emp, "d0")[0, 0] == 0.0
        assert d0xi(u, u, xi=0.1) == 0.0

    def test_clamp(self):
        u = 5.0 * basis_mode(8, 1)
        assert fn.dist_d0(u, np.zeros(8, complex)) == 1.0

    def test_d0xi_formula(self):
        e1 = basis_mode(8, 1)
        z = np.zeros(8, complex)
        assert d0xi(e1, z, xi=0.1) == pytest.approx(np.sqrt(2.0 + np.exp(0.1)), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        u, v = random_field(rng, 8), random_field(rng, 8)
        for k in (0, 1):
            assert fn.dist_dk(u, v, k) == pytest.approx(float(fn.dist_dk(v, u, k)))
        assert d0xi(u, v, 0.2) == pytest.approx(d0xi(v, u, 0.2))

    def test_overflow_reported(self):
        big = 40.0 * basis_mode(4, 1)
        with pytest.raises(fn.ExponentialOverflowError):
            d0xi(big, np.zeros(4, complex), xi=1.0)
        vals, flagged = fn.exp_xi_weight(big, xi=1.0, cap=700.0)
        assert flagged == 1 and np.isfinite(vals).all()


class TestConstants:
    def test_positivity(self):
        with pytest.raises(ValueError):
            fn.FunctionalConstants(kappa=0.0)
        with pytest.raises(ValueError):
            fn.FunctionalConstants(kappa2=-1.0)

    def test_xi_bound(self):
        # alpha = 1 and Tr(QQ*) = 1 bound xi below 0.5 in a run configuration
        def violations(xi):
            cfg = default_config()
            cfg.model["alpha"], cfg.noise["lambdas"], cfg.functionals["xi"] = "1.0", "1.0", xi
            return [v for v in validate(cfg) if "xi" in v]

        assert violations("10.0") and violations("0.5")
        assert violations("0.4") == []
